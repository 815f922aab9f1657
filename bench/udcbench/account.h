// udcbench's workloads and its own accounting: the seeded op schedules,
// the per-op ledger that times every op from when it was due, and the
// window statistics the metrics are read from.
//
// Latency is measured by the benchmark, not taken from SvcClient's DoneFn
// argument: the client times an op from when its session DEQUEUES it, so
// an op queued behind a slow predecessor looks fast.  The ledger keeps a
// FIFO of open ops per session instead (SvcClient completes each session's
// ops in submission order), so queueing counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string_view>
#include <vector>

namespace udcbench {

inline constexpr int kSessions = 64;
// The service holds registers [0, 64); an op on a higher register is
// answered kOutOfOrder forever, so no schedule may contain one.
inline constexpr int kRegisters = 64;

enum class Arrivals {
  kClosed,  // every session issues its next write when the last completes
  kPareto,  // open loop, bounded-Pareto gaps (alpha 1.5, capped at 40x mean)
  kFixed,   // open loop, one op every 1/rate seconds
};

struct Workload {
  const char* name;
  Arrivals arrivals;
  double rate;       // open loop: ops per second
  double read_frac;  // share of ops that are lease reads
  bool kill_leader;  // SIGKILL the leader a quarter into the window
};

const std::vector<Workload>& workloads();
const Workload* find_workload(std::string_view name);

// One op of a schedule.  `due_ns` is an offset from the start of the load.
struct Arrival {
  std::int64_t due_ns = 0;
  std::uint64_t session = 0;  // 1..kSessions
  bool read = false;
  std::int32_t reg = 0;
  std::int64_t value = 0;

  friend bool operator==(const Arrival&, const Arrival&) = default;
};

// The open-loop schedule of a warm-up followed by a window.  Each part
// holds exactly rate x length ops, its gaps drawn from the workload's
// distribution and scaled to fill the part, so the offered load of every
// window is the same for every seed.
std::vector<Arrival> open_schedule(const Workload& w, std::uint64_t seed,
                                   double warmup_s, double window_s);

// The k-th (from 0) op a closed-loop session issues; a pure function of
// (seed, session, k).
Arrival closed_op(std::uint64_t seed, std::uint64_t session, std::uint64_t k);

// One op as the benchmark saw it.  Times are nanoseconds from the start
// of the load; -1 means "not yet".
struct OpRecord {
  std::int64_t due_ns = 0;      // due (open loop) or issued (closed loop)
  std::int64_t issued_ns = -1;  // the client's write()/read() returned
  std::int64_t done_ns = -1;    // DoneFn fired: completed OK
  std::uint64_t session = 0;
  std::uint64_t seq = 0;        // from the confirmed record
  double client_ms = 0;         // SvcClient's own (dequeue-based) latency
};

// Not thread-safe: the caller serializes access.
class Ledger {
 public:
  // Opens an op; call it BEFORE handing the op to the client.
  std::size_t add(std::uint64_t session, std::int64_t due_ns);
  void issued(std::size_t op, std::int64_t t_ns);
  // Closes the session's oldest open op.  Returns its index, or nothing
  // for a completion on a session with no open op.
  std::optional<std::size_t> complete(std::uint64_t session,
                                      std::uint64_t seq, std::int64_t t_ns,
                                      double client_ms);

  const std::vector<OpRecord>& ops() const { return ops_; }
  std::size_t open() const { return open_; }

 private:
  std::vector<OpRecord> ops_;
  std::map<std::uint64_t, std::deque<std::size_t>> fifo_;
  std::size_t open_ = 0;
};

struct WindowStats {
  std::size_t due = 0;           // ops due in [t0, t1)
  std::size_t ok = 0;            // ... of which completed OK
  std::vector<double> latency_ms;         // sorted; done - due
  std::vector<double> client_latency_ms;  // sorted; the client's own
  std::vector<double> late_us;            // sorted; issued - due

  std::size_t failed() const { return due - ok; }
  double failed_frac() const {
    return due == 0 ? 0.0 : static_cast<double>(failed()) / due;
  }
};

// Ops still open when the ledger is read count as failed.
WindowStats window_stats(const std::vector<OpRecord>& ops, std::int64_t t0,
                         std::int64_t t1);
std::size_t completions_between(const std::vector<OpRecord>& ops,
                                std::int64_t t0, std::int64_t t1);

// Nearest-rank quantile of sorted samples; 0 for no samples.
double quantile(const std::vector<double>& sorted, double q);
// The same quantile, but only when at least ten samples lie beyond it.
std::optional<double> supported_quantile(const std::vector<double>& sorted,
                                         double q);

}  // namespace udcbench
