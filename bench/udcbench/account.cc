#include "account.h"

#include <algorithm>
#include <cmath>

#include "udc/common/rng.h"

namespace udcbench {

const std::vector<Workload>& workloads() {
  // Why each workload exists: README.md.
  static const std::vector<Workload> kAll = {
      {"write_capacity", Arrivals::kClosed, 0, 0.0, false},
      {"write_fixed", Arrivals::kPareto, 200, 0.0, false},
      {"read_lease", Arrivals::kPareto, 2000, 0.95, false},
      {"failover", Arrivals::kFixed, 200, 0.0, true},
  };
  return kAll;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

namespace {

// Bounded Pareto with the service fleet's shape: alpha 1.5, mean `mean`,
// capped at 40x the mean so one draw cannot stall the schedule.
double pareto(double mean, udc::Rng& rng) {
  const double alpha = 1.5;
  const double xm = mean * (alpha - 1.0) / alpha;
  double u = rng.next_double();
  if (u < 1e-12) u = 1e-12;
  return std::min(xm / std::pow(u, 1.0 / alpha), mean * 40.0);
}

}  // namespace

std::vector<Arrival> open_schedule(const Workload& w, std::uint64_t seed,
                                   double warmup_s, double window_s) {
  std::vector<Arrival> out;
  if (w.arrivals == Arrivals::kClosed) return out;
  udc::Rng rng(seed ^ 0x7564636265ull);  // "udcbe"
  std::int64_t value = 0;
  auto part = [&](double from_s, double len_s) {
    const auto n = static_cast<std::size_t>(std::llround(w.rate * len_s));
    const double from_ns = from_s * 1e9;
    const double len_ns = len_s * 1e9;
    std::vector<double> at(n);
    if (w.arrivals == Arrivals::kFixed) {
      for (std::size_t i = 0; i < n; ++i) at[i] = i * (1e9 / w.rate);
    } else {
      // n + 1 gaps: the last one separates the final op from the part's
      // end, so the part boundary is as random as any other gap.
      double sum = 0;
      for (std::size_t i = 0; i < n; ++i) {
        sum += pareto(1.0, rng);
        at[i] = sum;
      }
      sum += pareto(1.0, rng);
      for (double& t : at) t *= len_ns / sum;
    }
    for (std::size_t i = 0; i < n; ++i) {
      Arrival a;
      a.due_ns = static_cast<std::int64_t>(from_ns + at[i]);
      a.session = 1 + rng.next_below(kSessions);
      a.read = rng.chance(w.read_frac);
      a.reg = static_cast<std::int32_t>(rng.next_below(kRegisters));
      a.value = ++value;
      out.push_back(a);
    }
  };
  part(0, warmup_s);
  part(warmup_s, window_s);
  return out;
}

Arrival closed_op(std::uint64_t seed, std::uint64_t session,
                  std::uint64_t k) {
  udc::Rng rng(seed * 0x9e3779b97f4a7c15ull ^ (session << 40) ^ k);
  Arrival a;
  a.session = session;
  a.reg = static_cast<std::int32_t>(rng.next_below(kRegisters));
  a.value = static_cast<std::int64_t>((session << 32) | (k + 1));
  return a;
}

std::size_t Ledger::add(std::uint64_t session, std::int64_t due_ns) {
  OpRecord r;
  r.due_ns = due_ns;
  r.session = session;
  ops_.push_back(r);
  fifo_[session].push_back(ops_.size() - 1);
  ++open_;
  return ops_.size() - 1;
}

void Ledger::issued(std::size_t op, std::int64_t t_ns) {
  ops_[op].issued_ns = t_ns;
}

std::optional<std::size_t> Ledger::complete(std::uint64_t session,
                                            std::uint64_t seq,
                                            std::int64_t t_ns,
                                            double client_ms) {
  auto it = fifo_.find(session);
  if (it == fifo_.end() || it->second.empty()) return std::nullopt;
  const std::size_t op = it->second.front();
  it->second.pop_front();
  ops_[op].done_ns = t_ns;
  ops_[op].seq = seq;
  ops_[op].client_ms = client_ms;
  --open_;
  return op;
}

WindowStats window_stats(const std::vector<OpRecord>& ops, std::int64_t t0,
                         std::int64_t t1) {
  WindowStats s;
  for (const OpRecord& r : ops) {
    if (r.due_ns < t0 || r.due_ns >= t1) continue;
    ++s.due;
    if (r.issued_ns >= 0) s.late_us.push_back((r.issued_ns - r.due_ns) / 1e3);
    if (r.done_ns < 0) continue;
    ++s.ok;
    s.latency_ms.push_back((r.done_ns - r.due_ns) / 1e6);
    s.client_latency_ms.push_back(r.client_ms);
  }
  std::sort(s.latency_ms.begin(), s.latency_ms.end());
  std::sort(s.client_latency_ms.begin(), s.client_latency_ms.end());
  std::sort(s.late_us.begin(), s.late_us.end());
  return s;
}

std::size_t completions_between(const std::vector<OpRecord>& ops,
                                std::int64_t t0, std::int64_t t1) {
  return static_cast<std::size_t>(
      std::count_if(ops.begin(), ops.end(), [&](const OpRecord& r) {
        return r.done_ns >= t0 && r.done_ns < t1;
      }));
}

namespace {

// Nearest rank: the smallest sample with at least q of the samples at or
// below it.
std::size_t rank(std::size_t n, double q) {
  const auto r = static_cast<std::size_t>(std::ceil(q * n));
  return r == 0 ? 0 : r - 1;
}

}  // namespace

double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  return sorted[rank(sorted.size(), q)];
}

std::optional<double> supported_quantile(const std::vector<double>& sorted,
                                         double q) {
  if (sorted.empty()) return std::nullopt;
  const std::size_t i = rank(sorted.size(), q);
  if (sorted.size() - 1 - i < 10) return std::nullopt;
  return sorted[i];
}

}  // namespace udcbench
