// In-memory spans for udcbench's traced run, written out as JSONL when the
// run ends.  Spans are recorded only in benchmark code, around its calls
// into each layer; the scored run has the tracer off, and an off tracer
// records nothing.
//
// A span's self time is its duration minus the part of it that its child
// spans cover.  Per-op spans (gen.issue, svc.client.queue,
// svc.client.service) carry the op's (session, seq) id; counter samples
// carry the status-counter snapshot taken at that instant.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace udcbench {

struct Span {
  std::string name;
  std::int64_t id = 0;
  std::int64_t parent = -1;
  std::int64_t start_ns = 0;  // from the tracer's epoch
  std::int64_t end_ns = 0;
  std::uint64_t session = 0;  // per-op spans only
  std::uint64_t seq = 0;
};

struct CounterSample {
  std::string at;  // e.g. "window.start"
  std::int64_t t_ns = 0;
  std::vector<std::pair<std::string, double>> values;
};

// Per span name: how many, their total and self time.
struct LayerRow {
  std::string name;
  std::size_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
  double p50_us = 0;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  bool on() const { return on_; }

  // Opens a span now; returns its id (-1 when off).
  std::int64_t begin(std::string name, std::int64_t parent = -1);
  void end(std::int64_t id);
  // Records a finished span; returns its id (-1 when off).
  std::int64_t add(Span s);
  void counter(CounterSample c);

  static std::int64_t now_ns();

  const std::vector<Span>& spans() const { return spans_; }
  std::vector<LayerRow> layers() const;
  void write_jsonl(std::ostream& out, const std::string& workload) const;

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<CounterSample> counters_;
};

}  // namespace udcbench
