#include "trace.h"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <map>
#include <ostream>

#include "account.h"

namespace udcbench {

std::int64_t Tracer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t Tracer::begin(std::string name, std::int64_t parent) {
  if (!on_) return -1;
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.start_ns = now_ns();
  s.end_ns = -1;
  return add(std::move(s));
}

void Tracer::end(std::int64_t id) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
}

std::int64_t Tracer::add(Span s) {
  if (!on_) return -1;
  s.id = static_cast<std::int64_t>(spans_.size());
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void Tracer::counter(CounterSample c) {
  if (on_) counters_.push_back(std::move(c));
}

namespace {

// "store.recover[2]" and "store.recover[0]" are one layer.
std::string layer_of(const std::string& name) {
  return name.substr(0, name.find('['));
}

// Nanoseconds of [s.start, s.end] covered by the union of `kids`.
std::int64_t covered(const Span& s,
                     std::vector<std::pair<std::int64_t, std::int64_t>> kids) {
  std::sort(kids.begin(), kids.end());
  std::int64_t total = 0;
  std::int64_t reach = s.start_ns;
  for (auto [a, b] : kids) {
    a = std::max(a, reach);
    b = std::min(b, s.end_ns);
    if (b > a) {
      total += b - a;
      reach = b;
    }
  }
  return total;
}

}  // namespace

std::vector<LayerRow> Tracer::layers() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_ns >= 0) {
      kids[static_cast<std::size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
    }
  }
  std::map<std::string, LayerRow> rows;
  std::map<std::string, std::vector<double>> durs;
  for (const Span& s : spans_) {
    if (s.end_ns < 0) continue;
    const std::string layer = layer_of(s.name);
    LayerRow& r = rows[layer];
    r.name = layer;
    ++r.count;
    const std::int64_t dur = s.end_ns - s.start_ns;
    r.total_ms += dur / 1e6;
    r.self_ms +=
        (dur - covered(s, std::move(kids[static_cast<std::size_t>(s.id)]))) /
        1e6;
    durs[layer].push_back(dur / 1e3);
  }
  std::vector<LayerRow> out;
  for (auto& [layer, r] : rows) {
    std::vector<double>& d = durs[layer];
    std::sort(d.begin(), d.end());
    r.p50_us = quantile(d, 0.5);
    out.push_back(r);
  }
  return out;
}

void Tracer::write_jsonl(std::ostream& out, const std::string& workload) const {
  std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& s : spans_) t0 = std::min(t0, s.start_ns);
  out << std::fixed << std::setprecision(3);
  for (const Span& s : spans_) {
    out << "{\"type\":\"span\",\"workload\":\"" << workload << "\",\"name\":\""
        << s.name << "\",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"start_us\":" << (s.start_ns - t0) / 1e3
        << ",\"end_us\":" << (s.end_ns - t0) / 1e3;
    if (s.session != 0) {
      out << ",\"op\":[" << s.session << "," << s.seq << "]";
    }
    out << "}\n";
  }
  for (const CounterSample& c : counters_) {
    out << "{\"type\":\"counters\",\"workload\":\"" << workload
        << "\",\"at\":\"" << c.at << "\",\"t_us\":" << (c.t_ns - t0) / 1e3
        << ",\"values\":{";
    for (std::size_t i = 0; i < c.values.size(); ++i) {
      out << (i ? "," : "") << "\"" << c.values[i].first
          << "\":" << c.values[i].second;
    }
    out << "}}\n";
  }
}

}  // namespace udcbench
