#include "udc/coord/metrics.h"

#include <algorithm>
#include <sstream>

namespace udc {

ActionMetrics measure_action(const Run& r, ActionId action) {
  ActionMetrics m;
  m.action = action;
  ProcessId owner = action_owner(action);
  m.initiated_at = r.first_event_time(owner, [action](const Event& e) {
    return e.kind == EventKind::kInit && e.action == action;
  });
  Time last_correct_do = -1;
  bool all_correct_did = !r.correct_set().empty();
  for (ProcessId q = 0; q < r.n(); ++q) {
    auto t = r.first_event_time(q, [action](const Event& e) {
      return e.kind == EventKind::kDo && e.action == action;
    });
    if (t && (!m.first_do || *t < *m.first_do)) m.first_do = t;
    if (!r.is_faulty(q)) {
      if (!t) {
        all_correct_did = false;
      } else {
        last_correct_do = std::max(last_correct_do, *t);
      }
    }
  }
  if (all_correct_did && last_correct_do >= 0) {
    m.completed_at = last_correct_do;
  }
  return m;
}

CoordinationMetrics measure_coordination(const System& sys,
                                         std::span<const ActionId> actions) {
  CoordinationMetrics agg;
  double total_latency = 0;
  for (const Run& r : sys.runs()) {
    for (ActionId a : actions) {
      ActionMetrics m = measure_action(r, a);
      if (!m.initiated_at) continue;
      ++agg.initiated;
      if (auto lat = m.latency()) {
        ++agg.completed;
        total_latency += static_cast<double>(*lat);
        agg.max_latency = std::max(agg.max_latency, *lat);
      }
    }
  }
  if (agg.completed > 0) {
    agg.mean_latency = total_latency / static_cast<double>(agg.completed);
  }
  return agg;
}

Time last_send_time(const Run& r) {
  Time last = 0;
  for (ProcessId p = 0; p < r.n(); ++p) {
    const History& h = r.history(p);
    for (std::size_t i = h.size(); i-- > 0;) {
      if (h[i].kind == EventKind::kSend) {
        last = std::max(last, r.event_time(p, i));
        break;
      }
    }
  }
  return last;
}

void RuntimeCounters::merge(const RuntimeCounters& other) {
  for (const RuntimeCounterField& f : kRuntimeCounterFields) {
    this->*f.field += other.*f.field;
  }
}

namespace {

constexpr std::size_t kCounterRows = std::size(kRuntimeCounterFields);

std::vector<std::uint64_t> pack_rows(const RuntimeCounters& c,
                                     std::size_t begin, std::size_t end) {
  std::vector<std::uint64_t> v;
  v.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    v.push_back(c.*kRuntimeCounterFields[i].field);
  }
  return v;
}

void unpack_rows(const std::vector<std::uint64_t>& v, std::size_t offset,
                 std::size_t begin, std::size_t end, RuntimeCounters* c) {
  for (std::size_t i = begin; i < end; ++i) {
    const std::size_t slot = offset + (i - begin);
    c->*kRuntimeCounterFields[i].field =
        slot < v.size() ? static_cast<std::size_t>(v[slot]) : 0;
  }
}

}  // namespace

std::vector<std::uint64_t> pack_node_counters(const RuntimeCounters& c) {
  return pack_rows(c, 0, kNodeCounterSlots);
}

RuntimeCounters unpack_node_counters(const std::vector<std::uint64_t>& v) {
  RuntimeCounters c;
  unpack_rows(v, 0, 0, kNodeCounterSlots, &c);
  return c;
}

std::vector<std::uint64_t> pack_svc_counters(const RuntimeCounters& c) {
  return pack_rows(c, kNodeCounterSlots, kCounterRows);
}

void unpack_svc_counters(const std::vector<std::uint64_t>& v,
                         std::size_t offset, RuntimeCounters* c) {
  unpack_rows(v, offset, kNodeCounterSlots, kCounterRows, c);
}

std::string format_runtime_counters(const RuntimeCounters& c) {
  // The service block prints only for runs that served client traffic.
  const bool svc = c.svc_requests || c.svc_batches_sealed || c.svc_elections;
  std::ostringstream out;
  const std::size_t rows = svc ? kCounterRows : kNodeCounterSlots;
  for (std::size_t i = 0; i < rows; ++i) {
    const RuntimeCounterField& f = kRuntimeCounterFields[i];
    out << (i == 0 ? "" : " ") << f.key << '=' << c.*f.field;
  }
  return out.str();
}

}  // namespace udc
