#include "verify.h"

#include <algorithm>
#include <map>
#include <set>

namespace udcbench {

udc::Run lift(const std::vector<Shard>& shards,
              std::vector<udc::ActionId>* initiated) {
  struct Merged {
    udc::Time tick = 0;
    udc::ProcessId p = udc::kInvalidProcess;
    std::size_t idx = 0;  // per-shard order, the sort tiebreaker
    const udc::Event* e = nullptr;
  };
  static const udc::Event kCrash = udc::Event::crash();
  std::vector<Merged> merged;
  std::set<udc::ActionId> init;
  for (std::size_t p = 0; p < shards.size(); ++p) {
    const auto pid = static_cast<udc::ProcessId>(p);
    udc::Time last = 0;
    std::size_t idx = 0;
    for (const udc::StoreRecord& r : shards[p].records) {
      merged.push_back({r.t, pid, idx++, &r.e});
      last = std::max(last, r.t);
      if (r.e.kind == udc::EventKind::kInit) init.insert(r.e.action);
    }
    if (shards[p].killed) merged.push_back({last + 1, pid, idx, &kCrash});
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const Merged& a, const Merged& b) {
                     if (a.tick != b.tick) return a.tick < b.tick;
                     if (a.p != b.p) return a.p < b.p;
                     return a.idx < b.idx;
                   });
  udc::Run::Builder b(static_cast<int>(shards.size()));
  for (const Merged& m : merged) {
    b.append(m.p, *m.e);
    b.end_step();
  }
  initiated->assign(init.begin(), init.end());
  return std::move(b).build();
}

namespace {

// The replica's applied batches: each durable kDo joined to the last
// service-log record of its action.  False when a kDo has no record.
bool applied_batches(const Shard& shard, std::vector<udc::SvcBatch>* out) {
  std::map<udc::ActionId, const udc::SvcBatch*> by_action;
  for (const udc::SvcBatch& b : shard.svclog) by_action[b.action] = &b;
  bool ok = true;
  for (const udc::StoreRecord& r : shard.records) {
    if (r.e.kind != udc::EventKind::kDo) continue;
    auto it = by_action.find(r.e.action);
    if (it == by_action.end()) {
      ok = false;
      continue;
    }
    out->push_back(*it->second);
  }
  return ok;
}

}  // namespace

Survivors survivors(const std::vector<Shard>& shards) {
  Survivors out;
  for (const Shard& s : shards) {
    if (s.killed) continue;
    out.applied.emplace_back();
    out.join_ok = applied_batches(s, &out.applied.back()) && out.join_ok;
    out.slots.emplace_back();
    for (const udc::SvcBatch& b : out.applied.back()) {
      out.slots.back().push_back({b.slot, b.action});
    }
  }
  return out;
}

}  // namespace udcbench
