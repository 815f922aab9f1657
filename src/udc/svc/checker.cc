#include "udc/svc/checker.h"

#include <array>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "udc/common/check.h"
#include "udc/svc/session.h"

namespace udc {

namespace {

constexpr int kRegisters = 64;

struct NodeState {
  std::map<std::uint64_t, std::uint64_t> last;  // session -> last applied seq
  std::map<std::pair<std::uint64_t, std::uint64_t>, SvcResult> results;
  std::array<std::pair<std::int64_t, std::uint64_t>, kRegisters> regs{};
};

}  // namespace

SvcSessionReport check_sessions(
    const std::vector<std::vector<SvcBatch>>& applied_per_node,
    const std::vector<SvcClientRecord>& confirmed) {
  SvcSessionReport rep;
  const std::size_t n = applied_per_node.size();
  std::vector<NodeState> st(n);
  // Write content by (session, seq): duplicates across retries and adopted
  // batches must agree byte-for-byte — a conflicting duplicate means two
  // different operations claimed one dedup slot.
  std::map<std::pair<std::uint64_t, std::uint64_t>, SvcOp> content;
  // (reg, version) -> value, from the reference replay: what each register
  // version actually held, for validating read results.
  std::map<std::pair<std::int32_t, std::uint64_t>, std::int64_t> written;

  for (std::size_t p = 0; p < n; ++p) {
    for (const SvcBatch& b : applied_per_node[p]) {
      for (const SvcOp& op : b.ops) {
        if (op.kind != SvcOpKind::kWrite) continue;  // reads never batch
        const auto key = std::make_pair(op.session, op.seq);
        auto [cit, fresh] = content.emplace(key, op);
        if (!fresh && (cit->second.reg != op.reg ||
                       cit->second.value != op.value)) {
          rep.exactly_once = false;
          std::ostringstream out;
          out << "exactly-once: session " << op.session << " seq " << op.seq
              << " carries conflicting content across duplicates";
          rep.violations.push_back(out.str());
        }
        if (op.reg < 0 || op.reg >= kRegisters) {
          rep.per_session_order = false;
          std::ostringstream out;
          out << "apply: p" << p << " batch slot " << b.slot
              << " op with register " << op.reg << " out of range";
          rep.violations.push_back(out.str());
          continue;
        }
        auto& last = st[p].last[op.session];
        if (op.seq <= last) {
          ++rep.suppressed_duplicates;
          continue;
        }
        if (op.seq != last + 1) {
          rep.per_session_order = false;
          std::ostringstream out;
          out << "order: p" << p << " session " << op.session
              << " jumped from seq " << last << " to " << op.seq
              << " (slot " << b.slot << ")";
          rep.violations.push_back(out.str());
        }
        last = op.seq;
        auto& reg = st[p].regs[static_cast<std::size_t>(op.reg)];
        reg.first = op.value;
        ++reg.second;
        st[p].results[key] = SvcResult{op.value, reg.second};
        ++rep.effective_applies;
        if (p == 0) written[{op.reg, reg.second}] = op.value;
      }
    }
  }

  // Agreement: every replica converged to the same effective history and
  // the same final state.  (The supervisor quiesces the fleet before
  // checking, so lag is not an excuse here.)
  for (std::size_t p = 1; p < n; ++p) {
    if (st[p].results != st[0].results) {
      rep.agreement = false;
      std::ostringstream out;
      out << "agreement: p" << p << " effective applies ("
          << st[p].results.size() << ") differ from p0 ("
          << st[0].results.size() << ")";
      rep.violations.push_back(out.str());
    }
    if (st[p].regs != st[0].regs) {
      rep.agreement = false;
      std::ostringstream out;
      out << "agreement: p" << p << " final register state differs from p0";
      rep.violations.push_back(out.str());
    }
  }

  // Client-confirmed writes must be applied at EVERY replica with the
  // acknowledged result — acked-then-lost is the uniformity violation.
  for (const SvcClientRecord& c : confirmed) {
    if (c.kind != SvcOpKind::kWrite) continue;
    const auto key = std::make_pair(c.session, c.seq);
    for (std::size_t p = 0; p < n; ++p) {
      auto it = st[p].results.find(key);
      if (it == st[p].results.end()) {
        rep.client_confirmed = false;
        std::ostringstream out;
        out << "confirmed: session " << c.session << " seq " << c.seq
            << " acked to the client but never applied at p" << p;
        rep.violations.push_back(out.str());
        continue;
      }
      if (it->second.value != c.value || it->second.version != c.version) {
        rep.client_confirmed = false;
        std::ostringstream out;
        out << "confirmed: session " << c.session << " seq " << c.seq
            << " acked as (v=" << c.value << ", ver=" << c.version
            << ") but applied as (v=" << it->second.value
            << ", ver=" << it->second.version << ") at p" << p;
        rep.violations.push_back(out.str());
      }
    }
  }

  // Session causality over completions: versions a session observes for a
  // register never regress, and every read's (version, value) pair is one
  // some write actually produced (version 0 reads the initial zero).
  std::map<std::pair<std::uint64_t, std::int32_t>, std::uint64_t> seen;
  for (const SvcClientRecord& c : confirmed) {
    auto& floor = seen[{c.session, c.reg}];
    if (c.version < floor) {
      rep.read_monotone = false;
      std::ostringstream out;
      out << "monotone: session " << c.session << " observed register "
          << c.reg << " regress from version " << floor << " to "
          << c.version;
      rep.violations.push_back(out.str());
    }
    floor = std::max(floor, c.version);
    if (c.kind == SvcOpKind::kRead && c.version != 0) {
      auto it = written.find({c.reg, c.version});
      if (it == written.end() || it->second != c.value) {
        rep.read_monotone = false;
        std::ostringstream out;
        out << "read: session " << c.session << " observed register "
            << c.reg << " = (v=" << c.value << ", ver=" << c.version
            << "), which no write produced";
        rep.violations.push_back(out.str());
      }
    }
  }

  return rep;
}

SvcReplicaJoin join_do_order(const std::vector<ActionId>& do_order,
                             std::vector<SvcBatch> records) {
  SvcReplicaJoin j;
  for (SvcBatch& b : records) j.last_record[b.action] = std::move(b);
  for (ActionId a : do_order) {
    auto it = j.last_record.find(a);
    if (it == j.last_record.end()) {
      j.unbacked.push_back(a);
    } else {
      j.applied.push_back(it->second);
    }
  }
  return j;
}

SvcFleetJoin join_fleet(const Run& run,
                        std::vector<std::vector<SvcBatch>> svclogs,
                        const std::vector<bool>& dead_for_good) {
  UDC_CHECK(svclogs.size() == static_cast<std::size_t>(run.n()) &&
                dead_for_good.size() == svclogs.size(),
            "join_fleet: one service log and one fate per replica");
  SvcFleetJoin out;
  std::set<ActionId> initiated;
  for (ProcessId p = 0; p < run.n(); ++p) {
    const auto i = static_cast<std::size_t>(p);
    std::vector<ActionId> do_order;
    for (const Event& e : run.history(p).events()) {
      if (e.kind == EventKind::kInit) initiated.insert(e.action);
      if (e.kind == EventKind::kDo) do_order.push_back(e.action);
    }
    if (dead_for_good[i]) continue;
    SvcReplicaJoin join = join_do_order(do_order, std::move(svclogs[i]));
    out.join_ok = out.join_ok && join.unbacked.empty();
    auto& slots = out.slots.emplace_back();
    for (const SvcBatch& b : join.applied) slots.push_back({b.slot, b.action});
    out.applied.push_back(std::move(join.applied));
  }
  out.actions.assign(initiated.begin(), initiated.end());
  return out;
}

}  // namespace udc
