// Linearizable-session checker: exactly-once, per-session order, and
// replica agreement over a whole chaotic run.
//
// Inputs are ground truth, not protocol claims: each replica's applied
// batch sequence is reconstructed from its DURABLE model history (the kDo
// order its WAL shard survived with, joined to batch content from the
// service logs), and the confirmed list is what clients actually saw
// acknowledged.  The checker replays every replica's sequence through a
// reference dedup + state machine and asserts:
//
//   per_session_order — each session's effective applies are seq 1,2,3,...
//                       dense and in order at every replica
//   exactly_once      — a (session, seq) never applies effectively twice,
//                       and duplicates never carry conflicting content
//   agreement         — all replicas converge: same effective apply set,
//                       same per-op results, same final register state
//   client_confirmed  — every write a client saw acknowledged is
//                       effectively applied at EVERY replica, with the
//                       result the client observed (an acked-then-lost
//                       write after kill -9 is the uniformity violation
//                       this service exists to rule out)
//   read_monotone     — per session, observed register versions never
//                       regress across its completions, and every read's
//                       (version, value) pair matches the write that
//                       produced that version
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "udc/common/types.h"
#include "udc/event/run.h"
#include "udc/svc/wire.h"

namespace udc {

// One client-confirmed completion, in client completion order.
struct SvcClientRecord {
  std::uint64_t session = 0;
  std::uint64_t seq = 0;
  SvcOpKind kind = SvcOpKind::kWrite;
  std::int32_t reg = 0;
  std::int64_t value = 0;     // write payload / read result
  std::uint64_t version = 0;  // register version the reply reported
};

struct SvcSessionReport {
  bool per_session_order = true;
  bool exactly_once = true;
  bool agreement = true;
  bool client_confirmed = true;
  bool read_monotone = true;
  std::uint64_t effective_applies = 0;     // across all replicas
  std::uint64_t suppressed_duplicates = 0;
  std::vector<std::string> violations;

  bool achieved() const {
    return per_session_order && exactly_once && agreement &&
           client_confirmed && read_monotone;
  }
};

SvcSessionReport check_sessions(
    const std::vector<std::vector<SvcBatch>>& applied_per_node,
    const std::vector<SvcClientRecord>& confirmed);

// A replica's apply sequence, rebuilt from its disk: the durable kDo order
// joined to its service-log records.  The rule: each kDo applies the LAST
// record of its action — the highest-term acceptance, the only one the
// cluster can have committed (svclog.h).  Replica recovery and the fleet
// verdict both rebuild a replica with it.
struct SvcReplicaJoin {
  std::map<ActionId, SvcBatch> last_record;  // per action with a record
  std::vector<SvcBatch> applied;             // one per joined kDo, in order
  std::vector<ActionId> unbacked;            // kDos with no record
};

SvcReplicaJoin join_do_order(const std::vector<ActionId>& do_order,
                             std::vector<SvcBatch> records);

// What a service fleet's verdict checks, rebuilt from the disks: every
// batch action any replica initiated in the lifted run, and each surviving
// replica's apply sequence (join_do_order of its kDo order in the run and
// its service-log records, as check_sessions and check_log_agreement take
// them).  A replica dead for good — SIGKILLed and never relaunched, or
// dead on its own — is left out of the apply sequences: it stopped
// converging when it died.  The caller reads the service logs, so it can
// time the reads, and runs the checkers.
struct SvcFleetJoin {
  std::vector<ActionId> actions;  // ascending
  std::vector<std::vector<SvcBatch>> applied;  // one per surviving replica
  std::vector<std::vector<std::pair<std::uint64_t, ActionId>>> slots;
  bool join_ok = true;  // every survivor's kDo had a service-log record
};

// `svclogs[p]` and `dead_for_good[p]` are replica p's, for every process
// of `run`.
SvcFleetJoin join_fleet(const Run& run,
                        std::vector<std::vector<SvcBatch>> svclogs,
                        const std::vector<bool>& dead_for_good);

}  // namespace udc
