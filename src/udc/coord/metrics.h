// Quantitative coordination metrics: how long UDC takes and how much it
// costs, per action and per run — the measurement layer behind the
// ablation experiments (AB1) and the examples' reporting.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "udc/coord/action.h"
#include "udc/event/run.h"
#include "udc/event/system.h"

namespace udc {

// Per-action account of one run.
struct ActionMetrics {
  ActionId action = kInvalidAction;
  std::optional<Time> initiated_at;
  // First do at the initiator / any process / the LAST correct process.
  std::optional<Time> first_do;
  std::optional<Time> completed_at;  // set only if every correct process did
  // Completion latency: completed_at - initiated_at.
  std::optional<Time> latency() const {
    if (!initiated_at || !completed_at) return std::nullopt;
    return *completed_at - *initiated_at;
  }
};

ActionMetrics measure_action(const Run& r, ActionId action);

// Aggregate over a system x action set.
struct CoordinationMetrics {
  std::size_t initiated = 0;
  std::size_t completed = 0;  // completed at every correct process
  double mean_latency = 0;    // over completed actions
  Time max_latency = 0;
  double completion_rate() const {
    return initiated == 0
               ? 1.0
               : static_cast<double>(completed) /
                     static_cast<double>(initiated);
  }
};

CoordinationMetrics measure_coordination(const System& sys,
                                         std::span<const ActionId> actions);

// Network quiescence: the time of the last send event in the run (0 if the
// run is silent).  A quiescent protocol's value sits well below the
// horizon; a chattering one's hugs it (see footnote 11 / test_quiescence).
Time last_send_time(const Run& r);

// Operational counters for the live runtime (rt/): every layer — transport,
// heartbeat detector, supervisor — accumulates into one of these, and both
// the udc_rt_soak tool and the EXPERIMENTS.md RT numbers are printed from
// format_runtime_counters, so there is exactly one reporting code path.
struct RuntimeCounters {
  // Transport plane.
  std::size_t sends = 0;            // protocol-level sends handed over
  std::size_t delivered = 0;        // deliveries that reached a mailbox
  std::size_t drops = 0;            // attempts lost to the drop policy
  std::size_t retransmits = 0;      // link-layer retry attempts
  std::size_t acks = 0;             // link-layer acks received
  std::size_t abandoned = 0;        // unacked sends given up at shutdown
  std::size_t heartbeats = 0;       // heartbeat broadcasts (below the model)
  std::size_t dedup_suppressed = 0; // duplicate copies swallowed by dedup
  std::size_t acks_piggybacked = 0; // acks that rode a data frame for free
  // Failure-detection plane.
  std::size_t suspicions = 0;       // suspicions raised
  std::size_t false_suspicions = 0; // later retracted by a live heartbeat
  std::size_t trust_restores = 0;   // retractions delivered to protocols
  // Supervision plane.
  std::size_t crashes = 0;          // permanent worker crashes injected
  std::size_t restarts = 0;         // workers restarted after a crash
  std::size_t events_recorded = 0;  // model-level events in the lifted trace
  // Durability plane (store/; zero unless the run used a durable_dir).
  std::size_t wal_frames_replayed = 0;   // frames recoveries handed back
  std::size_t torn_tails_truncated = 0;  // recoveries that repaired the WAL
  std::size_t recoveries_total = 0;      // completed disk recoveries
  std::size_t storage_faults_injected = 0;  // scripted faults that landed
  std::size_t sync_failures = 0;         // fsyncs swallowed by kSyncFail
  std::size_t wal_group_commits = 0;     // batched fsyncs (group commit)
  // Mailbox plane.
  std::size_t mailbox_refused = 0;       // pushes refused by a closed mailbox
  // Wire plane (net/reactor; zero unless the run crossed real sockets).
  std::size_t connects = 0;              // streams that completed a handshake
  std::size_t reconnects = 0;            // re-establishes after a stream loss
  std::size_t handshake_rejects = 0;     // hellos bounced (mismatch/refusal)
  std::size_t frames_tx = 0;             // frames queued to sockets
  std::size_t frames_rx = 0;             // frames decoded off sockets
  std::size_t crc_drops = 0;             // frames lost to checksum mismatch
  std::size_t wire_resyncs = 0;          // codec rescans for the magic pair
  std::size_t wire_drops = 0;            // kData frames eaten by the chaos shim
  std::size_t partitions_enforced = 0;   // refuse-window teardowns/bounces
  // Service plane (svc/; zero unless the run served client traffic).
  std::size_t svc_requests = 0;          // client ops received
  std::size_t svc_admitted = 0;          // ops admitted into a batch
  std::size_t svc_dups_suppressed = 0;   // retries the session table absorbed
  std::size_t svc_retry_later = 0;       // backpressure replies sent
  std::size_t svc_redirects = 0;         // kNotLeader replies sent
  std::size_t svc_batches_sealed = 0;    // batches sealed (incl. no-op fills)
  std::size_t svc_batches_committed = 0; // batches quorum-committed here
  std::size_t svc_ooo_commits = 0;       // DC2' out-of-slot-order applies
  std::size_t svc_elections = 0;         // leaderships this node assumed
  std::size_t svc_sync_rounds = 0;       // failover/catch-up sync exchanges
  std::size_t svc_adoptions = 0;         // orphaned batches re-sealed
  std::size_t svc_lease_reads = 0;       // reads served under a valid lease
  std::size_t svc_lease_denied = 0;      // reads bounced (lease invalid)

  void merge(const RuntimeCounters& other);
};

// One row per RuntimeCounters field, in declaration order: the key
// format_runtime_counters prints and the member it names.  merge, the
// formatter and the status-frame pack/unpack all walk this table, so a new
// counter is one field plus one row.
struct RuntimeCounterField {
  const char* key;
  std::size_t RuntimeCounters::*field;
};

inline constexpr RuntimeCounterField kRuntimeCounterFields[] = {
    {"sends", &RuntimeCounters::sends},
    {"delivered", &RuntimeCounters::delivered},
    {"drops", &RuntimeCounters::drops},
    {"retransmits", &RuntimeCounters::retransmits},
    {"acks", &RuntimeCounters::acks},
    {"abandoned", &RuntimeCounters::abandoned},
    {"heartbeats", &RuntimeCounters::heartbeats},
    {"dedup_suppressed", &RuntimeCounters::dedup_suppressed},
    {"acks_piggybacked", &RuntimeCounters::acks_piggybacked},
    {"suspicions", &RuntimeCounters::suspicions},
    {"false_suspicions", &RuntimeCounters::false_suspicions},
    {"trust_restores", &RuntimeCounters::trust_restores},
    {"crashes", &RuntimeCounters::crashes},
    {"restarts", &RuntimeCounters::restarts},
    {"events", &RuntimeCounters::events_recorded},
    {"wal_replayed", &RuntimeCounters::wal_frames_replayed},
    {"torn_tails", &RuntimeCounters::torn_tails_truncated},
    {"recoveries", &RuntimeCounters::recoveries_total},
    {"storage_faults", &RuntimeCounters::storage_faults_injected},
    {"sync_failures", &RuntimeCounters::sync_failures},
    {"group_commits", &RuntimeCounters::wal_group_commits},
    {"mailbox_refused", &RuntimeCounters::mailbox_refused},
    {"connects", &RuntimeCounters::connects},
    {"reconnects", &RuntimeCounters::reconnects},
    {"handshake_rejects", &RuntimeCounters::handshake_rejects},
    {"frames_tx", &RuntimeCounters::frames_tx},
    {"frames_rx", &RuntimeCounters::frames_rx},
    {"crc_drops", &RuntimeCounters::crc_drops},
    {"wire_resyncs", &RuntimeCounters::wire_resyncs},
    {"wire_drops", &RuntimeCounters::wire_drops},
    {"partitions_enforced", &RuntimeCounters::partitions_enforced},
    {"svc_requests", &RuntimeCounters::svc_requests},
    {"svc_admitted", &RuntimeCounters::svc_admitted},
    {"svc_dups_suppressed", &RuntimeCounters::svc_dups_suppressed},
    {"svc_retry_later", &RuntimeCounters::svc_retry_later},
    {"svc_redirects", &RuntimeCounters::svc_redirects},
    {"svc_sealed", &RuntimeCounters::svc_batches_sealed},
    {"svc_committed", &RuntimeCounters::svc_batches_committed},
    {"svc_ooo_commits", &RuntimeCounters::svc_ooo_commits},
    {"svc_elections", &RuntimeCounters::svc_elections},
    {"svc_sync_rounds", &RuntimeCounters::svc_sync_rounds},
    {"svc_adoptions", &RuntimeCounters::svc_adoptions},
    {"svc_lease_reads", &RuntimeCounters::svc_lease_reads},
    {"svc_lease_denied", &RuntimeCounters::svc_lease_denied},
};
static_assert(std::size(kRuntimeCounterFields) * sizeof(std::size_t) ==
                  sizeof(RuntimeCounters),
              "every RuntimeCounters field needs a kRuntimeCounterFields row");

// Status frames carry the table as two blocks: every node packs the rows
// before kNodeCounterSlots, and a service replica appends the service rows
// (from svc_requests on) after them.  Unpacking reads a missing slot as 0.
inline constexpr std::size_t kNodeCounterSlots = 31;
static_assert(kRuntimeCounterFields[kNodeCounterSlots].field ==
              &RuntimeCounters::svc_requests);

std::vector<std::uint64_t> pack_node_counters(const RuntimeCounters& c);
RuntimeCounters unpack_node_counters(const std::vector<std::uint64_t>& v);
std::vector<std::uint64_t> pack_svc_counters(const RuntimeCounters& c);
// Unpacks the service rows from `v` starting at `offset` (the node block's
// length in a status frame) into the matching fields of `c`.
void unpack_svc_counters(const std::vector<std::uint64_t>& v,
                         std::size_t offset, RuntimeCounters* c);

// Transport-plane counters as RELAXED ATOMICS: the data path bumps them
// lock-free from every dispatcher shard, and counters() snapshots them
// without taking any transport lock — a metrics poll never contends with a
// delivery.  Relaxed ordering is sound because each field is a statistically
// independent monotone tally: no reader infers cross-field invariants from
// a mid-flight snapshot, and the transport publishes a final consistent
// snapshot after its dispatchers are joined.
struct AtomicRuntimeCounters {
  std::atomic<std::size_t> sends{0};
  std::atomic<std::size_t> delivered{0};
  std::atomic<std::size_t> drops{0};
  std::atomic<std::size_t> retransmits{0};
  std::atomic<std::size_t> acks{0};
  std::atomic<std::size_t> abandoned{0};
  std::atomic<std::size_t> heartbeats{0};
  std::atomic<std::size_t> dedup_suppressed{0};
  std::atomic<std::size_t> acks_piggybacked{0};
  std::atomic<std::size_t> mailbox_refused{0};

  void add(std::atomic<std::size_t>& c, std::size_t v = 1) {
    c.fetch_add(v, std::memory_order_relaxed);
  }
  // Relaxed snapshot into the value struct every reporting path consumes.
  RuntimeCounters snapshot() const {
    RuntimeCounters c;
    c.sends = sends.load(std::memory_order_relaxed);
    c.delivered = delivered.load(std::memory_order_relaxed);
    c.drops = drops.load(std::memory_order_relaxed);
    c.retransmits = retransmits.load(std::memory_order_relaxed);
    c.acks = acks.load(std::memory_order_relaxed);
    c.abandoned = abandoned.load(std::memory_order_relaxed);
    c.heartbeats = heartbeats.load(std::memory_order_relaxed);
    c.dedup_suppressed = dedup_suppressed.load(std::memory_order_relaxed);
    c.acks_piggybacked = acks_piggybacked.load(std::memory_order_relaxed);
    c.mailbox_refused = mailbox_refused.load(std::memory_order_relaxed);
    return c;
  }
};

// One line, key=value pairs, stable field order — the soak tool's output and
// the EXPERIMENTS tables both come from here.
std::string format_runtime_counters(const RuntimeCounters& c);

}  // namespace udc
