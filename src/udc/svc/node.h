// run_svc_node: one replica of the replicated coordination service as one
// OS process.
//
// The node stacks the service on the PR-7 cross-process substrate: the same
// ProcessStore WAL shard (the node's model trace, merged and checked by the
// supervisor), the same Lamport clock discipline, the same epoll reactor —
// plus a second durable file, the service log (svc/svclog), which backs
// every replication ack.  Roles are FD-driven: the HeartbeatDetector over
// kSvcHb frames elects the lowest unsuspected id; a fresh leader syncs
// against a majority before admitting anything (two majorities intersect,
// so it cannot miss a committed batch), re-seals orphans under its term,
// and plugs slot holes with no-op batches so the applied floor can always
// advance.
//
// The replica is SvcCore (svc/core.h), which holds every protocol
// decision and makes every effect through SvcIo, pumped on rt/remote's
// NodeShell, which owns the OS process: store, recovery and group commit,
// clock and recorder, the supervisor link, the per-pass cuts/status/orphan
// tail and the orderly exit.  run_svc_node recovers the service log,
// builds the SvcIo over the reactor, the store and the service log, and
// feeds the core from one mailbox on the worker thread.  Exit codes are
// the shell's: 0 on supervisor-ordered stop, 3 if orphaned.  The knobs are
// constants in svc/core.cc: heartbeats kLiveHeartbeat, a 60 ms lease,
// batches of at most 128 ops sealed every 500 us, 8 uncommitted slots and
// 4096 pending ops before kRetryLater, re-proposes and offers every 20 ms;
// the WAL runs on mp_store_options().
#pragma once

#include "udc/rt/remote/node.h"

namespace udc {

// A replica takes only the identity flags; `dir` holds the WAL shard and
// svc-<id>.log.
using SvcNodeOptions = NodeIdentity;

int run_svc_node(const SvcNodeOptions& opts);

}  // namespace udc
