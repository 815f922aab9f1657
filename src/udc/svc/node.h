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
// Model-event mapping (how chaos results get checked): sealing a batch
// records kInit(action) at the admitting leader; applying it records
// kDo(action) at every replica.  The batch propose leaves the leader only
// once the kInit is WAL-durable (the svc-level durable-send gate), and
// every svc frame carries a clock rider folded in before any recording, so
// in the merged run each kDo tick strictly exceeds its kInit tick — DC3's
// operational face, surviving kill -9 because a restarted owner re-records
// any kInit its WAL lost for a batch its service log still holds, before
// offering that batch for adoption.
//
// The replica is a protocol on rt/remote's NodeShell, which owns the OS
// process: store, recovery and group commit, clock and recorder, the
// supervisor link, the per-pass cuts/status/orphan tail and the orderly
// exit.  Exit codes are the shell's: 0 on supervisor-ordered stop, 3 if
// orphaned.  Its knobs are constants: heartbeats kLiveHeartbeat, a 60 ms
// lease, batches of at most 128 ops sealed every 500 us, 8 uncommitted
// slots and 4096 pending ops before kRetryLater, re-proposes and offers
// every 20 ms, and mp_store_options() for the WAL.
#pragma once

#include "udc/rt/remote/node.h"

namespace udc {

// A replica takes only the identity flags; `dir` holds the WAL shard and
// svc-<id>.log.
using SvcNodeOptions = NodeIdentity;

int run_svc_node(const SvcNodeOptions& opts);

}  // namespace udc
