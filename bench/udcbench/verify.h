// The correctness verdict of one udcbench run, from the replicas' disks.
//
// The WAL shards are lifted into one model Run in Lamport order and checked
// against DC1-DC3 (check_nudc) over every batch action any shard
// initiated.  A replica SIGKILLed and never relaunched wrote nothing at its
// death, so its lifted history ends in a kCrash one tick past the last
// record its disk kept (R4: the crash is its last event).  Each surviving
// replica's apply sequence (durable kDo order joined to its service log)
// goes through check_sessions and check_log_agreement; a killed replica's
// partial sequence is left out, since it stopped converging when it died.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "udc/common/types.h"
#include "udc/event/run.h"
#include "udc/store/codec.h"
#include "udc/svc/wire.h"

namespace udcbench {

struct Shard {
  std::vector<udc::StoreRecord> records;  // recovered WAL, in tick order
  std::vector<udc::SvcBatch> svclog;      // service log, in append order
  bool killed = false;                    // SIGKILLed, never relaunched
};

// Merges the shards into one Run and collects every initiated action.
udc::Run lift(const std::vector<Shard>& shards,
              std::vector<udc::ActionId>* initiated);

// The apply sequences of the replicas that were not killed, as
// check_sessions and check_log_agreement take them.
struct Survivors {
  std::vector<std::vector<udc::SvcBatch>> applied;
  std::vector<std::vector<std::pair<std::uint64_t, udc::ActionId>>> slots;
  bool join_ok = true;  // every durable kDo had a service-log record
};
Survivors survivors(const std::vector<Shard>& shards);

}  // namespace udcbench
