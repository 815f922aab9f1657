// Snapshot files: an atomically-replaced compaction of a process's durable
// event prefix.
//
// A snapshot is a magic, a u64le record count and that many WAL-framed
// records (store/wal.h), each with its own CRC.  It is written to
// <path>.tmp, datasync'd, and rename(2)'d into place, so at every instant
// <path> is either absent, the old snapshot, or the new one — never a
// half-written hybrid.  The WAL is truncated only AFTER the rename lands; a
// crash in between leaves snapshot and WAL overlapping, which recovery
// resolves by replaying only WAL records with tick > snapshot.last_tick.
//
// The reader is tolerant anyway: a file that fails magic, framing, CRC, or
// count checks reads as "no snapshot" rather than throwing.  Losing a
// snapshot forgets a PREFIX of the process's history — safe, because the
// supervisor re-injects lost inits, duplicate do-events are admitted by the
// run model, and the rejoin beacon makes peers re-teach everything else
// (DESIGN.md §9).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "udc/store/codec.h"

namespace udc {

struct Snapshot {
  std::vector<StoreRecord> records;  // tick-ascending event prefix
  // Tick of the last record (0 if empty): WAL records at or below it are
  // already covered by the snapshot.
  Time last_tick() const { return records.empty() ? 0 : records.back().t; }
};

// Atomic write (tmp + datasync + rename).  Throws InvariantViolation on
// I/O failure — before the rename if the write or its barrier failed, so
// a snapshot that may not be on disk never replaces the old one.
void write_snapshot_file(const std::string& path,
                         const std::vector<StoreRecord>& records);

// nullopt if the file is missing or malformed in any way.
std::optional<Snapshot> read_snapshot_file(const std::string& path);

}  // namespace udc
