// The RuntimeCounters field table (coord/metrics.h) drives merge, the
// formatter and the status-frame pack/unpack.  Every field gets a distinct
// value, set by declaration position rather than through the table, so a
// row naming the wrong member, printing the wrong key or sitting at the
// wrong position fails one of these.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "udc/coord/metrics.h"

namespace udc {
namespace {

constexpr std::size_t kFields = sizeof(RuntimeCounters) / sizeof(std::size_t);
using Raw = std::array<std::size_t, kFields>;
// Fields are set and read as raw bytes, which needs this.
static_assert(std::is_trivially_copyable_v<RuntimeCounters>);

// Field i (declaration order) = base + step * i; the service fields (the
// last ones, from svc_requests on) are zero unless `svc`.
RuntimeCounters distinct(std::size_t base, std::size_t step, bool svc = true) {
  Raw v{};
  for (std::size_t i = 0; i < kFields; ++i) {
    v[i] = (svc || i < kNodeCounterSlots) ? base + step * i : 0;
  }
  RuntimeCounters c;
  std::memcpy(static_cast<void*>(&c), v.data(), sizeof c);
  return c;
}

Raw raw(const RuntimeCounters& c) {
  Raw v;
  std::memcpy(v.data(), &c, sizeof c);
  return v;
}

TEST(RuntimeCounterTable, HasOneRowPerFieldWithUniqueKeys) {
  ASSERT_EQ(std::size(kRuntimeCounterFields), kFields);
  std::set<std::string> keys;
  std::set<std::size_t> positions;
  const RuntimeCounters c = distinct(1, 1);
  for (const RuntimeCounterField& f : kRuntimeCounterFields) {
    keys.insert(f.key);
    positions.insert(c.*f.field);  // value i + 1: the row names field i
  }
  EXPECT_EQ(keys.size(), kFields);
  EXPECT_EQ(positions.size(), kFields);
}

TEST(RuntimeCounterTable, MergeAddsEachFieldIntoItself) {
  RuntimeCounters a = distinct(101, 11);
  a.merge(distinct(7, 1000));
  const Raw got = raw(a);
  for (std::size_t i = 0; i < kFields; ++i) {
    EXPECT_EQ(got[i], 101 + 11 * i + 7 + 1000 * i) << "field " << i;
  }
}

// Both literals follow the hand-written formatter this table replaced:
// its keys, in its order, for the same inputs.
TEST(RuntimeCounterTable, FormatMatchesTheHandWrittenFormatterByteForByte) {
  EXPECT_EQ(
      format_runtime_counters(distinct(101, 11)),
      "sends=101 delivered=112 drops=123 retransmits=134 acks=145 "
      "abandoned=156 heartbeats=167 dedup_suppressed=178 "
      "acks_piggybacked=189 suspicions=200 false_suspicions=211 "
      "trust_restores=222 crashes=233 restarts=244 events=255 "
      "wal_replayed=266 torn_tails=277 recoveries=288 storage_faults=299 "
      "sync_failures=310 group_commits=321 mailbox_refused=332 "
      "connects=343 reconnects=354 handshake_rejects=365 frames_tx=376 "
      "frames_rx=387 crc_drops=398 wire_resyncs=409 wire_drops=420 "
      "partitions_enforced=431 svc_requests=442 svc_admitted=453 "
      "svc_dups_suppressed=464 svc_retry_later=475 svc_redirects=486 "
      "svc_sealed=497 svc_committed=508 svc_ooo_commits=519 "
      "svc_elections=530 svc_sync_rounds=541 svc_adoptions=552 "
      "svc_lease_reads=563 svc_lease_denied=574");
  // No service traffic: the service block is left out.
  EXPECT_EQ(
      format_runtime_counters(distinct(101, 11, /*svc=*/false)),
      "sends=101 delivered=112 drops=123 retransmits=134 acks=145 "
      "abandoned=156 heartbeats=167 dedup_suppressed=178 "
      "acks_piggybacked=189 suspicions=200 false_suspicions=211 "
      "trust_restores=222 crashes=233 restarts=244 events=255 "
      "wal_replayed=266 torn_tails=277 recoveries=288 storage_faults=299 "
      "sync_failures=310 group_commits=321 mailbox_refused=332 "
      "connects=343 reconnects=354 handshake_rejects=365 frames_tx=376 "
      "frames_rx=387 crc_drops=398 wire_resyncs=409 wire_drops=420 "
      "partitions_enforced=431");
}

TEST(RuntimeCounterTable, StatusFramePackUnpackRoundTripsEveryField) {
  const RuntimeCounters c = distinct(3, 97);
  std::vector<std::uint64_t> frame = pack_node_counters(c);
  ASSERT_EQ(frame.size(), kNodeCounterSlots);
  const std::vector<std::uint64_t> svc = pack_svc_counters(c);
  frame.insert(frame.end(), svc.begin(), svc.end());
  ASSERT_EQ(frame.size(), kFields);

  RuntimeCounters back = unpack_node_counters(frame);
  unpack_svc_counters(frame, kNodeCounterSlots, &back);
  EXPECT_EQ(raw(back), raw(c));

  // An rt node's frame has no service block: those fields unpack as zero.
  frame.resize(kNodeCounterSlots);
  back = unpack_node_counters(frame);
  unpack_svc_counters(frame, kNodeCounterSlots, &back);
  EXPECT_EQ(raw(back), raw(distinct(3, 97, /*svc=*/false)));
}

}  // namespace
}  // namespace udc
