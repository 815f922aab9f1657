// DedupWindow (rt/dedup_window.h), the receiver-side dedup both ARQ
// transports share, against an unbounded std::set reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <vector>

#include "udc/common/rng.h"
#include "udc/rt/dedup_window.h"

namespace udc {
namespace {

TEST(DedupWindow, InOrderSeqsHoldNothing) {
  DedupWindow d(1);
  for (std::uint64_t s = 1; s <= 1'000; ++s) {
    ASSERT_FALSE(d.seen(s));
    d.admit(s);
    ASSERT_EQ(d.held(), 0u);
  }
  EXPECT_EQ(d.watermark(), 1'000u);
  EXPECT_TRUE(d.seen(1'000));
  EXPECT_FALSE(d.seen(1'001));
}

TEST(DedupWindow, OverflowFoldsOnlyTheOldestGap) {
  DedupWindow d(2);
  for (std::uint64_t s : {2, 4, 6}) d.admit(s);
  // Three held seqs in a window of two: the gap below 2 is given up, the
  // gaps at 3 and 5 are not.
  EXPECT_EQ(d.watermark(), 2u);
  EXPECT_EQ(d.held(), 2u);
  EXPECT_TRUE(d.seen(1));
  EXPECT_FALSE(d.seen(3));
  EXPECT_FALSE(d.seen(5));
  d.admit(3);  // closes the gap: 3 and 4 fold in
  EXPECT_EQ(d.watermark(), 4u);
  EXPECT_EQ(d.held(), 1u);
}

// Random reordering and duplication of a dense seq stream.  A receiver may
// also refuse a first copy (a closed mailbox), in which case it does not
// admit it and a later copy must still get through.  Against a reference
// that remembers every admitted seq forever:
//   * no seq is admitted twice;
//   * the window never holds more than `window` seqs;
//   * an unseen seq is suppressed only at or below the watermark.
TEST(DedupWindow, MatchesAnUnboundedReferenceUnderReorderingAndDuplicates) {
  std::size_t given_up = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    const std::size_t window = 1 + rng.next_below(16);
    const std::uint64_t n = 200 + rng.next_below(200);
    std::vector<std::uint64_t> arrivals;
    for (std::uint64_t s = 1; s <= n; ++s) {
      const std::uint64_t copies = 1 + rng.next_below(3);
      for (std::uint64_t c = 0; c < copies; ++c) arrivals.push_back(s);
    }
    // Local shuffle: each arrival moves up to `reach` places.
    const std::size_t reach = 1 + rng.next_below(40);
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      const std::size_t j =
          std::min(arrivals.size() - 1, i + rng.next_below(reach));
      std::swap(arrivals[i], arrivals[j]);
    }

    DedupWindow d(window);
    std::set<std::uint64_t> admitted;
    for (std::uint64_t s : arrivals) {
      if (!d.seen(s)) {
        if (rng.chance(0.1)) continue;  // refused: not admitted
        ASSERT_EQ(admitted.count(s), 0u) << "seed " << seed << " seq " << s;
        admitted.insert(s);
        d.admit(s);
      } else if (admitted.count(s) == 0) {
        ASSERT_LE(s, d.watermark()) << "seed " << seed << " seq " << s;
        ++given_up;
      }
      ASSERT_LE(d.held(), window) << "seed " << seed;
    }
  }
  EXPECT_GT(given_up, 0u);  // the streams do overflow the windows
}

}  // namespace
}  // namespace udc
