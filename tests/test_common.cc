// The common substrate: PRNG determinism/quality, invariant checking,
// message values.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "udc/common/check.h"
#include "udc/common/parse_num.h"
#include "udc/common/rng.h"
#include "udc/event/message.h"

namespace udc {
namespace {

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    auto x = a.next();
    EXPECT_EQ(x, b.next());
    // Different seeds diverge immediately with overwhelming probability.
    if (i == 0) {
      EXPECT_NE(x, c.next());
    }
  }
}

TEST(Rng, NextBelowIsInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng rng(123);
  constexpr int kBuckets = 8;
  constexpr int kSamples = 80000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kSamples; ++i) {
    ++counts[rng.next_below(kBuckets)];
  }
  // Chi-squared with 7 dof; 99.9% critical value ~24.3.
  double expected = static_cast<double>(kSamples) / kBuckets;
  double chi2 = 0;
  for (int c : counts) {
    double d = c - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 24.3);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double x = rng.next_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(9);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
  Rng rng2(10);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng2.chance(0.0));
  }
}

TEST(Check, ThrowsWithContext) {
  try {
    UDC_CHECK(false, "the message");
    FAIL() << "should have thrown";
  } catch (const InvariantViolation& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("the message"), std::string::npos);
    EXPECT_NE(what.find("test_common.cc"), std::string::npos);
  }
  EXPECT_NO_THROW(UDC_CHECK(true, "never seen"));
}

// The node binaries print these messages as their one-line diagnostics.
TEST(ParseNum, RejectsMalformedTrailingJunkAndNegativeUnsigned) {
  EXPECT_EQ(parse_int("42", "--n"), 42);
  EXPECT_EQ(parse_u64("7", "--seed"), 7u);
  auto message = [](auto parse) {
    try {
      parse();
    } catch (const InvariantViolation& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_EQ(message([] { parse_int("abc", "--id"); }), "malformed --id: 'abc'");
  EXPECT_EQ(message([] { parse_int("1x", "--id"); }),
            "trailing junk in --id: '1x'");
  EXPECT_EQ(message([] { parse_u64("-1", "--epoch"); }),
            "malformed --epoch: '-1'");
  EXPECT_EQ(message([] { parse_u64(" -1", "--epoch"); }),
            "malformed --epoch: ' -1'");
}

TEST(Message, EqualityIsFieldWise) {
  Message a;
  a.kind = MsgKind::kAlpha;
  a.action = 5;
  Message b = a;
  EXPECT_EQ(a, b);
  b.a = 1;
  EXPECT_FALSE(a == b);
  b = a;
  b.procs.insert(3);
  EXPECT_FALSE(a == b);
}

TEST(Message, HashMatchesEquality) {
  MessageHash h;
  Message a;
  a.kind = MsgKind::kAck;
  a.action = 9;
  Message b = a;
  EXPECT_EQ(h(a), h(b));
  // Distinct messages collide with negligible probability; spot-check a
  // family of near-misses.
  std::set<std::size_t> hashes{h(a)};
  for (int i = 0; i < 64; ++i) {
    Message c = a;
    c.b = i + 1;
    EXPECT_TRUE(hashes.insert(h(c)).second) << i;
  }
}

TEST(Message, RetransmissionsAreIdenticalValues) {
  // R5's premise: "the same message" — a retransmission must compare equal,
  // which is why Message carries no per-send sequence number.
  Message m;
  m.kind = MsgKind::kAlpha;
  m.action = 123;
  Message retx = m;
  EXPECT_EQ(m, retx);
  EXPECT_EQ(MessageHash{}(m), MessageHash{}(retx));
}

}  // namespace
}  // namespace udc
