// Wire frame codec (net/wire.h): the byte-level skeleton of the
// cross-process runtime.  The load-bearing property mirrors the store
// codec's: the decoder is TOTAL and RESYNCHRONIZING.  For ANY byte stream —
// truncation at an arbitrary byte, a flipped header bit, pure garbage,
// valid frames embedded in noise — FrameDecoder never throws, never reads
// past what was fed, and recovers every intact frame that follows the
// damage, counting exactly what the damage cost (crc_drops, resyncs,
// junk_bytes).
#include "udc/net/wire.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "udc/common/check.h"
#include "udc/common/rng.h"

namespace udc {
namespace {

std::vector<std::uint8_t> bytes_of(const WireFrame& f) {
  return encode_frame(f.type, f.payload);
}

WireData sample_data() {
  WireData d;
  d.from = 1;
  d.to = 2;
  d.seq = 9;
  d.send_tick = 41;
  d.clock = 43;
  d.msg.kind = MsgKind::kAlpha;
  d.msg.action = 7;
  d.acks = {3, 4, 5};
  return d;
}

// Feed a buffer one byte at a time, draining after each feed, and return
// every frame decoded.  Exercises the reassembly path: no decode may ever
// depend on a frame arriving in one read.
std::vector<WireFrame> drip_decode(FrameDecoder& dec,
                                   const std::vector<std::uint8_t>& buf) {
  std::vector<WireFrame> out;
  for (std::uint8_t b : buf) {
    dec.feed(&b, 1);
    while (auto f = dec.next()) out.push_back(std::move(*f));
  }
  return out;
}

// --- frame round trips ----------------------------------------------------

TEST(WireFrame, RoundTripsEveryFrameType) {
  for (std::uint8_t t = 1; t <= kMaxFrameType; ++t) {
    WireFrame f;
    f.type = static_cast<FrameType>(t);
    f.payload = {0xDE, 0xAD, static_cast<std::uint8_t>(t)};
    FrameDecoder dec;
    std::vector<std::uint8_t> enc = bytes_of(f);
    ASSERT_EQ(enc.size(), kWireHeaderBytes + f.payload.size());
    dec.feed(enc.data(), enc.size());
    auto back = dec.next();
    ASSERT_TRUE(back.has_value()) << int(t);
    EXPECT_EQ(back->type, f.type);
    EXPECT_EQ(back->payload, f.payload);
    EXPECT_FALSE(dec.next().has_value());
    EXPECT_EQ(dec.counters().frames, 1u);
    EXPECT_EQ(dec.counters().crc_drops, 0u);
    EXPECT_EQ(dec.counters().resyncs, 0u);
  }
}

TEST(WireFrame, EmptyPayloadAndSingleByteFeedsDecode) {
  WireFrame f;
  f.type = FrameType::kPing;
  FrameDecoder dec;
  std::vector<WireFrame> got = drip_decode(dec, bytes_of(f));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].type, FrameType::kPing);
  EXPECT_TRUE(got[0].payload.empty());
}

TEST(WireFrame, OversizePayloadIsACallerBug) {
  std::vector<std::uint8_t> big(kMaxWirePayload + 1, 0);
  EXPECT_THROW(encode_frame(FrameType::kData, big), InvariantViolation);
  // At the cap itself it must succeed: the bound is inclusive.
  std::vector<std::uint8_t> cap(kMaxWirePayload, 0);
  EXPECT_NO_THROW(encode_frame(FrameType::kData, cap));
}

// --- truncation -----------------------------------------------------------

TEST(WireFrame, TruncationAtEveryPointYieldsNothingAndNoCrash) {
  WireFrame f;
  f.type = FrameType::kData;
  f.payload = encode_data(sample_data());
  std::vector<std::uint8_t> enc = bytes_of(f);
  for (std::size_t len = 0; len < enc.size(); ++len) {
    FrameDecoder dec;
    dec.feed(enc.data(), len);
    EXPECT_FALSE(dec.next().has_value()) << "cut at " << len;
    EXPECT_EQ(dec.counters().frames, 0u) << "cut at " << len;
    EXPECT_EQ(dec.buffered(), len);
  }
}

TEST(WireFrame, FrameCutMidStreamCompletesWhenTheRestArrives) {
  WireFrame f;
  f.type = FrameType::kStatus;
  f.payload = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<std::uint8_t> enc = bytes_of(f);
  for (std::size_t cut = 1; cut < enc.size(); ++cut) {
    FrameDecoder dec;
    dec.feed(enc.data(), cut);
    ASSERT_FALSE(dec.next().has_value());
    dec.feed(enc.data() + cut, enc.size() - cut);
    auto back = dec.next();
    ASSERT_TRUE(back.has_value()) << "cut at " << cut;
    EXPECT_EQ(back->payload, f.payload);
  }
}

TEST(WireFrame, ResetDropsThePartialFrame) {
  WireFrame f;
  f.type = FrameType::kData;
  f.payload = {9, 9, 9};
  std::vector<std::uint8_t> enc = bytes_of(f);
  FrameDecoder dec;
  dec.feed(enc.data(), enc.size() - 1);  // almost a whole frame
  dec.reset();                           // connection died; new stream
  EXPECT_EQ(dec.buffered(), 0u);
  dec.feed(enc.data(), enc.size());
  ASSERT_TRUE(dec.next().has_value());
  EXPECT_EQ(dec.counters().frames, 1u);
}

// --- corruption + resync --------------------------------------------------

// Flip each bit of each header byte in turn; the damaged frame must never
// surface, and a pristine frame following it must always be recovered.
TEST(WireFrame, HeaderBitFlipsDropTheFrameAndResyncToTheNext) {
  WireFrame f;
  f.type = FrameType::kData;
  f.payload = encode_data(sample_data());
  std::vector<std::uint8_t> good = bytes_of(f);
  WireFrame tail;
  tail.type = FrameType::kPong;
  tail.payload = {0x55};
  std::vector<std::uint8_t> tail_enc = bytes_of(tail);

  for (std::size_t byte = 0; byte < kWireHeaderBytes; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> stream = good;
      stream[byte] ^= static_cast<std::uint8_t>(1u << bit);
      stream.insert(stream.end(), tail_enc.begin(), tail_enc.end());

      FrameDecoder dec;
      dec.feed(stream.data(), stream.size());
      std::vector<WireFrame> got;
      while (auto fr = dec.next()) got.push_back(std::move(*fr));

      if (got.empty()) {
        // A flipped LENGTH byte can inflate the claimed payload within the
        // cap: on a live stream the decoder legitimately waits for the
        // phantom bytes, holding the tail hostage.  Feed filler until the
        // phantom frame completes and fails its CRC — the rescan then finds
        // the original tail inside the released bytes (or, if the phantom
        // consumed it, a freshly fed one).
        std::vector<std::uint8_t> filler(kMaxWirePayload, 0);
        dec.feed(filler.data(), filler.size());
        while (auto fr = dec.next()) got.push_back(std::move(*fr));
        if (got.empty()) {
          dec.feed(tail_enc.data(), tail_enc.size());
          while (auto fr = dec.next()) got.push_back(std::move(*fr));
        }
      }

      ASSERT_EQ(got.size(), 1u) << "byte " << byte << " bit " << bit;
      EXPECT_EQ(got[0].type, FrameType::kPong);
      EXPECT_EQ(got[0].payload, tail.payload);
      // The corruption must be accounted for somewhere: either the CRC
      // caught an accepted header, or the resync scanner skipped bytes.
      const WireDecodeCounters& c = dec.counters();
      EXPECT_GT(c.crc_drops + c.resyncs, 0u)
          << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(WireFrame, PayloadCorruptionIsACrcDrop) {
  WireFrame f;
  f.type = FrameType::kData;
  f.payload = encode_data(sample_data());
  std::vector<std::uint8_t> enc = bytes_of(f);
  enc[kWireHeaderBytes + 3] ^= 0x40;  // one payload bit
  FrameDecoder dec;
  dec.feed(enc.data(), enc.size());
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_GE(dec.counters().crc_drops, 1u);
}

TEST(WireFrame, LeadingGarbageIsSkippedAndCounted) {
  std::vector<std::uint8_t> stream = {0x00, 0x01, 0x02, 0xFF, 0xFE};
  const std::size_t junk = stream.size();
  WireFrame f;
  f.type = FrameType::kHello;
  f.payload = {7};
  std::vector<std::uint8_t> enc = bytes_of(f);
  stream.insert(stream.end(), enc.begin(), enc.end());

  FrameDecoder dec;
  dec.feed(stream.data(), stream.size());
  auto back = dec.next();
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->type, FrameType::kHello);
  EXPECT_GE(dec.counters().junk_bytes, junk);
  EXPECT_GE(dec.counters().resyncs, 1u);
}

// A magic pair INSIDE garbage must not fool the decoder into emitting a
// frame: the CRC rejects it and the scan continues to the real one.
TEST(WireFrame, FakeMagicInsideGarbageDoesNotYieldAFrame) {
  std::vector<std::uint8_t> stream = {kWireMagic0, kWireMagic1, 0x77, 0x66,
                                      0x05, 0x00,  0x00,        0x00,
                                      0x01, 0x02,  0x03,        0x04};
  WireFrame f;
  f.type = FrameType::kAck;
  f.payload = {1, 2};
  std::vector<std::uint8_t> enc = bytes_of(f);
  stream.insert(stream.end(), enc.begin(), enc.end());

  FrameDecoder dec;
  std::vector<WireFrame> got = drip_decode(dec, stream);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].type, FrameType::kAck);
  EXPECT_EQ(got[0].payload, f.payload);
}

TEST(WireFrame, RandomGarbageFuzzNeverThrowsOrEmits) {
  Rng rng(0xF022);  // fixed seed
  for (int trial = 0; trial < 64; ++trial) {
    std::vector<std::uint8_t> junk(257);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next() & 0xFF);
    FrameDecoder dec;
    dec.feed(junk.data(), junk.size());
    int frames = 0;
    while (dec.next().has_value()) ++frames;
    // A random 257-byte blob yielding a CRC-valid frame is ~2^-32 per
    // candidate; treat any emission as a failure.
    EXPECT_EQ(frames, 0) << "trial " << trial;
  }
}

TEST(WireFrame, FramesInterleavedWithGarbageAllRecovered) {
  Rng rng(2024);
  std::vector<std::uint8_t> stream;
  const int kFrames = 16;
  for (int i = 0; i < kFrames; ++i) {
    // garbage gap
    std::size_t gap = rng.next() % 9;
    for (std::size_t g = 0; g < gap; ++g) {
      stream.push_back(static_cast<std::uint8_t>(rng.next() & 0xFF));
    }
    WireFrame f;
    f.type = FrameType::kData;
    WireData d = sample_data();
    d.seq = static_cast<std::uint64_t>(i);
    f.payload = encode_data(d);
    std::vector<std::uint8_t> enc = bytes_of(f);
    stream.insert(stream.end(), enc.begin(), enc.end());
  }
  FrameDecoder dec;
  std::vector<WireFrame> got = drip_decode(dec, stream);
  // Garbage immediately before a frame can at worst eat THAT frame (if the
  // junk happens to parse as a plausible header consuming real bytes, those
  // bytes are lost — suffix-loss at the frame level), but the explicit
  // resync must recover the stream: most frames survive.
  EXPECT_GE(got.size(), static_cast<std::size_t>(kFrames - 4));
  for (const WireFrame& f : got) {
    auto d = decode_data(f.payload.data(), f.payload.size());
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->from, 1);
  }
}

// --- payload envelope codecs ---------------------------------------------

TEST(WireEnvelope, HelloRoundTrip) {
  WireHello h;
  h.id = 2;
  h.n = 5;
  h.epoch = 3;
  h.run_id = 0xABCDEF0123456789ull;
  h.data_port = 54321;
  std::vector<std::uint8_t> enc = encode_hello(h);
  auto back = decode_hello(enc.data(), enc.size());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, h);
}

TEST(WireEnvelope, DataRoundTripAllMessageKinds) {
  for (std::uint8_t k = 0; k <= static_cast<std::uint8_t>(MsgKind::kRejoin);
       ++k) {
    WireData d = sample_data();
    d.msg.kind = static_cast<MsgKind>(k);
    d.msg.procs = ProcSet::full(4);
    d.msg.a = -17;
    d.msg.b = 1'234'567'890'123LL;
    std::vector<std::uint8_t> enc = encode_data(d);
    auto back = decode_data(enc.data(), enc.size());
    ASSERT_TRUE(back.has_value()) << int(k);
    EXPECT_EQ(*back, d);
  }
}

TEST(WireEnvelope, StatusRoundTripWithCountersAndFlags) {
  WireStatus s;
  s.id = 1;
  s.epoch = 4;
  s.clock = 999;
  s.durable_events = 123;
  s.inits = {5, 9};
  s.performs = {5};
  s.counters = {1, 2, 3, 0, 0, 7};
  s.done = true;
  std::vector<std::uint8_t> enc = encode_status(s);
  auto back = decode_status(enc.data(), enc.size());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, s);
}

TEST(WireEnvelope, AckInitPeersRoundTrip) {
  WireAck a;
  a.from = 0;
  a.to = 2;
  a.seqs = {1, 2, 1000000};
  auto ea = encode_ack(a);
  auto ba = decode_ack(ea.data(), ea.size());
  ASSERT_TRUE(ba.has_value());
  EXPECT_EQ(*ba, a);

  WireInit i;
  i.action = 42;
  auto ei = encode_init(i);
  auto bi = decode_init(ei.data(), ei.size());
  ASSERT_TRUE(bi.has_value());
  EXPECT_EQ(*bi, i);

  WirePeers p;
  p.ports = {{0, 1111}, {1, 2222}, {2, 0}};
  auto ep = encode_peers(p);
  auto bp = decode_peers(ep.data(), ep.size());
  ASSERT_TRUE(bp.has_value());
  EXPECT_EQ(*bp, p);
}

// Every envelope decoder is total: truncation at every byte yields nullopt,
// and one trailing byte is rejected (no silent over-read, no silent slack).
TEST(WireEnvelope, DecodersAreTotalOnTruncationAndTrailingBytes) {
  WireHello h;
  h.id = 1;
  h.n = 3;
  h.epoch = 2;
  h.run_id = 77;
  h.data_port = 4242;
  WireStatus s;
  s.id = 0;
  s.inits = {1};
  s.counters = {9, 8};
  WireAck a;
  a.from = 1;
  a.to = 0;
  a.seqs = {3};
  WirePeers p;
  p.ports = {{1, 9}};
  WireInit ini;
  ini.action = 6;

  auto check_total = [](std::vector<std::uint8_t> enc, auto decoder) {
    for (std::size_t len = 0; len < enc.size(); ++len) {
      EXPECT_FALSE(decoder(enc.data(), len).has_value()) << len;
    }
    enc.push_back(0);
    EXPECT_FALSE(decoder(enc.data(), enc.size()).has_value());
  };
  check_total(encode_hello(h), [](const std::uint8_t* d, std::size_t l) {
    return decode_hello(d, l);
  });
  check_total(encode_data(sample_data()),
              [](const std::uint8_t* d, std::size_t l) {
                return decode_data(d, l);
              });
  check_total(encode_status(s), [](const std::uint8_t* d, std::size_t l) {
    return decode_status(d, l);
  });
  check_total(encode_ack(a), [](const std::uint8_t* d, std::size_t l) {
    return decode_ack(d, l);
  });
  check_total(encode_init(ini), [](const std::uint8_t* d, std::size_t l) {
    return decode_init(d, l);
  });
  check_total(encode_peers(p), [](const std::uint8_t* d, std::size_t l) {
    return decode_peers(d, l);
  });
}

TEST(WireEnvelope, DataEnvelopeFuzzIsTotal) {
  Rng rng(7777);
  for (int trial = 0; trial < 256; ++trial) {
    std::vector<std::uint8_t> junk(rng.next() % 64);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next() & 0xFF);
    // Must not throw; may or may not decode.
    (void)decode_data(junk.data(), junk.size());
    (void)decode_status(junk.data(), junk.size());
    (void)decode_hello(junk.data(), junk.size());
  }
}

}  // namespace
}  // namespace udc
