// Golden bytes: the on-disk and on-the-wire formats, pinned as hex.
//
// The round-trip tests elsewhere cannot see a change made to an encoder
// and its decoder together — both sides would still agree, while every
// WAL and service log already on disk (and every peer still running the
// old build) would stop parsing.  These literals were printed by the build
// that introduced them; a format change must edit them deliberately.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "udc/coord/action.h"
#include "udc/net/wire.h"
#include "udc/store/codec.h"
#include "udc/store/wal.h"
#include "udc/svc/wire.h"

namespace udc {
namespace {

std::string hex(const std::vector<std::uint8_t>& bytes) {
  static const char* const kDigits = "0123456789abcdef";
  std::string out;
  for (std::uint8_t b : bytes) {
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

// Every field nonzero, negative where signed, and past one varint byte
// somewhere, so no field can be dropped or reordered unseen.
StoreRecord sample_record() {
  Message m;
  m.kind = MsgKind::kSuspicionGossip;
  m.action = make_action(2, 300);
  m.procs = ProcSet::full(3);
  m.a = -4;
  m.b = 1'234'567'890'123LL;
  ProcSet s;
  s.insert(1);
  s.insert(5);
  Event e = Event::recv(2, m);
  e.action = -1;
  e.suspects = s;
  e.k = 3;
  return {70'000, e};
}

SvcBatch sample_batch() {
  SvcBatch b;
  b.slot = 41;
  b.term = 7;
  b.action = make_action(2, 19);
  SvcOp w;
  w.session = 0x201;
  w.seq = 3;
  w.kind = SvcOpKind::kWrite;
  w.reg = 5;
  w.value = -44;
  SvcOp r = w;
  r.session = 0x102;
  r.seq = 1ull << 62;
  r.kind = SvcOpKind::kRead;
  r.reg = 63;
  r.value = 1'000'000'007;
  b.ops = {w, r};
  return b;
}

TEST(StoreGolden, RecordAndItsWalFrame) {
  const std::vector<std::uint8_t> rec = encode_record(sample_record());
  EXPECT_EQ(hex(rec), "e0c508010402d884800207079693d89fee47012206");
  EXPECT_EQ(hex(wal_frame(rec)),
            "1500000022983bd9"  // len 21, crc32c(len || payload)
            "e0c508010402d884800207079693d89fee47012206");
}

TEST(WireGolden, DataWithAcks) {
  WireData d;
  d.from = 1;
  d.to = 2;
  d.seq = 129;
  d.send_tick = 70'000;
  d.clock = 70'001;
  d.msg = sample_record().e.msg;
  d.acks = {1, 127, 128, 1ull << 40};
  EXPECT_EQ(hex(encode_data(d)),
            "02048101e0c508e2c508"        // from to seq tick clock
            "02d884800207079693d89fee47"  // the Message fields
            "04017f8001808080808020");    // four acks
}

TEST(WireGolden, HelloAndItsFrame) {
  WireHello h;
  h.id = 2;
  h.n = 5;
  h.epoch = 3;
  h.run_id = 0x73766377ull;
  h.data_port = 40'123;
  const std::vector<std::uint8_t> payload = encode_hello(h);
  EXPECT_EQ(hex(payload), "040a03f7c6d99b07bbb902");
  EXPECT_EQ(hex(encode_frame(FrameType::kHello, payload)),
            "d5cf01010b0000009627b2e4"  // magic, version, type, len, crc
            "040a03f7c6d99b07bbb902");
}

TEST(SvcWireGolden, ProposeAndBatch) {
  SvcPropose p;
  p.term = 7;
  p.clock = 90'210;
  p.batch = sample_batch();
  EXPECT_EQ(hex(encode_svc_propose(p)),
            "07c4810b"  // term, clock
            "2907a680800202810403010a578202808080808080808040027e8ea8d6b907");
  std::vector<std::uint8_t> batch;
  put_svc_batch(batch, sample_batch());
  EXPECT_EQ(hex(batch),
            "2907a6808002"                            // slot term action
            "02"                                      // two ops
            "810403010a57"                            // the write
            "8202808080808080808040027e8ea8d6b907");  // the read
}

}  // namespace
}  // namespace udc
