// Durable service log (svc/svclog): the promise behind every replication
// ack.  A follower acks a batch only once this log holds it, so what the
// reader returns after a kill is what the quorum stands on: every batch in
// the longest valid frame prefix, in append order, and nothing past the
// first torn, flipped or undecodable frame.
#include "udc/svc/svclog.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "udc/coord/action.h"
#include "udc/store/wal.h"

namespace udc {
namespace {

namespace fs = std::filesystem;

std::string fresh_log(const std::string& name) {
  const fs::path d = fs::temp_directory_path() / ("udc_svclog_" + name);
  fs::remove_all(d);
  fs::create_directories(d);
  return (d / "svc-0.log").string();
}

std::vector<std::uint8_t> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

SvcBatch batch(std::uint64_t slot, std::uint64_t term, ActionId action,
               int ops) {
  SvcBatch b;
  b.slot = slot;
  b.term = term;
  b.action = action;
  for (int i = 0; i < ops; ++i) {
    SvcOp op;
    op.session = 0x100 + static_cast<std::uint64_t>(i);
    op.seq = slot;
    op.reg = i;
    op.value = -static_cast<std::int64_t>(slot) * 1000 - i;
    b.ops.push_back(op);
  }
  return b;
}

// Five batches, the last a re-acceptance of the first action at a new
// slot under a higher term (failover adoption).
std::vector<SvcBatch> sample_batches() {
  return {batch(1, 1, make_action(0, 0), 2), batch(2, 1, make_action(0, 1), 0),
          batch(3, 2, make_action(1, 0), 5), batch(4, 2, make_action(1, 1), 1),
          batch(5, 3, make_action(0, 0), 2)};
}

// Byte length of each batch's frame on disk.
std::vector<std::size_t> frame_sizes(const std::vector<SvcBatch>& bs) {
  std::vector<std::size_t> out;
  for (const SvcBatch& b : bs) {
    std::vector<std::uint8_t> payload;
    put_svc_batch(payload, b);
    out.push_back(wal_frame(payload).size());
  }
  return out;
}

std::string write_sample(const std::string& name) {
  const std::string path = fresh_log(name);
  SvcDurableLog log(path);
  for (const SvcBatch& b : sample_batches()) log.append(b);
  EXPECT_EQ(log.appended(), sample_batches().size());
  return path;
}

TEST(SvcDurableLog, AppendsReadBackInOrderIncludingAReacceptedAction) {
  const std::string path = write_sample("order");
  const std::vector<SvcBatch> got = SvcDurableLog::read(path);
  EXPECT_EQ(got, sample_batches());
  // The same action appears twice; the later (higher-term) record is last.
  EXPECT_EQ(got.front().action, got.back().action);
  EXPECT_EQ(got.back().term, 3u);

  // Reopening appends after what is there.
  {
    SvcDurableLog log(path);
    log.append(batch(6, 3, make_action(2, 0), 3));
  }
  std::vector<SvcBatch> want = sample_batches();
  want.push_back(batch(6, 3, make_action(2, 0), 3));
  EXPECT_EQ(SvcDurableLog::read(path), want);
  EXPECT_EQ(SvcDurableLog::recover(path), want);
}

TEST(SvcDurableLog, AWrittenRecordReadsBackBeforeItsSync) {
  // A leader's seal writes the batch's record, then its kInit, then syncs:
  // once write() returns, a kill of the process can no longer lose the
  // record, so no recovered kInit is ever left without its batch.
  const std::string path = fresh_log("write_then_sync");
  SvcDurableLog log(path);
  for (const SvcBatch& b : sample_batches()) log.write(b);
  EXPECT_EQ(SvcDurableLog::read(path), sample_batches());
  log.sync();
  EXPECT_EQ(log.appended(), sample_batches().size());
  EXPECT_EQ(SvcDurableLog::recover(path), sample_batches());
}

TEST(SvcDurableLog, MissingFileReadsAsEmpty) {
  const std::string path = fresh_log("missing");
  EXPECT_TRUE(SvcDurableLog::read(path).empty());
  EXPECT_TRUE(SvcDurableLog::recover(path).empty());
  EXPECT_FALSE(fs::exists(path));
}

TEST(SvcDurableLog, RecoverCutsATornLastFrameAndLaterAppendsReadBack) {
  const std::vector<SvcBatch> all = sample_batches();
  const std::vector<std::size_t> sizes = frame_sizes(all);
  const std::string path = write_sample("torn");
  const std::vector<std::uint8_t> full = read_bytes(path);
  const std::size_t last = sizes.back();
  const std::vector<SvcBatch> kept(all.begin(), all.end() - 1);
  // A kill mid-append leaves any strict prefix of the last frame.
  for (std::size_t cut = 1; cut < last; ++cut) {
    std::vector<std::uint8_t> torn(full.begin(), full.end() - cut);
    write_bytes(path, torn);
    ASSERT_EQ(SvcDurableLog::read(path), kept) << "cut " << cut;
    ASSERT_EQ(SvcDurableLog::recover(path), kept) << "cut " << cut;
    ASSERT_EQ(fs::file_size(path), full.size() - last) << "cut " << cut;
  }
  // The cut makes room: a frame appended after it is read back, where it
  // would have hidden behind the torn tail.
  const SvcBatch next = batch(5, 4, make_action(2, 7), 1);
  {
    SvcDurableLog log(path);
    log.append(next);
  }
  std::vector<SvcBatch> want = kept;
  want.push_back(next);
  EXPECT_EQ(SvcDurableLog::read(path), want);
  EXPECT_EQ(SvcDurableLog::recover(path), want);
}

TEST(SvcDurableLog, FlippedByteInFrameKEndsTheReadAtFrameK) {
  const std::vector<SvcBatch> all = sample_batches();
  const std::vector<std::size_t> sizes = frame_sizes(all);
  const std::string path = write_sample("flip");
  const std::vector<std::uint8_t> full = read_bytes(path);
  std::size_t start = 0;
  for (std::size_t k = 0; k < all.size(); ++k) {
    const auto end = all.begin() + static_cast<std::ptrdiff_t>(k);
    const std::vector<SvcBatch> prefix(all.begin(), end);
    for (std::size_t off = start; off < start + sizes[k]; ++off) {
      std::vector<std::uint8_t> bad = full;
      bad[off] ^= 0xFF;
      write_bytes(path, bad);
      ASSERT_EQ(SvcDurableLog::read(path), prefix)
          << "frame " << k << " byte " << off;
    }
    start += sizes[k];
  }
  // recover() cuts the file back to the prefix before the flipped frame.
  std::vector<std::uint8_t> bad = full;
  bad[sizes[0] + sizes[1] + 3] ^= 0x01;
  write_bytes(path, bad);
  EXPECT_EQ(SvcDurableLog::recover(path),
            std::vector<SvcBatch>(all.begin(), all.begin() + 2));
  EXPECT_EQ(fs::file_size(path), sizes[0] + sizes[1]);
}

TEST(SvcDurableLog, ACrcValidFrameThatIsNotABatchEndsThePrefix) {
  const std::vector<SvcBatch> all = sample_batches();
  const std::string path = write_sample("undecodable");
  std::vector<std::uint8_t> bytes = read_bytes(path);
  const std::size_t valid = bytes.size();
  // A well-framed payload with an op kind no encoder writes, then a good
  // frame behind it that must not be reached.
  std::vector<std::uint8_t> junk;
  put_svc_batch(junk, batch(9, 9, make_action(0, 9), 0));
  junk.back() = 1;  // one op: session 1, seq 1, kind 0x7F, reg 0, value 0
  junk.insert(junk.end(), {1, 1, 0x7F, 0, 0});
  ASSERT_FALSE(decode_svc_batch(junk.data(), junk.size()).has_value());
  for (const auto& payload :
       {junk, std::vector<std::uint8_t>{0xFF, 0xFF, 0xFF}}) {
    std::vector<std::uint8_t> file = bytes;
    const std::vector<std::uint8_t> frame = wal_frame(payload);
    file.insert(file.end(), frame.begin(), frame.end());
    std::vector<std::uint8_t> good;
    put_svc_batch(good, batch(6, 3, make_action(2, 0), 1));
    const std::vector<std::uint8_t> good_frame = wal_frame(good);
    file.insert(file.end(), good_frame.begin(), good_frame.end());
    write_bytes(path, file);
    EXPECT_EQ(SvcDurableLog::read(path), all);
    EXPECT_EQ(SvcDurableLog::recover(path), all);
    EXPECT_EQ(fs::file_size(path), valid);
  }
}

}  // namespace
}  // namespace udc
