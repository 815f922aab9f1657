// Segmented-WAL torture (store/wal.h): build a many-segment chain through
// the staged append path, then attack the on-disk files from the OUTSIDE —
// the way a crashed machine or a bad disk would — at EVERY byte position,
// and pin the exact recovered prefix for each variant.
//
// The attack shapes:
//   * active-segment truncation at every byte (process/machine kill while
//     the tail segment is mid-write, including inside its preallocated
//     zero tail);
//   * machine-crash cuts at every byte of every segment — truncate segment
//     s to b and delete everything after it, the exact shape
//     inject_truncate_to_synced produces, INCLUDING cuts landing exactly
//     on rotation boundaries;
//   * a bit flip at every byte of every file;
//   * a deleted mid-chain segment (a hole ends the global prefix);
//   * a seal interrupted between its last write and its ftruncate (zero
//     tail on a mid-chain segment — later synced segments must still
//     count);
//   * a rotation interrupted after preallocating the next segment but
//     before writing to it.
//
// Every variant also round-trips repair_wal: repair must converge (second
// repair reports nothing nonzero to cut), must never change what read_wal
// decodes, and must report a nonzero cut exactly when real frame bytes —
// not preallocation zeros — lie past the valid prefix.  Several thousand
// variants total; each expectation is computed from the pristine bytes, not
// from what the reader happens to say.
#include "udc/store/wal.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "udc/event/event.h"
#include "udc/store/codec.h"

namespace udc {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kHeader = 8;  // [u32le len][u32le crc] (wal.cc)

std::string fresh_base(const std::string& name) {
  fs::path d = fs::temp_directory_path() / ("udc_seg_" + name);
  fs::remove_all(d);
  fs::create_directories(d);
  return (d / "p0.wal").string();
}

Event event_at(Time t) {
  Message m;
  m.kind = MsgKind::kApp;
  m.a = 1'000'000 + t;
  switch (t % 3) {
    case 0:
      return Event::send(static_cast<ProcessId>(t % 7), m);
    case 1:
      return Event::recv(static_cast<ProcessId>(t % 5), m);
    default:
      return Event::do_action(static_cast<ActionId>(t));
  }
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void spill(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// Frame end offsets within one pristine segment file, scanning the trusted
// len fields (a zero len is the preallocated tail of the active segment).
std::vector<std::size_t> frame_ends(const std::vector<std::uint8_t>& bytes) {
  std::vector<std::size_t> ends;
  std::size_t pos = 0;
  while (pos + kHeader <= bytes.size()) {
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i) {
      len |= static_cast<std::uint32_t>(bytes[pos + i]) << (8 * i);
    }
    if (len == 0 || pos + kHeader + len > bytes.size()) break;
    pos += kHeader + len;
    ends.push_back(pos);
  }
  return ends;
}

// Largest frame-end <= b (0 if none): where the valid prefix of a file cut
// at byte b ends.
std::size_t prefix_end_at(const std::vector<std::size_t>& ends,
                          std::size_t b) {
  std::size_t e = 0;
  for (std::size_t end : ends) {
    if (end <= b) e = end;
  }
  return e;
}

std::size_t prefix_frames_at(const std::vector<std::size_t>& ends,
                             std::size_t b) {
  std::size_t k = 0;
  for (std::size_t end : ends) {
    if (end <= b) ++k;
  }
  return k;
}

// The pristine chain plus everything the variants need to predict exact
// prefixes: per-segment bytes, frame boundaries, and cumulative counts.
struct Chain {
  std::string base;
  std::vector<std::string> paths;                   // by sequence order
  std::vector<std::vector<std::uint8_t>> bytes;     // pristine images
  std::vector<std::vector<std::size_t>> ends;       // frame ends per file
  std::vector<std::size_t> before;                  // frames before file i
  std::size_t total = 0;

  void restore() const {
    for (const auto& [seq, path] : list_wal_segments(base)) {
      (void)seq;
      fs::remove(path);
    }
    for (std::size_t i = 0; i < paths.size(); ++i) spill(paths[i], bytes[i]);
  }
};

Chain build_chain(const std::string& name, Time records) {
  Chain c;
  c.base = fresh_base(name);
  WalOptions o;
  o.segment_bytes = 128;  // a handful of frames per segment
  o.ring_frames = 16;
  {
    WalWriter w(c.base, o);
    for (Time t = 1; t <= records; ++t) {
      w.append(StoreRecord{t, event_at(t)});
    }
    w.commit();  // drain + barrier: everything reaches the files
    w.close();
  }
  for (const auto& [seq, path] : list_wal_segments(c.base)) {
    (void)seq;
    c.paths.push_back(path);
    c.bytes.push_back(slurp(path));
    c.ends.push_back(frame_ends(c.bytes.back()));
    c.before.push_back(c.total);
    c.total += c.ends.back().size();
  }
  EXPECT_EQ(c.total, static_cast<std::size_t>(records));
  EXPECT_GE(c.paths.size(), 8u) << "torture wants a long chain";
  return c;
}

// One corrupted chain, checked end to end: exact read prefix, repair's
// nonzero-cut report, repair changing nothing the reader decodes, and
// repair convergence.
void check_variant(const Chain& c, std::size_t want_records,
                   bool want_nonzero_cut, const std::string& what) {
  WalReadResult r = read_wal(c.base);
  ASSERT_EQ(r.records.size(), want_records) << what;
  for (std::size_t i = 0; i < r.records.size(); ++i) {
    ASSERT_EQ(r.records[i].t, static_cast<Time>(i + 1)) << what << " @" << i;
    ASSERT_EQ(r.records[i].e, event_at(r.records[i].t)) << what << " @" << i;
  }
  EXPECT_EQ(repair_wal(c.base), want_nonzero_cut) << what;
  WalReadResult post = read_wal(c.base);
  EXPECT_EQ(post.records.size(), want_records) << what << " after repair";
  EXPECT_FALSE(repair_wal(c.base)) << what << " repair did not converge";
}

TEST(StoreSegment, PristineChainReadsBackInFull) {
  Chain c = build_chain("pristine", 48);
  check_variant(c, c.total, /*want_nonzero_cut=*/false, "pristine");
}

// Kill while the ACTIVE segment is mid-write: truncate it at every byte of
// its preallocated extent.  Cuts inside a frame lose that frame and report
// a torn (nonzero) cut; cuts on a boundary or inside the zero tail lose
// nothing nonzero.
TEST(StoreSegment, ActiveSegmentTruncatedAtEveryByte) {
  Chain c = build_chain("active", 48);
  const std::size_t last = c.paths.size() - 1;
  const auto& ends = c.ends[last];
  const std::size_t data_end = ends.empty() ? 0 : ends.back();
  for (std::size_t b = 0; b < c.bytes[last].size(); ++b) {
    c.restore();
    fs::resize_file(c.paths[last], b);
    const std::size_t want = c.before[last] + prefix_frames_at(ends, b);
    const bool cut = std::min(b, data_end) > prefix_end_at(ends, b);
    check_variant(c, want, cut, "active cut at " + std::to_string(b));
  }
}

// The machine-crash shape (inject_truncate_to_synced): everything past a
// global byte offset is gone — segment s cut to b, later segments deleted.
// Every byte of every segment's data region, which includes cuts landing
// exactly on segment/rotation boundaries (b == 0 and b == data end).
TEST(StoreSegment, MachineCrashCutAtEveryByteOfEverySegment) {
  Chain c = build_chain("crashcut", 48);
  for (std::size_t s = 0; s < c.paths.size(); ++s) {
    const auto& ends = c.ends[s];
    const std::size_t data_end = ends.empty() ? 0 : ends.back();
    for (std::size_t b = 0; b <= data_end; ++b) {
      c.restore();
      fs::resize_file(c.paths[s], b);
      for (std::size_t later = s + 1; later < c.paths.size(); ++later) {
        fs::remove(c.paths[later]);
      }
      const std::size_t want = c.before[s] + prefix_frames_at(ends, b);
      const bool cut = b > prefix_end_at(ends, b);
      check_variant(c, want, cut,
                    "crash cut seg " + std::to_string(s) + " at " +
                        std::to_string(b));
    }
  }
}

// A flipped byte anywhere in a frame invalidates that frame and everything
// after it chain-wide; a flipped byte in the active segment's zero tail is
// junk past the prefix but costs no records.
TEST(StoreSegment, BitFlipAtEveryByteOfEveryFile) {
  Chain c = build_chain("bitflip", 48);
  for (std::size_t s = 0; s < c.paths.size(); ++s) {
    const auto& ends = c.ends[s];
    const std::size_t data_end = ends.empty() ? 0 : ends.back();
    for (std::size_t off = 0; off < c.bytes[s].size(); ++off) {
      c.restore();
      std::vector<std::uint8_t> mutated = c.bytes[s];
      mutated[off] ^= 0xA5;
      spill(c.paths[s], mutated);
      std::size_t want;
      if (off >= data_end) {
        want = c.total;  // zero-tail flip: all frames still decode
      } else {
        want = c.before[s] + prefix_frames_at(ends, off);
      }
      check_variant(c, want, /*want_nonzero_cut=*/true,
                    "flip seg " + std::to_string(s) + " byte " +
                        std::to_string(off));
    }
  }
}

// A hole in the chain ends the global prefix: frames in later segments are
// unreachable even though their bytes are intact, and repair deletes them.
TEST(StoreSegment, DeletedMiddleSegmentEndsThePrefix) {
  Chain c = build_chain("hole", 48);
  for (std::size_t s = 1; s + 1 < c.paths.size(); ++s) {
    c.restore();
    fs::remove(c.paths[s]);
    check_variant(c, c.before[s], /*want_nonzero_cut=*/true,
                  "deleted seg " + std::to_string(s));
  }
}

// A seal interrupted between its last write and its ftruncate leaves a
// mid-chain segment at its full preallocated size with a zero tail.  The
// zeros carry no frames: later synced segments still count, and repair
// trims the tail silently (it is not a torn write).
TEST(StoreSegment, InterruptedSealZeroTailDoesNotEndThePrefix) {
  Chain c = build_chain("midseal", 48);
  for (std::size_t s = 0; s + 1 < c.paths.size(); ++s) {
    c.restore();
    std::vector<std::uint8_t> unsealed = c.bytes[s];
    unsealed.resize(128, 0);  // back to the preallocated extent
    spill(c.paths[s], unsealed);
    check_variant(c, c.total, /*want_nonzero_cut=*/false,
                  "unsealed seg " + std::to_string(s));
  }
}

// A rotation interrupted after preallocating the next segment but before
// writing its first frame: an all-zero tail segment is a clean end.
TEST(StoreSegment, PreallocatedButUnwrittenTailSegmentIsClean) {
  Chain c = build_chain("prealloc", 48);
  c.restore();
  const unsigned next_seq = static_cast<unsigned>(c.paths.size());
  spill(wal_segment_path(c.base, next_seq),
        std::vector<std::uint8_t>(128, 0));
  check_variant(c, c.total, /*want_nonzero_cut=*/false, "fresh tail seg");
}

}  // namespace
}  // namespace udc
