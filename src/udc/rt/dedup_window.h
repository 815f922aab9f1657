// DedupWindow: receiver-side duplicate suppression for one ordered channel
// of an ARQ link (rt/transport.h in process, rt/remote/remote_transport.h
// across processes).
//
// Wire seqs on a channel are dense from 1.  Everything at or below the
// watermark has been admitted; `held` keeps the admitted seqs above it, at
// most `window` of them, so the state stays bounded however far a channel
// reorders.  When an admit would overflow the window, the OLDEST held seq
// folds into the watermark (with the contiguous run above it): the gap
// below it is given up.  A seq from that gap that arrives later is
// suppressed, i.e. lost on the channel, and the protocol layer re-learns
// it through its own retransmission under a fresh seq.  Folding only the
// oldest gap gives up as few unseen seqs as the bound allows.
//
// Not thread-safe: each caller guards its windows with its own lock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <set>

namespace udc {

class DedupWindow {
 public:
  explicit DedupWindow(std::size_t window) : window_(window) {}

  // True when `seq` was admitted before or has been given up.
  bool seen(std::uint64_t seq) const {
    return seq <= watermark_ || held_.count(seq) > 0;
  }

  // Records `seq` (not yet seen) as admitted.
  void admit(std::uint64_t seq) {
    held_.insert(seq);
    fold();
    while (held_.size() > window_) {
      watermark_ = *held_.begin();
      held_.erase(held_.begin());
      fold();
    }
  }

  std::uint64_t watermark() const { return watermark_; }
  std::size_t held() const { return held_.size(); }

 private:
  // The contiguous run above the watermark folds into it.
  void fold() {
    while (!held_.empty() && *held_.begin() == watermark_ + 1) {
      held_.erase(held_.begin());
      ++watermark_;
    }
  }

  std::size_t window_;
  std::uint64_t watermark_ = 0;
  std::set<std::uint64_t> held_;
};

}  // namespace udc
