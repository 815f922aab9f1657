#include "udc/rt/remote/remote_transport.h"

#include "udc/common/check.h"

namespace udc {

RemoteTransport::RemoteTransport(ProcessId self, int n,
                                 RemoteTransportOptions opts, Reactor& reactor,
                                 std::function<std::size_t()> durable_floor,
                                 std::function<Time()> clock_now,
                                 std::function<void(Time)> clock_observe,
                                 DeliverFn deliver,
                                 AtomicRuntimeCounters& counters,
                                 std::uint64_t seed)
    : self_(self),
      n_(n),
      opts_(opts),
      reactor_(reactor),
      durable_floor_(std::move(durable_floor)),
      clock_now_(std::move(clock_now)),
      clock_observe_(std::move(clock_observe)),
      deliver_(std::move(deliver)),
      counters_(counters),
      rng_(seed ^ 0x72656d6f7465ull) {  // "remote"
  UDC_CHECK(opts_.dedup_window >= 1, "remote transport: bad dedup window");
}

void RemoteTransport::send(ProcessId to, const Message& msg, Time send_tick,
                           std::size_t gate) {
  counters_.add(counters_.sends);
  std::lock_guard<std::mutex> lk(mu_);
  std::uint64_t seq = ++next_seq_[to];
  PendingSend ps;
  ps.msg = msg;
  ps.send_tick = send_tick;
  ps.gate = gate;
  pending_[to].emplace(seq, std::move(ps));
  // Not transmitted here: pump() releases it once the kSend is durable.
}

void RemoteTransport::send_control(ProcessId to, const Message& msg) {
  std::lock_guard<std::mutex> lk(mu_);
  std::uint64_t seq = ++next_seq_[to];
  PendingSend ps;
  ps.msg = msg;
  ps.send_tick = 0;
  ps.gate = 0;  // ungated: transmits on the next pump
  pending_[to].emplace(seq, std::move(ps));
}

void RemoteTransport::send_heartbeat(ProcessId to, const Message& msg) {
  counters_.add(counters_.heartbeats);
  WireData d;
  d.from = self_;
  d.to = to;
  d.seq = 0;
  d.send_tick = 0;
  d.clock = clock_now_();
  d.msg = msg;
  {
    std::lock_guard<std::mutex> lk(mu_);
    d.acks = take_owed_locked(to);
    if (!d.acks.empty()) {
      counters_.add(counters_.acks_piggybacked, d.acks.size());
    }
  }
  reactor_.send(to, FrameType::kData, encode_data(d));
}

void RemoteTransport::on_wire_data(ProcessId peer, std::uint64_t epoch,
                                   const WireData& d) {
  if (d.to != self_ || d.from != peer) return;  // misrouted: drop
  clock_observe_(d.clock);

  bool fresh = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    // Fold piggybacked acks: each retires a pending send of ours.
    if (!d.acks.empty()) {
      auto pit = pending_.find(peer);
      if (pit != pending_.end()) {
        for (std::uint64_t s : d.acks) {
          if (pit->second.erase(s) > 0) counters_.add(counters_.acks);
        }
      }
    }
    if (d.seq == 0) {
      fresh = true;  // below the model: no dedup, no ack owed
    } else {
      PeerChannel& ch = chan_[peer];
      if (!ch.epoch_known || ch.epoch != epoch) {
        // New incarnation of the peer: its seq space restarted, so stale
        // dedup state would wrongly swallow its fresh traffic.
        ch = PeerChannel{};
        ch.epoch = epoch;
        ch.epoch_known = true;
        ch.dedup = DedupWindow(opts_.dedup_window);
      }
      if (ch.dedup.seen(d.seq)) {
        counters_.add(counters_.dedup_suppressed);
      } else {
        fresh = true;
        ch.dedup.admit(d.seq);
      }
      // Ack even duplicates — the sender keeps retrying until it hears one.
      ch.owed_acks.push_back(d.seq);
    }
  }
  if (fresh) {
    // Heartbeats (seq 0) are not deliveries, as in RtTransport.
    if (d.seq != 0) counters_.add(counters_.delivered);
    deliver_(peer, d.msg, d.send_tick);
  }
}

void RemoteTransport::on_wire_ack(ProcessId peer, const WireAck& a) {
  if (a.to != self_ || a.from != peer) return;
  std::lock_guard<std::mutex> lk(mu_);
  auto pit = pending_.find(peer);
  if (pit == pending_.end()) return;
  for (std::uint64_t s : a.seqs) {
    if (pit->second.erase(s) > 0) counters_.add(counters_.acks);
  }
}

void RemoteTransport::on_peer_up(ProcessId peer) {
  // The dead stream took whatever was in flight with it; re-teach now
  // rather than waiting out each send's backoff.
  auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lk(mu_);
  auto pit = pending_.find(peer);
  if (pit == pending_.end()) return;
  for (auto& [seq, ps] : pit->second) {
    if (ps.released) ps.next_at = now;
  }
}

void RemoteTransport::transmit_locked(ProcessId to, std::uint64_t seq,
                                      PendingSend& ps) {
  WireData d;
  d.from = self_;
  d.to = to;
  d.seq = seq;
  d.send_tick = ps.send_tick;
  d.clock = clock_now_();
  d.msg = ps.msg;
  d.acks = take_owed_locked(to);
  if (!d.acks.empty()) {
    counters_.add(counters_.acks_piggybacked, d.acks.size());
  }
  reactor_.send(to, FrameType::kData, encode_data(d));
  if (ps.released) counters_.add(counters_.retransmits);
  ps.released = true;
  ps.next_at = std::chrono::steady_clock::now() +
               std::chrono::microseconds(backoff_delay_jittered(
                   opts_.backoff, ps.attempt, rng_));
  ++ps.attempt;
}

std::vector<std::uint64_t> RemoteTransport::take_owed_locked(ProcessId peer) {
  auto cit = chan_.find(peer);
  if (cit == chan_.end() || cit->second.owed_acks.empty()) return {};
  std::vector<std::uint64_t> owed;
  owed.swap(cit->second.owed_acks);
  return owed;
}

void RemoteTransport::pump() {
  const std::size_t floor = durable_floor_();
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& [to, sends] : pending_) {
    for (auto& [seq, ps] : sends) {
      if (!ps.released) {
        if (ps.gate <= floor) transmit_locked(to, seq, ps);
      } else if (now >= ps.next_at) {
        transmit_locked(to, seq, ps);
      }
    }
  }
  // Owed acks with no reverse data to ride: flush as standalone batches.
  for (auto& [peer, ch] : chan_) {
    if (ch.owed_acks.empty()) continue;
    WireAck a;
    a.from = self_;
    a.to = peer;
    a.seqs.swap(ch.owed_acks);
    reactor_.send(peer, FrameType::kAck, encode_ack(a));
  }
}

std::size_t RemoteTransport::pending_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::size_t k = 0;
  for (const auto& [to, sends] : pending_) k += sends.size();
  return k;
}

}  // namespace udc
