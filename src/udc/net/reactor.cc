#include "udc/net/reactor.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "udc/common/check.h"

namespace udc {

namespace {

sockaddr_in loopback_addr(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// Epoll events carry (generation << 32) | fd: if a conn closed earlier in
// an epoll_wait batch and a fresh accept reused its fd number, the stale
// queued events for the old stream carry the old generation and are
// ignored instead of tearing down the new connection.
std::uint64_t epoll_key(int fd, std::uint32_t gen) {
  return (static_cast<std::uint64_t>(gen) << 32) |
         static_cast<std::uint32_t>(fd);
}

// The reactor whose loop runs on this thread: its callbacks' sends, made
// with io_mu_ already held, must take the queue.
thread_local const Reactor* tl_loop_owner = nullptr;

}  // namespace

Reactor::Reactor(ReactorOptions opts, FrameFn on_frame, PeerFn on_peer)
    : opts_(opts),
      on_frame_(std::move(on_frame)),
      on_peer_(std::move(on_peer)),
      rng_(opts.seed ^ 0x9e3779b97f4a7c15ull) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  UDC_CHECK(epoll_fd_ >= 0, "epoll_create1 failed");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  UDC_CHECK(wake_fd_ >= 0, "eventfd failed");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = epoll_key(wake_fd_, 0);
  UDC_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) == 0,
            "epoll_ctl(wake) failed");
}

Reactor::~Reactor() {
  stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

std::uint16_t Reactor::listen(std::uint16_t port) {
  UDC_CHECK(!started_.load(), "listen() must precede start()");
  UDC_CHECK(listen_fd_ < 0, "reactor already listening");
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  UDC_CHECK(fd >= 0, "socket() failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = loopback_addr(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    int e = errno;
    ::close(fd);
    throw InvariantViolation(std::string("bind(127.0.0.1:") +
                             std::to_string(port) +
                             ") failed: " + std::strerror(e));
  }
  UDC_CHECK(::listen(fd, 64) == 0, "listen() failed");
  socklen_t alen = sizeof(addr);
  UDC_CHECK(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &alen) == 0,
            "getsockname() failed");
  listen_fd_ = fd;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = epoll_key(listen_fd_, 0);
  UDC_CHECK(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0,
            "epoll_ctl(listen) failed");
  std::uint16_t bound = ntohs(addr.sin_port);
  if (opts_.advertised_port == 0) opts_.advertised_port = bound;
  return bound;
}

void Reactor::start() {
  UDC_CHECK(!started_.exchange(true), "reactor started twice");
  thread_ = std::thread([this] { loop(); });
}

void Reactor::set_endpoint(ProcessId peer, std::uint16_t port) {
  Command c;
  c.kind = Command::Kind::kEndpoint;
  c.peer = peer;
  c.port = port;
  {
    std::lock_guard<std::mutex> lk(cmd_mu_);
    commands_.push_back(std::move(c));
  }
  std::uint64_t one = 1;
  [[maybe_unused]] auto r = ::write(wake_fd_, &one, sizeof(one));
}

void Reactor::set_refuse(ProcessId peer, bool refuse) {
  Command c;
  c.kind = Command::Kind::kRefuse;
  c.peer = peer;
  c.refuse = refuse;
  {
    std::lock_guard<std::mutex> lk(cmd_mu_);
    commands_.push_back(std::move(c));
  }
  std::uint64_t one = 1;
  [[maybe_unused]] auto r = ::write(wake_fd_, &one, sizeof(one));
}

bool Reactor::send(ProcessId peer, FrameType type,
                   std::vector<std::uint8_t> payload) {
  bool routable;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    auto it = established_.find(peer);
    routable = it != established_.end() && it->second;
    if (!routable) ++counters_.send_unroutable;
  }
  if (routable && send_inline(peer, type, payload)) return true;
  Command c;
  c.kind = Command::Kind::kSend;
  c.peer = peer;
  c.type = type;
  c.payload = std::move(payload);
  {
    std::lock_guard<std::mutex> lk(cmd_mu_);
    commands_.push_back(std::move(c));
  }
  std::uint64_t one = 1;
  [[maybe_unused]] auto r = ::write(wake_fd_, &one, sizeof(one));
  return routable;
}

bool Reactor::send_inline(ProcessId peer, FrameType type,
                          const std::vector<std::uint8_t>& payload) {
  if (tl_loop_owner == this || (type == FrameType::kData && shim_)) {
    return false;
  }
  std::unique_lock<std::mutex> io(io_mu_, std::try_to_lock);
  if (!io.owns_lock()) return false;
  {
    std::lock_guard<std::mutex> lk(cmd_mu_);
    if (!commands_.empty()) return false;
  }
  Conn* c = established_conn(peer);
  if (c == nullptr || !c->outbuf.empty()) return false;
  if (queue_frame(*c, type, payload.data(), payload.size())) {
    std::lock_guard<std::mutex> lk(state_mu_);
    ++counters_.frames_tx_inline;
  }
  // A short write or a write error: the reactor thread flushes the rest
  // on EPOLLOUT, or closes the stream when its write (or EPOLLHUP) fails.
  if (write_out(*c) != IoStatus::kOk) arm(*c, /*want_write=*/true);
  return true;
}

Reactor::Conn* Reactor::established_conn(ProcessId peer) {
  auto pit = peers_.find(peer);
  if (pit == peers_.end() || pit->second.fd < 0) return nullptr;
  auto cit = conns_.find(pit->second.fd);
  if (cit == conns_.end() || cit->second.state != ConnState::kEstablished) {
    return nullptr;
  }
  return &cit->second;
}

bool Reactor::peer_established(ProcessId peer) const {
  std::lock_guard<std::mutex> lk(state_mu_);
  auto it = established_.find(peer);
  return it != established_.end() && it->second;
}

WireCounters Reactor::counters() const {
  std::lock_guard<std::mutex> lk(state_mu_);
  return counters_;
}

void Reactor::stop() {
  if (!started_.load()) return;
  if (!stopping_.exchange(true)) {
    std::uint64_t one = 1;
    [[maybe_unused]] auto r = ::write(wake_fd_, &one, sizeof(one));
  }
  if (thread_.joinable()) thread_.join();
}

void Reactor::loop() {
  tl_loop_owner = this;
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (!stopping_.load()) {
    int k = ::epoll_wait(epoll_fd_, events, kMaxEvents, /*timeout_ms=*/10);
    if (k < 0) {
      if (errno == EINTR) continue;
      break;  // epoll itself broke: nothing sane left to do
    }
    std::lock_guard<std::mutex> io(io_mu_);
    for (int i = 0; i < k; ++i) {
      const std::uint64_t key = events[i].data.u64;
      const int fd = static_cast<int>(key & 0xffffffffu);
      const auto gen = static_cast<std::uint32_t>(key >> 32);
      std::uint32_t ev = events[i].events;
      if (fd == wake_fd_) {
        std::uint64_t drain;
        while (::read(wake_fd_, &drain, sizeof(drain)) > 0) {
        }
        continue;
      }
      if (fd == listen_fd_) {
        accept_ready();
        continue;
      }
      auto cit = conns_.find(fd);
      if (cit == conns_.end() || cit->second.gen != gen) {
        continue;  // stale event for a closed conn whose fd was reused
      }
      if (ev & (EPOLLHUP | EPOLLERR)) {
        close_conn(fd, /*notify=*/true);
        continue;
      }
      if (ev & EPOLLOUT) conn_writable(fd);
      cit = conns_.find(fd);
      if (cit != conns_.end() && cit->second.gen == gen &&
          (ev & EPOLLIN)) {
        conn_readable(fd);
      }
    }
    run_commands();
    timers(std::chrono::steady_clock::now());
  }
  // Shutdown: close every stream (peers learn via EOF or keepalive).
  std::lock_guard<std::mutex> io(io_mu_);
  while (!conns_.empty()) close_conn(conns_.begin()->first, /*notify=*/false);
  tl_loop_owner = nullptr;
}

void Reactor::run_commands() {
  std::deque<Command> batch;
  {
    std::lock_guard<std::mutex> lk(cmd_mu_);
    batch.swap(commands_);
  }
  auto now = std::chrono::steady_clock::now();
  for (auto& c : batch) {
    switch (c.kind) {
      case Command::Kind::kSend:
        do_send(c.peer, c.type, c.payload);
        break;
      case Command::Kind::kEndpoint: {
        Peer& p = peers_[c.peer];
        bool changed = p.port != c.port;
        p.port = c.port;
        if (changed && p.fd >= 0) close_conn(p.fd, /*notify=*/true);
        p.attempt = 0;
        p.next_dial = now;
        break;
      }
      case Command::Kind::kRefuse: {
        Peer& p = peers_[c.peer];
        if (p.refused == c.refuse) break;
        p.refused = c.refuse;
        if (c.refuse) {
          {
            std::lock_guard<std::mutex> lk(state_mu_);
            ++counters_.partitions_enforced;
          }
          if (p.fd >= 0) close_conn(p.fd, /*notify=*/true);
        } else {
          p.attempt = 0;
          p.next_dial = now;
        }
        break;
      }
      case Command::Kind::kStop:
        break;
    }
  }
}

void Reactor::do_send(ProcessId peer, FrameType type,
                      const std::vector<std::uint8_t>& payload) {
  Conn* c = established_conn(peer);
  if (c == nullptr) return;
  if (type == FrameType::kData && shim_) {
    WireFrame probe;
    probe.type = type;
    probe.payload = payload;
    if (!shim_(peer, probe)) {
      std::lock_guard<std::mutex> lk(state_mu_);
      ++counters_.shim_drops;
      return;
    }
  }
  queue_frame(*c, type, payload.data(), payload.size());
  flush_conn(c->fd);
}

void Reactor::dial(ProcessId peer) {
  Peer& p = peers_[peer];
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    p.next_dial = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(
                      backoff_delay_jittered(opts_.reconnect, p.attempt++,
                                             rng_));
    return;
  }
  set_nodelay(fd);
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    ++counters_.dials;
  }
  sockaddr_in addr = loopback_addr(p.port);
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    p.next_dial = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(
                      backoff_delay_jittered(opts_.reconnect, p.attempt++,
                                             rng_));
    return;
  }
  Conn c;
  c.fd = fd;
  c.gen = ++conn_gen_;
  c.state = ConnState::kConnecting;
  c.dialed = true;
  c.write_armed = true;  // connect() completion arrives as EPOLLOUT
  c.peer = peer;
  c.last_rx = std::chrono::steady_clock::now();
  const std::uint32_t gen = c.gen;
  conns_.emplace(fd, std::move(c));
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLOUT;
  ev.data.u64 = epoll_key(fd, gen);
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    conns_.erase(fd);
    ::close(fd);
  }
}

void Reactor::accept_ready() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN or transient accept error: epoll will re-arm
    }
    set_nodelay(fd);
    {
      std::lock_guard<std::mutex> lk(state_mu_);
      ++counters_.accepts;
    }
    Conn c;
    c.fd = fd;
    c.gen = ++conn_gen_;
    c.state = ConnState::kHandshaking;
    c.dialed = false;
    c.last_rx = std::chrono::steady_clock::now();
    const std::uint32_t gen = c.gen;
    conns_.emplace(fd, std::move(c));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = epoll_key(fd, gen);
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      conns_.erase(fd);
      ::close(fd);
    }
  }
}

void Reactor::conn_readable(int fd) {
  std::uint8_t buf[64 * 1024];
  for (;;) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) return;
    IoResult r = read_some(fd, buf, sizeof(buf));
    if (r.status == IoStatus::kWouldBlock) break;
    if (!r.ok()) {
      close_conn(fd, /*notify=*/true);
      return;
    }
    it->second.decoder.feed(buf, r.bytes);
    it->second.last_rx = std::chrono::steady_clock::now();
    it->second.pings_unanswered = 0;
    for (;;) {
      auto cit = conns_.find(fd);
      if (cit == conns_.end()) return;  // handle_frame closed it
      auto f = cit->second.decoder.next();
      if (!f) break;
      handle_frame(fd, *f);
    }
    // Fold codec-drop deltas into the wire counters.
    auto cit = conns_.find(fd);
    if (cit != conns_.end()) {
      const auto& dc = cit->second.decoder.counters();
      std::lock_guard<std::mutex> lk(state_mu_);
      counters_.crc_drops += dc.crc_drops - cit->second.crc_seen;
      counters_.resyncs += dc.resyncs - cit->second.resync_seen;
      cit->second.crc_seen = dc.crc_drops;
      cit->second.resync_seen = dc.resyncs;
      counters_.bytes_rx += r.bytes;
    }
    if (r.bytes < sizeof(buf)) break;  // short read: stream drained
  }
}

void Reactor::conn_writable(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& c = it->second;
  if (c.state == ConnState::kConnecting) {
    int err = 0;
    socklen_t elen = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &elen) != 0 || err != 0) {
      close_conn(fd, /*notify=*/false);
      return;
    }
    c.state = ConnState::kHandshaking;
    WireHello h;
    h.id = opts_.self;
    h.n = opts_.n;
    h.epoch = opts_.epoch;
    h.run_id = opts_.run_id;
    h.data_port = opts_.advertised_port;
    auto payload = encode_hello(h);
    queue_frame(c, FrameType::kHello, payload.data(), payload.size());
  }
  flush_conn(fd);
}

void Reactor::handle_frame(int fd, const WireFrame& f) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& c = it->second;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    ++counters_.frames_rx;
  }
  switch (f.type) {
    case FrameType::kHello: {
      auto h = decode_hello(f.payload.data(), f.payload.size());
      bool id_ok =
          h && (h->id == kSupervisorPeer ||
                (opts_.accept_clients && h->id >= kClientPeerBase) ||
                (h->id >= 0 && (opts_.n == 0 || h->id < opts_.n)));
      bool run_ok = h && h->run_id == opts_.run_id;
      bool n_ok = h && (opts_.n == 0 || h->n == 0 || h->n == opts_.n);
      bool refused = h && peers_.count(h->id) && peers_[h->id].refused;
      if (c.dialed || c.state != ConnState::kHandshaking || !id_ok ||
          !run_ok || !n_ok || refused) {
        std::lock_guard<std::mutex> lk(state_mu_);
        ++counters_.handshake_rejects;
        if (refused) ++counters_.partitions_enforced;
        break;  // falls through to close below
      }
      c.peer = h->id;
      WireHello mine;
      mine.id = opts_.self;
      mine.n = opts_.n;
      mine.epoch = opts_.epoch;
      mine.run_id = opts_.run_id;
      mine.data_port = opts_.advertised_port;
      auto payload = encode_hello(mine);
      queue_frame(c, FrameType::kHelloAck, payload.data(), payload.size());
      flush_conn(fd);
      establish(fd, h->id, h->epoch, h->data_port);
      return;
    }
    case FrameType::kHelloAck: {
      auto h = decode_hello(f.payload.data(), f.payload.size());
      if (!c.dialed || c.state != ConnState::kHandshaking || !h ||
          h->run_id != opts_.run_id || h->id != c.peer) {
        std::lock_guard<std::mutex> lk(state_mu_);
        ++counters_.handshake_rejects;
        break;
      }
      establish(fd, h->id, h->epoch, h->data_port);
      return;
    }
    case FrameType::kPing: {
      queue_frame(c, FrameType::kPong, nullptr, 0);
      flush_conn(fd);
      return;
    }
    case FrameType::kPong:
      return;  // last_rx already refreshed by the read pump
    case FrameType::kBye:
      close_conn(fd, /*notify=*/true);
      return;
    default: {
      if (c.state == ConnState::kEstablished) {
        on_frame_(c.peer, c.peer_epoch, f);
      }
      return;
    }
  }
  close_conn(fd, /*notify=*/false);
}

void Reactor::establish(int fd, ProcessId peer, std::uint64_t epoch,
                        std::uint16_t data_port) {
  Peer& p = peers_[peer];
  if (p.fd >= 0 && p.fd != fd) {
    // A fresh stream replaces a stale one; the upper layer may see a second
    // "up" with no intervening "down" — establish is idempotent up there.
    int old = p.fd;
    p.fd = -1;
    close_conn(old, /*notify=*/false);
  }
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& c = it->second;
  c.state = ConnState::kEstablished;
  c.peer = peer;
  c.peer_epoch = epoch;
  c.peer_data_port = data_port;
  p.fd = fd;
  p.attempt = 0;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    ++counters_.connects;
    if (p.was_established) ++counters_.reconnects;
    established_[peer] = true;
  }
  p.was_established = true;
  on_peer_(peer, epoch, true, data_port);
}

void Reactor::close_conn(int fd, bool notify) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn c = std::move(it->second);
  conns_.erase(it);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  if (c.peer == kInvalidProcess) return;
  auto pit = peers_.find(c.peer);
  bool owned = pit != peers_.end() && pit->second.fd == fd;
  if (owned) {
    pit->second.fd = -1;
    {
      std::lock_guard<std::mutex> lk(state_mu_);
      established_[c.peer] = false;
    }
    if (notify && c.state == ConnState::kEstablished) {
      on_peer_(c.peer, c.peer_epoch, false, c.peer_data_port);
    }
  }
  // If we are the dialer for this peer, schedule a redial (unless refused).
  if (c.dialed && pit != peers_.end() && pit->second.port != 0 &&
      !pit->second.refused && pit->second.fd < 0) {
    pit->second.next_dial =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(backoff_delay_jittered(
            opts_.reconnect, pit->second.attempt++, rng_));
  }
}

bool Reactor::queue_frame(Conn& c, FrameType type, const std::uint8_t* payload,
                          std::size_t len) {
  const std::size_t bytes = kWireHeaderBytes + len;
  if (c.outbuf.size() - c.out_pos + bytes > opts_.max_outbuf_bytes) {
    // Backlog cap: drop at the wire; ARQ retries will re-teach.
    std::lock_guard<std::mutex> lk(state_mu_);
    ++counters_.send_unroutable;
    return false;
  }
  append_frame(&c.outbuf, type, payload, len);
  std::lock_guard<std::mutex> lk(state_mu_);
  ++counters_.frames_tx;
  counters_.bytes_tx += bytes;
  return true;
}

// Writes as much of the backlog as the socket takes now; kOk once empty.
IoStatus Reactor::write_out(Conn& c) {
  while (c.out_pos < c.outbuf.size()) {
    IoResult r = write_some(c.fd, c.outbuf.data() + c.out_pos,
                            c.outbuf.size() - c.out_pos);
    if (!r.ok()) return r.status;
    c.out_pos += r.bytes;
  }
  c.outbuf.clear();
  c.out_pos = 0;
  return IoStatus::kOk;
}

void Reactor::flush_conn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& c = it->second;
  const IoStatus s = write_out(c);
  if (s == IoStatus::kWouldBlock) {
    arm(c, /*want_write=*/true);
  } else if (s != IoStatus::kOk) {
    close_conn(fd, /*notify=*/true);
  } else if (c.state != ConnState::kConnecting) {
    arm(c, /*want_write=*/false);
  }
}

void Reactor::timers(std::chrono::steady_clock::time_point now) {
  // Dial peers whose backoff expired.
  for (auto& [peer, p] : peers_) {
    if (p.port != 0 && p.fd < 0 && !p.refused && p.next_dial <= now) {
      bool already_connecting = false;
      for (const auto& [fd, c] : conns_) {
        if (c.dialed && c.peer == peer &&
            c.state != ConnState::kEstablished) {
          already_connecting = true;
          break;
        }
      }
      if (!already_connecting) dial(peer);
    }
  }
  // Keepalive and dead-stream detection (also times out stuck handshakes).
  // Probe writes are deferred past the scan: flush_conn can close a conn on
  // write failure, which would invalidate the iteration.
  std::vector<int> dead;
  std::vector<int> probe;
  for (auto& [fd, c] : conns_) {
    auto silence = now - c.last_rx;
    if (silence > opts_.dead_after) {
      dead.push_back(fd);
      continue;
    }
    if (c.state != ConnState::kEstablished) continue;
    if (opts_.keepalive_misses > 0 &&
        c.pings_unanswered >= opts_.keepalive_misses) {
      dead.push_back(fd);
      continue;
    }
    if (silence > opts_.keepalive * (c.pings_unanswered + 1)) {
      ++c.pings_unanswered;
      probe.push_back(fd);
    }
  }
  for (int fd : probe) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    {
      std::lock_guard<std::mutex> lk(state_mu_);
      ++counters_.keepalive_probes;
    }
    queue_frame(it->second, FrameType::kPing, nullptr, 0);
    flush_conn(fd);
  }
  for (int fd : dead) {
    {
      std::lock_guard<std::mutex> lk(state_mu_);
      ++counters_.dead_closes;
    }
    close_conn(fd, /*notify=*/true);
  }
}

void Reactor::arm(Conn& c, bool want_write) {
  if (c.write_armed == want_write) return;
  c.write_armed = want_write;
  epoll_event ev{};
  ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0u);
  ev.data.u64 = epoll_key(c.fd, c.gen);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
}

}  // namespace udc
