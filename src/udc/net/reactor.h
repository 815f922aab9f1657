// Nonblocking epoll reactor with per-peer connection state machines.
//
// One Reactor per OS process owns every socket that process speaks through:
// a listening socket for inbound peers, one outbound dial per peer this
// side is responsible for, and the frame codec on each established stream.
// Per-peer lifecycle:
//
//   kConnecting --connect() done--> kHandshaking --hello/ack--> kEstablished
//        ^                                                          |
//        +---- jittered-backoff redial <---- close/error/refuse ----+
//
// The handshake carries (process id, epoch, run id, fleet size): a peer
// from another run, a stale binary with the wrong n, or a partitioned-away
// peer is REJECTED and counted, never half-adopted.  The epoch is the
// incarnation number — a node relaunched after SIGKILL dials back in with
// epoch+1, and the upper layer (rt/remote) treats the new epoch as the
// reconnect-as-rejoin signal: dedup state resets, pending sends re-teach.
//
// Dial responsibility is endpoint-driven: this side dials exactly the peers
// it was given an endpoint for (set_endpoint), so the fleet picks one
// dialer per pair (lower id accepts, higher id dials; everyone dials the
// supervisor) and duplicate connections cannot arise by construction —
// if one shows up anyway (a stale half-open socket plus a fresh dial), the
// newest established stream wins and the old one is closed.
//
// Keepalive: an established stream silent for `keepalive` gets a kPing,
// another after each further `keepalive` of silence; once `keepalive_misses`
// consecutive probes go unanswered the stream is declared dead and torn
// down (with `dead_after` kept as a hard backstop, which also times out
// stuck handshakes) — that is how a half-open TCP connection (peer
// SIGKILLed, no FIN ever sent) is detected and converted into peer-down +
// redial, well before a redial would have noticed.
//
// Chaos enters here, between the reactor and the codec: an installed shim
// is consulted before any kData frame is written to a socket, so scripted
// silences, bursts and directional partitions become REAL socket-level
// drops; refuse windows (set_refuse) tear the connection down and bounce
// the peer's handshake while open — a partition is a dead wire, not a
// polite flag.
//
// Threading: `on_frame`, `on_peer` and the shim run only on the reactor's
// own thread, which holds `io_mu_` (the lock over every stream) for each
// loop iteration but never across epoll_wait.  Public methods are
// thread-safe.  set_endpoint/set_refuse and most sends are commands handed
// over through an eventfd-woken queue.  A send from another thread writes
// the frame itself, on the caller's thread, when the stream is idle: it
// wins io_mu_ with try_lock (a caller may hold a lock that a callback
// takes, so it never waits), the peer is established with nothing left in
// its write buffer, no command of any kind is queued (so a frame never
// overtakes an earlier command from the same thread), and no shim applies
// to it.  Such a send never closes a stream: a short write leaves the rest
// for the reactor thread to flush, and a write error is left for it to
// find, so callbacks still fire only on the reactor thread.  Callbacks
// must not call back into the reactor except through the public methods;
// their sends always take the queue.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "udc/common/rng.h"
#include "udc/common/types.h"
#include "udc/net/backoff.h"
#include "udc/net/io.h"
#include "udc/net/wire.h"

namespace udc {

struct ReactorOptions {
  ProcessId self = kInvalidProcess;  // our id in handshakes
  std::int32_t n = 0;                // fleet size (0 = accept any)
  std::uint64_t epoch = 0;
  std::uint64_t run_id = 0;
  std::uint16_t advertised_port = 0;  // our data port, sent in hellos
  std::uint64_t seed = 1;             // reconnect jitter stream
  // Reconnect schedule, in milliseconds.
  BackoffOptions reconnect{/*base=*/20, /*growth=*/1.7, /*cap=*/500,
                           /*jitter=*/0.4};
  std::chrono::milliseconds keepalive{150};   // ping after this much silence
  int keepalive_misses = 4;                   // unanswered pings => peer down
                                              // (0 disables miss detection)
  std::chrono::milliseconds dead_after{1500}; // hard-silence backstop
  std::size_t max_outbuf_bytes = 4u << 20;    // per-conn write backlog cap
  // Accept handshakes from service clients (ids >= kClientPeerBase) in
  // addition to fleet peers in [0, n) and the supervisor.
  bool accept_clients = false;
};

struct WireCounters {
  std::uint64_t dials = 0;             // connect() attempts
  std::uint64_t connects = 0;          // streams that reached kEstablished
  std::uint64_t reconnects = 0;        // established again after a loss
  std::uint64_t accepts = 0;           // inbound accept(2)s
  std::uint64_t handshake_rejects = 0; // hellos bounced (mismatch/refused)
  std::uint64_t frames_tx = 0;
  std::uint64_t frames_tx_inline = 0;  // of frames_tx: written by the caller
  std::uint64_t frames_rx = 0;
  std::uint64_t bytes_tx = 0;
  std::uint64_t bytes_rx = 0;
  std::uint64_t crc_drops = 0;         // codec-level drops (chaos corruption)
  std::uint64_t resyncs = 0;
  std::uint64_t keepalive_probes = 0;
  std::uint64_t dead_closes = 0;       // keepalive-silence teardowns
  std::uint64_t shim_drops = 0;        // kData frames eaten by the chaos shim
  std::uint64_t send_unroutable = 0;   // sends with no established stream
  std::uint64_t partitions_enforced = 0;  // refuse-window teardowns/bounces
};

class Reactor {
 public:
  // `on_frame` receives every decoded frame from an ESTABLISHED peer, with
  // the peer's id and epoch from its handshake.  `on_peer` fires on every
  // established/lost transition.  Both run on the reactor thread.
  using FrameFn = std::function<void(ProcessId peer, std::uint64_t epoch,
                                     const WireFrame& frame)>;
  // `data_port` is the port the peer advertised in its hello (its data
  // listen port; 0 for pure dialers) — how the supervisor learns where a
  // freshly (re)started node can be reached.
  using PeerFn = std::function<void(ProcessId peer, std::uint64_t epoch,
                                    bool up, std::uint16_t data_port)>;
  // Chaos shim: return false to drop this outbound kData frame at the wire.
  using ShimFn = std::function<bool(ProcessId peer, const WireFrame& frame)>;

  Reactor(ReactorOptions opts, FrameFn on_frame, PeerFn on_peer);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  // Binds 127.0.0.1:<port> (0 = ephemeral), starts listening, and returns
  // the actual port.  Must be called before start().  Throws
  // InvariantViolation if the port cannot be bound.
  std::uint16_t listen(std::uint16_t port);

  // Starts the reactor thread.  listen() is optional (a pure dialer, e.g.
  // a node talking only to the supervisor, never listens).
  void start();

  // Installs the chaos shim (called on the reactor thread).  Install
  // before start(); the shim must outlive the reactor.
  void set_shim(ShimFn shim) { shim_ = std::move(shim); }

  // We become the dialer for `peer` at 127.0.0.1:<port>.  Re-setting with a
  // new port closes any current stream and redials (the peer restarted on
  // a fresh ephemeral port).  Thread-safe.
  void set_endpoint(ProcessId peer, std::uint16_t port);

  // Opens/closes a partition-refusal window against `peer`: on open, the
  // current stream (if any) is torn down, inbound hellos from the peer are
  // rejected, and outbound dials are suppressed.  Thread-safe.
  void set_refuse(ProcessId peer, bool refuse);

  // Sends one frame to `peer`: written on the calling thread when the
  // stream is idle (see Threading), queued for the reactor thread
  // otherwise.  Returns false (and counts) if the peer has no established
  // stream — the caller's ARQ treats that exactly like wire loss, as it
  // does a frame dropped later for a full write backlog.  Thread-safe.
  bool send(ProcessId peer, FrameType type,
            std::vector<std::uint8_t> payload);

  bool peer_established(ProcessId peer) const;

  WireCounters counters() const;

  // Stops the reactor thread and closes every socket.
  void stop();

 private:
  enum class ConnState { kConnecting, kHandshaking, kEstablished };

  struct Conn {
    int fd = -1;
    std::uint32_t gen = 0;  // stamps epoll events; stale fd reuse is ignored
    ConnState state = ConnState::kConnecting;
    bool dialed = false;               // we initiated this stream
    ProcessId peer = kInvalidProcess;  // known immediately when dialed
    std::uint64_t peer_epoch = 0;
    std::uint16_t peer_data_port = 0;  // from the peer's hello
    FrameDecoder decoder;
    std::uint64_t crc_seen = 0;     // decoder counter snapshots, for
    std::uint64_t resync_seen = 0;  // delta-folding into WireCounters
    std::vector<std::uint8_t> outbuf;
    std::size_t out_pos = 0;
    bool write_armed = false;  // EPOLLOUT in this fd's epoll interest
    std::chrono::steady_clock::time_point last_rx;
    int pings_unanswered = 0;  // consecutive probes with no bytes back
  };

  struct Peer {
    std::uint16_t port = 0;  // nonzero: we dial this peer
    int fd = -1;             // established stream, if any
    bool refused = false;
    bool was_established = false;  // a later establish is a reconnect
    int attempt = 0;
    std::chrono::steady_clock::time_point next_dial;
  };

  struct Command {
    enum class Kind { kSend, kEndpoint, kRefuse, kStop } kind = Kind::kStop;
    ProcessId peer = kInvalidProcess;
    FrameType type = FrameType::kPing;
    std::vector<std::uint8_t> payload;
    std::uint16_t port = 0;
    bool refuse = false;
  };

  void loop();
  void run_commands();
  bool send_inline(ProcessId peer, FrameType type,
                   const std::vector<std::uint8_t>& payload);
  Conn* established_conn(ProcessId peer);
  void do_send(ProcessId peer, FrameType type,
               const std::vector<std::uint8_t>& payload);
  void dial(ProcessId peer);
  void accept_ready();
  void conn_readable(int fd);
  void conn_writable(int fd);
  void handle_frame(int fd, const WireFrame& f);
  void establish(int fd, ProcessId peer, std::uint64_t epoch,
                 std::uint16_t data_port);
  void close_conn(int fd, bool notify);
  // Appends one frame to c's write buffer; false (counted as unroutable)
  // when the backlog cap drops it.
  bool queue_frame(Conn& c, FrameType type, const std::uint8_t* payload,
                   std::size_t len);
  IoStatus write_out(Conn& c);
  void flush_conn(int fd);
  void timers(std::chrono::steady_clock::time_point now);
  void arm(Conn& c, bool want_write);

  ReactorOptions opts_;
  FrameFn on_frame_;
  PeerFn on_peer_;
  ShimFn shim_;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  int listen_fd_ = -1;
  Rng rng_;

  // Held by the reactor thread for each loop iteration, and by a caller
  // writing an idle stream itself (try_lock only).  Lock order: io_mu_,
  // then cmd_mu_ or state_mu_.
  std::mutex io_mu_;
  std::map<int, Conn> conns_;
  std::map<ProcessId, Peer> peers_;
  std::uint32_t conn_gen_ = 0;  // next connection generation stamp

  mutable std::mutex cmd_mu_;
  std::deque<Command> commands_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> started_{false};
  std::thread thread_;

  // Established-peer map mirrored for the thread-safe peer_established();
  // counters likewise accumulate under cmd_mu_-independent lock.
  mutable std::mutex state_mu_;
  std::map<ProcessId, bool> established_;
  WireCounters counters_;
};

}  // namespace udc
