#include "udc/svc/node.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "udc/net/reactor.h"
#include "udc/net/wire.h"
#include "udc/rt/mailbox.h"
#include "udc/svc/core.h"
#include "udc/svc/svclog.h"
#include "udc/svc/wire.h"

namespace udc {

namespace {

// Worker input: one raw wire frame with its sender, a replica peer's
// stream coming up, or the stop order.
struct SvcMail {
  bool stop = false;
  bool peer_up = false;  // `peer` just established; `frame` is empty
  ProcessId peer = kInvalidProcess;
  WireFrame frame{};
};

// The core's effects on the node: frames on the reactor, events on the
// shell's recorder and WAL store, batches on the service log.
class NodeSvcIo final : public SvcIo {
 public:
  NodeSvcIo(NodeShell& shell, SvcDurableLog& slog)
      : shell_(shell), slog_(slog) {}

  void send(ProcessId to, FrameType type,
            std::vector<std::uint8_t> payload) override {
    shell_.reactor().send(to, type, std::move(payload));
  }
  std::size_t record(const Event& e) override {
    shell_.record(e);
    return shell_.records();
  }
  std::size_t durable_floor() override {
    return shell_.store().durable_floor();
  }
  void flush() override { shell_.store().flush(); }
  void kick() override { shell_.store().kick_committer(); }
  void log_write(const SvcBatch& b) override { slog_.write(b); }
  void log_sync() override { slog_.sync(); }
  void log_append(const SvcBatch& b) override { slog_.append(b); }

 private:
  NodeShell& shell_;
  SvcDurableLog& slog_;
};

}  // namespace

int run_svc_node(const SvcNodeOptions& opts) {
  NodeShell shell(opts, 0x73766377ull, /*accept_clients=*/true);  // "svcw"
  ProcessStore& store = shell.store();
  Reactor& reactor = shell.reactor();

  // Recovery: the service log is cut to its valid prefix before it is
  // reopened for append, and the core rebuilds the replica from it and
  // from the WAL's recovered prefix.
  const std::string slog_path = svc_log_path(opts.dir, opts.id);
  std::vector<SvcBatch> records = SvcDurableLog::recover(slog_path);
  SvcDurableLog slog(slog_path);
  NodeSvcIo io(shell, slog);
  SvcCore core(opts.id, opts.n, shell.clock(), io);
  core.recover(shell.take_recovered(), std::move(records));

  BasicMailbox<SvcMail> mail;
  const NodeShell::Started started = shell.start({
      .frame =
          [&](ProcessId peer, std::uint64_t /*epoch*/, const WireFrame& f) {
            if (peer != kSupervisorPeer) mail.push({.peer = peer, .frame = f});
          },
      .peer_up =
          [&](ProcessId peer) { mail.push({.peer_up = true, .peer = peer}); },
      .stop = [&] { mail.push({.stop = true}); },
      .status =
          [&](bool done) {
            SvcNodeStatus s = core.status(done);
            s.epoch = opts.epoch;
            s.durable_events = std::min(store.durable_floor(), shell.records());
            const RuntimeCounters rc = node_status_counters(
                core.counters(), core.detector(), reactor, store);
            s.counters = pack_node_counters(rc);
            const auto svcv = pack_svc_counters(rc);
            s.counters.insert(s.counters.end(), svcv.begin(), svcv.end());
            reactor.send(kSupervisorPeer, FrameType::kSvcStatus,
                         encode_svc_status(s));
          },
  });

  bool stopping = false;
  while (!stopping) {
    auto m = mail.pop_for(kNodePoll);
    const auto wall = std::chrono::steady_clock::now();
    if (m && m->stop) {
      stopping = true;
    } else if (m && m->peer_up) {
      core.on_peer_up(m->peer);
    } else if (m) {
      core.on_frame(m->peer, m->frame, wall);
    }
    const Time now = core.pass(/*idle=*/!m, wall);
    if (!shell.end_pass(now, wall)) stopping = true;
  }
  return shell.finish();
}

}  // namespace udc
