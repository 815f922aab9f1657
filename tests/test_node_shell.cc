// NodeShell (rt/remote/node.h): the OS-process half both node binaries run
// on.  Each test runs run_node or run_svc_node on a thread against a fake
// supervisor — a bare control Reactor on loopback — and checks the exits
// the fleets rely on: kStop ends the node with 0 after a final done
// status; a supervisor that vanishes after connecting orphans the node
// (exit 3) once kOrphanAfter has passed; and a supervisor that first shows
// up after kOrphanAfter still gets a clean stop, because the orphan clock
// starts at the first connect.  A relaunched shell hands over exactly the
// WAL's durable prefix, once.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "udc/coord/action.h"
#include "udc/event/event.h"
#include "udc/net/reactor.h"
#include "udc/net/wire.h"
#include "udc/rt/remote/node.h"
#include "udc/rt/remote/supervisor.h"
#include "udc/store/wal.h"
#include "udc/svc/node.h"
#include "udc/svc/wire.h"

namespace udc {
namespace {

namespace fs = std::filesystem;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

constexpr std::uint64_t kRunId = 0x6e6f6465ull;  // "node"

// One node binary: how to run it and how to read its status frames.
struct NodeKind {
  FrameType status_frame;
  std::function<int(const NodeIdentity&)> run;
  // The `done` flag of a status payload; nullopt if it does not decode.
  std::function<std::optional<bool>(const std::vector<std::uint8_t>&)> done;
};

NodeKind rt_node() {
  return {FrameType::kStatus,
          [](const NodeIdentity& id) {
            NodeOptions o;
            static_cast<NodeIdentity&>(o) = id;
            return run_node(o);
          },
          [](const std::vector<std::uint8_t>& p) -> std::optional<bool> {
            auto s = decode_status(p.data(), p.size());
            if (!s) return std::nullopt;
            return s->done;
          }};
}

NodeKind svc_node() {
  return {FrameType::kSvcStatus,
          [](const NodeIdentity& id) { return run_svc_node(id); },
          [](const std::vector<std::uint8_t>& p) -> std::optional<bool> {
            auto s = decode_svc_status(p.data(), p.size());
            if (!s) return std::nullopt;
            return s->done;
          }};
}

// A control reactor that only counts status frames and remembers the last
// one's `done`.  It listens from construction (so the node has a port to
// dial) but answers nothing until start().
class FakeSupervisor {
 public:
  explicit FakeSupervisor(const NodeKind& kind)
      : kind_(kind),
        reactor_(supervisor_reactor_options(1, kRunId, /*seed=*/1),
                 [this](ProcessId, std::uint64_t, const WireFrame& f) {
                   if (f.type != kind_.status_frame) return;
                   std::lock_guard<std::mutex> lk(mu_);
                   ++statuses_;
                   last_done_ = kind_.done(f.payload);
                 },
                 [](ProcessId, std::uint64_t, bool, std::uint16_t) {}) {
    port_ = reactor_.listen(0);
  }

  void start() { reactor_.start(); }
  std::uint16_t port() const { return port_; }
  void stop_node() { reactor_.send(0, FrameType::kStop, {}); }

  // Polls until `pred` holds over (status count, last done), or `limit`.
  bool wait(const std::function<bool(int, std::optional<bool>)>& pred,
            milliseconds limit) {
    const auto until = steady_clock::now() + limit;
    while (steady_clock::now() < until) {
      {
        std::lock_guard<std::mutex> lk(mu_);
        if (pred(statuses_, last_done_)) return true;
      }
      std::this_thread::sleep_for(milliseconds(5));
    }
    return false;
  }
  bool wait_connected() {
    return wait([](int n, std::optional<bool>) { return n > 0; },
                milliseconds(10'000));
  }
  bool wait_done() {
    return wait([](int, std::optional<bool> d) { return d == true; },
                milliseconds(5'000));
  }

 private:
  const NodeKind kind_;
  std::mutex mu_;
  int statuses_ = 0;
  std::optional<bool> last_done_;
  std::uint16_t port_ = 0;
  Reactor reactor_;  // last: its thread calls into the members above
};

// A single-node fleet's node 0 on its own thread, in a fresh directory.
class NodeRun {
 public:
  NodeRun(const NodeKind& kind, std::uint16_t supervisor_port)
      : dir_(fs::temp_directory_path() /
             (std::string("udc_shell_") + ::testing::UnitTest::GetInstance()
                                              ->current_test_info()
                                              ->name())) {
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    NodeIdentity id;
    id.id = 0;
    id.n = 1;
    id.run_id = kRunId;
    id.supervisor_port = supervisor_port;
    id.dir = dir_.string();
    exit_ = std::async(std::launch::async, kind.run, id);
  }
  // A node that never exits cannot be joined: fail the binary rather than
  // hang it.
  ~NodeRun() {
    if (exit_.valid() &&
        exit_.wait_for(milliseconds(20'000)) != std::future_status::ready) {
      std::fprintf(stderr, "node thread still running; aborting\n");
      std::_Exit(1);
    }
    fs::remove_all(dir_);
  }

  bool running_after(milliseconds d) {
    return exit_.wait_for(d) == std::future_status::timeout;
  }
  // The exit code, or -1 if the node is still running after `limit`.
  int exit_code(milliseconds limit) {
    if (exit_.wait_for(limit) != std::future_status::ready) return -1;
    return exit_.get();
  }

 private:
  fs::path dir_;
  std::future<int> exit_;
};

void stops_on_kstop_with_a_done_status(const NodeKind& kind) {
  FakeSupervisor sup(kind);
  sup.start();
  NodeRun node(kind, sup.port());
  ASSERT_TRUE(sup.wait_connected());
  sup.stop_node();
  EXPECT_EQ(node.exit_code(milliseconds(10'000)), 0);
  EXPECT_TRUE(sup.wait_done());
}

void is_orphaned_when_the_supervisor_goes_away(const NodeKind& kind) {
  auto sup = std::make_unique<FakeSupervisor>(kind);
  sup->start();
  NodeRun node(kind, sup->port());
  ASSERT_TRUE(sup->wait_connected());
  const auto gone = steady_clock::now();
  sup.reset();  // the stream dies with the supervisor's reactor
  EXPECT_EQ(node.exit_code(milliseconds(10'000)), 3);
  EXPECT_GE(steady_clock::now() - gone, kOrphanAfter);
}

void waits_for_a_late_supervisor(const NodeKind& kind) {
  FakeSupervisor sup(kind);  // listening, but no handshake is answered
  NodeRun node(kind, sup.port());
  EXPECT_TRUE(node.running_after(kOrphanAfter + milliseconds(500)));
  sup.start();
  ASSERT_TRUE(sup.wait_connected());
  sup.stop_node();
  EXPECT_EQ(node.exit_code(milliseconds(10'000)), 0);
  EXPECT_TRUE(sup.wait_done());
}

// Epoch 0 records six events and exits, leaving them all durable; then a
// byte of the fifth frame flips, so the chain's valid prefix is four.  The
// epoch-1 shell hands those four over, once, and counts from four.  No
// reactor is started: the shell dials nothing until start().
TEST(NodeShell, ARelaunchHandsOverTheDurablePrefixOnce) {
  const fs::path dir = fs::temp_directory_path() / "udc_shell_prefix";
  fs::remove_all(dir);
  fs::create_directories(dir);
  NodeIdentity id;
  id.id = 0;
  id.n = 1;
  id.supervisor_port = 1;
  id.dir = dir.string();
  std::vector<Event> recorded;
  {
    NodeShell shell(id, /*wire_salt=*/0, /*accept_clients=*/false);
    EXPECT_TRUE(shell.take_recovered().empty());
    EXPECT_EQ(shell.records(), 0u);
    for (ActionId a = 0; a < 3; ++a) {
      recorded.push_back(Event::init(make_action(0, a)));
      recorded.push_back(Event::do_action(make_action(0, a)));
    }
    for (const Event& e : recorded) shell.record(e);
    EXPECT_EQ(shell.records(), recorded.size());
  }  // the store's destructor commits what is staged

  // Flip a payload byte of frame 5: [u32 len][u32 crc][payload] frames.
  const std::string base = (dir / "p0.wal").string();
  const auto segs = list_wal_segments(base);
  ASSERT_EQ(segs.size(), 1u);
  {
    std::fstream f(segs[0].second,
                   std::ios::in | std::ios::out | std::ios::binary);
    std::streamoff at = 0;
    for (int frame = 0; frame < 4; ++frame) {
      unsigned char len[4];
      f.seekg(at);
      f.read(reinterpret_cast<char*>(len), 4);
      at += 8 + (len[0] | len[1] << 8 | len[2] << 16 | len[3] << 24);
    }
    f.seekg(at + 8);
    const char byte = static_cast<char>(f.get() ^ 0x5a);
    f.seekp(at + 8);
    f.put(byte);
  }

  id.epoch = 1;
  NodeShell shell(id, /*wire_salt=*/0, /*accept_clients=*/false);
  EXPECT_EQ(shell.records(), 4u);
  EXPECT_EQ(shell.store().durable_floor(), 4u);
  const std::vector<Event> prefix = shell.take_recovered();
  EXPECT_EQ(prefix,
            std::vector<Event>(recorded.begin(), recorded.begin() + 4));
  EXPECT_TRUE(shell.take_recovered().empty());  // handed over once
  shell.record(Event::init(make_action(0, 9)));
  EXPECT_EQ(shell.records(), 5u);
  fs::remove_all(dir);
}

TEST(NodeShell, RtNodeStopsOnKStopWithADoneStatus) {
  stops_on_kstop_with_a_done_status(rt_node());
}

TEST(NodeShell, SvcNodeStopsOnKStopWithADoneStatus) {
  stops_on_kstop_with_a_done_status(svc_node());
}

TEST(NodeShell, RtNodeIsOrphanedWhenTheSupervisorGoesAway) {
  is_orphaned_when_the_supervisor_goes_away(rt_node());
}

TEST(NodeShell, SvcNodeIsOrphanedWhenTheSupervisorGoesAway) {
  is_orphaned_when_the_supervisor_goes_away(svc_node());
}

TEST(NodeShell, RtNodeWaitsForASupervisorThatAppearsLate) {
  waits_for_a_late_supervisor(rt_node());
}

TEST(NodeShell, SvcNodeWaitsForASupervisorThatAppearsLate) {
  waits_for_a_late_supervisor(svc_node());
}

}  // namespace
}  // namespace udc
