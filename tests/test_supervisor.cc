// FleetSupervisor (rt/remote/supervisor.h) driven with tiny /bin/sh
// scripts as the node binary: the exit accounting of kill, relaunch,
// reaping and the kStop shutdown, and the trailing kCrash of the lift.
// The scripts never dial the control reactor, so every kStop goes unheard.
#include <gtest/gtest.h>

#include <sys/stat.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>

#include "udc/coord/action.h"
#include "udc/event/event.h"
#include "udc/net/wire.h"
#include "udc/rt/remote/supervisor.h"
#include "udc/store/process_store.h"

namespace udc {
namespace {

namespace fs = std::filesystem;
using Supervisor = FleetSupervisor<WireStatus>;

fs::path fresh_dir(const std::string& name) {
  fs::path d = fs::temp_directory_path() / ("udc_sup_" + name);
  fs::remove_all(d);
  fs::create_directories(d);
  return d;
}

// An executable shell script; the supervisor's flags (--id=.. --epoch=..)
// arrive as its arguments.
std::string node_script(const fs::path& dir, const std::string& body) {
  const fs::path p = dir / "node.sh";
  std::ofstream(p) << "#!/bin/sh\n" << body << "\n";
  ::chmod(p.c_str(), 0755);
  return p.string();
}

std::unique_ptr<Supervisor> start(int n, const fs::path& dir,
                                  const std::string& body) {
  return std::make_unique<Supervisor>(
      n, dir.string(), node_script(dir, body), std::vector<std::string>{},
      /*seed=*/1, FrameType::kStatus, decode_status,
      [](const WireStatus& s) { return unpack_node_counters(s.counters); });
}

constexpr const char* kSleeps = "exec sleep 30";

TEST(FleetSupervisor, ExitZeroIsClean) {
  const fs::path dir = fresh_dir("exit0");
  auto sup = start(2, dir, "exit 0");
  EXPECT_TRUE(sup->finish().clean_exits);
  fs::remove_all(dir);
}

TEST(FleetSupervisor, ExitThreeIsUnclean) {
  const fs::path dir = fresh_dir("exit3");
  auto sup = start(1, dir, "exit 3");
  EXPECT_FALSE(sup->finish().clean_exits);
  fs::remove_all(dir);
}

TEST(FleetSupervisor, ASigkillTheSupervisorSentIsExcused) {
  const fs::path dir = fresh_dir("killed");
  auto sup = start(1, dir, kSleeps);
  sup->kill(0, /*relaunch=*/false);
  EXPECT_TRUE(sup->child(0).dead_for_good);
  const FleetOutcome out = sup->finish();
  EXPECT_TRUE(out.clean_exits);
  EXPECT_EQ(out.counters.crashes, 1u);
  fs::remove_all(dir);
}

// A chaos SIGKILL of epoch 0 must not excuse epoch 1 dying on its own.
TEST(FleetSupervisor, ARelaunchedIncarnationThatExitsOneIsUnclean) {
  const fs::path dir = fresh_dir("relaunch");
  auto sup = start(1, dir,
                   "case \" $* \" in *\" --epoch=0 \"*) exec sleep 30 ;; "
                   "*) exit 1 ;; esac");
  sup->kill(0, /*relaunch=*/true);
  EXPECT_FALSE(sup->child(0).dead_for_good);
  sup->relaunch(0);
  EXPECT_EQ(sup->child(0).epoch, 1u);
  EXPECT_FALSE(sup->child(0).killed_by_us);
  const FleetOutcome out = sup->finish();
  EXPECT_FALSE(out.clean_exits);
  EXPECT_EQ(out.counters.crashes, 1u);
  EXPECT_EQ(out.counters.restarts, 1u);
  fs::remove_all(dir);
}

TEST(FleetSupervisor, ANodeThatIgnoresKStopIsKilledAfterTheGraceAndUnclean) {
  const fs::path dir = fresh_dir("straggler");
  auto sup = start(1, dir, kSleeps);
  const auto t0 = std::chrono::steady_clock::now();
  const FleetOutcome out = sup->finish();
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(out.clean_exits);
  EXPECT_FALSE(sup->child(0).running);
  EXPECT_GE(waited, std::chrono::milliseconds(4'900));
  fs::remove_all(dir);
}

TEST(FleetSupervisor, ANodeThatDiesOnItsOwnIsDeadForGood) {
  const fs::path dir = fresh_dir("died");
  auto sup = start(1, dir, "exit 3");
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (sup->child(0).running &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    sup->reap_exited();
  }
  EXPECT_TRUE(sup->child(0).dead_for_good);
  const FleetOutcome out = sup->finish();
  EXPECT_FALSE(out.clean_exits);
  EXPECT_EQ(out.counters.crashes, 0u);  // not a chaos crash...
  const History& h = out.run->history(0);
  ASSERT_EQ(h.size(), 1u);  // ...but crashed in the lifted run
  EXPECT_EQ(h[0].kind, EventKind::kCrash);
  fs::remove_all(dir);
}

// Node 0 is killed for good, node 1 is killed awaiting a relaunch that
// never comes, node 2 exits cleanly: only node 0's history ends in kCrash.
TEST(FleetSupervisor, TheLiftAppendsACrashOnlyForNodesDeadForGood) {
  const fs::path dir = fresh_dir("lift");
  std::size_t written = 0;
  for (ProcessId p = 0; p < 3; ++p) {
    ProcessStore shard(dir.string(), p, mp_store_options(), {});
    const ActionId a = make_action(p, 0);
    shard.append(10 * (p + 1), Event::init(a));
    shard.append(10 * (p + 1) + 1, Event::do_action(a));
    shard.flush();
    written += 2;
  }
  auto sup = start(3, dir,
                   "case \" $* \" in *\" --id=2 \"*) exit 0 ;; "
                   "*) exec sleep 30 ;; esac");
  sup->kill(0, /*relaunch=*/false);
  sup->kill(1, /*relaunch=*/true);
  const FleetOutcome out = sup->finish();
  EXPECT_TRUE(out.clean_exits);
  ASSERT_TRUE(out.run.has_value());
  const udc::Run& run = *out.run;
  ASSERT_EQ(run.history(0).size(), 3u);
  EXPECT_EQ(run.history(0)[2].kind, EventKind::kCrash);
  EXPECT_TRUE(run.is_faulty(0));
  for (ProcessId p : {1, 2}) {
    ASSERT_EQ(run.history(p).size(), 2u) << "p" << p;
    EXPECT_EQ(run.history(p)[1].kind, EventKind::kDo) << "p" << p;
    EXPECT_FALSE(run.is_faulty(p)) << "p" << p;
  }
  EXPECT_EQ(out.counters.events_recorded, written + 1);
  EXPECT_EQ(out.counters.crashes, 2u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace udc
