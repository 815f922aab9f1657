// udcbench — the end-to-end and per-layer benchmark of the replicated
// register service (README.md).
//
//   udcbench --seed=1 --out=run.json                  all four workloads
//   udcbench --seed=1 --workload=failover             one workload
//   udcbench --seed=1 --trace=spans.jsonl             + a traced repeat
//
// Each workload runs n=3 unchanged udc_svc_node replicas on loopback (no
// injected delay) with default options, driven by one SvcClient that
// multiplexes 64 sessions over its 3 connections.  Phases: cold starts
// (setup_s is their median), a discarded warm-up on the last fleet, the
// measured window, a drain, a settle, a stop, and the verdict from the
// replicas' disks.  A failed check makes the run non-conformant: its
// metrics still print, and the exit code is 1.
//
// --result-line=e2e|layer runs one workload and prints, as the last stdout
// line, the result object bench/udcbench/run.py reports.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "account.h"
#include "fleet.h"
#include "trace.h"
#include "udc/common/guarded_main.h"
#include "udc/consensus/spec.h"
#include "udc/coord/spec.h"
#include "udc/rt/remote/node.h"
#include "udc/store/process_store.h"
#include "udc/svc/client.h"
#include "udc/svc/svclog.h"
#include "verify.h"

namespace {

using namespace udcbench;
namespace fs = std::filesystem;
using udc::ProcessId;

constexpr int kReplicas = 3;
constexpr std::uint64_t kSetupSession = kSessions + 1;
constexpr auto kWaitLimit = std::chrono::seconds(10);
constexpr auto kDrainLimit = std::chrono::seconds(15);
constexpr auto kSettleLimit = std::chrono::seconds(10);
// Counter snapshots open the window and close each third of it.
constexpr std::int64_t kThirds = 3;

enum class ResultLine { kNone, kEndToEnd, kLayer };

struct Options {
  std::uint64_t seed = 1;
  std::vector<std::string> workloads;  // empty: all
  std::string out;
  std::string trace;
  std::string dir;
  std::string node;  // udc_svc_node, built beside udcbench
  double window_s = 10;
  double warmup_s = 3;
  int cold_starts = 5;
  ResultLine result_line = ResultLine::kNone;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  std::string workload;
  bool conformant = true;
  std::vector<std::string> problems;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;

  double e2e_value(const std::string& name) const {
    for (const Metric& m : e2e) {
      if (m.name == name) return m.value;
    }
    return 0;
  }
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return quantile(v, 0.5);
}

double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// One counter snapshot: status counters, the client's retry counts and
// each replica's /proc reading, all at `t` (ns from the workload start).
struct Snapshot {
  std::int64_t t = 0;
  FleetCounters fc;
  udc::SvcClientStats cs;
  std::vector<ProcSample> proc;
  ProcessId leader = udc::kInvalidProcess;
  std::vector<udc::SvcNodeStatus> statuses;
};

// Runs `f`, records it as span `name` under `parent`, returns its ms.
template <typename F>
double timed(Tracer& tr, std::string name, std::int64_t parent, F&& f) {
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.start_ns = Tracer::now_ns();
  f();
  s.end_ns = Tracer::now_ns();
  tr.add(s);
  return (s.end_ns - s.start_ns) / 1e6;
}

class WorkloadRun {
 public:
  WorkloadRun(const Workload& w, const Options& o, Tracer& tr)
      : w_(w), o_(o), tr_(tr), dir_(o.dir + "/" + w.name) {}

  Result run();

 private:
  void cold_start(int k);
  void load();
  void issue(const Arrival& a, std::int64_t due);
  void on_done(const udc::SvcClientRecord& r, double client_ms);
  Snapshot snapshot(std::string at);
  std::int64_t now() const { return Tracer::now_ns() - base_; }
  // Ticks the fleet every millisecond until `pred` holds or `limit` passes.
  bool wait_until(std::chrono::milliseconds limit,
                  const std::function<bool()>& pred);
  void trace_ops();
  Result measure();

  const Workload& w_;
  const Options& o_;
  Tracer& tr_;
  const std::string dir_;
  const std::int64_t base_ = Tracer::now_ns();
  std::int64_t root_ = -1;

  std::unique_ptr<Fleet> fleet_;
  std::unique_ptr<udc::SvcClient> client_;

  // Shared with the client's completion thread.
  std::mutex mu_;
  Ledger ledger_;
  std::vector<udc::SvcClientRecord> confirmed_;
  bool closed_running_ = false;
  std::vector<std::uint64_t> closed_k_ =
      std::vector<std::uint64_t>(kSessions + 1, 0);

  std::vector<double> setup_s_, to_leader_ms_, to_commit_ms_;
  std::int64_t load_start_ = 0, win0_ = 0, win1_ = 0;
  std::int64_t warmup_span_ = -1, window_span_ = -1;
  std::int64_t kill_t_ = -1;
  std::vector<Snapshot> snaps_;
  double settle_ms_ = 0, stop_ms_ = 0, recover_ms_ = 0, svclog_ms_ = 0;
  double lift_ms_ = 0, nudc_ms_ = 0, sessions_ms_ = 0, agreement_ms_ = 0;
  std::size_t events_ = 0;
  bool settled_ = false, clean_ = false;
  std::vector<std::string> violations_;
};

bool WorkloadRun::wait_until(std::chrono::milliseconds limit,
                             const std::function<bool()>& pred) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    fleet_->tick(client_.get());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

void WorkloadRun::issue(const Arrival& a, std::int64_t due) {
  std::size_t op = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    op = ledger_.add(a.session, due);
  }
  if (a.read) {
    client_->read(a.session, a.reg);
  } else {
    client_->write(a.session, a.reg, a.value);
  }
  const std::int64_t t = now();
  std::lock_guard<std::mutex> lk(mu_);
  ledger_.issued(op, t);
}

// On the client's reactor thread.  A closed-loop session issues its next
// op from here, so its think time is zero.
void WorkloadRun::on_done(const udc::SvcClientRecord& r, double client_ms) {
  const std::int64_t t = now();
  std::optional<Arrival> next;
  {
    std::lock_guard<std::mutex> lk(mu_);
    confirmed_.push_back(r);
    ledger_.complete(r.session, r.seq, t, client_ms);
    if (closed_running_ && r.session <= static_cast<std::uint64_t>(kSessions)) {
      next = closed_op(o_.seed, r.session, closed_k_[r.session]++);
    }
  }
  if (next) issue(*next, now());
}

void WorkloadRun::cold_start(int k) {
  // A fresh fleet, client and ledger: the previous fleet's ops are not
  // this fleet's history.
  client_.reset();
  fleet_.reset();
  {
    std::lock_guard<std::mutex> lk(mu_);
    ledger_ = Ledger();
    confirmed_.clear();
  }
  const std::string fdir = dir_ + "/fleet-" + std::to_string(k);
  fs::create_directories(fdir);
  const std::uint64_t run_id = (static_cast<std::uint64_t>(::getpid()) << 32) ^
                               (o_.seed << 8) ^ static_cast<std::uint64_t>(k);
  fleet_ = std::make_unique<Fleet>(o_.node, fdir, kReplicas, o_.seed, run_id);
  udc::SvcClientOptions co;
  co.run_id = run_id;
  co.n = kReplicas;
  co.seed = o_.seed + 0x11;
  client_ = std::make_unique<udc::SvcClient>(
      co, [this](const udc::SvcClientRecord& r, double ms) { on_done(r, ms); });

  const std::int64_t t0 = Tracer::now_ns();
  timed(tr_, "fleet.spawn", root_, [&] {
    fleet_->spawn();
    if (!wait_until(kWaitLimit, [&] { return fleet_->all_up(); })) {
      throw std::runtime_error("replicas did not all connect");
    }
  });
  timed(tr_, "fleet.elect", root_, [&] {
    if (!wait_until(kWaitLimit, [&] {
          return fleet_->leader() != udc::kInvalidProcess;
        })) {
      throw std::runtime_error("no majority leader");
    }
  });
  const double commit_ms = timed(tr_, "fleet.first_commit", root_, [&] {
    Arrival a;
    a.session = kSetupSession;
    a.value = 1;
    issue(a, now());
    if (!wait_until(kWaitLimit, [&] {
          std::lock_guard<std::mutex> lk(mu_);
          return ledger_.open() == 0;
        })) {
      throw std::runtime_error("first write did not commit");
    }
  });
  const double total_s = (Tracer::now_ns() - t0) / 1e9;
  setup_s_.push_back(total_s);
  to_leader_ms_.push_back(total_s * 1e3 - commit_ms);
  to_commit_ms_.push_back(commit_ms);

  if (k + 1 < o_.cold_starts) {
    timed(tr_, "fleet.stop", root_, [&] {
      client_->stop();
      if (!fleet_->stop()) throw std::runtime_error("cold-start fleet stop");
    });
    fs::remove_all(fdir);
  }
}

Snapshot WorkloadRun::snapshot(std::string at) {
  Snapshot s;
  s.t = now();
  s.fc = fleet_->counters();
  s.cs = client_->stats();
  for (ProcessId p = 0; p < kReplicas; ++p) s.proc.push_back(fleet_->sample(p));
  s.leader = fleet_->leader();
  s.statuses = fleet_->statuses();
  if (tr_.on()) {
    const udc::RuntimeCounters& c = s.fc.rc;
    tr_.counter({at, base_ + s.t,
                 {{"svc_requests", static_cast<double>(c.svc_requests)},
                  {"svc_admitted", static_cast<double>(c.svc_admitted)},
                  {"svc_batches_sealed", static_cast<double>(c.svc_batches_sealed)},
                  {"svc_lease_reads", static_cast<double>(c.svc_lease_reads)},
                  {"wal_group_commits", static_cast<double>(c.wal_group_commits)},
                  {"frames_tx", static_cast<double>(c.frames_tx)},
                  {"heartbeats", static_cast<double>(c.heartbeats)},
                  {"suspicions", static_cast<double>(c.suspicions)},
                  {"durable_events", static_cast<double>(s.fc.durable_events)},
                  {"client_resends", static_cast<double>(s.cs.resends)},
                  {"client_redirects", static_cast<double>(s.cs.redirects)}}});
  }
  return s;
}

void WorkloadRun::load() {
  const std::int64_t W = static_cast<std::int64_t>(o_.window_s * 1e9);
  load_start_ = now();
  win0_ = load_start_ + static_cast<std::int64_t>(o_.warmup_s * 1e9);
  win1_ = win0_ + W;
  const auto snap_at = [&](std::size_t i) {
    return win0_ + W * static_cast<std::int64_t>(i) / kThirds;
  };
  const std::int64_t kill_at = w_.kill_leader ? win0_ + W / 4 : -1;

  const std::vector<Arrival> sched =
      open_schedule(w_, o_.seed, o_.warmup_s, o_.window_s);
  std::size_t next = 0;

  warmup_span_ = tr_.begin("load.warmup", root_);
  if (w_.arrivals == Arrivals::kClosed) {
    std::vector<Arrival> first;
    {
      std::lock_guard<std::mutex> lk(mu_);
      closed_running_ = true;
      for (std::uint64_t s = 1; s <= static_cast<std::uint64_t>(kSessions); ++s) {
        first.push_back(closed_op(o_.seed, s, closed_k_[s]++));
      }
    }
    for (const Arrival& a : first) issue(a, now());
  }

  for (;;) {
    std::int64_t t = now();
    while (next < sched.size() && load_start_ + sched[next].due_ns <= t) {
      issue(sched[next], load_start_ + sched[next].due_ns);
      ++next;
      t = now();
    }
    fleet_->tick(client_.get());
    if (t >= snap_at(snaps_.size())) {
      if (snaps_.empty()) {
        tr_.end(warmup_span_);
        window_span_ = tr_.begin("load.window", root_);
      }
      snaps_.push_back(snapshot("window." + std::to_string(snaps_.size())));
      if (snaps_.size() == kThirds + 1) break;
    }
    if (kill_at >= 0 && kill_t_ < 0 && t >= kill_at) {
      const ProcessId l = fleet_->leader();
      if (l != udc::kInvalidProcess) {
        fleet_->kill(l);
        kill_t_ = now();
      }
    }
    std::int64_t wake = t + 1'000'000;
    if (next < sched.size()) wake = std::min(wake, load_start_ + sched[next].due_ns);
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(base_ + wake)));
  }
  tr_.end(window_span_);
  {
    std::lock_guard<std::mutex> lk(mu_);
    closed_running_ = false;
  }
  if (w_.kill_leader && kill_t_ < 0) {
    throw std::runtime_error("no leader to kill during the window");
  }
}

Result WorkloadRun::run() {
  fs::remove_all(dir_);
  fs::create_directories(dir_);
  root_ = tr_.begin(w_.name);
  for (int k = 0; k < o_.cold_starts; ++k) cold_start(k);

  load();

  const std::int64_t drain_span = tr_.begin("load.drain", root_);
  wait_until(kDrainLimit, [&] {
    std::lock_guard<std::mutex> lk(mu_);
    return ledger_.open() == 0;
  });
  tr_.end(drain_span);
  settle_ms_ = timed(tr_, "fleet.settle", root_, [&] {
    settled_ = wait_until(kSettleLimit, [&] { return fleet_->settled(); });
  });
  stop_ms_ = timed(tr_, "fleet.stop", root_, [&] {
    client_->stop();
    clean_ = fleet_->stop();
  });

  // The verdict, from the disks.
  std::vector<Shard> shards(kReplicas);
  const std::string fdir = fleet_->dir();
  for (ProcessId p = 0; p < kReplicas; ++p) {
    Shard& s = shards[static_cast<std::size_t>(p)];
    s.killed = fleet_->killed(p);
    const std::string tag = "[" + std::to_string(p) + "]";
    recover_ms_ += timed(tr_, "store.recover" + tag, root_, [&] {
      udc::ProcessStore store(fdir, p, udc::mp_store_options(), {});
      s.records = store.recover();
    });
    svclog_ms_ += timed(tr_, "svclog.read" + tag, root_, [&] {
      s.svclog = udc::SvcDurableLog::read(fdir + "/svc-" + std::to_string(p) +
                                          ".log");
    });
  }
  std::optional<udc::Run> lifted;
  std::vector<udc::ActionId> actions;
  lift_ms_ = timed(tr_, "checker.lift", root_,
                   [&] { lifted.emplace(lift(shards, &actions)); });
  udc::CoordReport coord;
  nudc_ms_ = timed(tr_, "checker.nudc", root_,
                   [&] { coord = udc::check_nudc(*lifted, actions, 0); });
  const Survivors surv = survivors(shards);
  udc::SvcSessionReport sessions;
  sessions_ms_ = timed(tr_, "checker.sessions", root_, [&] {
    sessions = udc::check_sessions(surv.applied, confirmed_);
  });
  udc::LogAgreementReport agreement;
  agreement_ms_ = timed(tr_, "checker.log_agreement", root_, [&] {
    agreement = udc::check_log_agreement(surv.slots);
  });
  for (ProcessId p = 0; p < kReplicas; ++p) events_ += lifted->history(p).size();

  for (const auto& v : coord.violations) violations_.push_back("DC: " + v);
  for (const auto& v : sessions.violations) violations_.push_back("sessions: " + v);
  for (const auto& v : agreement.violations) violations_.push_back("log: " + v);
  if (!surv.join_ok) violations_.push_back("a durable kDo has no service-log record");
  if (!settled_) violations_.push_back("replicas did not settle");
  if (!clean_) violations_.push_back("a replica exited uncleanly");
  tr_.end(root_);
  if (tr_.on()) trace_ops();

  Result res = measure();
  res.conformant = violations_.empty();
  res.problems.insert(res.problems.end(), violations_.begin(), violations_.end());
  fleet_.reset();
  client_.reset();
  if (res.conformant) fs::remove_all(dir_);
  return res;
}

// Per-op spans from the ledger: gen.issue (due -> the client call
// returned), svc.client.queue (-> the session's previous op completed),
// svc.client.service (-> DoneFn).
void WorkloadRun::trace_ops() {
  std::map<std::uint64_t, std::int64_t> prev_done;
  for (const OpRecord& r : ledger_.ops()) {
    std::int64_t parent = root_;
    if (r.due_ns >= load_start_ && r.due_ns < win0_) parent = warmup_span_;
    if (r.due_ns >= win0_ && r.due_ns < win1_) parent = window_span_;
    auto span = [&](const char* name, std::int64_t a, std::int64_t b) {
      Span s;
      s.name = name;
      s.parent = parent;
      s.start_ns = base_ + a;
      s.end_ns = base_ + b;
      s.session = r.session;
      s.seq = r.seq;
      tr_.add(s);
    };
    if (r.issued_ns < 0) continue;
    span("gen.issue", r.due_ns, r.issued_ns);
    if (r.done_ns < 0) continue;
    const std::int64_t start = std::max(r.issued_ns, prev_done[r.session]);
    span("svc.client.queue", r.issued_ns, start);
    span("svc.client.service", start, r.done_ns);
    prev_done[r.session] = r.done_ns;
  }
}

Result WorkloadRun::measure() {
  Result res;
  res.workload = w_.name;
  const Snapshot& s0 = snaps_[0];
  const Snapshot& s1 = snaps_[1];
  const Snapshot& s2 = snaps_[2];
  const Snapshot& s3 = snaps_[3];
  // Rates and per-op ratios use the window as measured, from the first
  // counter snapshot to the last, and the ops completed OK inside it.
  const double W = (s3.t - s0.t) / 1e9;
  const std::vector<OpRecord>& ops = ledger_.ops();
  const WindowStats ws = window_stats(ops, win0_, win1_);
  const double ok = static_cast<double>(completions_between(ops, s0.t, s3.t));
  res.attempted = ws.due;
  res.failed = ws.failed();
  auto d = [&](std::size_t udc::RuntimeCounters::*f) {
    return static_cast<double>(s3.fc.rc.*f - s0.fc.rc.*f);
  };
  auto dc = [&](std::uint64_t udc::SvcClientStats::*f) {
    return static_cast<double>(s3.cs.*f - s0.cs.*f);
  };
  auto cpu = [](const Snapshot& a, const Snapshot& b, ProcessId p) {
    return b.proc[static_cast<std::size_t>(p)].cpu_s -
           a.proc[static_cast<std::size_t>(p)].cpu_s;
  };
  double cpu_all = 0, write_bytes = 0, rss_growth = 0, follower_cpu = 0;
  const ProcessId L = s0.leader;
  for (ProcessId p = 0; p < kReplicas; ++p) {
    const auto i = static_cast<std::size_t>(p);
    cpu_all += cpu(s0, s3, p);
    write_bytes += s3.proc[i].write_bytes - s0.proc[i].write_bytes;
    if (!fleet_->killed(p)) rss_growth += s3.proc[i].rss_mb - s0.proc[i].rss_mb;
    if (p != L) follower_cpu += cpu(s0, s3, p) / (kReplicas - 1);
  }
  const double leader_cpu = L == udc::kInvalidProcess ? 0 : cpu(s0, s3, L);
  const std::size_t c1 = completions_between(ops, s0.t, s1.t);
  const std::size_t c2 = completions_between(ops, s1.t, s2.t);
  const std::size_t c3 = completions_between(ops, s2.t, s3.t);
  std::uint64_t slots_end = 0, sessions_end = 0;
  for (const udc::SvcNodeStatus& st : s3.statuses) {
    slots_end = std::max(slots_end, st.log_size);
    sessions_end = std::max(sessions_end, st.sessions);
  }
  const ProcessId L_end = s3.leader != udc::kInvalidProcess ? s3.leader : L;
  double unavail_ms = 0;
  if (kill_t_ >= 0) {
    std::int64_t first = -1;
    for (const OpRecord& r : ops) {
      if (r.due_ns >= kill_t_ && r.done_ns >= 0 &&
          (first < 0 || r.done_ns < first)) {
        first = r.done_ns;
      }
    }
    if (first >= 0) unavail_ms = (first - kill_t_) / 1e6;
  }

  res.e2e = {
      {"setup_s", median(setup_s_), "s"},
      {"goodput_ops_s", ok / W, "ops/s"},
      {"p50_ms", quantile(ws.latency_ms, 0.50), "ms"},
  };

  std::vector<Metric>& m = res.layer;
  m.push_back({"gen.late_p99_us", quantile(ws.late_us, 0.99), "us"});
  m.push_back({"gen.ops_due", static_cast<double>(ws.due), "count"});
  const std::pair<const char*, double> qs[] = {{"svc.client.p50_ms", 0.50},
                                               {"svc.client.p90_ms", 0.90},
                                               {"svc.client.p99_ms", 0.99},
                                               {"svc.client.p999_ms", 0.999}};
  for (const auto& [name, q] : qs) {
    if (auto v = supported_quantile(ws.latency_ms, q)) m.push_back({name, *v, "ms"});
  }
  m.push_back({"svc.client.max_ms",
               ws.latency_ms.empty() ? 0 : ws.latency_ms.back(), "ms"});
  if (auto v = supported_quantile(ws.client_latency_ms, 0.99)) {
    m.push_back({"svc.client.dequeue_p99_ms", *v, "ms"});
  }
  m.push_back({"svc.client.failed_frac", ws.failed_frac(), "fraction"});
  m.push_back({"svc.client.goodput_t1", c1 / ((s1.t - s0.t) / 1e9), "ops/s"});
  m.push_back({"svc.client.goodput_t2", c2 / ((s2.t - s1.t) / 1e9), "ops/s"});
  m.push_back({"svc.client.goodput_t3", c3 / ((s3.t - s2.t) / 1e9), "ops/s"});
  m.push_back({"svc.client.resends_per_kop",
               ratio(dc(&udc::SvcClientStats::resends) * 1e3, ok), "per_kop"});
  m.push_back({"svc.client.redirects_per_kop",
               ratio(dc(&udc::SvcClientStats::redirects) * 1e3, ok), "per_kop"});
  m.push_back({"svc.client.retry_later_per_kop",
               ratio(dc(&udc::SvcClientStats::retry_later) * 1e3, ok), "per_kop"});
  m.push_back({"svc.client.out_of_order_per_kop",
               ratio(dc(&udc::SvcClientStats::out_of_order) * 1e3, ok), "per_kop"});
  const double done = dc(&udc::SvcClientStats::completions);
  m.push_back({"svc.client.attempts_per_op",
               ratio(done + dc(&udc::SvcClientStats::resends) +
                         dc(&udc::SvcClientStats::redirects) +
                         dc(&udc::SvcClientStats::retry_later) +
                         dc(&udc::SvcClientStats::out_of_order),
                     done),
               "ratio"});

  using RC = udc::RuntimeCounters;
  m.push_back({"svc.node.requests_per_op", ratio(d(&RC::svc_requests), ok), "ratio"});
  m.push_back({"svc.node.admit_frac",
               ratio(d(&RC::svc_admitted), d(&RC::svc_requests)), "fraction"});
  m.push_back({"svc.node.dups_per_kop",
               ratio(d(&RC::svc_dups_suppressed) * 1e3, ok), "per_kop"});
  m.push_back({"svc.node.retry_later_per_kop",
               ratio(d(&RC::svc_retry_later) * 1e3, ok), "per_kop"});
  m.push_back({"svc.node.redirects_per_kop",
               ratio(d(&RC::svc_redirects) * 1e3, ok), "per_kop"});
  m.push_back({"svc.node.elections", d(&RC::svc_elections), "count"});
  m.push_back({"svc.node.sync_rounds", d(&RC::svc_sync_rounds), "count"});
  m.push_back({"svc.node.adoptions", d(&RC::svc_adoptions), "count"});

  m.push_back({"svc.log.ops_per_batch",
               ratio(d(&RC::svc_admitted), d(&RC::svc_batches_sealed)), "ratio"});
  m.push_back({"svc.log.batches_per_s", d(&RC::svc_batches_sealed) / W, "1/s"});
  m.push_back({"svc.log.ooo_commit_frac",
               ratio(d(&RC::svc_ooo_commits), d(&RC::svc_batches_committed)),
               "fraction"});
  m.push_back({"svc.log.slots_end", static_cast<double>(slots_end), "count"});
  m.push_back({"svc.log.sessions_end", static_cast<double>(sessions_end), "count"});

  m.push_back({"svc.lease.reads_per_s", d(&RC::svc_lease_reads) / W, "1/s"});
  m.push_back({"svc.lease.denied_frac",
               ratio(d(&RC::svc_lease_denied),
                     d(&RC::svc_lease_reads) + d(&RC::svc_lease_denied)),
               "fraction"});

  m.push_back({"store.group_commits_per_op",
               ratio(d(&RC::wal_group_commits), ok), "ratio"});
  m.push_back({"store.durable_events_per_op",
               ratio(static_cast<double>(s3.fc.durable_events -
                                         s0.fc.durable_events),
                     ok),
               "ratio"});
  m.push_back({"store.disk_bytes_per_op", ratio(write_bytes, ok), "bytes"});
  m.push_back({"store.recover_ms", recover_ms_, "ms"});
  m.push_back({"store.svclog_read_ms", svclog_ms_, "ms"});

  m.push_back({"net.frames_tx_per_op", ratio(d(&RC::frames_tx), ok), "ratio"});
  m.push_back({"net.frames_rx_per_op", ratio(d(&RC::frames_rx), ok), "ratio"});
  m.push_back({"net.reconnects", d(&RC::reconnects), "count"});
  m.push_back({"net.crc_drops", d(&RC::crc_drops), "count"});

  m.push_back({"fd.heartbeats_per_s", d(&RC::heartbeats) / W, "1/s"});
  m.push_back({"fd.suspicions", d(&RC::suspicions), "count"});
  m.push_back({"fd.false_suspicions", d(&RC::false_suspicions), "count"});

  m.push_back({"proc.cpu_ms_per_op", ratio(cpu_all * 1e3, ok), "ms"});
  m.push_back({"proc.leader_cpu_ms_per_op", ratio(leader_cpu * 1e3, ok), "ms"});
  m.push_back({"proc.follower_cpu_ms_per_op", ratio(follower_cpu * 1e3, ok), "ms"});
  m.push_back({"proc.leader_cpu_ms_per_op_t1",
               L == udc::kInvalidProcess ? 0 : ratio(cpu(s0, s1, L) * 1e3, c1),
               "ms"});
  m.push_back({"proc.leader_cpu_ms_per_op_t3",
               L == udc::kInvalidProcess ? 0 : ratio(cpu(s2, s3, L) * 1e3, c3),
               "ms"});
  m.push_back({"proc.cpu_util", cpu_all / W, "cores"});
  m.push_back({"proc.leader_rss_mb_end",
               L_end == udc::kInvalidProcess
                   ? 0
                   : s3.proc[static_cast<std::size_t>(L_end)].rss_mb,
               "MB"});
  m.push_back({"proc.rss_growth_mb", rss_growth, "MB"});

  m.push_back({"checker.lift_ms", lift_ms_, "ms"});
  m.push_back({"checker.nudc_ms", nudc_ms_, "ms"});
  m.push_back({"checker.sessions_ms", sessions_ms_, "ms"});
  m.push_back({"checker.log_agreement_ms", agreement_ms_, "ms"});
  m.push_back({"checker.events", static_cast<double>(events_), "count"});

  m.push_back({"fleet.spawn_to_leader_ms", median(to_leader_ms_), "ms"});
  m.push_back({"fleet.leader_to_commit_ms", median(to_commit_ms_), "ms"});
  m.push_back({"fleet.settle_ms", settle_ms_, "ms"});
  m.push_back({"fleet.stop_ms", stop_ms_, "ms"});
  m.push_back({"fleet.unavail_ms", unavail_ms, "ms"});

  if (quantile(ws.late_us, 0.99) > 1000) {
    res.problems.push_back(
        "warning: gen.late_p99_us > 1000: the run measured the harness");
  }
  return res;
}

// --- output -----------------------------------------------------------------

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    s += (i ? ", " : "") + std::string("\"") + ms[i].name + "\": {\"value\": " +
         num(ms[i].value) + ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}";
}

void print_result(const Result& r) {
  std::printf("%-15s", r.workload.c_str());
  for (const Metric& m : r.e2e) {
    std::printf("  %s=%s %s", m.name.c_str(), num(m.value).c_str(), m.unit.c_str());
  }
  std::printf("  attempted=%zu failed=%zu %s\n", r.attempted, r.failed,
              r.conformant ? "conformant" : "NON-CONFORMANT");
  std::string layer;
  for (const Metric& m : r.layer) {
    const std::string l = m.name.substr(0, m.name.rfind('.'));
    if (l != layer) {
      std::printf("%s    %-11s", layer.empty() ? "" : "\n", l.c_str());
      layer = l;
    }
    std::printf(" %s=%s %s", m.name.c_str(), num(m.value).c_str(),
                m.unit.c_str());
  }
  std::printf("\n");
  for (const std::string& p : r.problems) std::printf("    %s\n", p.c_str());
  std::fflush(stdout);
}

void print_layers(const Tracer& tr) {
  std::printf("    %-22s %8s %12s %12s %10s\n", "span", "count", "total_ms",
              "self_ms", "p50_us");
  for (const LayerRow& r : tr.layers()) {
    std::printf("    %-22s %8zu %12.3f %12.3f %10.1f\n", r.name.c_str(),
                r.count, r.total_ms, r.self_ms, r.p50_us);
  }
}

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: udcbench [flags]\n"
      "  --seed=<int>          schedule seed (default 1)\n"
      "  --workload=<name>     write_capacity|write_fixed|read_lease|failover;\n"
      "                        repeatable (default: all four)\n"
      "  --out=<file>          write every workload's metrics as JSON\n"
      "  --trace=<file>        repeat each workload traced; spans as JSONL\n"
      "  --window-s=<sec>      measured window (default 10)\n"
      "  --warmup-s=<sec>      discarded warm-up (default 3)\n"
      "  --cold-starts=<int>   fleets set up for setup_s (default 5)\n"
      "  --dir=<path>          scratch root (default $TMPDIR)\n"
      "  --result-line=e2e|layer  one workload; last line is the result object\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto eat = [&arg](const char* prefix, std::string* out) {
      if (arg.rfind(prefix, 0) != 0) return false;
      *out = arg.substr(std::strlen(prefix));
      return true;
    };
    std::string v;
    if (eat("--seed=", &v)) {
      o.seed = std::stoull(v);
    } else if (eat("--workload=", &v)) {
      if (find_workload(v) == nullptr) {
        std::fprintf(stderr, "udcbench: unknown workload: %s\n", v.c_str());
        usage();
      }
      o.workloads.push_back(v);
    } else if (eat("--out=", &v)) {
      o.out = v;
    } else if (eat("--trace=", &v)) {
      o.trace = v;
    } else if (eat("--window-s=", &v)) {
      o.window_s = std::stod(v);
    } else if (eat("--warmup-s=", &v)) {
      o.warmup_s = std::stod(v);
    } else if (eat("--cold-starts=", &v)) {
      o.cold_starts = std::stoi(v);
    } else if (eat("--dir=", &v)) {
      o.dir = v;
    } else if (eat("--result-line=", &v)) {
      if (v == "e2e") {
        o.result_line = ResultLine::kEndToEnd;
      } else if (v == "layer") {
        o.result_line = ResultLine::kLayer;
      } else {
        usage();
      }
    } else {
      std::fprintf(stderr, "udcbench: unknown flag: %s\n", arg.c_str());
      usage();
    }
  }
  if (o.window_s < 0.3 || o.warmup_s < 0 || o.cold_starts < 1 ||
      (o.result_line != ResultLine::kNone && o.workloads.size() != 1) ||
      (o.result_line == ResultLine::kLayer && o.trace.empty())) {
    std::fprintf(stderr, "udcbench: flag out of range\n");
    usage();
  }
  if (o.workloads.empty()) {
    for (const Workload& w : workloads()) o.workloads.push_back(w.name);
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  return udc::guarded_main("udcbench", [&] {
    Options o = parse(argc, argv);
    o.node = (fs::path(argv[0]).parent_path() / "udc_svc_node").string();
    if (!fs::exists(o.node)) {
      std::fprintf(stderr, "udcbench: node binary not found: %s\n",
                   o.node.c_str());
      return 2;
    }
    const bool own_dir = o.dir.empty();
    if (own_dir) {
      o.dir = (fs::temp_directory_path() /
               ("udcbench." + std::to_string(::getpid())))
                  .string();
    }
    o.dir = fs::absolute(o.dir).string();
    std::printf("udcbench seed=%llu window_s=%s warmup_s=%s cold_starts=%d\n",
                static_cast<unsigned long long>(o.seed),
                num(o.window_s).c_str(), num(o.warmup_s).c_str(),
                o.cold_starts);

    // The scored run has tracing off; --trace repeats each workload traced,
    // except with --result-line=layer, which runs only the traced one.
    const bool scored = o.result_line != ResultLine::kLayer;
    const bool traced = !o.trace.empty();
    std::ofstream spans;
    if (traced) {
      spans.open(o.trace, std::ios::trunc);
      if (!spans) throw std::runtime_error("cannot write " + o.trace);
    }
    bool all_ok = true;
    std::vector<Result> results;
    std::vector<std::pair<double, double>> overhead;  // p50, goodput
    for (const std::string& name : o.workloads) {
      const Workload& w = *find_workload(name);
      std::optional<Result> base;
      if (scored) {
        Tracer off(false);
        base = WorkloadRun(w, o, off).run();
        print_result(*base);
        all_ok = all_ok && base->conformant;
      }
      if (traced) {
        Tracer on(true);
        Result t = WorkloadRun(w, o, on).run();
        std::printf("%s (traced)\n", name.c_str());
        print_result(t);
        print_layers(on);
        on.write_jsonl(spans, name);
        all_ok = all_ok && t.conformant;
        if (base) {
          const double p50 = ratio(t.e2e_value("p50_ms"), base->e2e_value("p50_ms")) - 1;
          const double gp =
              ratio(t.e2e_value("goodput_ops_s"), base->e2e_value("goodput_ops_s")) - 1;
          std::printf("    trace.overhead_p50_frac=%s trace.overhead_goodput_frac=%s\n",
                      num(p50).c_str(), num(gp).c_str());
          overhead.push_back({p50, gp});
        }
        if (!base) base = std::move(t);
      }
      results.push_back(std::move(*base));
    }
    if (own_dir) {
      std::error_code ec;
      fs::remove(o.dir, ec);  // only if empty: a failed run keeps its files
    }

    if (!o.out.empty()) {
      std::ofstream out(o.out, std::ios::trunc);
      out << "{\"udcbench\": 1, \"seed\": " << o.seed
          << ", \"window_s\": " << num(o.window_s) << ", \"workloads\": [";
      for (std::size_t i = 0; i < results.size(); ++i) {
        const Result& r = results[i];
        out << (i ? ",\n  " : "\n  ") << "{\"name\": \"" << r.workload
            << "\", \"conformant\": " << (r.conformant ? "true" : "false")
            << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
            << ", \"end_to_end\": " << json_metrics(r.e2e)
            << ", \"per_layer\": " << json_metrics(r.layer);
        if (i < overhead.size()) {
          out << ", \"trace\": {\"overhead_p50_frac\": " << num(overhead[i].first)
              << ", \"overhead_goodput_frac\": " << num(overhead[i].second) << "}";
        }
        out << "}";
      }
      out << "\n]}\n";
      if (!out) throw std::runtime_error("cannot write " + o.out);
    }
    if (o.result_line != ResultLine::kNone) {
      const Result& r = results.front();
      std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                  "\"metrics\": %s}\n",
                  r.conformant ? "true" : "false", r.attempted, r.failed,
                  json_metrics(o.result_line == ResultLine::kLayer ? r.layer : r.e2e)
                      .c_str());
    }
    return all_ok ? 0 : 1;
  });
}
