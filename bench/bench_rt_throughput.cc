// Experiment RTPERF — the live runtime's recording hot path (DESIGN.md §10).
//
// Every observable event a live worker produces funnels through
// TraceRecorder::record and, when durability is on, through the process's
// WAL.  This suite measures that funnel end to end; the serial recorder is
// kept in-tree as the baseline the sharded one is measured against:
//
//   * BM_Record{Serial,Sharded}        — n workers hammering the recorder
//     (no disk): the single global mutex vs the per-process shards stamped
//     from one atomic clock.  Workers follow the real record-then-send /
//     receive-then-record discipline so every lifted run passes R1-R4.
//   * BM_DurableGroupCommit            — the same workload on the sharded
//     recorder, with each event mirrored into the shipping ProcessStore
//     (StoreOptions{}) and each store's own flusher thread paying its
//     barriers, so the workers never wait on the disk.
//   * BM_Lift{Serial,Sharded}          — latency of lift() on a prefilled
//     recorder: the sharded merge must not give back what recording won.
//
// Rows report events_per_sec (the headline number; 0 for the lift rows) and
// ns_per_op.  `--json <path>` writes the rows machine-readably — that file,
// checked in as BENCH_pr6.json, is what the rt-bench-smoke CI job guards
// against >2x regressions (tools/run_rt_bench.sh regenerates it).
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "udc/common/guarded_main.h"
#include "udc/event/event.h"
#include "udc/event/message.h"
#include "udc/rt/record.h"
#include "udc/store/process_store.h"

namespace udc {
namespace {

namespace fs = std::filesystem;

Message tagged(std::int64_t tag) {
  Message m;
  m.kind = MsgKind::kApp;
  m.a = tag;
  return m;
}

// The same toy transport as tests/test_rt_record_concurrent.cc: enough of a
// channel that receives are recorded strictly after their matching sends,
// so the workload the recorder sees is model-shaped, not a synthetic spin.
struct Inbox {
  std::mutex mu;
  std::deque<Message> q;

  void push(Message m) {
    std::lock_guard<std::mutex> lock(mu);
    q.push_back(m);
  }
  bool pop(Message& out) {
    std::lock_guard<std::mutex> lock(mu);
    if (q.empty()) return false;
    out = q.front();
    q.pop_front();
    return true;
  }
};

// Drives n workers through `sends_per_worker` record-send / recv-record
// pairs each (2 * n * sends_per_worker events total) and returns that count.
// Recorder is TraceRecorder or SerialTraceRecorder — same API, different
// locking, which is the entire point.
template <class Recorder>
std::size_t drive(Recorder& rec, int n, int sends_per_worker) {
  std::vector<Inbox> inboxes(static_cast<std::size_t>(n));
  std::atomic<int> senders_left{n};

  auto worker = [&](ProcessId self) {
    const ProcessId partner = static_cast<ProcessId>((self + 1) % n);
    const ProcessId prev = static_cast<ProcessId>((self + n - 1) % n);
    Inbox& in = inboxes[static_cast<std::size_t>(self)];
    auto drain = [&] {
      Message m;
      while (in.pop(m)) rec.record(self, Event::recv(prev, m));
    };
    for (int k = 0; k < sends_per_worker; ++k) {
      const Message msg = tagged(static_cast<std::int64_t>(self) * 1'000'000 + k);
      rec.record(self, Event::send(partner, msg));
      inboxes[static_cast<std::size_t>(partner)].push(msg);
      drain();
    }
    senders_left.fetch_sub(1);
    for (;;) {
      drain();
      if (senders_left.load() == 0) {
        drain();
        std::lock_guard<std::mutex> lock(in.mu);
        if (in.q.empty()) return;
      }
      std::this_thread::yield();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(n));
  for (ProcessId p = 0; p < n; ++p) threads.emplace_back(worker, p);
  for (auto& t : threads) t.join();
  return static_cast<std::size_t>(2) * static_cast<std::size_t>(n) *
         static_cast<std::size_t>(sends_per_worker);
}

void set_row(benchmark::State& state, int n, std::size_t events) {
  state.counters["n"] = static_cast<double>(n);
  state.counters["threads"] = static_cast<double>(n);
  state.counters["events_per_sec"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}

// ---- pure recording: the lock structure alone -----------------------------

template <class Recorder>
void record_throughput(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int sends = static_cast<int>(state.range(1));
  std::size_t events = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Recorder rec(n);
    state.ResumeTiming();
    events += drive(rec, n, sends);
  }
  set_row(state, n, events);
}

void BM_RecordSerial(benchmark::State& state) {
  record_throughput<SerialTraceRecorder>(state);
}
void BM_RecordSharded(benchmark::State& state) {
  record_throughput<TraceRecorder>(state);
}
BENCHMARK(BM_RecordSerial)
    ->Args({2, 1'000})->Args({4, 1'000})->Args({8, 1'000})
    ->Args({4, 4'000})
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime();
BENCHMARK(BM_RecordSharded)
    ->Args({2, 1'000})->Args({4, 1'000})->Args({8, 1'000})
    ->Args({4, 4'000})
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime();

// ---- durable recording: the full hot path incl. the WAL -------------------

class BenchSink final : public WalSink {
 public:
  explicit BenchSink(std::vector<std::unique_ptr<ProcessStore>>& stores)
      : stores_(stores) {}
  void append(ProcessId p, Time t, const Event& e) override {
    stores_[static_cast<std::size_t>(p)]->append(t, e);
  }
  void seal(ProcessId p) override {
    stores_[static_cast<std::size_t>(p)]->flush();
  }

 private:
  std::vector<std::unique_ptr<ProcessStore>>& stores_;
};

fs::path bench_dir() {
  fs::path d = fs::temp_directory_path() / "udc_bench_rt";
  fs::remove_all(d);
  fs::create_directories(d);
  return d;
}

// Settle the writeback and journal debt the PREVIOUS benchmark left
// behind so each durable row measures its own configuration, not its
// predecessor's backlog.  sync() alone is not enough: jbd2 keeps
// checkpointing after it returns and the residue costs the next row ~20%
// (measured on the reference box) — hence the post-sync grace.  Runs off
// the clock.
void settle_disk(const benchmark::State&) {
  ::sync();
  std::this_thread::sleep_for(std::chrono::seconds(2));
}

// The shipping durable path, wired as run_live wires it.
void BM_DurableGroupCommit(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int sends = static_cast<int>(state.range(1));
  std::size_t events = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const fs::path dir = bench_dir();
    std::vector<std::unique_ptr<ProcessStore>> stores;
    for (ProcessId p = 0; p < n; ++p) {
      stores.push_back(std::make_unique<ProcessStore>(
          dir.string(), p, StoreOptions{}, std::vector<StorageFault>{}));
    }
    BenchSink sink(stores);
    TraceRecorder rec(n, &sink);
    for (auto& s : stores) s->start_committer();
    state.ResumeTiming();
    events += drive(rec, n, sends);
    // The tail flush is part of the price.
    for (auto& s : stores) s->stop_committer();
  }
  set_row(state, n, events);
}
BENCHMARK(BM_DurableGroupCommit)
    ->Args({2, 250})->Args({4, 250})->Args({8, 250})->Args({4, 1'000})
    ->Setup(settle_disk)
    ->Unit(benchmark::kMillisecond)->MeasureProcessCPUTime();

// ---- lift latency: the merge must stay cheap ------------------------------

template <class Recorder>
void lift_latency(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int sends = static_cast<int>(state.range(1));
  Recorder rec(n);
  drive(rec, n, sends);
  for (auto _ : state) {
    const Run run = rec.lift();  // re-validates R1-R4 every time
    benchmark::DoNotOptimize(run.horizon());
  }
  state.counters["n"] = static_cast<double>(n);
  state.counters["threads"] = static_cast<double>(n);
  state.counters["events_per_sec"] = 0.0;
}

void BM_LiftSerial(benchmark::State& state) {
  lift_latency<SerialTraceRecorder>(state);
}
void BM_LiftSharded(benchmark::State& state) {
  lift_latency<TraceRecorder>(state);
}
BENCHMARK(BM_LiftSerial)
    ->Args({4, 1'250})->Args({8, 1'250})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LiftSharded)
    ->Args({4, 1'250})->Args({8, 1'250})
    ->Unit(benchmark::kMillisecond);

// ---- machine-readable rows (same contract as bench_knowledge_eval) --------

class JsonRowReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonRowReporter(std::string path) : path_(std::move(path)) {}

  bool write_failed() const { return write_failed_; }

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      Row row;
      row.bench = run.benchmark_name();
      row.n = counter_or(run, "n");
      row.threads = counter_or(run, "threads");
      row.events_per_sec = counter_or(run, "events_per_sec");
      row.ns_per_op = run.iterations == 0
                          ? 0.0
                          : run.real_accumulated_time * 1e9 /
                                static_cast<double>(run.iterations);
      rows_.push_back(std::move(row));
    }
    benchmark::ConsoleReporter::ReportRuns(reports);
  }

  void Finalize() override {
    benchmark::ConsoleReporter::Finalize();
    std::FILE* out = std::fopen(path_.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path_.c_str());
      write_failed_ = true;
      return;
    }
    std::fprintf(out, "[\n");
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      std::fprintf(out,
                   "  {\"bench\": \"%s\", \"n\": %.0f, \"threads\": %.0f, "
                   "\"events_per_sec\": %.1f, \"ns_per_op\": %.1f}%s\n",
                   r.bench.c_str(), r.n, r.threads, r.events_per_sec,
                   r.ns_per_op, i + 1 < rows_.size() ? "," : "");
    }
    std::fprintf(out, "]\n");
    std::fclose(out);
  }

 private:
  struct Row {
    std::string bench;
    double n = 0, threads = 0, events_per_sec = 0, ns_per_op = 0;
  };

  static double counter_or(const Run& run, const char* name) {
    auto it = run.counters.find(name);
    return it == run.counters.end() ? 0.0 : static_cast<double>(it->second);
  }

  std::string path_;
  std::vector<Row> rows_;
  bool write_failed_ = false;
};

}  // namespace
}  // namespace udc

int main(int argc, char** argv) {
  return udc::guarded_main("bench_rt_throughput", [&] {
    std::string json_path;
    std::vector<char*> args(argv, argv + argc);
    for (auto it = args.begin(); it != args.end();) {
      if (std::string(*it) == "--json" && it + 1 != args.end()) {
        json_path = *(it + 1);
        it = args.erase(it, it + 2);
      } else {
        ++it;
      }
    }
    int filtered_argc = static_cast<int>(args.size());
    benchmark::Initialize(&filtered_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
      return 1;
    }
    int rc = 0;
    if (json_path.empty()) {
      benchmark::RunSpecifiedBenchmarks();
    } else {
      udc::JsonRowReporter reporter(json_path);
      benchmark::RunSpecifiedBenchmarks(&reporter);
      if (reporter.write_failed()) rc = 1;
    }
    benchmark::Shutdown();
    return rc;
  });
}
