// Copyright (c) dimmunix-cpp authors. MIT license.
//
// benchjson — machine-readable benchmark runner.
//
// Runs the §7.2.2 synchronization microbenchmark in the configurations of
// Figure 5 (lock throughput vs. thread count, uninstrumented baseline vs.
// the instrumented engine with a 64-signature history) and Figure 8
// (engine overhead with and without durable history persistence) and
// emits BENCH_<bench>.json with
// the schema documented in src/benchlib/trial.h:
//
//   {"bench": ..., "config": {...}, "samples": [...],
//    "p50_ns": ..., "p99_ns": ..., "throughput_ops_s": ...}
//
// The aggregate fields are taken from the fully instrumented run at the
// highest measured thread count — the number the striped hot path must keep
// pushing up. CI's bench-smoke job runs `--quick` on every push, uploads
// the JSON artifacts, and fails on malformed output or zero throughput.
//
// Unlike the human-readable bench_* binaries (which default to the paper's
// δout = 1 ms think time, hiding engine cost behind computation), benchjson
// uses δin = 1 µs / δout = 0: every microsecond of engine work is visible
// in the measured throughput, which is what a regression tracker needs.
//
// Figure 4 gets a cross-process twist: BENCH_fig4.json measures the
// two-process shared-mutex victim shape — two processes hammering
// PTHREAD_PROCESS_SHARED mutexes, uninstrumented vs. instrumented with the
// IPC arena publishing every acquisition — plus the single-process striped
// workload with and without an arena configured, proving arena publishing
// stays off the local-lock fast path.
//
// Usage:
//   benchjson --bench fig4 [--quick] [--out PATH]
//   benchjson --bench fig5 [--quick] [--out PATH]
//   benchjson --bench fig8 [--quick] [--out PATH]
//   benchjson --bench all  [--quick]

#include <pthread.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/benchlib/synth_history.h"
#include "src/benchlib/trial.h"
#include "src/benchlib/workload.h"
#include "src/ipc/global_id.h"
#include "src/persist/file.h"
#include "src/stack/annotation.h"

namespace dimmunix {
namespace {

struct Options {
  std::string bench;
  std::string out;     // empty = BenchJsonPath(bench)
  bool quick = false;  // CI smoke mode: fewer points, shorter duration
};

Duration MeasureDuration(const Options& opts) {
  return opts.quick ? std::chrono::milliseconds(250) : std::chrono::milliseconds(1000);
}

// Recorded in every report's config: the tail-ratio gate only applies to
// samples whose thread count the machine can actually run (threads ≤ 2×cpus).
std::string CpuCount() {
  const unsigned cores = std::thread::hardware_concurrency();
  return std::to_string(cores > 0 ? cores : 1);
}

WorkloadParams BaseParams(const Options& opts, int threads) {
  WorkloadParams params;
  params.threads = threads;
  params.locks = 8;
  params.delta_in_us = 1;
  params.delta_out_us = 0;
  params.duration = MeasureDuration(opts);
  params.latency_sample_every = kBenchLatencySampleEvery;
  return params;
}

// Committed tail-latency budgets (p99_budget_ns in BENCH_*.json). CI's
// bench-smoke gate fails a run whose p99_ns exceeds its budget. Roughly
// 10x the committed quick-mode p99 of each benchmark: loose enough for
// scheduler noise on shared runners, tight enough that a convoy-class
// regression (e.g. the pre-striping epoch guard) trips it.
std::uint64_t P99BudgetNs(const std::string& bench) {
  if (bench == "fig5") {
    return 20'000'000;  // yield parks under an oversubscribed run queue
  }
  if (bench == "fig8") {
    return 5'000'000;  // committed p99 ~24 us
  }
  if (bench == "fig4") {
    return 5'000'000;  // committed p99 ~3.5 us (cross-process publish)
  }
  return 0;
}

// Tail-ratio budget (p99 ≤ budget × p50) for the instrumented samples,
// enforced by scripts/bench_gate.py on samples with threads ≤ 2×cpus (see
// trial.h and docs/performance.md for why the gate stops there). 10x is the
// design target the incremental matcher must hold: the pre-incremental
// epoch convoy sat near 900x.
double TailBudgetRatio(const std::string& bench) {
  if (bench == "fig5" || bench == "fig8") {
    return 10.0;
  }
  return 0.0;
}

BenchSample ToSample(const char* label, int threads, const WorkloadResult& result) {
  BenchSample sample;
  sample.label = label;
  sample.threads = threads;
  sample.throughput_ops_s = result.ops_per_sec;
  sample.ops = result.lock_ops;
  sample.elapsed_s = result.elapsed_sec;
  sample.p50_ns = PercentileNs(result.latencies_ns, 0.50);
  sample.p99_ns = PercentileNs(result.latencies_ns, 0.99);
  sample.yields = result.yields;
  return sample;
}

// A Runtime loaded with the Figure 5 synthetic history: 64 two-stack
// signatures at depth 4, referring to stacks the workload can produce.
Config InstrumentedConfig() {
  Config config;
  config.start_monitor = true;
  config.default_match_depth = 4;
  config.yield_timeout = std::chrono::milliseconds(50);
  return config;
}

void LoadSyntheticHistory(Runtime& rt) {
  SynthHistoryParams sigs;
  sigs.signatures = 64;
  sigs.signature_size = 2;
  sigs.match_depth = 4;
  GenerateSyntheticHistory(&rt.history(), &rt.stacks(), sigs);
  rt.engine().NotifyHistoryChanged();
}

int RunFig5(const Options& opts) {
  std::vector<int> thread_counts = opts.quick ? std::vector<int>{2, 8, 16}
                                              : std::vector<int>{2, 4, 8, 16, 32, 64};
  BenchReport report;
  report.bench = "fig5";
  report.p99_budget_ns = P99BudgetNs(report.bench);
  report.tail_budget_ratio = TailBudgetRatio(report.bench);
  report.config = {
      {"cpus", CpuCount()},
      {"workload", "sync microbenchmark (7.2.2)"},
      {"locks", "8"},
      {"delta_in_us", "1"},
      {"delta_out_us", "0"},
      {"signatures", "64"},
      {"signature_size", "2"},
      {"match_depth", "4"},
      {"duration_ms", std::to_string(ToMillis(MeasureDuration(opts)))},
      {"latency_sample_every", std::to_string(kBenchLatencySampleEvery)},
      {"mode", opts.quick ? "quick" : "full"},
  };

  for (const int threads : thread_counts) {
    WorkloadParams params = BaseParams(opts, threads);

    params.mode = WorkloadMode::kBaseline;
    const WorkloadResult baseline = RunWorkload(params);
    report.samples.push_back(ToSample("baseline", threads, baseline));

    Runtime rt(InstrumentedConfig());
    LoadSyntheticHistory(rt);
    params.mode = WorkloadMode::kDimmunix;
    params.runtime = &rt;
    const WorkloadResult dimx = RunWorkload(params);
    report.samples.push_back(ToSample("dimmunix", threads, dimx));
    {
      // Matcher-health summary alongside the throughput line: epoch entries
      // near zero (one per history load) and slow path at zero are the
      // structural proof the incremental matcher is carrying the decisions.
      const EngineStatsSnapshot es = rt.engine().stats().Snapshot();
      if (dimx.lock_ops > 0) {
        report.samples.back().retries_per_op =
            static_cast<double>(es.match_fast_retries) / static_cast<double>(dimx.lock_ops);
      }
      std::printf("  matcher: fast=%llu slow=%llu retries=%llu epochs=%llu hold_us=%llu\n",
                  static_cast<unsigned long long>(es.match_fast_path),
                  static_cast<unsigned long long>(es.match_slow_path),
                  static_cast<unsigned long long>(es.match_fast_retries),
                  static_cast<unsigned long long>(es.epoch_entries),
                  static_cast<unsigned long long>(es.epoch_hold_ns / 1000));
    }

    // Headline aggregate: the instrumented run at the highest thread count.
    report.p50_ns = PercentileNs(dimx.latencies_ns, 0.50);
    report.p99_ns = PercentileNs(dimx.latencies_ns, 0.99);
    report.throughput_ops_s = dimx.ops_per_sec;

    std::printf("fig5 threads=%3d baseline=%10.0f ops/s  dimmunix=%10.0f ops/s  "
                "p50=%lluns p99=%lluns\n",
                threads, baseline.ops_per_sec, dimx.ops_per_sec,
                static_cast<unsigned long long>(report.p50_ns),
                static_cast<unsigned long long>(report.p99_ns));
  }

  const std::string path = opts.out.empty() ? BenchJsonPath("fig5") : opts.out;
  if (!report.WriteFile(path)) {
    std::fprintf(stderr, "benchjson: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

int RunFig8(const Options& opts) {
  const std::vector<int> thread_counts =
      opts.quick ? std::vector<int>{8} : std::vector<int>{2, 8, 16};
  BenchReport report;
  report.bench = "fig8";
  report.p99_budget_ns = P99BudgetNs(report.bench);
  report.tail_budget_ratio = TailBudgetRatio(report.bench);
  report.config = {
      {"cpus", CpuCount()},
      {"workload", "sync microbenchmark (7.2.2), full engine with and without persistence"},
      {"locks", "8"},
      {"delta_in_us", "1"},
      {"delta_out_us", "0"},
      {"signatures", "64"},
      {"duration_ms", std::to_string(ToMillis(MeasureDuration(opts)))},
      {"latency_sample_every", std::to_string(kBenchLatencySampleEvery)},
      {"mode", opts.quick ? "quick" : "full"},
  };

  for (const int threads : thread_counts) {
    WorkloadParams params = BaseParams(opts, threads);
    params.mode = WorkloadMode::kBaseline;
    const WorkloadResult baseline = RunWorkload(params);
    report.samples.push_back(ToSample("baseline", threads, baseline));
    std::printf("fig8 threads=%3d baseline=%10.0f ops/s\n", threads, baseline.ops_per_sec);

    double full_ops = 0.0;
    {
      Runtime rt(InstrumentedConfig());
      LoadSyntheticHistory(rt);
      params.mode = WorkloadMode::kDimmunix;
      params.runtime = &rt;
      const WorkloadResult result = RunWorkload(params);
      report.samples.push_back(ToSample("full", threads, result));
      if (result.lock_ops > 0) {
        const EngineStatsSnapshot es = rt.engine().stats().Snapshot();
        report.samples.back().retries_per_op =
            static_cast<double>(es.match_fast_retries) / static_cast<double>(result.lock_ops);
      }
      std::printf("fig8 threads=%3d %12s=%10.0f ops/s\n", threads, "full", result.ops_per_sec);
      full_ops = result.ops_per_sec;
      report.p50_ns = PercentileNs(result.latencies_ns, 0.50);
      report.p99_ns = PercentileNs(result.latencies_ns, 0.99);
      report.throughput_ops_s = result.ops_per_sec;
    }

    // full + durable persistence: same engine, but with a live history
    // file and the async HistoryStore journaling/compacting.
    // History I/O is off the hot path, so this must track "full" within
    // noise — the number CI watches for regressions of that property.
    {
      Config config = InstrumentedConfig();
      config.history_path = BenchJsonPath("fig8") + ".hist";
      config.load_history_on_init = false;  // fresh file every run
      config.journal_threshold = 8;
      persist::RemoveHistoryFiles(config.history_path);
      {
        Runtime rt(config);
        LoadSyntheticHistory(rt);
        params.mode = WorkloadMode::kDimmunix;
        params.runtime = &rt;
        const WorkloadResult result = RunWorkload(params);
        report.samples.push_back(ToSample("full+persist", threads, result));
        std::printf("fig8 threads=%3d %12s=%10.0f ops/s (%+.2f%% vs full)\n", threads,
                    "full+persist", result.ops_per_sec,
                    full_ops > 0 ? (result.ops_per_sec / full_ops - 1.0) * 100.0 : 0.0);
      }
      persist::RemoveHistoryFiles(config.history_path);
    }
  }

  const std::string path = opts.out.empty() ? BenchJsonPath("fig8") : opts.out;
  if (!report.WriteFile(path)) {
    std::fprintf(stderr, "benchjson: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

// --- Figure 4: the two-process victim shape ----------------------------------

constexpr int kFig4Processes = 2;
constexpr std::size_t kFig4LatencySlots = 8192;
constexpr int kFig4SampleEvery = 64;

// Lives in MAP_SHARED|MAP_ANONYMOUS memory; both children and the parent
// see one copy.
struct Fig4Shared {
  pthread_mutex_t mutex[kFig4Processes];  // one PROCESS_SHARED mutex per child
  std::atomic<int> ready;
  std::atomic<int> go;
  std::atomic<int> stop;
  std::atomic<std::uint64_t> ops[kFig4Processes];
  // Child 0 samples its acquisition latency every kFig4SampleEvery ops.
  std::atomic<std::uint32_t> latency_count;
  std::uint64_t latencies_ns[kFig4LatencySlots];
};

// One child's measurement loop: lock/unlock its own shared mutex as fast as
// possible. Instrumented children run the full acquisition port with the
// global (arena-published) LockId around the raw operation — exactly what
// the LD_PRELOAD shim does for a PROCESS_SHARED mutex.
void Fig4Child(Fig4Shared* shared, int index, bool instrumented,
               const std::string& arena_path) {
  Runtime* rt = nullptr;
  if (instrumented) {
    Config config = InstrumentedConfig();
    config.ipc_path = arena_path;
    rt = new Runtime(config);
    LoadSyntheticHistory(*rt);
    ipc::InvalidateMapsCache();  // the parent's mapping predates this fork
  }
  // Annotated stack, like every other benchjson workload: the measurement
  // targets the protocol + arena publishing cost, not backtrace(3).
  ScopedFrame scope(FrameFromName("fig4::worker" + std::to_string(index)));
  shared->ready.fetch_add(1);
  while (shared->go.load(std::memory_order_acquire) == 0) {
  }
  std::uint64_t ops = 0;
  while (shared->stop.load(std::memory_order_relaxed) == 0) {
    const bool sample = index == 0 && ops % kFig4SampleEvery == 0;
    const MonoTime t0 = sample ? Now() : MonoTime{};
    // The id is resolved inside the loop on purpose: the real shim cannot
    // hoist it either, so fig4 measures resolve (cache hit) + protocol +
    // publication per acquisition, not just the protocol.
    LockId lock_id = 0;
    if (instrumented) {
      lock_id = ipc::GlobalIdForSharedAddress(&shared->mutex[index]);
      AcquireOp op = rt->BeginAcquire(lock_id, AcquireMode::kExclusive);
      pthread_mutex_lock(&shared->mutex[index]);
      op.Commit();
    } else {
      pthread_mutex_lock(&shared->mutex[index]);
    }
    if (sample) {
      const std::uint32_t at = shared->latency_count.load(std::memory_order_relaxed);
      if (at < kFig4LatencySlots) {
        shared->latencies_ns[at] = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(Now() - t0).count());
        shared->latency_count.store(at + 1, std::memory_order_relaxed);
      }
    }
    if (instrumented) {
      rt->EndRelease(lock_id);
    }
    pthread_mutex_unlock(&shared->mutex[index]);
    ++ops;
  }
  shared->ops[index].store(ops);
  delete rt;  // clean shutdown releases the arena participant slot
}

BenchSample RunFig4TwoProcess(const Options& opts, bool instrumented,
                              const std::string& arena_path) {
  auto* shared = static_cast<Fig4Shared*>(::mmap(nullptr, sizeof(Fig4Shared),
                                                 PROT_READ | PROT_WRITE,
                                                 MAP_SHARED | MAP_ANONYMOUS, -1, 0));
  new (shared) Fig4Shared();
  pthread_mutexattr_t attr;
  pthread_mutexattr_init(&attr);
  pthread_mutexattr_setpshared(&attr, PTHREAD_PROCESS_SHARED);
  for (int i = 0; i < kFig4Processes; ++i) {
    pthread_mutex_init(&shared->mutex[i], &attr);
  }
  pthread_mutexattr_destroy(&attr);
  if (instrumented) {
    ::unlink(arena_path.c_str());
  }

  pid_t children[kFig4Processes];
  for (int i = 0; i < kFig4Processes; ++i) {
    children[i] = ::fork();
    if (children[i] == 0) {
      Fig4Child(shared, i, instrumented, arena_path);
      ::_exit(0);
    }
  }
  while (shared->ready.load() < kFig4Processes) {
    ::usleep(1000);
  }
  const MonoTime start = Now();
  shared->go.store(1, std::memory_order_release);
  const Duration duration = MeasureDuration(opts);
  ::usleep(static_cast<useconds_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(duration).count()));
  shared->stop.store(1, std::memory_order_relaxed);
  for (int i = 0; i < kFig4Processes; ++i) {
    ::waitpid(children[i], nullptr, 0);
  }
  const double elapsed =
      std::chrono::duration<double>(Now() - start).count();

  BenchSample sample;
  sample.label = instrumented ? "two_process_instrumented" : "two_process_uninstrumented";
  sample.threads = kFig4Processes;
  for (int i = 0; i < kFig4Processes; ++i) {
    sample.ops += shared->ops[i].load();
  }
  sample.elapsed_s = elapsed;
  sample.throughput_ops_s = elapsed > 0 ? static_cast<double>(sample.ops) / elapsed : 0;
  std::vector<std::uint64_t> latencies(
      shared->latencies_ns,
      shared->latencies_ns + std::min<std::uint32_t>(shared->latency_count.load(),
                                                     kFig4LatencySlots));
  sample.p50_ns = PercentileNs(latencies, 0.50);
  sample.p99_ns = PercentileNs(std::move(latencies), 0.99);
  if (instrumented) {
    ::unlink(arena_path.c_str());
  }
  ::munmap(shared, sizeof(Fig4Shared));
  return sample;
}

int RunFig4(const Options& opts) {
  BenchReport report;
  report.bench = "fig4";
  report.p99_budget_ns = P99BudgetNs(report.bench);
  report.config = {
      {"cpus", CpuCount()},
      {"workload", "two-process PROCESS_SHARED mutex victim + local fast path"},
      {"processes", std::to_string(kFig4Processes)},
      {"signatures", "64"},
      {"duration_ms", std::to_string(ToMillis(MeasureDuration(opts)))},
      {"latency_sample_every", std::to_string(kFig4SampleEvery)},
      {"mode", opts.quick ? "quick" : "full"},
  };
  const std::string arena_path = BenchJsonPath("fig4") + ".arena";

  // (a) The two-process victim shape: global locks, arena publishing on
  // every acquisition. Instrumented vs. uninstrumented is the cross-process
  // analogue of Figure 4's per-system overhead columns.
  const BenchSample uninstr = RunFig4TwoProcess(opts, /*instrumented=*/false, arena_path);
  report.samples.push_back(uninstr);
  std::printf("fig4 %-28s=%12.0f ops/s\n", uninstr.label.c_str(), uninstr.throughput_ops_s);
  const BenchSample instr = RunFig4TwoProcess(opts, /*instrumented=*/true, arena_path);
  report.samples.push_back(instr);
  std::printf("fig4 %-28s=%12.0f ops/s (%.1fx overhead)\n", instr.label.c_str(),
              instr.throughput_ops_s,
              instr.throughput_ops_s > 0 ? uninstr.throughput_ops_s / instr.throughput_ops_s
                                         : 0.0);
  report.p50_ns = instr.p50_ns;
  report.p99_ns = instr.p99_ns;
  report.throughput_ops_s = instr.throughput_ops_s;

  // (b) The guarantee the striped engine must keep: configuring an arena
  // does not touch the LOCAL lock fast path (same striped workload, with
  // and without DIMMUNIX_IPC). CI compares these two samples.
  const int local_threads = 8;
  for (const bool with_ipc : {false, true}) {
    Config config = InstrumentedConfig();
    if (with_ipc) {
      ::unlink(arena_path.c_str());
      config.ipc_path = arena_path;
    }
    Runtime rt(config);
    LoadSyntheticHistory(rt);
    WorkloadParams params = BaseParams(opts, local_threads);
    params.mode = WorkloadMode::kDimmunix;
    params.runtime = &rt;
    const WorkloadResult result = RunWorkload(params);
    const char* label = with_ipc ? "local_fastpath+ipc" : "local_fastpath";
    report.samples.push_back(ToSample(label, local_threads, result));
    std::printf("fig4 %-28s=%12.0f ops/s\n", label, result.ops_per_sec);
  }
  ::unlink(arena_path.c_str());

  const std::string path = opts.out.empty() ? BenchJsonPath("fig4") : opts.out;
  if (!report.WriteFile(path)) {
    std::fprintf(stderr, "benchjson: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: benchjson --bench fig4|fig5|fig8|all [--quick] [--out PATH]\n"
               "  --quick  CI smoke mode (fewer points, 250 ms per point)\n"
               "  --out    output path (default BENCH_<bench>.json in CWD)\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--bench" && i + 1 < argc) {
      opts.bench = argv[++i];
    } else if (arg == "--quick") {
      opts.quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      opts.out = argv[++i];
    } else {
      return Usage();
    }
  }
  if (opts.bench == "fig4") {
    return RunFig4(opts);
  }
  if (opts.bench == "fig5") {
    return RunFig5(opts);
  }
  if (opts.bench == "fig8") {
    return RunFig8(opts);
  }
  if (opts.bench == "all") {
    if (!opts.out.empty()) {
      std::fprintf(stderr, "benchjson: --out is incompatible with --bench all\n");
      return 2;
    }
    const int fig4 = RunFig4(opts);
    const int fig5 = RunFig5(opts);
    const int fig8 = RunFig8(opts);
    return fig4 != 0 ? fig4 : (fig5 != 0 ? fig5 : fig8);
  }
  return Usage();
}

}  // namespace
}  // namespace dimmunix

int main(int argc, char** argv) { return dimmunix::Main(argc, argv); }
