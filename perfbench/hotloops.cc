// preload_steady and avoid_contended, plus the helpers every workload uses.

#include <filesystem>
#include <memory>

#include "perfbench/layers.h"
#include "perfbench/workloads.h"

namespace perfbench {

namespace {

// Percentile q of the samples in each of the n windows (window ids in
// `win`). Returns the median over windows when every window holds at least
// ten samples beyond q, else the percentile of all of them pooled.
double WindowedPct(const std::vector<std::int64_t>& v, const std::vector<std::int64_t>& win,
                   std::size_t n, double q, std::int64_t* count) {
  std::vector<std::vector<std::int64_t>> by(n);
  std::vector<std::int64_t> pooled;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (static_cast<std::size_t>(win[i]) < n) {
      by[static_cast<std::size_t>(win[i])].push_back(v[i]);
      pooled.push_back(v[i]);
    }
  }
  *count = static_cast<std::int64_t>(pooled.size());
  std::vector<double> per;
  for (const auto& b : by) {
    if (static_cast<double>(b.size()) * (1 - q) < 10) {
      return Pct(pooled, q);
    }
    per.push_back(Pct(b, q));
  }
  return MedianOf(per);
}

}  // namespace

void SetEndToEnd(Result& r, const WindowedSamples& w, const std::vector<double>& setup_s,
                 const std::vector<double>& immunize_s) {
  const std::size_t n = w.win_ops.size();
  if (n == 0) {
    r.Fail("the timed phase closed no measurement window");
  }
  std::vector<double> rate;
  for (std::size_t k = 0; k < n; ++k) {
    rate.push_back(static_cast<double>(w.win_ops[k]) * 1e9 / static_cast<double>(w.win_ns[k]));
  }
  std::int64_t lat = 0;
  std::int64_t runs = 0;
  r.Set("ops_per_s", MedianOf(rate), "1/s");
  r.Set("acquire_p50_ns", WindowedPct(w.lat, w.lat_win, n, 0.50, &lat), "ns");
  r.Set("acquire_p99_ns", WindowedPct(w.lat, w.lat_win, n, 0.99, &lat), "ns");
  r.Set("run_p50_ms", WindowedPct(w.jobs, w.jobs_win, n, 0.50, &runs) / 1e6, "ms");
  r.Set("run_p90_ms", WindowedPct(w.jobs, w.jobs_win, n, 0.90, &runs) / 1e6, "ms");
  r.Set("setup_s", MedianOf(setup_s), "s");
  r.Set("immunize_s", MedianOf(immunize_s), "s");
  r.samples["windows"] = static_cast<std::int64_t>(n);
  r.samples["acquire"] = lat;
  r.samples["run"] = runs;
  r.samples["setup"] = static_cast<std::int64_t>(setup_s.size());
  r.samples["immunize"] = static_cast<std::int64_t>(immunize_s.size());
}

WindowedSamples WindowedFromKv(const KvFile& kv) {
  WindowedSamples w;
  w.win_ops = kv.List("win_ops");
  w.win_ns = kv.List("win_ns");
  w.lat = kv.List("lat");
  w.lat_win = kv.List("lat_win");
  w.jobs = kv.List("jobs");
  w.jobs_win = kv.List("jobs_win");
  return w;
}

void MergeWindows(const WindowedSamples& from, WindowedSamples* into) {
  if (into->win_ops.empty()) {
    *into = from;
    return;
  }
  const std::size_t n = std::min(into->win_ops.size(), from.win_ops.size());
  into->win_ops.resize(n);
  into->win_ns.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    into->win_ops[k] += from.win_ops[k];
  }
  into->lat.insert(into->lat.end(), from.lat.begin(), from.lat.end());
  into->lat_win.insert(into->lat_win.end(), from.lat_win.begin(), from.lat_win.end());
  into->jobs.insert(into->jobs.end(), from.jobs.begin(), from.jobs.end());
  into->jobs_win.insert(into->jobs_win.end(), from.jobs_win.begin(), from.jobs_win.end());
}

void CheckCounters(Result& r, std::uint64_t counter_sum, std::uint64_t ops, const char* where) {
  if (counter_sum != ops) {
    r.Fail(std::string(where) + ": guarded counters sum to " + std::to_string(counter_sum) +
               " after " + std::to_string(ops) + " ops (mutual exclusion broken)",
           counter_sum > ops ? counter_sum - ops : ops - counter_sum);
  }
}

void LockSet::Init(bool process_shared) {
  pthread_mutexattr_t attr;
  pthread_mutexattr_init(&attr);
  if (process_shared) {
    pthread_mutexattr_setpshared(&attr, PTHREAD_PROCESS_SHARED);
  }
  for (int i = 0; i < kLocks; ++i) {
    pthread_mutex_init(&mutex[i], &attr);
    counter[i].store(0);
  }
  pthread_mutexattr_destroy(&attr);
}

std::uint64_t LockSet::TakeSum() {
  std::uint64_t sum = 0;
  for (auto& c : counter) {
    sum += c.exchange(0);
  }
  return sum;
}

namespace {

double Seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

// Runs `spec` for `seconds` and checks its counters; returns the loop result.
LoopOut CheckedLoop(Result& r, const LoopSpec& spec, LockSet& locks, int threads, double seconds,
                    const char* phase) {
  LoopOut out = RunLoop(spec, threads, seconds);
  CheckCounters(r, locks.TakeSum(), out.merged.ops + out.merged.warm_ops, phase);
  r.attempted += out.merged.ops + out.merged.warm_ops;
  r.failed += out.merged.failed;
  return out;
}

double OpsPerS(const LoopOut& out) {
  return static_cast<double>(out.merged.ops) / Seconds(out.elapsed_ns);
}

// The traced and untraced phases of a library-linked loop on one fresh
// runtime: per-layer metrics of `spec`'s path (engine counters since the
// runtime was built, so the history load's work counts), trace.overhead_frac
// and the residual of the untraced lock-call median over `lock_call_spans`.
void TracedPhases(Result& r, const dimmunix::Config& config, LoopSpec spec, LockSet& locks,
                  int threads, double seconds, double untraced_p50,
                  std::initializer_list<SpanId> lock_call_spans) {
  dimmunix::Runtime rt(config);
  spec.rt = &rt;
  spec.traced = true;
  const LoopOut traced = CheckedLoop(r, spec, locks, threads, seconds, "traced");
  const Counters counters = ReadCounters(rt);
  spec.traced = false;
  const LoopOut plain = CheckedLoop(r, spec, locks, threads, seconds, "untraced twin");
  const bool native = spec.stack == StackKind::kNative;
  SetSpanMetrics(r, traced.merged, native);
  SetCounterMetrics(r, counters, traced.merged.ops + traced.merged.warm_ops, Seconds(traced.elapsed_ns));
  r.Set("stack.distinct", static_cast<double>(rt.stacks().size()), "count");
  r.Set("trace.overhead_frac", 1.0 - OpsPerS(traced) / OpsPerS(plain), "frac");
  if (untraced_p50 <= 0) {
    untraced_p50 = Pct(plain.merged.lat, 0.5);
  }
  r.info["untraced_acquire_p50_ns"] = Str(untraced_p50);
  r.Set("interpose.residual_ns", untraced_p50 - SpanP50Sum(traced.merged, lock_call_spans), "ns");
}

dimmunix::Config LibraryConfig(const std::string& history) {
  dimmunix::Config config;
  config.history_path = history;
  return config;
}

// --- preload_steady: the unmodified victim under the shim ---------------------

KvFile RunSteadyVictim(const Ctx& c, Result& r, const std::string& history, bool preloaded,
                       double seconds, bool setup_only) {
  const std::string out = c.work + "/steady_victim.out";
  std::filesystem::remove(out);
  std::vector<std::string> argv = {c.victim,
                                   "steady",
                                   c.inputs_file,
                                   out,
                                   std::to_string(NowNs()),
                                   std::to_string(c.threads),
                                   Str(seconds)};
  if (setup_only) {
    argv.push_back("setup-only");
  }
  std::vector<std::string> env;
  if (preloaded) {
    env = {"LD_PRELOAD=" + c.preload, "DIMMUNIX_HISTORY=" + history};
  }
  const int pid = Spawn(argv, env);
  const bool ok = WaitOrKill(pid, static_cast<std::int64_t>((seconds + 60) * 1e9));
  KvFile kv = ReadKv(out);
  if (!ok || !kv.Has("done")) {
    r.Fail(std::string("steady victim ") + (preloaded ? "(preloaded)" : "(native)") +
           " did not finish cleanly");
    return kv;
  }
  const auto total = static_cast<std::uint64_t>(kv.Num("total_ops"));
  CheckCounters(r, static_cast<std::uint64_t>(kv.Num("counter_sum")), total, "steady victim");
  r.attempted += total;
  return kv;
}

double KvOpsPerS(const KvFile& kv) {
  const double elapsed = kv.Num("elapsed_ns") / 1e9;
  return elapsed > 0 ? kv.Num("ops") / elapsed : 0;
}

}  // namespace

void RunPreloadSteady(const Ctx& c, Result& r) {
  const std::string history = c.work + "/steady.hist";
  if (!WriteSyntheticHistory(history, c.in.history_seed)) {
    r.Fail("cannot write the synthetic history");
    return;
  }
  r.info["history_signatures"] = std::to_string(CountSignatures(history));
  if (!c.trace) {
    std::vector<double> setup;
    std::vector<double> immunize;
    KvFile timed;
    for (int rep = 0; rep < kSetups; ++rep) {
      const bool is_timed = rep == kTimedSetup;
      const KvFile kv = RunSteadyVictim(c, r, history, true, is_timed ? c.seconds : 0, !is_timed);
      setup.push_back(kv.Num("setup_ns") / 1e9);
      immunize.push_back(kv.Num("first_return_ns") / 1e9);
      if (is_timed) {
        timed = kv;
      }
    }
    SetEndToEnd(r, WindowedFromKv(timed), setup, immunize);
    return;
  }
  const double phase = c.seconds / 4;
  const KvFile native = RunSteadyVictim(c, r, history, false, phase, false);
  const KvFile shim = RunSteadyVictim(c, r, history, true, phase, false);
  r.Set("native.ops_per_s", KvOpsPerS(native), "1/s");
  r.Set("interpose.first_call_ms", shim.Num("first_call_ns") / 1e6, "ms");
  r.info["preloaded_ops_per_s"] = Str(KvOpsPerS(shim));

  auto locks = std::make_unique<LockSet>();
  locks->Init(false);
  LoopSpec spec;
  spec.stack = StackKind::kNative;
  spec.locks = locks->mutex;
  spec.counters = locks->counter;
  spec.in = &c.in;
  TracedPhases(r, LibraryConfig(history), spec, *locks, c.threads, phase,
               Pct(shim.List("lat"), 0.5), {kCapture, kIntern, kRequest, kLock, kCommit});
  PersistProbe(r, history, c.work);
  DetectProbe(r, c.in, StackKind::kNative, c.work);
  IpcProbe(r, c.work);
}

// --- avoid_contended: §7.2.2 shape, library-linked, annotated stacks -----------

void RunAvoidContended(const Ctx& c, Result& r) {
  const std::string history = c.work + "/avoid.hist";
  if (!WriteSyntheticHistory(history, c.in.history_seed)) {
    r.Fail("cannot write the synthetic history");
    return;
  }
  r.info["history_signatures"] = std::to_string(CountSignatures(history));
  const auto annotations = AnnotatedPaths(c.in.paths);
  auto locks = std::make_unique<LockSet>();
  locks->Init(false);
  LoopSpec spec;
  spec.stack = StackKind::kAnnotated;
  spec.locks = locks->mutex;
  spec.counters = locks->counter;
  spec.in = &c.in;
  spec.annotations = &annotations;
  spec.window_s = c.seconds / kWindows;
  const dimmunix::Config config = LibraryConfig(history);

  if (!c.trace) {
    std::vector<double> setup;
    std::vector<double> immunize;
    WindowedSamples timed;
    for (int rep = 0; rep < kSetups; ++rep) {
      const bool is_timed = rep == kTimedSetup;
      const std::int64_t start = NowNs();
      dimmunix::Runtime rt(config);
      spec.rt = &rt;
      ThreadOut first;
      DoOp(spec, first, 0, 0, true, false);
      immunize.push_back(Seconds(NowNs() - start));
      LoopOut out = RunLoop(spec, c.threads, is_timed ? c.seconds : 0);
      setup.push_back(Seconds(out.ready_ns - start));
      CheckCounters(r, locks->TakeSum(), out.merged.ops + out.merged.warm_ops + 1, "avoid loop");
      r.attempted += out.merged.ops + out.merged.warm_ops + 1;
      r.failed += out.merged.failed + first.failed;
      if (is_timed) {
        r.info["yields"] = std::to_string(ReadCounters(rt)[kYields]);
        timed = std::move(out.windowed);
      }
    }
    SetEndToEnd(r, timed, setup, immunize);
    return;
  }
  const double phase = c.seconds / 3;
  LoopSpec raw = spec;
  raw.rt = nullptr;
  r.Set("native.ops_per_s", OpsPerS(CheckedLoop(r, raw, *locks, c.threads, phase, "native")),
        "1/s");
  {
    dimmunix::Runtime rt(config);
    spec.rt = &rt;
    ThreadOut first;
    DoOp(spec, first, 0, 0, true, false);
    locks->TakeSum();
    r.Set("interpose.first_call_ms", static_cast<double>(first.lat.at(0)) / 1e6, "ms");
  }
  TracedPhases(r, config, spec, *locks, c.threads, phase, 0, {kRequest, kLock});
  PersistProbe(r, history, c.work);
  DetectProbe(r, c.in, StackKind::kAnnotated, c.work);
  IpcProbe(r, c.work);
}

}  // namespace perfbench
