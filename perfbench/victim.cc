// pb_victim — the benchmark's unmodified pthreads program. It has no
// dimmunix linkage: the benchmark runs it natively and under
// LD_PRELOAD=libdimmunix_preload.so.
//
//   pb_victim steady  INPUTS OUT T0_NS THREADS SECONDS [setup-only] [no-lock]
//   pb_victim restart INPUTS OUT T0_NS [serial]
//
// steady:  THREADS workers lock the kLocks process-private mutexes in the
//          seeded (path, lock) schedule, closed loop, δin = 1 µs, δout = 0.
//          Every path is walked once per worker before timing starts, so
//          the distinct stacks are warm. `setup-only` exits once warm;
//          `no-lock` skips the mutex (the counter check's self-test).
// restart: the main thread does kFillerOps ordinary lock ops, then runs
//          the bug sites in input order. Each site is an AB-BA pair of
//          threads forced into the deadlock interleaving by timing (see
//          towers.h). `serial` runs the two threads one after the other —
//          the native reference, which cannot deadlock.
//
// T0_NS is the CLOCK_MONOTONIC time the parent took just before exec, so
// set-up times include process start. Results go to OUT as "key value"
// lines; restart's per-site progress lines are written as they happen,
// because a deadlocked run is killed.

#include <fcntl.h>
#include <pthread.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/towers.h"

namespace perfbench {
namespace {

constexpr int kFillerOps = 1024;
constexpr std::int64_t kHoldNs = 1000;         // δin

struct LockSet {
  pthread_mutex_t mutex[kLocks];
  // Guarded by mutex[i]; updated with a load, a hold and a store (not an
  // atomic add), so a lock that fails to exclude loses increments.
  std::atomic<std::uint64_t> counter[kLocks];
  bool use_lock = true;
};

LockSet g_set;
std::atomic<std::uint64_t> g_sample_tick{0};  // restart: process-wide sampling
int g_out = -1;

void Emit(const std::string& line) {
  const std::string s = line + "\n";
  if (::write(g_out, s.data(), s.size()) != static_cast<ssize_t>(s.size())) {
    std::_Exit(3);
  }
}

struct OpCtx {
  int lock = 0;
  bool sample = false;
  std::int64_t begin_ns = 0;  // set when sampling
  std::int64_t end_ns = 0;
};

void LockLeaf(void* p) {
  auto* op = static_cast<OpCtx*>(p);
  if (op->sample) {
    op->begin_ns = NowNs();
  }
  if (g_set.use_lock) {
    pthread_mutex_lock(&g_set.mutex[op->lock]);
  }
  if (op->sample) {
    op->end_ns = NowNs();
  }
  const std::uint64_t v = g_set.counter[op->lock].load(std::memory_order_relaxed);
  SpinNs(kHoldNs);
  g_set.counter[op->lock].store(v + 1, std::memory_order_relaxed);
  if (g_set.use_lock) {
    pthread_mutex_unlock(&g_set.mutex[op->lock]);
  }
}

void EmitCounters(std::uint64_t ops) {
  std::uint64_t sum = 0;
  for (auto& c : g_set.counter) {
    sum += c.load();
  }
  Emit("total_ops " + std::to_string(ops));
  Emit("counter_sum " + std::to_string(sum));
}

// --- steady ---------------------------------------------------------------------

struct SteadyWorker {
  std::uint64_t ops = 0;  // timed ops
  std::uint64_t warm_ops = 0;
  std::vector<std::int64_t> lat;
  std::vector<std::int64_t> jobs;
  std::vector<WindowMark> marks;
};

int RunSteady(const Inputs& in, std::int64_t t0, int threads, double seconds, bool setup_only) {
  // The process's first lock: under the shim this call builds the runtime.
  OpCtx first{0, true};
  WalkPath(in.paths[0], &LockLeaf, &first);

  std::atomic<int> warmed{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<SteadyWorker> work(static_cast<std::size_t>(threads));
  Windows windows;
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      SteadyWorker& w = work[static_cast<std::size_t>(t)];
      for (std::size_t i = 0; i < in.paths.size(); ++i) {
        OpCtx op{static_cast<int>(i % kLocks), false};
        WalkPath(in.paths[i], &LockLeaf, &op);
        ++w.warm_ops;
      }
      warmed.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      const std::size_t m = in.schedule.size();
      std::size_t at = m * static_cast<std::size_t>(t) / static_cast<std::size_t>(threads);
      std::int64_t job_start = NowNs();
      int seen = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto& [path, lock] = in.schedule[at];
        at = at + 1 == m ? 0 : at + 1;
        OpCtx op{lock, (w.ops & (kSampleEvery - 1)) == 0};
        WalkPath(in.paths[static_cast<std::size_t>(path)], &LockLeaf, &op);
        if (op.sample) {
          w.lat.push_back(op.end_ns - op.begin_ns);
        }
        if (++w.ops % kJobOps == 0) {
          const std::int64_t now = NowNs();
          w.jobs.push_back(now - job_start);
          job_start = now;
        }
        windows.Mark(&seen, w.ops, w.lat.size(), w.jobs.size(), &w.marks);
      }
      windows.Mark(&seen, w.ops, w.lat.size(), w.jobs.size(), &w.marks);
    });
  }
  while (warmed.load() < threads) {
    std::this_thread::yield();
  }
  const std::int64_t ready = NowNs();
  if (setup_only) {
    stop.store(true);
  }
  go.store(true, std::memory_order_release);
  const std::int64_t start = NowNs();
  if (!setup_only) {
    const std::atomic<int>* no_stop = nullptr;
    windows.Run(start, start + static_cast<std::int64_t>(seconds * 1e9),
                static_cast<std::int64_t>(seconds * 1e9 / kWindows), no_stop);
    stop.store(true);
  }
  for (auto& th : pool) {
    th.join();
  }
  const std::int64_t elapsed = NowNs() - start;

  std::uint64_t ops = 0;
  std::uint64_t all_ops = 1;  // the first lock
  WindowedSamples windowed;
  std::vector<std::vector<WindowMark>> marks;
  for (const SteadyWorker& w : work) {
    ops += w.ops;
    all_ops += w.ops + w.warm_ops;
    AddWorker(w.marks, w.lat, w.jobs, &windowed);
    marks.push_back(w.marks);
  }
  AddWindows(marks, start, windows.closed_at, &windowed);
  Emit("threads " + std::to_string(threads));
  Emit("first_call_ns " + std::to_string(first.end_ns - first.begin_ns));
  Emit("first_return_ns " + std::to_string(first.end_ns - t0));
  Emit("setup_ns " + std::to_string(ready - t0));
  Emit("ops " + std::to_string(ops));
  Emit("elapsed_ns " + std::to_string(elapsed));
  EmitCounters(all_ops);
  Emit(ListLine("lat", windowed.lat));
  Emit(ListLine("lat_win", windowed.lat_win));
  Emit(ListLine("jobs", windowed.jobs));
  Emit(ListLine("jobs_win", windowed.jobs_win));
  Emit(ListLine("win_ops", windowed.win_ops));
  Emit(ListLine("win_ns", windowed.win_ns));
  Emit("done 1");
  return 0;
}

// --- restart --------------------------------------------------------------------

pthread_mutex_t g_bug_mutex[kSites][2] = {};

struct BugCtx {
  int site = 0;
  int role = 0;  // 0: locks [0] then [1]; 1: the reverse
  std::int64_t start_ns = 0;
  std::vector<std::int64_t> lat;
};

void TimedLock(pthread_mutex_t* m, std::vector<std::int64_t>* lat) {
  const bool sample = (g_sample_tick.fetch_add(1) & (kSampleEvery - 1)) == 0;
  const std::int64_t begin = sample ? NowNs() : 0;
  pthread_mutex_lock(m);
  if (sample) {
    lat->push_back(NowNs() - begin);
  }
}

void BugLeaf(void* p) {
  auto* b = static_cast<BugCtx*>(p);
  pthread_mutex_t* first = &g_bug_mutex[b->site][b->role];
  pthread_mutex_t* second = &g_bug_mutex[b->site][1 - b->role];
  SleepUntil(b->start_ns);
  TimedLock(first, &b->lat);
  SleepUntil(b->start_ns + kBugGapNs);
  Emit("second " + std::to_string(b->site) + " " + std::to_string(b->role) + " " +
       std::to_string(NowNs()));
  TimedLock(second, &b->lat);
  pthread_mutex_unlock(second);
  pthread_mutex_unlock(first);
}

int RunRestart(const Inputs& in, std::int64_t t0, bool serial) {
  for (auto& site : g_bug_mutex) {
    for (auto& m : site) {
      pthread_mutex_init(&m, nullptr);
    }
  }
  std::vector<std::int64_t> lat;
  // The process's first lock: under the shim this call builds the runtime.
  // It is reported on its own, not as a latency sample.
  OpCtx first{in.schedule[0].second, true};
  WalkPath(in.paths[static_cast<std::size_t>(in.schedule[0].first)], &LockLeaf, &first);
  Emit("first_call_ns " + std::to_string(first.end_ns - first.begin_ns));
  Emit("first_return_ns " + std::to_string(first.end_ns - t0));
  g_sample_tick.store(1);
  for (int i = 1; i < kFillerOps; ++i) {
    const auto& [path, lock] = in.schedule[static_cast<std::size_t>(i) % in.schedule.size()];
    OpCtx op{lock, (g_sample_tick.fetch_add(1) & (kSampleEvery - 1)) == 0};
    WalkPath(in.paths[static_cast<std::size_t>(path)], &LockLeaf, &op);
    if (op.sample) {
      lat.push_back(op.end_ns - op.begin_ns);
    }
  }
  std::uint64_t ops = kFillerOps;
  for (std::size_t k = 0; k < in.bugs.size(); ++k) {
    const auto& [path_a, path_b] = in.bugs[k];
    Emit("site " + std::to_string(path_a.site));
    BugCtx a{path_a.site, 0, NowNs() + kBugLeadNs, {}};
    BugCtx b{path_a.site, 1, a.start_ns, {}};
    std::thread ta([&] { WalkPath(path_a, &BugLeaf, &a); });
    if (serial) {
      ta.join();
      b.start_ns = NowNs() + kBugLeadNs;
    }
    std::thread tb([&] { WalkPath(path_b, &BugLeaf, &b); });
    if (!serial) {
      ta.join();
    }
    tb.join();
    ops += 4;
    lat.insert(lat.end(), a.lat.begin(), a.lat.end());
    lat.insert(lat.end(), b.lat.begin(), b.lat.end());
    Emit("site_done " + std::to_string(path_a.site));
  }
  Emit("ops " + std::to_string(ops));
  EmitCounters(kFillerOps);
  Emit(ListLine("lat", lat));
  Emit("done 1");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 5) {
    std::fprintf(stderr, "usage: see the header of victim.cc\n");
    return 2;
  }
  const std::string mode = argv[1];
  Inputs in;
  if (!ReadInputs(argv[2], &in)) {
    std::fprintf(stderr, "pb_victim: bad inputs %s\n", argv[2]);
    return 2;
  }
  g_out = ::open(argv[3], O_WRONLY | O_CREAT | O_TRUNC | O_APPEND, 0644);
  if (g_out < 0) {
    return 2;
  }
  const std::int64_t t0 = std::strtoll(argv[4], nullptr, 10);
  const bool steady = mode == "steady" && argc >= 7;
  bool setup_only = false;
  bool serial = false;
  for (int i = steady ? 7 : 5; i < argc; ++i) {
    const std::string flag = argv[i];
    setup_only |= flag == "setup-only";
    serial |= flag == "serial";
    if (flag == "no-lock") {
      g_set.use_lock = false;
    }
  }
  for (auto& m : g_set.mutex) {
    pthread_mutex_init(&m, nullptr);
  }
  if (steady) {
    return RunSteady(in, t0, std::atoi(argv[5]), std::atof(argv[6]), setup_only);
  }
  if (mode == "restart") {
    return RunRestart(in, t0, serial);
  }
  std::fprintf(stderr, "pb_victim: bad mode\n");
  return 2;
}
