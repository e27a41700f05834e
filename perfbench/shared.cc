// shared_procs: the fig4 two-process shape. Each exec'd child locks its own
// PTHREAD_PROCESS_SHARED mutex in a file-backed shared mapping, resolving
// the lock id with ipc::GlobalIdForSharedAddress before every
// Runtime::BeginAcquire, with the IPC arena configured.

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>

#include "perfbench/layers.h"
#include "perfbench/workloads.h"
#include "src/ipc/global_id.h"

namespace perfbench {
namespace {

constexpr int kProcesses = 2;

struct SharedBlock {
  LockSet locks;
  std::atomic<int> ready{0};
  std::atomic<int> go{0};
  std::atomic<int> stop{0};
};

SharedBlock* MapBlock(const std::string& file, bool create) {
  const int fd = ::open(file.c_str(), create ? O_RDWR | O_CREAT | O_TRUNC : O_RDWR, 0644);
  if (fd < 0) {
    return nullptr;
  }
  if (create && ::ftruncate(fd, sizeof(SharedBlock)) != 0) {
    ::close(fd);
    return nullptr;
  }
  void* mem = ::mmap(nullptr, sizeof(SharedBlock), PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  return mem == MAP_FAILED ? nullptr : static_cast<SharedBlock*>(mem);
}

struct Phase {
  std::vector<KvFile> children;
  double elapsed_s = 0;
};

// One run of both children: `mode` is "native" (raw locks) or "lib".
Phase RunChildren(const Ctx& c, Result& r, SharedBlock* block, const std::string& mode,
                  bool traced, double seconds) {
  block->ready.store(0);
  block->go.store(0);
  block->stop.store(0);
  std::filesystem::remove(c.work + "/arena");
  std::vector<int> pids;
  std::vector<std::string> outs;
  for (int i = 0; i < kProcesses; ++i) {
    outs.push_back(c.work + "/shared_child" + std::to_string(i) + ".out");
    std::filesystem::remove(outs.back());
    pids.push_back(Spawn({c.self, "shared-child", c.inputs_file, c.work, std::to_string(i), mode,
                          traced ? "1" : "0", Str(seconds / kWindows), std::to_string(NowNs()),
                          outs.back()},
                         {}));
  }
  Phase phase;
  const std::int64_t deadline = NowNs() + 120'000'000'000;
  bool alive = true;
  while (block->ready.load() < kProcesses && alive && NowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    for (int pid : pids) {
      bool ok = false;
      if (Reaped(pid, &ok)) {
        alive = false;  // a child left before it was ready
      }
    }
  }
  const std::int64_t start = NowNs();
  block->go.store(1);
  if (alive && block->ready.load() == kProcesses) {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }
  block->stop.store(1);
  phase.elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  std::uint64_t total = 0;
  for (int i = 0; i < kProcesses; ++i) {
    const bool ok = WaitOrKill(pids[static_cast<std::size_t>(i)], 60'000'000'000);
    phase.children.push_back(ReadKv(outs[static_cast<std::size_t>(i)]));
    const KvFile& kv = phase.children.back();
    if (!ok || !kv.Has("done")) {
      r.Fail("shared_procs child " + std::to_string(i) + " (" + mode + ") failed");
    }
    total += static_cast<std::uint64_t>(kv.Num("total_ops"));
    r.failed += static_cast<std::uint64_t>(kv.Num("failed"));
  }
  CheckCounters(r, block->locks.TakeSum(), total, "shared_procs");
  r.attempted += total;
  return phase;
}

std::vector<std::int64_t> Gather(const Phase& p, const std::string& key) {
  std::vector<std::int64_t> all;
  for (const KvFile& kv : p.children) {
    const auto v = kv.List(key);
    all.insert(all.end(), v.begin(), v.end());
  }
  return all;
}

double Sum(const Phase& p, const std::string& key) {
  double s = 0;
  for (const KvFile& kv : p.children) {
    s += kv.Num(key);
  }
  return s;
}

std::vector<double> Scaled(const std::vector<std::int64_t>& v, double by) {
  std::vector<double> out;
  for (std::int64_t x : v) {
    out.push_back(static_cast<double>(x) / by);
  }
  return out;
}

// The children's traced ops, rebuilt from their span columns.
ThreadOut TracedOut(const Phase& p) {
  ThreadOut t;
  for (const KvFile& kv : p.children) {
    std::vector<std::vector<std::int64_t>> cols;
    for (int s = 0; s < kNumSpans; ++s) {
      cols.push_back(kv.List(std::string("span_") + kSpanNames[s]));
    }
    for (std::size_t i = 0; i < cols[0].size(); ++i) {
      SpanRow row{};
      for (int s = 0; s < kNumSpans; ++s) {
        row[s] = i < cols[s].size() ? cols[s][i] : 0;
      }
      t.spans.push_back(row);
    }
    const auto miss = kv.List("intern_miss");
    t.intern_miss.insert(t.intern_miss.end(), miss.begin(), miss.end());
  }
  return t;
}

}  // namespace

void RunSharedProcs(const Ctx& c, Result& r) {
  const std::string history = c.work + "/shared.hist";
  if (!WriteSyntheticHistory(history, c.in.history_seed)) {
    r.Fail("cannot write the synthetic history");
    return;
  }
  SharedBlock* block = MapBlock(c.work + "/shared.shm", true);
  if (block == nullptr) {
    r.Fail("cannot map the shared block");
    return;
  }
  new (block) SharedBlock();
  block->locks.Init(true);
  r.info["processes"] = std::to_string(kProcesses);
  r.info["threads_per_process"] = "1";
  r.info["history_signatures"] = std::to_string(CountSignatures(history));
  if (!c.trace) {
    // Every set-up is a fresh pair of exec'd children; one of them is timed.
    std::vector<double> setup;
    std::vector<double> immunize;
    WindowedSamples timed;
    for (int rep = 0; rep < kSetups; ++rep) {
      const bool is_timed = rep == kTimedSetup;
      const Phase p = RunChildren(c, r, block, "lib", false, is_timed ? c.seconds : 0);
      for (double s : Scaled(Gather(p, "setup_ns"), 1e9)) {
        setup.push_back(s);
      }
      for (double s : Scaled(Gather(p, "immunize_ns"), 1e9)) {
        immunize.push_back(s);
      }
      for (const KvFile& kv : p.children) {
        if (is_timed) {
          MergeWindows(WindowedFromKv(kv), &timed);
        }
      }
    }
    SetEndToEnd(r, timed, setup, immunize);
  } else {
    const double third = c.seconds / 3;
    const Phase native = RunChildren(c, r, block, "native", false, third);
    const Phase traced = RunChildren(c, r, block, "lib", true, third);
    const Phase plain = RunChildren(c, r, block, "lib", false, third);
    r.Set("native.ops_per_s", Sum(native, "ops") / native.elapsed_s, "1/s");
    r.Set("interpose.first_call_ms", Pct(Gather(plain, "first_call_ns"), 0.5) / 1e6, "ms");
    const ThreadOut spans = TracedOut(traced);
    SetSpanMetrics(r, spans, false);
    Counters delta{};
    for (int i = 0; i < kNumCounters; ++i) {
      delta[i] = static_cast<std::uint64_t>(Sum(traced, std::string("ctr_") + kCounterNames[i]));
    }
    SetCounterMetrics(r, delta, static_cast<std::uint64_t>(Sum(traced, "total_ops")),
                      traced.elapsed_s);
    r.Set("stack.distinct", Pct(Gather(traced, "distinct"), 0.5), "count");
    r.Set("ipc.global_id_ns", SpanPct(spans, kGlobalId, 0.5), "ns");
    const double hits = Sum(traced, "gid_hits");
    const double misses = Sum(traced, "gid_misses");
    r.Set("ipc.id_cache_hit_frac", hits + misses > 0 ? hits / (hits + misses) : 0, "frac");
    const double traced_rate = Sum(traced, "ops") / traced.elapsed_s;
    const double plain_rate = Sum(plain, "ops") / plain.elapsed_s;
    r.Set("trace.overhead_frac", 1.0 - traced_rate / plain_rate, "frac");
    const double untraced_p50 = Pct(Gather(plain, "plain_lat"), 0.5);
    r.info["untraced_acquire_p50_ns"] = Str(untraced_p50);
    r.Set("interpose.residual_ns", untraced_p50 - SpanP50Sum(spans, {kRequest, kLock}), "ns");
    PersistProbe(r, history, c.work);
    DetectProbe(r, c.in, StackKind::kAnnotated, c.work);
  }
  ::munmap(block, sizeof(SharedBlock));
}

// argv: INPUTS WORK INDEX MODE TRACED WINDOW_S T0_NS OUT. Sets up (runtime,
// history load, warm-up), reports ready, runs between the parent's go and stop.
int SharedChildMain(int argc, char** argv) {
  if (argc != 8) {
    return 2;
  }
  Inputs in;
  if (!ReadInputs(argv[0], &in)) {
    return 2;
  }
  const std::string work = argv[1];
  const int index = std::atoi(argv[2]);
  const bool library = std::string(argv[3]) == "lib";
  const std::int64_t start = std::strtoll(argv[6], nullptr, 10);
  SharedBlock* block = MapBlock(work + "/shared.shm", false);
  if (block == nullptr) {
    return 2;
  }
  const auto annotations = AnnotatedPaths(in.paths);
  dimmunix::Config config;
  config.history_path = work + "/shared.hist";
  config.ipc_path = work + "/arena";
  const std::int64_t runtime_start = NowNs();
  std::unique_ptr<dimmunix::Runtime> rt;
  if (library) {
    rt = std::make_unique<dimmunix::Runtime>(config);
  }
  LoopSpec spec;
  spec.rt = rt.get();
  spec.stack = StackKind::kAnnotated;
  spec.shared = true;
  spec.traced = std::string(argv[4]) == "1";
  spec.locks = block->locks.mutex;
  spec.counters = block->locks.counter;
  spec.fixed_lock = index;
  spec.in = &in;
  spec.annotations = &annotations;
  spec.go = &block->go;
  spec.stop = &block->stop;
  spec.window_s = std::atof(argv[5]);

  ThreadOut first;
  DoOp(spec, first, 0, 0, true, false);
  const std::int64_t immunized = NowNs() - runtime_start;
  dimmunix::ipc::GlobalIdCacheStats ids_before{};
  const LoopOut loop = RunLoop(spec, 1, 0, [&] {
    ids_before = dimmunix::ipc::GlobalIdCacheCounters();
    block->ready.fetch_add(1);
  });
  const ThreadOut& m = loop.merged;
  std::string out;
  out += "ops " + std::to_string(m.ops) + "\n";
  out += "total_ops " + std::to_string(m.ops + m.warm_ops + 1) + "\n";
  out += "failed " + std::to_string(m.failed + first.failed) + "\n";
  out += "setup_ns 1 " + std::to_string(loop.ready_ns - start) + "\n";
  out += "immunize_ns 1 " + std::to_string(immunized) + "\n";
  out += "first_call_ns 1 " + std::to_string(first.lat.empty() ? 0 : first.lat[0]) + "\n";
  const WindowedSamples& w = loop.windowed;
  const std::pair<const char*, const std::vector<std::int64_t>*> lists[] = {
      {"lat", &w.lat},           {"lat_win", &w.lat_win}, {"jobs", &w.jobs},
      {"jobs_win", &w.jobs_win}, {"win_ops", &w.win_ops}, {"win_ns", &w.win_ns},
      {"plain_lat", &m.lat},     {"intern_miss", &m.intern_miss}};
  for (const auto& [key, list] : lists) {
    out += ListLine(key, *list) + "\n";
  }
  for (int s = 0; s < kNumSpans; ++s) {
    std::vector<std::int64_t> col;
    for (const SpanRow& row : m.spans) {
      col.push_back(row[s]);
    }
    out += ListLine(std::string("span_") + kSpanNames[s], col) + "\n";
  }
  if (rt) {
    const Counters d = ReadCounters(*rt);  // since the runtime was built
    for (int i = 0; i < kNumCounters; ++i) {
      out += std::string("ctr_") + kCounterNames[i] + " " + std::to_string(d[i]) + "\n";
    }
    out += "distinct 1 " + std::to_string(rt->stacks().size()) + "\n";
  }
  const dimmunix::ipc::GlobalIdCacheStats ids = dimmunix::ipc::GlobalIdCacheCounters();
  out += "gid_hits " + std::to_string(ids.hits - ids_before.hits) + "\n";
  out += "gid_misses " + std::to_string(ids.misses - ids_before.misses) + "\n";
  out += "done 1\n";
  std::ofstream(argv[7]) << out;
  rt.reset();
  ::munmap(block, sizeof(SharedBlock));
  return 0;
}

}  // namespace perfbench
