#include "perfbench/layers.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <filesystem>
#include <thread>

#include "src/benchlib/synth_history.h"
#include "src/ipc/global_id.h"
#include "src/persist/file.h"
#include "src/stack/annotation.h"

namespace perfbench {

const char* const kCounterNames[kNumCounters] = {
    "requests", "yields",    "wakes",  "yield_timeouts", "retries",      "epochs",
    "epoch_stall_ns", "slow_path", "events", "batches", "arena_writes",
};

Counters ReadCounters(dimmunix::Runtime& rt) {
  const dimmunix::EngineStatsSnapshot e = rt.engine().stats().Snapshot();
  const dimmunix::MonitorStatsSnapshot m = rt.monitor().stats().Snapshot();
  Counters c{};
  c[kRequests] = e.requests;
  c[kYields] = e.yields;
  c[kWakes] = e.wakes;
  c[kYieldTimeouts] = e.yield_timeouts;
  c[kRetries] = e.match_fast_retries;
  c[kEpochs] = e.epoch_entries;
  c[kEpochStallNs] = e.epoch_stall_ns;
  c[kSlowPath] = e.match_slow_path;
  c[kEvents] = m.events_processed;
  c[kBatches] = m.batches;
  if (rt.ipc_bridge() != nullptr) {
    c[kArenaWrites] = rt.ipc_bridge()->SnapshotStatus().flush_ops;
  }
  return c;
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::vector<std::int64_t> Column(const ThreadOut& traced, SpanId span) {
  std::vector<std::int64_t> v;
  v.reserve(traced.spans.size());
  for (const SpanRow& row : traced.spans) {
    v.push_back(row[span]);
  }
  return v;
}

}  // namespace

double SpanPct(const ThreadOut& traced, SpanId span, double q) {
  return Pct(Column(traced, span), q);
}

double SpanP50Sum(const ThreadOut& traced, std::initializer_list<SpanId> which) {
  double sum = 0;
  for (SpanId s : which) {
    sum += SpanPct(traced, s, 0.5);
  }
  return sum;
}

void SetSpanMetrics(Result& r, const ThreadOut& traced, bool native) {
  const SpanId capture = native ? kCapture : kCaptureAnnotated;
  const auto n = static_cast<std::int64_t>(traced.spans.size());
  r.Set("stack.capture_p50_ns", SpanPct(traced, capture, 0.5), "ns");
  r.Set("stack.capture_p99_ns", SpanPct(traced, capture, 0.99), "ns");
  r.Set("stack.capture_frames",
        native ? Pct(traced.frames, 0.5) : static_cast<double>(kTowerLevels + 1), "count");
  r.Set("stack.capture_annotated_ns", SpanPct(traced, kCaptureAnnotated, 0.5), "ns");
  r.Set("stack.intern_hit_ns", SpanPct(traced, kIntern, 0.5), "ns");
  r.Set("stack.intern_miss_ns", Pct(traced.intern_miss, 0.5), "ns");
  r.Set("core.request_p50_ns", SpanPct(traced, kRequest, 0.5), "ns");
  r.Set("core.request_p99_ns", SpanPct(traced, kRequest, 0.99), "ns");
  r.Set("core.commit_ns", SpanPct(traced, kCommit, 0.5), "ns");
  r.Set("core.release_ns", SpanPct(traced, kRelease, 0.5), "ns");
  for (int span = 0; span < kNumSpans; ++span) {
    r.info[std::string("span_p50_ns.") + kSpanNames[span]] =
        Str(SpanPct(traced, static_cast<SpanId>(span), 0.5));
  }
  r.samples["traced_ops"] = n;
  r.samples["stack.intern_miss"] = static_cast<std::int64_t>(traced.intern_miss.size());
}

void SetCounterMetrics(Result& r, const Counters& d, std::uint64_t ops, double seconds) {
  const double n = static_cast<double>(ops);
  r.Set("core.yields_per_op", Ratio(static_cast<double>(d[kYields]), n), "1/op");
  r.Set("core.wakes_per_yield",
        Ratio(static_cast<double>(d[kWakes]), static_cast<double>(d[kYields])), "1/yield");
  r.Set("core.yield_timeouts", static_cast<double>(d[kYieldTimeouts]), "count");
  r.Set("core.retries_per_op", Ratio(static_cast<double>(d[kRetries]), n), "1/op");
  r.Set("core.epochs", static_cast<double>(d[kEpochs]), "count");
  r.Set("core.epoch_stall_ns", static_cast<double>(d[kEpochStallNs]), "ns");
  r.Set("core.slow_path_per_op", Ratio(static_cast<double>(d[kSlowPath]), n), "1/op");
  r.Set("monitor.events_per_op", Ratio(static_cast<double>(d[kEvents]), n), "1/op");
  r.Set("monitor.batches_per_s", Ratio(static_cast<double>(d[kBatches]), seconds), "1/s");
  r.Set("ipc.arena_writes_per_op", Ratio(static_cast<double>(d[kArenaWrites]), n), "1/op");
  r.samples["counted_ops"] = static_cast<std::int64_t>(ops);
}

void PersistProbe(Result& r, const std::string& history, const std::string& work) {
  const std::string copy = work + "/persist.hist";
  dimmunix::persist::RemoveHistoryFiles(copy);
  std::filesystem::copy_file(history, copy, std::filesystem::copy_options::overwrite_existing);
  std::vector<double> load_ms;
  for (int i = 0; i < 21; ++i) {
    dimmunix::persist::HistoryImage image;
    const std::int64_t t = NowNs();
    dimmunix::persist::LoadHistoryFile(copy, &image);
    load_ms.push_back(static_cast<double>(NowNs() - t) / 1e6);
  }
  dimmunix::Config config;
  config.history_path = copy;
  dimmunix::Runtime rt(config);
  std::vector<double> save_ms;
  for (int i = 0; i < 11; ++i) {
    const std::int64_t t = NowNs();
    if (!rt.SaveHistoryNow()) {
      r.Fail("persist probe: SaveHistoryNow failed");
    }
    save_ms.push_back(static_cast<double>(NowNs() - t) / 1e6);
  }
  r.Set("persist.load_ms", MedianOf(load_ms), "ms");
  r.Set("persist.save_ms", MedianOf(save_ms), "ms");
  r.Set("signature.count", static_cast<double>(rt.history().size()), "count");
  r.samples["persist.load"] = static_cast<std::int64_t>(load_ms.size());
  r.samples["persist.save"] = static_cast<std::int64_t>(save_ms.size());
}

int CountSignatures(const std::string& history) {
  dimmunix::persist::HistoryImage image;
  dimmunix::persist::LoadOptions options;
  options.take_lock = false;
  dimmunix::persist::LoadHistoryFile(history, &image, options);
  return static_cast<int>(image.records.size());
}

namespace {

struct BugThread {
  const LoopSpec* spec;
  pthread_mutex_t* first;
  pthread_mutex_t* second;
  const std::atomic<bool>* abort;
  bool trace;
  std::int64_t start_ns;
  std::int64_t second_call_ns = 0;
  ThreadOut out;
};

OpState BugOp(BugThread* t) {
  OpState s;
  s.spec = t->spec;
  s.out = &t->out;
  s.sample = t->trace;
  s.trace = t->trace;
  return s;
}

void BugLeaf(void* p) {
  auto* t = static_cast<BugThread*>(p);
  OpState a = BugOp(t);
  SleepUntil(t->start_ns);
  if (!LockCall(a, t->first)) {
    return;
  }
  SleepUntil(t->start_ns + kBugGapNs);
  OpState b = BugOp(t);
  t->second_call_ns = NowNs();
  if (LockCall(b, t->second, t->abort)) {
    UnlockCall(b, t->second);
  }
  UnlockCall(a, t->first);
}

}  // namespace

BugSiteOut RunBugSite(const LoopSpec& spec, const std::pair<Path, Path>& bug, bool trace,
                      const std::function<bool()>& visible) {
  pthread_mutex_t m[2];
  pthread_mutex_init(&m[0], nullptr);
  pthread_mutex_init(&m[1], nullptr);
  std::atomic<bool> abort{false};
  std::atomic<int> finished{0};
  const Path* paths[2] = {&bug.first, &bug.second};
  const std::int64_t start = NowNs() + kBugLeadNs;
  BugThread threads[2] = {{&spec, &m[0], &m[1], &abort, trace, start, 0, {}},
                          {&spec, &m[1], &m[0], &abort, trace, start, 0, {}}};
  std::vector<std::thread> pool;
  for (int i = 0; i < 2; ++i) {
    pool.emplace_back([&, i] {
      if (spec.stack == StackKind::kNative) {
        WalkPath(*paths[i], &BugLeaf, &threads[i]);
      } else {
        const auto frames = AnnotatedPaths({*paths[i]});
        for (dimmunix::Frame f : frames[0]) {
          dimmunix::PushAnnotatedFrame(f);
        }
        BugLeaf(&threads[i]);
        for (std::size_t k = 0; k < frames[0].size(); ++k) {
          dimmunix::PopAnnotatedFrame();
        }
      }
      finished.fetch_add(1);
    });
  }
  BugSiteOut result;
  const std::int64_t deadline = NowNs() + 10'000'000'000;
  while (finished.load() < 2) {
    if (visible && visible()) {
      result.visible_ns = NowNs();
      break;
    }
    if (NowNs() > deadline) {
      result.hung = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  abort.store(true);
  for (auto& t : pool) {
    t.join();
  }
  result.second_call_ns = std::max(threads[0].second_call_ns, threads[1].second_call_ns);
  for (BugThread& t : threads) {
    result.out.failed += t.out.failed;
    result.out.lat.insert(result.out.lat.end(), t.out.lat.begin(), t.out.lat.end());
    result.out.spans.insert(result.out.spans.end(), t.out.spans.begin(), t.out.spans.end());
    result.out.frames.insert(result.out.frames.end(), t.out.frames.begin(), t.out.frames.end());
  }
  pthread_mutex_destroy(&m[0]);
  pthread_mutex_destroy(&m[1]);
  return result;
}

void DetectProbe(Result& r, const Inputs& in, StackKind stack, const std::string& work) {
  const std::string history = work + "/detect.hist";
  dimmunix::persist::RemoveHistoryFiles(history);
  dimmunix::Config config;
  config.history_path = history;
  dimmunix::Runtime rt(config);
  LoopSpec spec;
  spec.rt = &rt;
  spec.stack = stack;
  const BugSiteOut site = RunBugSite(spec, in.bugs.at(0), false,
                                     [&] { return CountSignatures(history) >= 1; });
  if (site.visible_ns == 0) {
    r.Fail("detect probe: no signature reached the disk");
    return;
  }
  r.Set("monitor.detect_ms", static_cast<double>(site.visible_ns - site.second_call_ns) / 1e6,
        "ms");
}

void IpcProbe(Result& r, const std::string& work) {
  const std::string file = work + "/ipc_probe.shm";
  const int fd = ::open(file.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0 || ::ftruncate(fd, 4096) != 0) {
    r.Fail("ipc probe: cannot create " + file);
    return;
  }
  void* mem = ::mmap(nullptr, 4096, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (mem == MAP_FAILED) {
    r.Fail("ipc probe: mmap failed");
    return;
  }
  auto* mutex = static_cast<pthread_mutex_t*>(mem);
  pthread_mutexattr_t attr;
  pthread_mutexattr_init(&attr);
  pthread_mutexattr_setpshared(&attr, PTHREAD_PROCESS_SHARED);
  pthread_mutex_init(mutex, &attr);
  pthread_mutexattr_destroy(&attr);
  dimmunix::ipc::InvalidateMapsCache();
  const dimmunix::ipc::GlobalIdCacheStats before = dimmunix::ipc::GlobalIdCacheCounters();
  std::vector<std::int64_t> ns;
  std::uint64_t sink = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::int64_t t = NowNs();
    sink ^= dimmunix::ipc::GlobalIdForSharedAddress(mutex);
    ns.push_back(NowNs() - t);
  }
  const dimmunix::ipc::GlobalIdCacheStats after = dimmunix::ipc::GlobalIdCacheCounters();
  ::munmap(mem, 4096);
  dimmunix::ipc::InvalidateMapsCache();
  if (sink == 0 && ns.empty()) {
    r.Fail("ipc probe: no resolutions");
  }
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  r.Set("ipc.global_id_ns", Pct(ns, 0.5), "ns");
  r.Set("ipc.id_cache_hit_frac", Ratio(hits, hits + misses), "frac");
  r.samples["ipc.global_id"] = static_cast<std::int64_t>(ns.size());
}

bool WriteSyntheticHistory(const std::string& path, std::uint32_t seed) {
  dimmunix::Config config;
  config.start_monitor = false;
  dimmunix::Runtime rt(config);
  dimmunix::SynthHistoryParams params;
  params.signatures = 64;
  params.signature_size = 2;
  params.stack_depth = kTowerLevels + 1;
  params.branching = kBranching;
  params.match_depth = 4;
  params.seed = seed;
  dimmunix::GenerateSyntheticHistory(&rt.history(), &rt.stacks(), params);
  dimmunix::persist::RemoveHistoryFiles(path);
  return rt.ExportHistoryTo(path);
}

}  // namespace perfbench
