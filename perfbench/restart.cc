// restart_immunize: the paper's lifecycle on fresh exec'd victims sharing
// one history under the shim. Runs on an empty history until one completes
// every bug site (each deadlocked run is killed once its signature is on
// disk: restart-based recovery), then times immunized runs.

#include <sys/stat.h>

#include <filesystem>
#include <memory>
#include <set>
#include <thread>

#include "perfbench/layers.h"
#include "perfbench/workloads.h"
#include "src/persist/file.h"

namespace perfbench {
namespace {

constexpr std::int64_t kRunTimeoutNs = 5'000'000'000;
constexpr int kImmunizations = 9;
constexpr double kImmunizedShare = 0.9;  // of --seconds; the other immunizations follow
constexpr int kMinImmunizedRuns = 100;  // p90 with >= 10 runs beyond it

struct VictimRun {
  bool completed = false;   // exited 0 after every site
  bool deadlocked = false;  // killed after a new signature reached the disk
  std::int64_t wall_ns = 0;
  std::int64_t visible_ns = 0;
  KvFile kv;
};

// Signature count of a history file, re-read only when the snapshot or the
// journal changed on disk, so polling stays cheap beside the victim.
class HistoryWatch {
 public:
  explicit HistoryWatch(std::string history) : history_(std::move(history)) {}
  int Count() {
    const std::string stamp = Stamp(history_) + "/" + Stamp(history_ + ".journal");
    if (stamp != stamp_) {
      stamp_ = stamp;
      count_ = CountSignatures(history_);
    }
    return count_;
  }

 private:
  static std::string Stamp(const std::string& path) {
    struct stat st {};
    if (::stat(path.c_str(), &st) != 0) {
      return "-";
    }
    return std::to_string(st.st_size) + ":" + std::to_string(st.st_mtim.tv_sec) + "." +
           std::to_string(st.st_mtim.tv_nsec) + ":" + std::to_string(st.st_ino);
  }
  std::string history_;
  std::string stamp_;
  int count_ = 0;
};

// Runs one victim. With `known` >= 0 the history is polled and the run is
// killed as soon as it holds more than `known` signatures.
VictimRun RunVictim(const Ctx& c, const std::string& history, bool preloaded, int known) {
  const std::string out = c.work + "/restart_victim.out";
  std::filesystem::remove(out);
  std::vector<std::string> argv = {c.victim, "restart", c.inputs_file, out};
  std::vector<std::string> env;
  if (preloaded) {
    env = {"LD_PRELOAD=" + c.preload, "DIMMUNIX_HISTORY=" + history,
           "DIMMUNIX_TAU_MS=" + std::to_string(c.tau_ms)};
  } else {
    argv.push_back("serial");
  }
  VictimRun run;
  const std::int64_t t0 = NowNs();
  argv.insert(argv.begin() + 4, std::to_string(t0));
  const int pid = Spawn(argv, env);
  HistoryWatch watch(history);
  for (;;) {
    bool ok = false;
    if (Reaped(pid, &ok)) {
      run.wall_ns = NowNs() - t0;
      run.kv = ReadKv(out);
      run.completed = ok && run.kv.Has("done");
      return run;
    }
    if (known >= 0 && watch.Count() > known) {
      run.visible_ns = NowNs();
      KillAndReap(pid);
      run.wall_ns = run.visible_ns - t0;
      run.deadlocked = true;
      run.kv = ReadKv(out);
      return run;
    }
    if (NowNs() - t0 > kRunTimeoutNs) {
      KillAndReap(pid);
      run.wall_ns = NowNs() - t0;
      run.kv = ReadKv(out);
      return run;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(250));
  }
}

int LastSite(const KvFile& kv) {
  int site = -1;
  for (const auto& [key, values] : kv.all) {
    if (key == "site" && !values.empty()) {
      site = std::atoi(values[0].c_str());  // multimap keeps insertion order per key
    }
  }
  return site;
}

std::int64_t LaterSecondCall(const KvFile& kv, int site) {
  std::int64_t later = 0;
  auto [lo, hi] = kv.all.equal_range("second");
  for (auto it = lo; it != hi; ++it) {
    if (it->second.size() == 3 && std::atoi(it->second[0].c_str()) == site) {
      later = std::max<std::int64_t>(later, std::strtoll(it->second[2].c_str(), nullptr, 10));
    }
  }
  return later;
}

int SitesDone(const KvFile& kv) { return static_cast<int>(kv.all.count("site_done")); }

// Runs on an empty history until a run completes every site with all K
// signatures on disk. A run that completes with fewer only missed the
// forced interleaving at some site (the host descheduled a thread for
// longer than the gap), so the next run tries that site again. Returns the
// wall time, or -1 on failure.
double Immunize(const Ctx& c, Result& r, const std::string& history,
                std::vector<double>* detect_ms) {
  const int k = static_cast<int>(c.in.bugs.size());
  dimmunix::persist::RemoveHistoryFiles(history);
  std::set<int> deadlocked;
  int known = 0;
  const std::int64_t start = NowNs();
  const int max_runs = 3 * k + 2;
  for (int run = 0; run < max_runs; ++run) {
    const VictimRun v = RunVictim(c, history, true, known);
    ++r.attempted;
    if (v.completed) {
      if (SitesDone(v.kv) != k) {
        r.Fail("immunizing run exited without completing every site");
        return -1;
      }
      const int count = CountSignatures(history);
      if (count > k) {
        r.Fail("false signature: history holds " + std::to_string(count) + ", expected " +
               std::to_string(k));
        return -1;
      }
      if (count == k) {
        return static_cast<double>(NowNs() - start) / 1e9;
      }
      continue;
    }
    if (!v.deadlocked) {
      r.Fail("immunizing run hung without producing a signature");
      return -1;
    }
    const int site = LastSite(v.kv);
    if (!deadlocked.insert(site).second) {
      r.Fail("deadlocked again on site " + std::to_string(site) + " whose signature is on disk");
    }
    const int count = CountSignatures(history);
    if (count != known + 1) {
      r.Fail("one deadlock added " + std::to_string(count - known) + " signatures");
    }
    known = count;
    const std::int64_t second = LaterSecondCall(v.kv, site);
    if (second > 0) {
      detect_ms->push_back(static_cast<double>(v.visible_ns - second) / 1e6);
    }
  }
  r.Fail("no run learned all " + std::to_string(k) + " sites after " + std::to_string(max_runs) +
         " runs");
  return -1;
}

struct ImmunizedRuns {
  std::vector<std::int64_t> wall_ns;
  std::vector<std::int64_t> ops;
  std::vector<std::vector<std::int64_t>> lat;
  std::vector<double> setup_s;
  std::vector<std::int64_t> first_call_ns;

  std::vector<std::int64_t> AllLat() const {
    std::vector<std::int64_t> all;
    for (const auto& v : lat) {
      all.insert(all.end(), v.begin(), v.end());
    }
    return all;
  }
  double OpsPerS() const {
    double ops_sum = 0;
    double ns_sum = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      ops_sum += static_cast<double>(ops[i]);
      ns_sum += static_cast<double>(wall_ns[i]);
    }
    return ns_sum > 0 ? ops_sum * 1e9 / ns_sum : 0;
  }
  // Consecutive runs grouped into kWindows windows; a run is one job.
  WindowedSamples Windowed() const {
    WindowedSamples w;
    const std::size_t n = wall_ns.size();
    w.win_ops.assign(std::min<std::size_t>(n, kWindows), 0);
    w.win_ns.assign(w.win_ops.size(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t k = i * w.win_ops.size() / n;
      w.win_ops[k] += ops[i];
      w.win_ns[k] += wall_ns[i];
      w.jobs.push_back(wall_ns[i]);
      w.jobs_win.push_back(static_cast<std::int64_t>(k));
      for (std::int64_t x : lat[i]) {
        w.lat.push_back(x);
        w.lat_win.push_back(static_cast<std::int64_t>(k));
      }
    }
    return w;
  }
};

void RunImmunized(const Ctx& c, Result& r, const std::string& history, bool preloaded,
                  int min_runs, double budget_s, ImmunizedRuns* out) {
  const int k = static_cast<int>(c.in.bugs.size());
  const std::int64_t start = NowNs();
  for (int i = 0; i < 2000; ++i) {
    if (i >= min_runs && static_cast<double>(NowNs() - start) / 1e9 > budget_s) {
      break;
    }
    const VictimRun v = RunVictim(c, history, preloaded, -1);
    ++r.attempted;
    if (!v.completed || SitesDone(v.kv) != k) {
      r.Fail(std::string(v.deadlocked ? "immunized run deadlocked on a known site"
                                      : "immunized run hung or failed"));
      continue;
    }
    CheckCounters(r, static_cast<std::uint64_t>(v.kv.Num("counter_sum")),
                  static_cast<std::uint64_t>(v.kv.Num("total_ops")), "restart victim");
    out->lat.push_back(v.kv.List("lat"));
    out->wall_ns.push_back(v.wall_ns);
    out->ops.push_back(static_cast<std::int64_t>(v.kv.Num("ops")));
    out->setup_s.push_back(v.kv.Num("first_return_ns") / 1e9);
    out->first_call_ns.push_back(static_cast<std::int64_t>(v.kv.Num("first_call_ns")));
  }
  if (preloaded && CountSignatures(history) != k) {
    r.Fail("false signature appeared during immunized runs");
  }
}

// The library-linked twin: in-process incarnations of the victim (filler
// ops, then every bug site), each on a fresh runtime over the twin's own
// history. Its stacks come from another binary than the victim's, so the
// first incarnation learns its own K signatures (each deadlocked site is
// released once its signature is on disk); the measured incarnations then
// run immune, alternately traced and untraced. Returns the summed span
// medians of the lock call.
double RunTwin(const Ctx& c, Result& r, double budget_s) {
  const std::string history = c.work + "/twin.hist";
  dimmunix::persist::RemoveHistoryFiles(history);
  dimmunix::Config config;
  config.history_path = history;
  config.monitor_period = std::chrono::milliseconds(c.tau_ms);
  auto locks = std::make_unique<LockSet>();
  locks->Init(false);
  ThreadOut traced;
  Counters delta{};
  double traced_s = 0;
  double plain_s = 0;
  int traced_n = 0;
  int plain_n = 0;
  std::uint64_t traced_ops = 0;
  double distinct = 0;
  const int k = static_cast<int>(c.in.bugs.size());
  const std::int64_t start = NowNs();
  for (int inc = 0; inc < 5000; ++inc) {
    const bool learning = inc == 0;
    if (inc >= 5 && static_cast<double>(NowNs() - start) / 1e9 > budget_s) {
      break;
    }
    const bool trace = inc % 2 == 1;
    const std::int64_t t0 = NowNs();
    dimmunix::Runtime rt(config);
    LoopSpec spec;
    spec.rt = &rt;
    spec.stack = StackKind::kNative;
    spec.traced = trace;
    spec.locks = locks->mutex;
    spec.counters = locks->counter;
    spec.in = &c.in;
    ThreadOut out;
    constexpr int kFiller = 1024;  // as the victim's filler
    for (int i = 0; i < kFiller; ++i) {
      const auto& [path, lock] = c.in.schedule[static_cast<std::size_t>(i) % c.in.schedule.size()];
      DoOp(spec, out, path, lock, i % kSampleEvery == kSampleEvery - 1, true);
    }
    CheckCounters(r, locks->TakeSum(), kFiller, "restart twin");
    std::uint64_t ops = kFiller;
    for (int b = 0; b < k; ++b) {
      const auto& bug = c.in.bugs[static_cast<std::size_t>(b)];
      if (learning) {
        // Until the site deadlocks once (a missed interleaving just retries).
        for (int attempt = 0; attempt < 3 && CountSignatures(history) == b; ++attempt) {
          RunBugSite(spec, bug, false, [&] { return CountSignatures(history) > b; });
        }
        if (CountSignatures(history) != b + 1) {
          r.Fail("restart twin: bug site " + std::to_string(b) + " was not learned");
        }
        continue;
      }
      const BugSiteOut site = RunBugSite(spec, bug, trace);
      if (site.hung) {
        r.Fail("restart twin: an immunized bug site hung");
      }
      out.failed += site.out.failed;
      out.spans.insert(out.spans.end(), site.out.spans.begin(), site.out.spans.end());
      ops += 4;
    }
    if (learning) {
      continue;
    }
    r.attempted += ops;
    r.failed += out.failed;
    const double wall = static_cast<double>(NowNs() - t0) / 1e9;
    if (trace) {
      const Counters d = ReadCounters(rt);  // since the runtime was built
      for (int i = 0; i < kNumCounters; ++i) {
        delta[i] += d[i];
      }
      traced.spans.insert(traced.spans.end(), out.spans.begin(), out.spans.end());
      traced.frames.insert(traced.frames.end(), out.frames.begin(), out.frames.end());
      traced.intern_miss.insert(traced.intern_miss.end(), out.intern_miss.begin(),
                                out.intern_miss.end());
      traced_s += wall;
      ++traced_n;
      traced_ops += ops;
      distinct = static_cast<double>(rt.stacks().size());
    } else {
      plain_s += wall;
      ++plain_n;
    }
  }
  SetSpanMetrics(r, traced, true);
  SetCounterMetrics(r, delta, traced_ops, traced_s);
  r.Set("stack.distinct", distinct, "count");
  // Same ops per incarnation, so the wall-time ratio is the ops_per_s ratio.
  r.Set("trace.overhead_frac", 1.0 - (plain_s / plain_n) / (traced_s / traced_n), "frac");
  return SpanP50Sum(traced, {kCapture, kIntern, kRequest, kLock, kCommit});
}

}  // namespace

void RunRestartImmunize(const Ctx& c, Result& r) {
  const std::string history = c.work + "/restart.hist";
  const int k = static_cast<int>(c.in.bugs.size());
  r.info["bug_sites"] = std::to_string(k);
  r.info["tau_ms"] = std::to_string(c.tau_ms);
  std::vector<double> detect_ms;
  const std::int64_t start = NowNs();
  if (!c.trace) {
    // One immunization learns the history the immunized runs use; the rest
    // follow them, so the immunizations straddle the run.
    std::vector<double> immunize_s;
    ImmunizedRuns runs;
    for (int i = 0; i < kImmunizations; ++i) {
      const double s = Immunize(c, r, history, &detect_ms);
      if (s < 0) {
        return;
      }
      immunize_s.push_back(s);
      if (i == 0) {
        const double left = c.seconds * kImmunizedShare - static_cast<double>(NowNs() - start) / 1e9;
        RunImmunized(c, r, history, true, kMinImmunizedRuns, left, &runs);
        r.info["history_signatures"] = std::to_string(CountSignatures(history));
      }
    }
    SetEndToEnd(r, runs.Windowed(), runs.setup_s, immunize_s);
    return;
  }
  if (Immunize(c, r, history, &detect_ms) < 0) {
    return;
  }
  r.Set("monitor.detect_ms", MedianOf(detect_ms), "ms");
  r.samples["monitor.detect"] = static_cast<std::int64_t>(detect_ms.size());
  ImmunizedRuns shim;
  RunImmunized(c, r, history, true, 20, 0, &shim);
  ImmunizedRuns native;
  RunImmunized(c, r, history, false, 10, 0, &native);
  r.Set("native.ops_per_s", native.OpsPerS(), "1/s");
  r.Set("interpose.first_call_ms", Pct(shim.first_call_ns, 0.5) / 1e6, "ms");
  const double left = c.seconds - static_cast<double>(NowNs() - start) / 1e9;
  const double spans = RunTwin(c, r, std::max(left - 1.0, 0.5));
  const double untraced_p50 = Pct(shim.AllLat(), 0.5);
  r.info["untraced_acquire_p50_ns"] = Str(untraced_p50);
  r.Set("interpose.residual_ns", untraced_p50 - spans, "ns");
  PersistProbe(r, history, c.work);
  IpcProbe(r, c.work);
}

}  // namespace perfbench
