// Seeded native call towers, the generated-input file and the measurement
// windows, shared by the unmodified victim (victim.cc, no dimmunix linkage)
// and the library-linked loop (loop.cc).
//
// A Path names one function per tower level plus a lock-site function, so
// walking it builds a real native call stack of kTowerLevels + 1 distinct
// frames above the lock call. The benchmark driver (run.py) draws the paths
// from --seed; programs only read them back, so the set of distinct stacks
// is bounded by the input and identical in the victim and the twin.

#ifndef PERFBENCH_TOWERS_H_
#define PERFBENCH_TOWERS_H_

#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline constexpr int kTowerLevels = 9;  // tower frames above the site frame
inline constexpr int kBranching = 3;    // distinct functions per level
inline constexpr int kSites = 8;        // distinct site functions
inline constexpr int kLocks = 8;        // mutexes in the hot-loop lock set
inline constexpr int kSampleEvery = 16; // latency sample rate (power of two)
inline constexpr int kJobOps = 512;     // ops per timed job on a hot loop
inline constexpr int kWindows = 10;     // windows per timed phase

struct Path {
  std::array<int, kTowerLevels> choice{};  // choice[l]: function at level l
  int site = 0;
};

// Everything run.py generated from the seed.
struct Inputs {
  std::vector<Path> paths;                  // hot-loop / filler call paths
  std::vector<std::pair<int, int>> schedule; // (path, lock) per op, cycled
  std::vector<std::pair<Path, Path>> bugs;   // restart: per bug site, in run order
  std::uint32_t history_seed = 0;            // synthetic-history generator seed
};

inline bool ReadPath(std::FILE* f, Path* p) {
  for (int& c : p->choice) {
    if (std::fscanf(f, "%d", &c) != 1 || c < 0 || c >= kBranching) {
      return false;
    }
  }
  return std::fscanf(f, "%d", &p->site) == 1 && p->site >= 0 && p->site < kSites;
}

// Format (whitespace-separated integers):
//   P  then P paths (kTowerLevels choices + site)
//   M  then M (path, lock) pairs
//   K  then K pairs of paths (first thread, second thread)
//   history_seed
inline bool ReadInputs(const char* file, Inputs* in) {
  std::FILE* f = std::fopen(file, "r");
  if (f == nullptr) {
    return false;
  }
  bool ok = true;
  int n = 0;
  ok = ok && std::fscanf(f, "%d", &n) == 1 && n > 0 && n <= 65536;
  for (int i = 0; ok && i < n; ++i) {
    Path p;
    ok = ReadPath(f, &p);
    in->paths.push_back(p);
  }
  ok = ok && std::fscanf(f, "%d", &n) == 1 && n > 0 && n <= (1 << 20);
  for (int i = 0; ok && i < n; ++i) {
    int path = 0;
    int lock = 0;
    ok = std::fscanf(f, "%d %d", &path, &lock) == 2 && path >= 0 &&
         path < static_cast<int>(in->paths.size()) && lock >= 0 && lock < kLocks;
    in->schedule.emplace_back(path, lock);
  }
  ok = ok && std::fscanf(f, "%d", &n) == 1 && n >= 0 && n <= kSites;
  for (int i = 0; ok && i < n; ++i) {
    std::pair<Path, Path> bug;
    ok = ReadPath(f, &bug.first) && ReadPath(f, &bug.second);
    in->bugs.push_back(bug);
  }
  ok = ok && std::fscanf(f, "%u", &in->history_seed) == 1;
  std::fclose(f);
  return ok;
}

// "key n v1 .. vn": how the programs write a list of samples.
inline std::string ListLine(const std::string& key, const std::vector<std::int64_t>& v) {
  std::string s = key + " " + std::to_string(v.size());
  for (std::int64_t x : v) {
    s += " " + std::to_string(x);
  }
  return s;
}

inline std::int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// δin: a busy hold, as in the paper's microbenchmark.
inline void SpinNs(std::int64_t ns) {
  const std::int64_t until = NowNs() + ns;
  while (NowNs() < until) {
  }
}

// --- Bug sites -------------------------------------------------------------------
//
// An AB-BA bug site forces its deadlock interleaving with timing, not with a
// barrier (a barrier would turn an avoidance yield into induced
// starvation): both threads take their first lock at a common start time,
// which leaves room for thread start-up, and request their second lock
// kBugGapNs later.

inline constexpr std::int64_t kBugLeadNs = 2'000'000;
inline constexpr std::int64_t kBugGapNs = 5'000'000;

inline void SleepUntil(std::int64_t t_ns) {
  const timespec at{static_cast<time_t>(t_ns / 1000000000), static_cast<long>(t_ns % 1000000000)};
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &at, nullptr) != 0) {
  }
}

// --- Windows -------------------------------------------------------------------
//
// A timed closed loop is cut into windows so the benchmark can report the
// median window: a burst of interference on the host then moves one window,
// not the run's figure. The timing thread closes a window by advancing
// `epoch`; each worker notices at its next op and marks where its counters
// stood.

struct WindowMark {
  std::uint64_t ops;
  std::size_t lat;   // latency samples so far
  std::size_t jobs;  // job times so far
};

struct Windows {
  std::atomic<int> epoch{0};
  std::vector<std::int64_t> closed_at;  // timing thread only

  // Worker side: call after every op, and once more after the loop ends.
  void Mark(int* seen, std::uint64_t ops, std::size_t lat, std::size_t jobs,
            std::vector<WindowMark>* marks) const {
    const int now = epoch.load(std::memory_order_relaxed);
    for (; *seen < now; ++*seen) {
      marks->push_back({ops, lat, jobs});
    }
  }

  // Timing side: runs from `start` until `stop_at` (or, with `stop` non-null,
  // until *stop is set), closing a window every `window_ns`.
  template <typename StopFlag>
  void Run(std::int64_t start, std::int64_t stop_at, std::int64_t window_ns, const StopFlag* stop) {
    std::int64_t next = start + window_ns;
    for (;;) {
      const std::int64_t now = NowNs();
      if (now >= next) {
        closed_at.push_back(now);
        epoch.fetch_add(1, std::memory_order_relaxed);
        next += window_ns;
      }
      if (stop != nullptr ? stop->load() != 0 : now >= stop_at) {
        return;
      }
      timespec nap{0, 200'000};
      nanosleep(&nap, nullptr);
    }
  }
};

// Per-window ops and durations, and the window of every latency sample and
// job, from the workers' marks. Only windows every worker marked count.
struct WindowedSamples {
  std::vector<std::int64_t> win_ops;
  std::vector<std::int64_t> win_ns;
  std::vector<std::int64_t> lat, lat_win;
  std::vector<std::int64_t> jobs, jobs_win;
};

inline void AddWorker(const std::vector<WindowMark>& marks, const std::vector<std::int64_t>& lat,
                      const std::vector<std::int64_t>& jobs, WindowedSamples* out) {
  for (std::size_t w = 0, lat_from = 0, jobs_from = 0; w < marks.size(); ++w) {
    for (std::size_t i = lat_from; i < marks[w].lat; ++i) {
      out->lat.push_back(lat[i]);
      out->lat_win.push_back(static_cast<std::int64_t>(w));
    }
    for (std::size_t i = jobs_from; i < marks[w].jobs; ++i) {
      out->jobs.push_back(jobs[i]);
      out->jobs_win.push_back(static_cast<std::int64_t>(w));
    }
    lat_from = marks[w].lat;
    jobs_from = marks[w].jobs;
  }
}

// Window sizes from every worker's marks and the window close times.
inline void AddWindows(const std::vector<std::vector<WindowMark>>& marks, std::int64_t start,
                       const std::vector<std::int64_t>& closed_at, WindowedSamples* out) {
  std::size_t n = closed_at.size();
  for (const auto& m : marks) {
    n = std::min(n, m.size());
  }
  for (std::size_t w = 0; w < n; ++w) {
    std::int64_t ops = 0;
    for (const auto& m : marks) {
      ops += static_cast<std::int64_t>(m[w].ops - (w > 0 ? m[w - 1].ops : 0));
    }
    out->win_ops.push_back(ops);
    out->win_ns.push_back(closed_at[w] - (w > 0 ? closed_at[w - 1] : start));
  }
}

// --- The tower -----------------------------------------------------------------

using Leaf = void (*)(void* ctx);

struct Walk {
  const Path* path;
  Leaf leaf;
  void* ctx;
};

using StepFn = void (*)(const Walk&);

// Written by every tower function: distinct stores keep identical-looking
// functions apart and the calls out of tail position, so each level keeps
// its own frame.
inline volatile int g_tower_sink = 0;

StepFn LevelStep(int level, int choice);
StepFn SiteStep(int site);

template <int S>
[[gnu::noinline]] void SiteFn(const Walk& w) {
  g_tower_sink = 1000 + S;
  w.leaf(w.ctx);
  g_tower_sink = 2000 + S;
}

template <int L, int C>
[[gnu::noinline]] void LevelFn(const Walk& w) {
  g_tower_sink = L * kBranching + C;
  if constexpr (L == 0) {
    SiteStep(w.path->site)(w);
  } else {
    LevelStep(L - 1, w.path->choice[L - 1])(w);
  }
  g_tower_sink = -(L * kBranching + C);
}

template <int L, std::size_t... C>
constexpr std::array<StepFn, kBranching> LevelRow(std::index_sequence<C...>) {
  return {&LevelFn<L, static_cast<int>(C)>...};
}

template <std::size_t... L>
constexpr std::array<std::array<StepFn, kBranching>, kTowerLevels> LevelTable(
    std::index_sequence<L...>) {
  return {LevelRow<static_cast<int>(L)>(std::make_index_sequence<kBranching>())...};
}

template <std::size_t... S>
constexpr std::array<StepFn, kSites> SiteTable(std::index_sequence<S...>) {
  return {&SiteFn<static_cast<int>(S)>...};
}

inline constexpr auto kLevelTable = LevelTable(std::make_index_sequence<kTowerLevels>());
inline constexpr auto kSiteTable = SiteTable(std::make_index_sequence<kSites>());

inline StepFn LevelStep(int level, int choice) { return kLevelTable[level][choice]; }
inline StepFn SiteStep(int site) { return kSiteTable[site]; }

// Calls `leaf(ctx)` at the bottom of `path`'s tower.
inline void WalkPath(const Path& path, Leaf leaf, void* ctx) {
  const Walk w{&path, leaf, ctx};
  LevelStep(kTowerLevels - 1, path.choice[kTowerLevels - 1])(w);
}

}  // namespace perfbench

#endif  // PERFBENCH_TOWERS_H_
