// The four workloads. Each fills a Result: with ctx.trace false the
// end-to-end metrics, with ctx.trace true the per-layer metrics.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "perfbench/common.h"
#include "perfbench/loop.h"

namespace perfbench {

struct Ctx {
  std::string inputs_file;
  std::string work;     // scratch directory of this run
  std::string self;     // this binary
  std::string victim;   // pb_victim
  std::string preload;  // libdimmunix_preload.so
  double seconds = 10;
  bool trace = false;
  int threads = 1;  // worker threads
  int tau_ms = 10;  // restart_immunize's DIMMUNIX_TAU_MS
  Inputs in;
};

// Set-up repetitions per timed run; setup_s is their median. The one in the
// middle is followed by the timed phase, so the set-ups straddle it and a
// momentary state of the host does not set the median.
inline constexpr int kSetups = 21;
inline constexpr int kTimedSetup = kSetups / 2;

void RunPreloadSteady(const Ctx& c, Result& r);
void RunAvoidContended(const Ctx& c, Result& r);
void RunSharedProcs(const Ctx& c, Result& r);
void RunRestartImmunize(const Ctx& c, Result& r);
// A shared_procs child process (argv after "shared-child").
int SharedChildMain(int argc, char** argv);

// ops_per_s and the latency and run-time percentiles are medians over the
// windows of the timed phase (a tail percentile pools the windows when one
// holds fewer than ten samples beyond it). setup_s and immunize_s are
// medians of the set-up repetitions.
void SetEndToEnd(Result& r, const WindowedSamples& w, const std::vector<double>& setup_s,
                 const std::vector<double>& immunize_s);
// The windowed samples a victim or child process wrote.
WindowedSamples WindowedFromKv(const KvFile& kv);
// Adds another process's windows, window by window.
void MergeWindows(const WindowedSamples& from, WindowedSamples* into);
// Fails the run when the lock-guarded counters lost increments.
void CheckCounters(Result& r, std::uint64_t counter_sum, std::uint64_t ops, const char* where);

// The hot-loop lock set: kLocks mutexes and their guarded counters.
struct LockSet {
  pthread_mutex_t mutex[kLocks];
  std::atomic<std::uint64_t> counter[kLocks];

  void Init(bool process_shared);
  std::uint64_t TakeSum();  // returns the counters' sum and zeroes them
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
