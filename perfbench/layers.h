// Per-layer metrics: span summaries of the traced loop, engine/monitor
// counter ratios, and the layer probes a traced run makes around its
// workload (persistence, detection, global-ID resolution).

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <functional>
#include <string>
#include <utility>

#include "perfbench/common.h"
#include "perfbench/loop.h"

namespace perfbench {

// Engine, monitor and arena counters at one instant.
enum CounterId {
  kRequests,
  kYields,
  kWakes,
  kYieldTimeouts,
  kRetries,
  kEpochs,
  kEpochStallNs,
  kSlowPath,
  kEvents,
  kBatches,
  kArenaWrites,  // ops replayed into the IPC arena
  kNumCounters
};
extern const char* const kCounterNames[kNumCounters];
using Counters = std::array<std::uint64_t, kNumCounters>;
Counters ReadCounters(dimmunix::Runtime& rt);

// stack.*, core.request/commit/release and ipc.global_id_ns from the traced
// ops' spans. `native` selects which capture span is the workload's own.
void SetSpanMetrics(Result& r, const ThreadOut& traced, bool native);
// core.* ratios, monitor.events_per_op / batches_per_s, ipc.arena_writes_per_op.
void SetCounterMetrics(Result& r, const Counters& d, std::uint64_t ops, double seconds);
double SpanPct(const ThreadOut& traced, SpanId span, double q);
// Sum of the per-span medians of `spans` in `which`.
double SpanP50Sum(const ThreadOut& traced, std::initializer_list<SpanId> which);

// persist.load_ms (LoadHistoryFile of `history`), persist.save_ms
// (Runtime::SaveHistoryNow) and signature.count, on a copy in `work`.
void PersistProbe(Result& r, const std::string& history, const std::string& work);

// monitor.detect_ms: one AB-BA bug site from `in` on a fresh runtime with an
// empty history in `work`: the later thread's second-lock call -> the
// signature readable on disk.
void DetectProbe(Result& r, const Inputs& in, StackKind stack, const std::string& work);

// One AB-BA bug site on `spec`'s runtime: two threads walk `bug`'s paths,
// take their first lock at a common start and request the other's lock
// kBugGapNs later (towers.h).
// Returns when both finish, when `visible` (polled) turns true, or after
// 10 s (hung); the raw locks then give up.
struct BugSiteOut {
  std::int64_t second_call_ns = 0;  // the later thread's second-lock call
  std::int64_t visible_ns = 0;      // when `visible` turned true
  bool hung = false;
  ThreadOut out;  // lock-call samples and (with trace) spans
};
BugSiteOut RunBugSite(const LoopSpec& spec, const std::pair<Path, Path>& bug, bool trace,
                      const std::function<bool()>& visible = {});

// ipc.global_id_ns and ipc.id_cache_hit_frac on a file-backed shared mutex
// in `work`, for workloads whose path does not resolve global ids.
void IpcProbe(Result& r, const std::string& work);

// Number of signatures the history file (plus journal) holds now.
int CountSignatures(const std::string& history);

// A 64-signature, two-thread, depth-4 synthetic history (§7.2.2) over the
// tower naming scheme, written to `path`.
bool WriteSyntheticHistory(const std::string& path, std::uint32_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
