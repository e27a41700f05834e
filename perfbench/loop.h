// The in-process lock loop: library-linked workloads, the library-linked
// twins of the preloaded victims, and the raw-lock references. With
// tracing on, every kSampleEvery-th op records one span per public call it
// makes into the library, in memory.

#ifndef PERFBENCH_LOOP_H_
#define PERFBENCH_LOOP_H_

#include <pthread.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "perfbench/towers.h"
#include "src/core/runtime.h"

namespace perfbench {

// How an op's call stack reaches the engine.
enum class StackKind {
  kAnnotated,  // the path's frames are pushed as annotations (no backtrace)
  kNative,     // the twin: the path is walked natively, captured with
               // CaptureNativeStack, interned, pushed as annotations
};

enum SpanId {
  kGlobalId,          // ipc::GlobalIdForSharedAddress
  kCapture,           // CaptureNativeStack (native twins)
  kAnnotate,          // pushing the captured frames as annotations
  kCaptureAnnotated,  // CaptureStack on an annotated stack
  kIntern,            // StackTable::Intern (hit)
  kRequest,           // Runtime::BeginAcquire
  kLock,              // raw pthread_mutex_lock
  kCommit,            // AcquireOp::Commit
  kRelease,           // Runtime::EndRelease
  kUnlock,            // raw pthread_mutex_unlock
  kNumSpans
};
extern const char* const kSpanNames[kNumSpans];
using SpanRow = std::array<std::int64_t, kNumSpans>;

struct LoopSpec {
  dimmunix::Runtime* rt = nullptr;  // null: raw locks only (the reference)
  StackKind stack = StackKind::kAnnotated;
  bool shared = false;  // lock ids from the global-ID resolver
  bool traced = false;
  pthread_mutex_t* locks = nullptr;               // kLocks mutexes
  std::atomic<std::uint64_t>* counters = nullptr;  // one per mutex
  int fixed_lock = -1;  // >= 0: every op takes this lock
  const Inputs* in = nullptr;
  // Per path, outermost first: the annotated frames of its tower.
  const std::vector<std::vector<dimmunix::Frame>>* annotations = nullptr;
  // External start/stop (a child process driven through shared memory);
  // null: start when warm, stop after `seconds`.
  const std::atomic<int>* go = nullptr;
  const std::atomic<int>* stop = nullptr;
  double window_s = 1.0;  // timed-phase window length
};

struct ThreadOut {
  std::uint64_t ops = 0;       // timed ops
  std::uint64_t warm_ops = 0;  // set-up ops
  std::uint64_t failed = 0;    // kBroken / kTimedOut decisions, aborted locks
  std::vector<std::int64_t> lat;   // sampled lock-call times
  std::vector<std::int64_t> jobs;  // time per kJobOps ops
  std::vector<SpanRow> spans;      // traced ops
  std::vector<std::int64_t> intern_miss;  // first-sighting Intern calls (traced warm-up)
  std::vector<std::int64_t> frames;       // captured frames per traced op
  std::vector<WindowMark> marks;          // where the counters stood at each window
};

struct LoopOut {
  ThreadOut merged;
  WindowedSamples windowed;
  std::int64_t ready_ns = 0;    // all workers warm
  std::int64_t elapsed_ns = 0;  // timed phase
};

// One op's state while it runs through LockCall / UnlockCall.
struct OpState {
  const LoopSpec* spec = nullptr;
  ThreadOut* out = nullptr;
  bool sample = false;  // time the lock call
  bool trace = false;   // record spans
  bool warm = false;    // set-up op (traced: time first-sighting interns)
  SpanRow row{};
  std::int64_t mark = 0;
  std::int64_t lock_begin = 0;
  std::size_t pushed = 0;
  dimmunix::LockId id = 0;
};

// The lock-call half of one op on `m`: [global id] [native capture, intern,
// push] [traced: annotated capture + intern] BeginAcquire, raw lock, Commit.
// With `abort`, the raw lock waits in slices and gives up (Cancel, false)
// once *abort is set — how a deliberately deadlocked probe thread leaves.
bool LockCall(OpState& s, pthread_mutex_t* m, const std::atomic<bool>* abort = nullptr);
// The release half: EndRelease, raw unlock, pop what LockCall pushed.
void UnlockCall(OpState& s, pthread_mutex_t* m);

// One op of the loop: walk `path`'s tower, lock `lock`, hold δin, unlock.
void DoOp(const LoopSpec& spec, ThreadOut& out, int path, int lock, bool sample, bool warm);

// Starts `threads` workers; each walks every path once (set-up), then runs
// the closed loop over the schedule for `seconds` (0: set-up only).
// `on_ready` runs once every worker is warm.
LoopOut RunLoop(const LoopSpec& spec, int threads, double seconds,
                const std::function<void()>& on_ready = {});

// Annotated frames of every path, in the synthetic-history naming scheme.
std::vector<std::vector<dimmunix::Frame>> AnnotatedPaths(const std::vector<Path>& paths);

}  // namespace perfbench

#endif  // PERFBENCH_LOOP_H_
