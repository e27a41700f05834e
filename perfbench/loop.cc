#include "perfbench/loop.h"

#include <time.h>

#include <cerrno>
#include <thread>

#include "src/benchlib/workload.h"
#include "src/ipc/global_id.h"
#include "src/stack/annotation.h"
#include "src/stack/capture.h"

namespace perfbench {

using dimmunix::AcquireMode;
using dimmunix::AcquireOp;
using dimmunix::Frame;

const char* const kSpanNames[kNumSpans] = {
    "global_id", "capture", "annotate", "capture_annotated", "intern",
    "request",   "lock",    "commit",   "release",           "unlock",
};

namespace {

constexpr std::int64_t kHoldNs = 1000;  // δin

void Mark(OpState& s, SpanId span) {
  if (s.trace) {
    const std::int64_t now = NowNs();
    s.row[span] = now - s.mark;
    s.mark = now;
  }
}

int RawLock(pthread_mutex_t* m, const std::atomic<bool>* abort) {
  if (abort == nullptr) {
    return pthread_mutex_lock(m);
  }
  for (;;) {
    timespec until{};
    clock_gettime(CLOCK_REALTIME, &until);
    until.tv_nsec += 5'000'000;
    if (until.tv_nsec >= 1'000'000'000) {
      until.tv_sec += 1;
      until.tv_nsec -= 1'000'000'000;
    }
    const int rc = pthread_mutex_timedlock(m, &until);
    if (rc != ETIMEDOUT || abort->load()) {
      return rc;
    }
  }
}

// Interns `frames`. During a traced run's set-up, a first sighting is timed
// as an intern miss.
void Intern(OpState& s, const std::vector<Frame>& frames) {
  dimmunix::StackTable& table = s.spec->rt->stacks();
  const bool time_miss = s.warm && s.spec->traced;
  const std::size_t before = time_miss ? table.size() : 0;
  const std::int64_t start = time_miss ? NowNs() : 0;
  table.Intern(frames);
  if (time_miss && table.size() > before) {
    s.out->intern_miss.push_back(NowNs() - start);
  }
  Mark(s, kIntern);
}

}  // namespace

bool LockCall(OpState& s, pthread_mutex_t* m, const std::atomic<bool>* abort) {
  const LoopSpec& spec = *s.spec;
  dimmunix::Runtime* rt = spec.rt;
  if (s.trace) {
    s.mark = NowNs();
  }
  if (rt == nullptr) {
    s.lock_begin = s.sample ? NowNs() : 0;
    RawLock(m, nullptr);
    if (s.sample) {
      s.out->lat.push_back(NowNs() - s.lock_begin);
    }
    return true;
  }
  s.id = reinterpret_cast<dimmunix::LockId>(m);
  if (spec.shared) {
    s.id = dimmunix::ipc::GlobalIdForSharedAddress(m);
    Mark(s, kGlobalId);
  }
  if (spec.stack == StackKind::kNative) {
    const std::vector<Frame> frames = dimmunix::CaptureNativeStack(1);
    Mark(s, kCapture);
    Intern(s, frames);
    for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
      dimmunix::PushAnnotatedFrame(*it);
    }
    s.pushed = frames.size();
    Mark(s, kAnnotate);
    if (s.trace) {
      s.out->frames.push_back(static_cast<std::int64_t>(frames.size()));
    }
  }
  if (s.trace || (s.warm && spec.traced)) {
    const std::vector<Frame> frames = dimmunix::CaptureStack();
    Mark(s, kCaptureAnnotated);
    if (spec.stack == StackKind::kAnnotated) {
      Intern(s, frames);
    }
  }
  s.lock_begin = s.sample ? NowNs() : 0;
  if (s.trace) {
    s.mark = s.lock_begin;
  }
  AcquireOp op = rt->BeginAcquire(s.id, AcquireMode::kExclusive);
  Mark(s, kRequest);
  if (op.Decision() == dimmunix::RequestDecision::kBroken ||
      op.Decision() == dimmunix::RequestDecision::kTimedOut) {
    ++s.out->failed;
  }
  const int rc = RawLock(m, abort);
  Mark(s, kLock);
  if (s.sample) {
    s.out->lat.push_back(NowNs() - s.lock_begin);
  }
  if (rc != 0) {
    op.Cancel();
    ++s.out->failed;
    return false;
  }
  op.Commit();
  Mark(s, kCommit);
  return true;
}

void UnlockCall(OpState& s, pthread_mutex_t* m) {
  if (s.trace) {
    s.mark = NowNs();
  }
  if (s.spec->rt != nullptr) {
    s.spec->rt->EndRelease(s.id);
    Mark(s, kRelease);
  }
  pthread_mutex_unlock(m);
  Mark(s, kUnlock);
  for (; s.pushed > 0; --s.pushed) {
    dimmunix::PopAnnotatedFrame();
  }
  if (s.trace) {
    s.out->spans.push_back(s.row);
  }
}

namespace {

struct LeafCtx {
  OpState* state;
  int lock;
};

// The op body, reached at the bottom of the (native or annotated) tower.
void OpLeaf(void* p) {
  auto* c = static_cast<LeafCtx*>(p);
  OpState& s = *c->state;
  pthread_mutex_t* m = &s.spec->locks[c->lock];
  if (!LockCall(s, m)) {
    return;
  }
  std::atomic<std::uint64_t>& counter = s.spec->counters[c->lock];
  const std::uint64_t v = counter.load(std::memory_order_relaxed);
  SpinNs(kHoldNs);
  counter.store(v + 1, std::memory_order_relaxed);
  UnlockCall(s, m);
}

}  // namespace

void DoOp(const LoopSpec& spec, ThreadOut& out, int path, int lock, bool sample, bool warm) {
  OpState s;
  s.spec = &spec;
  s.out = &out;
  s.sample = sample;
  s.trace = sample && spec.traced;
  s.warm = warm;
  LeafCtx ctx{&s, spec.fixed_lock >= 0 ? spec.fixed_lock : lock};
  if (spec.rt != nullptr && spec.stack == StackKind::kNative) {
    WalkPath(spec.in->paths[static_cast<std::size_t>(path)], &OpLeaf, &ctx);
    return;
  }
  if (spec.rt == nullptr) {
    OpLeaf(&ctx);
    return;
  }
  const std::vector<Frame>& frames = (*spec.annotations)[static_cast<std::size_t>(path)];
  for (Frame f : frames) {
    dimmunix::PushAnnotatedFrame(f);
  }
  OpLeaf(&ctx);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    dimmunix::PopAnnotatedFrame();
  }
}

namespace {

template <typename T>
void Append(std::vector<T>& to, const std::vector<T>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

}  // namespace

LoopOut RunLoop(const LoopSpec& spec, int threads, double seconds,
                const std::function<void()>& on_ready) {
  std::atomic<int> warmed{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<ThreadOut> outs(static_cast<std::size_t>(threads));
  Windows windows;
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ThreadOut& out = outs[static_cast<std::size_t>(t)];
      const std::size_t n = spec.in->paths.size();
      for (std::size_t i = 0; i < n; ++i) {
        DoOp(spec, out, static_cast<int>(i), static_cast<int>(i % kLocks), false, true);
        ++out.warm_ops;
      }
      warmed.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      const std::size_t m = spec.in->schedule.size();
      std::size_t at = m * static_cast<std::size_t>(t) / static_cast<std::size_t>(threads);
      std::int64_t job_start = NowNs();
      int seen = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto& [path, lock] = spec.in->schedule[at];
        at = at + 1 == m ? 0 : at + 1;
        DoOp(spec, out, path, lock, (out.ops & (kSampleEvery - 1)) == 0, false);
        if (++out.ops % kJobOps == 0) {
          const std::int64_t now = NowNs();
          out.jobs.push_back(now - job_start);
          job_start = now;
        }
        windows.Mark(&seen, out.ops, out.lat.size(), out.jobs.size(), &out.marks);
      }
      windows.Mark(&seen, out.ops, out.lat.size(), out.jobs.size(), &out.marks);
    });
  }
  while (warmed.load() < threads) {
    std::this_thread::yield();
  }
  LoopOut result;
  result.ready_ns = NowNs();
  if (on_ready) {
    on_ready();
  }
  if (spec.go != nullptr) {
    while (spec.go->load(std::memory_order_acquire) == 0) {
      std::this_thread::yield();
    }
  }
  const bool timed = seconds > 0 || spec.go != nullptr;
  if (!timed) {
    stop.store(true);
  }
  const std::int64_t start = NowNs();
  go.store(true, std::memory_order_release);
  if (timed) {
    windows.Run(start, start + static_cast<std::int64_t>(seconds * 1e9),
                static_cast<std::int64_t>(spec.window_s * 1e9), spec.stop);
  }
  stop.store(true);
  for (auto& th : pool) {
    th.join();
  }
  result.elapsed_ns = NowNs() - start;
  std::vector<std::vector<WindowMark>> marks;
  for (const ThreadOut& o : outs) {
    AddWorker(o.marks, o.lat, o.jobs, &result.windowed);
    marks.push_back(o.marks);
  }
  AddWindows(marks, start, windows.closed_at, &result.windowed);
  ThreadOut& all = result.merged;
  for (const ThreadOut& o : outs) {
    all.ops += o.ops;
    all.warm_ops += o.warm_ops;
    all.failed += o.failed;
    Append(all.lat, o.lat);
    Append(all.jobs, o.jobs);
    Append(all.spans, o.spans);
    Append(all.intern_miss, o.intern_miss);
    Append(all.frames, o.frames);
  }
  return result;
}

std::vector<std::vector<Frame>> AnnotatedPaths(const std::vector<Path>& paths) {
  std::vector<std::vector<Frame>> out;
  for (const Path& p : paths) {
    std::vector<Frame> frames;
    // Outermost first: tower level kTowerLevels .. 1, then the lock site —
    // the shape GenerateSyntheticHistory builds its signature stacks from.
    for (int level = kTowerLevels; level >= 1; --level) {
      frames.push_back(dimmunix::FrameFromName(
          dimmunix::TowerFrameName(level, p.choice[static_cast<std::size_t>(level - 1)])));
    }
    frames.push_back(dimmunix::FrameFromName(dimmunix::LockSiteFrameName(p.site)));
    out.push_back(std::move(frames));
  }
  return out;
}

}  // namespace perfbench
