// Copyright (c) dimmunix-cpp authors. MIT license.
//
// Generalized n-thread Peterson mutual exclusion (the "filter lock").
//
// Dimmunix §5.6: "The request and release methods are the only ones that
// need to both consult and update the shared Allowed set. To do so safely
// without using locks, we use a variation of Peterson's algorithm for mutual
// exclusion generalized to n threads."
//
// We reproduce that substrate faithfully: a filter lock over a fixed number
// of slots, where each participating thread owns one slot. The engine's
// shared state sits behind TAS-spin-locked stripes; the filter, when
// configured (Config::use_peterson_guard), guards only the stop-the-stripes
// epoch entry, in front of the stripe locks rather than instead of them.
// Threads whose id has no slot enter the epoch through the stripe locks
// alone. The filter lock takes
// O(n) levels per acquisition, which is why it is not the default on modern
// hardware, but it uses only loads and stores with seq_cst fences — no RMW
// instructions.

#ifndef DIMMUNIX_COMMON_PETERSON_LOCK_H_
#define DIMMUNIX_COMMON_PETERSON_LOCK_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

namespace dimmunix {

class PetersonLock {
 public:
  // `slots` is the maximum number of threads that may contend; slot ids must
  // be in [0, slots).
  explicit PetersonLock(std::size_t slots);

  PetersonLock(const PetersonLock&) = delete;
  PetersonLock& operator=(const PetersonLock&) = delete;

  // Enters the critical section on behalf of `slot`. Blocks (spin+yield)
  // until exclusion is achieved at every filter level.
  void Lock(std::size_t slot);

  // Leaves the critical section.
  void Unlock(std::size_t slot);

  std::size_t slots() const { return n_; }

 private:
  // level_[i] = highest filter level thread i has entered (-1 = not trying).
  // victim_[l] = the most recent thread to enter level l (it must wait while
  // any other thread is at level >= l).
  std::size_t n_;
  std::unique_ptr<std::atomic<int>[]> level_;
  std::unique_ptr<std::atomic<int>[]> victim_;
};

}  // namespace dimmunix

#endif  // DIMMUNIX_COMMON_PETERSON_LOCK_H_
