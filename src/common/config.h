// Copyright (c) dimmunix-cpp authors. MIT license.
//
// Runtime configuration for the Dimmunix engine. Every tunable named in the
// paper is represented here with the paper's default:
//   - τ (monitor wakeup period, §5.2)            -> monitor_period
//   - fixed matching depth 4 (§5.5)              -> default_match_depth
//   - NA = 20 calibration avoidances per depth   -> calibration_na
//   - NT = 10^4 recalibration threshold          -> calibration_nt
//   - weak vs. strong immunity (§5.4)            -> immunity
//   - 200 msec yield upper bound (§5.7)          -> yield_timeout
//
// Config can be populated programmatically or from DIMMUNIX_* environment
// variables (used by the LD_PRELOAD shim, where no code runs before main).

#ifndef DIMMUNIX_COMMON_CONFIG_H_
#define DIMMUNIX_COMMON_CONFIG_H_

#include <chrono>
#include <cstdint>
#include <string>

namespace dimmunix {

// §5.4: weak immunity breaks induced starvation and continues; strong
// immunity requests a program restart on starvation, guaranteeing no pattern
// in history ever reoccurs.
enum class ImmunityMode { kWeak, kStrong };

// What the monitor does when it finds a *deadlock* cycle (recovery is
// orthogonal to Dimmunix, §3; these hooks exist so tests and the trial
// harness can observe/recover).
enum class DeadlockAction {
  kReport,       // save signature, invoke hook, leave threads deadlocked
  kBreakVictim,  // additionally cancel one victim's pending acquisition
};

struct Config {
  // Master switch: false turns every engine entry point into an immediate
  // return (used as the "uninstrumented baseline" in app-level benchmarks).
  bool enabled = true;

  // --- Monitor -------------------------------------------------------------
  std::chrono::milliseconds monitor_period{100};  // τ
  bool start_monitor = true;                      // false: tests drive the monitor manually

  // --- Matching / calibration ----------------------------------------------
  int default_match_depth = 4;    // fixed depth when calibration is off
  int max_match_depth = 10;       // D: deepest suffix ever compared
  bool calibration_enabled = false;
  int calibration_na = 20;        // NA: avoidances per depth rung
  int calibration_nt = 10000;     // NT: avoidances before recalibration

  // --- Avoidance -----------------------------------------------------------
  ImmunityMode immunity = ImmunityMode::kWeak;
  DeadlockAction deadlock_action = DeadlockAction::kReport;
  std::chrono::milliseconds yield_timeout{200};  // §5.7 upper bound on a yield
  // After this many timed-out yields a signature is considered "too risky to
  // avoid" and is automatically disabled (§5.7). <= 0 disables the feature.
  int auto_disable_aborts = 64;
  // Table 1's middle configuration: run full instrumentation + detection but
  // ignore YIELD decisions (never actually pause threads).
  bool ignore_yield_decisions = false;
  // Guard the engine's consistent-view (stop-the-stripes) entry with the
  // generalized Peterson filter lock (§5.6) instead of a TAS spin lock. The
  // striped per-shard locks are always TAS spin locks.
  bool use_peterson_guard = false;
  // Maximum threads that may simultaneously run through the engine when the
  // Peterson guard is selected (slot count of the filter lock).
  int peterson_slots = 64;
  // Number of stripes the engine shards its owner map and Allowed sets
  // across (rounded up to a power of two). 0 = auto: 2*nproc rounded up to
  // a power of two. 1 reproduces the pre-striping single-guard engine.
  int engine_stripes = 0;
  // Decide cover matches from per-stripe snapshots (live-tuple counters +
  // Allowed-slot copies taken one stripe lock at a time) instead of the
  // stop-the-stripes epoch. The epoch survives as the rare slow path:
  // signature install/disable rebuilds, snapshot folds, and fast-path
  // validation churn. False reproduces the pre-incremental matcher.
  bool incremental_matcher = true;
  // Upper bound on how long any stop-the-stripes epoch may be held,
  // asserted in debug builds (release builds only count epoch_hold_ns).
  // Generous by design — it exists to catch reintroduced unbounded epoch
  // work, not scheduler noise or sanitizer slowdowns.
  std::chrono::milliseconds epoch_hold_bound{1000};

  // --- History -------------------------------------------------------------
  std::string history_path;       // empty = in-memory only
  bool load_history_on_init = true;
  bool save_history_on_update = true;
  // Journal records appended (by this process) before the HistoryStore
  // compacts them into a fresh v2 snapshot. <= 0 compacts on every delta.
  int journal_threshold = 64;
  // fsync(2) every journal append. Off by default: the append is already a
  // single write(2), so a process crash can tear at most the final record;
  // fsync additionally covers kernel/power loss at a latency cost (still
  // off the application's hot path — only the store thread pays it).
  bool journal_fsync = false;
  // > 0: the store periodically load-merges the shared history file even
  // without local changes, consuming signatures and operator actions from
  // other processes sharing DIMMUNIX_HISTORY. 0 disables resync.
  std::chrono::milliseconds history_resync_period{0};

  // --- FP probes (§5.5 retrospective analysis) ------------------------------
  std::chrono::milliseconds fp_probe_window{50};
  int fp_probe_max_ops = 64;

  // --- Cross-process immunity (src/ipc) --------------------------------------
  // Non-empty: mmap this shared-memory arena file and participate in
  // cross-process deadlock immunity — global locks (PTHREAD_PROCESS_SHARED
  // mutexes/rwlocks, flock/fcntl file locks) publish their wait/hold edges
  // there, and a bridge thread folds the other participants' edges into the
  // local RAG. Empty = single-process behavior, zero overhead.
  std::string ipc_path;
  // How often the bridge mirrors foreign edges (and heartbeats).
  std::chrono::milliseconds ipc_bridge_period{25};
  // How long a batched (deferred) edge publication may sit in the pending
  // op-log before the bridge drains it to the arena. 0 = publish eagerly on
  // every transition (protocol-v1 behavior, higher per-op cost). Contention
  // flushes immediately regardless — this bound only applies to edges no
  // local thread is blocked behind. See docs/ipc-arena.md.
  std::chrono::microseconds ipc_flush_period{2000};

  // --- Control plane ---------------------------------------------------------
  // Non-empty: the runtime listens on this UNIX-domain socket for `dimctl`
  // commands (status/history/disable/reload/...). Empty = no control server.
  std::string control_socket_path;

  // Non-empty ("host:port"): the dimmunixd daemon this process is attached
  // to. `fleet *` control commands received over the UDS socket are proxied
  // to it over TCP, and `status` gains a fleet= summary line. The daemon is
  // a separate process; this setting never adds network I/O to lock paths.
  std::string fleet_daemon;

  // --- Observability (src/obs) -----------------------------------------------
  // Arm the flight recorder at startup: per-thread trace rings record engine
  // events (acquires, yields, epochs, monitor/bridge/store activity) from
  // the first lock operation. Also toggleable live via `dimctl trace
  // start|stop`. Off = one relaxed load + branch per instrumentation site.
  bool trace_enabled = false;
  // Events per per-thread trace ring (rounded up to a power of two, 32
  // bytes each). Full rings overwrite their oldest events — flight-recorder
  // semantics; the dropped count is reported in dumps.
  int trace_ring_size = 8192;
  // Non-empty: dump the recorded trace as Chrome trace_event JSON to this
  // path at process exit / runtime destruction ("%p" expands to the pid, so
  // fleets sharing the setting write one file per process).
  std::string trace_dump_path;
  // Always-on latency histograms (acquire latency, yield duration, epoch
  // hold) behind `dimctl metrics` / `dimctl histo`. False removes the two
  // clock reads per acquisition they cost.
  bool metrics_enabled = true;

  // --- Health rules / incident forensics (src/obs) ---------------------------
  // Periodic self-diagnosis: an evaluator thread ticks the HealthEngine,
  // deriving typed alerts (firing -> active -> resolved hysteresis) from the
  // engine/bridge/store counters. Zero lock-path cost: it only reads the
  // existing stats snapshots.
  bool health_enabled = true;
  // Evaluator cadence. 0 = tick on the monitor cadence (τ).
  std::chrono::milliseconds health_period{0};
  // Rule thresholds (see docs/observability.md for each rule's signal).
  double health_retry_ratio = 0.5;        // match fast-path retries per request
  double health_epoch_stall_pct = 5.0;    // % of wall time stalled entering epochs
  int health_ipc_backlog = 256;           // IPC pending-op log depth
  long health_ipc_flush_p99_us = 10000;   // IPC pending-log drain p99 (us)
  double health_arena_pct = 80.0;         // arena slot/edge utilization %
  double health_ring_drops_per_s = 100.0; // trace events dropped per second
  int health_store_queue = 64;            // history store writer queue depth
  double health_resync_stale_x = 3.0;     // resync age / resync period
  int health_fire_ticks = 2;              // breaches before firing -> active
  int health_resolve_ticks = 2;           // clears before active -> resolved
  // Non-empty: when the monitor detects a cycle, avoids one, or breaks a
  // starvation, write a structured JSON incident bundle (signature, RAG
  // snapshot, victim's recent trace events, histogram percentiles, active
  // alerts) into this directory. Empty = forensics off, zero overhead.
  std::string incident_dir;
  int incident_max = 16;  // bounded file ring; oldest bundles evicted
  // Minimum spacing between bundles (an avoidance storm must not turn the
  // incident directory into a write amplifier).
  std::chrono::milliseconds incident_min_period{1000};

  // Reads DIMMUNIX_* environment variables over the current values:
  //   DIMMUNIX_HISTORY, DIMMUNIX_TAU_MS, DIMMUNIX_DEPTH, DIMMUNIX_MAX_DEPTH,
  //   DIMMUNIX_IMMUNITY (weak|strong), DIMMUNIX_CALIBRATION (0|1),
  //   DIMMUNIX_YIELD_TIMEOUT_MS, DIMMUNIX_IGNORE_YIELDS (0|1),
  //   DIMMUNIX_STRIPES (0 = auto),
  //   DIMMUNIX_INCREMENTAL_MATCH (0|1, default 1),
  //   DIMMUNIX_EPOCH_BOUND_MS (debug-asserted epoch hold bound),
  //   DIMMUNIX_CONTROL (control-socket path, e.g. /tmp/app.dimmunix.sock),
  //   DIMMUNIX_FLEET (host:port of the attached dimmunixd daemon),
  //   DIMMUNIX_JOURNAL_THRESHOLD, DIMMUNIX_JOURNAL_FSYNC (0|1),
  //   DIMMUNIX_RESYNC_MS (0 = off),
  //   DIMMUNIX_IPC (arena path), DIMMUNIX_IPC_BRIDGE_MS,
  //   DIMMUNIX_IPC_FLUSH_US (0 = eager publication),
  //   DIMMUNIX_ID_CACHE (per-thread global-ID cache entries, 0 = off —
  //   read by src/ipc/global_id.cc),
  //   DIMMUNIX_TRACE (0|1), DIMMUNIX_TRACE_RING (events per thread),
  //   DIMMUNIX_TRACE_DUMP (Chrome-JSON dump path, %p -> pid),
  //   DIMMUNIX_METRICS (0|1, default 1),
  //   DIMMUNIX_HEALTH (0|1, default 1), DIMMUNIX_HEALTH_MS (0 = τ),
  //   DIMMUNIX_HEALTH_RETRY_RATIO, DIMMUNIX_HEALTH_EPOCH_STALL_PCT,
  //   DIMMUNIX_HEALTH_IPC_BACKLOG, DIMMUNIX_HEALTH_IPC_FLUSH_P99_US,
  //   DIMMUNIX_HEALTH_ARENA_PCT, DIMMUNIX_HEALTH_RING_DROPS,
  //   DIMMUNIX_HEALTH_STORE_QUEUE, DIMMUNIX_HEALTH_RESYNC_STALE_X,
  //   DIMMUNIX_HEALTH_FIRE_TICKS, DIMMUNIX_HEALTH_RESOLVE_TICKS,
  //   DIMMUNIX_INCIDENT_DIR (incident-bundle directory, empty = off),
  //   DIMMUNIX_INCIDENT_MAX, DIMMUNIX_INCIDENT_MIN_MS,
  //   DIMMUNIX_PROC_TAG (process identity for proc-qualified signatures;
  //   defaults to the executable path — read by src/ipc/global_id.cc),
  //   DIMMUNIX_LOG (error|warn|info|debug, default warn — read by
  //   src/common/logging.cc).
  static Config FromEnvironment();
  static Config FromEnvironment(Config base);
};

}  // namespace dimmunix

#endif  // DIMMUNIX_COMMON_CONFIG_H_
