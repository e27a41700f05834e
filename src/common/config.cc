// Copyright (c) dimmunix-cpp authors. MIT license.

#include "src/common/config.h"

#include <cstdlib>
#include <string_view>

namespace dimmunix {
namespace {

const char* Getenv(const char* name) { return std::getenv(name); }

bool EnvBool(const char* name, bool fallback) {
  const char* v = Getenv(name);
  if (v == nullptr || *v == '\0') {
    return fallback;
  }
  std::string_view s(v);
  return s == "1" || s == "true" || s == "yes" || s == "on";
}

long EnvLong(const char* name, long fallback) {
  const char* v = Getenv(name);
  if (v == nullptr || *v == '\0') {
    return fallback;
  }
  char* end = nullptr;
  long parsed = std::strtol(v, &end, 10);
  if (end == v) {
    return fallback;
  }
  return parsed;
}

double EnvDouble(const char* name, double fallback) {
  const char* v = Getenv(name);
  if (v == nullptr || *v == '\0') {
    return fallback;
  }
  char* end = nullptr;
  double parsed = std::strtod(v, &end);
  if (end == v) {
    return fallback;
  }
  return parsed;
}

}  // namespace

Config Config::FromEnvironment() { return FromEnvironment(Config{}); }

Config Config::FromEnvironment(Config base) {
  if (const char* h = Getenv("DIMMUNIX_HISTORY"); h != nullptr && *h != '\0') {
    base.history_path = h;
  }
  base.monitor_period =
      std::chrono::milliseconds(EnvLong("DIMMUNIX_TAU_MS", base.monitor_period.count()));
  base.default_match_depth =
      static_cast<int>(EnvLong("DIMMUNIX_DEPTH", base.default_match_depth));
  base.max_match_depth = static_cast<int>(EnvLong("DIMMUNIX_MAX_DEPTH", base.max_match_depth));
  base.calibration_enabled = EnvBool("DIMMUNIX_CALIBRATION", base.calibration_enabled);
  base.yield_timeout =
      std::chrono::milliseconds(EnvLong("DIMMUNIX_YIELD_TIMEOUT_MS", base.yield_timeout.count()));
  base.ignore_yield_decisions = EnvBool("DIMMUNIX_IGNORE_YIELDS", base.ignore_yield_decisions);
  base.engine_stripes = static_cast<int>(EnvLong("DIMMUNIX_STRIPES", base.engine_stripes));
  base.incremental_matcher = EnvBool("DIMMUNIX_INCREMENTAL_MATCH", base.incremental_matcher);
  base.epoch_hold_bound =
      std::chrono::milliseconds(EnvLong("DIMMUNIX_EPOCH_BOUND_MS", base.epoch_hold_bound.count()));
  base.journal_threshold =
      static_cast<int>(EnvLong("DIMMUNIX_JOURNAL_THRESHOLD", base.journal_threshold));
  base.journal_fsync = EnvBool("DIMMUNIX_JOURNAL_FSYNC", base.journal_fsync);
  base.history_resync_period = std::chrono::milliseconds(
      EnvLong("DIMMUNIX_RESYNC_MS", base.history_resync_period.count()));
  if (const char* ipc = Getenv("DIMMUNIX_IPC"); ipc != nullptr && *ipc != '\0') {
    base.ipc_path = ipc;
  }
  base.ipc_bridge_period = std::chrono::milliseconds(
      EnvLong("DIMMUNIX_IPC_BRIDGE_MS", base.ipc_bridge_period.count()));
  base.ipc_flush_period = std::chrono::microseconds(
      EnvLong("DIMMUNIX_IPC_FLUSH_US", base.ipc_flush_period.count()));
  if (const char* m = Getenv("DIMMUNIX_IMMUNITY"); m != nullptr) {
    std::string_view s(m);
    if (s == "strong") {
      base.immunity = ImmunityMode::kStrong;
    } else if (s == "weak") {
      base.immunity = ImmunityMode::kWeak;
    }
  }
  if (const char* c = Getenv("DIMMUNIX_CONTROL"); c != nullptr && *c != '\0') {
    base.control_socket_path = c;
  }
  if (const char* f = Getenv("DIMMUNIX_FLEET"); f != nullptr && *f != '\0') {
    base.fleet_daemon = f;
  }
  base.trace_enabled = EnvBool("DIMMUNIX_TRACE", base.trace_enabled);
  base.trace_ring_size = static_cast<int>(EnvLong("DIMMUNIX_TRACE_RING", base.trace_ring_size));
  if (const char* td = Getenv("DIMMUNIX_TRACE_DUMP"); td != nullptr && *td != '\0') {
    base.trace_dump_path = td;
  }
  base.metrics_enabled = EnvBool("DIMMUNIX_METRICS", base.metrics_enabled);
  base.health_enabled = EnvBool("DIMMUNIX_HEALTH", base.health_enabled);
  base.health_period =
      std::chrono::milliseconds(EnvLong("DIMMUNIX_HEALTH_MS", base.health_period.count()));
  base.health_retry_ratio = EnvDouble("DIMMUNIX_HEALTH_RETRY_RATIO", base.health_retry_ratio);
  base.health_epoch_stall_pct =
      EnvDouble("DIMMUNIX_HEALTH_EPOCH_STALL_PCT", base.health_epoch_stall_pct);
  base.health_ipc_backlog =
      static_cast<int>(EnvLong("DIMMUNIX_HEALTH_IPC_BACKLOG", base.health_ipc_backlog));
  base.health_ipc_flush_p99_us =
      EnvLong("DIMMUNIX_HEALTH_IPC_FLUSH_P99_US", base.health_ipc_flush_p99_us);
  base.health_arena_pct = EnvDouble("DIMMUNIX_HEALTH_ARENA_PCT", base.health_arena_pct);
  base.health_ring_drops_per_s =
      EnvDouble("DIMMUNIX_HEALTH_RING_DROPS", base.health_ring_drops_per_s);
  base.health_store_queue =
      static_cast<int>(EnvLong("DIMMUNIX_HEALTH_STORE_QUEUE", base.health_store_queue));
  base.health_resync_stale_x =
      EnvDouble("DIMMUNIX_HEALTH_RESYNC_STALE_X", base.health_resync_stale_x);
  base.health_fire_ticks =
      static_cast<int>(EnvLong("DIMMUNIX_HEALTH_FIRE_TICKS", base.health_fire_ticks));
  base.health_resolve_ticks =
      static_cast<int>(EnvLong("DIMMUNIX_HEALTH_RESOLVE_TICKS", base.health_resolve_ticks));
  if (const char* inc = Getenv("DIMMUNIX_INCIDENT_DIR"); inc != nullptr && *inc != '\0') {
    base.incident_dir = inc;
  }
  base.incident_max = static_cast<int>(EnvLong("DIMMUNIX_INCIDENT_MAX", base.incident_max));
  base.incident_min_period = std::chrono::milliseconds(
      EnvLong("DIMMUNIX_INCIDENT_MIN_MS", base.incident_min_period.count()));
  return base;
}

}  // namespace dimmunix
