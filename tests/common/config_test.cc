// Copyright (c) dimmunix-cpp authors. MIT license.

#include "src/common/config.h"

#include <gtest/gtest.h>

#include <cstdlib>

namespace dimmunix {
namespace {

// Paper defaults (§5.2, §5.5, §5.7).
TEST(ConfigTest, PaperDefaults) {
  Config config;
  EXPECT_EQ(config.monitor_period.count(), 100);  // τ = 100 msec
  EXPECT_EQ(config.default_match_depth, 4);       // fixed depth 4
  EXPECT_EQ(config.calibration_na, 20);           // NA = 20
  EXPECT_EQ(config.calibration_nt, 10000);        // NT = 10^4
  EXPECT_EQ(config.yield_timeout.count(), 200);   // 200 msec bound
  EXPECT_EQ(config.immunity, ImmunityMode::kWeak);
  EXPECT_FALSE(config.calibration_enabled);
}

TEST(ConfigTest, EnvironmentOverrides) {
  setenv("DIMMUNIX_HISTORY", "/tmp/test.hist", 1);
  setenv("DIMMUNIX_TAU_MS", "25", 1);
  setenv("DIMMUNIX_DEPTH", "6", 1);
  setenv("DIMMUNIX_IMMUNITY", "strong", 1);
  setenv("DIMMUNIX_CALIBRATION", "1", 1);
  setenv("DIMMUNIX_YIELD_TIMEOUT_MS", "75", 1);
  setenv("DIMMUNIX_IGNORE_YIELDS", "1", 1);
  setenv("DIMMUNIX_STRIPES", "16", 1);
  setenv("DIMMUNIX_CONTROL", "/tmp/test.sock", 1);

  Config config = Config::FromEnvironment();
  EXPECT_EQ(config.history_path, "/tmp/test.hist");
  EXPECT_EQ(config.control_socket_path, "/tmp/test.sock");
  EXPECT_EQ(config.monitor_period.count(), 25);
  EXPECT_EQ(config.default_match_depth, 6);
  EXPECT_EQ(config.immunity, ImmunityMode::kStrong);
  EXPECT_TRUE(config.calibration_enabled);
  EXPECT_EQ(config.yield_timeout.count(), 75);
  EXPECT_TRUE(config.ignore_yield_decisions);
  EXPECT_EQ(config.engine_stripes, 16);

  unsetenv("DIMMUNIX_HISTORY");
  unsetenv("DIMMUNIX_TAU_MS");
  unsetenv("DIMMUNIX_DEPTH");
  unsetenv("DIMMUNIX_IMMUNITY");
  unsetenv("DIMMUNIX_CALIBRATION");
  unsetenv("DIMMUNIX_YIELD_TIMEOUT_MS");
  unsetenv("DIMMUNIX_IGNORE_YIELDS");
  unsetenv("DIMMUNIX_STRIPES");
  unsetenv("DIMMUNIX_CONTROL");
}

TEST(ConfigTest, ControlSocketDefaultsToDisabled) {
  Config config = Config::FromEnvironment();
  EXPECT_TRUE(config.control_socket_path.empty());
}

TEST(ConfigTest, MalformedEnvironmentFallsBack) {
  setenv("DIMMUNIX_TAU_MS", "not-a-number", 1);
  setenv("DIMMUNIX_IMMUNITY", "bogus", 1);
  Config config = Config::FromEnvironment();
  EXPECT_EQ(config.monitor_period.count(), 100);
  EXPECT_EQ(config.immunity, ImmunityMode::kWeak);
  unsetenv("DIMMUNIX_TAU_MS");
  unsetenv("DIMMUNIX_IMMUNITY");
}

}  // namespace
}  // namespace dimmunix
