#include "util/failpoint.h"

#include <gtest/gtest.h>

#include <cstdlib>

namespace scalein::util {
namespace {

/// Clears the process-global registry when a test exits (the registry is
/// shared; a leaked armed site would leak faults into later tests).
struct GlobalFailpointGuard {
  ~GlobalFailpointGuard() { Failpoints::Global().Clear(); }
};

TEST(FailpointSpecTest, ParsesEveryClauseForm) {
  std::vector<FailpointConfig> configs;
  uint64_t seed = 0;
  Status s = ParseFailpointSpec(
      "scan_next=error;index_probe=error(25%);chase_step=error(every:50);"
      "delta_apply=delay(2ms);seed=7",
      &configs, &seed);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_EQ(configs.size(), 4u);
  EXPECT_EQ(seed, 7u);

  EXPECT_EQ(configs[0].site, "scan_next");
  EXPECT_EQ(configs[0].action, FailAction::kError);
  EXPECT_EQ(configs[0].trigger, FailTrigger::kAlways);

  EXPECT_EQ(configs[1].site, "index_probe");
  EXPECT_EQ(configs[1].trigger, FailTrigger::kProbability);
  EXPECT_DOUBLE_EQ(configs[1].probability, 0.25);

  EXPECT_EQ(configs[2].site, "chase_step");
  EXPECT_EQ(configs[2].trigger, FailTrigger::kEveryNth);
  EXPECT_EQ(configs[2].every_n, 50u);

  EXPECT_EQ(configs[3].site, "delta_apply");
  EXPECT_EQ(configs[3].action, FailAction::kDelay);
  EXPECT_EQ(configs[3].delay_ms, 2u);
}

TEST(FailpointSpecTest, RejectsMalformedSpecs) {
  std::vector<FailpointConfig> configs;
  uint64_t seed = 0;
  EXPECT_FALSE(ParseFailpointSpec("scan_next", &configs, &seed).ok());
  EXPECT_FALSE(ParseFailpointSpec("scan_next=explode", &configs, &seed).ok());
  EXPECT_FALSE(
      ParseFailpointSpec("scan_next=error(150%)", &configs, &seed).ok());
  EXPECT_FALSE(
      ParseFailpointSpec("scan_next=error(every:0)", &configs, &seed).ok());
  EXPECT_FALSE(ParseFailpointSpec("seed=abc", &configs, &seed).ok());
}

TEST(FailpointTest, DisarmedSitesAreFreeAndOk) {
  GlobalFailpointGuard guard;
  Failpoints::Global().Clear();
  EXPECT_FALSE(Failpoints::armed());
  EXPECT_TRUE(SCALEIN_FAILPOINT("scan_next").ok());
}

TEST(FailpointTest, AlwaysTriggerFiresEveryHit) {
  GlobalFailpointGuard guard;
  Failpoints& fp = Failpoints::Global();
  ASSERT_TRUE(fp.Configure("scan_next=error").ok());
  EXPECT_TRUE(Failpoints::armed());
  for (int i = 0; i < 5; ++i) {
    Status s = SCALEIN_FAILPOINT("scan_next");
    EXPECT_EQ(s.code(), StatusCode::kInternal);
    EXPECT_NE(s.message().find("scan_next"), std::string::npos);
  }
  // Unconfigured sites stay OK while others are armed.
  EXPECT_TRUE(SCALEIN_FAILPOINT("view_refresh").ok());
  EXPECT_EQ(fp.hits(), 5u);
  EXPECT_EQ(fp.fires(), 5u);
}

TEST(FailpointTest, EveryNthIsDeterministic) {
  GlobalFailpointGuard guard;
  Failpoints& fp = Failpoints::Global();
  ASSERT_TRUE(fp.Configure("chase_step=error(every:3)").ok());
  std::vector<bool> fired;
  for (int i = 0; i < 9; ++i) {
    fired.push_back(!fp.Hit("chase_step").ok());
  }
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false, true,
                                      false, false, true}));
}

TEST(FailpointTest, ProbabilityStreamReplaysFromSeed) {
  GlobalFailpointGuard guard;
  Failpoints& fp = Failpoints::Global();
  auto run = [&fp](const std::string& spec) {
    EXPECT_TRUE(fp.Configure(spec).ok());
    std::vector<bool> fired;
    for (int i = 0; i < 200; ++i) fired.push_back(!fp.Hit("scan_next").ok());
    return fired;
  };
  std::vector<bool> a = run("scan_next=error(30%);seed=11");
  std::vector<bool> b = run("scan_next=error(30%);seed=11");
  std::vector<bool> c = run("scan_next=error(30%);seed=12");
  EXPECT_EQ(a, b);          // same (spec, seed) → identical schedule
  EXPECT_NE(a, c);          // different seed → different draws
  size_t fires = 0;
  for (bool f : a) fires += f;
  EXPECT_GT(fires, 20u);    // ~60 expected; loose two-sided sanity bounds
  EXPECT_LT(fires, 120u);
}

TEST(FailpointTest, ClearDisarms) {
  GlobalFailpointGuard guard;
  Failpoints& fp = Failpoints::Global();
  ASSERT_TRUE(fp.Configure("scan_next=error").ok());
  EXPECT_FALSE(fp.Hit("scan_next").ok());
  fp.Clear();
  EXPECT_FALSE(Failpoints::armed());
  EXPECT_TRUE(SCALEIN_FAILPOINT("scan_next").ok());
}

TEST(FailpointTest, ListenerMayClearInsideItsOwnHit) {
  // A fire listener runs inside Hit() while Hit still reads the firing
  // site's config. Clearing the registry from there must not free that
  // config under the walk (Hit holds the site-list snapshot it started on).
  GlobalFailpointGuard guard;
  struct ListenerGuard {
    ~ListenerGuard() { Failpoints::Global().set_fire_listener(nullptr); }
  } listener_guard;
  Failpoints& fp = Failpoints::Global();
  fp.set_fire_listener(
      [](const char*, const char*) { Failpoints::Global().Clear(); });
  ASSERT_TRUE(fp.Configure("scan_next=error").ok());
  Status s = fp.Hit("scan_next");
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_EQ(s.message(), "failpoint 'scan_next' fired");
  EXPECT_FALSE(Failpoints::armed());
  EXPECT_TRUE(fp.configs().empty());
  EXPECT_TRUE(fp.Hit("scan_next").ok());
}

TEST(FailpointTest, InitFromEnvArmsFromVariable) {
  GlobalFailpointGuard guard;
  Failpoints& fp = Failpoints::Global();
  ::setenv("SCALEIN_FAILPOINTS", "index_probe=error", 1);
  EXPECT_TRUE(fp.InitFromEnv().ok());
  EXPECT_TRUE(Failpoints::armed());
  EXPECT_FALSE(fp.Hit("index_probe").ok());
  ::unsetenv("SCALEIN_FAILPOINTS");
  fp.Clear();
  // Unset variable: no-op, stays disarmed.
  EXPECT_TRUE(fp.InitFromEnv().ok());
  EXPECT_FALSE(Failpoints::armed());
}

}  // namespace
}  // namespace scalein::util
