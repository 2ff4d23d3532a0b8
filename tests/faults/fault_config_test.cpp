#include "faults/fault_config.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"
#include "common/json.hpp"

namespace asap::faults {
namespace {

TEST(FaultConfig, DefaultsAreOffAndValid) {
  FaultConfig c;
  EXPECT_FALSE(c.any());
  EXPECT_NO_THROW(c.validate());
}

TEST(FaultConfig, HardeningKnobsAloneAreNotAFault) {
  // confirm_attempts/stale_strikes/confirm_backoff change nothing unless an
  // injector is armed, so they must not count as "faults on".
  FaultConfig c;
  c.confirm_attempts = 3;
  c.stale_strikes = 2;
  c.confirm_backoff = 0.5;
  EXPECT_FALSE(c.any());
}

TEST(FaultConfig, AnyFaultClassCounts) {
  for (int which = 0; which < 5; ++which) {
    FaultConfig c;
    switch (which) {
      case 0: c.crash_fraction = 0.01; break;
      case 1: c.link_loss = 0.01; break;
      case 2: c.latency_jitter = 0.1; break;
      case 3: c.partitions = 1; break;
      case 4: c.bursts = 1; break;
    }
    EXPECT_TRUE(c.any()) << "fault class " << which;
  }
}

TEST(FaultConfig, ValidateRejectsOutOfRange) {
  const auto reject = [](auto mutate) {
    FaultConfig c;
    mutate(c);
    EXPECT_THROW(c.validate(), ConfigError);
  };
  reject([](FaultConfig& c) { c.crash_fraction = 1.5; });
  reject([](FaultConfig& c) { c.link_loss = -0.1; });
  reject([](FaultConfig& c) { c.burst_loss = 2.0; });
  reject([](FaultConfig& c) { c.latency_jitter = 1.0; });  // must stay < 1
  reject([](FaultConfig& c) { c.partition_fraction = 0.0; });
  reject([](FaultConfig& c) { c.burst_duration = 0.0; });
  reject([](FaultConfig& c) { c.crash_detection = -1.0; });
}

TEST(FaultPresets, CanonicalNamesAllResolve) {
  const auto& names = fault_preset_names();
  ASSERT_EQ(names.size(), 11u);
  EXPECT_EQ(names.front(), "none");
  for (const auto& name : names) {
    const FaultScenario s = fault_preset(name);
    EXPECT_EQ(s.name, name);
    EXPECT_NO_THROW(s.config.validate());
    EXPECT_EQ(s.config.any(), name != "none") << name;
  }
}

TEST(FaultPresets, AdversePresetsAreHardened) {
  for (const auto& name : fault_preset_names()) {
    if (name == "none") continue;
    const FaultScenario s = fault_preset(name);
    EXPECT_GT(s.config.confirm_attempts, 1u) << name;
    EXPECT_GT(s.config.stale_strikes, 0u) << name;
  }
}

TEST(FaultPresets, UnknownNameThrowsReadableMessage) {
  try {
    fault_preset("bogus");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("unknown fault preset 'bogus'"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("none, churn, lossy, partition, burst, chaos, "
                       "polluted, polluted-open, storm, storm-open, "
                       "byzantine"),
              std::string::npos)
        << "message must list the available presets: " << msg;
  }
}

TEST(FaultScenarioSpec, ResolvesPresetNames) {
  const FaultScenario s = scenario_from_spec("churn");
  EXPECT_EQ(s.name, "churn");
  EXPECT_GT(s.config.crash_fraction, 0.0);
}

TEST(FaultScenarioSpec, MissingFileThrows) {
  EXPECT_THROW(scenario_from_spec("/nonexistent/scenario.json"), ConfigError);
  EXPECT_THROW(scenario_from_spec("also_missing.json"), ConfigError);
}

TEST(FaultScenarioJson, RoundTripsEveryField) {
  const FaultScenario chaos = fault_preset("chaos");
  const FaultScenario back = scenario_from_json(scenario_to_json(chaos));
  EXPECT_EQ(back.name, chaos.name);
  const FaultConfig& a = chaos.config;
  const FaultConfig& b = back.config;
  EXPECT_DOUBLE_EQ(b.crash_fraction, a.crash_fraction);
  EXPECT_DOUBLE_EQ(b.crash_detection, a.crash_detection);
  EXPECT_DOUBLE_EQ(b.link_loss, a.link_loss);
  EXPECT_DOUBLE_EQ(b.latency_jitter, a.latency_jitter);
  EXPECT_EQ(b.partitions, a.partitions);
  EXPECT_DOUBLE_EQ(b.partition_duration, a.partition_duration);
  EXPECT_DOUBLE_EQ(b.partition_fraction, a.partition_fraction);
  EXPECT_EQ(b.bursts, a.bursts);
  EXPECT_DOUBLE_EQ(b.burst_duration, a.burst_duration);
  EXPECT_DOUBLE_EQ(b.burst_loss, a.burst_loss);
  EXPECT_EQ(b.confirm_attempts, a.confirm_attempts);
  EXPECT_EQ(b.stale_strikes, a.stale_strikes);
  EXPECT_DOUBLE_EQ(b.confirm_backoff, a.confirm_backoff);
}

TEST(FaultScenarioJson, AbsentKeysKeepDefaultsAndBadValuesThrow) {
  json::Object o;
  o.emplace_back("name", "sparse");
  o.emplace_back("link_loss", 0.25);
  const FaultScenario s = scenario_from_json(json::Value(std::move(o)));
  EXPECT_EQ(s.name, "sparse");
  EXPECT_DOUBLE_EQ(s.config.link_loss, 0.25);
  EXPECT_DOUBLE_EQ(s.config.crash_fraction, 0.0);
  EXPECT_DOUBLE_EQ(s.config.burst_loss, 0.9);  // untouched default

  json::Object bad;
  bad.emplace_back("name", "broken");
  bad.emplace_back("crash_fraction", 7.0);
  EXPECT_THROW(scenario_from_json(json::Value(std::move(bad))), ConfigError);
}

TEST(FaultScenarioJson, CountFieldsMustBeUint32Integers) {
  const auto with = [](const char* key, double value) {
    json::Object o;
    o.emplace_back("name", "counts");
    o.emplace_back(key, value);
    return json::Value(std::move(o));
  };
  for (const char* key :
       {"partitions", "bursts", "confirm_attempts", "stale_strikes",
        "pollution_bits", "storms", "storm_emitters",
        "storm_queries_per_emitter", "storm_hot_terms", "pending_query_cap",
        "ttl_clamp_depth"}) {
    for (const double bad : {-1.0, 2.5, 1e30, 4294967296.0}) {
      try {
        scenario_from_json(with(key, bad));
        ADD_FAILURE() << key << " = " << bad << " was accepted";
      } catch (const ConfigError& e) {
        EXPECT_NE(std::string(e.what()).find(key), std::string::npos)
            << "error does not name the key: " << e.what();
      }
    }
  }
  // The whole uint32 range stays accepted.
  EXPECT_EQ(scenario_from_json(with("pollution_bits", 4294967295.0))
                .config.pollution_bits,
            4294967295u);
  EXPECT_EQ(scenario_from_json(with("partitions", 0.0)).config.partitions, 0u);
}

TEST(FaultScenarioJson, EveryPresetRoundTripsUnchanged) {
  for (const std::string& name : fault_preset_names()) {
    const json::Value doc = scenario_to_json(fault_preset(name));
    EXPECT_EQ(json::dump(scenario_to_json(scenario_from_json(doc))),
              json::dump(doc))
        << name;
  }
}

}  // namespace
}  // namespace asap::faults
