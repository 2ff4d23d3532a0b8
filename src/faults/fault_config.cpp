#include "faults/fault_config.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/error.hpp"

namespace asap::faults {

bool FaultConfig::any() const {
  return crash_fraction > 0.0 || link_loss > 0.0 || latency_jitter > 0.0 ||
         partitions > 0 || bursts > 0 || adversarial();
}

bool FaultConfig::adversarial() const {
  return polluter_fraction > 0.0 || stale_advertiser_fraction > 0.0 ||
         confirm_dropper_fraction > 0.0 || storms > 0;
}

void FaultConfig::validate() const {
  const auto in01 = [](double v) { return v >= 0.0 && v <= 1.0; };
  if (!in01(crash_fraction)) {
    throw ConfigError("faults: crash_fraction out of [0,1]");
  }
  if (!in01(link_loss)) throw ConfigError("faults: link_loss out of [0,1]");
  if (!in01(burst_loss)) throw ConfigError("faults: burst_loss out of [0,1]");
  if (latency_jitter < 0.0 || latency_jitter >= 1.0) {
    throw ConfigError("faults: latency_jitter out of [0,1)");
  }
  if (partition_fraction <= 0.0 || partition_fraction > 1.0) {
    throw ConfigError("faults: partition_fraction out of (0,1]");
  }
  if (crash_detection < 0.0 || partition_duration <= 0.0 ||
      burst_duration <= 0.0 || confirm_backoff < 0.0) {
    throw ConfigError("faults: durations must be positive");
  }
  if (!in01(polluter_fraction) || !in01(stale_advertiser_fraction) ||
      !in01(confirm_dropper_fraction)) {
    throw ConfigError("faults: adversary fractions out of [0,1]");
  }
  if (polluter_fraction + stale_advertiser_fraction +
          confirm_dropper_fraction >
      1.0) {
    throw ConfigError("faults: adversary fractions sum past 1");
  }
  if (storm_duration <= 0.0 || trust_quarantine_backoff < 0.0) {
    throw ConfigError("faults: durations must be positive");
  }
  if (storms > 0 &&
      (storm_emitters == 0 || storm_queries_per_emitter == 0 ||
       storm_hot_terms == 0)) {
    throw ConfigError("faults: storm parameters must be positive");
  }
  if (!in01(trust_reward) || trust_strike_decay <= 0.0 ||
      trust_strike_decay >= 1.0 || !in01(trust_quarantine_threshold) ||
      !in01(trust_fill_gate)) {
    throw ConfigError("faults: trust parameters out of range");
  }
}

const std::vector<std::string>& fault_preset_names() {
  static const std::vector<std::string> names = {
      "none",   "churn",         "lossy", "partition",  "burst",     "chaos",
      "polluted", "polluted-open", "storm", "storm-open", "byzantine"};
  return names;
}

namespace {

/// The hardening defaults every adverse preset shares: 3 confirm attempts
/// with 0.5 s backoff, eviction after 2 consecutive silent rounds.
void harden(FaultConfig& c) {
  c.confirm_attempts = 3;
  c.stale_strikes = 2;
  c.confirm_backoff = 0.5;
}

/// The defense defaults every trust-enabled preset shares: trust scoring
/// with quarantine, the strike-per-chain accounting fix, and the
/// ad-admission fill-plausibility gate (honest max fill ~0.50 at design
/// capacity, so 0.65 has zero honest casualties).
void defend(FaultConfig& c) {
  c.trust_enabled = true;
  c.strike_per_chain = true;
  c.trust_fill_gate = 0.65;
}

/// Overload protection shared by the storm presets' defended variants.
void shield(FaultConfig& c) {
  c.pending_query_cap = 32;
  c.ttl_clamp_depth = 24;
}

std::string preset_list() {
  std::string out;
  for (const auto& n : fault_preset_names()) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

}  // namespace

FaultScenario fault_preset(const std::string& name) {
  FaultScenario s;
  s.name = name;
  FaultConfig& c = s.config;
  if (name == "none") return s;
  if (name == "churn") {
    c.crash_fraction = 0.05;
    harden(c);
    return s;
  }
  if (name == "lossy") {
    c.link_loss = 0.05;
    c.latency_jitter = 0.25;
    harden(c);
    return s;
  }
  if (name == "partition") {
    c.partitions = 2;
    harden(c);
    return s;
  }
  if (name == "burst") {
    c.bursts = 3;
    harden(c);
    return s;
  }
  if (name == "chaos") {
    c.crash_fraction = 0.05;
    c.link_loss = 0.03;
    c.latency_jitter = 0.25;
    c.partitions = 1;
    c.bursts = 2;
    harden(c);
    return s;
  }
  if (name == "polluted" || name == "polluted-open") {
    c.polluter_fraction = 0.20;
    // Enough phantom bits to push a polluted filter's fill past ~0.75
    // (default geometry): with k=8 hashes a query false-matches with
    // probability fill^8, so sparse pollution is harmless — a real
    // attacker stuffs hard.
    c.pollution_bits = 16'384;
    harden(c);
    if (name == "polluted") defend(c);
    return s;
  }
  if (name == "storm" || name == "storm-open") {
    // Flash crowds, not drizzle: each episode's emitters fire fast enough
    // that an unshedded origin's pending queue climbs well past the
    // shield's cap — the defended variant must actually shed.
    c.storms = 2;
    c.storm_duration = 1.0;
    c.storm_emitters = 8;
    c.storm_queries_per_emitter = 150;
    harden(c);
    if (name == "storm") shield(c);
    return s;
  }
  if (name == "byzantine") {
    c.polluter_fraction = 0.10;
    c.stale_advertiser_fraction = 0.05;
    c.confirm_dropper_fraction = 0.05;
    c.pollution_bits = 16'384;
    c.storms = 1;
    harden(c);
    defend(c);
    shield(c);
    return s;
  }
  throw ConfigError("unknown fault preset '" + name + "' (available: " +
                    preset_list() + ", or a path to a JSON scenario file)");
}

FaultScenario scenario_from_spec(const std::string& spec) {
  const bool looks_like_path =
      spec.find('/') != std::string::npos ||
      (spec.size() > 5 && spec.compare(spec.size() - 5, 5, ".json") == 0);
  if (!looks_like_path) return fault_preset(spec);
  std::ifstream in(spec);
  if (!in) throw ConfigError("faults: cannot read scenario file " + spec);
  std::ostringstream buf;
  buf << in.rdbuf();
  return scenario_from_json(json::parse(buf.str()));
}

json::Value scenario_to_json(const FaultScenario& s) {
  const FaultConfig& c = s.config;
  json::Object o;
  o.emplace_back("name", s.name);
  o.emplace_back("crash_fraction", c.crash_fraction);
  o.emplace_back("crash_detection_s", c.crash_detection);
  o.emplace_back("link_loss", c.link_loss);
  o.emplace_back("latency_jitter", c.latency_jitter);
  o.emplace_back("partitions", static_cast<double>(c.partitions));
  o.emplace_back("partition_duration_s", c.partition_duration);
  o.emplace_back("partition_fraction", c.partition_fraction);
  o.emplace_back("bursts", static_cast<double>(c.bursts));
  o.emplace_back("burst_duration_s", c.burst_duration);
  o.emplace_back("burst_loss", c.burst_loss);
  o.emplace_back("confirm_attempts", static_cast<double>(c.confirm_attempts));
  o.emplace_back("stale_strikes", static_cast<double>(c.stale_strikes));
  o.emplace_back("confirm_backoff_s", c.confirm_backoff);
  // Adversary + defense fields: emitted only when non-default so legacy
  // scenario files round-trip byte-identically.
  if (c.adversarial() || c.trust_enabled || c.strike_per_chain ||
      c.trust_fill_gate > 0 || c.pending_query_cap > 0 ||
      c.ttl_clamp_depth > 0) {
    o.emplace_back("polluter_fraction", c.polluter_fraction);
    o.emplace_back("stale_advertiser_fraction", c.stale_advertiser_fraction);
    o.emplace_back("confirm_dropper_fraction", c.confirm_dropper_fraction);
    o.emplace_back("pollution_bits", static_cast<double>(c.pollution_bits));
    o.emplace_back("storms", static_cast<double>(c.storms));
    o.emplace_back("storm_duration_s", c.storm_duration);
    o.emplace_back("storm_emitters", static_cast<double>(c.storm_emitters));
    o.emplace_back("storm_queries_per_emitter",
                   static_cast<double>(c.storm_queries_per_emitter));
    o.emplace_back("storm_hot_terms", static_cast<double>(c.storm_hot_terms));
    o.emplace_back("trust_enabled", c.trust_enabled);
    o.emplace_back("trust_reward", c.trust_reward);
    o.emplace_back("trust_strike_decay", c.trust_strike_decay);
    o.emplace_back("trust_quarantine_threshold", c.trust_quarantine_threshold);
    o.emplace_back("trust_quarantine_backoff_s", c.trust_quarantine_backoff);
    o.emplace_back("trust_fill_gate", c.trust_fill_gate);
    o.emplace_back("strike_per_chain", c.strike_per_chain);
    o.emplace_back("pending_query_cap",
                   static_cast<double>(c.pending_query_cap));
    o.emplace_back("ttl_clamp_depth", static_cast<double>(c.ttl_clamp_depth));
  }
  return json::Value(std::move(o));
}

FaultScenario scenario_from_json(const json::Value& v) {
  FaultScenario s;
  s.name = v.at("name").as_string();
  FaultConfig& c = s.config;
  const auto num = [&](const char* key, double fallback) {
    const json::Value* f = v.find(key);
    return f != nullptr ? f->as_double() : fallback;
  };
  // A count must be an integer in [0, 2^32 - 1]: casting a negative,
  // fractional or oversized double to uint32 is undefined or truncates.
  const auto count = [&](const char* key, std::uint32_t fallback) {
    const json::Value* f = v.find(key);
    if (f == nullptr) return fallback;
    const double d = f->as_double();
    if (!(d >= 0.0 && d <= std::numeric_limits<std::uint32_t>::max() &&
          d == std::floor(d))) {
      throw ConfigError(std::string("faults: ") + key +
                        " must be an integer in [0, 4294967295]");
    }
    return static_cast<std::uint32_t>(d);
  };
  c.crash_fraction = num("crash_fraction", c.crash_fraction);
  c.crash_detection = num("crash_detection_s", c.crash_detection);
  c.link_loss = num("link_loss", c.link_loss);
  c.latency_jitter = num("latency_jitter", c.latency_jitter);
  c.partitions = count("partitions", c.partitions);
  c.partition_duration = num("partition_duration_s", c.partition_duration);
  c.partition_fraction = num("partition_fraction", c.partition_fraction);
  c.bursts = count("bursts", c.bursts);
  c.burst_duration = num("burst_duration_s", c.burst_duration);
  c.burst_loss = num("burst_loss", c.burst_loss);
  c.confirm_attempts = count("confirm_attempts", c.confirm_attempts);
  c.stale_strikes = count("stale_strikes", c.stale_strikes);
  c.confirm_backoff = num("confirm_backoff_s", c.confirm_backoff);
  const auto flag = [&](const char* key, bool fallback) {
    const json::Value* f = v.find(key);
    return f != nullptr ? f->as_bool() : fallback;
  };
  c.polluter_fraction = num("polluter_fraction", c.polluter_fraction);
  c.stale_advertiser_fraction =
      num("stale_advertiser_fraction", c.stale_advertiser_fraction);
  c.confirm_dropper_fraction =
      num("confirm_dropper_fraction", c.confirm_dropper_fraction);
  c.pollution_bits = count("pollution_bits", c.pollution_bits);
  c.storms = count("storms", c.storms);
  c.storm_duration = num("storm_duration_s", c.storm_duration);
  c.storm_emitters = count("storm_emitters", c.storm_emitters);
  c.storm_queries_per_emitter =
      count("storm_queries_per_emitter", c.storm_queries_per_emitter);
  c.storm_hot_terms = count("storm_hot_terms", c.storm_hot_terms);
  c.trust_enabled = flag("trust_enabled", c.trust_enabled);
  c.trust_reward = num("trust_reward", c.trust_reward);
  c.trust_strike_decay = num("trust_strike_decay", c.trust_strike_decay);
  c.trust_quarantine_threshold =
      num("trust_quarantine_threshold", c.trust_quarantine_threshold);
  c.trust_quarantine_backoff =
      num("trust_quarantine_backoff_s", c.trust_quarantine_backoff);
  c.trust_fill_gate = num("trust_fill_gate", c.trust_fill_gate);
  c.strike_per_chain = flag("strike_per_chain", c.strike_per_chain);
  c.pending_query_cap = count("pending_query_cap", c.pending_query_cap);
  c.ttl_clamp_depth = count("ttl_clamp_depth", c.ttl_clamp_depth);
  c.validate();
  return s;
}

}  // namespace asap::faults
