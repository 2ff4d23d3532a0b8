// Deterministic fault-injection configuration (DESIGN.md §11).
//
// A FaultConfig describes *what* adversity a run is subjected to; the
// FaultPlan (fault_plan.hpp) compiles it into a concrete, seeded schedule
// and the FaultInjector (injector.hpp) executes that schedule against one
// run. Four fault classes, all off by default:
//
//   * crash-stop failures — a node vanishes without the leave protocol
//     (keep-alives go silent, stale ads stay stranded in peer caches),
//     distinct from a graceful trace kLeave;
//   * per-link loss and latency jitter on top of the transit-stub
//     latencies;
//   * network partitions — a set of stub domains is cut off from the rest
//     of the physical network for an interval, then heals;
//   * burst loss windows — correlated loss at a high rate for [t0, t1).
//
// The config also carries the protocol-hardening knobs the harness applies
// to AsapParams when (and only when) the fault layer is active, so a
// faults-off run keeps today's protocol behaviour bit-for-bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/types.hpp"

namespace asap::faults {

struct FaultConfig {
  // --- crash-stop failures ----------------------------------------------
  /// Fraction of the initial population that crash-stops during the
  /// measurement window (trace-churned nodes are never picked, so crashes
  /// and graceful churn cannot collide on one node).
  double crash_fraction = 0.0;
  /// Keep-alive detection delay: for this long after a crash, neighbors
  /// still believe the node is up and pay for transmissions to it.
  Seconds crash_detection = 30.0;

  // --- link layer --------------------------------------------------------
  /// Per-transmission loss probability, independent of (and on top of)
  /// the scalar RunOptions::message_loss.
  double link_loss = 0.0;
  /// Multiplicative latency jitter: each delivered hop's latency is scaled
  /// by uniform(1 - j, 1 + j). 0 disables (and draws nothing).
  double latency_jitter = 0.0;

  // --- partitions --------------------------------------------------------
  /// Number of partition episodes within the measurement window.
  std::uint32_t partitions = 0;
  Seconds partition_duration = 60.0;
  /// Fraction of stub domains cut off per episode (at least one).
  double partition_fraction = 0.10;

  // --- burst loss --------------------------------------------------------
  /// Number of correlated-loss windows within the measurement window.
  std::uint32_t bursts = 0;
  Seconds burst_duration = 15.0;
  /// Loss probability applied to every transmission inside a burst window.
  double burst_loss = 0.9;

  // --- adversarial (Byzantine) roles -------------------------------------
  // Seeded per-node role assignment, drawn from a dedicated adversary RNG
  // stream so arming a role never perturbs the crash/partition/burst
  // schedules of the existing presets. Roles are disjoint from each other
  // and from trace-churned nodes.
  /// Fraction of initial nodes that stuff every published ad's filter with
  /// phantom set bits (false-positive pollution).
  double polluter_fraction = 0.0;
  /// Fraction that advertise honestly but always answer confirms
  /// negatively (advertise-then-never-serve).
  double stale_advertiser_fraction = 0.0;
  /// Fraction that silently drop confirm requests (the requester times
  /// out; no reply bytes are ever paid).
  double confirm_dropper_fraction = 0.0;
  /// Extra phantom bits a polluter sets per published full ad.
  std::uint32_t pollution_bits = 64;

  // --- query storms -------------------------------------------------------
  /// Number of flash-crowd storm episodes within the measurement window.
  std::uint32_t storms = 0;
  Seconds storm_duration = 30.0;
  /// Emitter nodes per storm episode (capped at the live population).
  std::uint32_t storm_emitters = 24;
  /// Synthetic queries each emitter fires per episode.
  std::uint32_t storm_queries_per_emitter = 40;
  /// Hot term set: storm queries draw from the `storm_hot_terms` most
  /// popular keywords (low KeywordIds are most popular under Zipf ranks).
  std::uint32_t storm_hot_terms = 8;

  // --- defense (applied only when the fault layer is armed) ---------------
  /// Master switch for per-source trust scoring on AdCache entries.
  bool trust_enabled = false;
  /// Reward on a confirmed hit: trust += reward * (1 - trust).
  double trust_reward = 0.3;
  /// Multiplicative decay per strike (false positive or confirm-timeout
  /// chain): trust *= decay.
  double trust_strike_decay = 0.5;
  /// Entries whose source trust falls below this are quarantined.
  double trust_quarantine_threshold = 0.2;
  /// Re-admit backoff base after quarantine; doubles per repeat offense.
  Seconds trust_quarantine_backoff = 120.0;
  /// Ad-admission plausibility gate: any ad whose Bloom fill ratio exceeds
  /// this is admitted fully distrusted (demote-and-verify), so confirm
  /// probes rank honest sources first while the polluter's real content
  /// stays reachable as a last resort. An honest filter at the design
  /// keyword capacity fills ~0.50, so the defended presets use 0.65 — zero
  /// honest casualties. 0 = gate off.
  double trust_fill_gate = 0.0;
  /// One strike per confirm attempt chain (satellite fix for the
  /// erase_stale / retry double-count); off keeps legacy accounting.
  bool strike_per_chain = false;
  /// Bounded per-origin pending-query queue; 0 = unbounded (legacy).
  std::uint32_t pending_query_cap = 0;
  /// When an origin's pending depth reaches this, phase-2 ads-requests are
  /// suppressed (TTL clamp-down); 0 = never clamp.
  std::uint32_t ttl_clamp_depth = 0;

  /// True when any adversarial role or storm is configured (defense knobs
  /// alone do not count, mirroring the hardening knobs).
  bool adversarial() const;

  // --- protocol hardening (applied only when the fault layer is armed) ---
  /// Confirm attempts per candidate; 0 = keep the protocol default (1).
  std::uint32_t confirm_attempts = 0;
  /// Consecutive confirm timeouts before a source's ad is evicted as
  /// stale; 0 = keep the protocol default (1).
  std::uint32_t stale_strikes = 0;
  /// Exponential-backoff base between confirm attempts; 0 = protocol
  /// default.
  Seconds confirm_backoff = 0.0;

  /// True when any fault class is actually injected (hardening and defense
  /// knobs alone do not count: they change nothing unless an injector is
  /// armed).
  bool any() const;
  /// Throws ConfigError on out-of-range rates or durations.
  void validate() const;

  /// This config under the --trust on|off defense override (DESIGN.md §16).
  /// `on` arms trust scoring and one strike per confirm chain, and sets the
  /// 0.65 fill gate when no gate was set; `off` strips trust, the strike
  /// chain guard, the fill gate and the overload defenses
  /// (pending_query_cap, ttl_clamp_depth).
  FaultConfig with_trust(bool on) const;
};

/// A named FaultConfig — the matrix runner's scenario-axis element.
struct FaultScenario {
  std::string name = "none";
  FaultConfig config;
};

/// Built-in preset names, in canonical order.
const std::vector<std::string>& fault_preset_names();

/// Resolves a built-in preset. Throws ConfigError with the preset list on
/// an unknown name.
FaultScenario fault_preset(const std::string& name);

/// Resolves a --faults item: a preset name, or a path to a JSON file
/// (recognized by containing '/' or ending in ".json") holding a scenario
/// object. Throws ConfigError with a readable message otherwise.
FaultScenario scenario_from_spec(const std::string& spec);

/// Writes the name and every FaultConfig key.
json::Value scenario_to_json(const FaultScenario& s);
/// Reads a scenario object; an absent key keeps its FaultConfig default,
/// so hand-written scenario files may list only what they change.
FaultScenario scenario_from_json(const json::Value& v);

}  // namespace asap::faults
