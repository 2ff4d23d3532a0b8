// JSONL trace sink with deterministic sampling.
//
// Each record is one compact JSON object per line (json::dump_compact).
// Sampling is per record kind and purely counter-based: with
// `sample_every == N`, the 1st, (N+1)th, (2N+1)th ... record of each kind
// is written and the rest are suppressed (but still counted). Because the
// decision depends only on the record sequence — which is deterministic in
// a deterministic run — the same run traced twice produces byte-identical
// files, and changing N never changes *which* run executed, only which
// records survive.
#pragma once

#include <array>
#include <cstdint>
#include <ostream>

#include "common/json.hpp"

namespace asap::obs {

/// Record kinds sampled independently, so a chatty kind (per-query spans)
/// cannot starve a rare one (churn transitions) out of the file.
enum class RecordKind : std::uint8_t {
  kQuery = 0,
  kAd,
  kConfirm,
  kChurn,
  kFault,       // fault-layer injections: crash/detect/partition/heal/burst
  kRetry,       // confirm retry attempts (protocol hardening)
  kStaleEvict,  // stale-ad evictions after consecutive confirm timeouts
  kAdRound,     // adaptive-scheduler ad rounds (emitted/spilled/bytes)
  kTrustStrike,  // trust strikes against an ad source (defense layer)
  kQuarantine,   // quarantine enter/exit of an ad source at a cacher
  kQueryShed,    // queries shed by overload protection
  kCount
};

inline constexpr std::size_t kRecordKindCount =
    static_cast<std::size_t>(RecordKind::kCount);

class TraceSink {
 public:
  /// @param out           stream the JSONL lines are appended to; not owned.
  /// @param sample_every  keep every Nth record per kind (>= 1).
  TraceSink(std::ostream& out, std::uint64_t sample_every);

  /// Advances the per-kind record counter; true when this record should be
  /// emitted. Call exactly once per record, before building the line.
  bool sampled(RecordKind kind);

  /// Writes one record as a single JSONL line.
  void write(const json::Object& record);

  std::uint64_t records_written() const { return written_; }
  std::uint64_t records_seen(RecordKind kind) const {
    return seen_[static_cast<std::size_t>(kind)];
  }

 private:
  std::ostream& out_;
  std::uint64_t sample_every_;
  std::array<std::uint64_t, kRecordKindCount> seen_{};
  std::uint64_t written_ = 0;
};

}  // namespace asap::obs
