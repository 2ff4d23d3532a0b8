// Binary serialization of traces and content models.
//
// A (ContentModel, Trace) pair fully determines the workload a system
// under test sees, so persisting them lets one build a world once and
// replay the exact same workload across machines, tool versions, or
// competing implementations. The format uses the varint codec from
// common/codec.hpp; everything is versioned behind a magic/format header.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "trace/content_model.hpp"
#include "trace/trace.hpp"

namespace asap::trace {

/// Serializes the content model (corpus, placements, interests).
std::vector<std::uint8_t> serialize_content(const ContentModel& model);
ContentModel deserialize_content(std::span<const std::uint8_t> data);

/// Serializes a trace (events + counters).
std::vector<std::uint8_t> serialize_trace(const Trace& trace);
Trace deserialize_trace(std::span<const std::uint8_t> data);

/// File round trips (throw ConfigError on I/O failure, wire::DecodeError
/// on malformed content, including a count larger than the bytes left to
/// hold it, or an event whose node or document the model does not have).
void save_bundle(const std::string& path, const ContentModel& model,
                 const Trace& trace);
struct TraceBundle {
  ContentModel model;
  Trace trace;
};
TraceBundle load_bundle(const std::string& path);
/// load_bundle on the bytes of a bundle file.
TraceBundle decode_bundle(std::span<const std::uint8_t> data);

}  // namespace asap::trace
