#include "obs/trace_sink.hpp"

#include "common/error.hpp"

namespace asap::obs {

TraceSink::TraceSink(std::ostream& out, std::uint64_t sample_every)
    : out_(out), sample_every_(sample_every) {
  ASAP_REQUIRE(sample_every >= 1, "trace sample period must be >= 1");
}

bool TraceSink::sampled(RecordKind kind) {
  const std::uint64_t index = seen_[static_cast<std::size_t>(kind)]++;
  return index % sample_every_ == 0;
}

void TraceSink::write(const json::Object& record) {
  out_ << json::dump_compact(json::Value(record)) << '\n';
  ++written_;
}

}  // namespace asap::obs
