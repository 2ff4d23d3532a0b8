#include "trace/trace_io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>

#include "common/codec.hpp"
#include "common/rng.hpp"
#include "trace/trace_gen.hpp"

namespace asap::trace {
namespace {

ContentModelParams small_params() {
  ContentModelParams p;
  p.initial_nodes = 300;
  p.joiner_nodes = 30;
  return p;
}

struct Fixture {
  Fixture() : rng(17), model(ContentModel::build(small_params(), rng)) {
    TraceParams tp;
    tp.num_queries = 400;
    tp.joins = 20;
    tp.leaves = 20;
    Rng gen_rng(18);
    TraceGenerator gen(model, tp, gen_rng);
    trace = gen.generate();
  }
  Rng rng;
  ContentModel model;
  Trace trace;
};

TEST(TraceIo, ContentRoundTrip) {
  Fixture fx;
  const auto bytes = serialize_content(fx.model);
  const auto restored = deserialize_content(bytes);

  EXPECT_EQ(restored.params().initial_nodes,
            fx.model.params().initial_nodes);
  EXPECT_EQ(restored.total_node_slots(), fx.model.total_node_slots());
  ASSERT_EQ(restored.corpus().size(), fx.model.corpus().size());
  for (std::size_t i = 0; i < fx.model.corpus().size(); i += 7) {
    EXPECT_EQ(restored.corpus()[i].topic, fx.model.corpus()[i].topic);
    EXPECT_EQ(restored.corpus()[i].keywords, fx.model.corpus()[i].keywords);
  }
  for (NodeId n = 0; n < fx.model.total_node_slots(); ++n) {
    EXPECT_EQ(restored.interests(n), fx.model.interests(n));
    if (n < fx.model.params().initial_nodes) {
      EXPECT_EQ(restored.initial_docs(n), fx.model.initial_docs(n));
    } else {
      EXPECT_EQ(restored.joiner_docs(n), fx.model.joiner_docs(n));
    }
  }
}

TEST(TraceIo, RestoredModelMintsDocumentsConsistently) {
  Fixture fx;
  auto restored = deserialize_content(serialize_content(fx.model));
  // Minting with the same RNG stream must produce identical documents
  // (next_keyword_ and the class pools must have survived).
  Rng a(55), b(55);
  const DocId da = fx.model.mint_document(3, a);
  const DocId db = restored.mint_document(3, b);
  EXPECT_EQ(da, db);
  EXPECT_EQ(fx.model.doc(da).keywords, restored.doc(db).keywords);
}

TEST(TraceIo, TraceRoundTrip) {
  Fixture fx;
  const auto bytes = serialize_trace(fx.trace);
  const auto restored = deserialize_trace(bytes);
  EXPECT_EQ(restored.num_queries, fx.trace.num_queries);
  EXPECT_EQ(restored.num_changes, fx.trace.num_changes);
  EXPECT_EQ(restored.num_joins, fx.trace.num_joins);
  EXPECT_EQ(restored.num_leaves, fx.trace.num_leaves);
  ASSERT_EQ(restored.events.size(), fx.trace.events.size());
  for (std::size_t i = 0; i < fx.trace.events.size(); ++i) {
    const auto& a = fx.trace.events[i];
    const auto& b = restored.events[i];
    EXPECT_EQ(a.type, b.type);
    EXPECT_EQ(a.node, b.node);
    EXPECT_EQ(a.doc, b.doc);
    EXPECT_EQ(a.num_terms, b.num_terms);
    for (std::uint8_t k = 0; k < a.num_terms; ++k) {
      EXPECT_EQ(a.terms[k], b.terms[k]);
    }
    EXPECT_NEAR(a.time, b.time, 1e-6);  // microsecond quantization
  }
  EXPECT_NEAR(restored.horizon, fx.trace.horizon, 1e-6);
}

TEST(TraceIo, BundleFileRoundTrip) {
  Fixture fx;
  const std::string path = ::testing::TempDir() + "asap_bundle_test.bin";
  save_bundle(path, fx.model, fx.trace);
  const auto bundle = load_bundle(path);
  EXPECT_EQ(bundle.model.corpus().size(), fx.model.corpus().size());
  EXPECT_EQ(bundle.trace.events.size(), fx.trace.events.size());
  std::remove(path.c_str());
}

TEST(TraceIo, MalformedInputThrows) {
  Fixture fx;
  auto bytes = serialize_content(fx.model);
  bytes[0] ^= 0xFF;  // break the magic
  EXPECT_THROW(deserialize_content(bytes), wire::DecodeError);

  auto tr = serialize_trace(fx.trace);
  tr[0] ^= 0xFF;
  EXPECT_THROW(deserialize_trace(tr), wire::DecodeError);
  // Truncations must throw, never crash.
  const auto good = serialize_trace(fx.trace);
  for (std::size_t len = 5; len < good.size(); len += good.size() / 17 + 1) {
    EXPECT_THROW(deserialize_trace(
                     std::span<const std::uint8_t>(good.data(), len)),
                 wire::DecodeError);
  }
  EXPECT_THROW(load_bundle("/nonexistent/path/x.bin"), ConfigError);
}

/// The 5-byte magic + version header of `serialized`, then one varint per
/// value.
std::vector<std::uint8_t> crafted(std::vector<std::uint8_t> serialized,
                                  std::initializer_list<std::uint64_t> values) {
  serialized.resize(5);
  wire::Writer w;
  for (const auto v : values) w.varint(v);
  serialized.insert(serialized.end(), w.buffer().begin(), w.buffer().end());
  return serialized;
}

// Each buffer names a count far larger than the bytes after it; decoding
// must reject it before allocating for it.
TEST(TraceIo, OversizedCountsThrowBeforeAllocating) {
  Fixture fx;
  // Five zero counters, then 2^31 events: 15 bytes.
  const auto events =
      crafted(serialize_trace(fx.trace), {0, 0, 0, 0, 0, 1ULL << 31});
  ASSERT_EQ(events.size(), 15u);
  EXPECT_THROW(deserialize_trace(events), wire::DecodeError);

  // Ten zero parameters, then a corpus of 2^31 documents: 20 bytes.
  const auto corpus = crafted(serialize_content(fx.model),
                              {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1ULL << 31});
  ASSERT_EQ(corpus.size(), 20u);
  EXPECT_THROW(deserialize_content(corpus), wire::DecodeError);

  // Both node counts at 2^32 - 1 (their 32-bit sum wraps), eight zero
  // parameters and an empty corpus: 24 bytes.
  const auto nodes = crafted(serialize_content(fx.model),
                             {UINT32_MAX, UINT32_MAX, 0, 0, 0, 0, 0, 0, 0, 0,
                              0});
  ASSERT_EQ(nodes.size(), 24u);
  EXPECT_THROW(deserialize_content(nodes), wire::DecodeError);
}

/// A bundle file's bytes: both section sizes, then the sections.
std::vector<std::uint8_t> bundle_of(std::span<const std::uint8_t> content,
                                    std::span<const std::uint8_t> trace) {
  wire::Writer w;
  w.varint(content.size());
  w.varint(trace.size());
  w.bytes(content);
  w.bytes(trace);
  return w.to_vector();
}

/// Deterministic mutants of `bytes`: every truncation, every byte with its
/// top bit and with all bits flipped, and the varint at every offset set
/// to 0, 2^31, 2^32 - 1 and 2^63.
std::vector<std::vector<std::uint8_t>> mutants_of(
    const std::vector<std::uint8_t>& bytes) {
  std::vector<std::vector<std::uint8_t>> out;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    out.emplace_back(bytes.begin(), bytes.begin() + i);
    for (const std::uint8_t mask : {0x80, 0xFF}) {
      out.push_back(bytes);
      out.back()[i] ^= mask;
    }
    std::size_t end = i + 1;  // one past the varint that starts at i
    while (end < bytes.size() && (bytes[end - 1] & 0x80) != 0) ++end;
    for (const std::uint64_t v :
         {0ULL, 1ULL << 31, 0xFFFFFFFFULL, 1ULL << 63}) {
      wire::Writer w;
      w.varint(v);
      auto& m = out.emplace_back(bytes);
      m.erase(m.begin() + i, m.begin() + end);
      m.insert(m.begin() + i, w.buffer().begin(), w.buffer().end());
    }
  }
  return out;
}

/// True when the bundle decodes, false when it throws one of the errors
/// trace_io.hpp promises; any other exception fails the test.
bool decodes(std::span<const std::uint8_t> bundle) {
  try {
    decode_bundle(bundle);
    return true;
  } catch (const wire::DecodeError&) {
    return false;
  } catch (const ConfigError&) {
    return false;
  }
}

// A tiny saved bundle and a few thousand mutants of its content section,
// its trace section and its framing: each decodes or throws DecodeError /
// ConfigError, never anything else (the sanitizer build runs this too).
TEST(TraceIo, MutatedBundlesDecodeOrThrow) {
  ContentModelParams cp;
  cp.initial_nodes = 12;
  cp.joiner_nodes = 2;
  cp.mean_docs_per_sharer = 2.0;
  cp.max_docs_per_node = 4;
  cp.popular_terms_per_class = 4;
  Rng rng(5);
  auto model = ContentModel::build(cp, rng);
  TraceParams tp;
  tp.num_queries = 12;
  tp.joins = 2;
  tp.leaves = 2;
  Rng gen_rng(6);
  TraceGenerator gen(model, tp, gen_rng);
  const Trace trace = gen.generate();

  const auto content = serialize_content(model);
  const auto tr = serialize_trace(trace);
  const auto bundle = bundle_of(content, tr);
  ASSERT_TRUE(decodes(bundle));

  std::size_t total = 0, decoded = 0;
  const auto check = [&](std::span<const std::uint8_t> b) {
    ++total;
    if (decodes(b)) ++decoded;
  };
  for (const auto& m : mutants_of(content)) check(bundle_of(m, tr));
  for (const auto& m : mutants_of(tr)) check(bundle_of(content, m));
  for (const auto& m : mutants_of(bundle)) check(m);
  EXPECT_GE(total, 2000u);
  // Neither outcome is vacuous: some mutants decode, others are rejected.
  EXPECT_GT(decoded, 0u);
  EXPECT_LT(decoded, total);
}

TEST(TraceIo, CompressionIsReasonable) {
  Fixture fx;
  const auto bytes = serialize_trace(fx.trace);
  // Varint + delta encoding: far below a naive 40-byte-per-event format.
  EXPECT_LT(bytes.size(), fx.trace.events.size() * 24);
}

}  // namespace
}  // namespace asap::trace
