#include "trace/trace_io.hpp"

#include <fstream>

#include "common/codec.hpp"
#include "common/error.hpp"

namespace asap::trace {

namespace {

constexpr std::uint32_t kContentMagic = 0xA5A7C0DE;
constexpr std::uint32_t kTraceMagic = 0xA5A77ACE;
constexpr std::uint8_t kFormatVersion = 1;

void put_doc_list(wire::Writer& w, const std::vector<DocId>& docs) {
  w.varint(docs.size());
  for (const DocId d : docs) w.varint(d);
}

/// A varint that must fit 32 bits: every id and count the format stores
/// is a 32-bit value, so a wider one is malformed, never truncated.
std::uint32_t get_u32(wire::Reader& r) {
  const auto v = r.varint();
  if (v > UINT32_MAX) throw wire::DecodeError("trace_io: 32-bit range");
  return static_cast<std::uint32_t>(v);
}

/// A count of items that each take at least `min_bytes` of the input, so
/// a count the remaining bytes cannot hold is rejected before anything is
/// allocated for it.
std::size_t get_count(wire::Reader& r, std::size_t min_bytes) {
  const auto count = r.varint();
  if (count > r.remaining() / min_bytes) {
    throw wire::DecodeError("trace_io: count exceeds the input");
  }
  return static_cast<std::size_t>(count);
}

std::vector<DocId> get_doc_list(wire::Reader& r, std::size_t corpus_size) {
  const auto count = get_count(r, 1);
  if (count > corpus_size) {
    throw wire::DecodeError("trace_io: doc list longer than corpus");
  }
  std::vector<DocId> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto d = r.varint();
    if (d >= corpus_size) throw wire::DecodeError("trace_io: doc id range");
    out.push_back(static_cast<DocId>(d));
  }
  return out;
}

}  // namespace

std::vector<std::uint8_t> serialize_content(const ContentModel& model) {
  wire::Writer w;
  w.u32(kContentMagic);
  w.u8(kFormatVersion);

  const auto& p = model.params_;
  w.varint(p.initial_nodes);
  w.varint(p.joiner_nodes);
  w.varint(static_cast<std::uint64_t>(p.free_rider_fraction * 1e9));
  w.varint(static_cast<std::uint64_t>(p.mean_docs_per_sharer * 1e6));
  w.varint(p.max_docs_per_node);
  w.varint(static_cast<std::uint64_t>(p.single_copy_fraction * 1e9));
  w.varint(static_cast<std::uint64_t>(p.copy_tail_alpha * 1e6));
  w.varint(p.copy_tail_max);
  w.varint(p.popular_terms_per_class);
  w.varint(static_cast<std::uint64_t>(p.popular_term_alpha * 1e6));

  w.varint(model.corpus_.size());
  for (const auto& doc : model.corpus_) {
    w.u8(doc.topic);
    w.varint(doc.keywords.size());
    for (const KeywordId kw : doc.keywords) w.varint(kw);
  }
  for (const auto& docs : model.initial_docs_) put_doc_list(w, docs);
  for (const auto& docs : model.joiner_docs_) put_doc_list(w, docs);
  for (const auto& ints : model.interests_) {
    w.varint(ints.size());
    for (const TopicId t : ints) w.u8(t);
  }
  w.varint(model.next_keyword_);
  return w.to_vector();
}

ContentModel deserialize_content(std::span<const std::uint8_t> data) {
  wire::Reader r(data);
  if (r.u32() != kContentMagic) {
    throw wire::DecodeError("trace_io: bad content magic");
  }
  if (r.u8() != kFormatVersion) {
    throw wire::DecodeError("trace_io: unsupported content format version");
  }

  ContentModel m;
  auto& p = m.params_;
  p.initial_nodes = get_u32(r);
  p.joiner_nodes = get_u32(r);
  p.free_rider_fraction = static_cast<double>(r.varint()) / 1e9;
  p.mean_docs_per_sharer = static_cast<double>(r.varint()) / 1e6;
  p.max_docs_per_node = get_u32(r);
  p.single_copy_fraction = static_cast<double>(r.varint()) / 1e9;
  p.copy_tail_alpha = static_cast<double>(r.varint()) / 1e6;
  p.copy_tail_max = get_u32(r);
  p.popular_terms_per_class = get_u32(r);
  p.popular_term_alpha = static_cast<double>(r.varint()) / 1e6;
  const std::uint64_t total =
      std::uint64_t{p.initial_nodes} + p.joiner_nodes;
  if (total > UINT32_MAX) throw wire::DecodeError("trace_io: node count");

  // A document takes at least 2 bytes (topic, keyword count).
  const auto corpus_size = get_count(r, 2);
  m.corpus_.reserve(corpus_size);
  for (std::size_t i = 0; i < corpus_size; ++i) {
    Document doc;
    doc.topic = r.u8();
    if (doc.topic >= kNumClasses) {
      throw wire::DecodeError("trace_io: topic out of range");
    }
    const auto kws = get_count(r, 1);
    if (kws > 64) throw wire::DecodeError("trace_io: keyword count");
    doc.keywords.reserve(kws);
    for (std::size_t k = 0; k < kws; ++k) doc.keywords.push_back(get_u32(r));
    m.corpus_.push_back(std::move(doc));
  }

  // Every node slot has a doc list and an interest list, every joiner
  // slot a second doc list, and each list takes at least one byte.
  if (2 * total + p.joiner_nodes > r.remaining()) {
    throw wire::DecodeError("trace_io: node count exceeds the input");
  }
  m.initial_docs_.resize(total);
  for (auto& docs : m.initial_docs_) {
    docs = get_doc_list(r, m.corpus_.size());
  }
  m.joiner_docs_.resize(p.joiner_nodes);
  for (auto& docs : m.joiner_docs_) {
    docs = get_doc_list(r, m.corpus_.size());
  }
  m.interests_.resize(total);
  for (auto& ints : m.interests_) {
    const auto count = get_count(r, 1);
    if (count > kNumClasses) {
      throw wire::DecodeError("trace_io: interest count");
    }
    ints.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      const auto t = r.u8();
      if (t >= kNumClasses) throw wire::DecodeError("trace_io: interest id");
      ints.push_back(t);
    }
  }
  m.next_keyword_ = get_u32(r);
  if (!r.done()) throw wire::DecodeError("trace_io: trailing bytes");

  // Keyword ids are minted in order: the class pools first, then each
  // document's unique terms, so every id lies below next_keyword_.
  if (std::uint64_t{kNumClasses} * p.popular_terms_per_class >
      m.next_keyword_) {
    throw wire::DecodeError("trace_io: keyword pools exceed the id range");
  }
  for (const auto& doc : m.corpus_) {
    for (const KeywordId kw : doc.keywords) {
      if (kw >= m.next_keyword_) {
        throw wire::DecodeError("trace_io: keyword id range");
      }
    }
  }
  return m;
}

std::vector<std::uint8_t> serialize_trace(const Trace& trace) {
  wire::Writer w;
  w.u32(kTraceMagic);
  w.u8(kFormatVersion);
  w.varint(trace.num_queries);
  w.varint(trace.num_changes);
  w.varint(trace.num_joins);
  w.varint(trace.num_leaves);
  w.varint(trace.num_rejoins);
  w.varint(trace.events.size());
  // Times are stored as microsecond deltas (monotone non-decreasing).
  std::uint64_t prev_us = 0;
  for (const auto& ev : trace.events) {
    const auto us = static_cast<std::uint64_t>(ev.time * 1e6 + 0.5);
    ASAP_CHECK(us >= prev_us);
    w.varint(us - prev_us);
    prev_us = us;
    w.u8(static_cast<std::uint8_t>(ev.type));
    w.varint(ev.node);
    w.varint(ev.doc == kInvalidDoc ? 0 : static_cast<std::uint64_t>(ev.doc) + 1);
    w.u8(ev.num_terms);
    for (std::uint8_t i = 0; i < ev.num_terms; ++i) w.varint(ev.terms[i]);
  }
  return w.to_vector();
}

Trace deserialize_trace(std::span<const std::uint8_t> data) {
  wire::Reader r(data);
  if (r.u32() != kTraceMagic) {
    throw wire::DecodeError("trace_io: bad trace magic");
  }
  if (r.u8() != kFormatVersion) {
    throw wire::DecodeError("trace_io: unsupported trace format version");
  }
  Trace t;
  t.num_queries = get_u32(r);
  t.num_changes = get_u32(r);
  t.num_joins = get_u32(r);
  t.num_leaves = get_u32(r);
  t.num_rejoins = get_u32(r);
  // An event takes at least 5 bytes (time, type, node, doc, term count).
  const auto count = get_count(r, 5);
  t.events.reserve(count);
  std::uint64_t prev_us = 0;
  for (std::size_t i = 0; i < count; ++i) {
    TraceEvent ev;
    prev_us += r.varint();
    ev.time = static_cast<Seconds>(prev_us) / 1e6;
    const auto type = r.u8();
    if (type > static_cast<std::uint8_t>(TraceEventType::kRejoin)) {
      throw wire::DecodeError("trace_io: bad event type");
    }
    ev.type = static_cast<TraceEventType>(type);
    ev.node = get_u32(r);
    const DocId doc_plus1 = get_u32(r);
    ev.doc = doc_plus1 == 0 ? kInvalidDoc : doc_plus1 - 1;
    ev.num_terms = r.u8();
    if (ev.num_terms > ev.terms.size()) {
      throw wire::DecodeError("trace_io: term count");
    }
    for (std::uint8_t k = 0; k < ev.num_terms; ++k) ev.terms[k] = get_u32(r);
    t.events.push_back(ev);
  }
  if (!r.done()) throw wire::DecodeError("trace_io: trailing bytes");
  t.horizon = t.events.empty() ? 0.0 : t.events.back().time;
  return t;
}

void save_bundle(const std::string& path, const ContentModel& model,
                 const Trace& trace) {
  const auto content = serialize_content(model);
  const auto tr = serialize_trace(trace);
  std::ofstream out(path, std::ios::binary);
  ASAP_REQUIRE(out.good(), "cannot open bundle file for writing: " + path);
  wire::Writer header;
  header.varint(content.size());
  header.varint(tr.size());
  out.write(reinterpret_cast<const char*>(header.buffer().data()),
            static_cast<std::streamsize>(header.size()));
  out.write(reinterpret_cast<const char*>(content.data()),
            static_cast<std::streamsize>(content.size()));
  out.write(reinterpret_cast<const char*>(tr.data()),
            static_cast<std::streamsize>(tr.size()));
  ASAP_REQUIRE(out.good(), "failed writing bundle: " + path);
}

TraceBundle load_bundle(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  ASAP_REQUIRE(in.good(), "cannot open bundle file: " + path);
  const std::vector<std::uint8_t> data(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return decode_bundle(data);
}

TraceBundle decode_bundle(std::span<const std::uint8_t> data) {
  wire::Reader r(data);
  const auto content_size = r.varint();
  const auto trace_size = r.varint();
  const auto content = r.bytes(static_cast<std::size_t>(content_size));
  const auto tr = r.bytes(static_cast<std::size_t>(trace_size));
  if (!r.done()) throw wire::DecodeError("trace_io: trailing bundle bytes");
  TraceBundle bundle{deserialize_content(content), deserialize_trace(tr)};
  // The replay indexes per-node and per-document state with these ids
  // unchecked, so an event must name a slot and a document of the model.
  for (const TraceEvent& ev : bundle.trace.events) {
    if (ev.node >= bundle.model.total_node_slots()) {
      throw wire::DecodeError("trace_io: event node outside the model");
    }
    if (ev.doc != kInvalidDoc && ev.doc >= bundle.model.num_docs()) {
      throw wire::DecodeError("trace_io: event document outside the corpus");
    }
  }
  return bundle;
}

}  // namespace asap::trace
