#include "asap/advertiser.hpp"

#include "common/error.hpp"

namespace asap::ads {

Advertiser::Advertiser(NodeId source, bloom::BloomParams params)
    : source_(source), params_(params) {}

void Advertiser::ensure_filter() {
  if (!filter_) filter_ = std::make_unique<bloom::BloomFilter>(params_);
}

void Advertiser::insert_keywords(const trace::Document& doc) {
  for (KeywordId kw : doc.keywords) filter_->insert(kw);
}

void Advertiser::add_document(const trace::Document& doc) {
  ensure_filter();
  insert_keywords(doc);
  ++class_counts_[doc.topic];
  ++doc_count_;
}

void Advertiser::remove_document(const trace::Document& doc,
                                 std::span<const DocId> remaining,
                                 std::span<const trace::Document> corpus) {
  ASAP_DCHECK(filter_ != nullptr && doc_count_ > 0);
  if (!filter_ || doc_count_ == 0) return;
  if (class_counts_[doc.topic] > 0) --class_counts_[doc.topic];
  --doc_count_;
  ASAP_DCHECK(remaining.size() == doc_count_);
  filter_->clear();
  for (const DocId d : remaining) insert_keywords(corpus[d]);
}

std::vector<TopicId> Advertiser::topics() const {
  std::vector<TopicId> out;
  for (TopicId c = 0; c < trace::kNumClasses; ++c) {
    if (class_counts_[c] > 0) out.push_back(c);
  }
  return out;  // ascending class id == sorted
}

AdPayloadPtr Advertiser::publish_full() {
  ensure_filter();
  ++version_;
  payload_ = make_payload(source_, version_, *filter_, topics());
  base_payload_ = payload_;
  return payload_;
}

AdPayloadPtr Advertiser::publish_update() {
  ensure_filter();
  ++version_;
  payload_ = make_payload(source_, version_, *filter_, topics());
  return payload_;
}

std::vector<std::uint32_t> Advertiser::pending_patch() const {
  if (!payload_) return {};
  ASAP_DCHECK(filter_ != nullptr);
  return bloom::BloomFilter::diff(payload_->filter, *filter_);
}

std::vector<std::uint32_t> Advertiser::pending_delta() const {
  if (!base_payload_) return {};
  ASAP_DCHECK(filter_ != nullptr);
  return bloom::BloomFilter::diff(base_payload_->filter, *filter_);
}

bool Advertiser::dirty() const {
  if (!filter_) return false;
  if (!payload_) return doc_count_ > 0;
  return !(payload_->filter == *filter_);
}

}  // namespace asap::ads
