#include "asap/advertiser.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>

#include "common/rng.hpp"

namespace asap::ads {
namespace {

trace::Document doc(TopicId topic, std::vector<KeywordId> kws) {
  return trace::Document{topic, std::move(kws)};
}

TEST(Advertiser, FreshAdvertiserHasNothing) {
  Advertiser a(7);
  EXPECT_EQ(a.source(), 7u);
  EXPECT_FALSE(a.has_content());
  EXPECT_FALSE(a.has_advertised());
  EXPECT_EQ(a.version(), 0u);
  EXPECT_TRUE(a.topics().empty());
  EXPECT_FALSE(a.dirty());
  EXPECT_TRUE(a.pending_patch().empty());
}

TEST(Advertiser, AddDocumentSetsContentAndTopics) {
  Advertiser a(1);
  a.add_document(doc(3, {10, 20}));
  a.add_document(doc(5, {30}));
  EXPECT_TRUE(a.has_content());
  EXPECT_EQ(a.topics(), (std::vector<TopicId>{3, 5}));
  EXPECT_TRUE(a.dirty()) << "content exists but nothing advertised yet";
}

TEST(Advertiser, PublishFullSnapshotsContent) {
  Advertiser a(1);
  a.add_document(doc(2, {10, 20, 30}));
  const auto payload = a.publish_full();
  EXPECT_EQ(a.version(), 1u);
  EXPECT_EQ(payload->source, 1u);
  EXPECT_EQ(payload->version, 1u);
  EXPECT_TRUE(payload->filter.contains(10));
  EXPECT_TRUE(payload->filter.contains(30));
  EXPECT_EQ(payload->topics, (std::vector<TopicId>{2}));
  EXPECT_FALSE(a.dirty());
  EXPECT_TRUE(a.pending_patch().empty());
}

TEST(Advertiser, PendingPatchReconstructsNewFilter) {
  Advertiser a(1);
  a.add_document(doc(2, {10, 20}));
  const auto v1 = a.publish_full();
  a.add_document(doc(2, {30, 40}));
  EXPECT_TRUE(a.dirty());
  const auto patch = a.pending_patch();
  EXPECT_FALSE(patch.empty());
  // Applying the patch to the old advertised filter yields the new one.
  bloom::BloomFilter reconstructed = v1->filter;
  reconstructed.apply_toggles(patch);
  const auto v2 = a.publish_full();
  EXPECT_EQ(reconstructed, v2->filter);
  EXPECT_EQ(v2->version, 2u);
}

TEST(Advertiser, RemovalRebuildsBitsFromRemainingDocuments) {
  Advertiser a(1);
  const std::vector<trace::Document> corpus{doc(2, {10, 20}),
                                            doc(2, {20, 30})};  // 20 shared
  a.add_document(corpus[0]);
  a.add_document(corpus[1]);
  a.publish_full();
  a.remove_document(corpus[0], std::vector<DocId>{1}, corpus);
  const auto v2 = a.publish_full();
  EXPECT_FALSE(v2->filter.contains(10)) << "10 was unique to d1";
  EXPECT_TRUE(v2->filter.contains(20)) << "20 is still held via d2";
  EXPECT_TRUE(v2->filter.contains(30));
}

TEST(Advertiser, TopicsFollowClassCounts) {
  Advertiser a(1);
  const std::vector<trace::Document> corpus{doc(4, {1}), doc(4, {2})};
  a.add_document(corpus[0]);
  a.add_document(corpus[1]);
  a.remove_document(corpus[0], std::vector<DocId>{1}, corpus);
  EXPECT_EQ(a.topics(), (std::vector<TopicId>{4}));
  a.remove_document(corpus[1], {}, corpus);
  EXPECT_TRUE(a.topics().empty());
  EXPECT_FALSE(a.has_content());
}

TEST(Advertiser, NoChangeMeansEmptyPatch) {
  Advertiser a(1);
  const auto d1 = doc(0, {10, 20});
  const auto d2 = doc(0, {10, 20});  // identical keyword set
  a.add_document(d1);
  a.publish_full();
  a.add_document(d2);  // its bits are already set: filter unchanged
  EXPECT_FALSE(a.dirty());
  EXPECT_TRUE(a.pending_patch().empty());
}

TEST(Advertiser, VersionsIncrementMonotonically) {
  Advertiser a(1);
  a.add_document(doc(0, {1}));
  for (std::uint32_t v = 1; v <= 5; ++v) {
    const auto p = a.publish_full();
    EXPECT_EQ(p->version, v);
  }
}

TEST(AdvertiserProperty, BitmapMatchesCountingFilterUnderRandomChurn) {
  // Random add / remove / publish sequences over documents that share
  // keywords heavily: the advertiser rebuilds its bitmap on removal, and
  // must publish exactly the projection of a counting filter fed the
  // same sequence, with the same patches, deltas and dirtiness.
  Rng rng(17);
  std::vector<trace::Document> corpus;
  for (int d = 0; d < 48; ++d) {
    std::vector<KeywordId> kws;
    for (std::uint64_t k = 1 + rng.below(6); k > 0; --k) {
      kws.push_back(static_cast<KeywordId>(rng.below(40)));
    }
    corpus.push_back(doc(static_cast<TopicId>(rng.below(4)), std::move(kws)));
  }
  Advertiser a(3);
  bloom::CountingBloomFilter oracle;
  std::vector<DocId> live;
  std::optional<bloom::BloomFilter> published, full;
  std::uint64_t removals = 0, patches = 0;
  for (int step = 0; step < 4'000; ++step) {
    const std::uint64_t op = rng.below(6);
    if (op <= 1) {  // share a document the node does not hold yet
      const auto d = static_cast<DocId>(rng.below(corpus.size()));
      if (std::find(live.begin(), live.end(), d) != live.end()) continue;
      live.push_back(d);
      a.add_document(corpus[d]);
      for (const KeywordId kw : corpus[d].keywords) oracle.insert(kw);
    } else if (op <= 3) {  // stop sharing one
      if (live.empty()) continue;
      const auto at = static_cast<std::ptrdiff_t>(rng.below(live.size()));
      const DocId d = live[static_cast<std::size_t>(at)];
      live.erase(live.begin() + at);
      a.remove_document(corpus[d], live, corpus);
      for (const KeywordId kw : corpus[d].keywords) oracle.remove(kw);
      ++removals;
    } else if (op == 4) {
      const auto p = a.publish_full();
      ASSERT_EQ(p->filter, oracle.projection()) << "step " << step;
      published = full = oracle.projection();
    } else {
      const auto p = a.publish_update();
      ASSERT_EQ(p->filter, oracle.projection()) << "step " << step;
      published = oracle.projection();
    }

    const auto& want = oracle.projection();
    ASSERT_EQ(a.dirty(), published ? !(*published == want) : !live.empty())
        << "step " << step;
    const auto patch = a.pending_patch();
    ASSERT_EQ(patch, published ? bloom::BloomFilter::diff(*published, want)
                               : std::vector<std::uint32_t>{})
        << "step " << step;
    ASSERT_EQ(a.pending_delta(),
              full ? bloom::BloomFilter::diff(*full, want)
                   : std::vector<std::uint32_t>{})
        << "step " << step;
    patches += !patch.empty();
    ASSERT_EQ(a.has_content(), !live.empty());
    std::set<TopicId> topics;
    for (const DocId d : live) topics.insert(corpus[d].topic);
    ASSERT_EQ(a.topics(), std::vector<TopicId>(topics.begin(), topics.end()))
        << "step " << step;
  }
  EXPECT_GT(removals, 500u);
  EXPECT_GT(patches, 500u);
}

}  // namespace
}  // namespace asap::ads
