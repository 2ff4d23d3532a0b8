#include "asap/ad.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace asap::ads {
namespace {

TEST(Ad, KindNamesAreDistinct) {
  EXPECT_STREQ(ad_kind_name(AdKind::kFull), "full");
  EXPECT_STREQ(ad_kind_name(AdKind::kPatch), "patch");
  EXPECT_STREQ(ad_kind_name(AdKind::kRefresh), "refresh");
}

TEST(Ad, FullAdBytesGrowWithContent) {
  sim::SizeModel sizes;
  bloom::BloomFilter empty;
  const AdPayload sparse(1, 1, empty, {0, 3});
  bloom::BloomFilter loaded;
  for (std::uint64_t k = 0; k < 1'500; ++k) loaded.insert(k);
  const AdPayload dense(2, 1, loaded, {0});
  EXPECT_LT(full_ad_bytes(sparse, sizes), full_ad_bytes(dense, sizes));
  EXPECT_GE(full_ad_bytes(sparse, sizes), sizes.ad_header);
  // A fully loaded filter transmits the whole bitmap (~1.44 KB), matching
  // the paper's 1.43 KB figure.
  EXPECT_NEAR(static_cast<double>(full_ad_bytes(dense, sizes)),
              11'542.0 / 8.0 + sizes.ad_header, 16.0);
}

TEST(Ad, PatchBytesScaleWithToggleCount) {
  sim::SizeModel sizes;
  EXPECT_EQ(patch_ad_bytes(0, 2, sizes), sizes.ad_header + 2);
  EXPECT_EQ(patch_ad_bytes(10, 2, sizes),
            sizes.ad_header + 2 + 10 * sizes.patch_entry);
  EXPECT_LT(patch_ad_bytes(10, 1, sizes), patch_ad_bytes(100, 1, sizes));
}

TEST(Ad, RefreshIsHeaderOnly) {
  sim::SizeModel sizes;
  EXPECT_EQ(refresh_ad_bytes(sizes), sizes.ad_header);
}

TEST(Ad, TopicsOverlapSemantics) {
  EXPECT_TRUE(topics_overlap({1, 3, 5}, {5, 7}));
  EXPECT_TRUE(topics_overlap({1}, {1}));
  EXPECT_FALSE(topics_overlap({1, 3}, {2, 4}));
  EXPECT_FALSE(topics_overlap({}, {1}));
  EXPECT_FALSE(topics_overlap({}, {}));
  EXPECT_TRUE(topics_overlap({0, 2, 4, 6, 8}, {8}));
}

TEST(Ad, TopicMasksOverlapExactlyWhenTopicListsDo) {
  Rng rng(17);
  const auto random_topics = [&rng] {
    std::vector<TopicId> t;
    for (TopicId c = 0; c < trace::kNumClasses; ++c) {
      if (rng.below(4) == 0) t.push_back(c);
    }
    return t;  // ascending == sorted
  };
  for (int i = 0; i < 5'000; ++i) {
    const auto a = random_topics();
    const auto b = random_topics();
    EXPECT_EQ((topic_mask_of(a) & topic_mask_of(b)) != 0,
              topics_overlap(a, b));
  }
  EXPECT_EQ(topic_mask_of(std::vector<TopicId>{}), 0u);
  EXPECT_EQ(topic_mask_of(std::vector<TopicId>{0, 13}), 0x2001u);
  EXPECT_THROW(topic_mask_of(std::vector<TopicId>{trace::kNumClasses}),
               ConfigError);
}

TEST(Ad, PayloadDerivesFoldAndTopicMaskAtConstruction) {
  bloom::BloomFilter f;
  for (KeywordId k = 0; k < 40; ++k) f.insert(k * 7);
  const AdPayload ad(3, 2, f, {1, 4});
  EXPECT_EQ(ad.fold, f.fold());
  EXPECT_EQ(ad.topic_mask, topic_mask_of(std::vector<TopicId>{1, 4}));
  const AdPayload empty(3, 1, bloom::BloomFilter{}, {});
  EXPECT_EQ(empty.fold, 0u);
  EXPECT_EQ(empty.topic_mask, 0u);
}

}  // namespace
}  // namespace asap::ads
