#include <gtest/gtest.h>

#include "data/cifar_like.hpp"

namespace mpcnn::data {
namespace {

TEST(Dataset, BatchingAndLabels) {
  CifarLikeGenerator gen{SyntheticConfig{}};
  const Dataset set = gen.generate(20, 1);
  EXPECT_EQ(set.size(), 20);
  const Tensor batch = set.batch(5, 10);
  EXPECT_EQ(batch.shape(), Shape({10, 3, 32, 32}));
  EXPECT_THROW(set.batch(15, 10), Error);
}

TEST(Dataset, SubsetAndTake) {
  CifarLikeGenerator gen{SyntheticConfig{}};
  const Dataset set = gen.generate(10, 2);
  const Dataset sub = set.subset({3, 7, 1});
  EXPECT_EQ(sub.size(), 3);
  EXPECT_EQ(sub.labels[0], set.labels[3]);
  EXPECT_EQ(sub.labels[2], set.labels[1]);
  for (Dim i = 0; i < 3 * 32 * 32; ++i) {
    EXPECT_EQ(sub.images[i], set.images[3 * 3 * 32 * 32 + i]);
  }
  EXPECT_THROW(set.subset({10}), Error);
}

TEST(Dataset, ShuffleKeepsPairsTogether) {
  CifarLikeGenerator gen{SyntheticConfig{}};
  Dataset set = gen.generate(30, 5);
  // Tag each image's first pixel with its label so we can verify the
  // image/label binding survives the shuffle.
  for (Dim i = 0; i < set.size(); ++i) {
    set.images[i * 3 * 32 * 32] =
        static_cast<float>(set.labels[static_cast<std::size_t>(i)]);
  }
  Rng rng(6);
  set.shuffle(rng);
  for (Dim i = 0; i < set.size(); ++i) {
    EXPECT_EQ(static_cast<int>(set.images[i * 3 * 32 * 32]),
              set.labels[static_cast<std::size_t>(i)]);
  }
}

TEST(CifarLike, DeterministicForSameSeed) {
  CifarLikeGenerator gen{SyntheticConfig{}};
  const Dataset a = gen.generate(12, 9);
  const Dataset b = gen.generate(12, 9);
  EXPECT_EQ(a.labels, b.labels);
  for (Dim i = 0; i < a.images.numel(); ++i) {
    ASSERT_EQ(a.images[i], b.images[i]);
  }
}

TEST(CifarLike, DifferentSeedsDiffer) {
  CifarLikeGenerator gen{SyntheticConfig{}};
  const Dataset a = gen.generate(12, 9);
  const Dataset b = gen.generate(12, 10);
  Dim different = 0;
  for (Dim i = 0; i < a.images.numel(); ++i) {
    if (a.images[i] != b.images[i]) ++different;
  }
  EXPECT_GT(different, a.images.numel() / 2);
}

TEST(CifarLike, BalancedClasses) {
  CifarLikeGenerator gen{SyntheticConfig{}};
  const Dataset set = gen.generate(200, 11);
  const auto hist = set.class_histogram();
  for (Dim count : hist) EXPECT_EQ(count, 20);
}

TEST(CifarLike, PixelsInUnitRange) {
  CifarLikeGenerator gen{SyntheticConfig{}};
  const Dataset set = gen.generate(50, 13);
  EXPECT_GE(set.images.min(), 0.0f);
  EXPECT_LE(set.images.max(), 1.0f);
}

TEST(CifarLike, ConfusablePairsShareStructure) {
  // With the subtle cue switched off, paired classes (2k, 2k+1) render
  // from identical prototypes; with it on, they differ.
  SyntheticConfig off;
  off.subtle_cue = 0.0f;
  off.noise_sigma = 0.0f;
  off.distractor = 0.0f;
  off.max_shift = 0;
  off.scale_jitter = 0.0f;
  off.photometric_jitter = 0.0f;
  CifarLikeGenerator gen_off{off};
  Rng r1(5), r2(5);
  const Tensor even = gen_off.render(0, r1);
  const Tensor odd = gen_off.render(1, r2);
  for (Dim i = 0; i < even.numel(); ++i) {
    ASSERT_FLOAT_EQ(even[i], odd[i]);
  }

  SyntheticConfig on = off;
  on.subtle_cue = 0.5f;
  CifarLikeGenerator gen_on{on};
  Rng r3(5), r4(5);
  const Tensor even2 = gen_on.render(0, r3);
  const Tensor odd2 = gen_on.render(1, r4);
  Dim different = 0;
  for (Dim i = 0; i < even2.numel(); ++i) {
    if (even2[i] != odd2[i]) ++different;
  }
  EXPECT_GT(different, 0);
}

TEST(CifarLike, RejectsBadLabel) {
  CifarLikeGenerator gen{SyntheticConfig{}};
  Rng rng(1);
  EXPECT_THROW(gen.render(10, rng), Error);
  EXPECT_THROW(gen.render(-1, rng), Error);
}

}  // namespace
}  // namespace mpcnn::data
