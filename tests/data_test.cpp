#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "data/loader.h"
#include "data/partition.h"
#include "data/synthetic_images.h"
#include "data/synthetic_sequences.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/stats.h"

namespace apf {
namespace {

using data::SyntheticImageDataset;
using data::SyntheticImageSpec;
using data::SyntheticSequenceDataset;
using data::SyntheticSequenceSpec;

TEST(SyntheticImages, SizesAndShapes) {
  SyntheticImageSpec spec;
  spec.num_classes = 4;
  spec.channels = 3;
  spec.image_size = 8;
  SyntheticImageDataset ds(spec, 100, 1);
  EXPECT_EQ(ds.size(), 100u);
  EXPECT_EQ(ds.num_classes(), 4u);
  EXPECT_EQ(ds.sample_shape(), (Shape{3, 8, 8}));
}

TEST(SyntheticImages, BalancedLabels) {
  SyntheticImageSpec spec;
  spec.num_classes = 5;
  SyntheticImageDataset ds(spec, 100, 2);
  std::vector<int> counts(5, 0);
  for (std::size_t i = 0; i < ds.size(); ++i) ++counts[ds.label(i)];
  for (int c : counts) EXPECT_EQ(c, 20);
}

TEST(SyntheticImages, DeterministicGivenSeeds) {
  SyntheticImageSpec spec;
  SyntheticImageDataset a(spec, 20, 7), b(spec, 20, 7);
  const auto ba = a.get_batch(std::vector<std::size_t>{0, 5, 19});
  const auto bb = b.get_batch(std::vector<std::size_t>{0, 5, 19});
  for (std::size_t i = 0; i < ba.inputs.numel(); ++i) {
    EXPECT_EQ(ba.inputs[i], bb.inputs[i]);
  }
}

TEST(SyntheticImages, DifferentSplitsDiffer) {
  SyntheticImageSpec spec;
  SyntheticImageDataset a(spec, 20, 7), b(spec, 20, 8);
  const auto ba = a.get_batch(std::vector<std::size_t>{0});
  const auto bb = b.get_batch(std::vector<std::size_t>{0});
  bool differ = false;
  for (std::size_t i = 0; i < ba.inputs.numel(); ++i) {
    differ |= ba.inputs[i] != bb.inputs[i];
  }
  EXPECT_TRUE(differ);
}

TEST(SyntheticImages, SharedPrototypesAcrossSplits) {
  // Same class in train and test must be more similar than different
  // classes (the prototypes come from spec.seed, not the split seed).
  SyntheticImageSpec spec;
  spec.noise_stddev = 0.1;
  spec.max_shift = 0;
  spec.amplitude_jitter = 0.0;
  SyntheticImageDataset train(spec, 40, 1), test(spec, 40, 2);
  // Class 0 sample from each split.
  const auto a = train.get_batch(std::vector<std::size_t>{0});
  const auto b = test.get_batch(std::vector<std::size_t>{0});
  const auto c = test.get_batch(std::vector<std::size_t>{1});  // class 1
  double same = 0.0, cross = 0.0;
  for (std::size_t i = 0; i < a.inputs.numel(); ++i) {
    same += std::fabs(a.inputs[i] - b.inputs[i]);
    cross += std::fabs(a.inputs[i] - c.inputs[i]);
  }
  EXPECT_LT(same, cross);
}

TEST(SyntheticImages, LabelNoiseFlipsExpectedFraction) {
  SyntheticImageSpec clean_spec;
  clean_spec.num_classes = 10;
  clean_spec.image_size = 6;
  SyntheticImageSpec noisy_spec = clean_spec;
  noisy_spec.label_noise = 0.3;
  SyntheticImageDataset clean(clean_spec, 2000, 5);
  SyntheticImageDataset noisy(noisy_spec, 2000, 5);
  std::size_t flipped = 0;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    if (clean.label(i) != noisy.label(i)) ++flipped;
  }
  // A "random" label matches the true one 1/10 of the time, so the observed
  // flip rate is 0.3 * 0.9 = 0.27.
  const double rate = static_cast<double>(flipped) / 2000.0;
  EXPECT_NEAR(rate, 0.27, 0.04);
}

TEST(SyntheticImages, ZeroLabelNoiseKeepsBalancedLabels) {
  SyntheticImageSpec spec;
  spec.num_classes = 4;
  spec.image_size = 6;
  spec.label_noise = 0.0;
  SyntheticImageDataset ds(spec, 40, 6);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_EQ(ds.label(i), i % 4);
  }
}

TEST(SyntheticImages, BatchLabelsMatchDataset) {
  SyntheticImageSpec spec;
  SyntheticImageDataset ds(spec, 30, 3);
  const std::vector<std::size_t> idx = {3, 17, 25};
  const auto batch = ds.get_batch(idx);
  ASSERT_EQ(batch.labels.size(), 3u);
  for (std::size_t i = 0; i < idx.size(); ++i) {
    EXPECT_EQ(batch.labels[i], ds.label(idx[i]));
  }
}

TEST(SyntheticImages, FullBatchCoversAll) {
  SyntheticImageSpec spec;
  spec.image_size = 6;
  SyntheticImageDataset ds(spec, 25, 4);
  std::vector<std::size_t> all(ds.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  const auto batch = ds.get_batch(all);
  EXPECT_EQ(batch.size(), 25u);
  EXPECT_EQ(batch.inputs.dim(0), 25u);
}

TEST(SyntheticSequences, ShapesAndDeterminism) {
  SyntheticSequenceSpec spec;
  spec.time_steps = 12;
  spec.features = 4;
  SyntheticSequenceDataset a(spec, 30, 5), b(spec, 30, 5);
  EXPECT_EQ(a.sample_shape(), (Shape{12, 4}));
  const auto ba = a.get_batch(std::vector<std::size_t>{2});
  const auto bb = b.get_batch(std::vector<std::size_t>{2});
  for (std::size_t i = 0; i < ba.inputs.numel(); ++i) {
    EXPECT_EQ(ba.inputs[i], bb.inputs[i]);
  }
}

TEST(SyntheticSequences, ClassSignaturesDiffer) {
  SyntheticSequenceSpec spec;
  spec.noise_stddev = 0.0;
  SyntheticSequenceDataset ds(spec, 20, 1);
  const auto b0 = ds.get_batch(std::vector<std::size_t>{0});   // class 0
  const auto b1 = ds.get_batch(std::vector<std::size_t>{1});   // class 1
  double diff = 0.0;
  for (std::size_t i = 0; i < b0.inputs.numel(); ++i) {
    diff += std::fabs(b0.inputs[i] - b1.inputs[i]);
  }
  EXPECT_GT(diff, 1.0);
}

TEST(Partition, IidDealsAllSamplesOnce) {
  Rng rng(1);
  const auto part = data::iid_partition(103, 7, rng);
  ASSERT_EQ(part.size(), 7u);
  std::set<std::size_t> seen;
  for (const auto& client : part) {
    for (std::size_t i : client) EXPECT_TRUE(seen.insert(i).second);
  }
  EXPECT_EQ(seen.size(), 103u);
  for (const auto& client : part) {
    EXPECT_GE(client.size(), 14u);
    EXPECT_LE(client.size(), 15u);
  }
}

TEST(Partition, DirichletCoversAllSamples) {
  Rng rng(2);
  std::vector<std::size_t> labels(200);
  for (std::size_t i = 0; i < labels.size(); ++i) labels[i] = i % 10;
  const auto part = data::dirichlet_partition(labels, 10, 5, 1.0, rng);
  std::set<std::size_t> seen;
  std::size_t total = 0;
  for (const auto& client : part) {
    total += client.size();
    for (std::size_t i : client) EXPECT_TRUE(seen.insert(i).second);
    EXPECT_FALSE(client.empty());
  }
  EXPECT_EQ(total, 200u);
}

TEST(Partition, DirichletSmallAlphaIsSkewed) {
  Rng rng(3);
  std::vector<std::size_t> labels(1000);
  for (std::size_t i = 0; i < labels.size(); ++i) labels[i] = i % 10;
  const auto skewed = data::dirichlet_partition(labels, 10, 5, 0.1, rng);
  const auto flat = data::dirichlet_partition(labels, 10, 5, 100.0, rng);
  // With alpha=0.1 clients hold few effective classes; with alpha=100 all.
  const auto held_skewed = data::classes_held(skewed, labels, 10);
  const auto held_flat = data::classes_held(flat, labels, 10);
  double mean_skewed = 0, mean_flat = 0;
  for (auto h : held_skewed) mean_skewed += static_cast<double>(h);
  for (auto h : held_flat) mean_flat += static_cast<double>(h);
  EXPECT_LT(mean_skewed, mean_flat);
  for (auto h : held_flat) EXPECT_EQ(h, 10u);
}

TEST(Partition, ClassesPerClientExact) {
  Rng rng(4);
  std::vector<std::size_t> labels(500);
  for (std::size_t i = 0; i < labels.size(); ++i) labels[i] = i % 10;
  // Paper §7.3 setup: 5 clients x 2 distinct CIFAR classes.
  const auto part = data::classes_per_client_partition(labels, 10, 5, 2, rng);
  const auto held = data::classes_held(part, labels, 10);
  for (auto h : held) EXPECT_EQ(h, 2u);
  std::size_t total = 0;
  for (const auto& client : part) total += client.size();
  EXPECT_EQ(total, 500u);
}

TEST(Partition, ClassesPerClientCoversEveryClassWhenDivisible) {
  Rng rng(5);
  std::vector<std::size_t> labels(100);
  for (std::size_t i = 0; i < labels.size(); ++i) labels[i] = i % 4;
  const auto part = data::classes_per_client_partition(labels, 4, 2, 2, rng);
  std::set<std::size_t> classes_seen;
  for (const auto& client : part) {
    for (std::size_t i : client) classes_seen.insert(labels[i]);
  }
  EXPECT_EQ(classes_seen.size(), 4u);
}

TEST(Partition, RejectsBadArguments) {
  Rng rng(6);
  std::vector<std::size_t> labels = {0, 1};
  EXPECT_THROW(data::dirichlet_partition(labels, 2, 0, 1.0, rng), Error);
  EXPECT_THROW(data::classes_per_client_partition(labels, 2, 2, 3, rng),
               Error);
}

TEST(DataLoader, CyclesThroughAllSamples) {
  SyntheticImageSpec spec;
  spec.image_size = 6;
  SyntheticImageDataset ds(spec, 20, 1);
  std::vector<std::size_t> indices(20);
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  data::DataLoader loader(ds, indices, 8, Rng(9));
  EXPECT_EQ(loader.batches_per_epoch(), 3u);
  // Over one epoch worth of batches we should see ~every sample.
  std::multiset<std::size_t> label_counts;
  std::size_t seen = 0;
  for (int b = 0; b < 3 && seen < 20; ++b) {
    const auto batch = loader.next_batch();
    seen += batch.size();
  }
  EXPECT_GE(seen, 20u);
}

TEST(DataLoader, BatchSizeRespected) {
  SyntheticImageSpec spec;
  spec.image_size = 6;
  SyntheticImageDataset ds(spec, 50, 1);
  std::vector<std::size_t> indices(50);
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  data::DataLoader loader(ds, indices, 16, Rng(10));
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(loader.next_batch().size(), 16u);
  }
}

TEST(DataLoader, TinySubsetStillYieldsBatches) {
  SyntheticImageSpec spec;
  spec.image_size = 6;
  SyntheticImageDataset ds(spec, 50, 1);
  data::DataLoader loader(ds, {1, 2, 3}, 8, Rng(11));
  const auto batch = loader.next_batch();
  EXPECT_GE(batch.size(), 3u);
}

TEST(DataLoader, EmptyIndicesThrow) {
  SyntheticImageSpec spec;
  spec.image_size = 6;
  SyntheticImageDataset ds(spec, 10, 1);
  EXPECT_THROW(data::DataLoader(ds, {}, 4, Rng(1)), Error);
}

}  // namespace
}  // namespace apf
