// Tests for runtime-state features: multi-threaded client training
// determinism, APF manager state serialization (server restart recovery),
// and bitmap byte (de)serialization.
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>

#include "core/apf_manager.h"
#include "data/partition.h"
#include "data/synthetic_images.h"
#include "fl/runner.h"
#include "nn/layers.h"
#include "nn/models.h"
#include "optim/optimizer.h"
#include "util/bitmap.h"
#include "util/error.h"
#include "util/rng.h"
#include "wire/masked.h"

namespace apf {
namespace {

// ---------------------------------------------------------------------------
// Bitmap byte serialization
// ---------------------------------------------------------------------------

TEST(BitmapBytes, RoundTripRandom) {
  Rng rng(1);
  for (std::size_t size : {1u, 7u, 8u, 9u, 63u, 64u, 65u, 200u}) {
    Bitmap b(size, false);
    for (std::size_t i = 0; i < size; ++i) b.set(i, rng.bernoulli(0.4));
    const auto bytes = b.to_bytes();
    EXPECT_EQ(bytes.size(), (size + 7) / 8);
    EXPECT_EQ(Bitmap::from_bytes(size, bytes), b) << "size " << size;
  }
}

TEST(BitmapBytes, RejectsWrongPayloadSize) {
  std::vector<std::uint8_t> bytes(2);
  EXPECT_THROW(Bitmap::from_bytes(100, bytes), Error);
}

// ---------------------------------------------------------------------------
// Masked pack/unpack (the APF wire format)
// ---------------------------------------------------------------------------

TEST(MaskedPack, PacksOnlyUnfrozenInOrder) {
  Bitmap mask(5, false);
  mask.set(1, true);
  mask.set(3, true);
  const std::vector<float> full = {10, 11, 12, 13, 14};
  const auto payload = wire::pack_unfrozen(full, mask);
  EXPECT_EQ(payload, (std::vector<float>{10, 12, 14}));
}

TEST(MaskedPack, UnpackLeavesFrozenUntouched) {
  Bitmap mask(4, false);
  mask.set(0, true);
  std::vector<float> full = {99, 0, 0, 0};
  const std::vector<float> payload = {1, 2, 3};
  wire::unpack_unfrozen(payload, mask, full);
  EXPECT_EQ(full, (std::vector<float>{99, 1, 2, 3}));
}

TEST(MaskedPack, RoundTripRandomMasks) {
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t dim = 1 + rng.uniform_int(std::uint64_t{200});
    Bitmap mask(dim, false);
    std::vector<float> full(dim);
    for (std::size_t j = 0; j < dim; ++j) {
      full[j] = rng.uniform_float(-1.f, 1.f);
      mask.set(j, rng.bernoulli(0.5));
    }
    const auto payload = wire::pack_unfrozen(full, mask);
    EXPECT_EQ(payload.size(), dim - mask.count());
    std::vector<float> rebuilt = full;
    for (std::size_t j = 0; j < dim; ++j) {
      if (!mask.get(j)) rebuilt[j] = -7.f;  // clobber unfrozen slots
    }
    wire::unpack_unfrozen(payload, mask, rebuilt);
    EXPECT_EQ(rebuilt, full);
  }
}

TEST(MaskedPack, SizeMismatchThrows) {
  Bitmap mask(4, false);
  std::vector<float> full(4, 0.f);
  const std::vector<float> wrong(2, 0.f);
  EXPECT_THROW(wire::unpack_unfrozen(wrong, mask, full), Error);
}

// The word-at-a-time pack/unpack must be bitwise equal to the per-bit
// definition, at every word-boundary case and mask shape.
std::vector<float> reference_pack(const std::vector<float>& full,
                                  const Bitmap& mask) {
  std::vector<float> out;
  for (std::size_t j = 0; j < full.size(); ++j) {
    if (!mask.get(j)) out.push_back(full[j]);
  }
  return out;
}

void reference_unpack(const std::vector<float>& payload, const Bitmap& mask,
                      std::vector<float>& full) {
  std::size_t cursor = 0;
  for (std::size_t j = 0; j < full.size(); ++j) {
    if (!mask.get(j)) full[j] = payload[cursor++];
  }
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// Named masks of `dim` bits: all-clear, all-set, alternating, one set bit
/// at each word edge (bits 64w and 64w + 63), and random at three densities.
std::vector<std::pair<std::string, Bitmap>> word_edge_masks(std::size_t dim,
                                                            Rng& rng) {
  std::vector<std::pair<std::string, Bitmap>> masks;
  masks.emplace_back("all-clear", Bitmap(dim, false));
  masks.emplace_back("all-set", Bitmap(dim, true));
  Bitmap alternating(dim, false);
  for (std::size_t j = 0; j < dim; j += 2) alternating.set(j, true);
  masks.emplace_back("alternating", alternating);
  for (std::size_t edge = 0; edge < dim; edge += 64) {
    for (const std::size_t bit : {edge, edge + 63}) {
      if (bit >= dim) continue;
      Bitmap single(dim, false);
      single.set(bit, true);
      masks.emplace_back("single bit " + std::to_string(bit), single);
    }
  }
  for (const double density : {0.1, 0.39, 0.9}) {
    Bitmap random(dim, false);
    for (std::size_t j = 0; j < dim; ++j) random.set(j, rng.bernoulli(density));
    masks.emplace_back("random " + std::to_string(density), random);
  }
  return masks;
}

TEST(MaskedPack, WordWalkMatchesPerBitReference) {
  Rng rng(11);
  const float nan_sentinel =
      std::bit_cast<float>(std::uint32_t{0x7FA5A5A5});  // signaling NaN
  for (const std::size_t dim : {1u, 63u, 64u, 65u, 127u, 128u, 129u, 1000u}) {
    std::vector<float> full(dim);
    for (auto& v : full) v = rng.uniform_float(-1.f, 1.f);
    for (const auto& [name, mask] : word_edge_masks(dim, rng)) {
      SCOPED_TRACE("dim " + std::to_string(dim) + ", mask " + name);
      const std::vector<float> payload = wire::pack_unfrozen(full, mask);
      ASSERT_TRUE(same_bits(payload, reference_pack(full, mask)));

      // Frozen slots hold NaN sentinels that unpack must not touch;
      // unfrozen slots are clobbered so every write is checked.
      std::vector<float> target(dim);
      for (std::size_t j = 0; j < dim; ++j) {
        target[j] = mask.get(j) ? nan_sentinel : -7.f;
      }
      std::vector<float> expected = target;
      reference_unpack(payload, mask, expected);
      wire::unpack_unfrozen(payload, mask, target);
      ASSERT_TRUE(same_bits(target, expected));
    }
  }
}

// ---------------------------------------------------------------------------
// APF state save/load
// ---------------------------------------------------------------------------

/// Drives an ApfManager for `rounds` with a drift/oscillate workload.
void drive_rounds(core::ApfManager& manager, std::size_t dim,
                  std::size_t from_round, std::size_t to_round) {
  std::vector<std::vector<float>> params(
      1, std::vector<float>(manager.global_params().begin(),
                            manager.global_params().end()));
  for (std::size_t k = from_round; k <= to_round; ++k) {
    const auto global = manager.global_params();
    const Bitmap* mask = manager.frozen_mask();
    for (std::size_t j = 0; j < dim; ++j) {
      const float step =
          j < dim / 2 ? (k % 2 == 0 ? 0.05f : -0.05f) : 0.01f;
      params[0][j] = global[j] + step;
      if (mask->get(j)) params[0][j] = manager.frozen_anchor()[j];
    }
    manager.synchronize(fl::RoundId(k), params, {1.0});
  }
}

core::ApfOptions state_test_options() {
  core::ApfOptions opt;
  opt.check_every_rounds = 2;
  opt.ema_alpha = 0.6;
  opt.stability_threshold = 0.3;
  opt.seed = 11;
  return opt;
}

TEST(ApfState, SaveLoadRoundTripsExactly) {
  const std::size_t dim = 16;
  core::ApfManager manager(state_test_options());
  manager.init(std::vector<float>(dim, 0.f), 1);
  drive_rounds(manager, dim, 1, 25);

  std::stringstream ss;
  manager.save_state(ss);

  core::ApfManager restored(state_test_options());
  restored.init(std::vector<float>(dim, 0.f), 1);
  restored.load_state(ss);

  EXPECT_EQ(*restored.frozen_mask(), *manager.frozen_mask());
  EXPECT_DOUBLE_EQ(restored.stability_threshold(),
                   manager.stability_threshold());
  for (std::size_t j = 0; j < dim; ++j) {
    EXPECT_EQ(restored.global_params()[j], manager.global_params()[j]);
    EXPECT_EQ(restored.controller().raw_periods()[j],
              manager.controller().raw_periods()[j]);
    EXPECT_EQ(restored.controller().remaining(j),
              manager.controller().remaining(j));
    EXPECT_DOUBLE_EQ(restored.perturbation().raw_signed()[j],
                     manager.perturbation().raw_signed()[j]);
  }
}

TEST(ApfState, ResumedManagerContinuesIdentically) {
  // Running 50 rounds straight must equal running 25, checkpoint/restore,
  // then 25 more — bit for bit.
  const std::size_t dim = 16;
  core::ApfManager straight(state_test_options());
  straight.init(std::vector<float>(dim, 0.f), 1);
  drive_rounds(straight, dim, 1, 50);

  core::ApfManager first_half(state_test_options());
  first_half.init(std::vector<float>(dim, 0.f), 1);
  drive_rounds(first_half, dim, 1, 25);
  std::stringstream ss;
  first_half.save_state(ss);

  core::ApfManager second_half(state_test_options());
  second_half.init(std::vector<float>(dim, 0.f), 1);
  second_half.load_state(ss);
  drive_rounds(second_half, dim, 26, 50);

  EXPECT_EQ(*second_half.frozen_mask(), *straight.frozen_mask());
  for (std::size_t j = 0; j < dim; ++j) {
    EXPECT_EQ(second_half.global_params()[j], straight.global_params()[j])
        << j;
  }
}

TEST(ApfState, RejectsDimensionMismatch) {
  core::ApfManager a(state_test_options());
  a.init(std::vector<float>(8, 0.f), 1);
  std::stringstream ss;
  a.save_state(ss);
  core::ApfManager b(state_test_options());
  b.init(std::vector<float>(16, 0.f), 1);
  EXPECT_THROW(b.load_state(ss), Error);
}

TEST(ApfState, RejectsGarbage) {
  core::ApfManager a(state_test_options());
  a.init(std::vector<float>(8, 0.f), 1);
  std::stringstream ss("garbage bytes that are not an APF state at all");
  EXPECT_THROW(a.load_state(ss), Error);
}

TEST(ApfState, SaveBeforeInitThrows) {
  core::ApfManager a(state_test_options());
  std::stringstream ss;
  EXPECT_THROW(a.save_state(ss), Error);
}

// ---------------------------------------------------------------------------
// Multi-threaded client training
// ---------------------------------------------------------------------------

TEST(ThreadedRunner, BitIdenticalAcrossThreadCounts) {
  data::SyntheticImageSpec spec;
  spec.num_classes = 4;
  spec.channels = 1;
  spec.image_size = 8;
  spec.noise_stddev = 0.4;
  data::SyntheticImageDataset train(spec, 96, 1);
  data::SyntheticImageDataset test(spec, 48, 2);

  auto run_with_threads = [&](std::size_t threads) {
    Rng prng(5);
    auto partition = data::iid_partition(train.size(), 6, prng);
    fl::FlConfig config;
    config.num_clients = 6;
    config.rounds = 8;
    config.local_iters = 2;
    config.batch_size = 8;
    config.eval_every = 8;
    config.worker_threads = threads;
    core::ApfOptions opt;
    opt.check_every_rounds = 2;
    opt.ema_alpha = 0.7;
    opt.stability_threshold = 0.3;
    core::ApfManager strategy(opt);
    fl::FederatedRunner runner(
        config, train, partition, test,
        [] {
          Rng rng(123);
          auto net = std::make_unique<nn::Sequential>();
          net->add(std::make_unique<nn::Flatten>(), "flatten");
          net->add(nn::make_mlp(rng, 64, 16, 1, 4), "mlp");
          return net;
        },
        [](nn::Module& m) {
          return std::make_unique<optim::Sgd>(m.parameters(), 0.1, 0.9);
        },
        strategy);
    return runner.run();
  };

  const auto serial = run_with_threads(1);
  const auto parallel = run_with_threads(4);
  const auto auto_threads = run_with_threads(0);  // hardware concurrency
  EXPECT_EQ(serial.final_global_params, parallel.final_global_params);
  EXPECT_EQ(serial.final_global_params, auto_threads.final_global_params);
  EXPECT_DOUBLE_EQ(serial.final_accuracy, parallel.final_accuracy);
}

}  // namespace
}  // namespace apf
