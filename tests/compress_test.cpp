#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>

#include "compress/cmfl.h"
#include "compress/gaia.h"
#include "compress/quantized_sync.h"
#include "compress/randk.h"
#include "compress/topk.h"
#include "fl/sync_strategy.h"
#include "util/rng.h"
#include "wire/quantize.h"
#include "wire/wire.h"

namespace apf {
namespace {

using wire::float_to_half;
using wire::half_to_float;

TEST(Fp16, ExactlyRepresentableValuesRoundTrip) {
  for (float v : {0.f, 1.f, -1.f, 0.5f, 2.f, -0.25f, 1024.f, 0.125f}) {
    EXPECT_EQ(half_to_float(float_to_half(v)), v) << v;
  }
}

TEST(Fp16, RelativeErrorBounded) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const float v = rng.uniform_float(-100.f, 100.f);
    const float r = half_to_float(float_to_half(v));
    // Half precision has 11 significand bits: eps ~ 2^-11.
    EXPECT_NEAR(r, v, std::fabs(v) * 1e-3f + 1e-6f);
  }
}

TEST(Fp16, SpecialValues) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(half_to_float(float_to_half(inf)), inf);
  EXPECT_EQ(half_to_float(float_to_half(-inf)), -inf);
  EXPECT_TRUE(std::isnan(
      half_to_float(float_to_half(std::numeric_limits<float>::quiet_NaN()))));
  // Overflow saturates to infinity.
  EXPECT_EQ(half_to_float(float_to_half(1e9f)), inf);
  // Negative zero keeps its sign.
  EXPECT_TRUE(std::signbit(half_to_float(float_to_half(-0.f))));
}

TEST(Fp16, SubnormalsPreserved) {
  const float tiny = 1e-5f;  // subnormal in half precision
  const float r = half_to_float(float_to_half(tiny));
  EXPECT_NEAR(r, tiny, 1e-6f);
  // Values below half's subnormal range flush to zero.
  EXPECT_EQ(half_to_float(float_to_half(1e-12f)), 0.f);
}

TEST(Fp16, EncodeDecodeVectors) {
  // The framed payload QuantizedSync ships: each element decodes to its own
  // float_to_half/half_to_float round trip.
  Rng rng(2);
  std::vector<float> values(257);
  for (auto& v : values) v = rng.uniform_float(-2.f, 2.f);
  const auto back =
      wire::decode_fp16_payload(wire::encode_fp16_payload(values));
  ASSERT_EQ(back.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(back[i], half_to_float(float_to_half(values[i])));
    EXPECT_NEAR(back[i], values[i], std::fabs(values[i]) * 1e-3f + 1e-6f);
  }
}

TEST(Fp16, QuantizeInplaceIdempotent) {
  // A second trip through the fp16 payload changes nothing: every decoded
  // value is exactly representable in half precision.
  Rng rng(3);
  std::vector<float> values(100);
  for (auto& v : values) v = rng.uniform_float(-1.f, 1.f);
  const auto once =
      wire::decode_fp16_payload(wire::encode_fp16_payload(values));
  const auto twice =
      wire::decode_fp16_payload(wire::encode_fp16_payload(once));
  EXPECT_EQ(twice, once);
}

// ---------------------------------------------------------------------------
// Strategy-level tests drive strategies directly with hand-built vectors.
// ---------------------------------------------------------------------------

std::vector<std::vector<float>> clients_with(std::vector<float> a,
                                             std::vector<float> b) {
  return {std::move(a), std::move(b)};
}

TEST(FullSync, AveragesAndBroadcasts) {
  fl::FullSync strategy;
  strategy.init(std::vector<float>{0.f, 0.f}, 2);
  auto params = clients_with({1.f, 3.f}, {3.f, 5.f});
  const auto result = strategy.synchronize(fl::RoundId(1), params, {1.0, 1.0});
  EXPECT_FLOAT_EQ(params[0][0], 2.f);
  EXPECT_FLOAT_EQ(params[0][1], 4.f);
  EXPECT_EQ(params[0], params[1]);
  // Measured APD1 frame: 8-byte header + 2 fp32 values.
  EXPECT_EQ(result.bytes_up[0], fl::ByteCount(16));
  EXPECT_EQ(result.bytes_down[1], fl::ByteCount(16));
}

TEST(FullSync, WeightsRespected) {
  fl::FullSync strategy;
  strategy.init(std::vector<float>{0.f}, 2);
  auto params = clients_with({1.f}, {4.f});
  strategy.synchronize(fl::RoundId(1), params, {3.0, 1.0});
  EXPECT_FLOAT_EQ(params[0][0], (3.f * 1.f + 1.f * 4.f) / 4.f);
}

TEST(FullSync, ZeroWeightClientIgnored) {
  fl::FullSync strategy;
  strategy.init(std::vector<float>{0.f}, 2);
  auto params = clients_with({1.f}, {100.f});
  strategy.synchronize(fl::RoundId(1), params, {1.0, 0.0});
  EXPECT_FLOAT_EQ(params[0][0], 1.f);
  EXPECT_FLOAT_EQ(params[1][0], 1.f);  // dropped client still pulls
}

TEST(Gaia, InsignificantUpdatesAccumulateLocally) {
  compress::GaiaOptions opt;
  opt.significance_threshold = 0.5;  // 50% relative change required
  opt.decay_threshold = false;
  compress::GaiaSync strategy(opt);
  strategy.init(std::vector<float>{10.f}, 1);
  // Update of 1 on a value of 10 = 10% change: not significant.
  auto params = std::vector<std::vector<float>>{{11.f}};
  auto result = strategy.synchronize(fl::RoundId(1), params, {1.0});
  EXPECT_FLOAT_EQ(strategy.global_params()[0], 10.f);  // not applied
  // Nothing significant: the push is a header-only APS1 frame, the pull a
  // one-value APD1 frame.
  EXPECT_EQ(result.bytes_up[0], fl::ByteCount(12));
  EXPECT_EQ(result.bytes_down[0], fl::ByteCount(12));
  // Five more rounds of +1 each accumulate in the residual until the
  // cumulative update crosses 50% of the magnitude, then it is applied.
  for (int r = 2; r <= 5; ++r) {
    params[0][0] = strategy.global_params()[0] + 1.f;
    strategy.synchronize(fl::RoundId(r), params, {1.0});
  }
  EXPECT_GT(strategy.global_params()[0], 10.f);
}

TEST(Gaia, SignificantUpdateAppliedImmediately) {
  compress::GaiaOptions opt;
  opt.significance_threshold = 0.01;
  opt.decay_threshold = false;
  compress::GaiaSync strategy(opt);
  strategy.init(std::vector<float>{1.f}, 1);
  auto params = std::vector<std::vector<float>>{{2.f}};
  strategy.synchronize(fl::RoundId(1), params, {1.0});
  EXPECT_FLOAT_EQ(strategy.global_params()[0], 2.f);
  EXPECT_FLOAT_EQ(params[0][0], 2.f);
}

TEST(Gaia, PushBytesScaleWithSignificance) {
  compress::GaiaOptions opt;
  opt.significance_threshold = 0.5;
  opt.decay_threshold = false;
  compress::GaiaSync strategy(opt);
  strategy.init(std::vector<float>(100, 1.f), 1);
  // Half of the components change a lot, half barely.
  std::vector<float> local(100, 1.f);
  for (std::size_t j = 0; j < 50; ++j) local[j] = 3.f;
  for (std::size_t j = 50; j < 100; ++j) local[j] = 1.001f;
  auto params = std::vector<std::vector<float>>{local};
  const auto result = strategy.synchronize(fl::RoundId(1), params, {1.0});
  // Measured APS1 frame: 12-byte header + 50 (index, value) pairs at 8 B.
  EXPECT_EQ(result.bytes_up[0], fl::ByteCount(12 + 8 * 50));
  // Measured APD1 frame: 8-byte header + 100 fp32 values.
  EXPECT_EQ(result.bytes_down[0], fl::ByteCount(408));
}

TEST(Cmfl, IrrelevantUpdateIsDiscarded) {
  compress::CmflOptions opt;
  opt.relevance_threshold = 0.8;
  compress::CmflSync strategy(opt);
  strategy.init(std::vector<float>(10, 0.f), 2);
  // Round 1 establishes the global update direction (+1 everywhere).
  auto params = clients_with(std::vector<float>(10, 1.f),
                             std::vector<float>(10, 1.f));
  strategy.synchronize(fl::RoundId(1), params, {1.0, 1.0});
  // Round 2: client 0 agrees with the previous direction, client 1 opposes.
  std::vector<float> agree(10), oppose(10);
  const float g = strategy.global_params()[0];
  for (std::size_t j = 0; j < 10; ++j) {
    agree[j] = g + 0.5f;
    oppose[j] = g - 0.5f;
  }
  params = clients_with(agree, oppose);
  const auto result = strategy.synchronize(fl::RoundId(2), params, {1.0, 1.0});
  EXPECT_GT(result.bytes_up[0], fl::ByteCount(0));
  EXPECT_EQ(result.bytes_up[1], fl::ByteCount(0));
  // Aggregation used only the relevant client.
  EXPECT_FLOAT_EQ(strategy.global_params()[0], g + 0.5f);
}

TEST(Cmfl, FallsBackWhenAllFiltered) {
  compress::CmflSync strategy;
  strategy.init(std::vector<float>(4, 0.f), 1);
  auto params = std::vector<std::vector<float>>{{1.f, 1.f, 1.f, 1.f}};
  strategy.synchronize(fl::RoundId(1), params, {1.0});
  // Round 2 moves opposite to round 1 everywhere -> irrelevant, but the
  // fallback still makes progress.
  const float g = strategy.global_params()[0];
  params[0] = std::vector<float>(4, g - 1.f);
  strategy.synchronize(fl::RoundId(2), params, {1.0});
  EXPECT_FLOAT_EQ(strategy.global_params()[0], g - 1.f);
}

TEST(TopK, KeepsLargestComponents) {
  compress::TopKOptions opt;
  opt.fraction = 0.25;
  compress::TopKSync strategy(opt);
  strategy.init(std::vector<float>(4, 0.f), 1);
  auto params = std::vector<std::vector<float>>{{0.1f, 5.f, 0.2f, 0.1f}};
  const auto result = strategy.synchronize(fl::RoundId(1), params, {1.0});
  // Only the large component was applied; others sit in the residual.
  EXPECT_FLOAT_EQ(strategy.global_params()[1], 5.f);
  EXPECT_FLOAT_EQ(strategy.global_params()[0], 0.f);
  // Measured APS1 frame: 12-byte header + one (index, value) pair.
  EXPECT_EQ(result.bytes_up[0], fl::ByteCount(20));
}

TEST(TopK, ResidualEventuallyFlushes) {
  compress::TopKOptions opt;
  opt.fraction = 0.5;
  compress::TopKSync strategy(opt);
  strategy.init(std::vector<float>(2, 0.f), 1);
  // Component 0 gets a big update once; component 1 drips small updates
  // that accumulate until they dominate.
  auto params = std::vector<std::vector<float>>{{1.0f, 0.1f}};
  strategy.synchronize(fl::RoundId(1), params, {1.0});
  EXPECT_FLOAT_EQ(strategy.global_params()[0], 1.f);
  float g1 = strategy.global_params()[1];
  EXPECT_EQ(g1, 0.f);
  for (int r = 2; r < 6; ++r) {
    params[0] = {strategy.global_params()[0],
                 strategy.global_params()[1] + 0.1f};
    strategy.synchronize(fl::RoundId(r), params, {1.0});
  }
  EXPECT_GT(strategy.global_params()[1], 0.3f);
}

TEST(ErrorFeedbackResiduals, SlotsFillOnlyForParticipants) {
  constexpr std::size_t kDim = 8;
  const std::vector<float> ramp = {1.f, 2.f, 3.f, 4.f, 5.f, 6.f, 7.f, 8.f};
  const std::vector<std::vector<float>> all_zero(
      3, std::vector<float>(kDim, 0.f));
  compress::TopKSync topk;
  compress::RandKSync randk;
  compress::GaiaSync gaia;
  for (compress::ErrorFeedbackSync* strategy :
       std::initializer_list<compress::ErrorFeedbackSync*>{&topk, &randk,
                                                           &gaia}) {
    strategy->init(std::vector<float>(kDim, 0.f), 3);
    // An encode outside a round throws before any slot fills.
    EXPECT_THROW(strategy->encode_push(fl::ClientId(0), ramp), Error)
        << strategy->name();
    EXPECT_EQ(strategy->residuals(), all_zero) << strategy->name();

    // Client 1 sits the round out: its slot never fills and reads all-zero.
    std::vector<std::vector<float>> params(3, ramp);
    strategy->synchronize(fl::RoundId(1), params, {1.0, 0.0, 2.0});
    const auto after = strategy->residuals();
    ASSERT_EQ(after.size(), 3u) << strategy->name();
    EXPECT_EQ(after[1], all_zero[1]) << strategy->name();
    for (const auto& residual : after) EXPECT_EQ(residual.size(), kDim);
  }
  // Top-1 of eight coordinates leaves the other seven in each participant's
  // residual.
  EXPECT_NE(topk.residuals()[0], all_zero[0]);
  EXPECT_NE(topk.residuals()[2], all_zero[2]);
}

TEST(ErrorFeedbackResiduals, OutOfRangeClientThrowsWithoutMovingSlots) {
  compress::TopKSync topk;
  topk.init(std::vector<float>(4, 0.f), 2);
  topk.begin_fold(fl::RoundId(1));
  const std::vector<float> params = {1.f, 2.f, 3.f, 4.f};
  EXPECT_THROW(topk.encode_push(fl::ClientId(2), params), Error);
  EXPECT_EQ(topk.residuals(),
            std::vector<std::vector<float>>(2, std::vector<float>(4, 0.f)));
  // In-range ids still encode in the same armed round.
  EXPECT_FALSE(topk.encode_push(fl::ClientId(1), params).empty());
}

TEST(QuantizedSync, HalvesBytesAndRoundsValues) {
  auto inner = std::make_unique<fl::FullSync>();
  compress::QuantizedSync strategy(std::move(inner));
  strategy.init(std::vector<float>{0.f, 0.f}, 1);
  auto params = std::vector<std::vector<float>>{{0.1f, 0.30000001f}};
  const auto result = strategy.synchronize(fl::RoundId(1), params, {1.0});
  // Measured APH1 frame: 8-byte header + 2 halves at 2 B.
  EXPECT_EQ(result.bytes_up[0], fl::ByteCount(12));
  // Values went through fp16.
  EXPECT_EQ(params[0][0], half_to_float(float_to_half(0.1f)));
}

/// Inner strategy whose post-sync vector differs per client. Clients 0 and
/// 1 get the same vector; client 2's differs from it only in the sign of a
/// zero (equal under ==, not bitwise); client 3 repeats client 0's after a
/// different one; client 4's differs in a value.
class PerClientPull : public fl::SyncStrategy {
 public:
  static std::vector<float> pull_for(std::size_t client) {
    std::vector<float> v = {0.1f, 0.f, 1.f / 3.f, -2.5f, 65504.f, 1e-6f};
    if (client == 2) v[1] = -0.f;
    if (client == 4) v[0] = 0.2f;
    return v;
  }

  void init(std::span<const float> initial_params,
            std::size_t /*num_clients*/) override {
    global_.assign(initial_params.begin(), initial_params.end());
  }
  Result synchronize(fl::RoundId /*round*/,
                     std::vector<std::vector<float>>& client_params,
                     const std::vector<double>& /*weights*/) override {
    const std::size_t n = client_params.size();
    for (std::size_t i = 0; i < n; ++i) client_params[i] = pull_for(i);
    Result result;
    result.bytes_up.assign(n, fl::ByteCount(0));
    result.bytes_down.assign(n, fl::ByteCount(0));
    result.frames_up.resize(n);
    result.frames_down.resize(n);
    return result;
  }
  std::span<const float> global_params() const override { return global_; }
  std::string name() const override { return "PerClientPull"; }

 private:
  std::vector<float> global_;
};

TEST(QuantizedSync, SharesPullOnlyBetweenBitwiseEqualVectors) {
  constexpr std::size_t kClients = 5;
  compress::QuantizedSync strategy(std::make_unique<PerClientPull>());
  strategy.init(std::vector<float>(6, 0.f), kClients);
  std::vector<std::vector<float>> params(kClients, std::vector<float>(6, 1.f));
  const auto result = strategy.synchronize(
      fl::RoundId(1), params, std::vector<double>(kClients, 1.0));
  ASSERT_EQ(result.frames_down.size(), kClients);
  for (std::size_t i = 0; i < kClients; ++i) {
    // What a per-client encode of this client's post-sync vector gives.
    const auto frame = wire::encode_fp16_payload(PerClientPull::pull_for(i));
    const auto decoded = wire::decode_fp16_payload(frame);
    EXPECT_EQ(result.frames_down[i], frame) << "client " << i;
    EXPECT_EQ(result.bytes_down[i], fl::ByteCount(frame.size()));
    ASSERT_EQ(params[i].size(), decoded.size());
    EXPECT_EQ(std::memcmp(params[i].data(), decoded.data(),
                          decoded.size() * sizeof(float)),
              0)
        << "client " << i;
  }
  // The signed zero reached the wire: sharing client 1's frame would not.
  EXPECT_NE(result.frames_down[2], result.frames_down[1]);
  EXPECT_TRUE(std::signbit(params[2][1]));
}

TEST(QuantizedSync, NamePropagates) {
  compress::QuantizedSync strategy(std::make_unique<fl::FullSync>());
  EXPECT_EQ(strategy.name(), "FedAvg+Q");
}

}  // namespace
}  // namespace apf
