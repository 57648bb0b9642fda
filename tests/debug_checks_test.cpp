// Tests for the correctness tooling layer: ApfOptions validation (the
// APF_CHECK rejection paths in ApfManager's constructor and init),
// apf::debug::check_finite NaN/Inf tripwires on client payloads, and the
// APF_DEBUG_ASSERT macros. This target is compiled with
// APF_ENABLE_DEBUG_CHECKS=1 (see tests/CMakeLists.txt) so the gated
// tripwires are active regardless of the surrounding build preset.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "core/apf_manager.h"
#include "util/bitmap.h"
#include "util/debug.h"
#include "util/error.h"
#include "wire/masked.h"

namespace apf {
namespace {

using core::ApfManager;
using core::ApfOptions;
using core::FreezeGranularity;
using core::RandomFreezeMode;

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();

// ---------------------------------------------------------------------------
// ApfOptions validation: constructor rejection paths.
// ---------------------------------------------------------------------------

TEST(ApfOptionsValidationTest, AcceptsDefaults) {
  EXPECT_NO_THROW(ApfManager{ApfOptions{}});
}

TEST(ApfOptionsValidationTest, RejectsNonPositiveStabilityThreshold) {
  ApfOptions options;
  options.stability_threshold = 0.0;
  EXPECT_THROW(ApfManager{options}, Error);
  options.stability_threshold = -0.1;
  EXPECT_THROW(ApfManager{options}, Error);
}

TEST(ApfOptionsValidationTest, RejectsStabilityThresholdAboveOne) {
  ApfOptions options;
  options.stability_threshold = 1.5;
  EXPECT_THROW(ApfManager{options}, Error);
}

TEST(ApfOptionsValidationTest, RejectsZeroCheckCadence) {
  ApfOptions options;
  options.check_every_rounds = 0;
  EXPECT_THROW(ApfManager{options}, Error);
}

TEST(ApfOptionsValidationTest, RejectsBadDecayTrigger) {
  ApfOptions options;
  options.decay_trigger = 0.0;
  EXPECT_THROW(ApfManager{options}, Error);
  options.decay_trigger = 1.5;
  EXPECT_THROW(ApfManager{options}, Error);
}

TEST(ApfOptionsValidationTest, RejectsOutOfRangeSharpProbability) {
  ApfOptions options;
  options.random_mode = RandomFreezeMode::kSharp;
  options.sharp_probability = -0.25;
  EXPECT_THROW(ApfManager{options}, Error);
  options.sharp_probability = 1.25;
  EXPECT_THROW(ApfManager{options}, Error);
  options.sharp_probability = 0.5;
  EXPECT_NO_THROW(ApfManager{options});
}

TEST(ApfOptionsValidationTest, RejectsNegativePlusPlusCoefficients) {
  ApfOptions options;
  options.random_mode = RandomFreezeMode::kPlusPlus;
  options.pp_prob_coeff = -0.01;
  EXPECT_THROW(ApfManager{options}, Error);
  options.pp_prob_coeff = 0.01;
  options.pp_len_coeff = -1.0;
  EXPECT_THROW(ApfManager{options}, Error);
}

// ---------------------------------------------------------------------------
// ApfOptions validation: init() rejection paths.
// ---------------------------------------------------------------------------

TEST(ApfInitValidationTest, RejectsEmptyInitialParams) {
  ApfManager manager{ApfOptions{}};
  const std::vector<float> empty;
  EXPECT_THROW(manager.init(empty, 2), Error);
}

TEST(ApfInitValidationTest, RejectsZeroClients) {
  ApfManager manager{ApfOptions{}};
  const std::vector<float> init(8, 0.f);
  EXPECT_THROW(manager.init(init, 0), Error);
}

TEST(ApfInitValidationTest, TensorGranularityRequiresSegments) {
  ApfOptions options;
  options.granularity = FreezeGranularity::kTensor;
  ApfManager manager{options};
  const std::vector<float> init(8, 0.f);
  EXPECT_THROW(manager.init(init, 2), Error);
}

TEST(ApfInitValidationTest, SegmentsMustTileParameterVector) {
  ApfOptions options;
  options.granularity = FreezeGranularity::kTensor;
  ApfManager manager{options};
  manager.set_segments({{0, 4}, {4, 2}});  // covers 6 of 8 scalars
  const std::vector<float> init(8, 0.f);
  EXPECT_THROW(manager.init(init, 2), Error);
}

TEST(ApfInitValidationTest, SegmentsMustBeContiguous) {
  ApfOptions options;
  options.granularity = FreezeGranularity::kTensor;
  ApfManager manager{options};
  manager.set_segments({{0, 4}, {6, 2}});  // gap at [4, 6)
  const std::vector<float> init(8, 0.f);
  EXPECT_THROW(manager.init(init, 2), Error);
}

TEST(ApfInitValidationTest, SynchronizeBeforeInitThrows) {
  ApfManager manager{ApfOptions{}};
  std::vector<std::vector<float>> params(2, std::vector<float>(4, 0.f));
  const std::vector<double> weights(2, 1.0);
  EXPECT_THROW(manager.synchronize(fl::RoundId(1), params, weights), Error);
}

TEST(ApfInitValidationTest, RejectsEmptySegmentList) {
  ApfManager manager{ApfOptions{}};
  EXPECT_THROW(manager.set_segments({}), Error);
}

TEST(ApfInitValidationTest, RejectsZeroSizedSegment) {
  ApfManager manager{ApfOptions{}};
  EXPECT_THROW(manager.set_segments({{0, 4}, {4, 0}}), Error);
}

// ---------------------------------------------------------------------------
// check_finite: NaN/Inf tripwires.
// ---------------------------------------------------------------------------

TEST(CheckFiniteTest, PassesOnFinitePayload) {
  const std::vector<float> payload{0.f, -1.5f, 3.25f, 1e-30f, -1e30f};
  EXPECT_NO_THROW(debug::check_finite(payload, "test payload"));
}

TEST(CheckFiniteTest, CatchesInjectedNanInClientPayload) {
  std::vector<float> payload(16, 0.5f);
  payload[7] = kNan;  // a client shipping a poisoned update
  try {
    debug::check_finite(payload, "client payload");
    FAIL() << "check_finite accepted a NaN payload";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("index 7"), std::string::npos) << what;
    EXPECT_NE(what.find("client payload"), std::string::npos) << what;
  }
}

TEST(CheckFiniteTest, CatchesInfinity) {
  std::vector<float> payload(4, 1.f);
  payload[2] = kInf;
  EXPECT_THROW(debug::check_finite(payload, "ctx"), Error);
  payload[2] = -kInf;
  EXPECT_THROW(debug::check_finite(payload, "ctx"), Error);
}

TEST(CheckFiniteTest, DoubleOverloadCatchesNan) {
  std::vector<double> acc(4, 0.25);
  acc[0] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(debug::check_finite(acc, "aggregated payload"), Error);
}

TEST(CheckFiniteTest, EmptySpanIsFine) {
  EXPECT_NO_THROW(debug::check_finite(std::span<const float>{}, "empty"));
}

// ---------------------------------------------------------------------------
// NaN injection through the masked wire path. The gated tripwires inside
// ApfManager's fold hooks live in apf_core and fire only when the library
// itself is built with APF_ENABLE_DEBUG_CHECKS (the debug / asan-ubsan
// presets); here we drive the always-available check_finite() over the same
// pack path the manager uses, so the contract holds in every build.
// ---------------------------------------------------------------------------

TEST(CheckFiniteTest, CatchesNanThroughMaskedWirePath) {
  const std::size_t dim = 8;
  Bitmap frozen(dim, false);
  frozen.set(1, true);
  frozen.set(5, true);
  std::vector<float> client(dim, 1.f);
  client[3] = kNan;  // unfrozen scalar: travels in the payload
  const std::vector<float> payload = wire::pack_unfrozen(client, frozen);
  EXPECT_THROW(debug::check_finite(payload, "packed client payload"), Error);

  // A NaN hiding behind the frozen mask never reaches the wire.
  client[3] = 1.f;
  client[5] = kNan;  // frozen scalar: masked out of the payload
  const std::vector<float> masked = wire::pack_unfrozen(client, frozen);
  EXPECT_NO_THROW(debug::check_finite(masked, "packed client payload"));
}

// ---------------------------------------------------------------------------
// APF_DEBUG_ASSERT macros (active in this TU via APF_ENABLE_DEBUG_CHECKS).
// ---------------------------------------------------------------------------

TEST(DebugAssertTest, ChecksAreCompiledIn) {
  EXPECT_TRUE(debug::kChecksEnabled);
}

TEST(DebugAssertTest, PassingConditionIsSilent) {
  EXPECT_NO_THROW(APF_DEBUG_ASSERT(1 + 1 == 2));
}

TEST(DebugAssertTest, FailingConditionThrowsWithContext) {
  try {
    APF_DEBUG_ASSERT_MSG(false, "cursor=" << 3);
    FAIL() << "APF_DEBUG_ASSERT_MSG(false) did not throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("APF_DEBUG_ASSERT failed"), std::string::npos) << what;
    EXPECT_NE(what.find("cursor=3"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace apf
