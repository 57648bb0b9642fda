#include "fuzz/round_script.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "compress/cmfl.h"
#include "compress/codecs.h"
#include "compress/gaia.h"
#include "compress/randk.h"
#include "compress/topk.h"
#include "compress/wrappers.h"
#include "core/apf_manager.h"
#include "core/strawmen.h"
#include "data/partition.h"
#include "data/synthetic_images.h"
#include "fl/runner.h"
#include "fl/sync_strategy.h"
#include "fuzz/invariant.h"
#include "fuzz/state_oracle.h"
#include "nn/models.h"
#include "optim/optimizer.h"
#include "transport/buffered.h"
#include "transport/bus.h"
#include "transport/frame.h"
#include "transport/network.h"
#include "util/bytes.h"
#include "util/error.h"
#include "wire/masked.h"
#include "wire/wire.h"

namespace apf::fuzz {

namespace {

// ---------------------------------------------------------------------------
// Script codec
// ---------------------------------------------------------------------------

std::size_t derive_dim(std::uint8_t sel) { return 1 + sel % 24; }
std::size_t derive_clients(std::uint8_t sel) { return 1 + sel % 4; }
std::size_t derive_rounds(std::uint8_t sel) { return 1 + sel % 6; }
std::size_t derive_cadence(std::uint8_t sel) { return 1 + sel % 3; }
double derive_threshold(std::uint8_t sel) {
  return 0.01 + 0.015 * static_cast<double>(sel % 32);
}

bool bit_eq(float a, float b) {
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

}  // namespace

RoundScript parse_round_script(std::span<const std::uint8_t> bytes) {
  ByteReader reader(bytes, "round script");
  APF_CHECK_MSG(reader.u32() == kRoundScriptMagic, "round script: bad magic");
  RoundScript script;
  script.flavor = reader.u8();
  const std::uint8_t dim_sel = reader.u8();
  const std::uint8_t clients_sel = reader.u8();
  const std::uint8_t rounds_sel = reader.u8();
  const std::uint8_t cadence_sel = reader.u8();
  const std::uint8_t threshold_sel = reader.u8();
  script.flags = reader.u16();
  script.value_seed = reader.u64();
  script.dim = derive_dim(dim_sel);
  script.clients = derive_clients(clients_sel);
  script.cadence = derive_cadence(cadence_sel);
  script.threshold = derive_threshold(threshold_sel);
  const std::size_t rounds = derive_rounds(rounds_sel);
  script.rounds.resize(rounds);
  for (auto& plan : script.rounds) {
    plan.weight_action = reader.u8();
    plan.clients.resize(script.clients);
    for (auto& action : plan.clients) {
      action.action = reader.u8();
      action.a = reader.u8();
      action.b = reader.u8();
      action.v = reader.f32();
    }
  }
  reader.expect_exhausted();
  return script;
}

std::vector<std::uint8_t> generate_round_script(Rng& rng) {
  ByteWriter writer;
  writer.u32(kRoundScriptMagic);
  writer.u8(static_cast<std::uint8_t>(rng.uniform_int(std::uint64_t{256})));
  const auto dim_sel =
      static_cast<std::uint8_t>(rng.uniform_int(std::uint64_t{256}));
  const auto clients_sel =
      static_cast<std::uint8_t>(rng.uniform_int(std::uint64_t{256}));
  const auto rounds_sel =
      static_cast<std::uint8_t>(rng.uniform_int(std::uint64_t{256}));
  writer.u8(dim_sel);
  writer.u8(clients_sel);
  writer.u8(rounds_sel);
  writer.u8(static_cast<std::uint8_t>(rng.uniform_int(std::uint64_t{256})));
  writer.u8(static_cast<std::uint8_t>(rng.uniform_int(std::uint64_t{256})));
  writer.u16(static_cast<std::uint16_t>(rng.uniform_int(std::uint64_t{256})));
  writer.u64(rng.next_u64());
  const std::size_t clients = derive_clients(clients_sel);
  const std::size_t rounds = derive_rounds(rounds_sel);
  for (std::size_t r = 0; r < rounds; ++r) {
    writer.u8(static_cast<std::uint8_t>(rng.uniform_int(std::uint64_t{256})));
    for (std::size_t c = 0; c < clients; ++c) {
      writer.u8(
          static_cast<std::uint8_t>(rng.uniform_int(std::uint64_t{256})));
      writer.u8(
          static_cast<std::uint8_t>(rng.uniform_int(std::uint64_t{256})));
      writer.u8(
          static_cast<std::uint8_t>(rng.uniform_int(std::uint64_t{256})));
      // Mostly plausible magnitudes; occasionally raw bit soup so special
      // values (NaN payloads, huge exponents) appear in valid scripts too.
      if (rng.bernoulli(0.25)) {
        writer.u32(static_cast<std::uint32_t>(rng.next_u64()));
      } else {
        writer.f32(rng.uniform_float(-2.f, 2.f));
      }
    }
  }
  return writer.take();
}

namespace {

// ---------------------------------------------------------------------------
// Strategy-driving harness (apf-rounds, strawman-rounds)
// ---------------------------------------------------------------------------

enum class StrategyKind {
  kApf,
  kFullSync,
  kPartialSync,
  kPermanentFreeze,
  kTopK,
  kGaia,
  kRandK,
  kCmfl,
  kUpdateQsgd,
  kUpdateTern,
};

/// update-quant-rounds wraps either a plain FullSync or a live ApfManager
/// (frozen coordinates never travel, so the codec sees shrinking updates).
bool update_quant_inner_apf(const RoundScript& s) {
  return (s.flavor / 2) % 2 != 0;
}

/// QSGD bit width in [1, 8] — the full range the fuzzed frames exercise.
unsigned update_quant_bits(const RoundScript& s) {
  return 1 + static_cast<unsigned>(s.value_seed % 8);
}

std::unique_ptr<fl::SyncStrategy> make_strategy(const RoundScript& s,
                                                StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kFullSync:
      return std::make_unique<fl::FullSync>();
    case StrategyKind::kTopK: {
      compress::TopKOptions options;
      options.fraction = s.threshold;  // (0, 0.475] — a valid fraction
      return std::make_unique<compress::TopKSync>(options);
    }
    case StrategyKind::kGaia: {
      compress::GaiaOptions options;
      options.significance_threshold = s.threshold;
      options.decay_threshold = (s.flags & kFlagNoDecay) == 0;
      return std::make_unique<compress::GaiaSync>(options);
    }
    case StrategyKind::kRandK: {
      compress::RandKOptions options;
      options.fraction = s.threshold;
      options.unbiased_scaling = (s.flags & kFlagUnbiasedScale) != 0;
      options.seed = s.value_seed;
      return std::make_unique<compress::RandKSync>(options);
    }
    case StrategyKind::kCmfl: {
      compress::CmflOptions options;
      options.relevance_threshold = s.threshold;
      options.threshold_decay = (s.flags & kFlagNoDecay) != 0 ? 1.0 : 0.95;
      return std::make_unique<compress::CmflSync>(options);
    }
    case StrategyKind::kPartialSync:
    case StrategyKind::kPermanentFreeze: {
      core::StrawmanOptions options;
      options.stability_threshold = s.threshold;
      options.ema_alpha = 0.5;
      options.check_every_rounds = s.cadence;
      if (kind == StrategyKind::kPartialSync) {
        return std::make_unique<core::PartialSync>(options);
      }
      return std::make_unique<core::PermanentFreeze>(options);
    }
    case StrategyKind::kUpdateQsgd:
    case StrategyKind::kUpdateTern: {
      auto inner = make_strategy(s, update_quant_inner_apf(s)
                                        ? StrategyKind::kApf
                                        : StrategyKind::kFullSync);
      std::unique_ptr<compress::UpdateCodec> codec;
      if (kind == StrategyKind::kUpdateQsgd) {
        codec = std::make_unique<compress::QsgdCodec>(update_quant_bits(s));
      } else {
        codec = std::make_unique<compress::TernGradCodec>();
      }
      std::uint64_t seed_state = s.value_seed ^ 0xC0DEC0DEULL;
      return std::make_unique<compress::UpdateQuantizedSync>(
          std::move(inner), std::move(codec), splitmix64(seed_state));
    }
    case StrategyKind::kApf:
      break;
  }
  core::ApfOptions options;
  options.stability_threshold = s.threshold;
  options.ema_alpha = 0.5;
  options.check_every_rounds = s.cadence;
  options.threshold_decay = (s.flags & kFlagNoDecay) == 0;
  options.server_side_mask = (s.flags & kFlagServerSideMask) != 0;
  options.seed = s.value_seed;
  switch (s.flavor % 3) {
    case 1:
      options.random_mode = core::RandomFreezeMode::kSharp;
      options.sharp_probability = 0.25;
      break;
    case 2:
      options.random_mode = core::RandomFreezeMode::kPlusPlus;
      options.pp_prob_coeff = 0.05;
      options.pp_len_coeff = 0.5;
      break;
    default:
      break;
  }
  auto manager = std::make_unique<core::ApfManager>(options);
  if ((s.flags & kFlagTensorGran) != 0 && s.dim >= 2) {
    // Exercised through the scalar path too; two segments tiling the vector
    // keep the tensor-granularity code hot without a real model layout.
    core::ApfOptions tensor_options = options;
    tensor_options.granularity = core::FreezeGranularity::kTensor;
    manager = std::make_unique<core::ApfManager>(tensor_options);
    manager->set_segments({{0, s.dim / 2}, {s.dim / 2, s.dim - s.dim / 2}});
  }
  return manager;
}

std::vector<double> make_weights(std::uint8_t weight_action, std::size_t n,
                                 std::size_t round_index) {
  std::vector<double> weights(n);
  for (std::size_t i = 0; i < n; ++i) {
    weights[i] = 1.0 + static_cast<double>(i);
  }
  const std::size_t pick = round_index % n;
  switch (weight_action % kNumWeightActions) {
    case 1:
      weights[pick] = 0.0;
      break;
    case 2:
      weights[pick] = -1.0;
      break;
    case 3:
      weights[pick] = std::numeric_limits<double>::quiet_NaN();
      break;
    case 4:
      weights[pick] = std::numeric_limits<double>::infinity();
      break;
    case 5:
      std::fill(weights.begin(), weights.end(), 0.0);
      break;
    default:
      break;
  }
  return weights;
}

std::vector<float> make_proposal(
    const RoundScript& s, std::size_t round_index, std::size_t client,
    const ClientAction& act, const std::vector<float>& base,
    const std::vector<float>& pre_global, const Bitmap* pre_mask,
    const std::vector<std::vector<float>>& history) {
  const std::size_t dim = s.dim;
  std::vector<float> prop = base;
  // Every action starts from a plausible local-training step so the honest
  // path keeps evolving the strategy's statistics between injections.
  std::uint64_t state = s.value_seed ^
                        0x9E3779B97F4A7C15ULL * (round_index + 1) ^
                        0xC2B2AE3D27D4EB4FULL * (client + 1);
  Rng step(splitmix64(state));
  for (auto& x : prop) x += step.uniform_float(-0.05f, 0.05f);
  switch (act.action % kNumClientActions) {
    case 1:
      prop[act.a % dim] = std::numeric_limits<float>::quiet_NaN();
      break;
    case 2:
      prop[act.a % dim] = (act.b & 1) != 0
                              ? -std::numeric_limits<float>::infinity()
                              : std::numeric_limits<float>::infinity();
      break;
    case 3:
      prop[act.a % dim] = act.v * 1e30f;
      break;
    case 4: {  // wrong dim: longer
      const std::size_t extra = 1 + act.a % 3;
      for (std::size_t k = 0; k < extra; ++k) prop.push_back(act.v);
      break;
    }
    case 5: {  // wrong dim: shorter
      const std::size_t cut = 1 + act.a % 3;
      prop.resize(dim > cut ? dim - cut : 0);
      break;
    }
    case 6:  // stale-round replay: resubmit an old global verbatim
      prop = history.empty() ? pre_global
                             : history[act.b % history.size()];
      break;
    case 7:  // tamper with scalars the protocol says never leave the client
      if (pre_mask != nullptr && pre_mask->count() > 0) {
        for (std::size_t j = 0; j < dim; ++j) {
          if (pre_mask->get(j)) prop[j] += 1.0f + std::fabs(act.v);
        }
      } else {
        prop[act.a % dim] += 1.0f;
      }
      break;
    case 8:  // raw float write (whatever bits the wire carried)
      prop[act.a % dim] = act.v;
      break;
    case 9:  // zero update: echo the global back unchanged
      prop = pre_global;
      break;
    default:  // 0: honest delta only
      break;
  }
  return prop;
}

void check_result_common(const fl::SyncStrategy::Result& result,
                         std::size_t n) {
  require_invariant(result.bytes_up.size() == n,
                    "bytes_up size != client count");
  require_invariant(result.bytes_down.size() == n,
                    "bytes_down size != client count");
  // ByteCount entries are non-negative exact integers by construction
  // (src/util/ids.h), so the old isfinite/>=0 sanity loop is a type fact.
  require_invariant(
      result.frozen_fraction >= 0.0 && result.frozen_fraction <= 1.0,
      "frozen_fraction out of [0,1]");
}

void check_applied(StrategyKind kind, const RoundScript& s,
                   const fl::SyncStrategy& strategy,
                   const core::StrawmanBase* strawman,
                   const fl::SyncStrategy::Result& result,
                   const std::vector<std::vector<float>>& post_clients,
                   const std::vector<std::vector<float>>& submitted,
                   const std::vector<double>& weights,
                   const std::vector<float>& pre_global,
                   const Bitmap& pre_mask, const Bitmap& pre_excluded) {
  const std::size_t dim = s.dim;
  const std::size_t n = s.clients;
  check_result_common(result, n);
  const std::span<const float> post_global = strategy.global_params();
  require_invariant(post_global.size() == dim, "global dimension drifted");

  switch (kind) {
    case StrategyKind::kApf: {
      const std::size_t frozen = pre_mask.count();
      for (const auto& params : post_clients) {
        require_invariant(bits_equal(params, post_global),
                          "APF client diverged from the global model");
      }
      for (std::size_t j = 0; j < dim; ++j) {
        if (pre_mask.get(j)) {
          require_invariant(bit_eq(post_global[j], pre_global[j]),
                            "APF moved a frozen scalar");
        }
      }
      // Byte accounting must match the real encoded buffers: re-frame the
      // round's payloads exactly as the transport does and compare sizes.
      const fl::ByteCount up_bytes(
          wire::encode_dense(wire::pack_unfrozen(post_global, pre_mask))
              .size());
      const fl::ByteCount down_bytes =
          (s.flags & kFlagServerSideMask) != 0
              ? fl::ByteCount(
                    wire::encode_masked_update(post_global, pre_mask).size())
              : up_bytes;
      for (std::size_t i = 0; i < n; ++i) {
        require_invariant(result.bytes_up[i] == up_bytes,
                          "APF bytes_up != encoded buffer size");
        require_invariant(result.bytes_down[i] == down_bytes,
                          "APF bytes_down != encoded buffer size");
      }
      require_invariant(
          result.frozen_fraction ==
              static_cast<double>(frozen) / static_cast<double>(dim),
          "APF frozen_fraction disagrees with the active mask");
      break;
    }
    case StrategyKind::kFullSync: {
      for (const auto& params : post_clients) {
        require_invariant(bits_equal(params, post_global),
                          "FullSync client diverged from the global model");
      }
      const fl::ByteCount payload(wire::encode_dense(post_global).size());
      for (std::size_t i = 0; i < n; ++i) {
        require_invariant(result.bytes_up[i] == payload &&
                              result.bytes_down[i] == payload,
                          "FullSync must charge the full model both ways");
      }
      require_invariant(result.frozen_fraction == 0.0,
                        "FullSync reported frozen scalars");
      break;
    }
    case StrategyKind::kPartialSync:
    case StrategyKind::kPermanentFreeze: {
      require_invariant(strawman != nullptr, "strawman cast failed");
      const Bitmap& post_excluded = strawman->excluded();
      require_invariant(post_excluded.size() == dim,
                        "exclusion mask dimension drifted");
      for (std::size_t j = 0; j < dim; ++j) {
        require_invariant(!pre_excluded.get(j) || post_excluded.get(j),
                          "irreversible exclusion mask shrank");
        if (pre_excluded.get(j)) {
          require_invariant(bit_eq(post_global[j], pre_global[j]),
                            "strawman moved an excluded scalar");
        }
      }
      if (kind == StrategyKind::kPermanentFreeze) {
        for (const auto& params : post_clients) {
          require_invariant(
              bits_equal(params, post_global),
              "PermanentFreeze client diverged from the global model");
        }
      } else {
        // PartialSync: non-excluded scalars synchronize; excluded scalars
        // keep each client's own submitted value (the designed divergence).
        for (std::size_t i = 0; i < n; ++i) {
          require_invariant(post_clients[i].size() == dim,
                            "PartialSync client dimension drifted");
          for (std::size_t j = 0; j < dim; ++j) {
            if (post_excluded.get(j)) {
              require_invariant(
                  bit_eq(post_clients[i][j], submitted[i][j]),
                  "PartialSync overwrote a client's excluded scalar");
            } else {
              require_invariant(
                  bit_eq(post_clients[i][j], post_global[j]),
                  "PartialSync client diverged on a synchronized scalar");
            }
          }
        }
      }
      // Uploads travel under the pre-round mask, pulls under the (possibly
      // grown) post-round mask; both are measured dense-packed buffers.
      const fl::ByteCount up_bytes(
          wire::encode_dense(wire::pack_unfrozen(post_global, pre_excluded))
              .size());
      const fl::ByteCount down_bytes(
          wire::encode_dense(wire::pack_unfrozen(post_global, post_excluded))
              .size());
      for (std::size_t i = 0; i < n; ++i) {
        require_invariant(result.bytes_up[i] == up_bytes &&
                              result.bytes_down[i] == down_bytes,
                          "strawman bytes disagree with the exclusion mask");
      }
      require_invariant(result.frozen_fraction == post_excluded.fraction(),
                        "strawman frozen_fraction != excluded fraction");
      break;
    }
    case StrategyKind::kTopK:
    case StrategyKind::kGaia:
    case StrategyKind::kRandK:
    case StrategyKind::kCmfl: {
      // All four ship the full model down as one dense buffer that every
      // client — participant or not — ends the round holding.
      for (const auto& params : post_clients) {
        require_invariant(bits_equal(params, post_global),
                          "compress client diverged from the global model");
      }
      const fl::ByteCount down_bytes(wire::encode_dense(post_global).size());
      const std::size_t k = std::max<std::size_t>(
          1, static_cast<std::size_t>(
                 std::ceil(s.threshold * static_cast<double>(dim))));
      bool any_up = false;
      for (std::size_t i = 0; i < n; ++i) {
        const bool participant = weights[i] > 0.0;
        const fl::ByteCount up = result.bytes_up[i];
        const fl::ByteCount down = result.bytes_down[i];
        any_up = any_up || up > fl::ByteCount(0);
        if (!participant) {
          require_invariant(up == fl::ByteCount(0),
                            "non-participant charged on the uplink");
          // CMFL broadcasts to all n clients; the sparsifiers charge only
          // this round's participants for the pull.
          require_invariant(
              down == (kind == StrategyKind::kCmfl ? down_bytes
                                                    : fl::ByteCount(0)),
              "non-participant downlink charge is wrong");
          continue;
        }
        require_invariant(down == down_bytes,
                          "compress bytes_down != encoded buffer size");
        switch (kind) {
          case StrategyKind::kTopK:
            // Exactly k (index, value) pairs behind the 12-byte APS1 header.
            require_invariant(up == fl::ByteCount(12 + 8 * k),
                              "TopK bytes_up != encoded APS1 size");
            break;
          case StrategyKind::kRandK:
            // Exactly k values behind the 24-byte APR1 header.
            require_invariant(up == fl::ByteCount(24 + 4 * k),
                              "RandK bytes_up != encoded APR1 size");
            break;
          case StrategyKind::kGaia: {
            // The significant set varies per client; the charge must still
            // be a well-formed APS1 frame no larger than all-significant.
            require_invariant(up.value() >= 12 &&
                                  (up.value() - 12) % 8 == 0 &&
                                  up.value() - 12 <= 8 * dim,
                              "Gaia bytes_up is not a plausible APS1 size");
            break;
          }
          default:  // kCmfl: filtered uploads cost nothing; relevant ones
                    // ship a full dense frame.
            require_invariant(up == fl::ByteCount(0) || up == down_bytes,
                              "CMFL bytes_up != 0 or the dense frame size");
            break;
        }
      }
      // require_round_inputs guarantees a positive weight total, and CMFL's
      // fallback accepts every participant when all were filtered — some
      // uplink charge must exist in every applied round.
      require_invariant(any_up, "applied round charged no uplink at all");
      require_invariant(result.frozen_fraction == 0.0,
                        "compress strategy reported frozen scalars");
      break;
    }
    case StrategyKind::kUpdateQsgd:
    case StrategyKind::kUpdateTern: {
      // Both inner strategies (FullSync, APF) leave every client on the
      // global model; the wrapper commits exactly what the inner synced.
      for (const auto& params : post_clients) {
        require_invariant(bits_equal(params, post_global),
                          "quantized client diverged from the global model");
      }
      // Transmitted coordinates: everything not frozen when the round's
      // payloads traveled (the wrapper reads the mask before the inner
      // strategy can grow it).
      std::size_t sent = dim;
      fl::ByteCount down_bytes(wire::encode_dense(post_global).size());
      if (update_quant_inner_apf(s)) {
        const std::size_t frozen = pre_mask.count();
        sent = dim - frozen;
        for (std::size_t j = 0; j < dim; ++j) {
          if (pre_mask.get(j)) {
            require_invariant(bit_eq(post_global[j], pre_global[j]),
                              "quantized APF moved a frozen scalar");
          }
        }
        const fl::ByteCount up_inner(
            wire::encode_dense(wire::pack_unfrozen(post_global, pre_mask))
                .size());
        down_bytes =
            (s.flags & kFlagServerSideMask) != 0
                ? fl::ByteCount(
                      wire::encode_masked_update(post_global, pre_mask)
                          .size())
                : up_inner;
        require_invariant(
            result.frozen_fraction ==
                static_cast<double>(frozen) / static_cast<double>(dim),
            "quantized APF frozen_fraction disagrees with the active mask");
      } else {
        require_invariant(result.frozen_fraction == 0.0,
                          "quantized FullSync reported frozen scalars");
      }
      // Measured-byte equality on the push: the wrapper charges the codec's
      // real framed buffer, whose size is a pure function of the
      // transmitted coordinate count — QSGD packs (bits+1)-bit fields
      // behind a 13-byte header, TernGrad 2-bit codes behind 12 bytes.
      const fl::ByteCount up_bytes =
          kind == StrategyKind::kUpdateQsgd
              ? fl::ByteCount(13 + (sent * (update_quant_bits(s) + 1) + 7) / 8)
              : fl::ByteCount(12 + (sent * 2 + 7) / 8);
      for (std::size_t i = 0; i < n; ++i) {
        if (weights[i] == 0.0) {
          require_invariant(result.bytes_up[i] == fl::ByteCount(0),
                            "zero-weight client charged on the uplink");
        } else {
          require_invariant(result.bytes_up[i] == up_bytes,
                            "quantized bytes_up != framed buffer size");
        }
        require_invariant(result.bytes_down[i] == down_bytes,
                          "quantized bytes_down != inner encoded size");
      }
      break;
    }
  }
}

std::uint64_t run_sync_script(const RoundScript& s, StrategyKind kind) {
  auto strategy = make_strategy(s, kind);
  const auto* strawman =
      dynamic_cast<const core::StrawmanBase*>(strategy.get());

  std::uint64_t seed_state = s.value_seed ^ 0xA5A5A5A55A5A5A5AULL;
  Rng vrng(splitmix64(seed_state));
  std::vector<float> initial(s.dim);
  for (auto& x : initial) x = vrng.uniform_float(-1.f, 1.f);
  strategy->init(initial, s.clients);

  std::vector<std::vector<float>> client_params(s.clients, initial);
  std::vector<std::vector<float>> history;  // recent globals (stale replay)
  std::uint64_t digest = kFnvOffset;

  for (std::size_t r = 0; r < s.rounds.size(); ++r) {
    const RoundPlan& plan = s.rounds[r];
    const std::vector<float> pre_global(strategy->global_params().begin(),
                                        strategy->global_params().end());
    const Bitmap* mask_ptr = strategy->frozen_mask();
    const Bitmap pre_mask = mask_ptr != nullptr ? *mask_ptr : Bitmap(0, false);
    const Bitmap pre_excluded =
        strawman != nullptr ? strawman->excluded() : Bitmap(0, false);

    std::vector<std::vector<float>> props(s.clients);
    for (std::size_t c = 0; c < s.clients; ++c) {
      props[c] = make_proposal(s, r, c, plan.clients[c], client_params[c],
                               pre_global, mask_ptr, history);
    }
    const std::vector<double> weights =
        make_weights(plan.weight_action, s.clients, r);

    const auto pre_snapshot = snapshot_strategy(*strategy);
    const std::vector<std::vector<float>> submitted = props;
    try {
      const auto result =
          strategy->synchronize(fl::RoundId(r + 1), props, weights);
      check_applied(kind, s, *strategy, strawman, result, props, submitted,
                    weights, pre_global, pre_mask, pre_excluded);
      client_params = std::move(props);
      const std::span<const float> g = strategy->global_params();
      history.emplace_back(g.begin(), g.end());
      if (history.size() > 4) history.erase(history.begin());
      digest = fnv1a_u64(digest ^ 'A', hash_floats(g));
      digest = fnv1a_u64(digest, result.bytes_up.empty()
                                     ? 0
                                     : result.bytes_up.front().value());
    } catch (const Error&) {
      require_invariant(snapshot_strategy(*strategy) == pre_snapshot,
                        "rejected round mutated strategy state");
      require_invariant(props.size() == submitted.size(),
                        "rejected round changed the client count");
      for (std::size_t c = 0; c < props.size(); ++c) {
        require_invariant(bits_equal(props[c], submitted[c]),
                          "rejected round mutated client params");
      }
      // Admission control: every client re-pulls the (unchanged) global
      // model and the episode continues.
      for (auto& params : client_params) {
        params.assign(pre_global.begin(), pre_global.end());
      }
      digest = fnv1a_u64(digest ^ 'R', r + 1);
    }
  }
  return digest;
}

// ---------------------------------------------------------------------------
// FederatedRunner harness (runner-rounds)
// ---------------------------------------------------------------------------

const data::SyntheticImageDataset& runner_train_data() {
  static const data::SyntheticImageDataset dataset(
      []() {
        data::SyntheticImageSpec spec;
        spec.num_classes = 3;
        spec.channels = 1;
        spec.image_size = 4;
        spec.noise_stddev = 0.4;
        spec.seed = 7;
        return spec;
      }(),
      /*num_samples=*/24, /*split_seed=*/0xA11CE5ULL);
  return dataset;
}

const data::SyntheticImageDataset& runner_test_data() {
  static const data::SyntheticImageDataset dataset(
      runner_train_data().spec(), /*num_samples=*/12,
      /*split_seed=*/0xB0B5ULL);
  return dataset;
}

void check_runner_result(const fl::FlConfig& config,
                         const fl::SimulationResult& result,
                         const fl::SyncStrategy& strategy) {
  require_invariant(result.rounds.size() == config.rounds,
                    "runner did not record every round");
  double cum_bytes = 0.0;
  double cum_seconds = 0.0;
  for (std::size_t i = 0; i < result.rounds.size(); ++i) {
    const fl::RoundRecord& rec = result.rounds[i];
    require_invariant(rec.round == fl::RoundId(i + 1),
                      "round index drifted");
    require_invariant(
        rec.participants >= 1 && rec.participants <= config.num_clients,
        "participant count out of range");
    require_invariant(
        std::isfinite(rec.bytes_per_client) && rec.bytes_per_client >= 0.0,
        "bytes_per_client not sane");
    require_invariant(std::isfinite(rec.round_seconds) &&
                          rec.round_seconds >= 0.0,
                      "round_seconds not sane");
    cum_bytes += rec.bytes_per_client;
    cum_seconds += rec.round_seconds;
    // The runner accumulates these exactly this way, so equality is exact.
    require_invariant(rec.cumulative_bytes_per_client == cum_bytes,
                      "cumulative bytes != prefix sum of round bytes");
    require_invariant(rec.cumulative_seconds == cum_seconds,
                      "cumulative seconds != prefix sum of round seconds");
    require_invariant(
        rec.frozen_fraction >= 0.0 && rec.frozen_fraction <= 1.0,
        "frozen_fraction out of [0,1]");
    const double total_amortized =
        rec.bytes_per_client * static_cast<double>(config.num_clients);
    const double total_participants =
        rec.bytes_per_participant * static_cast<double>(rec.participants);
    const double scale =
        std::max({1.0, total_amortized, total_participants});
    require_invariant(
        std::fabs(total_amortized - total_participants) <= 1e-9 * scale,
        "per-client and per-participant byte views disagree on the total");
  }
  require_invariant(result.total_bytes_per_client == cum_bytes,
                    "total bytes != last cumulative");
  require_invariant(result.total_seconds == cum_seconds,
                    "total seconds != last cumulative");
  require_invariant(result.best_accuracy >= result.final_accuracy,
                    "best accuracy below final accuracy");
  require_invariant(
      result.final_accuracy >= 0.0 && result.best_accuracy <= 1.0,
      "accuracy out of [0,1]");
  const std::span<const float> g = strategy.global_params();
  require_invariant(bits_equal(result.final_global_params, g),
                    "final params != strategy global params");
  for (const float v : result.final_global_params) {
    require_invariant(std::isfinite(v),
                      "non-finite final params despite gradient clipping");
  }
}

std::uint64_t runner_digest(const fl::SimulationResult& result) {
  std::uint64_t digest = hash_floats(result.final_global_params);
  for (const fl::RoundRecord& rec : result.rounds) {
    digest = fnv1a_u64(digest, static_cast<std::uint64_t>(rec.participants));
    std::uint64_t bits;
    std::memcpy(&bits, &rec.bytes_per_client, sizeof(bits));
    digest = fnv1a_u64(digest, bits);
  }
  return digest;
}

bool records_identical(const fl::RoundRecord& a, const fl::RoundRecord& b) {
  return a.round == b.round && a.participants == b.participants &&
         std::memcmp(&a.test_accuracy, &b.test_accuracy, sizeof(double)) ==
             0 &&
         std::memcmp(&a.bytes_per_client, &b.bytes_per_client,
                     sizeof(double)) == 0 &&
         std::memcmp(&a.round_seconds, &b.round_seconds, sizeof(double)) == 0;
}

std::uint64_t run_runner_script(const RoundScript& s) {
  fl::FlConfig config;
  config.num_clients = s.clients;
  config.rounds = s.rounds.size();
  config.local_iters = 1 + s.cadence % 2;
  config.batch_size = 2 + s.dim % 3;
  config.seed = s.value_seed;
  config.eval_every = s.rounds.size();  // evaluate the final round only
  config.compute_seconds_per_iter = 0.01;
  config.fedprox_mu = (s.flags & kFlagFedProx) != 0 ? 0.05 : 0.0;
  config.participation_fraction =
      (s.flags & kFlagPartialPart) != 0 ? 0.6 : 1.0;
  config.grad_clip_norm = 1.0;
  config.worker_threads = 1;
  if ((s.flags & kFlagStragglerDrop) != 0) {
    config.straggler_policy = fl::StragglerPolicy::kDrop;
    config.workload_fraction.assign(s.clients, 1.0);
    for (std::size_t i = 1; i < s.clients; i += 2) {
      config.workload_fraction[i] = 0.5;
    }
  }
  if ((s.flags & kFlagBadWorkload) != 0) {
    // Invalid config: the runner must reject it with apf::Error before any
    // round.
    config.workload_fraction.assign(s.clients, 1.0);
    config.workload_fraction[0] = 0.0;
  }

  const auto make_runner_strategy = [&]() -> std::unique_ptr<fl::SyncStrategy> {
    StrategyKind kind = StrategyKind::kFullSync;
    switch (s.flavor % 4) {
      case 1: kind = StrategyKind::kApf; break;
      case 2: kind = StrategyKind::kPartialSync; break;
      case 3: kind = StrategyKind::kPermanentFreeze; break;
      default: break;
    }
    return make_strategy(s, kind);
  };
  const fl::ModelFactory model_factory = []() {
    Rng model_rng(0x11117777ULL);
    return nn::make_mlp(model_rng, /*in_features=*/16, /*width=*/8,
                        /*hidden=*/1, /*num_classes=*/3);
  };
  const fl::OptimizerFactory optimizer_factory = [](nn::Module& module) {
    return std::make_unique<optim::Sgd>(module.parameters(), /*lr=*/0.05);
  };

  std::uint64_t part_state = s.value_seed ^ 0xBEEFCAFEF00DULL;
  Rng part_rng(splitmix64(part_state));
  const data::Partition partition = data::iid_partition(
      runner_train_data().size(), s.clients, part_rng);

  auto strategy = make_runner_strategy();
  fl::SimulationResult result;
  try {
    fl::FederatedRunner runner(config, runner_train_data(), partition,
                               runner_test_data(), model_factory,
                               optimizer_factory, *strategy);
    result = runner.run();
  } catch (const Error&) {
    // Rejected run (invalid config at construction, all-zero weights after
    // straggler drops, ...). Everything was per-execution local, so "state
    // unchanged" holds trivially; the rejection itself is the outcome.
    return fnv1a_u64(kFnvOffset ^ 'R', s.flags);
  }
  check_runner_result(config, result, *strategy);

  if ((s.flags & kFlagEchoRun) != 0) {
    // Determinism oracle: a byte-identical rerun of the identical episode
    // must reproduce the identical result, bit for bit.
    auto strategy2 = make_runner_strategy();
    fl::FederatedRunner echo(config, runner_train_data(), partition,
                             runner_test_data(), model_factory,
                             optimizer_factory, *strategy2);
    fl::SimulationResult result2;
    try {
      result2 = echo.run();
    } catch (const Error&) {
      require_invariant(false, "echo run rejected what the first run ran");
    }
    require_invariant(
        bits_equal(result.final_global_params, result2.final_global_params),
        "echo run produced different final params");
    require_invariant(result.rounds.size() == result2.rounds.size(),
                      "echo run produced a different round count");
    for (std::size_t i = 0; i < result.rounds.size(); ++i) {
      require_invariant(
          records_identical(result.rounds[i], result2.rounds[i]),
          "echo run produced a different round record");
    }
  }
  return runner_digest(result);
}

// ---------------------------------------------------------------------------
// BufferedAggregator + carry-over bus harness (async-rounds)
// ---------------------------------------------------------------------------
//
// Drives the asynchronous transport surface directly: every window, each
// client with no frame in flight pushes a scripted dense payload (honest
// jitter, NaN/Inf, wrong dimension, stale replay, ... — the same action
// vocabulary as the strategy harnesses), the server folds a script-selected
// subset in a script-selected order into a bounded BufferedAggregator, and
// the window closes with FinishPolicy::kCarryOver so unfolded pushes
// straggle into the next window. The two-outcome oracle per fold/commit:
//
//   applied  => the accumulator bit-equals an independent double-precision
//               replay of the identical fold sequence, commits bit-equal the
//               reference weighted average, carried frames reappear with
//               their ORIGINAL round id (that is what staleness is measured
//               against), and each window's billed bytes equal the measured
//               sizes of the frames pushed in that window — never re-billed
//               on carry.
//   rejected => the fold/commit threw apf::Error and the aggregator
//               (accumulator bits, buffered count, weight sum) is unchanged.
std::uint64_t run_async_script(const RoundScript& s) {
  const std::size_t n = s.clients;
  const std::size_t capacity = 1 + s.flavor % 4;
  transport::Bus bus{transport::NetworkModel{}};
  transport::BufferedAggregator agg(s.dim, capacity);

  std::uint64_t seed_state = s.value_seed ^ 0xA5C0FFEE5EEDULL;
  Rng vrng(splitmix64(seed_state));
  std::vector<float> global(s.dim);
  for (auto& x : global) x = vrng.uniform_float(-1.f, 1.f);

  // Independent double-precision replay of the aggregator (the oracle).
  std::vector<double> ref_acc(s.dim, 0.0);
  double ref_weight = 0.0;
  std::size_t ref_buffered = 0;
  const auto buffer_matches_reference = [&]() {
    const std::span<const double> acc = agg.accumulated();
    const double ws = agg.weight_sum();
    return acc.size() == ref_acc.size() &&
           std::memcmp(acc.data(), ref_acc.data(),
                       acc.size() * sizeof(double)) == 0 &&
           std::memcmp(&ws, &ref_weight, sizeof(double)) == 0 &&
           agg.buffered() == ref_buffered;
  };

  std::vector<bool> in_flight(n, false);
  std::vector<std::uint64_t> push_round(n, 0);
  std::vector<std::vector<float>> history;  // recent globals (stale replay)
  std::uint64_t digest = kFnvOffset;

  for (std::size_t r = 0; r < s.rounds.size(); ++r) {
    const RoundPlan& plan = s.rounds[r];
    const transport::RoundId rid(r + 1);
    bus.begin_round(rid);
    agg.begin_round(rid);

    // Free clients pull the latest global and push a scripted payload.
    std::uint64_t pushed_bytes = 0;
    std::uint64_t pushed_frames = 0;
    for (std::size_t c = 0; c < n; ++c) {
      if (in_flight[c]) continue;
      const std::vector<float> prop = make_proposal(
          s, r, c, plan.clients[c], global, global, nullptr, history);
      std::vector<std::uint8_t> payload = wire::encode_dense(prop);
      pushed_bytes += payload.size();
      ++pushed_frames;
      bus.push(transport::ClientId(c), transport::Frame::Kind::kStrategy,
               std::move(payload));
      in_flight[c] = true;
      push_round[c] = r + 1;
    }

    // The script decides which in-flight frames "arrive" this window and in
    // which order the server folds them (descending exercises out-of-order
    // client ids, the thing StreamingAggregator forbids).
    std::vector<std::size_t> arrivals;
    for (std::size_t c = 0; c < n; ++c) {
      if (in_flight[c] && plan.clients[c].b % 3 != 0) arrivals.push_back(c);
    }
    if ((s.flags & kFlagAsyncDescending) != 0) {
      std::reverse(arrivals.begin(), arrivals.end());
    }
    const std::vector<double> weights =
        make_weights(plan.weight_action, n, r);

    for (const std::size_t c : arrivals) {
      std::vector<transport::Frame> frames =
          bus.take_pushes(transport::ClientId(c));
      require_invariant(frames.size() == 1,
                        "in-flight client did not have exactly one frame");
      const transport::Frame& frame = frames.front();
      require_invariant(frame.client == transport::ClientId(c),
                        "take_pushes(client) returned another link's frame");
      require_invariant(frame.round == transport::RoundId(push_round[c]),
                        "carried frame lost its original round id");
      in_flight[c] = false;  // taken, folded or not
      const std::vector<float> decoded = wire::decode_dense(frame.payload);
      const double w = weights[c];
      try {
        agg.fold(frame.client, frame.round, decoded, w);
        const std::uint64_t staleness = (r + 1) - push_round[c];
        const double discounted =
            w * transport::BufferedAggregator::staleness_discount(staleness);
        ref_weight += discounted;
        for (std::size_t j = 0; j < s.dim; ++j) {
          ref_acc[j] += discounted * static_cast<double>(decoded[j]);
        }
        ++ref_buffered;
        require_invariant(buffer_matches_reference(),
                          "fold diverged from the double-precision replay");
        const transport::BufferedContribution& entry =
            agg.contributions().back();
        require_invariant(entry.client == transport::ClientId(c) &&
                              entry.staleness == staleness,
                          "side table misrecorded the last contribution");
        digest = fnv1a_u64(digest ^ 'A', c + 1);
      } catch (const Error&) {
        require_invariant(buffer_matches_reference(),
                          "rejected fold mutated the buffer");
        digest = fnv1a_u64(digest ^ 'R', c + 1);
      }
    }

    if (agg.buffered() > 0) {
      std::vector<float> out(s.dim);
      try {
        agg.commit(out);
        for (std::size_t j = 0; j < s.dim; ++j) {
          const float expected =
              static_cast<float>(ref_acc[j] / ref_weight);
          require_invariant(bit_eq(out[j], expected),
                            "commit diverged from the reference average");
        }
        global = out;
        history.push_back(global);
        if (history.size() > 4) history.erase(history.begin());
        ref_acc.assign(s.dim, 0.0);
        ref_weight = 0.0;
        ref_buffered = 0;
        digest = fnv1a_u64(digest ^ 'C', hash_floats(global));
      } catch (const Error&) {
        // Zero discounted weight sum: the buffer must be untouched and the
        // contributions stay buffered into the next window.
        require_invariant(buffer_matches_reference(),
                          "rejected commit mutated the buffer");
        digest = fnv1a_u64(digest ^ 'r', r + 1);
      }
    }

    std::uint64_t expected_carried = 0;
    for (std::size_t c = 0; c < n; ++c) {
      if (in_flight[c]) ++expected_carried;
    }
    const transport::RoundStats stats =
        bus.finish_round(transport::FinishPolicy::kCarryOver);
    require_invariant(stats.total_bytes ==
                          transport::ByteCount(pushed_bytes),
                      "window billed bytes != measured pushed payloads");
    require_invariant(stats.frames_up == pushed_frames,
                      "window frame count != pushes this window");
    require_invariant(stats.carried_frames == expected_carried,
                      "carried frame count != in-flight stragglers");
    digest = fnv1a_u64(digest, stats.total_bytes.value());
  }
  return digest;
}

}  // namespace

std::uint64_t run_apf_rounds(std::span<const std::uint8_t> bytes) {
  return run_sync_script(parse_round_script(bytes), StrategyKind::kApf);
}

std::uint64_t run_strawman_rounds(std::span<const std::uint8_t> bytes) {
  const RoundScript script = parse_round_script(bytes);
  StrategyKind kind = StrategyKind::kFullSync;
  if (script.flavor % 3 == 1) kind = StrategyKind::kPartialSync;
  if (script.flavor % 3 == 2) kind = StrategyKind::kPermanentFreeze;
  return run_sync_script(script, kind);
}

std::uint64_t run_compress_rounds(std::span<const std::uint8_t> bytes) {
  const RoundScript script = parse_round_script(bytes);
  StrategyKind kind = StrategyKind::kTopK;
  switch (script.flavor % 4) {
    case 1: kind = StrategyKind::kGaia; break;
    case 2: kind = StrategyKind::kRandK; break;
    case 3: kind = StrategyKind::kCmfl; break;
    default: break;
  }
  return run_sync_script(script, kind);
}

std::uint64_t run_runner_rounds(std::span<const std::uint8_t> bytes) {
  return run_runner_script(parse_round_script(bytes));
}

std::uint64_t run_update_quant_rounds(std::span<const std::uint8_t> bytes) {
  const RoundScript script = parse_round_script(bytes);
  // flavor bit 0 picks the codec; bit 1 (via update_quant_inner_apf) picks
  // the wrapped strategy, so all four codec x inner pairings stay reachable.
  const StrategyKind kind = script.flavor % 2 == 0
                                ? StrategyKind::kUpdateQsgd
                                : StrategyKind::kUpdateTern;
  return run_sync_script(script, kind);
}

std::uint64_t run_async_rounds(std::span<const std::uint8_t> bytes) {
  return run_async_script(parse_round_script(bytes));
}

}  // namespace apf::fuzz
