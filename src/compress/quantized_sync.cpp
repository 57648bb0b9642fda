#include "compress/quantized_sync.h"

#include <cstdint>
#include <cstring>
#include <optional>

#include "util/error.h"
#include "util/thread_pool.h"
#include "wire/masked.h"
#include "wire/wire.h"

namespace apf::compress {

QuantizedSync::QuantizedSync(std::unique_ptr<fl::SyncStrategy> inner)
    : inner_(std::move(inner)) {
  APF_CHECK(inner_ != nullptr);
}

void QuantizedSync::init(std::span<const float> initial_params,
                         std::size_t num_clients) {
  inner_->init(initial_params, num_clients);
}

namespace {

/// Rounds the client's transmitted scalars (the unfrozen ones when `mask` is
/// set, all of them otherwise) through a real "APH1" half-precision buffer
/// and returns that buffer (its size is the charge, and the runner routes it
/// over the transport bus). Frozen scalars never travel, so they stay exact.
std::vector<std::uint8_t> fp16_round_trip(std::vector<float>& params,
                                          const std::optional<Bitmap>& mask) {
  std::vector<std::uint8_t> buf;
  if (mask.has_value()) {
    buf = wire::encode_fp16_payload(wire::pack_unfrozen(params, *mask));
    wire::unpack_unfrozen(wire::decode_fp16_payload(buf), *mask, params);
  } else {
    buf = wire::encode_fp16_payload(params);
    params = wire::decode_fp16_payload(buf);
  }
  return buf;
}

bool bitwise_equal(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

}  // namespace

fl::SyncStrategy::Result QuantizedSync::synchronize(fl::RoundId round, std::vector<std::vector<float>>& client_params,
    const std::vector<double>& weights) {
  // Malformed rounds go straight to the inner strategy, which rejects them
  // atomically before any proposal is quantized.
  const std::size_t n = client_params.size();
  const std::size_t dim = inner_->global_params().size();
  bool well_formed = weights.size() == n && n > 0;
  for (std::size_t i = 0; well_formed && i < n; ++i) {
    well_formed = client_params[i].size() == dim;
  }
  if (!well_formed) return inner_->synchronize(round, client_params, weights);

  // The mask in force while this round's payloads travel (the inner strategy
  // may grow it during synchronize()). Masks are client-derived (§7.7
  // configuration), so no mask bytes ride along with the fp16 payload.
  std::optional<Bitmap> mask;
  if (const Bitmap* inner_mask = inner_->frozen_mask()) mask = *inner_mask;

  std::vector<fl::ByteCount> up_bytes(n, fl::ByteCount(0));
  std::vector<fl::ByteCount> down_bytes(n, fl::ByteCount(0));
  std::vector<std::vector<std::uint8_t>> up_frames(n);
  std::vector<std::vector<std::uint8_t>> down_frames(n);
  // Push-side: each participant's payload travels as a real half-precision
  // buffer; the server aggregates what the wire carried. The round trips
  // run on STAGED copies: a shape-valid round the inner strategy still
  // rejects (non-finite weights, zero total) must leave the caller's
  // proposals untouched — rejection is atomic. The copies are made here on
  // the caller thread; the round trips then run on the compute pool, each
  // task touching only its own client's slots, so the result does not
  // depend on the lane count.
  std::vector<std::vector<float>> staged = client_params;
  util::compute_pool().parallel_for(n, [&](std::size_t i) {
    if (weights[i] == 0.0) return;
    up_frames[i] = fp16_round_trip(staged[i], mask);
    up_bytes[i] = fl::ByteCount(up_frames[i].size());
  });
  Result result = inner_->synchronize(round, staged, weights);
  client_params = std::move(staged);
  // Pull-side: the post-sync parameters travel back the same way. Under one
  // mask a round trip is a function of the vector's bits alone, so a
  // participant whose post-sync vector is bitwise equal to the previous
  // participant's reuses that participant's frame and decoded vector (under
  // APF and FedAvg every participant matches, so the model is encoded once
  // per round). The distinct pulls run on the compute pool like the pushes.
  std::vector<std::size_t> pull_of(n, n);  // whose pull client i receives
  std::size_t prev = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (weights[i] == 0.0) continue;
    const bool same =
        prev < n && bitwise_equal(client_params[i], client_params[prev]);
    pull_of[i] = same ? pull_of[prev] : i;
    prev = i;
  }
  util::compute_pool().parallel_for(n, [&](std::size_t i) {
    if (pull_of[i] != i) return;
    down_frames[i] = fp16_round_trip(client_params[i], mask);
  });
  for (std::size_t i = 0; i < n; ++i) {
    if (pull_of[i] == n) continue;
    if (pull_of[i] != i) {
      client_params[i] = client_params[pull_of[i]];
      down_frames[i] = down_frames[pull_of[i]];
    }
    down_bytes[i] = fl::ByteCount(down_frames[i].size());
  }
  // The wrapper's fp16 buffers replace the inner strategy's traffic in both
  // directions.
  result.bytes_up = std::move(up_bytes);
  result.bytes_down = std::move(down_bytes);
  result.frames_up = std::move(up_frames);
  result.frames_down = std::move(down_frames);
  return result;
}

std::span<const float> QuantizedSync::global_params() const {
  return inner_->global_params();
}

const Bitmap* QuantizedSync::frozen_mask() const {
  return inner_->frozen_mask();
}

std::span<const float> QuantizedSync::frozen_anchor() const {
  return inner_->frozen_anchor();
}

std::string QuantizedSync::name() const { return inner_->name() + "+Q"; }

}  // namespace apf::compress
