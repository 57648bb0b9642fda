// Byte-level wire formats for every synchronization payload.
//
// The sync strategies (FullSync, the APF family, the strawmen, and the
// compression baselines — the structured/sketched update formats of
// Konečný et al. 2016 and the Gaia/CMFL/QSGD/TernGrad lines of work) move
// their push/pull payloads through these encodings: the sender encodes the
// real values, the receiver decodes the buffer, aggregation consumes the
// decoded values, and every Result::bytes_up/bytes_down charge is the
// `.size()` of an encoded buffer that was actually decoded — measured,
// never modeled. Every decoder rejects malformed input with apf::Error
// (never an OOB read, overflow, or silently wrong tensor), and every
// accepted buffer re-encodes byte-for-byte (the encodings are bijective on
// their valid domain). See docs/WIRE.md for the measured-transport
// invariant.
//
// All formats open with a 4-byte ASCII tag and use little-endian fields
// (see util/bytes.h). Float payloads are transported bit-exactly.
//
//   sparse   "APS1" | dim u32 | count u32 | indices u32[count] (strictly
//            ascending, < dim) | values f32[count]
//   randk    "APR1" | dim u32 | count u32 (<= dim) | seed u64 | scale f32
//            (finite, > 0) | values f32[count]
//   fp16     "APH1" | count u32 | halves u16[count]
//   dense    "APD1" | count u32 | values f32[count]
//   qsgd     "APQ1" | dim u32 | bits u8 (1..16) | norm f32 (finite, >= 0)
//            | packed (1+bits)-bit fields, LSB-first: sign bit then level
//            (level <= 2^bits - 1 always holds; trailing pad bits must be 0)
//   terngrad "APT1" | dim u32 | scale f32 (finite, >= 0) | packed 2-bit
//            codes, LSB-first: 0 -> 0, 1 -> +scale, 2 -> -scale (3 is
//            invalid; trailing pad bits must be 0)
//
// The APM1 masked-update framing lives in wire/masked.h.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.h"

namespace apf::wire {

// ---------------------------------------------------------------------------
// Sparse index/value payload (Top-k, Gaia pushes).
// ---------------------------------------------------------------------------

struct SparsePayload {
  std::uint32_t dim = 0;
  std::vector<std::uint32_t> indices;  // strictly ascending, < dim
  std::vector<float> values;           // same length as indices
};

/// Indices must be strictly ascending and < dim; values.size() must match.
std::vector<std::uint8_t> encode_sparse(const SparsePayload& payload);

/// Raises apf::Error on any malformed framing (bad tag, truncation, count
/// overflow, out-of-range or non-ascending indices, trailing bytes).
SparsePayload decode_sparse(std::span<const std::uint8_t> bytes);

// ---------------------------------------------------------------------------
// Rand-k payload: values only, coordinate set derived from the seed.
// ---------------------------------------------------------------------------

struct RandkPayload {
  std::uint32_t dim = 0;
  std::uint32_t count = 0;  // == values.size(), <= dim
  std::uint64_t seed = 0;   // round-derived selection seed
  float scale = 1.f;        // unbiased scaling factor (finite, > 0)
  std::vector<float> values;
};

std::vector<std::uint8_t> encode_randk(const RandkPayload& payload);
RandkPayload decode_randk(std::span<const std::uint8_t> bytes);

// ---------------------------------------------------------------------------
// Half-precision dense payload (QuantizedSync wire format).
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> encode_fp16_payload(std::span<const float> values);

/// Decoded through half_to_float; raises apf::Error on malformed framing.
std::vector<float> decode_fp16_payload(std::span<const std::uint8_t> bytes);

// ---------------------------------------------------------------------------
// Dense fp32 payload (CMFL full-model pushes, model pulls).
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> encode_dense(std::span<const float> values);
std::vector<float> decode_dense(std::span<const std::uint8_t> bytes);

// ---------------------------------------------------------------------------
// QSGD payload: per-coordinate sign + stochastic level, shared L2 norm.
// ---------------------------------------------------------------------------

struct QsgdPayload {
  std::uint32_t dim = 0;
  unsigned bits = 0;                 // 1..16
  float norm = 0.f;                  // finite, >= 0
  std::vector<std::uint8_t> signs;   // dim entries, 0 or 1 (1 = negative)
  std::vector<std::uint32_t> levels; // dim entries, <= 2^bits - 1
};

/// The receiver-side value of one coordinate: sign * norm * level / s.
float qsgd_value(float norm, std::uint32_t level, unsigned levels,
                 bool negative);

/// Quantizes `update` into a payload, drawing the stochastic rounding from
/// `rng` (QsgdCodec::encode).
QsgdPayload qsgd_quantize(std::span<const float> update, unsigned bits,
                          Rng& rng);

/// The float vector a receiver reconstructs from `payload`.
std::vector<float> qsgd_dequantize(const QsgdPayload& payload);

std::vector<std::uint8_t> encode_qsgd(const QsgdPayload& payload);
QsgdPayload decode_qsgd(std::span<const std::uint8_t> bytes);

// ---------------------------------------------------------------------------
// TernGrad payload: 2-bit codes {0, +scale, -scale}, shared scale.
// ---------------------------------------------------------------------------

struct TernPayload {
  std::uint32_t dim = 0;
  float scale = 0.f;               // finite, >= 0
  std::vector<std::uint8_t> codes; // dim entries in {0, 1, 2}
};

/// Quantizes `update`, drawing the stochastic selection from `rng`
/// (TernGradCodec::encode).
TernPayload terngrad_quantize(std::span<const float> update, Rng& rng);

std::vector<float> terngrad_dequantize(const TernPayload& payload);

std::vector<std::uint8_t> encode_terngrad(const TernPayload& payload);
TernPayload decode_terngrad(std::span<const std::uint8_t> bytes);

}  // namespace apf::wire
