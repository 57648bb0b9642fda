// Masked pack/unpack — the wire format of APF synchronization.
//
// The paper's APF_Manager transmits only unfrozen scalars, packed into a
// compact tensor with masked_select and restored with masked_fill (Alg. 1
// lines 4/6). These helpers are that wire path: pack() extracts the values
// at clear mask bits in index order; unpack() scatters a compact payload
// back. The ApfManager aggregates actual packed payloads, so the simulation
// moves exactly the bytes it charges.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/bitmap.h"

namespace apf::wire {

// Both walk the mask a word (64 scalars) at a time through
// Bitmap::words(): an all-clear word is one 64-float copy, an all-set word
// is skipped, and only mixed words look at individual bits. Values are
// copied, never computed on, so the result is bit-for-bit the per-bit
// definition below (NaN payloads included).

/// Values of `full` at positions where `frozen_mask` is clear, in ascending
/// index order (the unfrozen payload).
std::vector<float> pack_unfrozen(std::span<const float> full,
                                 const Bitmap& frozen_mask);

/// Scatters `payload` back into `full` at the clear positions of
/// `frozen_mask`; frozen positions are never written, so they keep their
/// exact bits. payload.size() must equal the number of clear bits.
void unpack_unfrozen(std::span<const float> payload, const Bitmap& frozen_mask,
                     std::span<float> full);

// ---------------------------------------------------------------------------
// Framed wire format for one masked update (what a client's upload or the
// §9 server-side-mask pull actually looks like on the wire):
//
//   "APM1" | dim u32 | mask bytes ((dim+7)/8, Bitmap::to_bytes layout,
//   stray tail bits rejected) | payload f32[dim - popcount(mask)]
//
// Fields are little-endian (util/bytes.h); float payloads are transported
// bit-exactly. The encoding is bijective on its valid domain: any buffer
// decode_masked_update accepts re-encodes byte-for-byte, and anything else
// raises apf::Error — never an OOB read or a silently wrong tensor.
// ---------------------------------------------------------------------------

struct MaskedUpdate {
  Bitmap frozen_mask;
  std::vector<float> payload;  // unfrozen scalars, ascending index order
};

/// Frames the unfrozen scalars of `full` plus the mask itself.
std::vector<std::uint8_t> encode_masked_update(std::span<const float> full,
                                               const Bitmap& frozen_mask);

/// Parses and fully validates a framed masked update.
MaskedUpdate decode_masked_update(std::span<const std::uint8_t> bytes);

}  // namespace apf::wire
