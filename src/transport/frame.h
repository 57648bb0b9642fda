// A framed message on the transport bus.
//
// A frame is the unit the bus carries in either direction: an opaque encoded
// wire buffer (APS1/APM1/APQ1/... — see docs/WIRE.md) tagged with the link it
// travels on, the round it belongs to, and a per-link send sequence number.
// The bus never inspects payloads; byte accounting is always the measured
// payload size, never a modeled estimate.
//
// The tags are strong types (src/util/ids.h): a ClientId cannot be passed
// where a RoundId or SeqNo is expected, and size_bytes() is a ByteCount, so
// the id/byte mix-ups that bare integers allowed are now compile errors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/ids.h"

namespace apf::transport {

using util::ByteCount;
using util::ClientId;
using util::RoundId;
using util::SeqNo;

struct Frame {
  /// What the payload carries. The bus treats both identically; the tag lets
  /// the receiver dispatch without sniffing the wire magic. Dispatch over
  /// Kind must be exhaustive and default-free (apf_lint rule
  /// `exhaustive-dispatch`), so adding an enumerator breaks every switch
  /// that has not decided what to do with it.
  enum class Kind : std::uint8_t {
    kStrategy = 0,   // a SyncStrategy push/pull payload
    kAuxiliary = 1,  // auxiliary state (e.g. BatchNorm buffer vectors)
  };

  ClientId client;  // the link this frame travels on
  RoundId round;    // 1-based communication round
  Kind kind = Kind::kStrategy;
  SeqNo seq;        // per-link send order, assigned by the bus
  std::vector<std::uint8_t> payload;

  ByteCount size_bytes() const { return ByteCount(payload.size()); }
};

}  // namespace apf::transport
