// Edge network model.
//
// The paper's testbed gives every client 9 Mbps download / 3 Mbps upload
// (global-average Internet conditions) and the server 10 Gbps. Round time in
// the simulator is the BSP barrier: the slowest client's compute plus its
// two transfers. The server link is shared: with many clients pushing
// simultaneously, the server-side time is total bytes over server bandwidth,
// and the barrier takes whichever side is slower.
//
// The model lives in `transport` so the message bus can price the frames it
// carries.
#pragma once

#include <cstddef>
#include <string>

#include "util/ids.h"

namespace apf::transport {

struct NetworkModel {
  double client_download_mbps = 9.0;
  double client_upload_mbps = 3.0;
  double server_bandwidth_mbps = 10000.0;

  /// Fixed per-frame propagation delay in seconds, added once per frame on
  /// top of the serialization time. 0 (the default) reproduces the paper's
  /// bandwidth-only timing exactly.
  double frame_latency_seconds = 0.0;

  /// Validates the configuration up front: every bandwidth must be a finite
  /// positive Mbps value and the latency finite and non-negative. Throws
  /// apf::Error with `context` in the message so a bad config is reported
  /// where it was built, not mid-round deep inside seconds().
  void validate(const std::string& context) const;

  /// Seconds for one client to download `bytes`.
  double client_download_seconds(double bytes) const;

  /// Seconds for one client to upload `bytes`.
  double client_upload_seconds(double bytes) const;

  /// Seconds for the server to move `total_bytes` across its link.
  double server_seconds(double total_bytes) const;

  // Measured-count overloads: the bus prices links in util::ByteCount; the
  // conversion to double happens exactly here (exact for every measured
  // count, see ByteCount::to_double), so pricing arithmetic is bit-identical
  // to the historical double-in-double-out path.
  double client_download_seconds(util::ByteCount bytes) const {
    return client_download_seconds(bytes.to_double());
  }
  double client_upload_seconds(util::ByteCount bytes) const {
    return client_upload_seconds(bytes.to_double());
  }
  double server_seconds(util::ByteCount total_bytes) const {
    return server_seconds(total_bytes.to_double());
  }
};

}  // namespace apf::transport
