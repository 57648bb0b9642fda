// Edge network model.
//
// The paper's testbed gives every client 9 Mbps download / 3 Mbps upload
// (global-average Internet conditions) and the server 10 Gbps. A client's
// comm time is its two transfers over its own link; the server link is
// shared, so the server-side time is total bytes over server bandwidth.
//
// The model lives in `transport` because the message bus is the only code
// that prices bytes: it turns the measured sizes of the frames it carried
// into these seconds (docs/TRANSPORT.md, "Pricing").
#pragma once

#include <string>

#include "util/ids.h"

namespace apf::transport {

struct NetworkModel {
  double client_download_mbps = 9.0;
  double client_upload_mbps = 3.0;
  double server_bandwidth_mbps = 10000.0;

  /// Validates the configuration up front: every bandwidth must be a finite
  /// positive Mbps value. Throws apf::Error with `context` in the message so
  /// a bad config is reported where it was built, not mid-round.
  void validate(const std::string& context) const;

  // Prices measured counts only. The conversion to double happens exactly
  // here (exact for every measured count, see ByteCount::to_double).

  /// Seconds for one client to download `bytes`.
  double client_download_seconds(util::ByteCount bytes) const;

  /// Seconds for one client to upload `bytes`.
  double client_upload_seconds(util::ByteCount bytes) const;

  /// Seconds for the server to move `total_bytes` across its link.
  double server_seconds(util::ByteCount total_bytes) const;
};

}  // namespace apf::transport
