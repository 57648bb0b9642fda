#include "transport/network.h"

#include <cmath>

#include "util/error.h"

namespace apf::transport {

namespace {
double seconds(util::ByteCount bytes, double mbps) {
  APF_CHECK(mbps > 0.0);
  return bytes.to_double() * 8.0 / (mbps * 1e6);
}
}  // namespace

void NetworkModel::validate(const std::string& context) const {
  const auto require_bandwidth = [&](double mbps, const char* field) {
    APF_CHECK_MSG(std::isfinite(mbps) && mbps > 0.0,
                  context << ": NetworkModel::" << field
                          << " must be a finite positive Mbps value, got "
                          << mbps);
  };
  require_bandwidth(client_download_mbps, "client_download_mbps");
  require_bandwidth(client_upload_mbps, "client_upload_mbps");
  require_bandwidth(server_bandwidth_mbps, "server_bandwidth_mbps");
}

double NetworkModel::client_download_seconds(util::ByteCount bytes) const {
  return seconds(bytes, client_download_mbps);
}

double NetworkModel::client_upload_seconds(util::ByteCount bytes) const {
  return seconds(bytes, client_upload_mbps);
}

double NetworkModel::server_seconds(util::ByteCount total_bytes) const {
  return seconds(total_bytes, server_bandwidth_mbps);
}

}  // namespace apf::transport
