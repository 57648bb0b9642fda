#include "nn/param_vector.h"

#include <algorithm>

#include "util/error.h"

namespace apf::nn {

std::vector<float> flatten_params(Module& module) {
  std::vector<float> flat;
  flat.reserve(module.parameter_count());
  for (const auto& p : module.parameters()) {
    const auto span = p.param->value.data();
    flat.insert(flat.end(), span.begin(), span.end());
  }
  return flat;
}

std::vector<ParamSegment> param_segments(Module& module) {
  std::vector<ParamSegment> segs;
  std::size_t offset = 0;
  for (const auto& p : module.parameters()) {
    segs.push_back({p.name, offset, p.param->numel()});
    offset += p.param->numel();
  }
  return segs;
}

std::vector<float> flatten_buffers(Module& module) {
  std::vector<float> flat;
  for (const auto& b : module.buffers()) {
    const auto span = b.buffer->data();
    flat.insert(flat.end(), span.begin(), span.end());
  }
  return flat;
}

void load_buffers(Module& module, std::span<const float> flat) {
  std::size_t offset = 0;
  for (const auto& b : module.buffers()) {
    const std::size_t n = b.buffer->numel();
    APF_CHECK(offset + n <= flat.size());
    std::copy(flat.begin() + static_cast<std::ptrdiff_t>(offset),
              flat.begin() + static_cast<std::ptrdiff_t>(offset + n),
              b.buffer->data().begin());
    offset += n;
  }
  APF_CHECK(offset == flat.size());
}

}  // namespace apf::nn
