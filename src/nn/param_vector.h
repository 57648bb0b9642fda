// Flat-vector view of a model's trainable parameters.
//
// APF operates on the model as one flattened float vector (paper §3.2.2,
// footnote 4: expand every tensor with view(-1) and concatenate). These
// helpers copy between a module tree and such vectors, and expose per-tensor
// segment metadata for layer-granularity analyses (Fig. 3).
#pragma once

#include <string>
#include <vector>

#include "nn/module.h"

namespace apf::nn {

/// One named tensor's slice of the flattened parameter vector.
struct ParamSegment {
  std::string name;
  std::size_t offset = 0;
  std::size_t size = 0;
};

/// Copies all parameter values into one flat vector (concatenation order is
/// the module tree's parameter order, which is stable for a given model).
std::vector<float> flatten_params(Module& module);

/// Segment table describing how tensors map into the flat vector.
std::vector<ParamSegment> param_segments(Module& module);

/// Copies all buffers (e.g. BatchNorm running stats) into one flat vector.
std::vector<float> flatten_buffers(Module& module);

/// Writes a flat vector back into the module's buffers.
void load_buffers(Module& module, std::span<const float> flat);

}  // namespace apf::nn
