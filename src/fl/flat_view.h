// Flat addressing over a module's parameters without copying.
//
// The runner needs to pin frozen scalars to anchor values after every local
// optimizer step. FlatParamView caches the parameter segment pointers so
// gather/scatter/pin run straight over the underlying tensors.
#pragma once

#include <span>
#include <vector>

#include "nn/module.h"
#include "util/bitmap.h"

namespace apf::fl {

class FlatParamView {
 public:
  /// The module must outlive the view; parameter storage addresses must stay
  /// stable (they do: modules never reallocate their parameter tensors).
  explicit FlatParamView(nn::Module& module);

  std::size_t dim() const { return dim_; }

  /// Copies all parameters into `out` (resized to dim()).
  void gather(std::vector<float>& out) const;

  /// Writes `flat` (size dim()) into the module parameters.
  void scatter(std::span<const float> flat);

  /// For every set bit in `mask`, writes anchor[j] into parameter j —
  /// the rollback that emulates fine-grained freezing (paper Alg. 1 l.2).
  /// Runs after every local step, so it walks Bitmap::words() and skips
  /// all-clear words; clear-bit parameters are never written.
  void pin_masked(const Bitmap& mask, std::span<const float> anchor);

 private:
  struct Segment {
    float* data;
    std::size_t size;
  };
  std::vector<Segment> segments_;
  std::size_t dim_ = 0;
};

}  // namespace apf::fl
