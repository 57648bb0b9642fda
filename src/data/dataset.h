// Dataset abstraction for the FL simulator.
//
// A Dataset owns samples (features + integer label) and materializes batches
// as tensors. The two concrete datasets are synthetic stand-ins for CIFAR-10
// and the Keyword-Spotting corpus used in the paper (see DESIGN.md §1 for the
// substitution rationale).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "tensor/tensor.h"

namespace apf::data {

/// A mini-batch: stacked inputs (leading dim = batch) and labels.
struct Batch {
  Tensor inputs;
  std::vector<std::size_t> labels;

  std::size_t size() const { return labels.size(); }
};

class Dataset {
 public:
  virtual ~Dataset() = default;

  virtual std::size_t size() const = 0;
  virtual std::size_t num_classes() const = 0;

  /// Per-sample input shape (without the batch dimension).
  virtual Shape sample_shape() const = 0;

  /// Label of sample i.
  virtual std::size_t label(std::size_t i) const = 0;

  /// Stacks the given samples into a batch.
  virtual Batch get_batch(std::span<const std::size_t> indices) const = 0;

  /// All labels, in index order (used by partitioners).
  std::vector<std::size_t> all_labels() const;
};

}  // namespace apf::data
