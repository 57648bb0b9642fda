// Mini-batch loader over a subset of a dataset.
//
// Each FL client owns a DataLoader over its partition indices; next_batch()
// cycles through the local data, reshuffling at each epoch boundary.
#pragma once

#include <span>
#include <vector>

#include "data/dataset.h"
#include "util/rng.h"

namespace apf::data {

class DataLoader {
 public:
  /// `indices` selects this loader's subset of `dataset`. The dataset must
  /// outlive the loader.
  DataLoader(const Dataset& dataset, std::vector<std::size_t> indices,
             std::size_t batch_size, Rng rng);

  /// Next mini-batch (at most batch_size samples; wraps and reshuffles at
  /// epoch boundaries, so every batch has exactly batch_size samples when
  /// the subset is at least that large).
  Batch next_batch();

  std::size_t batch_size() const { return batch_size_; }

  /// Batches per epoch (ceiling).
  std::size_t batches_per_epoch() const;

 private:
  const Dataset& dataset_;
  std::vector<std::size_t> indices_;
  std::size_t batch_size_;
  Rng rng_;
  std::size_t cursor_ = 0;
};

}  // namespace apf::data
