// Model evaluation helpers.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "nn/module.h"
#include "util/thread_pool.h"

namespace apf::fl {

/// Exact number of rows whose argmax prediction equals the label, summed as
/// integers over the whole dataset (no float round-trip).
std::size_t count_correct(nn::Module& module, const data::Dataset& dataset,
                          std::size_t batch_size = 128);

/// Test accuracy of `module` over the whole dataset, evaluated in eval mode
/// (BatchNorm running stats) with mini-batches of `batch_size`. Restores the
/// module's previous train/eval mode before returning. Implemented as
/// count_correct / dataset.size(), so the result is exact.
double evaluate_accuracy(nn::Module& module, const data::Dataset& dataset,
                         std::size_t batch_size = 128);

/// Mean cross-entropy loss over the dataset (eval mode).
double evaluate_loss(nn::Module& module, const data::Dataset& dataset,
                     std::size_t batch_size = 128);

/// Correct and total counts of one evaluation pass.
struct EvalSums {
  std::size_t correct = 0;  // exact argmax matches
  std::size_t total = 0;    // samples seen
};

/// Parallel single-pass evaluation over `replicas`, which must be
/// bit-identical copies of the model (same params and buffers), one pool
/// task per replica. With R = min(replicas, samples), replica r evaluates
/// the contiguous samples [r * S / R, (r + 1) * S / R) in batches of at most
/// `batch_size`, so the lanes get equal shares and no module is shared
/// between them. A sample's logits do not depend on the batch it runs in
/// (every kernel computes each output row alone) and the counts are
/// integers, so the result is bit-identical for any replica count,
/// including 1.
EvalSums evaluate_sums_parallel(std::span<nn::Module* const> replicas,
                                const data::Dataset& dataset,
                                std::size_t batch_size,
                                util::ThreadPool& pool);

}  // namespace apf::fl
