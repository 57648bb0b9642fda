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

/// Samples per evaluation shard at most; a shard runs as one forward batch.
inline constexpr std::size_t kEvalShardSamples = 32;

/// Shards of a background evaluation of `samples` samples on `lanes` lanes:
/// about four per lane, so lanes left idle by serial work pick up the rest,
/// and enough that none holds more than kEvalShardSamples. Never more shards
/// than samples; 0 for an empty dataset.
std::size_t eval_shard_count(std::size_t lanes, std::size_t samples);

/// Posts the evaluation of `dataset` to `pool` as eval_shard_count(
/// pool.lanes(), S) tasks and sizes `correct` to one slot per shard. Shard s
/// takes the contiguous samples [s * S / K, (s + 1) * S / K) as one batch,
/// runs them on replicas[ThreadPool::current_lane()] between
/// set_training(false) and set_training(true), and writes its exact argmax
/// match count to correct[s]. `replicas` holds one bit-identical copy of the
/// model (same params and buffers) per pool lane, so no two lanes share a
/// module. A sample's logits do not depend on the batch it runs in (every
/// kernel computes each output row alone) and the counts are integers, so
/// the sum of `correct` is the same for any lane count.
///
/// Nothing here waits: `replicas`, `dataset` and `correct` must stay alive
/// and untouched until pool.drain() returns, which also rethrows a shard's
/// failure.
void post_evaluation(std::span<nn::Module* const> replicas,
                     const data::Dataset& dataset, util::ThreadPool& pool,
                     std::vector<std::size_t>& correct);

}  // namespace apf::fl
