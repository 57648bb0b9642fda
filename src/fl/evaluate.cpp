#include "fl/evaluate.h"

#include <algorithm>
#include <numeric>

#include "tensor/ops.h"
#include "util/error.h"

namespace apf::fl {

namespace {
/// The batch of samples [start, end), in index order.
data::Batch batch_of(const data::Dataset& dataset, std::size_t start,
                     std::size_t end) {
  std::vector<std::size_t> idx(end - start);
  std::iota(idx.begin(), idx.end(), start);
  return dataset.get_batch(idx);
}

/// Exact argmax-match count for one forward pass (integer, no float
/// round-trip through an accuracy fraction).
std::size_t batch_correct(const Tensor& logits,
                          const std::vector<std::size_t>& labels) {
  const auto preds = argmax_rows(logits);
  APF_CHECK(preds.size() == labels.size());
  std::size_t correct = 0;
  for (std::size_t i = 0; i < preds.size(); ++i) {
    if (preds[i] == labels[i]) ++correct;
  }
  return correct;
}

/// Calls fn on consecutive batches of at most batch_size samples that cover
/// [start, end) in index order.
template <typename Fn>
void for_each_batch(const data::Dataset& dataset, std::size_t start,
                    std::size_t end, std::size_t batch_size, Fn&& fn) {
  APF_CHECK(batch_size > 0);
  for (; start < end; start += batch_size)
    fn(batch_of(dataset, start, std::min(end, start + batch_size)));
}
}  // namespace

std::size_t count_correct(nn::Module& module, const data::Dataset& dataset,
                          std::size_t batch_size) {
  APF_CHECK(batch_size > 0);
  const bool was_training = module.training();
  module.set_training(false);
  std::size_t correct = 0;
  for_each_batch(dataset, 0, dataset.size(), batch_size,
                 [&](const data::Batch& batch) {
    correct += batch_correct(module.forward(batch.inputs), batch.labels);
  });
  module.set_training(was_training);
  return correct;
}

double evaluate_accuracy(nn::Module& module, const data::Dataset& dataset,
                         std::size_t batch_size) {
  APF_CHECK(batch_size > 0);
  return dataset.size() == 0
             ? 0.0
             : static_cast<double>(count_correct(module, dataset, batch_size)) /
                   static_cast<double>(dataset.size());
}

std::size_t eval_shard_count(std::size_t lanes, std::size_t samples) {
  APF_CHECK(lanes > 0);
  const std::size_t by_size =
      (samples + kEvalShardSamples - 1) / kEvalShardSamples;
  return std::min(samples, std::max(4 * lanes, by_size));
}

void post_evaluation(std::span<nn::Module* const> replicas,
                     const data::Dataset& dataset, util::ThreadPool& pool,
                     std::vector<std::size_t>& correct) {
  APF_CHECK(replicas.size() == pool.lanes());
  for (nn::Module* replica : replicas) APF_CHECK(replica != nullptr);
  const std::size_t samples = dataset.size();
  const std::size_t shards = eval_shard_count(pool.lanes(), samples);
  correct.assign(shards, 0);
  for (std::size_t s = 0; s < shards; ++s) {
    pool.post([replicas, &dataset, &correct, s, shards, samples] {
      const std::size_t lane = util::ThreadPool::current_lane();
      APF_CHECK(lane < replicas.size());
      nn::Module& module = *replicas[lane];
      module.set_training(false);
      const data::Batch batch = batch_of(dataset, s * samples / shards,
                                         (s + 1) * samples / shards);
      correct[s] = batch_correct(module.forward(batch.inputs), batch.labels);
      module.set_training(true);
    });
  }
}

}  // namespace apf::fl
