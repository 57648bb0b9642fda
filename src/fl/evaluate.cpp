#include "fl/evaluate.h"

#include <algorithm>
#include <numeric>

#include "nn/loss.h"
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

double evaluate_loss(nn::Module& module, const data::Dataset& dataset,
                     std::size_t batch_size) {
  APF_CHECK(batch_size > 0);
  const bool was_training = module.training();
  module.set_training(false);
  double total = 0.0;
  for_each_batch(dataset, 0, dataset.size(), batch_size,
                 [&](const data::Batch& batch) {
    const Tensor logits = module.forward(batch.inputs);
    const auto result = nn::softmax_cross_entropy(logits, batch.labels);
    total += static_cast<double>(result.loss) *
             static_cast<double>(batch.size());
  });
  module.set_training(was_training);
  return dataset.size() == 0
             ? 0.0
             : total / static_cast<double>(dataset.size());
}

EvalSums evaluate_sums_parallel(std::span<nn::Module* const> replicas,
                                const data::Dataset& dataset,
                                std::size_t batch_size,
                                util::ThreadPool& pool) {
  APF_CHECK(batch_size > 0 && !replicas.empty());
  for (nn::Module* replica : replicas) APF_CHECK(replica != nullptr);
  EvalSums sums;
  const std::size_t samples = dataset.size();
  if (samples == 0) return sums;
  const std::size_t lanes = std::min(replicas.size(), samples);
  std::vector<std::size_t> correct(lanes, 0);
  pool.parallel_for(lanes, [&](std::size_t r) {
    nn::Module& module = *replicas[r];
    const bool was_training = module.training();
    module.set_training(false);
    for_each_batch(dataset, r * samples / lanes, (r + 1) * samples / lanes,
                   batch_size, [&](const data::Batch& batch) {
      correct[r] += batch_correct(module.forward(batch.inputs), batch.labels);
    });
    module.set_training(was_training);
  });
  for (const std::size_t c : correct) sums.correct += c;
  sums.total = samples;
  return sums;
}

}  // namespace apf::fl
