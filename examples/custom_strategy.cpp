// Extending the library: writing your own synchronization strategy.
//
// Implements a toy "LayerFreeze" strategy on fl::SyncStrategyBase — it
// freezes whole tensors bottom-up on a fixed schedule, in the spirit of
// FreezeOut/AutoFreeze (paper §8), and compares it with APF. A strategy
// defines the five round hooks and the base class runs the batch round over
// them (its bytes are the sizes of the frames the hooks encode):
//   1. encode_push(): a client's push frame (here the packed unfrozen
//      scalars),
//   2. begin_fold()/fold_push()/finish_fold(): the server's fold, ascending
//      client id, ending in the pull frame,
//   3. apply_pull(): a client rebuilds its model from the pull frame.
// frozen_mask()/frozen_anchor() say which scalars the runner pins locally,
// and global_params() is the server view used for evaluation.
// It also shows why scalar-granularity adaptive freezing beats fixed
// layer-granularity schedules (the paper's Fig. 3 argument).
//
//   $ ./custom_strategy
#include <iostream>
#include <optional>

#include "core/apf.h"
#include "util/table.h"
#include "wire/masked.h"
#include "wire/wire.h"

using namespace apf;

namespace {

/// Freezes parameter tensors bottom-up: after `rounds_per_layer * i` rounds,
/// the first i tensors are permanently frozen (never re-examined — exactly
/// the rigidity APF's feedback loop avoids).
class LayerFreeze : public fl::SyncStrategyBase {
 public:
  LayerFreeze(std::vector<nn::ParamSegment> segments,
              std::size_t rounds_per_layer)
      : segments_(std::move(segments)),
        rounds_per_layer_(rounds_per_layer) {}

  void init(std::span<const float> initial_params,
            std::size_t num_clients) override {
    SyncStrategyBase::init(initial_params, num_clients);
    mask_ = Bitmap(initial_params.size(), false);
    pull_mask_ = mask_;
  }

  std::vector<std::uint8_t> encode_push(
      fl::ClientId /*client*/, std::span<const float> params) override {
    return wire::encode_dense(wire::pack_unfrozen(params, mask_));
  }

  void begin_fold(fl::RoundId round) override {
    round_ = round;
    agg_.emplace(global_.size() - mask_.count());
  }

  void fold_push(fl::ClientId client, std::span<const std::uint8_t> frame,
                 double normalized_weight) override {
    agg_->fold(client, wire::decode_dense(frame), normalized_weight);
  }

  std::vector<std::uint8_t> finish_fold() override {
    // Frozen scalars keep their global value; the rest take the average.
    std::vector<float> live(agg_->dim());
    agg_->finish_weighted(live);
    agg_.reset();
    wire::unpack_unfrozen(live, mask_, global_);
    pull_mask_ = mask_;
    std::vector<std::uint8_t> pull =
        wire::encode_dense(wire::pack_unfrozen(global_, mask_));

    // Schedule: after every `rounds_per_layer_` rounds, freeze one more
    // tensor (bottom-up), keeping at least the classifier trainable.
    const std::size_t layers_frozen =
        std::min(round_.value() / rounds_per_layer_,
                 static_cast<std::uint64_t>(segments_.size() - 2));
    for (std::size_t s = 0; s < layers_frozen; ++s) {
      for (std::size_t j = segments_[s].offset;
           j < segments_[s].offset + segments_[s].size; ++j) {
        mask_.set(j, true);
      }
    }
    return pull;
  }

  void apply_pull(std::span<const std::uint8_t> frame,
                  std::vector<float>& params) const override {
    params.assign(global_.begin(), global_.end());
    wire::unpack_unfrozen(wire::decode_dense(frame), pull_mask_, params);
  }

  const Bitmap* frozen_mask() const override { return &mask_; }
  std::span<const float> frozen_anchor() const override { return global_; }
  std::string name() const override { return "LayerFreeze"; }

 protected:
  double round_frozen_fraction() const override {
    return pull_mask_.fraction();
  }

 private:
  std::vector<nn::ParamSegment> segments_;
  std::size_t rounds_per_layer_;
  Bitmap mask_;       // frozen from the next round on
  Bitmap pull_mask_;  // the mask the last folded round trained with
  fl::RoundId round_;
  std::optional<transport::StreamingAggregator> agg_;
};

}  // namespace

int main() {
  data::SyntheticImageSpec spec;
  spec.num_classes = 10;
  spec.channels = 3;
  spec.image_size = 20;
  spec.noise_stddev = 2.0;
  data::SyntheticImageDataset train(spec, 500, 1);
  data::SyntheticImageDataset test(spec, 250, 2);

  Rng partition_rng(5);
  data::Partition partition = data::dirichlet_partition(
      train.all_labels(), 10, 5, 1.0, partition_rng);

  fl::ModelFactory model_factory = [] {
    Rng rng(29);
    return nn::make_lenet5(rng, 3, 20, 10);
  };
  fl::OptimizerFactory optimizer_factory = [](nn::Module& m) {
    return std::make_unique<optim::Adam>(m.parameters(), 1e-3);
  };

  fl::FlConfig config;
  config.num_clients = 5;
  config.rounds = 150;
  config.local_iters = 3;
  config.batch_size = 16;
  config.eval_every = 10;

  auto run = [&](fl::SyncStrategy& strategy) {
    fl::FederatedRunner runner(config, train, partition, test, model_factory,
                               optimizer_factory, strategy);
    return runner.run();
  };

  // The custom layer-granularity schedule...
  auto probe = model_factory();
  LayerFreeze layer_freeze(nn::param_segments(*probe), /*rounds_per_layer=*/25);
  const auto custom = run(layer_freeze);

  // ...versus APF's per-scalar adaptive freezing.
  core::ApfOptions options;
  options.stability_threshold = 0.3;
  options.ema_alpha = 0.8;
  options.check_every_rounds = 2;
  options.controller.additive_step = 4;
  core::ApfManager apf(options);
  const auto adaptive = run(apf);

  TablePrinter table({"Strategy", "Best acc", "Bytes/client", "Avg frozen"});
  table.add_row({"LayerFreeze (custom)",
                 TablePrinter::fmt(custom.best_accuracy, 3),
                 TablePrinter::fmt_bytes(custom.total_bytes_per_client),
                 TablePrinter::fmt_percent(custom.mean_frozen_fraction)});
  table.add_row({"APF (adaptive, per-scalar)",
                 TablePrinter::fmt(adaptive.best_accuracy, 3),
                 TablePrinter::fmt_bytes(adaptive.total_bytes_per_client),
                 TablePrinter::fmt_percent(adaptive.mean_frozen_fraction)});
  table.print();
  std::cout << "\nLayer-granularity freezing is blind to per-scalar "
               "stabilization spread (paper Fig. 3); APF adapts per scalar "
               "and recovers when a frozen parameter needs to move.\n";
  return 0;
}
