// Table 4 — Computation and memory overhead of APF itself.
//
// At each paper model's parameter count, times a round of plain FedAvg
// aggregation, an APF round (aggregation masking, EMA statistics,
// controller update, mask rebuild), a stability-check-only round, and one
// training step (forward and backward on a batch of 16) of the model
// itself, with the shared timer of bench/harness.h. APF checks stability
// every kCheckEvery rounds, so one timed APF call runs that many rounds and
// the APF row reports their mean. It prints
//
//   compute inflation = (APF round - FedAvg round)
//                       / (kLocalIters x training step),
//   memory ratio      = APF state bytes / model bytes.
//
// The paper reports <5% compute inflation and 0.2-8.5% memory inflation;
// its memory base is the whole training process, not the model alone.
#include <functional>
#include <iostream>
#include <vector>

#include "core/apf_manager.h"
#include "fl/sync_strategy.h"
#include "harness.h"
#include "nn/models.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace apf;

namespace {

// Local iterations per synchronization round: the training compute one
// round of APF bookkeeping is spread over.
constexpr double kLocalIters = 10;
constexpr std::size_t kCheckEvery = 5;
constexpr std::size_t kClients = 5;
constexpr std::size_t kBatch = 16;
constexpr std::size_t kClasses = 10;

std::vector<std::vector<float>> make_clients(std::size_t dim, std::size_t n,
                                             Rng& rng) {
  std::vector<std::vector<float>> clients(n, std::vector<float>(dim));
  for (auto& c : clients) {
    for (auto& v : c) v = rng.uniform_float(-0.1f, 0.1f);
  }
  return clients;
}

// Runs `rounds_per_call` rounds of one strategy per call, feeding it the
// same client vectors every round.
struct RoundDriver {
  RoundDriver(fl::SyncStrategy& s, std::size_t dim, std::size_t clients,
              std::size_t rounds, Rng& rng)
      : strategy(s),
        rounds_per_call(rounds),
        params(make_clients(dim, clients, rng)),
        weights(clients, 1.0) {
    strategy.init(std::vector<float>(dim, 0.f), clients);
  }
  float operator()() {
    for (std::size_t i = 0; i < rounds_per_call; ++i) {
      strategy.synchronize(fl::RoundId(++round), params, weights);
    }
    return params[0][0];
  }
  fl::SyncStrategy& strategy;
  std::size_t rounds_per_call;
  std::vector<std::vector<float>> params;
  std::vector<double> weights;
  std::size_t round = 0;
};

void add_row(const char* name, nn::Module& net, const Tensor& input,
             TablePrinter& table) {
  const std::size_t dim = net.parameter_count();
  Rng rng(1);
  fl::FullSync fedavg;
  core::ApfOptions options;
  options.check_every_rounds = kCheckEvery;
  core::ApfManager apf(options);
  core::ApfOptions check_options;
  check_options.check_every_rounds = 1;  // check on every synchronize
  core::ApfManager check_only(check_options);
  RoundDriver fedavg_round(fedavg, dim, kClients, 1, rng);
  RoundDriver apf_rounds(apf, dim, kClients, kCheckEvery, rng);
  // Isolates the stability-check path (EMA fold + controller + mask).
  RoundDriver check_round(check_only, dim, 1, 1, rng);
  const Tensor logits_grad({kBatch, kClasses}, 0.1f);
  const auto train_step = [&] {
    net.zero_grad();
    net.forward(input);
    return net.backward(logits_grad)[0];
  };
  // A ResNet-18 call takes seconds: one timed call after the warm-up keeps
  // the bench short.
  const std::size_t reps = dim > 1'000'000 ? 1 : 21;
  std::vector<double> s = bench::median_seconds(
      {std::ref(fedavg_round), std::ref(apf_rounds), std::ref(check_round),
       train_step},
      reps);
  s[1] /= kCheckEvery;
  // APF per-scalar state: EMA E + A (4 B each), delta accumulator (4 B),
  // period + remaining (4 B each) and three bitmaps (3 bits).
  const double state_bytes = static_cast<double>(dim) * (4 + 4 + 4 + 4 + 4) +
                             3.0 * static_cast<double>(dim) / 8.0;
  const double model_bytes = 4.0 * static_cast<double>(dim);
  const auto ms = [](double seconds) {
    return TablePrinter::fmt(1e3 * seconds, 3);
  };
  table.add_row({name, std::to_string(dim), ms(s[0]), ms(s[1]),
                 ms(s[2]), ms(s[3]), TablePrinter::fmt_bytes(state_bytes),
                 TablePrinter::fmt_bytes(model_bytes),
                 TablePrinter::fmt_percent((s[1] - s[0]) / (kLocalIters * s[3]),
                                           2),
                 TablePrinter::fmt(state_bytes / model_bytes, 3) + "x"});
}

}  // namespace

int main() {
  std::cout << "=== Table 4: computation and memory overhead of APF ===\n";
  Rng rng(6);
  // Every row runs on one lane, as one client's device would.
  util::ThreadPool lane(1);
  const util::ScopedComputePool lane_scope(lane);
  TablePrinter table({"model", "dim", "FedAvg round ms", "APF round ms",
                      "check-only round ms", "train step ms", "APF state",
                      "model", "compute inflation", "APF state / model"});
  // The paper's models: LeNet-5 on 3x32x32 images (62,006 scalars), the
  // 2x64 KWS LSTM on the LSTM task's 16 steps of 8 features (52,362), and
  // ResNet-18 at base width 64 (11,173,962); 10 classes each.
  add_row("LeNet-5", *nn::make_lenet5(rng, 3, 32, kClasses),
          Tensor::uniform({kBatch, 3, 32, 32}, rng), table);
  add_row("LSTM", *nn::make_kws_lstm(rng, 8, 64, kClasses),
          Tensor::uniform({kBatch, 16, 8}, rng), table);
  add_row("ResNet-18", *nn::make_resnet18(rng, 3, kClasses, 64),
          Tensor::uniform({kBatch, 3, 32, 32}, rng), table);
  table.print();
  std::cout << "(compute inflation: APF's extra round time over FedAvg per "
            << kLocalIters << " local training steps of batch " << kBatch
            << "; paper: <5%. APF state is 20 B + 3 bits per scalar; the "
               "paper's 0.2-8.5% memory inflation is against the whole "
               "training process, not the model alone)\n";
  return 0;
}
