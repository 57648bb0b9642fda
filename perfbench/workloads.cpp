#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "compress/quantized_sync.h"
#include "core/apf_manager.h"
#include "nn/param_vector.h"

namespace apf::perfbench {

namespace {

std::unique_ptr<fl::SyncStrategy> maybe_traced(
    std::unique_ptr<fl::SyncStrategy> strategy, Tracer* tracer, bool nested) {
  if (tracer == nullptr) return strategy;
  return std::make_unique<TracedStrategy>(std::move(strategy), *tracer,
                                          nested);
}

/// The compute-speed distribution of the ext_async_straggler experiment:
/// every fifth client runs 4x slower and client 7 (mod 10) 16x slower.
std::vector<double> straggler_multipliers(std::size_t n) {
  std::vector<double> mult(n, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 10 == 7) {
      mult[i] = 16.0;
    } else if (i % 5 == 3) {
      mult[i] = 4.0;
    }
  }
  return mult;
}

// Learning rates and data sizes are set so that every workload is past the
// steep part of its learning curve when the run ends: final accuracy then
// moves little from seed to seed, and a change that alters the arithmetic
// still shows in it.
bench::TaskOptions task_options(std::uint64_t seed, std::size_t rounds,
                                std::size_t clients, std::size_t local_iters,
                                std::size_t samples_per_client,
                                std::size_t test_samples,
                                std::size_t eval_every, double lr) {
  bench::TaskOptions options;
  options.num_clients = clients;
  options.rounds = rounds;
  options.local_iters = local_iters;
  options.batch_size = 16;
  options.train_samples = clients * samples_per_client;
  options.test_samples = test_samples;
  options.eval_every = eval_every;
  options.lr = lr;
  options.seed = seed;
  return options;
}

std::vector<Workload> make_workloads() {
  std::vector<Workload> workloads;

  // Synchronous rounds under the paper's §7.7 stack, APF under fp16
  // quantization, on a compute-bound model: conv/im2col/matmul forward and
  // backward fill the 4 lanes (4 clients, so the barrier shows load
  // balance), BatchNorm buffers make the runner fold aux frames over the
  // bus, and APF's EMA and freeze check, pin_masked after every step, the
  // masked pack and the fp16 codecs take about a tenth of the round. The
  // traced APF sits inside the traced fp16 wrapper, so APF time and codec
  // time separate.
  Workload resnet;
  resnet.name = "resnet-apfq-train";
  resnet.lanes = 4;
  resnet.nominal_round_s = 0.32;
  resnet.task = [](std::uint64_t seed, std::size_t rounds) {
    return bench::resnet_task(
        task_options(seed, rounds, 4, 5, 500, 1000, rounds, 0.1));
  };
  resnet.strategy = [](Tracer* tracer) {
    return maybe_traced(
        std::make_unique<compress::QuantizedSync>(maybe_traced(
            std::make_unique<core::ApfManager>(bench::default_apf_options()),
            tracer, true)),
        tracer, false);
  };
  workloads.push_back(std::move(resnet));

  // FedBuff-style buffered async: arrival-order folds, carry-over frames on
  // the bus and run_async(), with stragglers so pushes go stale. Evaluates
  // every round, so evaluation is about half the wall time. The model has
  // no convolution and the strategy is plain FedAvg, so conv kernel, APF
  // and codec changes must leave it alone.
  Workload kws;
  kws.name = "kws-lstm-async-eval";
  kws.lanes = 4;
  kws.nominal_round_s = 0.09;
  kws.eval_every_round = true;
  kws.dense = true;
  kws.task = [](std::uint64_t seed, std::size_t rounds) {
    bench::TaskBundle task =
        bench::lstm_task(task_options(seed, rounds, 16, 2, 40, 400, 1, 0.2));
    fl::FlConfig& config = task.config;
    config.aggregation_mode = fl::AggregationMode::kAsyncBuffered;
    config.async_goal_k = 8;
    config.async_timeout_seconds = 8.0;
    config.compute_seconds_per_iter = 0.5;
    config.compute_multiplier = straggler_multipliers(config.num_clients);
    return task;
  };
  kws.strategy = [](Tracer* tracer) {
    return maybe_traced(std::make_unique<fl::FullSync>(), tracer, false);
  };
  workloads.push_back(std::move(kws));

  return workloads;
}

}  // namespace

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> workloads = make_workloads();
  return workloads;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : all_workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::size_t planned_rounds(const Workload& workload, double seconds) {
  const auto steady = std::max<std::size_t>(
      5, static_cast<std::size_t>(
             std::ceil(seconds / workload.nominal_round_s)));
  return 1 + steady + (workload.eval_every_round ? 0 : 1);
}

bool is_steady_round(const Workload& workload, std::size_t round,
                     std::size_t rounds) {
  return round >= 2 && (workload.eval_every_round || round < rounds);
}

RunOutcome run_task(const bench::TaskBundle& task,
                    const StrategyFactory& make_strategy, bool traced,
                    bool first_round_only, std::int64_t build_begin_ns) {
  RunOutcome out;
  out.config = task.config;
  out.build_begin_ns = build_begin_ns;

  std::unique_ptr<Tracer> tracer;
  std::optional<TracedDataset> traced_train;
  const data::Dataset* train = task.train.get();
  fl::ModelFactory model = task.model;
  fl::OptimizerFactory optimizer = task.optimizer;
  if (traced) {
    tracer = std::make_unique<Tracer>();
    traced_train.emplace(*task.train, *tracer);
    train = &*traced_train;
    model = [inner = task.model, t = tracer.get()] {
      return std::make_unique<TracedModule>(inner(), *t);
    };
    optimizer = [inner = task.optimizer, t = tracer.get()](nn::Module& m) {
      return std::make_unique<TracedOptimizer>(inner(m), m, *t);
    };
  }
  const std::unique_ptr<fl::SyncStrategy> strategy =
      make_strategy(tracer.get());

  struct FirstRoundDone {};
  out.round_end_ns.reserve(task.config.rounds);
  fl::FederatedRunner runner(task.config, *train, task.partition, *task.test,
                             model, optimizer, *strategy);
  runner.set_observer([&out, first_round_only](
                          fl::RoundId, std::span<const float>,
                          const std::vector<std::vector<float>>&) {
    out.round_end_ns.push_back(now_ns());
    if (first_round_only) throw FirstRoundDone{};
  });
  out.run_begin_ns = now_ns();
  try {
    out.result = runner.run();
  } catch (const FirstRoundDone&) {
  }
  out.run_end_ns = now_ns();

  const std::unique_ptr<nn::Module> probe = task.model();
  out.model_dim = probe->parameter_count();
  out.buffer_dim = nn::flatten_buffers(*probe).size();
  for (const auto& part : task.partition) {
    out.samples_per_iter.push_back(
        std::min(task.config.batch_size, part.size()));
  }
  if (tracer) out.spans = tracer->spans();
  return out;
}

RunOutcome run_workload(const Workload& workload, std::uint64_t seed,
                        std::size_t rounds, bool traced,
                        bool first_round_only) {
  const std::int64_t build_begin_ns = now_ns();
  bench::TaskBundle task = workload.task(seed, rounds);
  task.config.worker_threads = workload.lanes;
  return run_task(task, workload.strategy, traced, first_round_only,
                  build_begin_ns);
}

}  // namespace apf::perfbench
