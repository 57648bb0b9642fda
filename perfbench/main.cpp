// The repo benchmark: one workload, one seed, one process.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//
// Runs the workload's set-up several times (task build, runner construction
// and round 1), then one timed simulation with tracing off, and with
// --trace 1 one traced simulation of the same task, which must reproduce the
// timed SimulationResult bit for bit. Prints every metric by name and unit,
// then, as the last line, one JSON object: the end-to-end metrics of the
// timed run with --trace 0, the per-layer metrics of the traced run with
// --trace 1.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "analysis.h"
#include "util/thread_pool.h"
#include "workloads.h"

using namespace apf;
using namespace apf::perfbench;

namespace {

// Set-up repetitions before the timed run; with the timed run's own set-up
// they give the median setup_s.
constexpr std::size_t kSetupRepeats = 4;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Linear-interpolated percentile (q in [0, 1]) of `values`.
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double mean(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : std::accumulate(values.begin(), values.end(), 0.0) /
                              static_cast<double>(values.size());
}

std::size_t available_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

/// Confines the calling thread, and every thread it starts afterwards, to
/// the first `lanes` cores it may run on, so the scheduler cannot move a
/// lane onto a core whose private caches are cold.
void confine_to_cores(std::size_t lanes) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  cpu_set_t keep;
  CPU_ZERO(&keep);
  std::size_t kept = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && kept < lanes; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      CPU_SET(cpu, &keep);
      ++kept;
    }
  }
  sched_setaffinity(0, sizeof(keep), &keep);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Wall time of each 1-based round r at index r - 1.
std::vector<double> round_walls(const RunOutcome& run) {
  std::vector<double> walls;
  std::int64_t prev = run.run_begin_ns;
  for (const std::int64_t end : run.round_end_ns) {
    walls.push_back(seconds(end - prev));
    prev = end;
  }
  return walls;
}

/// Samples trained in 1-based `round`: every client in a sync round; in an
/// async round, the clients the previous round folded (they rejoin).
double samples_trained(const RunOutcome& run, std::size_t round) {
  const auto& rounds = run.result.rounds;
  double per_iter = 0.0;
  if (run.config.aggregation_mode == fl::AggregationMode::kAsyncBuffered &&
      round > 1) {
    for (const auto& [client, staleness] : rounds[round - 2].staleness) {
      per_iter += static_cast<double>(
          run.samples_per_iter[static_cast<std::size_t>(client.value())]);
    }
  } else {
    for (const std::size_t s : run.samples_per_iter) {
      per_iter += static_cast<double>(s);
    }
  }
  return per_iter * static_cast<double>(run.config.local_iters);
}

std::vector<Metric> end_to_end(const Workload& workload,
                               const RunOutcome& timed,
                               const std::vector<double>& setup_s,
                               double rss_mb, std::size_t& samples) {
  const std::vector<double> walls = round_walls(timed);
  std::vector<double> steady;
  double steady_sum = 0.0, trained = 0.0;
  for (std::size_t r = 1; r <= walls.size(); ++r) {
    if (!is_steady_round(workload, r, timed.config.rounds)) continue;
    steady.push_back(walls[r - 1]);
    steady_sum += walls[r - 1];
    trained += samples_trained(timed, r);
  }
  samples = steady.size();
  const fl::SimulationResult& res = timed.result;
  return {
      {"setup_s", percentile(setup_s, 0.5), "s"},
      {"round_s_p50", percentile(steady, 0.5), "s"},
      {"round_s_p90", percentile(steady, 0.9), "s"},
      {"rounds_per_s", static_cast<double>(steady.size()) / steady_sum, "1/s"},
      {"train_samples_per_s", trained / steady_sum, "samples/s"},
      {"peak_rss_mb", rss_mb, "MB"},
      {"sim_bytes_per_client", res.total_bytes_per_client, "bytes"},
      {"sim_seconds", res.total_seconds, "sim_s"},
      {"final_accuracy", res.final_accuracy, "fraction"},
  };
}

std::vector<Metric> per_layer(const Workload& workload,
                              const RunOutcome& timed,
                              const RunOutcome& traced) {
  const std::vector<RoundBreakdown> rounds = break_down(traced);
  const std::size_t total_rounds = traced.config.rounds;
  const bool async = traced.config.aggregation_mode ==
                     fl::AggregationMode::kAsyncBuffered;
  const auto n = static_cast<double>(traced.config.num_clients);
  const auto lanes = static_cast<double>(workload.lanes);

  std::vector<double> fwd, bwd, step, get_batch, get_batch_calls, glue,
      sync, inner, encode, encode_calls, eval, eval_wall, self, up, down,
      frozen, folds;
  std::vector<double> fwd_us, bwd_us, step_us, staleness;
  double busy = 0.0, lane_time = 0.0;
  for (std::size_t r = 1; r <= rounds.size(); ++r) {
    if (!is_steady_round(workload, r, total_rounds)) continue;
    const RoundBreakdown& b = rounds[r - 1];
    const fl::RoundRecord& rec = traced.result.rounds[r - 1];
    fwd.push_back(b.forward_s);
    bwd.push_back(b.backward_s);
    step.push_back(b.step_s);
    get_batch.push_back(b.get_batch_s);
    get_batch_calls.push_back(static_cast<double>(b.get_batch_calls));
    glue.push_back(b.train_glue_s);
    busy += b.train_busy_s;
    lane_time += lanes * b.train_wall_s;
    sync.push_back(b.strategy_s);
    inner.push_back(b.inner_strategy_s);
    encode.push_back(b.encode_push_s);
    encode_calls.push_back(static_cast<double>(b.encode_push_calls));
    eval.push_back(b.eval_s);
    eval_wall.push_back(b.eval_wall_s);
    self.push_back(b.runner_self_s);
    up.push_back(static_cast<double>(b.bytes_up));
    // Async pulls are the runner's dense frames, not strategy spans: they
    // are the rest of the round's measured traffic.
    down.push_back(async ? rec.bytes_per_client * n -
                               static_cast<double>(b.bytes_up)
                         : static_cast<double>(b.bytes_down));
    frozen.push_back(rec.frozen_fraction);
    folds.push_back(async ? static_cast<double>(rec.participants) : 0.0);
    for (const auto& [client, s] : rec.staleness) {
      staleness.push_back(static_cast<double>(s));
    }
    fwd_us.insert(fwd_us.end(), b.forward_us.begin(), b.forward_us.end());
    bwd_us.insert(bwd_us.end(), b.backward_us.begin(), b.backward_us.end());
    step_us.insert(step_us.end(), b.step_us.begin(), b.step_us.end());
  }
  const bool nested = mean(inner) > 0.0;
  const double timed_wall = seconds(timed.run_end_ns - timed.run_begin_ns);
  const double traced_wall = seconds(traced.run_end_ns - traced.run_begin_ns);
  return {
      {"nn.forward_s", mean(fwd), "s"},
      {"nn.forward_call_us_p50", percentile(fwd_us, 0.5), "us"},
      {"nn.backward_s", mean(bwd), "s"},
      {"nn.backward_call_us_p50", percentile(bwd_us, 0.5), "us"},
      {"optim.step_s", mean(step), "s"},
      {"optim.step_call_us_p50", percentile(step_us, 0.5), "us"},
      {"data.get_batch_s", mean(get_batch), "s"},
      {"data.get_batch_calls", mean(get_batch_calls), "count"},
      {"fl.train_glue_s", mean(glue), "s"},
      {"fl.train_lane_util", lane_time > 0.0 ? busy / lane_time : 0.0,
       "fraction"},
      {"strategy.sync_s", mean(sync), "s"},
      {"core.apf.sync_s", mean(inner), "s"},
      {"compress.quantize_self_s", nested ? mean(sync) - mean(inner) : 0.0,
       "s"},
      {"strategy.encode_push_s", mean(encode), "s"},
      {"strategy.encode_push_calls", mean(encode_calls), "count"},
      {"fl.eval_s", mean(eval), "s"},
      {"fl.eval_wall_s", mean(eval_wall), "s"},
      {"fl.runner_self_s", mean(self), "s"},
      {"fl.first_round_s", rounds.empty() ? 0.0 : rounds[0].wall_s, "s"},
      {"wire.bytes_up_per_round", mean(up), "bytes"},
      {"wire.bytes_down_per_round", mean(down), "bytes"},
      {"core.frozen_fraction", mean(frozen), "fraction"},
      {"transport.async_folds_per_round", mean(folds), "count"},
      {"transport.async_staleness_mean", mean(staleness), "count"},
      {"trace.overhead_frac", traced_wall / timed_wall - 1.0, "fraction"},
  };
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void print_result_json(bool correct, std::size_t attempted,
                       std::size_t failed,
                       const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1\n"
               "workloads:",
               argv0);
  for (const Workload& w : all_workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

/// Installs the benchmark's compute pool and restores the default on exit.
class ComputePoolScope {
 public:
  explicit ComputePoolScope(util::ThreadPool& pool) {
    util::set_compute_pool(&pool);
  }
  ~ComputePoolScope() { util::set_compute_pool(nullptr); }
  ComputePoolScope(const ComputePoolScope&) = delete;
  ComputePoolScope& operator=(const ComputePoolScope&) = delete;
};

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  long long seed = -1;
  double run_seconds = -1.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        name = value;
      } else if (flag == "--seed") {
        seed = std::stoll(value);
      } else if (flag == "--seconds") {
        run_seconds = std::stod(value);
      } else if (flag == "--trace") {
        trace = std::stoi(value);
      } else {
        return usage(argv[0]);
      }
    } catch (const std::exception&) {
      return usage(argv[0]);
    }
  }
  const Workload* workload = find_workload(name);
  if (argc % 2 == 0 || workload == nullptr || seed < 0 ||
      !(run_seconds > 0.0 && run_seconds <= 600.0) ||
      (trace != 0 && trace != 1)) {
    return usage(argv[0]);
  }
  const std::size_t cores = available_cores();
  if (workload->lanes > cores) {
    std::fprintf(stderr,
                 "%s needs %zu lanes but only %zu cores are available\n",
                 workload->name.c_str(), workload->lanes, cores);
    return 2;
  }

  // Every thread the benchmark can spawn: the runner's pool of `lanes`
  // lanes, and a compute pool of the same size for kernels called off-lane
  // (otherwise ThreadPool::global() would start one per hardware core), all
  // on `lanes` cores.
  confine_to_cores(workload->lanes);
  util::ThreadPool compute(workload->lanes);
  const ComputePoolScope pool_scope(compute);

  const std::size_t rounds = planned_rounds(*workload, run_seconds);
  std::size_t attempted = 0;
  for (std::size_t r = 1; r <= rounds; ++r) {
    attempted += is_steady_round(*workload, r, rounds) ? 1 : 0;
  }
  std::printf("workload %s  seed %lld  rounds %zu  lanes %zu\n",
              workload->name.c_str(), seed, rounds, workload->lanes);
  try {
    const auto s = static_cast<std::uint64_t>(seed);
    std::vector<double> setup_s;
    for (std::size_t k = 0; k < kSetupRepeats; ++k) {
      const RunOutcome o = run_workload(*workload, s, rounds, false, true);
      setup_s.push_back(seconds(o.round_end_ns.at(0) - o.build_begin_ns));
    }
    const RunOutcome timed = run_workload(*workload, s, rounds, false);
    setup_s.push_back(seconds(timed.round_end_ns.at(0) - timed.build_begin_ns));
    const double rss_mb = peak_rss_mb();
    std::optional<RunOutcome> traced;
    if (trace == 1) traced = run_workload(*workload, s, rounds, true);

    std::vector<std::string> reasons;
    const std::set<std::size_t> failed = failed_rounds(
        *workload, timed, traced ? &*traced : nullptr, reasons);
    for (const std::string& why : reasons) {
      std::fprintf(stderr, "FAIL %s\n", why.c_str());
    }
    std::size_t samples = 0;
    const std::vector<Metric> e2e =
        end_to_end(*workload, timed, setup_s, rss_mb, samples);
    std::printf("steady rounds: %zu samples (round 1%s excluded); setup: "
                "%zu samples\n",
                samples,
                workload->eval_every_round ? "" : " and the final eval round",
                setup_s.size());
    print_metrics("end to end (tracing off)", e2e);
    if (!traced) {
      print_result_json(failed.empty(), attempted, failed.size(), e2e);
      return 0;
    }
    const std::vector<Metric> layers = per_layer(*workload, timed, *traced);
    print_metrics("per layer, per steady round (traced run)", layers);
    print_result_json(failed.empty(), attempted, failed.size(), layers);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run failed: %s\n", e.what());
    print_result_json(false, attempted, attempted, {});
  }
  return 0;
}
