// Extension — transport-bus scalability: one federated round over a client
// universe of >= 1,000,000 virtual clients.
//
// The paper's testbed tops out at tens of clients; cross-device FL deploys
// against millions, of which a few hundred are sampled per round. This
// driver shows the frame-level transport layer (docs/TRANSPORT.md) sustains
// that regime in O(model) server memory: the client universe is purely an id
// space, only the sampled participants materialize state (bus links and the
// participation ledger are ordered maps keyed by client id), and the server
// folds arriving push frames into one StreamingAggregator instead of staging
// per-client vectors.
//
// Per round: sample P distinct ids from [0, N), generate each participant's
// synthetic local update deterministically from (id, round), encode in
// parallel chunks on pool lanes, push each chunk serially in ascending id
// (the bus has a single owner), fold the drained frames in ascending id
// order, broadcast the pull frame back, and rebuild every participant from
// it. Everything that matters is asserted or reported:
//
//   - per-round total bytes are measured frame sizes off the bus
//     (bit-identical for any --threads value; CI diffs the JSON),
//   - a deterministic checksum over the post-round global model,
//   - peak queued bytes stay O(chunk window), not O(universe),
//   - aggregator memory stays O(model), independent of fan-in.
//
// Flags (bench/harness.h):
//   --json-dir DIR   directory for BENCH_million_clients.json (default ".")
//   --threads LIST   comma-separated encode thread counts (default: 1,4)
//   --quick          fewer rounds / smaller model for CI smoke runs
#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "core/apf_manager.h"
#include "fl/sync_strategy.h"
#include "harness.h"
#include "transport/bus.h"
#include "transport/frame.h"
#include "transport/network.h"
#include "transport/streaming.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/thread_pool.h"

using namespace apf;

namespace {

constexpr std::uint64_t kClientUniverse = 1u << 20;  // 1,048,576 >= 1e6
constexpr std::size_t kChunk = 128;  // participants encoded per bus window

struct RoundReport {
  std::size_t round = 0;
  transport::ByteCount total_bytes;
  double checksum = 0.0;  // double sum over the post-round global model
  transport::ByteCount peak_queued_bytes;
  std::size_t aggregate_memory_bytes = 0;
  double wall_seconds = 0.0;
};

struct StrategyReport {
  std::string strategy;
  std::size_t threads = 0;
  std::vector<RoundReport> rounds;
  std::size_t touched_clients = 0;  // distinct ids that ever materialized
};

/// Draws `count` distinct client ids from [0, universe) by rejection
/// sampling on the deterministic Rng, returned sorted ascending (the fold
/// order). Same draw recipe as the participation subset in
/// ext_client_sampling, scaled to a universe that can't be shuffled.
std::vector<std::uint64_t> sample_participants(Rng& rng, std::uint64_t universe,
                                               std::size_t count) {
  std::set<std::uint64_t> chosen;
  while (chosen.size() < count) chosen.insert(rng.uniform_int(universe));
  return {chosen.begin(), chosen.end()};
}

/// Deterministic synthetic local update for (client, round): the global
/// model plus a client-seeded perturbation. Half the scalars oscillate
/// round-to-round (so ApfManager freezes them), half drift.
void synth_update(std::uint64_t client, std::size_t round,
                  std::span<const float> global, std::vector<float>& out) {
  Rng rng(0x9E3779B97F4A7C15ULL ^ (client * 0x2545F4914F6CDD1DULL) ^ round);
  out.resize(global.size());
  for (std::size_t j = 0; j < global.size(); ++j) {
    const bool oscillator = j % 2 == 0;
    const float step =
        oscillator ? (round % 2 == 0 ? 0.05f : -0.05f)
                   : 0.01f + 0.001f * rng.uniform_float(0.f, 1.f);
    out[j] = global[j] + step;
  }
}

StrategyReport run_strategy(fl::SyncStrategy& strategy, const char* name,
                            std::size_t threads, std::size_t rounds,
                            std::size_t dim, std::size_t participants_per_round,
                            std::uint64_t seed) {
  // init() never sees the universe as allocated state: strategies size by
  // model dim, and num_clients is only a count.
  std::vector<float> init(dim, 0.f);
  strategy.init(init, kClientUniverse);
  fl::StreamSync* stream = strategy.stream_sync();
  APF_CHECK_MSG(stream != nullptr,
                name << " does not implement StreamSync");

  transport::Bus bus(transport::NetworkModel{});
  util::ThreadPool pool(threads);
  // Participation ledger over the sparse universe: only touched ids own an
  // entry, so its size is O(distinct participants), never O(universe).
  std::map<fl::ClientId, std::uint32_t> last_round_seen;
  Rng sample_rng(seed);

  StrategyReport report;
  report.strategy = name;
  report.threads = threads;

  // The worst-case frame is the dense unmasked model; one encode/drain
  // window can hold at most a chunk of them in either direction.
  const std::size_t max_frame_bytes = dim * sizeof(float) + 64;
  for (std::size_t round = 1; round <= rounds; ++round) {
    const double start = bench::now_seconds();
    const std::vector<std::uint64_t> active =
        sample_participants(sample_rng, kClientUniverse,
                            participants_per_round);
    const double norm_weight =
        1.0 / static_cast<double>(participants_per_round);

    bus.begin_round(fl::RoundId(round));
    stream->begin_fold(fl::RoundId(round));
    // Windowed pipeline: encode a chunk on pool lanes (each lane writes
    // only its own frame slot), push it serially in ascending id, then drain
    // and fold it before the next chunk, so at most one chunk of frames is
    // ever queued.
    std::vector<std::vector<std::uint8_t>> encoded(kChunk);
    for (std::size_t base = 0; base < active.size(); base += kChunk) {
      const std::size_t end = std::min(base + kChunk, active.size());
      pool.parallel_for(end - base, [&](std::size_t slot) {
        const std::uint64_t id = active[base + slot];
        std::vector<float> params;
        synth_update(id, round, strategy.global_params(), params);
        encoded[slot] = stream->encode_push(fl::ClientId(id), params);
      });
      for (std::size_t k = base; k < end; ++k) {
        bus.push(fl::ClientId(active[k]), transport::Frame::Kind::kStrategy,
                 std::move(encoded[k - base]));
      }
      for (transport::Frame& frame : bus.take_pushes()) {
        stream->fold_push(frame.client, frame.payload, norm_weight);
        last_round_seen[frame.client] = static_cast<std::uint32_t>(round);
      }
    }
    const std::vector<std::uint8_t> pull = stream->finish_fold();

    // Broadcast the pull frame to every participant and rebuild each one
    // from its own delivered copy, in the same chunked window.
    double rebuilt_probe = 0.0;
    for (std::size_t base = 0; base < active.size(); base += kChunk) {
      const std::size_t end = std::min(base + kChunk, active.size());
      for (std::size_t k = base; k < end; ++k) {
        bus.deliver(fl::ClientId(active[k]), transport::Frame::Kind::kStrategy, pull);
      }
      for (std::size_t k = base; k < end; ++k) {
        std::vector<float> rebuilt;
        for (transport::Frame& frame : bus.take_pulls(fl::ClientId(active[k]))) {
          stream->apply_pull(frame.payload, rebuilt);
        }
        APF_CHECK(rebuilt.size() == dim);
        rebuilt_probe += static_cast<double>(rebuilt[0]);
      }
    }
    const transport::RoundStats stats = bus.finish_round();
    APF_CHECK(stats.active_links == active.size());

    // O(model) / O(window) assertions: the server never held the universe.
    // The per-round gauge is the right bound — the lifetime peak only ever
    // ratchets up, so it cannot prove anything about THIS round's window.
    APF_CHECK_MSG(bus.round_peak_queued_bytes() <=
                      transport::ByteCount(kChunk * max_frame_bytes),
                  "round peak queued " << bus.round_peak_queued_bytes()
                                       << " exceeds one chunk window");

    RoundReport r;
    r.round = round;
    r.total_bytes = stats.total_bytes;
    double checksum = rebuilt_probe;
    for (const float v : strategy.global_params()) {
      checksum += static_cast<double>(v);
    }
    r.checksum = checksum;
    r.peak_queued_bytes = bus.peak_queued_bytes();
    // The streaming fold holds one double accumulator over the model — the
    // whole server-side aggregation footprint, independent of fan-in.
    r.aggregate_memory_bytes =
        transport::StreamingAggregator(dim).memory_bytes();
    r.wall_seconds = bench::now_seconds() - start;
    report.rounds.push_back(r);
    std::cout << "  " << name << " threads=" << threads << " round=" << round
              << "  bytes=" << std::setprecision(17) << r.total_bytes
              << "  checksum=" << r.checksum << "  peak_queued="
              << r.peak_queued_bytes << "  (" << std::setprecision(3)
              << r.wall_seconds << " s)\n";
  }
  report.touched_clients = last_round_seen.size();
  APF_CHECK(report.touched_clients <= rounds * participants_per_round);
  return report;
}

void write_json(const std::string& path,
                const std::vector<StrategyReport>& reports,
                std::size_t participants_per_round, std::size_t dim) {
  std::ofstream out(path);
  APF_CHECK_MSG(out.good(), "cannot open " << path);
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << "{\n  \"schema\": \"apf-bench-million-clients-v1\",\n"
      << "  \"client_universe\": " << kClientUniverse << ",\n"
      << "  \"participants_per_round\": " << participants_per_round << ",\n"
      << "  \"model_dim\": " << dim << ",\n  \"runs\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const StrategyReport& s = reports[i];
    out << "    {\"strategy\": \"" << s.strategy
        << "\", \"threads\": " << s.threads
        << ", \"touched_clients\": " << s.touched_clients
        << ",\n     \"total_bytes_per_round\": [";
    for (std::size_t j = 0; j < s.rounds.size(); ++j) {
      out << (j ? ", " : "") << s.rounds[j].total_bytes;
    }
    out << "],\n     \"checksum_per_round\": [";
    for (std::size_t j = 0; j < s.rounds.size(); ++j) {
      out << (j ? ", " : "") << s.rounds[j].checksum;
    }
    out << "],\n     \"peak_queued_bytes\": [";
    for (std::size_t j = 0; j < s.rounds.size(); ++j) {
      out << (j ? ", " : "") << s.rounds[j].peak_queued_bytes;
    }
    out << "]}" << (i + 1 < reports.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const auto [json_dir, threads, quick] =
      bench::parse_json_bench_args(argc, argv, {1, 4});
  const std::size_t rounds = quick ? 2 : 3;
  const std::size_t dim = quick ? 1024 : 4096;
  const std::size_t participants = quick ? 512 : 1024;

  std::cout << "=== ext_million_clients: one round over "
            << kClientUniverse << " virtual clients ===\n";
  std::vector<StrategyReport> reports;
  for (const std::size_t t : threads) {
    {
      fl::FullSync fedavg;
      reports.push_back(run_strategy(fedavg, "FedAvg", t, rounds, dim,
                                     participants, /*seed=*/0xC11E47ULL));
    }
    {
      core::ApfOptions opt;
      opt.check_every_rounds = 2;
      core::ApfManager apf(opt);
      reports.push_back(run_strategy(apf, "APF", t, rounds, dim, participants,
                                     /*seed=*/0xC11E47ULL));
    }
  }
  // The encode fan-out must not leak into the measured traffic: every
  // thread count produces byte-identical rounds.
  for (const StrategyReport& s : reports) {
    for (const StrategyReport& other : reports) {
      if (s.strategy != other.strategy) continue;
      for (std::size_t j = 0; j < s.rounds.size(); ++j) {
        APF_CHECK_MSG(s.rounds[j].total_bytes == other.rounds[j].total_bytes &&
                          s.rounds[j].checksum == other.rounds[j].checksum,
                      s.strategy << " round " << j + 1
                                 << " differs across thread counts");
      }
    }
  }
  write_json(json_dir + "/BENCH_million_clients.json", reports,
             participants, dim);
  std::cout << "per-round bytes and checksums are bit-identical across "
               "thread counts; participation state covers "
            << reports.front().touched_clients << " of " << kClientUniverse
            << " ids.\n";
  return 0;
}
