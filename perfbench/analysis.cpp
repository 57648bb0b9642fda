#include "analysis.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>
#include <utility>

#include "wire/wire.h"

namespace apf::perfbench {

namespace {

// Every workload has 10 classes, so chance is 0.1.
constexpr double kAccuracyFloor = 0.2;

double seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Total length of the union of `intervals`, clipped to [lo, hi].
std::int64_t union_length(std::vector<std::pair<std::int64_t, std::int64_t>>
                              intervals,
                          std::int64_t lo, std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t total = 0;
  std::int64_t reach = lo;
  for (auto [begin, end] : intervals) {
    begin = std::max(begin, reach);
    end = std::min(end, hi);
    if (end > begin) {
      total += end - begin;
      reach = end;
    }
  }
  return total;
}

bool is_train_call(SpanKind kind) {
  return kind == SpanKind::kTrainForward || kind == SpanKind::kBackward ||
         kind == SpanKind::kStep || kind == SpanKind::kGetBatch;
}

template <typename T>
bool same_bits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

std::uint64_t dense_frame_bytes(std::size_t dim) {
  return wire::encode_dense(std::vector<float>(dim, 0.0f)).size();
}

}  // namespace

std::vector<RoundBreakdown> break_down(const RunOutcome& run) {
  const std::size_t rounds = run.round_end_ns.size();
  std::vector<std::int64_t> bounds{run.run_begin_ns};
  bounds.insert(bounds.end(), run.round_end_ns.begin(),
                run.round_end_ns.end());
  std::uint32_t threads = 0;
  for (const Span& s : run.spans) threads = std::max(threads, s.thread + 1);

  std::vector<RoundBreakdown> out(rounds);
  std::size_t cursor = 0;
  for (std::size_t r = 0; r < rounds; ++r) {
    RoundBreakdown& b = out[r];
    const std::int64_t lo = bounds[r];
    const std::int64_t hi = bounds[r + 1];
    b.wall_s = seconds(hi - lo);

    // The client each lane is training, and the evaluation pass it runs.
    struct Client {
      bool open = false;
      std::int64_t begin = 0;
      std::int64_t last_end = 0;
      std::int64_t in_calls = 0;
    };
    std::vector<Client> client(threads);
    std::vector<std::optional<std::int64_t>> eval_begin(threads);
    std::int64_t train_lo = std::numeric_limits<std::int64_t>::max();
    std::int64_t train_hi = std::numeric_limits<std::int64_t>::min();
    std::int64_t eval_lo = train_lo;
    std::int64_t eval_hi = train_hi;
    std::vector<std::pair<std::int64_t, std::int64_t>> covered;

    auto close_client = [&](std::uint32_t t, std::int64_t end) {
      Client& c = client[t];
      if (!c.open) return;
      c.open = false;
      b.train_busy_s += seconds(end - c.begin);
      b.train_glue_s += seconds(end - c.begin - c.in_calls);
      train_lo = std::min(train_lo, c.begin);
      train_hi = std::max(train_hi, end);
    };

    for (; cursor < run.spans.size() && run.spans[cursor].begin_ns <= hi;
         ++cursor) {
      const Span& s = run.spans[cursor];
      Client& c = client[s.thread];
      const std::int64_t dur = s.end_ns - s.begin_ns;
      if (is_train_call(s.kind) && c.open) {
        c.last_end = std::max(c.last_end, s.end_ns);
        c.in_calls += dur;
      }
      switch (s.kind) {
        case SpanKind::kClientBegin:
          close_client(s.thread, s.begin_ns);
          c = Client{true, s.begin_ns, s.begin_ns, 0};
          break;
        case SpanKind::kTrainForward:
          b.forward_s += seconds(dur);
          b.forward_us.push_back(seconds(dur) * 1e6);
          break;
        case SpanKind::kBackward:
          b.backward_s += seconds(dur);
          b.backward_us.push_back(seconds(dur) * 1e6);
          break;
        case SpanKind::kStep:
          b.step_s += seconds(dur);
          b.step_us.push_back(seconds(dur) * 1e6);
          break;
        case SpanKind::kGetBatch:
          b.get_batch_s += seconds(dur);
          ++b.get_batch_calls;
          break;
        case SpanKind::kEvalForward:
          break;
        case SpanKind::kEvalBegin:
          close_client(s.thread, c.last_end);
          eval_begin[s.thread] = s.begin_ns;
          break;
        case SpanKind::kEvalEnd:
          if (eval_begin[s.thread].has_value()) {
            const std::int64_t begin = *eval_begin[s.thread];
            b.eval_s += seconds(s.end_ns - begin);
            eval_lo = std::min(eval_lo, begin);
            eval_hi = std::max(eval_hi, s.end_ns);
            eval_begin[s.thread].reset();
          }
          break;
        case SpanKind::kStrategy:
          close_client(s.thread, c.last_end);
          b.strategy_s += seconds(dur);
          b.bytes_up += s.bytes_up;
          b.bytes_down += s.bytes_down;
          covered.emplace_back(s.begin_ns, s.end_ns);
          break;
        case SpanKind::kEncodePush:
          close_client(s.thread, c.last_end);
          b.encode_push_s += seconds(dur);
          ++b.encode_push_calls;
          b.bytes_up += s.bytes_up;
          covered.emplace_back(s.begin_ns, s.end_ns);
          break;
        case SpanKind::kInnerStrategy:
          b.inner_strategy_s += seconds(dur);
          break;
      }
    }
    for (std::uint32_t t = 0; t < threads; ++t) {
      close_client(t, client[t].last_end);
    }
    if (train_lo <= train_hi) {
      b.train_wall_s = seconds(train_hi - train_lo);
      covered.emplace_back(train_lo, train_hi);
    }
    if (eval_lo <= eval_hi) {
      b.eval_wall_s = seconds(eval_hi - eval_lo);
      covered.emplace_back(eval_lo, eval_hi);
    }
    b.runner_self_s = seconds(hi - lo - union_length(covered, lo, hi));
  }
  return out;
}

std::uint64_t params_digest(const fl::SimulationResult& result) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* bytes =
      reinterpret_cast<const unsigned char*>(result.final_global_params.data());
  for (std::size_t i = 0; i < result.final_global_params.size() * sizeof(float);
       ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ULL;
  }
  return h;
}

bool same_record(const fl::RoundRecord& a, const fl::RoundRecord& b) {
  return a.round == b.round && a.participants == b.participants &&
         a.staleness == b.staleness &&
         same_bits(a.test_accuracy, b.test_accuracy) &&
         same_bits(a.train_loss, b.train_loss) &&
         same_bits(a.bytes_per_client, b.bytes_per_client) &&
         same_bits(a.cumulative_bytes_per_client,
                   b.cumulative_bytes_per_client) &&
         same_bits(a.bytes_per_participant, b.bytes_per_participant) &&
         same_bits(a.frozen_fraction, b.frozen_fraction) &&
         same_bits(a.round_seconds, b.round_seconds) &&
         same_bits(a.cumulative_seconds, b.cumulative_seconds);
}

std::set<std::size_t> failed_rounds(const Workload& workload,
                                    const RunOutcome& timed,
                                    const RunOutcome* traced,
                                    std::vector<std::string>& reasons) {
  const std::vector<fl::RoundRecord>& a = timed.result.rounds;
  const std::size_t rounds = timed.config.rounds;
  std::size_t first_steady = rounds;
  std::size_t last_steady = 1;
  for (std::size_t r = 1; r <= rounds; ++r) {
    if (is_steady_round(workload, r, rounds)) {
      first_steady = std::min(first_steady, r);
      last_steady = std::max(last_steady, r);
    }
  }
  std::set<std::size_t> failed;
  auto fail = [&](std::size_t round, const std::string& why) {
    failed.insert(std::clamp(round, first_steady, last_steady));
    std::ostringstream line;
    line << "round " << round << ": " << why;
    reasons.push_back(line.str());
  };

  if (a.size() != rounds) {
    fail(last_steady,
         "timed run ended after " + std::to_string(a.size()) + " rounds");
  }
  if (traced != nullptr) {
    const std::vector<fl::RoundRecord>& b = traced->result.rounds;
    if (b.size() != rounds) {
      fail(last_steady,
           "traced run ended after " + std::to_string(b.size()) + " rounds");
    }
    for (std::size_t r = 1; r <= std::min(a.size(), b.size()); ++r) {
      if (!same_record(a[r - 1], b[r - 1])) {
        fail(r, "record differs between the timed and the traced run");
      }
    }
    if (params_digest(timed.result) != params_digest(traced->result)) {
      fail(last_steady, "final parameters differ between the timed and the "
                        "traced run");
    }
  }
  if (!(timed.result.final_accuracy >= kAccuracyFloor)) {
    fail(last_steady, "final accuracy " +
                          std::to_string(timed.result.final_accuracy) +
                          " below floor " + std::to_string(kAccuracyFloor));
  }

  if (workload.dense) {
    // FedAvg moves the full model as one dense frame each way per
    // participant (plus BatchNorm buffers the same way in sync rounds). An
    // async round's joiners are the clients its previous round folded.
    const std::size_t n = timed.config.num_clients;
    const std::uint64_t model_frame = dense_frame_bytes(timed.model_dim);
    const std::uint64_t buffer_frame =
        timed.buffer_dim > 0 ? dense_frame_bytes(timed.buffer_dim) : 0;
    const bool async =
        timed.config.aggregation_mode == fl::AggregationMode::kAsyncBuffered;
    for (std::size_t r = 1; r <= a.size(); ++r) {
      std::uint64_t total = 0;
      if (async) {
        const std::size_t joiners = r == 1 ? n : a[r - 2].participants;
        total = joiners * 2 * model_frame;
      } else {
        total = n * 2 * (model_frame + buffer_frame);
      }
      const double expected =
          static_cast<double>(total) / static_cast<double>(n);
      if (!same_bits(a[r - 1].bytes_per_client, expected)) {
        std::ostringstream why;
        why << "bytes per client " << a[r - 1].bytes_per_client
            << " != dense frame total " << expected;
        fail(r, why.str());
      }
    }
  }
  return failed;
}

}  // namespace apf::perfbench
