#include "fuzz/targets.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "fuzz/coverage.h"
#include "fuzz/invariant.h"
#include "fuzz/mutator.h"
#include "fuzz/round_script.h"
#include "nn/models.h"
#include "nn/serialize.h"
#include "util/bitmap.h"
#include "util/bytes.h"
#include "util/error.h"
#include "util/thread_pool.h"
#include "wire/masked.h"
#include "wire/quantize.h"
#include "wire/wire.h"

namespace apf::fuzz {

namespace {

std::vector<float> random_floats(Rng& rng, std::size_t n) {
  std::vector<float> out(n);
  for (auto& v : out) v = rng.uniform_float(-2.f, 2.f);
  return out;
}

// ---------------------------------------------------------------------------
// masked — framed masked update ("APM1", wire/masked)
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> gen_masked(Rng& rng) {
  const std::size_t dim = rng.uniform_int(std::uint64_t{96});
  Bitmap mask(dim, false);
  for (std::size_t j = 0; j < dim; ++j) {
    if (rng.bernoulli(0.4)) mask.set(j, true);
  }
  const std::vector<float> full = random_floats(rng, dim);
  return wire::encode_masked_update(full, mask);
}

std::uint64_t exec_masked(std::span<const std::uint8_t> bytes) {
  const wire::MaskedUpdate update = wire::decode_masked_update(bytes);
  require_invariant(
      update.payload.size() ==
          update.frozen_mask.size() - update.frozen_mask.count(),
      "masked payload size disagrees with mask");
  // Rebuild a full vector with the payload scattered into the clear bits;
  // re-framing it must reproduce the input exactly.
  std::vector<float> full(update.frozen_mask.size(), 0.f);
  wire::unpack_unfrozen(update.payload, update.frozen_mask, full);
  const auto round_trip = wire::encode_masked_update(full, update.frozen_mask);
  require_invariant(std::ranges::equal(round_trip, bytes),
                    "masked update re-encode drifted");
  return hash_floats(update.payload);
}

// ---------------------------------------------------------------------------
// bitmap — Bitmap::from_bytes under a [size u32 | bytes] framing
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> gen_bitmap(Rng& rng) {
  const std::size_t bits = rng.uniform_int(std::uint64_t{257});
  Bitmap bitmap(bits, false);
  for (std::size_t j = 0; j < bits; ++j) {
    if (rng.bernoulli(0.5)) bitmap.set(j, true);
  }
  ByteWriter writer;
  writer.u32(static_cast<std::uint32_t>(bits));
  writer.raw(bitmap.to_bytes());
  return writer.take();
}

std::uint64_t exec_bitmap(std::span<const std::uint8_t> bytes) {
  ByteReader reader(bytes, "bitmap frame");
  const std::uint32_t bits = reader.u32();
  // Validate the byte count BEFORE materializing the payload vector, so a
  // lying size field cannot drive a huge allocation.
  reader.require((static_cast<std::size_t>(bits) + 7) / 8);
  const auto payload = reader.raw(reader.remaining());
  const Bitmap bitmap = Bitmap::from_bytes(
      bits, std::vector<std::uint8_t>(payload.begin(), payload.end()));
  require_invariant(bitmap.size() == bits, "bitmap size drifted");
  require_invariant(bitmap.count() <= bits, "bitmap count exceeds size");
  const auto round_trip = bitmap.to_bytes();
  require_invariant(std::ranges::equal(round_trip, payload),
                    "bitmap re-encode drifted");
  return fnv1a(kFnvOffset, round_trip);
}

// ---------------------------------------------------------------------------
// compress wire formats
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> gen_sparse(Rng& rng) {
  wire::SparsePayload payload;
  payload.dim = static_cast<std::uint32_t>(rng.uniform_int(std::uint64_t{128}));
  for (std::uint32_t j = 0; j < payload.dim; ++j) {
    if (rng.bernoulli(0.25)) {
      payload.indices.push_back(j);
      payload.values.push_back(rng.uniform_float(-2.f, 2.f));
    }
  }
  return wire::encode_sparse(payload);
}

std::uint64_t exec_sparse(std::span<const std::uint8_t> bytes) {
  const wire::SparsePayload payload = wire::decode_sparse(bytes);
  const auto round_trip = wire::encode_sparse(payload);
  require_invariant(std::ranges::equal(round_trip, bytes),
                    "sparse re-encode drifted");
  return hash_floats(payload.values);
}

std::vector<std::uint8_t> gen_randk(Rng& rng) {
  wire::RandkPayload payload;
  payload.dim = static_cast<std::uint32_t>(
      1 + rng.uniform_int(std::uint64_t{128}));
  payload.count = static_cast<std::uint32_t>(
      rng.uniform_int(std::uint64_t{payload.dim} + 1));
  payload.seed = rng.next_u64();
  payload.scale = rng.uniform_float(0.1f, 10.f);
  payload.values = random_floats(rng, payload.count);
  return wire::encode_randk(payload);
}

std::uint64_t exec_randk(std::span<const std::uint8_t> bytes) {
  const wire::RandkPayload payload = wire::decode_randk(bytes);
  const auto round_trip = wire::encode_randk(payload);
  require_invariant(std::ranges::equal(round_trip, bytes),
                    "randk re-encode drifted");
  return fnv1a_u64(hash_floats(payload.values), payload.seed);
}

std::vector<std::uint8_t> gen_fp16(Rng& rng) {
  const std::vector<float> values =
      random_floats(rng, rng.uniform_int(std::uint64_t{128}));
  return wire::encode_fp16_payload(values);
}

std::uint64_t exec_fp16(std::span<const std::uint8_t> bytes) {
  const std::vector<float> values = wire::decode_fp16_payload(bytes);
  // half -> float -> half is the identity except that NaNs may carry any
  // payload on the wire; re-encoding canonicalizes them. So compare half by
  // half, accepting (NaN in, NaN out) pairs.
  ByteReader reader(bytes, "fp16 frame");
  reader.u32();  // tag, already validated by the decoder
  const std::uint32_t count = reader.u32();
  require_invariant(count == values.size(), "fp16 count drifted");
  for (std::uint32_t j = 0; j < count; ++j) {
    const std::uint16_t in = reader.u16();
    const std::uint16_t out = wire::float_to_half(values[j]);
    const bool in_nan = (in & 0x7C00u) == 0x7C00u && (in & 0x3FFu) != 0;
    const bool out_nan = (out & 0x7C00u) == 0x7C00u && (out & 0x3FFu) != 0;
    require_invariant(in == out || (in_nan && out_nan),
                      "fp16 re-encode drifted");
  }
  return hash_floats(values);
}

std::vector<std::uint8_t> gen_dense(Rng& rng) {
  return wire::encode_dense(
      random_floats(rng, rng.uniform_int(std::uint64_t{128})));
}

std::uint64_t exec_dense(std::span<const std::uint8_t> bytes) {
  const std::vector<float> values = wire::decode_dense(bytes);
  const auto round_trip = wire::encode_dense(values);
  require_invariant(std::ranges::equal(round_trip, bytes),
                    "dense re-encode drifted");
  return hash_floats(values);
}

std::vector<std::uint8_t> gen_qsgd(Rng& rng) {
  const unsigned bits =
      static_cast<unsigned>(1 + rng.uniform_int(std::uint64_t{8}));
  const std::vector<float> update =
      random_floats(rng, rng.uniform_int(std::uint64_t{96}));
  return wire::encode_qsgd(wire::qsgd_quantize(update, bits, rng));
}

std::uint64_t exec_qsgd(std::span<const std::uint8_t> bytes) {
  const wire::QsgdPayload payload = wire::decode_qsgd(bytes);
  const auto round_trip = wire::encode_qsgd(payload);
  require_invariant(std::ranges::equal(round_trip, bytes),
                    "qsgd re-encode drifted");
  const std::vector<float> values = wire::qsgd_dequantize(payload);
  for (const float v : values) {
    require_invariant(std::isfinite(v), "qsgd dequantized to non-finite");
  }
  return hash_floats(values);
}

std::vector<std::uint8_t> gen_terngrad(Rng& rng) {
  const std::vector<float> update =
      random_floats(rng, rng.uniform_int(std::uint64_t{96}));
  return wire::encode_terngrad(wire::terngrad_quantize(update, rng));
}

std::uint64_t exec_terngrad(std::span<const std::uint8_t> bytes) {
  const wire::TernPayload payload = wire::decode_terngrad(bytes);
  const auto round_trip = wire::encode_terngrad(payload);
  require_invariant(std::ranges::equal(round_trip, bytes),
                    "terngrad re-encode drifted");
  const std::vector<float> values = wire::terngrad_dequantize(payload);
  for (const float v : values) {
    require_invariant(
        v == 0.f || v == payload.scale || v == -payload.scale,
        "terngrad dequantized off the ternary grid");
  }
  return hash_floats(values);
}

// ---------------------------------------------------------------------------
// checkpoint — nn/serialize load path on a small fixed-architecture MLP
// ---------------------------------------------------------------------------

std::unique_ptr<nn::Sequential> checkpoint_model() {
  Rng rng(0xC0FFEEULL);  // fixed: the architecture is part of the target
  return nn::make_mlp(rng, /*in_features=*/4, /*width=*/8, /*hidden=*/1,
                      /*num_classes=*/3);
}

std::vector<std::uint8_t> gen_checkpoint(Rng& rng) {
  auto model = checkpoint_model();
  // Randomize the weights so payload bytes vary between seed inputs.
  for (const auto& p : model->parameters()) {
    float* data = p.param->value.raw();
    for (std::size_t j = 0; j < p.param->value.numel(); ++j) {
      data[j] = rng.uniform_float(-1.f, 1.f);
    }
  }
  std::ostringstream os(std::ios::binary);
  nn::save_checkpoint(*model, os);
  const std::string s = os.str();
  return {s.begin(), s.end()};
}

std::uint64_t exec_checkpoint(std::span<const std::uint8_t> bytes) {
  auto model = checkpoint_model();
  std::istringstream is(
      std::string(reinterpret_cast<const char*>(bytes.data()), bytes.size()),
      std::ios::binary);
  nn::load_checkpoint(*model, is);
  // Accepted checkpoints must re-serialize byte-for-byte.
  std::ostringstream os(std::ios::binary);
  nn::save_checkpoint(*model, os);
  const std::string round_trip = os.str();
  require_invariant(round_trip.size() == bytes.size() &&
                        std::memcmp(round_trip.data(), bytes.data(),
                                    bytes.size()) == 0,
                    "checkpoint re-save drifted");
  return hash_bytes(bytes);
}

// ---------------------------------------------------------------------------
// Registry + driver
// ---------------------------------------------------------------------------

constexpr FuzzTarget kTargets[] = {
    {"masked", "wire/masked framed masked update (APM1)", gen_masked,
     exec_masked},
    {"bitmap", "util/bitmap Bitmap::from_bytes", gen_bitmap, exec_bitmap},
    {"sparse", "wire/wire sparse index/value payload (APS1)", gen_sparse,
     exec_sparse},
    {"randk", "wire/wire rand-k payload (APR1)", gen_randk, exec_randk},
    {"fp16", "wire/wire half-precision payload (APH1)", gen_fp16,
     exec_fp16},
    {"dense", "wire/wire dense fp32 payload (APD1)", gen_dense,
     exec_dense},
    {"qsgd", "wire/wire QSGD packed payload (APQ1)", gen_qsgd, exec_qsgd},
    {"terngrad", "wire/wire TernGrad packed payload (APT1)", gen_terngrad,
     exec_terngrad},
    {"checkpoint", "nn/serialize load_checkpoint stream", gen_checkpoint,
     exec_checkpoint},
    {"apf-rounds",
     "stateful: round script vs ApfManager (APF/APF#/APF++) under the "
     "two-outcome oracle",
     generate_round_script, run_apf_rounds},
    {"strawman-rounds",
     "stateful: round script vs FullSync/PartialSync/PermanentFreeze under "
     "the two-outcome oracle",
     generate_round_script, run_strawman_rounds},
    {"compress-rounds",
     "stateful: round script vs TopK/Gaia/RandK/CMFL under the two-outcome "
     "oracle (measured wire bytes)",
     generate_round_script, run_compress_rounds},
    {"runner-rounds",
     "stateful: round script vs a small FederatedRunner simulation "
     "(accounting, determinism, admission control)",
     generate_round_script, run_runner_rounds},
    {"update-quant-rounds",
     "stateful: round script vs UpdateQuantizedSync (QSGD/TernGrad) over "
     "FullSync or APF (measured frame bytes, atomic rejection)",
     generate_round_script, run_update_quant_rounds},
    {"async-rounds",
     "stateful: round script vs BufferedAggregator over the carry-over bus "
     "(arrival-order folds, staleness discounts, atomic rejection)",
     generate_round_script, run_async_rounds},
};

}  // namespace

std::span<const FuzzTarget> all_targets() { return kTargets; }

const FuzzTarget* find_target(std::string_view name) {
  for (const auto& target : kTargets) {
    if (name == target.name) return &target;
  }
  return nullptr;
}

FuzzSummary run_fuzz(const FuzzTarget& target, std::uint64_t seed,
                     std::uint64_t iters, const FuzzOptions& options) {
  // Mix the target name into the seed so `--target all` runs distinct
  // streams per target from one CLI seed.
  std::uint64_t state = seed ^ fnv1a(
      kFnvOffset,
      {reinterpret_cast<const std::uint8_t*>(target.name),
       std::strlen(target.name)});
  Rng rng(splitmix64(state));

  // Coverage records only the collecting thread, so every call the run
  // makes stays on it: strategy codec work would otherwise fan out over the
  // compute pool, and the edges of the chunks other lanes ran would be lost.
  util::ThreadPool one_lane(1);
  const util::ScopedComputePool scope(one_lane);

  FuzzSummary summary;

  // Probe whether this binary carries -fsanitize-coverage=trace-pc by
  // collecting edges over one generate() call with a throwaway stream. The
  // probe runs once per run_fuzz call (not once per process) so the summary
  // stays a pure function of the arguments no matter what ran before.
  Rng probe_rng(splitmix64(state));
  coverage_begin();
  (void)target.generate(probe_rng);
  const bool instrumented = !coverage_take().empty();

  // Corpus pool: seeded with one valid input; grown by coverage feedback.
  // Slot 0 (the structure-aware seed) is never evicted; later admissions
  // rotate through the remaining slots so the pool stays bounded while
  // recent coverage-opening inputs stick around to be mutated and crossed.
  constexpr std::size_t kPoolCap = 64;
  std::vector<std::vector<std::uint8_t>> pool;
  pool.push_back(target.generate(rng));
  std::vector<std::uint64_t> seen_edges;  // sorted, unique; this run only
  std::size_t fallback_slot = 0;

  const auto pool_pick = [&]() -> const std::vector<std::uint8_t>& {
    return pool[rng.uniform_int(pool.size())];
  };

  for (std::uint64_t iter = 0; iter < iters; ++iter) {
    std::vector<std::uint8_t> buf;
    switch (rng.uniform_int(std::uint64_t{6})) {
      case 0:  // fresh valid encoding (exercises the accept path)
        buf = target.generate(rng);
        break;
      case 1:  // structure-aware: mutate a fresh valid encoding
        buf = mutate(rng, target.generate(rng), options.max_len);
        break;
      case 2:  // mutate a corpus member
        buf = mutate(rng, pool_pick(), options.max_len);
        break;
      case 3:  // crossover of two corpus members
        buf = crossover(rng, pool_pick(), pool_pick(), options.max_len);
        break;
      case 4:  // crossover of a corpus member with a fresh valid encoding
        buf = crossover(rng, pool_pick(), target.generate(rng),
                        options.max_len);
        break;
      default:  // structure-blind random bytes
        buf = random_buffer(rng, options.max_len);
        break;
    }
    if (!options.dump_last_path.empty()) {
      std::ofstream dump(std::string(options.dump_last_path),
                         std::ios::binary | std::ios::trunc);
      dump.write(reinterpret_cast<const char*>(buf.data()),
                 static_cast<std::streamsize>(buf.size()));
    }
    ++summary.iterations;
    bool accepted = false;
    // Unconditional begin/take (a cheap no-op when uninstrumented) keeps the
    // collector-role acquire/release balanced on every path the thread
    // safety analysis can see; `instrumented` only gates what the edge set
    // is used for.
    coverage_begin();
    try {
      const std::uint64_t result = target.execute(buf);
      accepted = true;
      ++summary.accepted;
      summary.digest = fnv1a_u64(fnv1a(summary.digest ^ 'A', buf), result);
    } catch (const Error&) {
      // Malformed input rejected with apf::Error: the expected outcome.
      ++summary.rejected;
      summary.digest = fnv1a(summary.digest ^ 'R', buf);
    }
    // Anything else (std::logic_error from a violated two-outcome oracle or
    // round-trip invariant, std::bad_alloc from an unchecked length field,
    // sanitizer aborts) propagates: a finding. Note coverage_take() is not
    // reached then — fine, the run is over.

    bool interesting = false;
    const std::vector<std::uint64_t> edges = coverage_take();
    if (instrumented) {
      for (const std::uint64_t e : edges) {
        const auto it =
            std::lower_bound(seen_edges.begin(), seen_edges.end(), e);
        if (it == seen_edges.end() || *it != e) {
          seen_edges.insert(it, e);
          interesting = true;
        }
      }
    } else {
      // Uninstrumented fallback: keep a small rotation of accepted inputs so
      // mutation/crossover still start from structurally valid parents.
      interesting = accepted && (fallback_slot++ % 8) == 0;
    }
    if (interesting) {
      ++summary.corpus_added;
      if (pool.size() < kPoolCap) {
        pool.push_back(std::move(buf));
      } else {
        pool[1 + summary.corpus_added % (kPoolCap - 1)] = std::move(buf);
      }
    }
  }
  summary.corpus_size = pool.size();
  summary.edges = seen_edges.size();
  return summary;
}

ReplayOutcome replay_buffer(const FuzzTarget& target,
                            std::span<const std::uint8_t> bytes) {
  try {
    target.execute(bytes);
    return ReplayOutcome::kAccepted;
  } catch (const Error&) {
    return ReplayOutcome::kRejected;
  }
}

namespace {

/// Digit runs collapse to '#': outcome classes must survive shrinking even
/// as byte counts and indices in the message change.
std::string normalize_message(const char* what) {
  std::string out;
  bool in_digits = false;
  for (const char* p = what; *p != '\0'; ++p) {
    const bool digit = *p >= '0' && *p <= '9';
    if (digit) {
      if (!in_digits) out.push_back('#');
    } else {
      out.push_back(*p);
    }
    in_digits = digit;
  }
  return out;
}

}  // namespace

BufferOutcome classify_buffer(const FuzzTarget& target,
                              std::span<const std::uint8_t> bytes) {
  BufferOutcome outcome;
  try {
    (void)target.execute(bytes);
    outcome.kind = BufferOutcome::Kind::kAccepted;
  } catch (const Error& e) {
    outcome.kind = BufferOutcome::Kind::kRejected;
    outcome.detail = normalize_message(e.what());
  } catch (const std::exception& e) {
    outcome.kind = BufferOutcome::Kind::kFinding;
    outcome.detail = normalize_message(e.what());
  }
  return outcome;
}

std::vector<std::uint8_t> minimize_buffer(const FuzzTarget& target,
                                          std::vector<std::uint8_t> bytes,
                                          std::size_t max_execs) {
  const BufferOutcome want = classify_buffer(target, bytes);
  std::size_t execs = 1;
  // Largest power-of-two block not above half the buffer.
  std::size_t block = 1;
  while (bytes.size() >= 4 && block * 2 <= bytes.size() / 2) block *= 2;
  for (;; block /= 2) {
    bool progress = true;
    while (progress && execs < max_execs && !bytes.empty()) {
      progress = false;
      // Right-to-left over block-aligned removal candidates; removals only
      // shrink the buffer, so earlier (higher) offsets never reappear and
      // lower offsets stay valid within the pass.
      for (std::size_t idx = (bytes.size() - 1) / block + 1;
           idx-- > 0 && execs < max_execs;) {
        const std::size_t start = idx * block;
        if (start >= bytes.size()) continue;
        const std::size_t len = std::min(block, bytes.size() - start);
        std::vector<std::uint8_t> candidate;
        candidate.reserve(bytes.size() - len);
        candidate.insert(candidate.end(), bytes.begin(),
                         bytes.begin() + static_cast<std::ptrdiff_t>(start));
        candidate.insert(
            candidate.end(),
            bytes.begin() + static_cast<std::ptrdiff_t>(start + len),
            bytes.end());
        ++execs;
        if (classify_buffer(target, candidate) == want) {
          bytes = std::move(candidate);
          progress = true;
        }
      }
    }
    if (block == 1) break;
  }
  return bytes;
}

}  // namespace apf::fuzz
