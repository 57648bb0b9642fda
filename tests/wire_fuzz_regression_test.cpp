// Replays the checked-in fuzz corpus through the exact target functions the
// fuzz_apf CLI uses, and pins the decode contract as properties: every codec
// decode either round-trips exactly or raises apf::Error — no third outcome
// (no sanitizer report, no bad_alloc, no silently wrong tensor).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "fuzz/mutator.h"
#include "fuzz/targets.h"
#include "util/error.h"
#include "util/rng.h"
#include "wire/wire.h"

namespace fs = std::filesystem;
using apf::Error;
using apf::Rng;
using apf::fuzz::FuzzTarget;
using apf::fuzz::ReplayOutcome;

namespace {

std::vector<std::uint8_t> read_file(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << "cannot read " << path;
  std::vector<char> data((std::istreambuf_iterator<char>(is)),
                         std::istreambuf_iterator<char>());
  return {data.begin(), data.end()};
}

/// Runs one buffer through a target, asserting the two-outcome contract.
ReplayOutcome must_accept_or_reject(const FuzzTarget& target,
                                    std::span<const std::uint8_t> bytes,
                                    const std::string& what) {
  try {
    return apf::fuzz::replay_buffer(target, bytes);
  } catch (const Error&) {
    return ReplayOutcome::kRejected;  // rejected with a message: expected
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": target '" << target.name
                  << "' escaped with non-apf exception: " << e.what();
    return ReplayOutcome::kRejected;
  }
}

// -- corpus replay ----------------------------------------------------------

TEST(WireFuzzCorpus, EveryEntryReplaysCleanly) {
  const fs::path corpus(APF_FUZZ_CORPUS_DIR);
  ASSERT_TRUE(fs::is_directory(corpus)) << corpus;
  std::size_t files = 0;
  for (const auto& entry : fs::recursive_directory_iterator(corpus)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".bin") {
      continue;
    }
    const std::string dir = entry.path().parent_path().filename().string();
    const FuzzTarget* target = apf::fuzz::find_target(dir);
    ASSERT_NE(target, nullptr)
        << "corpus directory '" << dir << "' does not name a fuzz target";
    const auto bytes = read_file(entry.path());
    const ReplayOutcome outcome =
        must_accept_or_reject(*target, bytes, entry.path().string());
    // Handcrafted regression entries document rejection paths; the emitted
    // valid-N seeds must still be accepted.
    const std::string stem = entry.path().stem().string();
    if (stem.rfind("valid-", 0) == 0) {
      EXPECT_EQ(outcome, ReplayOutcome::kAccepted) << entry.path();
    } else if (stem.rfind("regress-", 0) == 0) {
      EXPECT_EQ(outcome, ReplayOutcome::kRejected) << entry.path();
    }
    ++files;
  }
  // 15 targets x 3 valid seeds + 16 regression entries.
  EXPECT_GE(files, 61u) << "corpus went missing?";
}

// -- two-outcome property over adversarial inputs ---------------------------

// Valid buffers, truncations, single-byte corruptions, and fully random
// buffers must all land in {accepted-with-exact-round-trip, apf::Error}.
TEST(WireFuzzProperty, TruncationsAndCorruptionsNeverEscape) {
  Rng rng(0x7E57AB1E5EEDULL);
  for (const FuzzTarget& target : apf::fuzz::all_targets()) {
    for (int round = 0; round < 8; ++round) {
      const std::vector<std::uint8_t> valid = target.generate(rng);
      EXPECT_EQ(must_accept_or_reject(target, valid, "valid"),
                ReplayOutcome::kAccepted)
          << target.name;
      // Every truncation prefix (dense stride for long buffers).
      const std::size_t stride = valid.size() > 256 ? 7 : 1;
      for (std::size_t len = 0; len < valid.size(); len += stride) {
        std::span<const std::uint8_t> prefix(valid.data(), len);
        must_accept_or_reject(target, prefix, "truncation");
      }
      // Single-byte corruption sweep.
      for (std::size_t pos = 0; pos < valid.size();
           pos += (valid.size() > 256 ? 11 : 1)) {
        std::vector<std::uint8_t> corrupt = valid;
        corrupt[pos] ^= static_cast<std::uint8_t>(1u + rng.uniform_int(255));
        must_accept_or_reject(target, corrupt, "corruption");
      }
    }
    // Fully random buffers.
    for (int i = 0; i < 64; ++i) {
      const auto junk = apf::fuzz::random_buffer(rng, 512);
      must_accept_or_reject(target, junk, "random buffer");
    }
  }
}

// -- determinism of the harness itself --------------------------------------

TEST(WireFuzzDeterminism, SameSeedSameDigest) {
  for (const FuzzTarget& target : apf::fuzz::all_targets()) {
    const auto a = apf::fuzz::run_fuzz(target, 99, 300);
    const auto b = apf::fuzz::run_fuzz(target, 99, 300);
    EXPECT_EQ(a.digest, b.digest) << target.name;
    EXPECT_EQ(a.accepted, b.accepted) << target.name;
    const auto c = apf::fuzz::run_fuzz(target, 100, 300);
    EXPECT_NE(a.digest, c.digest)
        << target.name << ": digest ignores the seed?";
  }
}

// -- pinned rejections for the decode bugs fixed by this harness ------------

TEST(WireFuzzRegression, SparseRejectsNonAscendingIndices) {
  apf::wire::SparsePayload p;
  p.dim = 8;
  p.indices = {3, 3};
  p.values = {1.f, 2.f};
  // Encoding validates too — the encoder refuses to emit a non-canonical
  // buffer, and the decoder refuses to accept one.
  EXPECT_THROW(apf::wire::encode_sparse(p), Error);
}

TEST(WireFuzzRegression, RandkRejectsCountAboveDim) {
  apf::wire::RandkPayload p;
  p.dim = 2;
  p.count = 3;
  p.seed = 7;
  p.scale = 1.f;
  p.values = {1.f, 2.f, 3.f};
  EXPECT_THROW(apf::wire::encode_randk(p), Error);
}

TEST(WireFuzzRegression, QsgdRejectsNonzeroPadBits) {
  // dim=1, bits=1: one 2-bit field + 6 pad bits; bit 2 set is malformed.
  std::vector<std::uint8_t> bytes = {'A', 'P', 'Q', '1', 1, 0, 0, 0, 1};
  const std::uint32_t norm_bits = std::bit_cast<std::uint32_t>(1.0f);
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<std::uint8_t>((norm_bits >> (8 * i)) & 0xFF));
  }
  bytes.push_back(0x04);
  EXPECT_THROW(apf::wire::decode_qsgd(bytes), Error);
}

TEST(WireFuzzRegression, TerngradRejectsCodeThree) {
  std::vector<std::uint8_t> bytes = {'A', 'P', 'T', '1', 1, 0, 0, 0};
  const std::uint32_t scale_bits = std::bit_cast<std::uint32_t>(1.0f);
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<std::uint8_t>((scale_bits >> (8 * i)) & 0xFF));
  }
  bytes.push_back(0x03);
  EXPECT_THROW(apf::wire::decode_terngrad(bytes), Error);
}

TEST(WireFuzzRegression, DenseRejectsCountPayloadMismatch) {
  std::vector<std::uint8_t> bytes = {'A', 'P', 'D', '1', 4, 0, 0, 0};
  bytes.resize(bytes.size() + 8, 0);  // only 2 of the 4 promised floats
  EXPECT_THROW(apf::wire::decode_dense(bytes), Error);
}

TEST(WireFuzzRegression, Fp16RejectsCountPayloadMismatch) {
  std::vector<std::uint8_t> bytes = {'A', 'P', 'H', '1', 4, 0, 0, 0};
  bytes.resize(bytes.size() + 4, 0);  // only 2 of the 4 promised halves
  EXPECT_THROW(apf::wire::decode_fp16_payload(bytes), Error);
  // A count of 2^31 halves would be an 8 GiB float vector: the length check
  // must reject it before anything is allocated.
  bytes[7] = 0x80;
  EXPECT_THROW(apf::wire::decode_fp16_payload(bytes), Error);
}

TEST(WireFuzzRegression, DenseRoundTripsNanPayloadBitsExactly) {
  const std::vector<std::uint32_t> bits = {0x7FC00000u, 0x7FA00001u,
                                           0xFFC12345u, 0xFF800001u,
                                           0x80000000u, 0x3F800000u};
  std::vector<float> values;
  for (const std::uint32_t b : bits) values.push_back(std::bit_cast<float>(b));
  const std::vector<float> decoded =
      apf::wire::decode_dense(apf::wire::encode_dense(values));
  ASSERT_EQ(decoded.size(), bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(decoded[i]), bits[i]) << i;
  }
}

}  // namespace
