// The timer and command line shared by the bench programs that time code
// (micro_parallel_scaling, table4_overhead) or write BENCH_*.json files
// (micro_parallel_scaling, ext_async_straggler, ext_million_clients).
// Header-only and standard-library-only, so tests/bench_harness_test.cpp
// checks the parser without linking a bench.
#pragma once

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace apf::bench {

inline double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median of `samples` (reordered in place).
inline double median(std::vector<double>& samples) {
  const auto mid = samples.begin() + samples.size() / 2;
  std::nth_element(samples.begin(), mid, samples.end());
  return *mid;
}

/// Times each of `variants` (each returns a value to keep live) and returns
/// its median seconds per call. The variants take turns call by call, after
/// one warm-up call each, and each median is over `reps` calls. So host
/// drift slows every variant alike, and a descheduled call does not read
/// as a slowdown.
inline std::vector<double> median_seconds(
    const std::vector<std::function<float()>>& variants, std::size_t reps) {
  std::vector<std::vector<double>> seconds(variants.size());
  volatile float sink = 0.f;
  for (std::size_t rep = 0; rep <= reps; ++rep) {
    for (std::size_t i = 0; i < variants.size(); ++i) {
      const double start = now_seconds();
      sink = sink + variants[i]();
      if (rep > 0) seconds[i].push_back(now_seconds() - start);
    }
  }
  (void)sink;
  std::vector<double> medians;
  for (std::vector<double>& s : seconds) medians.push_back(median(s));
  return medians;
}

/// Largest count `--threads` accepts: a typo must not start thousands of
/// threads.
inline constexpr std::size_t kMaxThreads = 64;

/// Parses a comma-separated list of thread counts. Every item must be a
/// plain decimal in [1, kMaxThreads]; returns nullopt otherwise or when the
/// list is empty.
inline std::optional<std::vector<std::size_t>> parse_thread_list(
    const std::string& arg) {
  std::vector<std::size_t> threads;
  std::stringstream ss(arg);
  std::string item;
  while (std::getline(ss, item, ',')) {
    std::size_t v = 0;
    const char* end = item.data() + item.size();
    const auto [ptr, ec] = std::from_chars(item.data(), end, v);
    if (item.empty() || ec != std::errc() || ptr != end || v == 0 ||
        v > kMaxThreads) {
      return std::nullopt;
    }
    threads.push_back(v);
  }
  // getline drops one trailing separator: "1," must not read as "1".
  if (threads.empty() || arg.back() == ',') return std::nullopt;
  return threads;
}

/// The command line of the BENCH_*.json benches.
struct JsonBenchArgs {
  std::string json_dir = ".";
  std::vector<std::size_t> threads;
  bool quick = false;
};

/// Parses `--json-dir DIR` (default "."), `--threads LIST` (default
/// `default_threads`) and `--quick`, then creates DIR (and its parents) if
/// it does not exist, so a bench fails before it times anything rather than
/// when it writes its JSON. Anything else, a malformed thread list
/// included, prints the usage line and exits 2; a directory that cannot be
/// created prints why and exits 2.
inline JsonBenchArgs parse_json_bench_args(
    int argc, char** argv, std::vector<std::size_t> default_threads) {
  JsonBenchArgs args;
  args.threads = std::move(default_threads);
  const auto usage = [&] {
    std::cerr << "usage: " << argv[0]
              << " [--json-dir DIR] [--threads N,N,...] [--quick]\n"
              << "  thread counts are integers in [1, " << kMaxThreads
              << "]\n";
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json-dir") == 0 && i + 1 < argc) {
      args.json_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      const auto threads = parse_thread_list(argv[++i]);
      if (!threads) usage();
      args.threads = *threads;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      args.quick = true;
    } else {
      usage();
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(args.json_dir, ec);
  if (ec) {
    std::cerr << argv[0] << ": cannot create --json-dir " << args.json_dir
              << ": " << ec.message() << "\n";
    std::exit(2);
  }
  return args;
}

}  // namespace apf::bench
