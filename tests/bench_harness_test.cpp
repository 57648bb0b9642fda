// The --threads parser and argument loop of bench/harness.h. Parsing only:
// no test here builds a ThreadPool, so large counts start no threads.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness.h"

namespace {

using apf::bench::kMaxThreads;
using apf::bench::parse_thread_list;

TEST(BenchHarness, ParsesCommaSeparatedCounts) {
  EXPECT_EQ(parse_thread_list("1,2,4"),
            (std::vector<std::size_t>{1, 2, 4}));
  EXPECT_EQ(parse_thread_list("8"), (std::vector<std::size_t>{8}));
  EXPECT_EQ(parse_thread_list(std::to_string(kMaxThreads)),
            (std::vector<std::size_t>{kMaxThreads}));
}

TEST(BenchHarness, RejectsMalformedItems) {
  for (const char* arg :
       {"", "abc", "4x", "x4", "1,,2", "1,", ",1", " 1", "1 ", "+1", "-1",
        "1.5", "0x4", "1;2"}) {
    EXPECT_FALSE(parse_thread_list(arg)) << '"' << arg << '"';
  }
}

TEST(BenchHarness, RejectsCountsOutOfRange) {
  for (const std::string& arg :
       {std::string("0"), std::string("1,0"),
        std::to_string(kMaxThreads + 1), std::string("4096"),
        std::string("99999999999999999999999")}) {
    EXPECT_FALSE(parse_thread_list(arg)) << '"' << arg << '"';
  }
}

TEST(BenchHarness, ArgumentLoopReadsEveryFlag) {
  std::string prog = "bench", dir_flag = "--json-dir", dir = "out",
              threads_flag = "--threads", threads = "1,3", quick = "--quick";
  char* argv[] = {prog.data(), dir_flag.data(), dir.data(),
                  threads_flag.data(), threads.data(), quick.data()};
  const auto args = apf::bench::parse_json_bench_args(6, argv, {1, 4});
  EXPECT_EQ(args.json_dir, "out");
  EXPECT_EQ(args.threads, (std::vector<std::size_t>{1, 3}));
  EXPECT_TRUE(args.quick);

  char* defaults_argv[] = {prog.data()};
  const auto defaults = apf::bench::parse_json_bench_args(1, defaults_argv,
                                                          {1, 4});
  EXPECT_EQ(defaults.json_dir, ".");
  EXPECT_EQ(defaults.threads, (std::vector<std::size_t>{1, 4}));
  EXPECT_FALSE(defaults.quick);
}

TEST(BenchHarnessDeathTest, MalformedThreadListExitsWithUsage) {
  std::string prog = "bench", flag = "--threads";
  for (std::string list : {"abc", "4x", "100000"}) {
    char* argv[] = {prog.data(), flag.data(), list.data()};
    EXPECT_EXIT(apf::bench::parse_json_bench_args(3, argv, {1, 4}),
                testing::ExitedWithCode(2), "usage: bench")
        << list;
  }
}

TEST(BenchHarnessDeathTest, UnknownFlagExitsWithUsage) {
  std::string prog = "bench", flag = "--threds", list = "1,2";
  char* argv[] = {prog.data(), flag.data(), list.data()};
  EXPECT_EXIT(apf::bench::parse_json_bench_args(3, argv, {1, 4}),
              testing::ExitedWithCode(2), "usage: bench");
}

}  // namespace
