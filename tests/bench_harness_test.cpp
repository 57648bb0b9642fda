// The --threads parser, the argument loop and the --json-dir creation of
// bench/harness.h. No test here builds a ThreadPool, so large counts start
// no threads; directories go under the gtest temp dir.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
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
  std::string prog = "bench", dir_flag = "--json-dir",
              dir = testing::TempDir() + "bench_harness_out",
              threads_flag = "--threads", threads = "1,3", quick = "--quick";
  char* argv[] = {prog.data(), dir_flag.data(), dir.data(),
                  threads_flag.data(), threads.data(), quick.data()};
  const auto args = apf::bench::parse_json_bench_args(6, argv, {1, 4});
  EXPECT_EQ(args.json_dir, dir);
  EXPECT_EQ(args.threads, (std::vector<std::size_t>{1, 3}));
  EXPECT_TRUE(args.quick);

  char* defaults_argv[] = {prog.data()};
  const auto defaults = apf::bench::parse_json_bench_args(1, defaults_argv,
                                                          {1, 4});
  EXPECT_EQ(defaults.json_dir, ".");
  EXPECT_EQ(defaults.threads, (std::vector<std::size_t>{1, 4}));
  EXPECT_FALSE(defaults.quick);
}

// A --json-dir that does not exist yet, parents included, exists once the
// arguments are parsed: the benches write their JSON there only after the
// whole run.
TEST(BenchHarness, CreatesMissingJsonDir) {
  const std::filesystem::path root =
      std::filesystem::path(testing::TempDir()) / "bench_harness_json_dir";
  std::filesystem::remove_all(root);
  std::string prog = "bench", flag = "--json-dir",
              dir = (root / "a" / "b").string();
  char* argv[] = {prog.data(), flag.data(), dir.data()};
  const auto args = apf::bench::parse_json_bench_args(3, argv, {1});
  EXPECT_EQ(args.json_dir, dir);
  EXPECT_TRUE(std::filesystem::is_directory(dir));
  std::filesystem::remove_all(root);
}

TEST(BenchHarnessDeathTest, UncreatableJsonDirExits) {
  const std::filesystem::path file =
      std::filesystem::path(testing::TempDir()) / "bench_harness_file";
  std::ofstream(file) << "not a directory";
  std::string prog = "bench", flag = "--json-dir",
              dir = (file / "sub").string();
  char* argv[] = {prog.data(), flag.data(), dir.data()};
  EXPECT_EXIT(apf::bench::parse_json_bench_args(3, argv, {1}),
              testing::ExitedWithCode(2), "cannot create --json-dir");
  std::filesystem::remove(file);
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
