// Unit tests for the shared bench argument parsing (bench/bench_util.h).
//
// The regression pinned here: `--json=path 32` used to push "--json=path"
// into positional[0], where a bench's count argument would std::atoi it to
// 0 and silently acquire nothing. Both flag spellings must now parse in
// any position, and a malformed count must be a loud usage error (exit 2),
// never a silent zero. A positional the binary never reads is a usage
// error too.

#include "bench/bench_util.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace lpa {
namespace {

/// argv adapter: keeps the strings alive and hands out mutable char*.
class Argv {
 public:
  explicit Argv(std::vector<std::string> words) : words_(std::move(words)) {
    for (std::string& w : words_) ptrs_.push_back(w.data());
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> words_;
  std::vector<char*> ptrs_;
};

/// Parses `words` as a binary that forwards its positionals (the flag
/// tests below), or one that reads `maxPositionals` of them.
bench::BenchArgs parse(std::vector<std::string> words,
                       std::size_t maxPositionals = bench::kPassThrough) {
  words.insert(words.begin(), "bench_under_test");
  Argv a(std::move(words));
  return bench::parseBenchArgs(a.argc(), a.argv(), maxPositionals);
}

TEST(ParseBenchArgs, SeparateValueFlagsInAnyPosition) {
  const auto args =
      parse({"--json", "r.json", "32", "--trace", "t.json", "--progress"});
  EXPECT_EQ(args.jsonPath, "r.json");
  EXPECT_EQ(args.tracePath, "t.json");
  EXPECT_TRUE(args.progress);
  ASSERT_EQ(args.positional.size(), 1u);
  EXPECT_EQ(args.positional[0], "32");
}

TEST(ParseBenchArgs, EqualsFormDoesNotLeakIntoPositionals) {
  // The historical misparse: "--json=r.json" fell through to positional[0]
  // and the count argument shifted/was swallowed.
  const auto args = parse({"--json=r.json", "32"});
  EXPECT_EQ(args.jsonPath, "r.json");
  ASSERT_EQ(args.positional.size(), 1u);
  EXPECT_EQ(args.positional[0], "32");

  const auto flipped = parse({"16", "--trace=t.json", "--json=r.json"});
  EXPECT_EQ(flipped.jsonPath, "r.json");
  EXPECT_EQ(flipped.tracePath, "t.json");
  ASSERT_EQ(flipped.positional.size(), 1u);
  EXPECT_EQ(flipped.positional[0], "16");
}

TEST(ParseBenchArgs, EqualsFormAllowsEmptyAndPathsWithEquals) {
  EXPECT_EQ(parse({"--json="}).jsonPath, "");
  EXPECT_EQ(parse({"--json=a=b.json"}).jsonPath, "a=b.json");
}

TEST(PositionalCount, ParsesAndFallsBack) {
  const auto args = parse({"--json=r.json", "48"});
  EXPECT_EQ(bench::positionalCount(args, 0, 64, "tracesPerClass"), 48u);
  EXPECT_EQ(bench::positionalCount(args, 1, 64, "other"), 64u)
      << "absent positional uses the fallback";
  EXPECT_EQ(bench::positionalCount(parse({}), 0, 7, "count"), 7u);
}

using ParseBenchArgsDeath = ::testing::Test;

TEST(ParseBenchArgsDeath, MissingFlagValueExitsLoudly) {
  EXPECT_EXIT(parse({"--json"}), ::testing::ExitedWithCode(2),
              "--json requires a path argument");
  EXPECT_EXIT(parse({"32", "--trace"}), ::testing::ExitedWithCode(2),
              "--trace requires a path argument");
}

TEST(ParseBenchArgsDeath, UnreadPositionalExitsInsteadOfBeingIgnored) {
  // `bench_fig7_total_leakage 2 --quantized` used to run and exit 0: the
  // unknown flag became positional 1, which that bench never reads.
  EXPECT_EQ(parse({"2", "--json=r.json"}, 1).positional.size(), 1u);
  EXPECT_EXIT(parse({"2", "--quantized"}, 1), ::testing::ExitedWithCode(2),
              "unexpected argument \"--quantized\"");
  EXPECT_EXIT(parse({"--progress", "16"}, 0), ::testing::ExitedWithCode(2),
              "unexpected argument \"16\"");
  EXPECT_EQ(parse({"--benchmark_filter=Sim", "x"}).positional.size(), 2u)
      << "pass-through binaries keep every positional";
}

TEST(ParseBenchArgsDeath, MalformedCountExitsInsteadOfSilentZero) {
  const auto stray = parse({"--jsn=typo.json", "32"});
  ASSERT_EQ(stray.positional.size(), 2u) << "unknown flags pass through";
  EXPECT_EXIT(bench::positionalCount(stray, 0, 64, "tracesPerClass"),
              ::testing::ExitedWithCode(2),
              "bad tracesPerClass argument: \"--jsn=typo.json\"");

  EXPECT_EXIT(bench::positionalCount(parse({"12x"}), 0, 1, "count"),
              ::testing::ExitedWithCode(2), "bad count argument: \"12x\"");
  EXPECT_EXIT(bench::positionalCount(parse({"99999999999"}), 0, 1, "count"),
              ::testing::ExitedWithCode(2), "expected a count");
}

}  // namespace
}  // namespace lpa

