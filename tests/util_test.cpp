// Unit tests for src/util: RNG determinism and stream independence, the
// phase profiler, CLI parsing, and the error check machinery.
#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/util/cli.hpp"
#include "src/util/error.hpp"
#include "src/util/parallel.hpp"
#include "src/util/profiler.hpp"
#include "src/util/rng.hpp"
#include "src/util/timer.hpp"

namespace cagnet {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000000ULL}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, DoubleRangeRespected) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double(-2.5, 1.5);
    EXPECT_GE(d, -2.5);
    EXPECT_LT(d, 1.5);
  }
}

TEST(Rng, SplitStreamsAreDecorrelated) {
  Rng parent(99);
  Rng a = parent.split(0);
  Rng b = parent.split(1);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, SplitIsDeterministic) {
  Rng p1(5);
  Rng p2(5);
  Rng a = p1.split(17);
  Rng b = p2.split(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, MeanOfUniformIsCentered) {
  Rng rng(123);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Profiler, AccumulatesPerPhase) {
  Profiler p;
  p.add(Phase::kSpmm, 1.5);
  p.add(Phase::kSpmm, 0.5);
  p.add(Phase::kDenseComm, 2.0);
  EXPECT_DOUBLE_EQ(p.seconds(Phase::kSpmm), 2.0);
  EXPECT_DOUBLE_EQ(p.seconds(Phase::kDenseComm), 2.0);
  EXPECT_DOUBLE_EQ(p.seconds(Phase::kSparseComm), 0.0);
  EXPECT_DOUBLE_EQ(p.total_seconds(), 4.0);
}

TEST(Profiler, MergeMaxTakesPerPhaseMax) {
  Profiler a;
  Profiler b;
  a.add(Phase::kSpmm, 3.0);
  a.add(Phase::kMisc, 1.0);
  b.add(Phase::kSpmm, 2.0);
  b.add(Phase::kMisc, 5.0);
  a.merge_max(b);
  EXPECT_DOUBLE_EQ(a.seconds(Phase::kSpmm), 3.0);
  EXPECT_DOUBLE_EQ(a.seconds(Phase::kMisc), 5.0);
}

TEST(Profiler, ScopedPhaseAddsTime) {
  Profiler p;
  {
    ScopedPhase scope(p, Phase::kTranspose);
    WallTimer t;
    while (t.seconds() < 0.01) {
    }
  }
  EXPECT_GE(p.seconds(Phase::kTranspose), 0.009);
}

TEST(Profiler, PhaseNamesMatchPaperFigure3) {
  EXPECT_STREQ(phase_name(Phase::kMisc), "misc");
  EXPECT_STREQ(phase_name(Phase::kTranspose), "trpose");
  EXPECT_STREQ(phase_name(Phase::kDenseComm), "dcomm");
  EXPECT_STREQ(phase_name(Phase::kSparseComm), "scomm");
  EXPECT_STREQ(phase_name(Phase::kSpmm), "spmm");
  EXPECT_STREQ(phase_name(Phase::kHaloPack), "hpack");
}

TEST(Cli, ParsesSpaceAndEqualsForms) {
  // A bare boolean flag must come last (or use --flag=): a following
  // non-flag token would be consumed as its value.
  const char* argv[] = {"prog", "positional", "--alpha", "3", "--beta=4.5",
                        "--flag"};
  CliArgs args(6, const_cast<char**>(argv));
  EXPECT_EQ(args.get_int("alpha", 0), 3);
  EXPECT_DOUBLE_EQ(args.get_double("beta", 0), 4.5);
  EXPECT_TRUE(args.has("flag"));
  EXPECT_FALSE(args.has("missing"));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "positional");
}

TEST(Cli, FallbacksUsedWhenAbsent) {
  const char* argv[] = {"prog"};
  CliArgs args(1, const_cast<char**>(argv));
  EXPECT_EQ(args.get("name", "dflt"), "dflt");
  EXPECT_EQ(args.get_int("n", 7), 7);
}

TEST(Cli, ParsesIntLists) {
  const char* argv[] = {"prog", "--procs", "4,16,64"};
  CliArgs args(3, const_cast<char**>(argv));
  const auto procs = args.get_int_list("procs", {});
  ASSERT_EQ(procs.size(), 3u);
  EXPECT_EQ(procs[0], 4);
  EXPECT_EQ(procs[1], 16);
  EXPECT_EQ(procs[2], 64);
  EXPECT_EQ(args.get_int_list("missing", {1, 2}).size(), 2u);
}

/// The Error message of `fn`, or "" when it does not throw one.
template <typename Fn>
std::string error_of(Fn fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(Cli, MalformedNumbersThrowNamingTheFlag) {
  // abc, a trailing suffix, an empty value (a bare --flag) and values
  // past the type's range were read as 0, 4, 0 and a clamped number.
  const char* argv[] = {"prog",          "--alpha",         "abc",
                        "--beta",        "4x",              "--gamma=",
                        "--delta",       "99999999999999999999",
                        "--eps",         "1e999",           "--list",
                        "4,,16",         "--neg",           "-3",
                        "--real",        "-2.5e-1",         "--plus",
                        "+4"};
  CliArgs args(static_cast<int>(std::size(argv)), const_cast<char**>(argv));
  const auto names = [](const std::string& what, const std::string& flag) {
    return what.find(flag) != std::string::npos;
  };
  EXPECT_TRUE(names(error_of([&] { args.get_int("alpha", 0); }),
                    "--alpha=\"abc\""));
  EXPECT_TRUE(names(error_of([&] { args.get_int("beta", 0); }),
                    "--beta=\"4x\""));
  EXPECT_TRUE(names(error_of([&] { args.get_double("beta", 0); }),
                    "--beta=\"4x\""));
  EXPECT_TRUE(names(error_of([&] { args.get_int("gamma", 0); }),
                    "--gamma=\"\""));
  EXPECT_TRUE(names(error_of([&] { args.get_int("delta", 0); }),
                    "--delta="));
  EXPECT_TRUE(names(error_of([&] { args.get_double("eps", 0); }),
                    "--eps="));
  EXPECT_TRUE(names(error_of([&] { args.get_int_list("list", {}); }),
                    "--list="));
  EXPECT_TRUE(names(error_of([&] { args.get_int("plus", 0); }),
                    "--plus="));
  EXPECT_EQ(args.get_int("neg", 0), -3);
  EXPECT_DOUBLE_EQ(args.get_double("real", 0), -0.25);
  EXPECT_EQ(args.get_int("missing", 9), 9);
}

int throws_error(int argc, char** argv) {
  (void)argc;
  (void)argv;
  throw Error("--epochs=\"abc\" is invalid");
}

int returns_seven(int argc, char** argv) {
  (void)argc;
  (void)argv;
  return 7;
}

TEST(Cli, RunMainTurnsAnEscapingErrorIntoExitOne) {
  const char* argv[] = {"prog"};
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(run_main(1, const_cast<char**>(argv), throws_error), 1);
  EXPECT_NE(::testing::internal::GetCapturedStderr().find(
                "prog: --epochs=\"abc\" is invalid"),
            std::string::npos);
  EXPECT_EQ(run_main(1, const_cast<char**>(argv), returns_seven), 7);
}

TEST(Error, CheckThrowsWithContext) {
  try {
    CAGNET_CHECK(1 == 2, "math broke");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("math broke"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Error, CheckPassesSilently) {
  EXPECT_NO_THROW(CAGNET_CHECK(true, "fine"));
}

TEST(Timer, MeasuresElapsedTime) {
  WallTimer t;
  WallTimer spin;
  while (spin.seconds() < 0.01) {
  }
  EXPECT_GE(t.seconds(), 0.009);
  t.reset();
  EXPECT_LT(t.seconds(), 0.01);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  override_thread_budget(8);
  const Index n = 100000;
  std::vector<int> hits(static_cast<std::size_t>(n), 0);
  parallel_for(n, 8, [&](Index lo, Index hi) {
    for (Index i = lo; i < hi; ++i) ++hits[static_cast<std::size_t>(i)];
  });
  override_thread_budget(0);
  for (int h : hits) ASSERT_EQ(h, 1);
}

TEST(ThreadPool, ChunksRunExactlyOnceEvenWhenConcurrent) {
  override_thread_budget(8);
  std::atomic<int> total{0};
  // Several concurrent submitters sharing the one pool, as simulated-world
  // rank threads do.
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&] {
      for (int round = 0; round < 10; ++round) {
        parallel_for_chunks(7, [&](int) { total.fetch_add(1); });
      }
    });
  }
  for (auto& t : callers) t.join();
  override_thread_budget(0);
  EXPECT_EQ(total.load(), 4 * 10 * 7);
}

TEST(ThreadPool, ExceptionsPropagateToCaller) {
  override_thread_budget(4);
  EXPECT_THROW(parallel_for_chunks(4,
                                   [&](int c) {
                                     if (c == 2) throw Error("chunk failed");
                                   }),
               Error);
  override_thread_budget(0);
}

TEST(ThreadBudget, OverrideAndPlanChunks) {
  override_thread_budget(6);
  EXPECT_EQ(thread_budget(), 6);
  EXPECT_EQ(available_thread_budget(), 6);
  {
    ScopedThreadBudgetShare share(3);
    EXPECT_EQ(available_thread_budget(), 2);
  }
  // Work-based clamp: tiny work stays serial, big work uses the budget,
  // max_chunks caps everything.
  EXPECT_EQ(plan_chunks(/*total_work=*/10.0, /*min_work_per_chunk=*/1000.0,
                        /*max_chunks=*/100),
            1);
  EXPECT_EQ(plan_chunks(1e9, 1000.0, 100), 6);
  EXPECT_EQ(plan_chunks(1e9, 1000.0, 3), 3);
  override_thread_budget(0);
  EXPECT_GE(thread_budget(), 1);
}

}  // namespace
}  // namespace cagnet
