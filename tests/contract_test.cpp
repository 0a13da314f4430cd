// Tests for the comm-runtime contract checker (src/comm/contract_check.*)
// and the concurrency-tooling regression guards: each misuse class the
// checker diagnoses gets a test asserting the typed error, the checker is
// proven purely observational (bitwise-identical results and meters on
// and off), and a pool/profiler stress keeps the TSan-clean accumulation
// paths pinned under the sanitizer jobs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <vector>

#include "src/comm/comm.hpp"
#include "src/util/parallel.hpp"
#include "src/util/profiler.hpp"

namespace cagnet {
namespace {

/// Force the checker on (or off) for the test's scope, restoring the
/// env/build-type default on exit — keeps the suite meaningful under any
/// ambient CAGNET_CHECK and build type.
class ScopedChecker {
 public:
  explicit ScopedChecker(int value) { contract::set_enabled_for_testing(value); }
  ~ScopedChecker() { contract::set_enabled_for_testing(-1); }
};

TEST(Contract, DoubleWaitDiagnosed) {
  ScopedChecker armed(1);
  const int p = 3;
  run_world(p, [](Comm& comm) {
    std::vector<Real> src, dst;
    if (comm.rank() == 0) {
      src.assign(5, static_cast<Real>(1.5));
    } else {
      dst.assign(5, Real{0});
    }
    PendingOp op = comm.ibroadcast_from(std::span<const Real>(src),
                                        std::span<Real>(dst), /*root=*/0,
                                        CommCategory::kDense);
    op.wait();
    EXPECT_FALSE(op.pending());
    try {
      op.wait();
      FAIL() << "second wait() on a completed op was not diagnosed";
    } catch (const ContractViolation& e) {
      EXPECT_EQ(e.rank(), comm.rank());
      EXPECT_STREQ(e.op(), "ibroadcast_from");
      EXPECT_EQ(e.category(), CommCategory::kDense);
      EXPECT_NE(std::string(e.what()).find(
                    "wait() called on an already-completed op"),
                std::string::npos)
          << e.what();
    }
    comm.quiesce();
  });
}

TEST(Contract, MovedFromHandleIsNotADoubleWait) {
  ScopedChecker armed(1);
  run_world(2, [](Comm& comm) {
    std::vector<Real> src, dst;
    if (comm.rank() == 0) {
      src.assign(3, static_cast<Real>(2.0));
    } else {
      dst.assign(3, Real{0});
    }
    PendingOp a = comm.ibroadcast_from(std::span<const Real>(src),
                                       std::span<Real>(dst), /*root=*/0,
                                       CommCategory::kDense);
    PendingOp b = std::move(a);
    // The moved-from handle is an empty handle, not a completed one:
    // waiting it must stay the documented no-op even with the checker
    // armed.
    EXPECT_NO_THROW(a.wait());  // NOLINT(bugprone-use-after-move)
    b.wait();
    comm.quiesce();
  });
}

TEST(Contract, TeardownWithUnwaitedOpDiagnosed) {
  ScopedChecker armed(1);
  // The leaked handle must outlive run_world for the teardown audit to
  // have something to catch; a one-rank alltoallv of an empty send is an
  // op whose late completion (at destruction, below) touches no peer
  // slots and charges nothing (its only chunk is the self chunk).
  PendingOp leaked;
  static const std::size_t offsets[2] = {0, 0};  // outlives the handle
  try {
    run_world(1, [&](Comm& comm) {
      leaked = comm.ialltoallv_post(std::span<const Real>{},
                                    std::span<const std::size_t>(offsets),
                                    CommCategory::kHalo);
    });
    FAIL() << "teardown with a posted-but-unwaited op was not diagnosed";
  } catch (const ContractViolation& e) {
    EXPECT_EQ(e.rank(), 0);
    EXPECT_NE(std::string(e.what()).find("posted-but-unwaited"),
              std::string::npos)
        << e.what();
  }
}

TEST(Contract, ChargeWithoutOpenOpDiagnosed) {
  contract::Checker checker(2);
  // Legal while an op is open...
  checker.on_post(1, /*ticket=*/0, "allreduce_sum", CommCategory::kDense,
                  /*finished_count=*/0, /*recycle_target=*/0);
  EXPECT_NO_THROW(
      checker.on_charge(1, "allreduce_sum", CommCategory::kDense));
  checker.on_complete(1);
  // ...but orphaned charges are a violation on both ranks.
  for (int rank = 0; rank < 2; ++rank) {
    try {
      checker.on_charge(rank, "stray", CommCategory::kHalo);
      FAIL() << "orphan charge was not diagnosed";
    } catch (const ContractViolation& e) {
      EXPECT_EQ(e.rank(), rank);
      EXPECT_STREQ(e.op(), "stray");
      EXPECT_EQ(e.category(), CommCategory::kHalo);
      EXPECT_NE(std::string(e.what()).find("no open op"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Contract, TicketMonotonicityAndRecycleGateDiagnosed) {
  contract::Checker checker(1);
  checker.on_post(0, 0, "allreduce_sum", CommCategory::kDense, 0, 0);
  // Ticket 2 after ticket 0 skips 1: out of monotone posting order.
  try {
    checker.on_post(0, 2, "allreduce_sum", CommCategory::kDense, 0, 0);
    FAIL() << "out-of-order ticket was not diagnosed";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("monotone posting order"),
              std::string::npos)
        << e.what();
  }
  // Republish over an unfinished generation: finished < required.
  contract::Checker fresh(1);
  try {
    fresh.on_post(0, 0, "ibroadcast_from", CommCategory::kDense,
                  /*finished_count=*/3, /*recycle_target=*/4);
    FAIL() << "slot republish over a parked reader was not diagnosed";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("republished"), std::string::npos)
        << e.what();
  }
}

TEST(Contract, ReleaseOfNeverPostedOpDiagnosed) {
  contract::Checker checker(1);
  checker.on_post(0, 0, "allreduce_sum_compressed", CommCategory::kCompressed,
                  0, 0);
  EXPECT_NO_THROW(checker.on_release(0, 0, "allreduce_sum_compressed"));
  try {
    checker.on_release(0, 7, "allreduce_sum_compressed");
    FAIL() << "release of a never-posted ticket was not diagnosed";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("never posted"), std::string::npos)
        << e.what();
  }
}

/// One metered mixed workload (blocking + nonblocking + per-source drain
/// + release), returning results and meters for bitwise comparison.
void mixed_workload(std::vector<Real>& out, std::vector<CostMeter>& meters) {
  const int p = 4;
  out.assign(static_cast<std::size_t>(p) * 8, Real{0});
  run_world(
      p,
      [&](Comm& comm) {
        const auto r = static_cast<std::size_t>(comm.rank());
        std::vector<Real> acc(8);
        for (std::size_t i = 0; i < acc.size(); ++i) {
          acc[i] = static_cast<Real>(comm.rank() + 1) * 0.125 *
                   static_cast<Real>(i + 1);
        }
        comm.allreduce_sum(std::span<Real>(acc), CommCategory::kDense);

        // Nonblocking broadcast of rank 0's total; the root's wait is
        // passive.
        const bool root = comm.rank() == 0;
        std::vector<Real> total = acc;
        PendingOp bc = comm.ibroadcast_from(
            root ? std::span<const Real>(acc) : std::span<const Real>{},
            root ? std::span<Real>{} : std::span<Real>(total), /*root=*/0,
            CommCategory::kSparse);
        bc.wait();

        // Per-source drained alltoallv: rank r sends (r+1) words to every
        // destination.
        std::vector<Real> send(static_cast<std::size_t>(p) * (r + 1),
                               static_cast<Real>(comm.rank()));
        std::vector<std::size_t> offs(static_cast<std::size_t>(p) + 1, 0);
        for (std::size_t d = 1; d <= static_cast<std::size_t>(p); ++d) {
          offs[d] = offs[d - 1] + (r + 1);
        }
        PendingOp x = comm.ialltoallv_post(std::span<const Real>(send),
                                           std::span<const std::size_t>(offs),
                                           CommCategory::kHalo);
        Real drained = 0;
        for (int s = 0; s < p; ++s) {
          for (Real v : x.await_source<Real>(s)) drained += v;
        }
        x.wait();
        comm.quiesce();

        for (std::size_t i = 0; i < total.size(); ++i) {
          out[r * 8 + i] = total[i] + drained;
        }
      },
      &meters);
}

TEST(Contract, CheckerIsPurelyObservational) {
  std::vector<Real> out_off, out_on;
  std::vector<CostMeter> meters_off, meters_on;
  {
    ScopedChecker off(0);
    mixed_workload(out_off, meters_off);
  }
  {
    ScopedChecker on(1);
    mixed_workload(out_on, meters_on);
  }
  ASSERT_EQ(out_off.size(), out_on.size());
  for (std::size_t i = 0; i < out_off.size(); ++i) {
    // Bitwise, not approximate: the checker must not perturb a single
    // operation order or charge.
    EXPECT_EQ(std::memcmp(&out_off[i], &out_on[i], sizeof(Real)), 0)
        << "result word " << i << " differs with the checker armed";
  }
  ASSERT_EQ(meters_off.size(), meters_on.size());
  for (std::size_t r = 0; r < meters_off.size(); ++r) {
    for (std::size_t c = 0; c < CostMeter::kNumCategories; ++c) {
      const auto cat = static_cast<CommCategory>(c);
      EXPECT_EQ(meters_off[r].latency_units(cat),
                meters_on[r].latency_units(cat));
      EXPECT_EQ(meters_off[r].words(cat), meters_on[r].words(cat));
    }
  }
}

TEST(Contract, QuiescedWorldPassesTeardownAudit) {
  ScopedChecker armed(1);
  // The happy path: posts, waits, splits, releases — the audit stays
  // silent, including on the split sub-communicators it also covers.
  EXPECT_NO_THROW(run_world(4, [](Comm& comm) {
    Comm row = comm.split(comm.rank() / 2, comm.rank());
    std::vector<Real> v(6, static_cast<Real>(comm.rank()));
    row.allreduce_sum(std::span<Real>(v), CommCategory::kDense);
    std::vector<Real> total(6);
    const bool root = comm.rank() == 0;
    PendingOp op = comm.ibroadcast_from(
        root ? std::span<const Real>(v) : std::span<const Real>{},
        root ? std::span<Real>{} : std::span<Real>(total), /*root=*/0,
        CommCategory::kSparse);
    op.wait();
    comm.quiesce();
  }));
}

// Regression guard for the pool/profiler accumulation paths (the TSan CI
// job runs this suite): every rank hammers parallel_for on the shared
// pool while accumulating its own Profiler and CostMeter, the exact
// cross-thread pattern a racy phase/meter accumulation would trip under
// ThreadSanitizer. The assertions pin the deterministic totals so the
// test also fails on silent lost updates, not just on TSan reports.
TEST(Contract, PoolAndProfilerAccumulationStress) {
  const int p = 4;
  const int rounds = 25;
  std::vector<CostMeter> meters;
  run_world(
      p,
      [&](Comm& comm) {
        Profiler prof;
        std::vector<double> sums(64);
        for (int round = 0; round < rounds; ++round) {
          {
            ScopedPhase scope(prof, Phase::kSpmm);
            parallel_for_chunks(
                static_cast<int>(sums.size()), [&](int c) {
                  sums[static_cast<std::size_t>(c)] +=
                      static_cast<double>(c + 1);
                });
          }
          std::vector<Real> v(4, static_cast<Real>(comm.rank()));
          comm.allreduce_sum(std::span<Real>(v), CommCategory::kDense);
        }
        double total = 0;
        for (double s : sums) total += s;
        // 25 rounds x sum(1..64) each.
        EXPECT_DOUBLE_EQ(total, static_cast<double>(rounds) * 64.0 * 65.0 /
                                    2.0);
        EXPECT_GT(prof.seconds(Phase::kSpmm), 0.0);
      },
      &meters);
  // Meter accumulation is symmetric across ranks for a symmetric
  // workload; divergence here means a lost or duplicated charge.
  ASSERT_FALSE(meters.empty());
  for (const auto& m : meters) {
    EXPECT_GT(m.latency_units(CommCategory::kDense), 0.0);
    EXPECT_EQ(m.latency_units(CommCategory::kDense),
              meters.front().latency_units(CommCategory::kDense));
    EXPECT_EQ(m.words(CommCategory::kDense),
              meters.front().words(CommCategory::kDense));
  }
}

}  // namespace
}  // namespace cagnet
