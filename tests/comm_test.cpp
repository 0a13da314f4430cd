// Tests for the simulated distributed runtime: collective correctness
// across world sizes, sub-communicator splits, process grids, alpha-beta
// metering, and failure propagation.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cmath>
#include <numeric>
#include <ostream>
#include <string>
#include <vector>

#include "src/comm/comm.hpp"
#include "src/comm/grid.hpp"
#include "src/comm/machine.hpp"

namespace cagnet {
namespace {

class CollectivesAcrossP : public ::testing::TestWithParam<int> {};

TEST_P(CollectivesAcrossP, BroadcastDeliversRootData) {
  const int p = GetParam();
  run_world(p, [&](Comm& comm) {
    const int root = comm.size() / 2;
    std::vector<Real> data(37, static_cast<Real>(comm.rank()));
    if (comm.rank() == root) {
      for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<Real>(i) * 0.5;
      }
    }
    comm.broadcast(std::span<Real>(data), root, CommCategory::kDense);
    for (std::size_t i = 0; i < data.size(); ++i) {
      ASSERT_DOUBLE_EQ(data[i], static_cast<Real>(i) * 0.5);
    }
  });
}

TEST_P(CollectivesAcrossP, AllreduceSumsContributions) {
  const int p = GetParam();
  run_world(p, [&](Comm& comm) {
    std::vector<Real> data(53);
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<Real>(comm.rank() + 1) * static_cast<Real>(i);
    }
    comm.allreduce_sum(std::span<Real>(data), CommCategory::kDense);
    const Real rank_sum = static_cast<Real>(p) * (p + 1) / 2;
    for (std::size_t i = 0; i < data.size(); ++i) {
      ASSERT_NEAR(data[i], rank_sum * static_cast<Real>(i), 1e-9);
    }
  });
}

TEST_P(CollectivesAcrossP, AllreduceMaxFindsMaximum) {
  const int p = GetParam();
  run_world(p, [&](Comm& comm) {
    std::vector<Real> data = {static_cast<Real>(comm.rank()),
                              static_cast<Real>(-comm.rank())};
    comm.allreduce_max(std::span<Real>(data), CommCategory::kDense);
    ASSERT_DOUBLE_EQ(data[0], static_cast<Real>(p - 1));
    ASSERT_DOUBLE_EQ(data[1], 0.0);
  });
}

TEST_P(CollectivesAcrossP, ReduceScatterSplitsReducedVector) {
  const int p = GetParam();
  run_world(p, [&](Comm& comm) {
    // Every rank contributes contrib[i] = i * (rank+1); chunk c receives
    // sum over ranks = i * p(p+1)/2 over its slice.
    std::vector<std::size_t> chunk_sizes(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      chunk_sizes[static_cast<std::size_t>(r)] =
          3 + static_cast<std::size_t>(r);  // uneven on purpose
    }
    const std::size_t total =
        std::accumulate(chunk_sizes.begin(), chunk_sizes.end(), 0ull);
    std::vector<Real> contrib(total);
    for (std::size_t i = 0; i < total; ++i) {
      contrib[i] = static_cast<Real>(i) * static_cast<Real>(comm.rank() + 1);
    }
    std::vector<Real> out(chunk_sizes[static_cast<std::size_t>(comm.rank())]);
    comm.reduce_scatter_sum(std::span<const Real>(contrib),
                            std::span<Real>(out), CommCategory::kDense);
    std::size_t offset = 0;
    for (int r = 0; r < comm.rank(); ++r) {
      offset += chunk_sizes[static_cast<std::size_t>(r)];
    }
    const Real rank_sum = static_cast<Real>(p) * (p + 1) / 2;
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_NEAR(out[i], static_cast<Real>(offset + i) * rank_sum, 1e-9);
    }
  });
}

TEST_P(CollectivesAcrossP, AllgathervConcatenatesInRankOrder) {
  const int p = GetParam();
  run_world(p, [&](Comm& comm) {
    // Rank r contributes r+1 copies of value r.
    std::vector<Index> mine(static_cast<std::size_t>(comm.rank()) + 1,
                            static_cast<Index>(comm.rank()));
    const auto gathered =
        comm.allgatherv(std::span<const Index>(mine), CommCategory::kDense);
    ASSERT_EQ(gathered.offsets.size(), static_cast<std::size_t>(p) + 1);
    for (int r = 0; r < p; ++r) {
      const auto chunk = gathered.chunk(r);
      ASSERT_EQ(chunk.size(), static_cast<std::size_t>(r) + 1);
      for (Index v : chunk) ASSERT_EQ(v, static_cast<Index>(r));
    }
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, CollectivesAcrossP,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 16));

TEST(Comm, RouteSwapsBuffersPairwise) {
  run_world(4, [](Comm& comm) {
    const int peer = comm.rank() ^ 1;  // 0<->1, 2<->3: an involution
    std::vector<Real> send(static_cast<std::size_t>(comm.rank()) + 2,
                           static_cast<Real>(comm.rank()));
    const auto recv =
        comm.route(std::span<const Real>(send), peer, CommCategory::kTranspose);
    ASSERT_EQ(recv.size(), static_cast<std::size_t>(peer) + 2);
    for (Real v : recv) ASSERT_DOUBLE_EQ(v, static_cast<Real>(peer));
  });
}

TEST(Comm, RouteDeliversAlongPermutation) {
  run_world(5, [](Comm& comm) {
    // Cyclic shift: rank r sends to r+1 (mod p).
    const int dest = (comm.rank() + 1) % comm.size();
    std::vector<Real> send(static_cast<std::size_t>(comm.rank()) + 1,
                           static_cast<Real>(comm.rank()));
    const auto recv =
        comm.route(std::span<const Real>(send), dest, CommCategory::kDense);
    const int src = (comm.rank() + comm.size() - 1) % comm.size();
    ASSERT_EQ(recv.size(), static_cast<std::size_t>(src) + 1);
    for (Real v : recv) ASSERT_DOUBLE_EQ(v, static_cast<Real>(src));
  });
}

TEST(Comm, RouteIdentityIsFree) {
  std::vector<CostMeter> meters;
  run_world(3, [](Comm& comm) {
    std::vector<Real> send = {static_cast<Real>(comm.rank())};
    const auto recv = comm.route(std::span<const Real>(send), comm.rank(),
                                 CommCategory::kDense);
    ASSERT_DOUBLE_EQ(recv[0], static_cast<Real>(comm.rank()));
  }, &meters);
  for (const auto& m : meters) {
    EXPECT_DOUBLE_EQ(m.words(CommCategory::kDense), 0.0);
  }
}

TEST(Comm, RouteRejectsNonPermutation) {
  EXPECT_THROW(run_world(3,
                         [](Comm& comm) {
                           // Everyone sends to rank 0: not a permutation.
                           std::vector<Real> send = {1.0};
                           comm.route(std::span<const Real>(send), 0,
                                      CommCategory::kDense);
                         }),
               Error);
}

TEST(Comm, SplitFormsRowGroups) {
  run_world(6, [](Comm& comm) {
    // Two groups of three: color = rank / 3.
    Comm sub = comm.split(comm.rank() / 3, comm.rank());
    ASSERT_EQ(sub.size(), 3);
    ASSERT_EQ(sub.rank(), comm.rank() % 3);
    // A broadcast within the subgroup must not leak across groups.
    std::vector<Real> v = {static_cast<Real>(comm.rank())};
    sub.broadcast(std::span<Real>(v), 0, CommCategory::kDense);
    ASSERT_DOUBLE_EQ(v[0], static_cast<Real>((comm.rank() / 3) * 3));
  });
}

TEST(Comm, SplitHonorsKeyOrdering) {
  run_world(4, [](Comm& comm) {
    // Reverse ordering via key.
    Comm sub = comm.split(0, -comm.rank());
    ASSERT_EQ(sub.size(), 4);
    ASSERT_EQ(sub.rank(), 3 - comm.rank());
  });
}

TEST(Comm, NestedSplitWorks) {
  run_world(8, [](Comm& comm) {
    Comm half = comm.split(comm.rank() / 4, comm.rank());
    Comm quarter = half.split(half.rank() / 2, half.rank());
    ASSERT_EQ(quarter.size(), 2);
    std::vector<Real> v = {static_cast<Real>(comm.rank())};
    quarter.allreduce_sum(std::span<Real>(v), CommCategory::kDense);
    // Pairs are (0,1), (2,3), ...
    const int base = (comm.rank() / 2) * 2;
    ASSERT_DOUBLE_EQ(v[0], static_cast<Real>(base + base + 1));
  });
}

TEST(Comm, AllgatherFixedSizeConcatenates) {
  run_world(4, [](Comm& comm) {
    std::vector<Real> mine(3, static_cast<Real>(comm.rank() + 1));
    const auto all =
        comm.allgather(std::span<const Real>(mine), CommCategory::kDense);
    ASSERT_EQ(all.size(), 12u);
    for (int r = 0; r < 4; ++r) {
      for (int i = 0; i < 3; ++i) {
        ASSERT_DOUBLE_EQ(all[static_cast<std::size_t>(r * 3 + i)],
                         static_cast<Real>(r + 1));
      }
    }
  });
}

TEST(Comm, AllgatherMismatchedSizesDetected) {
  EXPECT_THROW(
      run_world(2,
                [](Comm& comm) {
                  std::vector<Real> mine(
                      comm.rank() == 0 ? 2u : 3u, 0.0);
                  comm.allgather(std::span<const Real>(mine),
                                 CommCategory::kDense);
                }),
      Error);
}

TEST(Comm, RouteSwapChargesReceivedWords) {
  std::vector<CostMeter> meters;
  run_world(2, [](Comm& comm) {
    std::vector<Real> send(static_cast<std::size_t>(comm.rank()) + 5, 1.0);
    comm.route(std::span<const Real>(send), 1 - comm.rank(),
               CommCategory::kTranspose);
  }, &meters);
  // Rank 0 receives rank 1's 6 words; rank 1 receives 5.
  EXPECT_DOUBLE_EQ(meters[0].words(CommCategory::kTranspose), 6.0);
  EXPECT_DOUBLE_EQ(meters[1].words(CommCategory::kTranspose), 5.0);
  EXPECT_DOUBLE_EQ(meters[0].latency_units(CommCategory::kTranspose), 1.0);
}

TEST(Comm, EmptyPayloadCollectivesAreSafe) {
  run_world(3, [](Comm& comm) {
    std::vector<Real> empty;
    comm.broadcast(std::span<Real>(empty), 0, CommCategory::kDense);
    comm.allreduce_sum(std::span<Real>(empty), CommCategory::kDense);
    const auto gathered =
        comm.allgatherv(std::span<const Real>(empty), CommCategory::kDense);
    ASSERT_TRUE(gathered.data.empty());
    ASSERT_EQ(gathered.offsets.size(), 4u);
  });
}

TEST(Comm, LargePayloadBroadcastIntact) {
  run_world(2, [](Comm& comm) {
    std::vector<Real> data(1 << 18);
    if (comm.rank() == 0) {
      for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<Real>(i % 1009);
      }
    }
    comm.broadcast(std::span<Real>(data), 0, CommCategory::kDense);
    for (std::size_t i = 0; i < data.size(); i += 4097) {
      ASSERT_DOUBLE_EQ(data[i], static_cast<Real>(i % 1009));
    }
  });
}

TEST(Comm, MeterChargesBroadcastCost) {
  std::vector<CostMeter> meters;
  run_world(4, [](Comm& comm) {
    std::vector<Real> data(100, 1.0);
    comm.broadcast(std::span<Real>(data), 0, CommCategory::kDense);
  }, &meters);
  for (const auto& m : meters) {
    // alpha: lg 4 = 2; beta: 100 words.
    EXPECT_DOUBLE_EQ(m.latency_units(CommCategory::kDense), 2.0);
    EXPECT_DOUBLE_EQ(m.words(CommCategory::kDense), 100.0);
    EXPECT_DOUBLE_EQ(m.words(CommCategory::kSparse), 0.0);
  }
}

TEST(Comm, MeterChargesAllreduceRabenseifnerCost) {
  std::vector<CostMeter> meters;
  run_world(4, [](Comm& comm) {
    std::vector<Real> data(64, 1.0);
    comm.allreduce_sum(std::span<Real>(data), CommCategory::kDense);
  }, &meters);
  for (const auto& m : meters) {
    EXPECT_DOUBLE_EQ(m.latency_units(CommCategory::kDense), 4.0);  // 2 lg 4
    EXPECT_DOUBLE_EQ(m.words(CommCategory::kDense), 2.0 * 64 * 3 / 4);
  }
}

TEST(Comm, MeterControlCategoryExcludedFromModeledTime) {
  std::vector<CostMeter> meters;
  run_world(2, [](Comm& comm) {
    std::vector<Real> data(1000, 1.0);
    comm.broadcast(std::span<Real>(data), 0, CommCategory::kControl);
  }, &meters);
  const MachineModel m = MachineModel::summit();
  EXPECT_DOUBLE_EQ(meters[0].modeled_seconds(m), 0.0);
  EXPECT_GT(meters[0].words(CommCategory::kControl), 0.0);
  EXPECT_DOUBLE_EQ(meters[0].total_words(), 0.0);
}

TEST(Comm, MeterIndexPayloadCountedInRealWords) {
  std::vector<CostMeter> meters;
  run_world(2, [](Comm& comm) {
    std::vector<Index> data(10, 1);  // 10 * 8 bytes = 10 Real words
    comm.broadcast(std::span<Index>(data), 0, CommCategory::kSparse);
  }, &meters);
  EXPECT_DOUBLE_EQ(meters[0].words(CommCategory::kSparse), 10.0);
}

TEST(Comm, WorldSizeOneCollectivesAreFree) {
  std::vector<CostMeter> meters;
  run_world(1, [](Comm& comm) {
    std::vector<Real> data(10, 2.0);
    comm.broadcast(std::span<Real>(data), 0, CommCategory::kDense);
    comm.allreduce_sum(std::span<Real>(data), CommCategory::kDense);
    for (Real v : data) ASSERT_DOUBLE_EQ(v, 2.0);
  }, &meters);
  EXPECT_DOUBLE_EQ(meters[0].total_latency_units(), 0.0);
  EXPECT_DOUBLE_EQ(meters[0].total_words(), 0.0);
}

TEST(Comm, RankExceptionPropagatesToCaller) {
  EXPECT_THROW(
      run_world(4,
                [](Comm& comm) {
                  std::vector<Real> v(8, 0.0);
                  // Everyone reaches the eventual broadcast except rank 2,
                  // which fails first; peers must unwind, not deadlock.
                  if (comm.rank() == 2) throw Error("injected failure");
                  comm.broadcast(std::span<Real>(v), 0, CommCategory::kDense);
                }),
      Error);
}

TEST(Comm, BarrierSynchronizesPhases) {
  std::atomic<int> counter{0};
  run_world(8, [&](Comm& comm) {
    counter.fetch_add(1);
    comm.barrier();
    // After the barrier every rank must observe all increments.
    ASSERT_EQ(counter.load(), 8);
  });
}

TEST(Comm, MismatchedBroadcastSizesDetected) {
  EXPECT_THROW(run_world(2,
                         [](Comm& comm) {
                           std::vector<Real> v(
                               comm.rank() == 0 ? 4u : 5u, 0.0);
                           comm.broadcast(std::span<Real>(v), 0,
                                          CommCategory::kDense);
                         }),
               Error);
}

TEST(Grid, TwoDSquareCoordinates) {
  run_world(9, [](Comm& comm) {
    Grid3D g = Grid3D::create(comm, 3, 1);
    ASSERT_EQ(g.q, 3);
    ASSERT_EQ(g.l, 1);
    ASSERT_EQ(g.k, 0);
    ASSERT_EQ(g.i, comm.rank() / 3);
    ASSERT_EQ(g.j, comm.rank() % 3);
    ASSERT_EQ(g.row.size(), 3);
    ASSERT_EQ(g.col.size(), 3);
    ASSERT_EQ(g.row.rank(), g.j);
    ASSERT_EQ(g.col.rank(), g.i);
    // One layer is the 2D grid: there is nothing to reduce across layers.
    ASSERT_FALSE(g.fiber.valid());
  });
}

TEST(Grid, TwoDRowBroadcastStaysInRow) {
  run_world(4, [](Comm& comm) {
    Grid3D g = Grid3D::create(comm, 2, 1);
    ASSERT_FALSE(g.fiber.valid());
    std::vector<Real> v = {static_cast<Real>(comm.rank())};
    g.row.broadcast(std::span<Real>(v), 0, CommCategory::kDense);
    // Row i's rank-0 member is world rank i*q.
    ASSERT_DOUBLE_EQ(v[0], static_cast<Real>(g.i * g.q));
  });
}

TEST(Grid, ThreeDCoordinatesAndComms) {
  run_world(8, [](Comm& comm) {
    Grid3D g = Grid3D::create(comm, 2, 2);
    ASSERT_EQ(g.q, 2);
    ASSERT_EQ(g.l, 2);
    ASSERT_EQ(g.row.size(), 2);
    ASSERT_EQ(g.col.size(), 2);
    ASSERT_EQ(g.fiber.size(), 2);
    // Fiber reduce across layers: ranks (i,j,0) and (i,j,1).
    std::vector<Real> v = {static_cast<Real>(g.k + 1)};
    g.fiber.allreduce_sum(std::span<Real>(v), CommCategory::kDense);
    ASSERT_DOUBLE_EQ(v[0], 3.0);  // 1 + 2
  });
}

TEST(Grid, FineRangesTileEachCoarseBlock) {
  const Index n = 103;
  const int q = 3;
  for (int l : {1, 2, 3}) {
    for (int coarse = 0; coarse < q; ++coarse) {
      const auto [clo, chi] = block_range(n, q, coarse);
      Index prev = clo;
      for (int sub = 0; sub < l; ++sub) {
        const auto [flo, fhi] = fine_range(n, q, coarse, l, sub);
        EXPECT_EQ(flo, prev) << "l=" << l;
        EXPECT_LE(flo, fhi) << "l=" << l;
        prev = fhi;
      }
      EXPECT_EQ(prev, chi) << "l=" << l;
    }
  }
}

TEST(Grid, FineRangesAreGloballyContiguous) {
  for (const auto& [n, q, l] : {std::array<int, 3>{64, 4, 4},
                                {103, 3, 1},
                                {103, 3, 2}}) {
    Index cursor = 0;
    for (int coarse = 0; coarse < q; ++coarse) {
      for (int sub = 0; sub < l; ++sub) {
        const auto [lo, hi] = fine_range(n, q, coarse, l, sub);
        EXPECT_EQ(lo, cursor) << "n=" << n << " q=" << q << " l=" << l;
        cursor = hi;
      }
    }
    EXPECT_EQ(cursor, n) << "n=" << n << " q=" << q << " l=" << l;
  }
}

TEST(Grid, BlockRangeCoversDimensionExactly) {
  const Index n = 103;
  for (int parts : {1, 2, 3, 7, 10}) {
    Index covered = 0;
    Index prev_hi = 0;
    for (int idx = 0; idx < parts; ++idx) {
      const auto [lo, hi] = block_range(n, parts, idx);
      EXPECT_EQ(lo, prev_hi);
      EXPECT_LE(lo, hi);
      covered += hi - lo;
      prev_hi = hi;
    }
    EXPECT_EQ(covered, n);
    EXPECT_EQ(prev_hi, n);
  }
}

TEST(Machine, SpmmRateDegradationMatchesYangEtAl) {
  // Section VI-a cites a ~3x GFlops drop when average degree falls 62 -> 8.
  const MachineModel m = MachineModel::summit();
  const double wide = 64.0;
  const double ratio = m.spmm_gflops(62, wide) / m.spmm_gflops(8, wide);
  EXPECT_GT(ratio, 2.5);
  EXPECT_LT(ratio, 4.0);
}

TEST(Machine, SkinnyDenseOperandPenalized) {
  const MachineModel m = MachineModel::summit();
  EXPECT_GT(m.spmm_gflops(30, 16), 2.0 * m.spmm_gflops(30, 2));
}

TEST(Machine, WorkMeterAccumulatesModeledSeconds) {
  const MachineModel m = MachineModel::summit();
  WorkMeter w;
  w.add_spmm(m, /*nnz=*/1e6, /*width=*/64, /*avg_degree=*/50);
  w.add_gemm(m, /*flops=*/1e9);
  EXPECT_GT(w.spmm_seconds(), 0.0);
  EXPECT_NEAR(w.gemm_seconds(), 1e9 / (m.gemm_gflops * 1e9), 1e-12);
  EXPECT_DOUBLE_EQ(w.spmm_flops(), 2.0 * 1e6 * 64);
}

TEST(Machine, CeilLog2Values) {
  EXPECT_DOUBLE_EQ(ceil_log2(1), 0.0);
  EXPECT_DOUBLE_EQ(ceil_log2(2), 1.0);
  EXPECT_DOUBLE_EQ(ceil_log2(3), 2.0);
  EXPECT_DOUBLE_EQ(ceil_log2(4), 2.0);
  EXPECT_DOUBLE_EQ(ceil_log2(100), 7.0);
}

TEST(RootDirectBroadcast, DeliversRootDataAndChargesLikeBroadcast) {
  // broadcast_from must be observably identical to broadcast: same data on
  // every non-root, same alpha-beta charge on every rank — it only skips
  // the root's staging copy.
  const int p = 4;
  std::vector<CostMeter> meters;
  run_world(
      p,
      [&](Comm& comm) {
        const int root = 1;
        std::vector<Real> src;
        std::vector<Real> dst(29, -1);
        if (comm.rank() == root) {
          src.resize(29);
          for (std::size_t i = 0; i < src.size(); ++i) {
            src[i] = static_cast<Real>(i) * 1.5;
          }
        }
        comm.broadcast_from(std::span<const Real>(src), std::span<Real>(dst),
                            root, CommCategory::kDense);
        if (comm.rank() != root) {
          for (std::size_t i = 0; i < dst.size(); ++i) {
            ASSERT_DOUBLE_EQ(dst[i], static_cast<Real>(i) * 1.5);
          }
        } else {
          // Root's buffers are untouched.
          for (Real v : dst) ASSERT_DOUBLE_EQ(v, -1);
        }
      },
      &meters);
  std::vector<CostMeter> reference_meters;
  run_world(
      p,
      [&](Comm& comm) {
        std::vector<Real> data(29);
        if (comm.rank() == 1) {
          for (std::size_t i = 0; i < data.size(); ++i) {
            data[i] = static_cast<Real>(i) * 1.5;
          }
        }
        comm.broadcast(std::span<Real>(data), 1, CommCategory::kDense);
      },
      &reference_meters);
  for (int r = 0; r < p; ++r) {
    const auto& got = meters[static_cast<std::size_t>(r)];
    const auto& want = reference_meters[static_cast<std::size_t>(r)];
    EXPECT_EQ(got.words(CommCategory::kDense),
              want.words(CommCategory::kDense));
    EXPECT_EQ(got.latency_units(CommCategory::kDense),
              want.latency_units(CommCategory::kDense));
  }
}

// ---- Invalid-communicator diagnostics ----
// A default-constructed Comm is invalid; every collective must fail with a
// clear Error instead of dereferencing null state (regression for the
// formerly undiagnosed `Comm() = default` misuse).

TEST(InvalidComm, CollectivesFailWithDiagnostic) {
  Comm comm;  // default-constructed: invalid
  ASSERT_FALSE(comm.valid());
  ASSERT_EQ(comm.size(), 0);
  std::vector<Real> data(4, 1.0);
  Gathered<Real> gathered;
  EXPECT_THROW(comm.barrier(), Error);
  EXPECT_THROW(comm.meter(), Error);
  EXPECT_THROW(comm.quiesce(), Error);
  EXPECT_THROW(comm.split(0, 0), Error);
  EXPECT_THROW(comm.broadcast(std::span<Real>(data), 0,
                              CommCategory::kDense),
               Error);
  EXPECT_THROW(comm.broadcast_from(std::span<const Real>(data),
                                   std::span<Real>{}, 0,
                                   CommCategory::kDense),
               Error);
  EXPECT_THROW(comm.allreduce_sum(std::span<Real>(data),
                                  CommCategory::kDense),
               Error);
  EXPECT_THROW(comm.allreduce_max(std::span<Real>(data),
                                  CommCategory::kDense),
               Error);
  EXPECT_THROW(comm.reduce_scatter_sum(std::span<const Real>(data),
                                       std::span<Real>(data),
                                       CommCategory::kDense),
               Error);
  EXPECT_THROW(comm.allgather(std::span<const Real>(data),
                              CommCategory::kDense),
               Error);
  EXPECT_THROW(comm.allgatherv_into(std::span<const Real>(data), gathered,
                                    CommCategory::kDense),
               Error);
  EXPECT_THROW(comm.route(std::span<const Real>(data), 0,
                          CommCategory::kDense),
               Error);
  EXPECT_THROW(comm.ibroadcast_from(std::span<const Real>(data),
                                    std::span<Real>{}, 0,
                                    CommCategory::kDense),
               Error);
  EXPECT_THROW(comm.ireduce_scatter_sum(std::span<const Real>(data),
                                        std::span<Real>(data),
                                        CommCategory::kDense),
               Error);
  EXPECT_THROW(comm.iallgatherv_into(std::span<const Real>(data), gathered,
                                     CommCategory::kDense),
               Error);
  EXPECT_THROW(comm.iallreduce_sum(std::span<const Real>(data),
                                   std::span<Real>(data),
                                   CommCategory::kDense),
               Error);
  try {
    comm.barrier();
    FAIL() << "barrier on invalid Comm did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("invalid Comm"), std::string::npos);
  }
}

TEST(InvalidComm, CompressedCollectivesFailWithDiagnostic) {
  // Diagnostic parity: the lossy entry points must fail like the exact
  // ones, not dereference null state (or worse, bind the CompressBuf to a
  // dead communicator).
  Comm comm;  // default-constructed: invalid
  std::vector<Real> data(8, 1.0);
  CompressBuf buf;
  EXPECT_THROW(comm.allreduce_sum_compressed(std::span<Real>(data),
                                             CompressMode::kInt8, buf),
               Error);
  EXPECT_THROW(comm.reduce_scatter_sum_compressed(
                   std::span<const Real>(data), std::span<Real>(data),
                   CompressMode::kInt8, buf),
               Error);
  EXPECT_THROW(comm.iallreduce_sum_compressed(std::span<const Real>(data),
                                              std::span<Real>(data),
                                              CompressMode::kInt8, buf),
               Error);
  EXPECT_THROW(comm.ireduce_scatter_sum_compressed(
                   std::span<const Real>(data), std::span<Real>(data),
                   CompressMode::kInt8, buf),
               Error);
  try {
    comm.allreduce_sum_compressed(std::span<Real>(data), CompressMode::kInt8,
                                  buf);
    FAIL() << "compressed all-reduce on invalid Comm did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("invalid Comm"), std::string::npos);
  }
  EXPECT_TRUE(buf.residual.empty());  // never bound, never touched
}

TEST(Compressed, ResidualCarriesWithinAStreamAndResetsOnRebind) {
  // Error feedback must carry across rounds of one (communicator, length)
  // stream, and must NOT leak when the same CompressBuf is reused with a
  // different length or a different communicator — reuse after a rebind
  // must be bitwise identical to starting from a fresh buf.
  const std::size_t n = 300;  // straddles a codec chunk boundary
  run_world(2, [&](Comm& world) {
    std::vector<Real> base(n);
    for (std::size_t i = 0; i < n; ++i) {
      base[i] = std::sin(0.1 * static_cast<double>(i + 1) *
                         (world.rank() + 1));
    }
    const auto round = [](Comm& c, CompressBuf& buf,
                          std::span<const Real> src, std::vector<Real>& out) {
      out.assign(src.begin(), src.end());
      buf.error_feedback = true;
      c.allreduce_sum_compressed(std::span<Real>(out), CompressMode::kInt8,
                                 buf);
    };

    std::vector<Real> fresh1;
    std::vector<Real> fresh2;
    {
      CompressBuf fresh;
      round(world, fresh, base, fresh1);
    }
    {
      CompressBuf fresh;
      round(world, fresh, base, fresh2);
    }
    ASSERT_EQ(fresh1, fresh2);  // determinism baseline

    // Same buf, same stream: round 2 re-injects round 1's residual and
    // must differ from a fresh round (the carry is observable).
    CompressBuf buf;
    std::vector<Real> r1;
    std::vector<Real> r2;
    round(world, buf, base, r1);
    EXPECT_EQ(r1, fresh1);
    ASSERT_EQ(buf.residual.size(), n);
    round(world, buf, base, r2);
    EXPECT_NE(r2, fresh1);

    // Length change rebinds: the stale residual must not leak.
    const std::vector<Real> shorter(base.begin(),
                                    base.begin() + static_cast<long>(n - 7));
    std::vector<Real> fresh_short;
    {
      CompressBuf fresh;
      round(world, fresh, shorter, fresh_short);
    }
    std::vector<Real> reused_short;
    round(world, buf, shorter, reused_short);
    EXPECT_EQ(reused_short, fresh_short);

    // Communicator change rebinds too (same membership, new identity).
    Comm sub = world.split(/*color=*/0, /*key=*/world.rank());
    std::vector<Real> fresh_sub;
    {
      CompressBuf fresh;
      round(sub, fresh, shorter, fresh_sub);
    }
    round(world, buf, shorter, reused_short);  // repopulate buf's residual
    std::vector<Real> reused_sub;
    round(sub, buf, shorter, reused_sub);
    EXPECT_EQ(reused_sub, fresh_sub);
  });
}

// ---- Nonblocking collectives ----

TEST(Nonblocking, BroadcastDeliversAndChargesLikeBlocking) {
  const int p = 4;
  std::vector<CostMeter> meters;
  run_world(
      p,
      [&](Comm& comm) {
        const int root = 2;
        std::vector<Real> src;
        std::vector<Real> dst(31, -1);
        if (comm.rank() == root) {
          src.resize(31);
          for (std::size_t i = 0; i < src.size(); ++i) {
            src[i] = static_cast<Real>(i) * 0.25;
          }
        }
        PendingOp op = comm.ibroadcast_from(std::span<const Real>(src),
                                            std::span<Real>(dst), root,
                                            CommCategory::kDense);
        EXPECT_TRUE(op.pending());
        op.wait();
        EXPECT_FALSE(op.pending());
        // A second wait() is the legacy no-op only while the contract
        // checker is off; armed (the default in assertion-keeping
        // builds) it is diagnosed as a double-wait —
        // tests/contract_test.cpp pins the diagnostic text.
        if (!contract::enabled()) op.wait();
        if (comm.rank() != root) {
          for (std::size_t i = 0; i < dst.size(); ++i) {
            ASSERT_DOUBLE_EQ(dst[i], static_cast<Real>(i) * 0.25);
          }
        }
        comm.quiesce();  // src may be released now
      },
      &meters);
  // Identical charge to the blocking broadcast: lg 4 = 2 latency units,
  // 31 words, on every rank.
  for (const auto& m : meters) {
    EXPECT_DOUBLE_EQ(m.latency_units(CommCategory::kDense), 2.0);
    EXPECT_DOUBLE_EQ(m.words(CommCategory::kDense), 31.0);
  }
}

TEST(Nonblocking, OutOfOrderWaitsComplete) {
  run_world(3, [](Comm& comm) {
    std::vector<Real> src1, src2;
    std::vector<Real> dst1(8, -1), dst2(5, -1);
    if (comm.rank() == 0) {
      src1.assign(8, 10.0);
      src2.assign(5, 20.0);
    }
    PendingOp op1 = comm.ibroadcast_from(std::span<const Real>(src1),
                                         std::span<Real>(dst1), 0,
                                         CommCategory::kDense);
    PendingOp op2 = comm.ibroadcast_from(std::span<const Real>(src2),
                                         std::span<Real>(dst2), 0,
                                         CommCategory::kDense);
    // Waits in reverse posting order must both complete.
    op2.wait();
    op1.wait();
    if (comm.rank() != 0) {
      for (Real v : dst1) ASSERT_DOUBLE_EQ(v, 10.0);
      for (Real v : dst2) ASSERT_DOUBLE_EQ(v, 20.0);
    }
    comm.quiesce();
  });
}

TEST(Nonblocking, PostedButUnwaitedOpCompletesOnDestruction) {
  std::vector<CostMeter> meters;
  run_world(
      2,
      [&](Comm& comm) {
        std::vector<Real> src;
        std::vector<Real> dst(6, -1);
        if (comm.rank() == 0) src.assign(6, 7.5);
        {
          PendingOp op = comm.ibroadcast_from(std::span<const Real>(src),
                                              std::span<Real>(dst), 0,
                                              CommCategory::kDense);
          // Dropped without wait(): the destructor must complete it.
        }
        if (comm.rank() == 1) {
          for (Real v : dst) ASSERT_DOUBLE_EQ(v, 7.5);
        }
        comm.quiesce();
      },
      &meters);
  // The charge is applied by the destructor's implicit wait.
  for (const auto& m : meters) {
    EXPECT_DOUBLE_EQ(m.words(CommCategory::kDense), 6.0);
  }
}

TEST(Nonblocking, ReduceScatterMatchesBlocking) {
  const int p = 3;
  std::vector<CostMeter> meters, blocking_meters;
  std::vector<std::vector<Real>> outs(p), blocking_outs(p);
  run_world(
      p,
      [&](Comm& comm) {
        std::vector<Real> contrib(9);
        for (std::size_t i = 0; i < contrib.size(); ++i) {
          contrib[i] = static_cast<Real>(i + comm.rank());
        }
        std::vector<Real> out(static_cast<std::size_t>(comm.rank()) + 2);
        PendingOp op = comm.ireduce_scatter_sum(
            std::span<const Real>(contrib), std::span<Real>(out),
            CommCategory::kDense);
        op.wait();
        comm.quiesce();
        outs[static_cast<std::size_t>(comm.rank())] = out;
      },
      &meters);
  run_world(
      p,
      [&](Comm& comm) {
        std::vector<Real> contrib(9);
        for (std::size_t i = 0; i < contrib.size(); ++i) {
          contrib[i] = static_cast<Real>(i + comm.rank());
        }
        std::vector<Real> out(static_cast<std::size_t>(comm.rank()) + 2);
        comm.reduce_scatter_sum(std::span<const Real>(contrib),
                                std::span<Real>(out), CommCategory::kDense);
        blocking_outs[static_cast<std::size_t>(comm.rank())] = out;
      },
      &blocking_meters);
  for (int r = 0; r < p; ++r) {
    ASSERT_EQ(outs[static_cast<std::size_t>(r)],
              blocking_outs[static_cast<std::size_t>(r)]);
    EXPECT_EQ(meters[static_cast<std::size_t>(r)].words(CommCategory::kDense),
              blocking_meters[static_cast<std::size_t>(r)].words(
                  CommCategory::kDense));
    EXPECT_EQ(meters[static_cast<std::size_t>(r)].latency_units(
                  CommCategory::kDense),
              blocking_meters[static_cast<std::size_t>(r)].latency_units(
                  CommCategory::kDense));
  }
}

TEST(Nonblocking, AllgathervMatchesBlocking) {
  const int p = 4;
  std::vector<CostMeter> meters, blocking_meters;
  run_world(
      p,
      [&](Comm& comm) {
        std::vector<Index> mine(static_cast<std::size_t>(comm.rank()) + 1,
                                static_cast<Index>(comm.rank()));
        Gathered<Index> out;
        comm.iallgatherv_into(std::span<const Index>(mine), out,
                              CommCategory::kDense)
            .wait();
        comm.quiesce();
        ASSERT_EQ(out.offsets.size(), static_cast<std::size_t>(p) + 1);
        for (int r = 0; r < p; ++r) {
          const auto chunk = out.chunk(r);
          ASSERT_EQ(chunk.size(), static_cast<std::size_t>(r) + 1);
          for (Index v : chunk) ASSERT_EQ(v, static_cast<Index>(r));
        }
      },
      &meters);
  run_world(
      p,
      [&](Comm& comm) {
        std::vector<Index> mine(static_cast<std::size_t>(comm.rank()) + 1,
                                static_cast<Index>(comm.rank()));
        comm.allgatherv(std::span<const Index>(mine), CommCategory::kDense);
      },
      &blocking_meters);
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(meters[static_cast<std::size_t>(r)].words(CommCategory::kDense),
              blocking_meters[static_cast<std::size_t>(r)].words(
                  CommCategory::kDense));
  }
}

TEST(Nonblocking, AllreduceSumMatchesBlockingBitwise) {
  const int p = 4;
  std::vector<CostMeter> meters, blocking_meters;
  std::vector<std::vector<Real>> outs(p), blocking_outs(p);
  const auto contrib_for = [](int rank) {
    std::vector<Real> c(17);
    for (std::size_t i = 0; i < c.size(); ++i) {
      c[i] = std::sin(static_cast<Real>(i) * (rank + 1));  // non-trivial FP
    }
    return c;
  };
  run_world(
      p,
      [&](Comm& comm) {
        const std::vector<Real> contrib = contrib_for(comm.rank());
        std::vector<Real> out(contrib.size());
        comm.iallreduce_sum(std::span<const Real>(contrib),
                            std::span<Real>(out), CommCategory::kDense)
            .wait();
        comm.quiesce();
        outs[static_cast<std::size_t>(comm.rank())] = out;
      },
      &meters);
  run_world(
      p,
      [&](Comm& comm) {
        std::vector<Real> data = contrib_for(comm.rank());
        comm.allreduce_sum(std::span<Real>(data), CommCategory::kDense);
        blocking_outs[static_cast<std::size_t>(comm.rank())] = data;
      },
      &blocking_meters);
  for (int r = 0; r < p; ++r) {
    // Bitwise equality: the nonblocking reduction uses the same
    // rank-ascending element order as the blocking one.
    ASSERT_EQ(outs[static_cast<std::size_t>(r)],
              blocking_outs[static_cast<std::size_t>(r)]);
    EXPECT_EQ(meters[static_cast<std::size_t>(r)].words(CommCategory::kDense),
              blocking_meters[static_cast<std::size_t>(r)].words(
                  CommCategory::kDense));
    EXPECT_EQ(meters[static_cast<std::size_t>(r)].latency_units(
                  CommCategory::kDense),
              blocking_meters[static_cast<std::size_t>(r)].latency_units(
                  CommCategory::kDense));
  }
}

TEST(Nonblocking, ComputeBetweenPostAndWaitSeesNoInterference) {
  // The advertised pattern: post, run an unrelated *blocking* collective
  // plus local compute, then wait. The pending op must be unaffected.
  run_world(3, [](Comm& comm) {
    std::vector<Real> src;
    std::vector<Real> dst(12, -1);
    if (comm.rank() == 1) src.assign(12, 3.0);
    PendingOp op = comm.ibroadcast_from(std::span<const Real>(src),
                                        std::span<Real>(dst), 1,
                                        CommCategory::kDense);
    std::vector<Real> unrelated = {static_cast<Real>(comm.rank())};
    comm.allreduce_sum(std::span<Real>(unrelated), CommCategory::kControl);
    ASSERT_DOUBLE_EQ(unrelated[0], 3.0);  // 0 + 1 + 2
    op.wait();
    if (comm.rank() != 1) {
      for (Real v : dst) ASSERT_DOUBLE_EQ(v, 3.0);
    }
    comm.quiesce();
  });
}

TEST(Nonblocking, TooManyOutstandingOpsDiagnosed) {
  // The buffers outlive the world: rank 1 unwinds from the diagnosed post
  // by completing its pending ops in their destructors, which read rank
  // 0's source after rank 0 (a passive root) may have left its frame.
  std::vector<std::vector<Real>> src(2, std::vector<Real>(2, 1.0));
  std::vector<std::vector<Real>> dst(2, std::vector<Real>(2, 0.0));
  EXPECT_THROW(
      run_world(2,
                [&](Comm& comm) {
                  const auto r = static_cast<std::size_t>(comm.rank());
                  std::vector<PendingOp> ops;
                  for (int i = 0; i < 17; ++i) {  // cap is 16 in flight
                    ops.push_back(comm.ibroadcast_from(
                        std::span<const Real>(src[r]),
                        std::span<Real>(dst[r]), 0, CommCategory::kDense));
                  }
                }),
      Error);
}

TEST(Nonblocking, PostOntoOwnUnwaitedOpThrowsTyped) {
  // A channel is reused only after every rank finished its previous op.
  // With ticket 0 still pending here, ticket 16 lands on its channel, and
  // the post would wait forever for this rank's own wait(). It must be a
  // typed error instead — with the checker on or off — and must claim
  // nothing, so the communicator runs on once the held op is waited.
  run_world(2, [](Comm& comm) {
    std::vector<Real> held_in(4, Real{1});
    std::vector<Real> held_out(4);
    PendingOp held = comm.iallreduce_sum(std::span<const Real>(held_in),
                                         std::span<Real>(held_out),
                                         CommCategory::kDense);
    std::vector<Real> in(4, Real{2});
    std::vector<Real> out(4);
    for (int i = 0; i < 15; ++i) {
      comm.iallreduce_sum(std::span<const Real>(in), std::span<Real>(out),
                          CommCategory::kDense)
          .wait();
    }
    try {
      comm.iallreduce_sum(std::span<const Real>(in), std::span<Real>(out),
                          CommCategory::kDense)
          .wait();
      ADD_FAILURE() << "post onto the rank's own unwaited op did not throw";
    } catch (const ContractViolation& e) {
      EXPECT_EQ(e.rank(), comm.rank());
      EXPECT_STREQ(e.op(), "iallreduce_sum");
      EXPECT_EQ(e.category(), CommCategory::kDense);
      EXPECT_NE(std::string(e.what()).find("own unwaited op"),
                std::string::npos)
          << e.what();
    }
    // The blocking form posts on the same channel and is refused alike.
    EXPECT_THROW(comm.allreduce_sum(std::span<Real>(in), CommCategory::kDense),
                 ContractViolation);
    held.wait();
    comm.allreduce_sum(std::span<Real>(in), CommCategory::kDense);
    EXPECT_DOUBLE_EQ(in[0], 4.0);
    EXPECT_DOUBLE_EQ(held_out[0], 2.0);
    comm.quiesce();
  });
}

TEST(Nonblocking, RankFailureReleasesPendingWaiters) {
  // Rank 2 fails before posting; the other ranks block in wait() and must
  // be released by the abort flag instead of deadlocking.
  EXPECT_THROW(
      run_world(3,
                [](Comm& comm) {
                  if (comm.rank() == 2) throw Error("injected failure");
                  std::vector<Real> src(4, 1.0);
                  std::vector<Real> dst(4, 0.0);
                  const std::span<const Real> src_span =
                      comm.rank() == 0 ? std::span<const Real>(src)
                                       : std::span<const Real>{};
                  PendingOp op = comm.ibroadcast_from(
                      src_span, std::span<Real>(dst), 0,
                      CommCategory::kDense);
                  op.wait();
                }),
      Error);
}

TEST(Nonblocking, ChannelsRecycleAcrossManyOps) {
  // More ops than channels (16) exercises the generation-based recycling.
  run_world(2, [](Comm& comm) {
    std::vector<Real> src(3);
    std::vector<Real> dst(3, -1);
    for (int round = 0; round < 50; ++round) {
      if (comm.rank() == 0) {
        src.assign(3, static_cast<Real>(round));
      }
      PendingOp op = comm.ibroadcast_from(
          comm.rank() == 0 ? std::span<const Real>(src)
                           : std::span<const Real>{},
          comm.rank() == 0 ? std::span<Real>{} : std::span<Real>(dst), 0,
          CommCategory::kControl);
      op.wait();
      comm.quiesce();
      if (comm.rank() == 1) {
        for (Real v : dst) ASSERT_DOUBLE_EQ(v, static_cast<Real>(round));
      }
    }
  });
}

TEST(Nonblocking, QuiesceReleasesSourcesForReuse) {
  // The documented release discipline: after quiesce(), every rank has
  // completed every posted op, so a broadcast source may be rewritten.
  run_world(3, [](Comm& comm) {
    std::vector<Real> src(5);
    std::vector<Real> dst(5, -1);
    for (int round = 0; round < 3; ++round) {
      if (comm.rank() == 0) src.assign(5, static_cast<Real>(round + 1));
      PendingOp op = comm.ibroadcast_from(
          comm.rank() == 0 ? std::span<const Real>(src)
                           : std::span<const Real>{},
          comm.rank() == 0 ? std::span<Real>{} : std::span<Real>(dst), 0,
          CommCategory::kControl);
      const std::uint64_t ticket = op.ticket();
      op.wait();
      if (comm.rank() != 0) {
        for (Real v : dst) ASSERT_DOUBLE_EQ(v, static_cast<Real>(round + 1));
      }
      // Single-op release: equivalent to quiesce() here, but would not
      // wait on deliberately-pending later ops.
      comm.quiesce_op(ticket);
    }
    comm.quiesce();  // full drain is idempotent
  });
}

// ---- Overlap accounting on the CostMeter ----

TEST(OverlapAccounting, RegionRecordsMaxOfCommAndCompute) {
  const MachineModel m = MachineModel::summit();
  CostMeter meter;
  // Region 1: comm-heavy. 1e9 words at beta seconds/word dominates.
  meter.begin_overlap_region();
  meter.add(CommCategory::kDense, 0.0, 1e9);
  const double comm1 = m.beta * 1e9;
  meter.end_overlap_region(m, /*compute_seconds=*/0.001);
  // Region 2: compute-heavy.
  meter.begin_overlap_region();
  meter.add(CommCategory::kDense, 0.0, 10.0);
  const double comm2 = m.beta * 10.0;
  meter.end_overlap_region(m, /*compute_seconds=*/0.5);
  EXPECT_DOUBLE_EQ(meter.overlap_regions(), 2.0);
  EXPECT_DOUBLE_EQ(meter.overlap_serialized_seconds(),
                   comm1 + 0.001 + comm2 + 0.5);
  EXPECT_DOUBLE_EQ(meter.overlap_overlapped_seconds(),
                   std::max(comm1, 0.001) + std::max(comm2, 0.5));
  EXPECT_GT(meter.overlap_saved_seconds(), 0.0);
  // Control traffic stays excluded from the region's comm seconds.
  CostMeter control_only;
  control_only.begin_overlap_region();
  control_only.add(CommCategory::kControl, 5.0, 5e9);
  control_only.end_overlap_region(m, 0.25);
  EXPECT_DOUBLE_EQ(control_only.overlap_serialized_seconds(), 0.25);
  EXPECT_DOUBLE_EQ(control_only.overlap_overlapped_seconds(), 0.25);
}

TEST(OverlapAccounting, TotalsSurviveSubtractAndMerge) {
  const MachineModel m = MachineModel::summit();
  CostMeter a;
  a.begin_overlap_region();
  a.add(CommCategory::kDense, 2.0, 100.0);
  a.end_overlap_region(m, 0.5);
  CostMeter before;  // empty baseline
  CostMeter delta = a;
  delta.subtract(before);
  EXPECT_DOUBLE_EQ(delta.overlap_serialized_seconds(),
                   a.overlap_serialized_seconds());
  CostMeter merged;
  merged.merge_max(a);
  EXPECT_DOUBLE_EQ(merged.overlap_overlapped_seconds(),
                   a.overlap_overlapped_seconds());
  merged.merge_sum(a);
  EXPECT_DOUBLE_EQ(merged.overlap_regions(), 2.0 * a.overlap_regions());
}

TEST(AllgathervInto, ReusesStorageAcrossCalls) {
  run_world(3, [&](Comm& comm) {
    Gathered<Real> out;
    for (int round = 0; round < 3; ++round) {
      std::vector<Real> mine(static_cast<std::size_t>(comm.rank()) + 2,
                             static_cast<Real>(comm.rank() + round));
      comm.allgatherv_into(std::span<const Real>(mine), out,
                           CommCategory::kControl);
      ASSERT_EQ(out.offsets.size(), 4u);
      for (int r = 0; r < 3; ++r) {
        const auto chunk = out.chunk(r);
        ASSERT_EQ(chunk.size(), static_cast<std::size_t>(r) + 2);
        for (Real v : chunk) {
          ASSERT_DOUBLE_EQ(v, static_cast<Real>(r + round));
        }
      }
    }
  });
}

// ---- alltoallv: the halo-exchange primitive ----

/// Each rank sends `dest + 1` copies of the value 100*rank + dest to every
/// destination; every receive is fully checkable.
TEST(Alltoallv, MovesEveryChunkToItsDestination) {
  const int p = 4;
  run_world(p, [&](Comm& comm) {
    std::vector<Real> send;
    std::vector<std::size_t> offsets = {0};
    for (int d = 0; d < p; ++d) {
      for (int k = 0; k <= d; ++k) {
        send.push_back(static_cast<Real>(100 * comm.rank() + d));
      }
      offsets.push_back(send.size());
    }
    Gathered<Real> out;
    comm.alltoallv_into(std::span<const Real>(send),
                        std::span<const std::size_t>(offsets), out,
                        CommCategory::kDense);
    ASSERT_EQ(out.offsets.size(), static_cast<std::size_t>(p) + 1);
    for (int r = 0; r < p; ++r) {
      const auto chunk = out.chunk(r);
      ASSERT_EQ(chunk.size(), static_cast<std::size_t>(comm.rank()) + 1);
      for (Real v : chunk) {
        ASSERT_DOUBLE_EQ(v, static_cast<Real>(100 * r + comm.rank()));
      }
    }
  });
}

TEST(Alltoallv, EmptyChunksAndSelfOnlyAreSafe) {
  run_world(3, [&](Comm& comm) {
    // Only the self chunk is populated: nothing should travel or charge.
    std::vector<Real> send(2, static_cast<Real>(comm.rank()));
    std::vector<std::size_t> offsets(4, 0);
    for (int d = comm.rank(); d < 3; ++d) offsets[static_cast<std::size_t>(d) + 1] = 2;
    const CostMeter before = comm.meter();
    Gathered<Real> out;
    comm.alltoallv_into(std::span<const Real>(send),
                        std::span<const std::size_t>(offsets), out,
                        CommCategory::kDense);
    CostMeter delta = comm.meter();
    delta.subtract(before);
    ASSERT_EQ(out.chunk(comm.rank()).size(), 2u);
    ASSERT_DOUBLE_EQ(delta.words(CommCategory::kDense), 0.0);
  });
}

TEST(Alltoallv, NonblockingMatchesBlockingAndChargesBitwise) {
  const int p = 4;
  std::vector<CostMeter> blocking_meters;
  std::vector<CostMeter> nonblocking_meters;
  std::vector<std::vector<Real>> blocking_data(p);
  std::vector<std::vector<Real>> nonblocking_data(p);
  const auto payload = [&](Comm& comm, std::vector<Real>& send,
                           std::vector<std::size_t>& offsets) {
    offsets = {0};
    for (int d = 0; d < p; ++d) {
      for (int k = 0; k < (comm.rank() + d) % 3; ++k) {
        send.push_back(static_cast<Real>(comm.rank() * 10 + d + k));
      }
      offsets.push_back(send.size());
    }
  };
  run_world(p, [&](Comm& comm) {
    std::vector<Real> send;
    std::vector<std::size_t> offsets;
    payload(comm, send, offsets);
    Gathered<Real> out;
    comm.alltoallv_into(std::span<const Real>(send),
                        std::span<const std::size_t>(offsets), out,
                        CommCategory::kHalo);
    blocking_data[static_cast<std::size_t>(comm.rank())] = out.data;
  }, &blocking_meters);
  run_world(p, [&](Comm& comm) {
    std::vector<Real> send;
    std::vector<std::size_t> offsets;
    payload(comm, send, offsets);
    Gathered<Real> out;
    PendingOp op = comm.ialltoallv_into(
        std::span<const Real>(send), std::span<const std::size_t>(offsets),
        out, CommCategory::kHalo);
    EXPECT_TRUE(op.pending());
    op.wait();
    comm.quiesce();  // release send/offsets before they go out of scope
    nonblocking_data[static_cast<std::size_t>(comm.rank())] = out.data;
  }, &nonblocking_meters);
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(blocking_data[static_cast<std::size_t>(r)],
              nonblocking_data[static_cast<std::size_t>(r)]);
    EXPECT_EQ(blocking_meters[static_cast<std::size_t>(r)].words(
                  CommCategory::kHalo),
              nonblocking_meters[static_cast<std::size_t>(r)].words(
                  CommCategory::kHalo));
    EXPECT_EQ(blocking_meters[static_cast<std::size_t>(r)].latency_units(
                  CommCategory::kHalo),
              nonblocking_meters[static_cast<std::size_t>(r)].latency_units(
                  CommCategory::kHalo));
  }
}

TEST(Alltoallv, PerSourceDrainMatchesBlockingAndChargesBitwise) {
  // ialltoallv_post + await_source: zero-copy views per source, in any
  // order, with charges telescoping bitwise to the blocking form's.
  const int p = 4;
  std::vector<CostMeter> blocking_meters;
  std::vector<CostMeter> drain_meters;
  std::vector<std::vector<Real>> blocking_data(p);
  std::vector<std::vector<Real>> drain_data(p);
  const auto payload = [&](Comm& comm, std::vector<Real>& send,
                           std::vector<std::size_t>& offsets) {
    offsets = {0};
    for (int d = 0; d < p; ++d) {
      for (int k = 0; k < (comm.rank() + 2 * d) % 4; ++k) {
        send.push_back(static_cast<Real>(comm.rank() * 100 + d * 10 + k));
      }
      offsets.push_back(send.size());
    }
  };
  run_world(p, [&](Comm& comm) {
    std::vector<Real> send;
    std::vector<std::size_t> offsets;
    payload(comm, send, offsets);
    Gathered<Real> out;
    comm.alltoallv_into(std::span<const Real>(send),
                        std::span<const std::size_t>(offsets), out,
                        CommCategory::kHalo);
    blocking_data[static_cast<std::size_t>(comm.rank())] = out.data;
  }, &blocking_meters);
  run_world(p, [&](Comm& comm) {
    std::vector<Real> send;
    std::vector<std::size_t> offsets;
    payload(comm, send, offsets);
    PendingOp op = comm.ialltoallv_post(
        std::span<const Real>(send), std::span<const std::size_t>(offsets),
        CommCategory::kHalo);
    EXPECT_TRUE(op.pending());
    // Drain out of order: descending sources, self last — the assembled
    // concatenation must still be the blocking result. Chunks the
    // receiver can prove empty from the payload rule go through
    // skip_source (no rendezvous), which must charge identically.
    std::vector<std::vector<Real>> chunks(static_cast<std::size_t>(p));
    for (int src = p - 1; src >= 0; --src) {
      if (src == comm.rank()) continue;
      if ((src + 2 * comm.rank()) % 4 == 0) {
        op.skip_source(src);
        continue;
      }
      const auto view = op.await_source<Real>(src);
      chunks[static_cast<std::size_t>(src)].assign(view.begin(), view.end());
    }
    const auto self = op.await_source<Real>(comm.rank());
    chunks[static_cast<std::size_t>(comm.rank())].assign(self.begin(),
                                                         self.end());
    op.wait();  // all drained: releases the channel, charges nothing more
    comm.quiesce();  // release send/offsets before they go out of scope
    auto& mine = drain_data[static_cast<std::size_t>(comm.rank())];
    for (const auto& chunk : chunks) {
      mine.insert(mine.end(), chunk.begin(), chunk.end());
    }
  }, &drain_meters);
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(blocking_data[static_cast<std::size_t>(r)],
              drain_data[static_cast<std::size_t>(r)]);
    EXPECT_EQ(blocking_meters[static_cast<std::size_t>(r)].words(
                  CommCategory::kHalo),
              drain_meters[static_cast<std::size_t>(r)].words(
                  CommCategory::kHalo));
    EXPECT_EQ(blocking_meters[static_cast<std::size_t>(r)].latency_units(
                  CommCategory::kHalo),
              drain_meters[static_cast<std::size_t>(r)].latency_units(
                  CommCategory::kHalo));
  }
}

TEST(Alltoallv, AbandonedDrainStillChargesFullVolumeAtWait) {
  // A drain op wait()ed (or destroyed) with sources left undrained must
  // await and charge them — charge parity cannot depend on how many
  // chunks the caller consumed.
  const int p = 3;
  std::vector<CostMeter> full_meters;
  std::vector<CostMeter> abandoned_meters;
  const auto payload = [&](std::vector<Real>& send,
                           std::vector<std::size_t>& offsets) {
    send.assign(2 * static_cast<std::size_t>(p), 1.5);
    offsets.clear();
    for (int d = 0; d <= p; ++d) {
      offsets.push_back(2 * static_cast<std::size_t>(d));
    }
  };
  run_world(p, [&](Comm& comm) {
    std::vector<Real> send;
    std::vector<std::size_t> offsets;
    payload(send, offsets);
    Gathered<Real> out;
    comm.alltoallv_into(std::span<const Real>(send),
                        std::span<const std::size_t>(offsets), out,
                        CommCategory::kDense);
  }, &full_meters);
  run_world(p, [&](Comm& comm) {
    std::vector<Real> send;
    std::vector<std::size_t> offsets;
    payload(send, offsets);
    {
      PendingOp op = comm.ialltoallv_post(
          std::span<const Real>(send),
          std::span<const std::size_t>(offsets), CommCategory::kDense);
      // Drain only source 0, then let the handle complete itself.
      op.await_source<Real>(0);
    }
    comm.quiesce();
  }, &abandoned_meters);
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(full_meters[static_cast<std::size_t>(r)].words(
                  CommCategory::kDense),
              abandoned_meters[static_cast<std::size_t>(r)].words(
                  CommCategory::kDense));
    EXPECT_EQ(full_meters[static_cast<std::size_t>(r)].latency_units(
                  CommCategory::kDense),
              abandoned_meters[static_cast<std::size_t>(r)].latency_units(
                  CommCategory::kDense));
  }
}

TEST(Alltoallv, DrainDiagnosesMisuse) {
  run_world(2, [&](Comm& comm) {
    std::vector<Real> send(2, 1.0);
    std::vector<std::size_t> offsets = {0, 1, 2};
    PendingOp op = comm.ialltoallv_post(
        std::span<const Real>(send), std::span<const std::size_t>(offsets),
        CommCategory::kDense);
    op.await_source<Real>(1 - comm.rank());
    EXPECT_THROW(op.await_source<Real>(1 - comm.rank()), Error);  // twice
    EXPECT_THROW(op.skip_source(1 - comm.rank()), Error);  // already drained
    EXPECT_THROW(op.await_source<Real>(7), Error);  // out of range
    op.await_source<Real>(comm.rank());
    op.wait();
    // await_source on a non-drain op is diagnosed.
    Gathered<Real> out;
    PendingOp into = comm.ialltoallv_into(
        std::span<const Real>(send), std::span<const std::size_t>(offsets),
        out, CommCategory::kDense);
    EXPECT_THROW(into.await_source<Real>(0), Error);
    into.wait();
    comm.quiesce();
  });
}

TEST(Alltoallv, ChargesReceivedWordsExcludingSelf) {
  const int p = 3;
  run_world(p, [&](Comm& comm) {
    // Every rank sends 5 elements to every destination (self included).
    std::vector<Real> send(5 * static_cast<std::size_t>(p), 1.0);
    std::vector<std::size_t> offsets;
    for (int d = 0; d <= p; ++d) offsets.push_back(5 * static_cast<std::size_t>(d));
    const CostMeter before = comm.meter();
    Gathered<Real> out;
    comm.alltoallv_into(std::span<const Real>(send),
                        std::span<const std::size_t>(offsets), out,
                        CommCategory::kDense);
    CostMeter delta = comm.meter();
    delta.subtract(before);
    EXPECT_DOUBLE_EQ(delta.words(CommCategory::kDense),
                     static_cast<double>(5 * (p - 1)));
    EXPECT_DOUBLE_EQ(delta.latency_units(CommCategory::kDense),
                     static_cast<double>(p - 1));
  });
}

TEST(Alltoallv, BadOffsetsDiagnosed) {
  EXPECT_THROW(run_world(1,
                         [&](Comm& comm) {
                           std::vector<Real> send(3, 1.0);
                           std::vector<std::size_t> offsets = {0, 2};  // != 3
                           Gathered<Real> out;
                           comm.alltoallv_into(
                               std::span<const Real>(send),
                               std::span<const std::size_t>(offsets), out,
                               CommCategory::kDense);
                         }),
               Error);
}

TEST(Alltoallv, InvalidCommDiagnosed) {
  Comm comm;
  std::vector<Real> send(1, 1.0);
  std::vector<std::size_t> offsets = {0, 1};
  Gathered<Real> out;
  EXPECT_THROW(comm.alltoallv_into(std::span<const Real>(send),
                                   std::span<const std::size_t>(offsets), out,
                                   CommCategory::kDense),
               Error);
  EXPECT_THROW(comm.ialltoallv_into(std::span<const Real>(send),
                                    std::span<const std::size_t>(offsets),
                                    out, CommCategory::kDense),
               Error);
}

// ---- Abort coverage: compressed collectives and per-source drains ----

TEST(Abort, CompressedCollectiveAbortAndResidualRebindOnRebuiltWorld) {
  // Kill a rank mid compressed all-reduce, then rebuild a fresh world and
  // rerun the same reduction with the SAME CompressBuf objects: the
  // error-feedback residuals were bound to the dead communicator, so the
  // rebind must reset them — the recovered round is bitwise identical to
  // one using factory-fresh buffers.
  const std::size_t n = 300;
  const auto contrib = [](int rank) {
    std::vector<Real> v(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = std::sin(0.1 * static_cast<double>(i + 1) * (rank + 1));
    }
    return v;
  };
  const auto round = [&](Comm& world, CompressBuf& buf,
                         std::vector<Real>& out) {
    out = contrib(world.rank());
    buf.error_feedback = true;
    world.allreduce_sum_compressed(std::span<Real>(out), CompressMode::kInt8,
                                   buf);
  };

  std::vector<Real> fresh_result;
  run_world(2, [&](Comm& world) {
    CompressBuf fresh;
    std::vector<Real> out;
    round(world, fresh, out);
    if (world.rank() == 0) fresh_result = out;
  });

  std::array<CompressBuf, 2> bufs;  // survive across worlds, like a trainer's
  set_fault_plan(std::make_shared<FaultPlan>(FaultPlan().kill(
      1, CommCategory::kCompressed, FaultSite::kWait, 1)));
  try {
    EXPECT_THROW(
        run_world(2,
                  [&](Comm& world) {
                    std::vector<Real> out;
                    round(world,
                          bufs[static_cast<std::size_t>(world.rank())], out);
                    round(world,
                          bufs[static_cast<std::size_t>(world.rank())], out);
                  }),
        CommAborted);
  } catch (...) {
    clear_fault_plan();
    throw;
  }
  clear_fault_plan();

  std::vector<Real> recovered;
  run_world(2, [&](Comm& world) {
    std::vector<Real> out;
    round(world, bufs[static_cast<std::size_t>(world.rank())], out);
    if (world.rank() == 0) recovered = out;
  });
  EXPECT_EQ(recovered, fresh_result);
}

TEST(Abort, PeerFailureMidSourceDrainUnwinds) {
  // A rank throwing between two await_source calls must not strand the
  // peers parked in their own drains: everyone posted before anyone
  // drained, so the partially-drained ops complete during unwind and the
  // caller sees the original error.
  try {
    run_world(3, [](Comm& comm) {
      const int p = comm.size();
      std::vector<Real> send;
      std::vector<std::size_t> offsets{0};
      for (int d = 0; d < p; ++d) {
        send.push_back(static_cast<Real>(comm.rank() * 10 + d));
        offsets.push_back(send.size());
      }
      PendingOp op = comm.ialltoallv_post(
          std::span<const Real>(send), std::span<const std::size_t>(offsets),
          CommCategory::kHalo);
      for (int src = 0; src < p; ++src) {
        if (comm.rank() == 2 && src == 1) {
          throw Error("simulated failure mid-drain");
        }
        op.await_source<Real>(src);
      }
      op.wait();
      comm.quiesce();
    });
    FAIL() << "rank failure did not propagate";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("simulated failure mid-drain"),
              std::string::npos);
  }
}

// ---- Blocking calls return with every buffer free ----
//
// A blocking collective posts its op, waits it, and holds until every
// member has completed it. Each case below rewrites this rank's send
// buffer the moment the call returns, for 200 rounds at P = 4; a wrapper
// that returned while a peer still read the buffer would hand that peer
// the overwrite instead of the round's values. Mismatches are counted,
// not asserted, so a failing rank still takes part in every later round.

constexpr int kBlockingRounds = 200;
constexpr Real kClobber = -7.0;

/// Rank r's round-k element i: distinct per rank, round and slot, and
/// exact under the sums below.
Real payload(int r, int k, std::size_t i) {
  return static_cast<Real>(r * 1000 + k) + 0.5 * static_cast<Real>(i);
}

void fill_payload(std::vector<Real>& v, int r, int k, std::size_t base = 0) {
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = payload(r, k, base + i);
}

void clobber(std::vector<Real>& v) { std::fill(v.begin(), v.end(), kClobber); }

/// Runs one blocking wrapper for kBlockingRounds rounds; returns this
/// rank's count of wrong received values.
using BlockingRounds = int (*)(Comm&);

int broadcast_rounds(Comm& comm) {
  int bad = 0;
  std::vector<Real> data(5);
  for (int k = 0; k < kBlockingRounds; ++k) {
    const int root = k % comm.size();
    if (comm.rank() == root) fill_payload(data, root, k);
    comm.broadcast(std::span<Real>(data), root, CommCategory::kDense);
    const std::vector<Real> got = data;
    clobber(data);
    for (std::size_t i = 0; i < got.size(); ++i) {
      bad += got[i] != payload(root, k, i);
    }
  }
  return bad;
}

int broadcast_from_rounds(Comm& comm) {
  int bad = 0;
  std::vector<Real> src(5);
  std::vector<Real> dst(5);
  for (int k = 0; k < kBlockingRounds; ++k) {
    const int root = k % comm.size();
    const bool is_root = comm.rank() == root;
    if (is_root) fill_payload(src, root, k);
    comm.broadcast_from(
        is_root ? std::span<const Real>(src) : std::span<const Real>{},
        is_root ? std::span<Real>{} : std::span<Real>(dst), root,
        CommCategory::kDense);
    clobber(src);
    if (is_root) continue;
    for (std::size_t i = 0; i < dst.size(); ++i) {
      bad += dst[i] != payload(root, k, i);
    }
  }
  return bad;
}

template <bool kMax>
int allreduce_rounds(Comm& comm) {
  int bad = 0;
  std::vector<Real> data(5);
  for (int k = 0; k < kBlockingRounds; ++k) {
    fill_payload(data, comm.rank(), k);
    if (kMax) {
      comm.allreduce_max(std::span<Real>(data), CommCategory::kDense);
    } else {
      comm.allreduce_sum(std::span<Real>(data), CommCategory::kDense);
    }
    const std::vector<Real> got = data;
    clobber(data);
    for (std::size_t i = 0; i < got.size(); ++i) {
      Real want = 0;
      for (int r = 0; r < comm.size(); ++r) {
        want = kMax ? payload(r, k, i) : want + payload(r, k, i);
      }
      bad += got[i] != want;
    }
  }
  return bad;
}

int reduce_scatter_rounds(Comm& comm) {
  int bad = 0;
  const std::size_t chunk = 3;
  std::vector<Real> contrib(chunk * static_cast<std::size_t>(comm.size()));
  std::vector<Real> out(chunk);
  for (int k = 0; k < kBlockingRounds; ++k) {
    fill_payload(contrib, comm.rank(), k);
    comm.reduce_scatter_sum(std::span<const Real>(contrib),
                            std::span<Real>(out), CommCategory::kDense);
    clobber(contrib);
    const std::size_t lo = static_cast<std::size_t>(comm.rank()) * chunk;
    for (std::size_t i = 0; i < chunk; ++i) {
      Real want = 0;
      for (int r = 0; r < comm.size(); ++r) want += payload(r, k, lo + i);
      bad += out[i] != want;
    }
  }
  return bad;
}

int allgather_rounds(Comm& comm) {
  int bad = 0;
  std::vector<Real> mine(4);
  for (int k = 0; k < kBlockingRounds; ++k) {
    fill_payload(mine, comm.rank(), k);
    const std::vector<Real> all =
        comm.allgather(std::span<const Real>(mine), CommCategory::kDense);
    clobber(mine);
    for (std::size_t j = 0; j < all.size(); ++j) {
      bad += all[j] != payload(static_cast<int>(j / 4), k, j % 4);
    }
  }
  return bad;
}

template <bool kInto>
int allgatherv_rounds(Comm& comm) {
  int bad = 0;
  std::vector<Real> mine(static_cast<std::size_t>(comm.rank()) + 1);
  Gathered<Real> reused;
  for (int k = 0; k < kBlockingRounds; ++k) {
    fill_payload(mine, comm.rank(), k);
    if (kInto) {
      comm.allgatherv_into(std::span<const Real>(mine), reused,
                           CommCategory::kDense);
    } else {
      reused = comm.allgatherv(std::span<const Real>(mine),
                               CommCategory::kDense);
    }
    clobber(mine);
    for (int r = 0; r < comm.size(); ++r) {
      const auto got = reused.chunk(r);
      bad += got.size() != static_cast<std::size_t>(r) + 1;
      for (std::size_t i = 0; i < got.size(); ++i) {
        bad += got[i] != payload(r, k, i);
      }
    }
  }
  return bad;
}

int route_rounds(Comm& comm) {
  int bad = 0;
  const int p = comm.size();
  std::vector<Real> send(4);
  for (int k = 0; k < kBlockingRounds; ++k) {
    const int shift = 1 + k % (p - 1);  // a cyclic shift is a permutation
    fill_payload(send, comm.rank(), k);
    const std::vector<Real> recv =
        comm.route(std::span<const Real>(send), (comm.rank() + shift) % p,
                   CommCategory::kDense);
    clobber(send);
    const int src = (comm.rank() + p - shift) % p;
    bad += recv.size() != send.size();
    for (std::size_t i = 0; i < recv.size(); ++i) {
      bad += recv[i] != payload(src, k, i);
    }
  }
  return bad;
}

int alltoallv_rounds(Comm& comm) {
  // Rank s sends (s + d) % 3 + 1 elements to rank d: payload(s, k, 8d + i).
  int bad = 0;
  const int p = comm.size();
  const auto len = [](int s, int d) {
    return static_cast<std::size_t>((s + d) % 3 + 1);
  };
  std::vector<std::size_t> offsets(static_cast<std::size_t>(p) + 1, 0);
  for (int d = 0; d < p; ++d) {
    offsets[static_cast<std::size_t>(d) + 1] =
        offsets[static_cast<std::size_t>(d)] + len(comm.rank(), d);
  }
  std::vector<Real> send(offsets.back());
  Gathered<Real> recv;
  for (int k = 0; k < kBlockingRounds; ++k) {
    for (int d = 0; d < p; ++d) {
      for (std::size_t i = 0; i < len(comm.rank(), d); ++i) {
        send[offsets[static_cast<std::size_t>(d)] + i] =
            payload(comm.rank(), k, 8 * static_cast<std::size_t>(d) + i);
      }
    }
    comm.alltoallv_into(std::span<const Real>(send),
                        std::span<const std::size_t>(offsets), recv,
                        CommCategory::kHalo);
    clobber(send);
    for (int s = 0; s < p; ++s) {
      const auto got = recv.chunk(s);
      bad += got.size() != len(s, comm.rank());
      for (std::size_t i = 0; i < got.size(); ++i) {
        bad += got[i] !=
               payload(s, k, 8 * static_cast<std::size_t>(comm.rank()) + i);
      }
    }
  }
  return bad;
}

struct BlockingCase {
  const char* name;
  BlockingRounds rounds;
};

std::ostream& operator<<(std::ostream& os, const BlockingCase& c) {
  return os << c.name;
}

class BlockingReturn : public ::testing::TestWithParam<BlockingCase> {};

TEST_P(BlockingReturn, EveryBufferIsFreeOnReturn) {
  const BlockingRounds rounds = GetParam().rounds;
  std::atomic<int> bad{0};
  run_world(4, [&](Comm& comm) { bad += rounds(comm); });
  EXPECT_EQ(bad.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Wrappers, BlockingReturn,
    ::testing::Values(BlockingCase{"broadcast", &broadcast_rounds},
                      BlockingCase{"broadcast_from", &broadcast_from_rounds},
                      BlockingCase{"allreduce_sum", &allreduce_rounds<false>},
                      BlockingCase{"allreduce_max", &allreduce_rounds<true>},
                      BlockingCase{"reduce_scatter_sum",
                                   &reduce_scatter_rounds},
                      BlockingCase{"allgather", &allgather_rounds},
                      BlockingCase{"allgatherv", &allgatherv_rounds<false>},
                      BlockingCase{"allgatherv_into",
                                   &allgatherv_rounds<true>},
                      BlockingCase{"route", &route_rounds},
                      BlockingCase{"alltoallv_into", &alltoallv_rounds}),
    [](const auto& info) { return std::string(info.param.name); });

// ---- Diagnostics: message shapes name rank, op kind, and category ----

TEST(Diagnostics, OrderMismatchNamesRanksOpsAndCategory) {
  try {
    run_world(2, [](Comm& comm) {
      std::vector<Real> a(4, Real{1});
      std::vector<Real> out(4, Real{0});
      if (comm.rank() == 0) {
        comm.iallreduce_sum(std::span<const Real>(a), std::span<Real>(out),
                            CommCategory::kDense)
            .wait();
      } else {
        Gathered<Real> g;
        comm.iallgatherv_into(std::span<const Real>(a), g,
                              CommCategory::kDense)
            .wait();
      }
      comm.quiesce();
    });
    FAIL() << "program-order mismatch was not diagnosed";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("disagree on op order"), std::string::npos) << what;
    // Whichever rank reports first, the message names the waiting rank,
    // both ops by name, and the traffic category.
    EXPECT_NE(what.find("rank"), std::string::npos) << what;
    EXPECT_NE(what.find("waiting on"), std::string::npos) << what;
    EXPECT_NE(what.find("[dense]"), std::string::npos) << what;
    EXPECT_NE(what.find("posted"), std::string::npos) << what;
    EXPECT_NE(what.find("iallreduce_sum"), std::string::npos) << what;
    EXPECT_NE(what.find("iallgatherv_into"), std::string::npos) << what;
  }
}

TEST(Diagnostics, BlockingAndNonblockingOutOfOrderDiagnosed) {
  // Blocking calls ride the same channels as the nonblocking ones, so a
  // rank in a blocking all-reduce and a peer in a nonblocking all-gather
  // meet on one channel and see each other's op.
  try {
    run_world(2, [](Comm& comm) {
      std::vector<Real> a(4, Real{1});
      if (comm.rank() == 0) {
        comm.allreduce_sum(std::span<Real>(a), CommCategory::kDense);
      } else {
        Gathered<Real> g;
        comm.iallgatherv_into(std::span<const Real>(a), g,
                              CommCategory::kDense)
            .wait();
      }
      comm.quiesce();
    });
    FAIL() << "blocking/nonblocking order mismatch was not diagnosed";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("disagree on op order"), std::string::npos) << what;
    EXPECT_NE(what.find("allreduce_sum"), std::string::npos) << what;
    EXPECT_NE(what.find("iallgatherv_into"), std::string::npos) << what;
    EXPECT_NE(what.find("[dense]"), std::string::npos) << what;
  }
}

class SizeMismatchDiagnostics : public ::testing::TestWithParam<std::string> {
};

TEST_P(SizeMismatchDiagnostics, NamesOpCategoryAndBothRanks) {
  const std::string op = GetParam();
  try {
    run_world(2, [&](Comm& comm) {
      const bool root = comm.rank() == 0;
      std::vector<Real> data(root ? 4 : 5, Real{1});
      std::vector<Real> out(data.size());
      if (op == "broadcast") {
        comm.broadcast(std::span<Real>(data), 0, CommCategory::kDense);
      } else if (op == "ibroadcast_from") {
        comm.ibroadcast_from(
                root ? std::span<const Real>(data) : std::span<const Real>{},
                root ? std::span<Real>{} : std::span<Real>(out), 0,
                CommCategory::kDense)
            .wait();
      } else if (op == "allreduce_sum") {
        comm.allreduce_sum(std::span<Real>(data), CommCategory::kDense);
      } else {
        comm.iallreduce_sum(std::span<const Real>(data),
                            std::span<Real>(out), CommCategory::kDense)
            .wait();
      }
      comm.quiesce();
    });
    FAIL() << "size mismatch was not diagnosed";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(op + " [dense]: ranks disagree on element count"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("rank 0 passed 4"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 1 passed 5"), std::string::npos) << what;
  }
}

INSTANTIATE_TEST_SUITE_P(Ops, SizeMismatchDiagnostics,
                         ::testing::Values("broadcast", "ibroadcast_from",
                                           "allreduce_sum",
                                           "iallreduce_sum"),
                         [](const auto& info) { return info.param; });

TEST(Diagnostics, CompressedSizeMismatchNamesOpCategoryAndBothRanks) {
  // The byte gather is posted under the caller's name, and the decode's
  // chunk check reports both ranks (int8: 4 elements encode to 8 bytes, 5
  // to 9).
  try {
    run_world(2, [](Comm& comm) {
      std::vector<Real> data(comm.rank() == 0 ? 4 : 5, Real{1});
      CompressBuf buf;
      comm.allreduce_sum_compressed(std::span<Real>(data),
                                    CompressMode::kInt8, buf);
    });
    FAIL() << "size mismatch was not diagnosed";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("allreduce_sum_compressed [compressed]: ranks "
                        "disagree on element count"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("rank 0"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
  }
}

TEST(Diagnostics, InvalidCommNamesTheOperation) {
  Comm comm;
  std::vector<Real> data(4, Real{1});
  try {
    comm.allreduce_sum(std::span<Real>(data), CommCategory::kDense);
    FAIL() << "invalid Comm was not diagnosed";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("allreduce_sum"), std::string::npos) << what;
    EXPECT_NE(what.find("invalid Comm"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace cagnet
