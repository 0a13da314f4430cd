// Unit tests for src/sparse: COO operations, CSR construction/transpose/
// blocking, SpMM against a dense reference and bit for bit against the
// one-product-at-a-time loop, generators, and sparsity stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/dense/gemm.hpp"
#include "src/sparse/coo.hpp"
#include "src/sparse/csr.hpp"
#include "src/sparse/generate.hpp"
#include "src/sparse/spmm_kernel.hpp"
#include "src/sparse/stats.hpp"
#include "src/util/rng.hpp"

namespace cagnet {
namespace {

Coo random_coo(Index rows, Index cols, Index nnz, Rng& rng) {
  Coo coo(rows, cols);
  for (Index i = 0; i < nnz; ++i) {
    coo.add(static_cast<Index>(rng.next_below(rows)),
            static_cast<Index>(rng.next_below(cols)),
            rng.next_double(-1, 1));
  }
  coo.sort_and_combine();
  return coo;
}

// The one-product-at-a-time row loop the SpMM kernel replaced: every
// output element adds its products in ascending nonzero order, one load
// and store of the output row per nonzero. The kernel must match it bit
// for bit.
template <typename T>
void reference_spmm(Index rows, const Index* row_ptr, const Index* col_idx,
                    const T* vals, const T* x, Index f, T* y,
                    bool accumulate) {
  for (Index i = 0; i < rows; ++i) {
    T* yrow = y + i * f;
    if (!accumulate) {
      for (Index j = 0; j < f; ++j) yrow[j] = T{0};
    }
    for (Index p = row_ptr[i]; p < row_ptr[i + 1]; ++p) {
      const T v = vals[p];
      const T* xrow = x + col_idx[p] * f;
      for (Index j = 0; j < f; ++j) yrow[j] += v * xrow[j];
    }
  }
}

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

TEST(Coo, SortAndCombineSumsDuplicates) {
  Coo coo(3, 3);
  coo.add(1, 2, 1.0);
  coo.add(0, 0, 2.0);
  coo.add(1, 2, 3.0);
  coo.sort_and_combine();
  ASSERT_EQ(coo.nnz(), 2);
  EXPECT_EQ(coo.entries()[0].row, 0);
  EXPECT_EQ(coo.entries()[0].val, 2.0);
  EXPECT_EQ(coo.entries()[1].row, 1);
  EXPECT_EQ(coo.entries()[1].col, 2);
  EXPECT_EQ(coo.entries()[1].val, 4.0);
}

TEST(Coo, OutOfRangeEntryThrows) {
  Coo coo(2, 2);
  EXPECT_THROW(coo.add(2, 0, 1.0), Error);
  EXPECT_THROW(coo.add(0, -1, 1.0), Error);
}

TEST(Coo, SymmetrizeMirrorsOffDiagonals) {
  Coo coo(3, 3);
  coo.add(0, 1, 1.0);
  coo.add(2, 2, 5.0);
  coo.symmetrize();
  const Csr csr = Csr::from_coo(coo);
  const Matrix d = csr.to_dense();
  EXPECT_EQ(d(0, 1), 1.0);
  EXPECT_EQ(d(1, 0), 1.0);
  EXPECT_EQ(d(2, 2), 5.0);  // diagonal not doubled
  EXPECT_EQ(csr.nnz(), 3);
}

TEST(Coo, AddSelfLoopsSetsFullDiagonal) {
  Coo coo(4, 4);
  coo.add(0, 1, 1.0);
  coo.add(2, 2, 1.0);  // existing diagonal gets +1
  coo.add_self_loops();
  const Matrix d = Csr::from_coo(coo).to_dense();
  EXPECT_EQ(d(0, 0), 1.0);
  EXPECT_EQ(d(1, 1), 1.0);
  EXPECT_EQ(d(2, 2), 2.0);
  EXPECT_EQ(d(3, 3), 1.0);
}

TEST(Coo, PermuteRelabelsBothEndpoints) {
  Coo coo(3, 3);
  coo.add(0, 1, 7.0);
  const std::vector<Index> perm = {2, 0, 1};
  coo.permute(perm);
  ASSERT_EQ(coo.nnz(), 1);
  EXPECT_EQ(coo.entries()[0].row, 2);
  EXPECT_EQ(coo.entries()[0].col, 0);
}

TEST(Csr, FromCooMatchesDense) {
  Rng rng(1);
  const Coo coo = random_coo(8, 6, 20, rng);
  const Csr csr = Csr::from_coo(coo);
  const Matrix dense = csr.to_dense();
  // Every COO entry appears in the dense version.
  Matrix expected(8, 6);
  for (const Triple& t : coo.entries()) expected(t.row, t.col) += t.val;
  EXPECT_LE(Matrix::max_abs_diff(dense, expected), 1e-15);
  EXPECT_EQ(csr.nnz(), coo.nnz());
}

TEST(Csr, ColumnIndicesSortedWithinRows) {
  Rng rng(2);
  const Csr csr = Csr::from_coo(random_coo(30, 30, 200, rng));
  const auto rp = csr.row_ptr();
  const auto ci = csr.col_idx();
  for (Index r = 0; r < csr.rows(); ++r) {
    for (Index p = rp[r] + 1; p < rp[r + 1]; ++p) {
      EXPECT_LT(ci[p - 1], ci[p]);
    }
  }
}

TEST(Csr, SpmmMatchesDenseReference) {
  Rng rng(3);
  const Csr a = Csr::from_coo(random_coo(12, 9, 40, rng));
  Matrix x(9, 5);
  x.fill_uniform(rng, -1, 1);
  const Matrix via_spmm = a.multiply(x);
  const Matrix via_dense = matmul(a.to_dense(), x);
  EXPECT_LE(Matrix::max_abs_diff(via_spmm, via_dense), 1e-12);
}

TEST(Csr, SpmmAccumulateAddsIntoOutput) {
  Rng rng(4);
  const Csr a = Csr::from_coo(random_coo(5, 5, 10, rng));
  Matrix x(5, 3);
  x.fill_uniform(rng, -1, 1);
  Matrix y(5, 3);
  y.fill(1.0);
  Matrix y2 = y;
  a.spmm(x, y, /*accumulate=*/true);
  const Matrix prod = a.multiply(x);
  for (Index i = 0; i < 5; ++i) {
    for (Index j = 0; j < 3; ++j) {
      EXPECT_NEAR(y(i, j), y2(i, j) + prod(i, j), 1e-13);
    }
  }
}

TEST(Csr, SpmmShapeMismatchThrows) {
  const Csr a(4, 4);
  Matrix x(5, 2);
  Matrix y(4, 2);
  EXPECT_THROW(a.spmm(x, y), Error);
}

TEST(Csr, TransposeMatchesDenseTranspose) {
  Rng rng(5);
  const Csr a = Csr::from_coo(random_coo(11, 7, 35, rng));
  const Csr at = a.transposed();
  EXPECT_EQ(at.rows(), 7);
  EXPECT_EQ(at.cols(), 11);
  EXPECT_LE(Matrix::max_abs_diff(at.to_dense(), a.to_dense().transposed()),
            1e-15);
}

TEST(Csr, TransposeIsInvolution) {
  Rng rng(6);
  const Csr a = Csr::from_coo(random_coo(9, 13, 50, rng));
  EXPECT_TRUE(a.transposed().transposed() == a);
}

TEST(Csr, BlockExtractsSubmatrix) {
  Rng rng(7);
  const Csr a = Csr::from_coo(random_coo(10, 10, 60, rng));
  const Csr blk = a.block(2, 7, 3, 9);
  EXPECT_EQ(blk.rows(), 5);
  EXPECT_EQ(blk.cols(), 6);
  const Matrix expected = a.to_dense().block(2, 3, 5, 6);
  EXPECT_LE(Matrix::max_abs_diff(blk.to_dense(), expected), 1e-15);
}

TEST(Csr, BlocksPartitionNnz) {
  Rng rng(8);
  const Csr a = Csr::from_coo(random_coo(20, 20, 150, rng));
  // Any grid blocking must conserve total nnz.
  for (int grid : {2, 3, 4}) {
    Index total = 0;
    for (int bi = 0; bi < grid; ++bi) {
      const auto [r0, r1] = std::pair<Index, Index>{20 * bi / grid,
                                                    20 * (bi + 1) / grid};
      for (int bj = 0; bj < grid; ++bj) {
        const auto [c0, c1] = std::pair<Index, Index>{20 * bj / grid,
                                                      20 * (bj + 1) / grid};
        total += a.block(r0, r1, c0, c1).nnz();
      }
    }
    EXPECT_EQ(total, a.nnz());
  }
}

TEST(Csr, EmptyBlockIsValid) {
  const Csr a(5, 5);
  const Csr blk = a.block(1, 3, 2, 5);
  EXPECT_EQ(blk.nnz(), 0);
  EXPECT_EQ(blk.rows(), 2);
  Matrix x(3, 2);
  Matrix y = blk.multiply(x);
  EXPECT_EQ(y.rows(), 2);
}

TEST(Csr, ScaleRowsColsAppliesBothFactors) {
  Coo coo(2, 2);
  coo.add(0, 1, 2.0);
  coo.add(1, 0, 3.0);
  Csr a = Csr::from_coo(coo);
  const std::vector<Real> rs = {2.0, 0.5};
  const std::vector<Real> cs = {10.0, 100.0};
  a.scale_rows_cols(rs, cs);
  const Matrix d = a.to_dense();
  EXPECT_DOUBLE_EQ(d(0, 1), 2.0 * 2.0 * 100.0);
  EXPECT_DOUBLE_EQ(d(1, 0), 3.0 * 0.5 * 10.0);
}

TEST(Csr, RowSumsMatchDense) {
  Rng rng(9);
  const Csr a = Csr::from_coo(random_coo(6, 6, 18, rng));
  const auto sums = a.row_sums();
  const Matrix d = a.to_dense();
  for (Index i = 0; i < 6; ++i) {
    Real expected = 0;
    for (Index j = 0; j < 6; ++j) expected += d(i, j);
    EXPECT_NEAR(sums[i], expected, 1e-13);
  }
}

TEST(Csr, NonemptyRowsCounted) {
  Coo coo(4, 4);
  coo.add(0, 0, 1.0);
  coo.add(2, 3, 1.0);
  coo.add(2, 1, 1.0);
  const Csr a = Csr::from_coo(coo);
  EXPECT_EQ(a.nonempty_rows(), 2);
}

TEST(Generate, ErdosRenyiHitsTargetDegree) {
  Rng rng(10);
  const Index n = 2000;
  const double d = 8.0;
  const Coo coo = erdos_renyi(n, d, rng);
  // Duplicates merge, so realized density is slightly below the target.
  EXPECT_GT(coo.nnz(), static_cast<Index>(0.95 * d * n));
  EXPECT_LE(coo.nnz(), static_cast<Index>(d * n));
}

TEST(Generate, ErdosRenyiDeterministicPerSeed) {
  Rng a(11);
  Rng b(11);
  const Coo ca = erdos_renyi(500, 4, a);
  const Coo cb = erdos_renyi(500, 4, b);
  ASSERT_EQ(ca.nnz(), cb.nnz());
  for (Index i = 0; i < ca.nnz(); ++i) {
    EXPECT_EQ(ca.entries()[i].row, cb.entries()[i].row);
    EXPECT_EQ(ca.entries()[i].col, cb.entries()[i].col);
  }
}

TEST(Generate, RmatProducesRequestedShape) {
  Rng rng(12);
  const Coo coo = rmat(1000, 8000, rng);
  EXPECT_EQ(coo.rows(), 1000);
  EXPECT_EQ(coo.cols(), 1000);
  // Merged duplicates shrink the count, but most edges survive.
  EXPECT_GT(coo.nnz(), 6000);
  EXPECT_LE(coo.nnz(), 8000);
}

TEST(Generate, RmatHandlesNonPowerOfTwoVertexCount) {
  Rng rng(13);
  const Coo coo = rmat(777, 3000, rng);
  EXPECT_EQ(coo.rows(), 777);
  for (const Triple& t : coo.entries()) {
    EXPECT_LT(t.row, 777);
    EXPECT_LT(t.col, 777);
  }
}

TEST(Generate, RmatIsSkewedComparedToErdosRenyi) {
  Rng rng(14);
  const Index n = 4000;
  const Index edges = 16 * n;
  RmatParams params;
  params.scramble_ids = false;  // keep the raw skew measurable
  const Csr r = Csr::from_coo(rmat(n, edges, rng, params));
  const Csr e = Csr::from_coo(erdos_renyi(n, 16, rng));
  // Max degree of the scale-free graph should dwarf the ER one.
  EXPECT_GT(degree_stats(r).max_degree, 2 * degree_stats(e).max_degree);
}

TEST(Csr, FullRangeBlockEqualsOriginal) {
  Rng rng(24);
  const Csr a = Csr::from_coo(random_coo(15, 11, 60, rng));
  EXPECT_TRUE(a.block(0, 15, 0, 11) == a);
}

TEST(Csr, TransposeOfEmptyRectangular) {
  const Csr a(3, 7);
  const Csr at = a.transposed();
  EXPECT_EQ(at.rows(), 7);
  EXPECT_EQ(at.cols(), 3);
  EXPECT_EQ(at.nnz(), 0);
}

TEST(Csr, SpmmOnWideOutputs) {
  // Feature widths beyond cache-friendly sizes still compute correctly.
  Rng rng(25);
  const Csr a = Csr::from_coo(random_coo(20, 20, 80, rng));
  Matrix x(20, 301);
  x.fill_uniform(rng, -1, 1);
  const Matrix via_spmm = a.multiply(x);
  const Matrix via_dense = matmul(a.to_dense(), x);
  EXPECT_LE(Matrix::max_abs_diff(via_spmm, via_dense), 1e-11);
}

TEST(Generate, RmatDeterministicPerSeed) {
  Rng a(26);
  Rng b(26);
  const Coo ca = rmat(512, 2048, a);
  const Coo cb = rmat(512, 2048, b);
  ASSERT_EQ(ca.nnz(), cb.nnz());
  for (Index i = 0; i < ca.nnz(); ++i) {
    EXPECT_EQ(ca.entries()[i].row, cb.entries()[i].row);
    EXPECT_EQ(ca.entries()[i].col, cb.entries()[i].col);
  }
}

TEST(Generate, RmatRejectsBadProbabilities) {
  Rng rng(27);
  RmatParams bad;
  bad.a = 0.6;
  bad.b = 0.3;
  bad.c = 0.2;  // sums past 1
  EXPECT_THROW(rmat(16, 32, rng, bad), Error);
}

TEST(Csr, FromPartsRoundTrip) {
  Rng rng(20);
  const Csr a = Csr::from_coo(random_coo(7, 9, 25, rng));
  const Csr b = Csr::from_parts(
      a.rows(), a.cols(),
      std::vector<Index>(a.row_ptr().begin(), a.row_ptr().end()),
      std::vector<Index>(a.col_idx().begin(), a.col_idx().end()),
      std::vector<Real>(a.values().begin(), a.values().end()));
  EXPECT_TRUE(a == b);
}

TEST(Csr, FromPartsValidatesShape) {
  EXPECT_THROW(Csr::from_parts(2, 2, {0, 1}, {0}, {1.0}), Error);  // row_ptr
  EXPECT_THROW(Csr::from_parts(1, 2, {0, 2}, {0}, {1.0}), Error);  // bounds
  EXPECT_THROW(Csr::from_parts(1, 2, {0, 1}, {0, 1}, {1.0}), Error);  // nnz
}

TEST(Csr, VstackConcatenatesRowBlocks) {
  Rng rng(21);
  const Csr full = Csr::from_coo(random_coo(12, 5, 30, rng));
  const std::vector<Csr> pieces = {full.block(0, 4, 0, 5),
                                   full.block(4, 9, 0, 5),
                                   full.block(9, 12, 0, 5)};
  const Csr stacked = Csr::vstack(pieces);
  EXPECT_TRUE(stacked == full);
}

TEST(Csr, VstackHandlesEmptyPieces) {
  const Csr empty(0, 4);
  Coo coo(2, 4);
  coo.add(1, 3, 2.0);
  const Csr block = Csr::from_coo(coo);
  const Csr stacked = Csr::vstack({empty, block, empty});
  EXPECT_EQ(stacked.rows(), 2);
  EXPECT_EQ(stacked.nnz(), 1);
  EXPECT_THROW(Csr::vstack({}), Error);
}

TEST(Generate, PlantedPartitionHasCommunityStructure) {
  Rng rng(22);
  const Index n = 4000;
  const Index k = 40;
  const Coo coo = planted_partition(n, k, 12, 1, rng, /*hub_fraction=*/0.0);
  const Csr a = Csr::from_coo(coo);
  // Count intra-community vs inter-community edges.
  const Index comm_size = (n + k - 1) / k;
  Index intra = 0;
  Index inter = 0;
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  for (Index u = 0; u < n; ++u) {
    for (Index p = rp[u]; p < rp[u + 1]; ++p) {
      if (u / comm_size == ci[p] / comm_size) {
        ++intra;
      } else {
        ++inter;
      }
    }
  }
  EXPECT_GT(intra, 5 * inter);
}

TEST(Generate, PlantedPartitionHubsRaiseMaxDegree) {
  Rng rng(23);
  const Coo no_hubs = planted_partition(2000, 20, 8, 1, rng, 0.0);
  Rng rng2(23);
  const Coo hubs = planted_partition(2000, 20, 8, 1, rng2, 0.005, 500);
  EXPECT_GT(degree_stats(Csr::from_coo(hubs)).max_degree,
            2 * degree_stats(Csr::from_coo(no_hubs)).max_degree);
}

TEST(Stats, DegreeStatsBasics) {
  Coo coo(4, 4);
  coo.add(0, 1, 1.0);
  coo.add(0, 2, 1.0);
  coo.add(0, 3, 1.0);
  coo.add(2, 0, 1.0);
  const DegreeStats s = degree_stats(Csr::from_coo(coo));
  EXPECT_EQ(s.rows, 4);
  EXPECT_EQ(s.nnz, 4);
  EXPECT_DOUBLE_EQ(s.avg_degree, 1.0);
  EXPECT_EQ(s.max_degree, 3);
  EXPECT_EQ(s.empty_rows, 2);
}

// The paper's hypersparsity observation: 2D-partitioning a matrix on a
// g x g grid divides the average block degree by ~g (a factor sqrt(P)).
TEST(Stats, HypersparsityDegreeDropsByGridDim) {
  Rng rng(15);
  const Index n = 4096;
  const Csr a = Csr::from_coo(erdos_renyi(n, 32, rng));
  const auto global = degree_stats(a).avg_degree;
  for (Index g : {2, 4, 8}) {
    const auto rep = hypersparsity_report(a, g);
    EXPECT_NEAR(rep.block_avg_degree, global / static_cast<double>(g),
                0.15 * global / static_cast<double>(g));
  }
}

TEST(Stats, HypersparsityEmptyRowFractionGrowsWithGrid) {
  Rng rng(16);
  const Csr a = Csr::from_coo(erdos_renyi(2048, 4, rng));
  const auto rep2 = hypersparsity_report(a, 2);
  const auto rep16 = hypersparsity_report(a, 16);
  EXPECT_GT(rep16.avg_empty_row_fraction, rep2.avg_empty_row_fraction);
}

TEST(SpmmKernel, ThreadedMatchesSerialBitwise) {
  // The row-block parallelization partitions rows across workers, so every
  // thread count must produce bitwise-identical output (each row's flops
  // are computed in the same order by exactly one thread).
  Rng rng(17);
  const Csr a = Csr::from_coo(erdos_renyi(512, 9, rng));
  const Index f = 7;
  Matrix x(a.cols(), f);
  x.fill_uniform(rng, -1, 1);

  Matrix serial(a.rows(), f);
  spmm_csr_kernel<Real>(a.rows(), a.row_ptr().data(), a.col_idx().data(),
                        a.values().data(), x.data(), f, serial.data(),
                        /*accumulate=*/false, /*num_threads=*/1);
  for (int threads : {2, 3, 8, 64}) {
    Matrix parallel(a.rows(), f);
    spmm_csr_kernel<Real>(a.rows(), a.row_ptr().data(), a.col_idx().data(),
                          a.values().data(), x.data(), f, parallel.data(),
                          /*accumulate=*/false, threads);
    EXPECT_EQ(Matrix::max_abs_diff(serial, parallel), 0.0)
        << threads << " threads";
  }
}

TEST(SpmmKernel, ThreadedAccumulateMatchesSerial) {
  Rng rng(18);
  const Csr a = Csr::from_coo(erdos_renyi(300, 6, rng));
  const Index f = 5;
  Matrix x(a.cols(), f);
  x.fill_uniform(rng, -1, 1);
  Matrix serial(a.rows(), f);
  serial.fill(0.5);
  Matrix parallel(a.rows(), f);
  parallel.fill(0.5);
  spmm_csr_kernel<Real>(a.rows(), a.row_ptr().data(), a.col_idx().data(),
                        a.values().data(), x.data(), f, serial.data(),
                        /*accumulate=*/true, /*num_threads=*/1);
  spmm_csr_kernel<Real>(a.rows(), a.row_ptr().data(), a.col_idx().data(),
                        a.values().data(), x.data(), f, parallel.data(),
                        /*accumulate=*/true, /*num_threads=*/4);
  EXPECT_EQ(Matrix::max_abs_diff(serial, parallel), 0.0);
}

TEST(SpmmKernel, MoreThreadsThanRowsIsSafe) {
  Rng rng(19);
  const Csr a = Csr::from_coo(erdos_renyi(3, 2, rng));
  const Index f = 4;
  Matrix x(a.cols(), f);
  x.fill_uniform(rng, -1, 1);
  Matrix y(a.rows(), f);
  spmm_csr_kernel<Real>(a.rows(), a.row_ptr().data(), a.col_idx().data(),
                        a.values().data(), x.data(), f, y.data(),
                        /*accumulate=*/false, /*num_threads=*/16);
  const Matrix reference = a.multiply(x);
  EXPECT_EQ(Matrix::max_abs_diff(reference, y), 0.0);
}

// Rows with 0-9 nonzeros (every remainder of the kernel's four-nonzero
// fold, each several times), random sorted columns and values, at widths
// around the vector lengths; the kernel must equal the reference bit for
// bit at every thread count, overwriting and accumulating.
template <typename T>
void check_spmm_matches_reference_bitwise(std::uint64_t seed) {
  Rng rng(seed);
  const Index rows = 230;
  const Index cols = 97;
  std::vector<Index> row_ptr{0};
  std::vector<Index> col_idx;
  std::vector<T> vals;
  for (Index i = 0; i < rows; ++i) {
    const Index degree = (i * 7) % 10;  // 0..9, scattered over the rows
    std::vector<Index> picked;
    while (static_cast<Index>(picked.size()) < degree) {
      const auto c = static_cast<Index>(rng.next_below(cols));
      if (std::find(picked.begin(), picked.end(), c) == picked.end()) {
        picked.push_back(c);
      }
    }
    std::sort(picked.begin(), picked.end());
    for (Index c : picked) {
      col_idx.push_back(c);
      vals.push_back(static_cast<T>(rng.next_double(-1, 1)));
    }
    row_ptr.push_back(static_cast<Index>(col_idx.size()));
  }
  for (Index f : {1, 2, 3, 7, 8, 16, 64, 128, 301}) {
    std::vector<T> x(static_cast<std::size_t>(cols * f));
    for (T& v : x) v = static_cast<T>(rng.next_double(-1, 1));
    std::vector<T> y0(static_cast<std::size_t>(rows * f));
    for (T& v : y0) v = static_cast<T>(rng.next_double(-1, 1));
    for (bool accumulate : {false, true}) {
      std::vector<T> expected = y0;
      reference_spmm<T>(rows, row_ptr.data(), col_idx.data(), vals.data(),
                        x.data(), f, expected.data(), accumulate);
      for (int threads : {1, 3, 8}) {
        std::vector<T> got = y0;
        spmm_csr_kernel<T>(rows, row_ptr.data(), col_idx.data(), vals.data(),
                           x.data(), f, got.data(), accumulate, threads);
        EXPECT_TRUE(same_bits(expected, got))
            << "f=" << f << " accumulate=" << accumulate
            << " threads=" << threads;
      }
    }
  }
}

TEST(SpmmKernel, MatchesReferenceBitwiseDouble) {
  check_spmm_matches_reference_bitwise<double>(71);
}

TEST(SpmmKernel, MatchesReferenceBitwiseFloat) {
  check_spmm_matches_reference_bitwise<float>(72);
}

TEST(Csr, SpmmRejectsAliasedOutput) {
  // A square A with x as its own output would overwrite rows of x that
  // later rows still read.
  Rng rng(73);
  const Csr a = Csr::from_coo(random_coo(6, 6, 14, rng));
  Matrix x(6, 3);
  x.fill_uniform(rng, -1, 1);
  const Matrix before = x;
  EXPECT_THROW(a.spmm(x, x), Error);
  EXPECT_THROW(a.spmm(x, x, /*accumulate=*/true), Error);
  EXPECT_EQ(Matrix::max_abs_diff(before, x), 0.0);  // rejected untouched
}

TEST(Csr, ResizePartsDeserializationRoundTrip) {
  // The receive side of the CSR collectives: resize a reused buffer and
  // fill its mutable views from another block's serialized arrays.
  Rng rng(61);
  const Csr source = Csr::from_coo(erdos_renyi(40, 5.0, rng));
  Csr recv;
  for (int round = 0; round < 2; ++round) {  // second round reuses buffers
    recv.resize_parts(source.rows(), source.cols(), source.nnz());
    std::copy(source.row_ptr().begin(), source.row_ptr().end(),
              recv.row_ptr_mut().begin());
    std::copy(source.col_idx().begin(), source.col_idx().end(),
              recv.col_idx_mut().begin());
    std::copy(source.values().begin(), source.values().end(),
              recv.values().begin());
    EXPECT_EQ(recv, source);
  }
}

}  // namespace
}  // namespace cagnet
