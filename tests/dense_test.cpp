// Unit tests for src/dense: Matrix container, GEMM against a naive
// reference over all transpose combinations and bit for bit against the
// loops it replaced, activations and their derivatives (checked
// numerically), and the NLL loss.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "src/dense/gemm.hpp"
#include "src/dense/matrix.hpp"
#include "src/dense/ops.hpp"
#include "src/util/parallel.hpp"
#include "src/util/rng.hpp"

namespace cagnet {
namespace {

Matrix random_matrix(Index r, Index c, Rng& rng, Real lo = -1, Real hi = 1) {
  Matrix m(r, c);
  m.fill_uniform(rng, lo, hi);
  return m;
}

// Straightforward triple loop used as the oracle for gemm.
Matrix naive_matmul(const Matrix& a, const Matrix& b, Trans ta, Trans tb) {
  const Index m = ta == Trans::kNo ? a.rows() : a.cols();
  const Index k = ta == Trans::kNo ? a.cols() : a.rows();
  const Index n = tb == Trans::kNo ? b.cols() : b.rows();
  Matrix c(m, n);
  for (Index i = 0; i < m; ++i) {
    for (Index j = 0; j < n; ++j) {
      Real acc = 0;
      for (Index p = 0; p < k; ++p) {
        const Real av = ta == Trans::kNo ? a(i, p) : a(p, i);
        const Real bv = tb == Trans::kNo ? b(p, j) : b(j, p);
        acc += av * bv;
      }
      c(i, j) = acc;
    }
  }
  return c;
}

// The one-product-at-a-time loops gemm's no-transpose and transposed-A
// paths replaced, with the same beta pass: every C element adds its
// products (alpha * A element) * op(B) element in ascending k order, one
// load and store of C per product; the transposed-A form skips zero A
// elements as the replaced loop did. A transposed B is read in place, so
// gemm's scratch copy of it is checked too. gemm must match them bit for
// bit.
void reference_gemm(Trans ta, Trans tb, Real alpha, const Matrix& a,
                    const Matrix& b, Real beta, Matrix& c) {
  const Index m = c.rows();
  const Index n = c.cols();
  const Index k = ta == Trans::kNo ? a.cols() : a.rows();
  const auto b_at = [&](Index p, Index j) {
    return tb == Trans::kNo ? b(p, j) : b(j, p);
  };
  if (beta == Real{0}) {
    c.fill(Real{0});
  } else if (beta != Real{1}) {
    for (Real& v : c.flat()) v *= beta;
  }
  if (ta == Trans::kNo) {
    for (Index i = 0; i < m; ++i) {
      for (Index p = 0; p < k; ++p) {
        const Real av = alpha * a(i, p);
        for (Index j = 0; j < n; ++j) c(i, j) += av * b_at(p, j);
      }
    }
    return;
  }
  for (Index p = 0; p < k; ++p) {
    for (Index i = 0; i < m; ++i) {
      const Real av = alpha * a(p, i);
      if (av == Real{0}) continue;
      for (Index j = 0; j < n; ++j) c(i, j) += av * b_at(p, j);
    }
  }
}

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(Real)) == 0;
}

TEST(Matrix, ConstructZeroInitialized) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  for (Index i = 0; i < 3; ++i) {
    for (Index j = 0; j < 4; ++j) EXPECT_EQ(m(i, j), 0.0);
  }
}

TEST(Matrix, RowSpanIsContiguousView) {
  Matrix m(2, 3);
  m(1, 0) = 5;
  m(1, 2) = 7;
  auto row = m.row(1);
  EXPECT_EQ(row[0], 5);
  EXPECT_EQ(row[2], 7);
  row[1] = 6;
  EXPECT_EQ(m(1, 1), 6);
}

TEST(Matrix, BlockRoundTrip) {
  Rng rng(1);
  Matrix m = random_matrix(6, 8, rng);
  Matrix blk = m.block(2, 3, 3, 4);
  EXPECT_EQ(blk.rows(), 3);
  EXPECT_EQ(blk.cols(), 4);
  for (Index i = 0; i < 3; ++i) {
    for (Index j = 0; j < 4; ++j) EXPECT_EQ(blk(i, j), m(2 + i, 3 + j));
  }
  Matrix copy(6, 8);
  copy.set_block(2, 3, blk);
  for (Index i = 0; i < 3; ++i) {
    for (Index j = 0; j < 4; ++j) EXPECT_EQ(copy(2 + i, 3 + j), m(2 + i, 3 + j));
  }
}

TEST(Matrix, BlockOutOfRangeThrows) {
  Matrix m(3, 3);
  EXPECT_THROW(m.block(1, 1, 3, 1), Error);
  EXPECT_THROW((void)m.block(0, 2, 1, 2), Error);
}

TEST(Matrix, TransposedSwapsIndices) {
  Rng rng(2);
  Matrix m = random_matrix(4, 7, rng);
  Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 7);
  EXPECT_EQ(t.cols(), 4);
  for (Index i = 0; i < 4; ++i) {
    for (Index j = 0; j < 7; ++j) EXPECT_EQ(t(j, i), m(i, j));
  }
}

TEST(Matrix, GlorotBoundsRespected) {
  Rng rng(3);
  Matrix w(64, 32);
  w.fill_glorot(rng);
  const Real bound = std::sqrt(6.0 / (64 + 32));
  for (Real v : w.flat()) {
    EXPECT_GE(v, -bound);
    EXPECT_LE(v, bound);
  }
  // Not all zero.
  EXPECT_GT(w.frobenius_norm(), 0.1);
}

TEST(Matrix, MaxAbsDiffAndAllclose) {
  Matrix a(2, 2);
  Matrix b(2, 2);
  b(1, 1) = 1e-3;
  EXPECT_DOUBLE_EQ(Matrix::max_abs_diff(a, b), 1e-3);
  EXPECT_TRUE(Matrix::allclose(a, b, 1e-2));
  EXPECT_FALSE(Matrix::allclose(a, b, 1e-4));
}

class GemmAllTranspose
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(GemmAllTranspose, MatchesNaive) {
  const auto [mi, ki, ni, trans_combo] = GetParam();
  const Index m = mi;
  const Index k = ki;
  const Index n = ni;
  const Trans ta = (trans_combo & 1) ? Trans::kYes : Trans::kNo;
  const Trans tb = (trans_combo & 2) ? Trans::kYes : Trans::kNo;

  Rng rng(static_cast<std::uint64_t>(m * 131 + k * 17 + n + trans_combo));
  Matrix a = ta == Trans::kNo ? random_matrix(m, k, rng)
                              : random_matrix(k, m, rng);
  Matrix b = tb == Trans::kNo ? random_matrix(k, n, rng)
                              : random_matrix(n, k, rng);

  const Matrix expected = naive_matmul(a, b, ta, tb);
  const Matrix got = matmul(a, b, ta, tb);
  EXPECT_LE(Matrix::max_abs_diff(expected, got), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmAllTranspose,
    ::testing::Combine(::testing::Values(1, 5, 33, 64),
                       ::testing::Values(1, 7, 65),
                       ::testing::Values(1, 4, 31),
                       ::testing::Values(0, 1, 2, 3)));

TEST(Gemm, AlphaBetaComposition) {
  Rng rng(5);
  Matrix a = random_matrix(4, 6, rng);
  Matrix b = random_matrix(6, 3, rng);
  Matrix c = random_matrix(4, 3, rng);
  Matrix c_orig = c;
  gemm(Trans::kNo, Trans::kNo, 2.0, a, b, 0.5, c);
  const Matrix ab = naive_matmul(a, b, Trans::kNo, Trans::kNo);
  for (Index i = 0; i < 4; ++i) {
    for (Index j = 0; j < 3; ++j) {
      EXPECT_NEAR(c(i, j), 2.0 * ab(i, j) + 0.5 * c_orig(i, j), 1e-12);
    }
  }
}

TEST(Gemm, InnerDimensionMismatchThrows) {
  Matrix a(2, 3);
  Matrix b(4, 2);
  Matrix c(2, 2);
  EXPECT_THROW(gemm(Trans::kNo, Trans::kNo, 1.0, a, b, 0.0, c), Error);
}

TEST(Gemm, ZeroAlphaScalesOnly) {
  Rng rng(6);
  Matrix a = random_matrix(3, 3, rng);
  Matrix b = random_matrix(3, 3, rng);
  Matrix c = random_matrix(3, 3, rng);
  Matrix expected = c;
  for (Real& v : expected.flat()) v *= 0.25;
  gemm(Trans::kNo, Trans::kNo, 0.0, a, b, 0.25, c);
  EXPECT_LE(Matrix::max_abs_diff(expected, c), 1e-15);
}

TEST(Ops, ReluClampsNegatives) {
  Matrix z(2, 2);
  z(0, 0) = -1;
  z(0, 1) = 2;
  z(1, 0) = 0;
  z(1, 1) = -0.5;
  Matrix out(2, 2);
  relu(z, out);
  EXPECT_EQ(out(0, 0), 0);
  EXPECT_EQ(out(0, 1), 2);
  EXPECT_EQ(out(1, 0), 0);
  EXPECT_EQ(out(1, 1), 0);
}

TEST(Ops, ReluBackwardMasksByPreactivation) {
  Matrix z(1, 3);
  z(0, 0) = -1;
  z(0, 1) = 1;
  z(0, 2) = 0;
  Matrix g(1, 3);
  g(0, 0) = 10;
  g(0, 1) = 20;
  g(0, 2) = 30;
  Matrix out(1, 3);
  relu_backward(g, z, out);
  EXPECT_EQ(out(0, 0), 0);
  EXPECT_EQ(out(0, 1), 20);
  EXPECT_EQ(out(0, 2), 0);  // subgradient at 0 chosen as 0
}

TEST(Ops, ReluAndBackwardMatchScalarBitwise) {
  // +/-0, a subnormal, infinities and NaN among ordinary values, at
  // lengths below, at and past the vector widths so both clones' vector
  // bodies and remainders run. relu maps -0 and NaN to +0; the backward
  // passes g's bits (a -0 included) exactly where z > 0, +0 elsewhere.
  const Real inf = std::numeric_limits<Real>::infinity();
  const Real nan = std::numeric_limits<Real>::quiet_NaN();
  const Real tiny = std::numeric_limits<Real>::denorm_min();
  const std::vector<Real> special = {-0.0, 0.0,  -1.5, 2.5,  tiny,
                                     -tiny, inf, -inf, nan,  -0.0,
                                     3.0,  -2.0, 0.0,  1e-300};
  for (Index len : {1, 3, 4, 5, 8, 13, 14, 37}) {
    Matrix z(1, len);
    Matrix g(1, len);
    for (Index i = 0; i < len; ++i) {
      const auto s = static_cast<std::size_t>(i);
      z(0, i) = special[s % special.size()];
      g(0, i) = special[(s * 5 + 3) % special.size()];
    }
    Matrix expected(1, len);
    Matrix got(1, len);
    for (Index i = 0; i < len; ++i) {
      expected(0, i) = z(0, i) > 0 ? z(0, i) : 0.0;
    }
    relu(z, got);
    EXPECT_TRUE(same_bits(expected, got)) << "relu len=" << len;
    for (Index i = 0; i < len; ++i) {
      expected(0, i) = z(0, i) > 0 ? g(0, i) : 0.0;
    }
    relu_backward(g, z, got);
    EXPECT_TRUE(same_bits(expected, got)) << "relu_backward len=" << len;
  }
}

TEST(Ops, LogSoftmaxRowsNormalize) {
  Rng rng(7);
  Matrix z = random_matrix(5, 9, rng, -3, 3);
  Matrix ls(5, 9);
  log_softmax_rows(z, ls);
  for (Index i = 0; i < 5; ++i) {
    Real sum = 0;
    for (Index j = 0; j < 9; ++j) sum += std::exp(ls(i, j));
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(Ops, LogSoftmaxStableUnderLargeShift) {
  Matrix z(1, 3);
  z(0, 0) = 1000;
  z(0, 1) = 1001;
  z(0, 2) = 999;
  Matrix ls(1, 3);
  log_softmax_rows(z, ls);
  Real sum = 0;
  for (Index j = 0; j < 3; ++j) {
    EXPECT_TRUE(std::isfinite(ls(0, j)));
    sum += std::exp(ls(0, j));
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Ops, LogSoftmaxShiftInvariant) {
  Rng rng(8);
  Matrix z = random_matrix(3, 4, rng);
  Matrix shifted = z;
  for (Real& v : shifted.flat()) v += 123.0;
  Matrix a(3, 4);
  Matrix b(3, 4);
  log_softmax_rows(z, a);
  log_softmax_rows(shifted, b);
  EXPECT_LE(Matrix::max_abs_diff(a, b), 1e-9);
}

// Numerical check of the log-softmax backward rule.
TEST(Ops, LogSoftmaxBackwardMatchesNumericalGradient) {
  Rng rng(9);
  const Index n = 3;
  const Index f = 5;
  Matrix z = random_matrix(n, f, rng);
  Matrix g = random_matrix(n, f, rng);  // arbitrary upstream gradient

  Matrix ls(n, f);
  log_softmax_rows(z, ls);
  Matrix analytic(n, f);
  log_softmax_backward(g, ls, analytic);

  const Real eps = 1e-6;
  for (Index i = 0; i < n; ++i) {
    for (Index j = 0; j < f; ++j) {
      Matrix zp = z;
      Matrix zm = z;
      zp(i, j) += eps;
      zm(i, j) -= eps;
      Matrix lsp(n, f);
      Matrix lsm(n, f);
      log_softmax_rows(zp, lsp);
      log_softmax_rows(zm, lsm);
      // Scalar objective: sum(g ⊙ log_softmax(z)).
      Real fp = 0;
      Real fm = 0;
      for (Index a = 0; a < n; ++a) {
        for (Index b = 0; b < f; ++b) {
          fp += g(a, b) * lsp(a, b);
          fm += g(a, b) * lsm(a, b);
        }
      }
      EXPECT_NEAR(analytic(i, j), (fp - fm) / (2 * eps), 1e-5);
    }
  }
}

TEST(Ops, NllLossMatchesManual) {
  Matrix lp(3, 2);
  lp(0, 0) = std::log(0.25);
  lp(0, 1) = std::log(0.75);
  lp(1, 0) = std::log(0.5);
  lp(1, 1) = std::log(0.5);
  lp(2, 0) = std::log(0.9);
  lp(2, 1) = std::log(0.1);
  const std::vector<Index> labels = {1, 0, 0};
  const Real expected =
      -(std::log(0.75) + std::log(0.5) + std::log(0.9)) / 3.0;
  EXPECT_NEAR(nll_loss(lp, labels), expected, 1e-12);
}

TEST(Ops, NllLossIgnoresMaskedRows) {
  Matrix lp(2, 2);
  lp(0, 0) = std::log(0.5);
  lp(1, 0) = std::log(0.125);
  const std::vector<Index> labels = {0, -1};
  EXPECT_NEAR(nll_loss(lp, labels), -std::log(0.5), 1e-12);
}

TEST(Ops, NllBackwardPlacesMassOnLabels) {
  Matrix lp(3, 4);
  const std::vector<Index> labels = {2, -1, 0};
  Matrix grad(3, 4);
  nll_loss_backward(lp, labels, grad);
  EXPECT_DOUBLE_EQ(grad(0, 2), -0.5);  // two labeled rows -> -1/2
  EXPECT_DOUBLE_EQ(grad(2, 0), -0.5);
  // All other entries zero.
  Real sum = 0;
  for (Real v : grad.flat()) sum += std::abs(v);
  EXPECT_DOUBLE_EQ(sum, 1.0);
}

TEST(Ops, AxpyAccumulates) {
  Matrix x(2, 2);
  x.fill(3);
  Matrix y(2, 2);
  y.fill(1);
  axpy(0.5, x, y);
  for (Real v : y.flat()) EXPECT_DOUBLE_EQ(v, 2.5);
}

TEST(Ops, HadamardMultipliesElementwise) {
  Matrix a(1, 3);
  Matrix b(1, 3);
  a(0, 0) = 2;
  a(0, 1) = 3;
  a(0, 2) = -1;
  b(0, 0) = 5;
  b(0, 1) = -2;
  b(0, 2) = 4;
  Matrix out(1, 3);
  hadamard(a, b, out);
  EXPECT_EQ(out(0, 0), 10);
  EXPECT_EQ(out(0, 1), -6);
  EXPECT_EQ(out(0, 2), -4);
}

TEST(Ops, AccuracyCountsLabeledHits) {
  Matrix lp(3, 2);
  lp(0, 1) = 1;  // argmax 1
  lp(1, 0) = 1;  // argmax 0
  lp(2, 1) = 1;  // argmax 1, masked
  const std::vector<Index> labels = {1, 1, -1};
  EXPECT_DOUBLE_EQ(accuracy(lp, labels), 0.5);
}

TEST(Ops, ArgmaxRowsPicksFirstMax) {
  Matrix m(2, 3);
  m(0, 2) = 5;
  m(1, 0) = 1;
  m(1, 1) = 1;  // tie -> first index
  const auto idx = argmax_rows(m);
  EXPECT_EQ(idx[0], 2);
  EXPECT_EQ(idx[1], 0);
}

TEST(MatrixWorkspace, ResizeReusesStorage) {
  Matrix m(4, 5);
  m.fill(7);
  const Real* before = m.data();
  m.resize(2, 10);  // same element count: storage must be reused
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 10);
  EXPECT_EQ(m.data(), before);
  m.resize(1, 3);  // shrink keeps capacity
  EXPECT_EQ(m.data(), before);
  EXPECT_EQ(m.size(), 3);
}

TEST(MatrixWorkspace, BlockIntoMatchesBlock) {
  Rng rng(91);
  Matrix m(6, 7);
  m.fill_uniform(rng, -1, 1);
  Matrix out(1, 1);  // wrong shape on purpose; block_into must resize
  m.block_into(1, 2, 4, 3, out);
  EXPECT_EQ(Matrix::max_abs_diff(out, m.block(1, 2, 4, 3)), 0.0);
}

TEST(Gemm, ThreadedMatchesSerialBitwise) {
  // The row-block partition must not change any result bit, for every
  // trans combination, and the chunked products must still equal the
  // reference loops. Shapes are large enough that the automatic plan
  // genuinely chunks at budget 8.
  Rng rng(92);
  const Index m = 2003, k = 64, n = 31;
  Matrix a(m, k);
  Matrix b(k, n);
  a.fill_uniform(rng, -1, 1);
  b.fill_uniform(rng, -1, 1);
  for (const auto& [ta, tb] :
       {std::pair<Trans, Trans>{Trans::kNo, Trans::kNo},
        {Trans::kYes, Trans::kNo},
        {Trans::kNo, Trans::kYes},
        {Trans::kYes, Trans::kYes}}) {
    const Matrix aa = ta == Trans::kNo ? a : a.transposed();
    const Matrix bb = tb == Trans::kNo ? b : b.transposed();
    Matrix serial(m, n);
    Matrix threaded(m, n);
    override_thread_budget(1);
    gemm(ta, tb, Real{1.25}, aa, bb, Real{0}, serial);
    override_thread_budget(8);
    gemm(ta, tb, Real{1.25}, aa, bb, Real{0}, threaded);
    override_thread_budget(0);
    EXPECT_EQ(Matrix::max_abs_diff(serial, threaded), 0.0);
    Matrix expected(m, n);
    reference_gemm(ta, tb, Real{1.25}, aa, bb, Real{0}, expected);
    EXPECT_TRUE(same_bits(expected, threaded));
  }
}

TEST(Gemm, MatchesReferenceBitwise) {
  // k at every remainder of the four-step fold, short and long, m not a
  // multiple of 4, n below, at and around the vector lengths (2 and 4
  // doubles), so each clone's vector body and its remainder run, every
  // beta-pass branch, for all four transpose combinations, with a dense A
  // and a post-ReLU A whose entries are about half exactly zero (the
  // transposed-A reference skips their products; gemm adds them, which
  // leaves every bit alone while C holds no -0 and B is finite).
  Rng rng(93);
  const Real alpha = 1.25;
  for (Trans ta : {Trans::kNo, Trans::kYes}) {
    for (Trans tb : {Trans::kNo, Trans::kYes}) {
      for (bool half_zero : {false, true}) {
        for (Index k : {1, 3, 4, 5, 63, 64, 65, 130}) {
          for (Index m : {1, 7, 37}) {
            for (Index n : {1, 3, 4, 5, 8, 16, 17}) {
              Matrix a = ta == Trans::kNo ? random_matrix(m, k, rng)
                                          : random_matrix(k, m, rng);
              if (half_zero) {
                for (Real& v : a.flat()) v = std::max(v, Real{0});
              }
              const Matrix b = tb == Trans::kNo ? random_matrix(k, n, rng)
                                                : random_matrix(n, k, rng);
              const Matrix c0 = random_matrix(m, n, rng);
              for (Real beta : {0.0, 0.5, 1.0}) {
                Matrix expected = c0;
                reference_gemm(ta, tb, alpha, a, b, beta, expected);
                Matrix got = c0;
                gemm(ta, tb, alpha, a, b, beta, got);
                EXPECT_TRUE(same_bits(expected, got))
                    << "trans_a=" << (ta == Trans::kYes)
                    << " trans_b=" << (tb == Trans::kYes)
                    << " half_zero=" << half_zero << " m=" << m
                    << " k=" << k << " n=" << n << " beta=" << beta;
              }
            }
          }
        }
      }
    }
  }
}

TEST(Gemm, RejectsAliasedOutput) {
  Rng rng(96);
  Matrix a = random_matrix(4, 4, rng);
  Matrix b = random_matrix(4, 4, rng);
  const Matrix a_before = a;
  const Matrix b_before = b;
  EXPECT_THROW(gemm(Trans::kNo, Trans::kNo, 1.0, a, b, 0.0, a), Error);
  EXPECT_THROW(gemm(Trans::kNo, Trans::kNo, 1.0, a, b, 1.0, b), Error);
  EXPECT_THROW(gemm(Trans::kYes, Trans::kNo, 1.0, a, a, 0.0, a), Error);
  // B-transposed calls are rejected before op(B) is copied to scratch.
  EXPECT_THROW(gemm(Trans::kNo, Trans::kYes, 1.0, a, b, 0.0, b), Error);
  EXPECT_THROW(gemm(Trans::kYes, Trans::kYes, 1.0, a, b, 0.0, a), Error);
  EXPECT_EQ(Matrix::max_abs_diff(a_before, a), 0.0);  // rejected untouched
  EXPECT_EQ(Matrix::max_abs_diff(b_before, b), 0.0);
  // The scratch still serves the next B-transposed call exactly.
  Matrix got(4, 4);
  Matrix expected(4, 4);
  gemm(Trans::kNo, Trans::kYes, 1.0, a, b, 0.0, got);
  reference_gemm(Trans::kNo, Trans::kYes, 1.0, a, b, 0.0, expected);
  EXPECT_TRUE(same_bits(expected, got));
}

}  // namespace
}  // namespace cagnet
