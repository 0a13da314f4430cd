#include "src/dense/gemm.hpp"

#include <algorithm>

#include "src/util/clones.hpp"
#include "src/util/parallel.hpp"

namespace cagnet {
namespace {

/// Flops below which threading overhead outweighs the kernel itself.
constexpr double kGemmMinFlopsPerChunk = 1 << 18;

Index op_rows(Trans t, const Matrix& m) {
  return t == Trans::kNo ? m.rows() : m.cols();
}
Index op_cols(Trans t, const Matrix& m) {
  return t == Trans::kNo ? m.cols() : m.rows();
}

/// A-not-transposed rows [i0, i1) of C: each pass over a C row folds four
/// k-steps (four streamed B rows) into a register accumulator and stores
/// once, a quarter of the C loads and stores of one k-step per pass. The
/// result is bitwise identical to the one-k-step-per-pass loop for any
/// row partition, in either clone (src/util/clones.hpp): they vectorize
/// across a C row's columns only. `c` is __restrict: it must not share
/// storage with `a` or `b`.
CAGNET_KERNEL_CLONES
void gemm_block_nn(Index i0, Index i1, Real alpha, const Real* a,
                   const Real* b, Real* __restrict c, Index k, Index n) {
  for (Index i = i0; i < i1; ++i) {
    Real* crow = c + i * n;
    const Real* arow = a + i * k;
    Index p = 0;
    for (; p + 4 <= k; p += 4) {
      const Real av0 = alpha * arow[p];
      const Real av1 = alpha * arow[p + 1];
      const Real av2 = alpha * arow[p + 2];
      const Real av3 = alpha * arow[p + 3];
      const Real* b0 = b + p * n;
      const Real* b1 = b0 + n;
      const Real* b2 = b1 + n;
      const Real* b3 = b2 + n;
      for (Index j = 0; j < n; ++j) {
        Real acc = crow[j];
        acc += av0 * b0[j];
        acc += av1 * b1[j];
        acc += av2 * b2[j];
        acc += av3 * b3[j];
        crow[j] = acc;
      }
    }
    for (; p < k; ++p) {
      const Real av = alpha * arow[p];
      const Real* brow = b + p * n;
      for (Index j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

/// A transposed (the H^T U weight-gradient product), rows [i0, i1) of C:
/// element (p, i) of the stored A is column i of op(A), so iterate p
/// outermost and fold four rank-1 updates per pass over the small C block,
/// which stays hot — A rows and B rows stream contiguously. Each C element
/// still adds its products one at a time in ascending-p order.
///
/// Zero products are added, not skipped. Measured at one thread on the
/// layer-1 shape (bench_gemm_local BM_GemmLayer1Gradient, a 4-vCPU x86-64
/// VM): a one-update-per-pass loop that skipped zero A elements ran
/// 1.6-1.9x slower on a random half-zero (post-ReLU) A than on a dense one,
/// as the skip branch mispredicts; this loop runs at the same rate on both,
/// 1.8-2.8x faster than the skipping loop on the half-zero A. Adding +/-0
/// leaves every C element's bits as the skip did while C starts at +0
/// (every caller passes beta = 0) and B is finite. `a` is the stored
/// (k x m) matrix; `c` is __restrict as above.
CAGNET_KERNEL_CLONES
void gemm_block_tn(Index i0, Index i1, Real alpha, const Real* a, Index m,
                   const Real* b, Real* __restrict c, Index k, Index n) {
  Index p = 0;
  for (; p + 4 <= k; p += 4) {
    const Real* a0 = a + p * m;
    const Real* a1 = a0 + m;
    const Real* a2 = a1 + m;
    const Real* a3 = a2 + m;
    const Real* b0 = b + p * n;
    const Real* b1 = b0 + n;
    const Real* b2 = b1 + n;
    const Real* b3 = b2 + n;
    for (Index i = i0; i < i1; ++i) {
      const Real av0 = alpha * a0[i];
      const Real av1 = alpha * a1[i];
      const Real av2 = alpha * a2[i];
      const Real av3 = alpha * a3[i];
      Real* crow = c + i * n;
      for (Index j = 0; j < n; ++j) {
        Real acc = crow[j];
        acc += av0 * b0[j];
        acc += av1 * b1[j];
        acc += av2 * b2[j];
        acc += av3 * b3[j];
        crow[j] = acc;
      }
    }
  }
  for (; p < k; ++p) {
    const Real* arow = a + p * m;
    const Real* brow = b + p * n;
    for (Index i = i0; i < i1; ++i) {
      const Real av = alpha * arow[i];
      Real* crow = c + i * n;
      for (Index j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

}  // namespace

void gemm(Trans trans_a, Trans trans_b, Real alpha, const Matrix& a,
          const Matrix& b, Real beta, Matrix& c) {
  const Index m = op_rows(trans_a, a);
  const Index k = op_cols(trans_a, a);
  const Index k2 = op_rows(trans_b, b);
  const Index n = op_cols(trans_b, b);
  CAGNET_CHECK(k == k2, "gemm inner-dimension mismatch: " + a.shape_string() +
                            " x " + b.shape_string());
  CAGNET_CHECK(c.rows() == m && c.cols() == n,
               "gemm output shape mismatch: got " + c.shape_string());
  CAGNET_CHECK(&c != &a && &c != &b,
               "gemm: output must not alias an operand");

  const bool multiply = alpha != Real{0} && m > 0 && n > 0 && k > 0;
  const double flops = 2.0 * static_cast<double>(m) *
                       static_cast<double>(k) * static_cast<double>(n);
  const int chunks =
      multiply ? plan_chunks(flops, kGemmMinFlopsPerChunk, m) : 1;

  // A transposed B (the backward U W^T; W is at most f_in x f_out) is
  // copied row-major into this thread's scratch, which keeps its storage
  // across calls, and runs the same folds as an untransposed one.
  thread_local Matrix b_scratch;
  const Matrix* op_b = &b;
  if (multiply && trans_b == Trans::kYes) {
    b_scratch.resize(k, n);
    for (Index p = 0; p < k; ++p) {
      for (Index j = 0; j < n; ++j) b_scratch(p, j) = b(j, p);
    }
    op_b = &b_scratch;
  }

  parallel_for(m, chunks, [&](Index i0, Index i1) {
    // Per-row beta pass inside the chunk keeps C rows hot for the
    // accumulation that follows. Row blocks write disjoint C rows, so any
    // partition of [0, m) produces bitwise-identical output.
    if (beta == Real{0}) {
      std::fill(c.data() + i0 * n, c.data() + i1 * n, Real{0});
    } else if (beta != Real{1}) {
      Real* row = c.data() + i0 * n;
      const Index len = (i1 - i0) * n;
      for (Index j = 0; j < len; ++j) row[j] *= beta;
    }
    if (!multiply) return;
    if (trans_a == Trans::kNo) {
      gemm_block_nn(i0, i1, alpha, a.data(), op_b->data(), c.data(), k, n);
    } else {
      gemm_block_tn(i0, i1, alpha, a.data(), a.cols(), op_b->data(),
                    c.data(), k, n);
    }
  });
}

Matrix matmul(const Matrix& a, const Matrix& b, Trans trans_a, Trans trans_b) {
  Matrix c(op_rows(trans_a, a), op_cols(trans_b, b));
  gemm(trans_a, trans_b, Real{1}, a, b, Real{0}, c);
  return c;
}

}  // namespace cagnet
