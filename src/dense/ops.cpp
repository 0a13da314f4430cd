#include "src/dense/ops.hpp"

#include <algorithm>
#include <cmath>

#include "src/util/clones.hpp"
#include "src/util/parallel.hpp"

namespace cagnet {

namespace {

void check_same_shape(const Matrix& a, const Matrix& b, const char* what) {
  CAGNET_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
               std::string(what) + " shape mismatch: " + a.shape_string() +
                   " vs " + b.shape_string());
}

// The ReLU passes are cloned (src/util/clones.hpp). Each element is one
// compare and select, so both clones give the same bits, +/-0 and NaN
// included.
CAGNET_KERNEL_CLONES
void relu_range(const Real* z, Real* out, Index lo, Index hi) {
  for (Index i = lo; i < hi; ++i) out[i] = z[i] > Real{0} ? z[i] : Real{0};
}

CAGNET_KERNEL_CLONES
void relu_backward_range(const Real* g, const Real* z, Real* out, Index lo,
                         Index hi) {
  for (Index i = lo; i < hi; ++i) out[i] = z[i] > Real{0} ? g[i] : Real{0};
}

}  // namespace

void relu(const Matrix& z, Matrix& out) {
  check_same_shape(z, out, "relu");
  parallel_for_elements(z.size(), [&](Index lo, Index hi) {
    relu_range(z.data(), out.data(), lo, hi);
  });
}

void relu_backward(const Matrix& g, const Matrix& z, Matrix& out) {
  check_same_shape(g, z, "relu_backward");
  check_same_shape(g, out, "relu_backward");
  parallel_for_elements(g.size(), [&](Index lo, Index hi) {
    relu_backward_range(g.data(), z.data(), out.data(), lo, hi);
  });
}

void log_softmax_rows(const Matrix& z, Matrix& out) {
  check_same_shape(z, out, "log_softmax");
  parallel_for(
      z.rows(),
      plan_chunks(static_cast<double>(z.size()), kMinElemsPerChunk, z.rows()),
      [&](Index r0, Index r1) {
        for (Index i = r0; i < r1; ++i) {
          const auto row = z.row(i);
          auto dst = out.row(i);
          const Real mx = *std::max_element(row.begin(), row.end());
          Real sum = 0;
          for (std::size_t j = 0; j < row.size(); ++j) {
            sum += std::exp(row[j] - mx);
          }
          const Real lse = mx + std::log(sum);
          for (std::size_t j = 0; j < row.size(); ++j) dst[j] = row[j] - lse;
        }
      });
}

void log_softmax_backward(const Matrix& g, const Matrix& log_probs,
                          Matrix& out) {
  check_same_shape(g, log_probs, "log_softmax_backward");
  check_same_shape(g, out, "log_softmax_backward");
  parallel_for(
      g.rows(),
      plan_chunks(static_cast<double>(g.size()), kMinElemsPerChunk, g.rows()),
      [&](Index r0, Index r1) {
        for (Index i = r0; i < r1; ++i) {
          const auto grow = g.row(i);
          const auto lrow = log_probs.row(i);
          auto dst = out.row(i);
          Real gsum = 0;
          for (Real v : grow) gsum += v;
          for (std::size_t j = 0; j < grow.size(); ++j) {
            dst[j] = grow[j] - std::exp(lrow[j]) * gsum;
          }
        }
      });
}

Real nll_loss(const Matrix& log_probs, std::span<const Index> labels) {
  CAGNET_CHECK(static_cast<Index>(labels.size()) == log_probs.rows(),
               "nll_loss: one label per row required");
  Real total = 0;
  Index count = 0;
  for (Index i = 0; i < log_probs.rows(); ++i) {
    if (labels[i] < 0) continue;
    CAGNET_CHECK(labels[i] < log_probs.cols(), "label out of range");
    total -= log_probs(i, labels[i]);
    ++count;
  }
  return count > 0 ? total / static_cast<Real>(count) : Real{0};
}

void nll_loss_backward(const Matrix& log_probs, std::span<const Index> labels,
                       Matrix& grad) {
  CAGNET_CHECK(static_cast<Index>(labels.size()) == log_probs.rows(),
               "nll_loss_backward: one label per row required");
  check_same_shape(log_probs, grad, "nll_loss_backward");
  grad.set_zero();
  Index count = 0;
  for (Index i = 0; i < log_probs.rows(); ++i) {
    if (labels[i] >= 0) ++count;
  }
  if (count == 0) return;
  const Real scale = Real{-1} / static_cast<Real>(count);
  for (Index i = 0; i < log_probs.rows(); ++i) {
    if (labels[i] >= 0) grad(i, labels[i]) = scale;
  }
}

void axpy(Real alpha, const Matrix& x, Matrix& y) {
  check_same_shape(x, y, "axpy");
  const auto xs = x.flat();
  auto ys = y.flat();
  parallel_for_elements(
      static_cast<Index>(xs.size()), [&](Index lo, Index hi) {
    for (Index i = lo; i < hi; ++i) {
      ys[static_cast<std::size_t>(i)] +=
          alpha * xs[static_cast<std::size_t>(i)];
    }
  });
}

void hadamard(const Matrix& a, const Matrix& b, Matrix& out) {
  check_same_shape(a, b, "hadamard");
  check_same_shape(a, out, "hadamard");
  const auto as = a.flat();
  const auto bs = b.flat();
  auto dst = out.flat();
  parallel_for_elements(
      static_cast<Index>(as.size()), [&](Index lo, Index hi) {
    for (Index i = lo; i < hi; ++i) {
      dst[static_cast<std::size_t>(i)] = as[static_cast<std::size_t>(i)] *
                                         bs[static_cast<std::size_t>(i)];
    }
  });
}

std::vector<Index> argmax_rows(const Matrix& m) {
  std::vector<Index> out(static_cast<std::size_t>(m.rows()));
  for (Index i = 0; i < m.rows(); ++i) {
    const auto row = m.row(i);
    out[i] = static_cast<Index>(
        std::max_element(row.begin(), row.end()) - row.begin());
  }
  return out;
}

Real accuracy(const Matrix& log_probs, std::span<const Index> labels) {
  CAGNET_CHECK(static_cast<Index>(labels.size()) == log_probs.rows(),
               "accuracy: one label per row required");
  const auto preds = argmax_rows(log_probs);
  Index hit = 0;
  Index total = 0;
  for (Index i = 0; i < log_probs.rows(); ++i) {
    if (labels[i] < 0) continue;
    ++total;
    if (preds[i] == labels[i]) ++hit;
  }
  return total > 0 ? static_cast<Real>(hit) / static_cast<Real>(total)
                   : Real{0};
}

}  // namespace cagnet
