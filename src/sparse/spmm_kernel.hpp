// Raw CSR x dense kernel, templated on the value type.
//
// This is the workhorse the paper offloads to cuSPARSE csrmm2; here it is a
// portable CPU kernel whose inner loop runs over contiguous dense rows
// (length f), which vectorizes. Each pass over an output row folds four
// nonzeros into a register accumulator and stores once: a quarter of the
// output-row loads and stores of a one-nonzero-per-pass loop, with four
// input-row gathers in flight. Every output element still adds its
// products one at a time in ascending nonzero order (no FMA, no
// reassociation), so the result is bitwise identical to the one-product-
// at-a-time loop. Templating lets the local-SpMM bench (E6) measure both
// fp32 (the paper's GPU precision) and fp64.
//
// The kernel is parallelized over contiguous row blocks on the persistent
// process-wide pool (src/util/parallel.hpp): each chunk owns a disjoint
// row range (boundaries chosen to balance nnz), so no synchronization or
// atomics are needed and the result is bitwise identical for every thread
// count. The automatic chunk count comes from the process thread budget
// (CAGNET_THREADS or the hardware concurrency, divided across concurrent
// simulated-world ranks) and is clamped by a minimum-work heuristic so the
// tiny per-rank blocks of the simulated distributed worlds stay serial.
#pragma once

#include <algorithm>
#include <vector>

#include "src/util/parallel.hpp"
#include "src/util/types.hpp"

namespace cagnet {

namespace detail {

/// Flops below which threading overhead outweighs the kernel itself.
inline constexpr double kSpmmMinFlopsPerThread = 1 << 18;

/// Serial row-range body shared by the serial and threaded paths. `y` must
/// not share storage with `x` (it is declared __restrict).
template <typename T>
void spmm_rows(Index r0, Index r1, const Index* row_ptr, const Index* col_idx,
               const T* vals, const T* x, Index f, T* __restrict y,
               bool accumulate) {
  for (Index i = r0; i < r1; ++i) {
    T* yrow = y + i * f;
    if (!accumulate) {
      for (Index j = 0; j < f; ++j) yrow[j] = T{0};
    }
    Index p = row_ptr[i];
    const Index end = row_ptr[i + 1];
    for (; p + 4 <= end; p += 4) {
      const T v0 = vals[p];
      const T v1 = vals[p + 1];
      const T v2 = vals[p + 2];
      const T v3 = vals[p + 3];
      const T* x0 = x + col_idx[p] * f;
      const T* x1 = x + col_idx[p + 1] * f;
      const T* x2 = x + col_idx[p + 2] * f;
      const T* x3 = x + col_idx[p + 3] * f;
      for (Index j = 0; j < f; ++j) {
        T acc = yrow[j];
        acc += v0 * x0[j];
        acc += v1 * x1[j];
        acc += v2 * x2[j];
        acc += v3 * x3[j];
        yrow[j] = acc;
      }
    }
    for (; p < end; ++p) {
      const T v = vals[p];
      const T* xrow = x + col_idx[p] * f;
      for (Index j = 0; j < f; ++j) yrow[j] += v * xrow[j];
    }
  }
}

}  // namespace detail

/// y[i,:] (+)= sum_k a(i,k) * x[k,:] for a CSR matrix a of shape
/// (rows x anything), x with `f` columns, y with `f` columns.
/// If `accumulate` is false, y rows are overwritten. `y` must not share
/// storage with `x`: rows of y are written while x rows are still being
/// read (Csr::spmm rejects an aliased call with an Error).
///
/// `num_threads` <= 0 selects automatically: up to
/// available_thread_budget() chunks, scaled down so each keeps at least
/// ~256k flops. Row-block boundaries are placed at nnz quantiles
/// (contiguous blocks, balanced work), so every thread count produces
/// bitwise-identical output. Chunks execute on the persistent pool; the
/// call never spawns threads.
template <typename T>
void spmm_csr_kernel(Index rows, const Index* row_ptr, const Index* col_idx,
                     const T* vals, const T* x, Index f, T* y,
                     bool accumulate, int num_threads = 0) {
  const Index nnz = rows > 0 ? row_ptr[rows] : 0;
  int threads = num_threads;
  if (threads <= 0) {
    const double flops = 2.0 * static_cast<double>(nnz) *
                         static_cast<double>(f);
    threads = plan_chunks(flops, detail::kSpmmMinFlopsPerThread,
                          std::max<Index>(rows, 1));
  }
  threads = static_cast<int>(
      std::min<Index>(static_cast<Index>(threads), std::max<Index>(rows, 1)));

  if (threads <= 1) {
    detail::spmm_rows(Index{0}, rows, row_ptr, col_idx, vals, x, f, y,
                      accumulate);
    return;
  }

  // Contiguous row blocks with ~equal nnz: boundary w is the first row
  // whose cumulative nnz reaches w/threads of the total.
  std::vector<Index> bounds(static_cast<std::size_t>(threads) + 1);
  bounds[0] = 0;
  for (int w = 1; w < threads; ++w) {
    const Index target = nnz * w / threads;
    const Index* found = std::lower_bound(row_ptr, row_ptr + rows + 1, target);
    bounds[static_cast<std::size_t>(w)] =
        std::max(bounds[static_cast<std::size_t>(w - 1)],
                 static_cast<Index>(found - row_ptr));
  }
  bounds[static_cast<std::size_t>(threads)] = rows;

  parallel_for_chunks(threads, [&](int w) {
    detail::spmm_rows(bounds[static_cast<std::size_t>(w)],
                      bounds[static_cast<std::size_t>(w) + 1], row_ptr,
                      col_idx, vals, x, f, y, accumulate);
  });
}

}  // namespace cagnet
