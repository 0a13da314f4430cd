// Process-wide persistent thread pool and worker budget.
//
// Two layers of threading coexist here: simulated worlds run P ranks as
// threads (src/comm/comm.hpp), and local kernels (SpMM/GEMM row-block
// parallelism, the elementwise ops) run chunks of their own. Without
// coordination a P-rank world on an H-core host could create up to P*H
// kernel threads. Two mechanisms keep that in check:
//
//  - The *budget*: kernels size their chunk counts from
//    available_thread_budget(), and run_world holds a
//    ScopedThreadBudgetShare so concurrent ranks split the budget instead
//    of multiplying it.
//  - The *pool*: chunks execute on one process-wide set of persistent
//    workers (parallel_for_chunks) instead of freshly spawned
//    std::threads, so the per-call cost is a queue push, not a clone+join.
//    The calling thread always participates, so progress is guaranteed
//    even with zero workers (budget 1), and concurrent callers (the rank
//    threads of a simulated world) share the same workers.
//
// Determinism contract: chunks must write disjoint outputs and must not
// depend on execution order; under that contract every chunk count
// produces bitwise-identical results, which the kernels guarantee by
// splitting on row/element boundaries.
#pragma once

#include <functional>

#include "src/util/types.hpp"

namespace cagnet {

/// Process-wide worker-thread budget: the override if set, else
/// CAGNET_THREADS if set, otherwise std::thread::hardware_concurrency()
/// (read once). A CAGNET_THREADS value other than an integer from 1 to
/// 4096 throws Error.
int thread_budget();

/// The budget available to one caller right now: thread_budget() divided
/// by the number of concurrently active budget shares, at least 1.
int available_thread_budget();

/// Test/bench hook: force thread_budget() to n for the whole process
/// (n <= 0 restores the CAGNET_THREADS / hardware default). The pool grows
/// workers on demand up to the current budget; it never shrinks, a smaller
/// budget simply plans fewer chunks and idles the extra workers.
void override_thread_budget(int n);

/// RAII: splits the process thread budget `ways` ways for its lifetime.
/// run_world holds one sized to its world while rank threads execute.
class ScopedThreadBudgetShare {
 public:
  explicit ScopedThreadBudgetShare(int ways);
  ~ScopedThreadBudgetShare();

  ScopedThreadBudgetShare(const ScopedThreadBudgetShare&) = delete;
  ScopedThreadBudgetShare& operator=(const ScopedThreadBudgetShare&) = delete;

 private:
  int extra_;
};

/// Chunk count for a kernel invocation of `total_work` cost units: at most
/// available_thread_budget(), scaled down so every chunk keeps at least
/// `min_work_per_chunk` units (threading overhead must not outweigh the
/// kernel), clamped to [1, max_chunks].
int plan_chunks(double total_work, double min_work_per_chunk,
                Index max_chunks);

/// Run fn(c) for every c in [0, chunks) on the persistent pool. The
/// calling thread participates; the call blocks until every chunk has
/// finished and rethrows the first chunk exception. Chunks must write
/// disjoint outputs; execution order is unspecified.
void parallel_for_chunks(int chunks, const std::function<void(int)>& fn);

void parallel_for(Index n, int chunks,
                  const std::function<void(Index, Index)>& body);

inline constexpr double kMinElemsPerChunk = 1 << 16;

template <typename Body>
void parallel_for_elements(Index n, const Body& body) {
  parallel_for(n, plan_chunks(static_cast<double>(n), kMinElemsPerChunk, n),
               body);
}

}  // namespace cagnet
