#include "src/core/dist1d.hpp"

#include <algorithm>

#include "src/util/error.hpp"

namespace cagnet {

Algebra1D::Algebra1D(const DistProblem& problem, Comm world,
                     const RunConfig& run, MachineModel machine)
    : DistSpmmAlgebra(run, machine), world_(std::move(world)),
      grad_comm_(world_.split(/*color=*/0, /*key=*/world_.rank())) {
  n_ = problem.graph->num_vertices();
  const int p = world_.size();
  row_starts_ = dist::row_starts(problem, p);
  row_lo_ = row_starts_[static_cast<std::size_t>(world_.rank())];
  row_hi_ = row_starts_[static_cast<std::size_t>(world_.rank()) + 1];

  // A^T block row, pre-split into the P column blocks of Algorithm 1.
  at_blocks_.reserve(static_cast<std::size_t>(p));
  for (int j = 0; j < p; ++j) {
    at_blocks_.push_back(problem.at.block(
        row_lo_, row_hi_, row_starts_[static_cast<std::size_t>(j)],
        row_starts_[static_cast<std::size_t>(j) + 1]));
  }
  // Column block of A for the backward outer product: A(:, lo:hi) is the
  // transpose of this rank's A^T block row.
  a_col_block_ = problem.at.block(row_lo_, row_hi_, 0, n_).transposed();

  // Halo mode: precompute, from the A^T block sparsity, exactly which
  // remote H rows this rank needs (and, via the plan's request exchange,
  // which of its rows each peer needs). Built once; replayed every layer.
  grad_pending_.codec = run.compress;
  use_halo_ = run.halo && p > 1;
  if (use_halo_) {
    halo_.codec = run.compress;
    dist::build_halo_plan(
        [&](int j) { return &at_blocks_[static_cast<std::size_t>(j)]; },
        world_.rank(),
        [&](int j) { return row_starts_[static_cast<std::size_t>(j)]; },
        world_, halo_);
    // The backward contribution exchange only replaces the reduce-scatter
    // when the structural sparsity actually shrinks it; under a poor
    // partition nearly every row travels anyway and the per-row
    // pack/scatter-add loses to the reduce-scatter's contiguous sums.
    use_bwd_halo_ = dist::halo_backward_profitable(
        halo_.send_rows.size(),
        static_cast<double>(n_) * static_cast<double>(p - 1) /
            static_cast<double>(p),
        world_);
    if (run.preagg) {
      // Aggregation-before-communication side tables: purely local (both
      // endpoints of a pair inspect the same A^T coupling block), built
      // once next to the halo plan.
      dist::build_preagg_plan(
          problem.at,
          [&](int j) {
            return std::pair<Index, Index>(
                row_starts_[static_cast<std::size_t>(j)],
                row_starts_[static_cast<std::size_t>(j) + 1]);
          },
          row_lo_, row_hi_, world_.rank(), halo_);
    }
  }
}

void Algebra1D::begin_epoch(int epoch) {
  dist::halo_begin_epoch(epoch, use_halo_, run(), halo_);
}

void Algebra1D::spmm_at(const Matrix& h, Matrix& t, EpochStats& stats) {
  const int p = world_.size();
  const Index f = h.cols();
  t.resize(local_rows(), f);
  t.set_zero();

  // Algorithm 1: for j = 1..p, broadcast H_j and accumulate A^T_ij H_j.
  // The stage root broadcasts straight from h; everyone else receives
  // into the reused stage buffers.
  const auto stage_rows = [&](int j) {
    return row_starts_[static_cast<std::size_t>(j) + 1] -
           row_starts_[static_cast<std::size_t>(j)];
  };
  const auto spmm_stage = [&](int j, const Matrix* hj) {
    ScopedPhase scope(stats.profiler, Phase::kSpmm);
    const Csr& a = at_blocks_[static_cast<std::size_t>(j)];
    a.spmm(*hj, t, /*accumulate=*/true);
    stats.work.add_spmm(machine(), static_cast<double>(a.nnz()),
                        static_cast<double>(f), dist::block_degree(a));
  };

  if (use_halo_) {
    // IV-A.8 request-and-send, pipelined: the exchange of exactly the
    // needed remote rows (edgecut_P(A) * f words, metered as kHalo) is
    // posted, the self-block SpMM runs while remote rows are in flight,
    // and each peer's compacted stage drains its rows as they land — in
    // the same j-ascending accumulation order, so T is bitwise the
    // broadcast path's.
    dist::halo_spmm_pipeline(
        h, &at_blocks_[static_cast<std::size_t>(world_.rank())],
        world_.rank(), world_, halo_, CommCategory::kHalo, machine(), stats,
        t);
    return;
  }

  // Stage j+1's H panel is in flight while stage j's SpMM accumulates. H
  // is stable for the whole epoch, so late peer reads of the final stage
  // need no extra release point.
  dist::overlapped_dense_stages(
      p,
      [&](int j, dist::PendingDenseStage& dn, Matrix& recv) {
        dn.post(h, recv, stage_rows(j), f, j, world_, CommCategory::kDense);
      },
      spmm_stage, hj_recv_, hj_recv2_, world_.meter(), stats.work,
      machine(), stats.profiler);
}

void Algebra1D::spmm_a(const Matrix& g, Matrix& u, EpochStats& stats) {
  const Index f = g.cols();

  if (use_halo_ && use_bwd_halo_) {
    spmm_a_halo(g, u, stats);
    return;
  }

  if (has_u_release_) {
    // Release point for the previous layer's reduce-scatter: peers read
    // this rank's u_partial_ at their waits, and it is rewritten below.
    // Bounded to that single op — anything broader would wait on the
    // deferred gradient reductions, which peers finish only after this.
    ScopedPhase scope(stats.profiler, Phase::kDenseComm);
    world_.quiesce_op(u_release_ticket_);
  }
  // 1D outer product: U_partial = A(:, my rows) * G_i, a full n x f
  // low-rank partial (the O(nf) intermediate of Section IV-A.3) ...
  u_partial_.resize(n_, f);
  {
    ScopedPhase scope(stats.profiler, Phase::kSpmm);
    a_col_block_.spmm(g, u_partial_, /*accumulate=*/false);
    stats.work.add_spmm(machine(), static_cast<double>(a_col_block_.nnz()),
                        static_cast<double>(f),
                        dist::block_degree(a_col_block_));
  }
  // ... reduce-scattered back to block rows. The nonblocking form skips
  // the trailing rendezvous (u_partial_'s release is the quiesce above);
  // the wait here only completes this rank's receive, peers drain later.
  u.resize(local_rows(), f);
  // The compressed reduce-scatter gathers full encoded contributions, so
  // it only pays at small worlds / high codec ratios; fall back to the
  // exact wire when coding would inflate the bytes (fp16 always, int8
  // beyond P ~ 7). The gate is rank-uniform: same (mode, n, P) everywhere.
  CompressMode rmode =
      world_.size() > 1 ? run().compress : CompressMode::kOff;
  if (!reduce_scatter_compression_pays(rmode, u_partial_.flat().size(),
                                       world_.size())) {
    rmode = CompressMode::kOff;
  }
  if (rmode != CompressMode::kOff) {
    // Lossy-coded U reduce-scatter (the op times itself), released like
    // the exact path.
    PendingCompressedReduce op = world_.ireduce_scatter_sum_compressed(
        std::span<const Real>(u_partial_.flat()), u.flat(), rmode, u_cbuf_,
        &stats.profiler);
    u_release_ticket_ = op.ticket();
    has_u_release_ = true;
    op.wait();
    return;
  }
  ScopedPhase scope(stats.profiler, Phase::kDenseComm);
  PendingOp op = world_.ireduce_scatter_sum(
      std::span<const Real>(u_partial_.flat()), u.flat(),
      CommCategory::kDense);
  u_release_ticket_ = op.ticket();
  has_u_release_ = true;
  op.wait();
}

void Algebra1D::spmm_a_halo(const Matrix& g, Matrix& u, EpochStats& stats) {
  const Index f = g.cols();
  // Same O(nf) outer product as the broadcast path ...
  u_partial_.resize(n_, f);
  {
    ScopedPhase scope(stats.profiler, Phase::kSpmm);
    a_col_block_.spmm(g, u_partial_, /*accumulate=*/false);
    stats.work.add_spmm(machine(), static_cast<double>(a_col_block_.nnz()),
                        static_cast<double>(f),
                        dist::block_degree(a_col_block_));
  }
  // ... but only the structurally nonzero remote rows travel: the rows
  // rank i contributes to rank j are exactly the rows i *needs from* j
  // forward (A^T(rows_i, v) != 0 <=> A(v, rows_i) != 0), so the plan is
  // its own mirror — contributions pack along need-rows and land on
  // send-rows, drained and accumulated peer by peer as they arrive.
  u.resize(local_rows(), f);
  dist::halo_exchange_contributions(
      u_partial_, std::span<const Index>(halo_.need_rows_global),
      std::span<const std::size_t>(halo_.recv_row_offsets),
      /*self_partial=*/true, row_lo_,
      std::span<const Index>(halo_.send_rows),
      std::span<const std::size_t>(halo_.send_row_offsets), world_.rank(),
      world_, halo_, CommCategory::kDense, machine(), stats, u);
}

void Algebra1D::begin_reduce_gradients(Matrix& y_partial, Index f_in,
                                       Index f_out, Matrix& y_full,
                                       EpochStats& stats) {
  // Rows whole: y_partial is already (f_in x f_out); the "small 1D outer
  // product" of Section IV-A.4 finishes with an f x f all-reduce.
  dist::begin_allreduce_weight_gradient(y_partial, f_in, f_out, grad_comm_,
                                        stats.profiler, grad_pending_,
                                        y_full);
}

void Algebra1D::finish_gradients(EpochStats& stats) {
  dist::finish_allreduce_weight_gradient(stats.profiler, grad_pending_);
}

}  // namespace cagnet
