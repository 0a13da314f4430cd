#include "src/core/dist15d.hpp"

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "src/dense/gemm.hpp"
#include "src/util/error.hpp"

namespace cagnet {

Algebra15D::Algebra15D(const DistProblem& problem, Comm world,
                       int replication, const RunConfig& run,
                       MachineModel machine)
    : DistSpmmAlgebra(run, machine), world_(std::move(world)),
      c_(replication) {
  CAGNET_CHECK(c_ >= 1 && world_.size() % c_ == 0,
               "replication factor must divide world size");
  groups_ = world_.size() / c_;
  t_ = world_.rank() % c_;
  g_ = world_.rank() / c_;
  if (c_ > 1) {
    team_ = world_.split(/*color=*/g_, /*key=*/t_);
    slice_ = world_.split(/*color=*/t_, /*key=*/g_);
  } else {
    slice_ = world_;
  }
  grad_comm_ = slice_.split(/*color=*/0, /*key=*/slice_.rank());

  row_starts_ = dist::row_starts(problem, groups_);
  row_lo_ = row_starts_[static_cast<std::size_t>(g_)];
  row_hi_ = row_starts_[static_cast<std::size_t>(g_) + 1];

  // The stripe's A^T blocks, one per broadcast stage, and their
  // transposes stacked in stage order as the backward operand (stacked
  // bases record where each group's rows start in it).
  std::vector<Index> stacked_base(static_cast<std::size_t>(groups_), 0);
  std::vector<Csr> a_pieces;
  Index stripe_rows = 0;
  for (int j = t_; j < groups_; j += c_) {
    stages_.push_back(j);
    at_stripe_.push_back(problem.at.block(
        row_lo_, row_hi_, row_starts_[static_cast<std::size_t>(j)],
        row_starts_[static_cast<std::size_t>(j) + 1]));
    a_pieces.push_back(at_stripe_.back().transposed());
    stacked_base[static_cast<std::size_t>(j)] = stripe_rows;
    stripe_rows += a_pieces.back().rows();
  }
  a_stacked_ = a_pieces.empty() ? Csr(0, row_hi_ - row_lo_)
                                : Csr::vstack(a_pieces);
  a_pieces.clear();  // before the halo plan copies the blocks again

  // Halo mode: exchange, over the slice, exactly the remote H rows the
  // stripe blocks touch. Off-stripe slice peers hold rows this rank never
  // reads (their stages do not exist), so the plan requests nothing from
  // them.
  grad_pending_.codec = run.compress;
  use_halo_ = run.halo && groups_ > 1;
  if (use_halo_) {
    halo_.codec = run.compress;
    dist::build_halo_plan([&](int j) { return stripe_block(j); }, g_,
                          slice_, halo_);

    // Backward mirror, stacked: the contribution rows for peer j pack
    // from stacked_base[j] + peer-local row of u_partial_.
    self_stacked_row0_ =
        (g_ % c_) == t_ ? stacked_base[static_cast<std::size_t>(g_)] : 0;
    bwd_pack_rows_.reserve(halo_.need_rows.size());
    for (int j = 0; j < groups_; ++j) {
      for (std::size_t k = halo_.recv_row_offsets[static_cast<std::size_t>(j)];
           k < halo_.recv_row_offsets[static_cast<std::size_t>(j) + 1]; ++k) {
        bwd_pack_rows_.push_back(stacked_base[static_cast<std::size_t>(j)] +
                                 halo_.need_rows[k]);
      }
    }
    // Gate the backward exchange on profitability: it lands per-peer
    // contribution rows (send_rows, the forward mirror) instead of the
    // reduce-scatter's pre-reduced stripe_rows*(G-1)/G chunk, so under a
    // poor partition the busiest rank could move (and pack/scatter) more
    // than the reduce-scatter charges.
    use_bwd_halo_ = dist::halo_backward_profitable(
        halo_.send_rows.size(),
        static_cast<double>(stripe_rows) *
            static_cast<double>(groups_ - 1) / static_cast<double>(groups_),
        slice_);
    if (run.preagg) {
      // Aggregation-before-communication over the slice: a destination
      // group d only requests rows from g when (g, d)'s coupling block
      // sits on d's stripe, and both endpoints see the same block of the
      // global A^T, so they reach the same decision without traffic.
      dist::build_preagg_plan(
          problem.at,
          [&](int j) {
            return std::pair<Index, Index>(
                row_starts_[static_cast<std::size_t>(j)],
                row_starts_[static_cast<std::size_t>(j) + 1]);
          },
          row_lo_, row_hi_, g_, halo_);
    }
  }
}

void Algebra15D::begin_epoch(int epoch) {
  dist::halo_begin_epoch(epoch, use_halo_, run(), halo_);
}

void Algebra15D::spmm_at(const Matrix& h, Matrix& t, EpochStats& stats) {
  const Index f = h.cols();
  if (c_ > 1) {
    // Release point for the previous layer's deferred team reduction:
    // team peers read this rank's T chunks at their waits, and `t` is
    // rewritten below. Readers drained a whole layer ago.
    ScopedPhase scope(stats.profiler, Phase::kDenseComm);
    team_.quiesce();
  }
  t.resize(local_rows(), f);
  t.set_zero();

  // Algorithm 1's broadcast stages restricted to this slice's stripe
  // j ≡ t (mod c): the broadcast volume of the 1D algorithm divided by c.
  // The stage root broadcasts straight from h (slice ranks are ordered by
  // group, so the slice root of stage j is group j's member); everyone
  // else receives into the reused stage buffers.
  if (use_halo_) {
    // IV-A.8 request-and-send, stripe-restricted and pipelined: the
    // exchange of exactly the needed remote rows (edgecut * f words,
    // metered as kHalo) is posted, the self stage (when this group's
    // block is on the stripe) runs while remote rows are in flight, and
    // each remote stage drains its peer's rows as they land — in the same
    // j-ascending accumulation order as the broadcast stages, so the
    // stripe partial of T is bitwise identical.
    dist::halo_spmm_pipeline(h, stripe_block(g_), g_, slice_, halo_,
                             CommCategory::kHalo, machine(), stats, t);
  } else {
    // The next stripe stage's H panel is in flight while this stage's
    // SpMM accumulates (H is stable for the whole epoch, so late peer
    // reads of the final stage need no extra release point). A member
    // whose stripe has no stage (t >= G) posts nothing.
    dist::overlapped_dense_stages(
        static_cast<int>(stages_.size()),
        [&](int s, dist::PendingDenseStage& dn, Matrix& recv) {
          const int j = stages_[static_cast<std::size_t>(s)];
          dn.post(h, recv,
                  row_starts_[static_cast<std::size_t>(j) + 1] -
                      row_starts_[static_cast<std::size_t>(j)],
                  f, j, slice_, CommCategory::kDense);
        },
        [&](int s, const Matrix* hj) {
          ScopedPhase scope(stats.profiler, Phase::kSpmm);
          const Csr& a = at_stripe_[static_cast<std::size_t>(s)];
          a.spmm(*hj, t, /*accumulate=*/true);
          stats.work.add_spmm(machine(), static_cast<double>(a.nnz()),
                              static_cast<double>(f), dist::block_degree(a));
        },
        hj_recv_, hj_recv2_, world_.meter(), stats.work, machine(),
        stats.profiler);
  }

  // Team all-reduce completes the contraction and leaves T replicated
  // across the c team members (the 1.5D replication cost in flight). It
  // is deferred as row-chunked nonblocking ops; the times_weight override
  // drains them interleaved with its GEMM. Chunk charges telescope over
  // cumulative bytes so their sum is bitwise the one-shot all-reduce
  // charge (per-chunk integer division would not be).
  if (c_ == 1) return;
  ScopedPhase scope(stats.profiler, Phase::kDenseComm);
  const Index rows = t.rows();
  t_reduced_.resize(rows, f);
  const int chunks = static_cast<int>(
      std::min<Index>(4, std::max<Index>(rows, 1)));
  deferred_.ops.clear();
  deferred_.rows.clear();
  deferred_.charges.clear();
  const auto cum_bytes = [&](Index upto_rows) {
    const auto elems = static_cast<std::size_t>(upto_rows * f);
    return 2 * elems * sizeof(Real) * static_cast<std::size_t>(c_ - 1) /
           static_cast<std::size_t>(c_);
  };
  for (int i = 0; i < chunks; ++i) {
    const auto [r0, r1] = block_range(rows, chunks, i);
    const auto n = static_cast<std::size_t>((r1 - r0) * f);
    deferred_.rows.push_back({r0, r1});
    deferred_.charges.push_back(
        {i == 0 ? 2.0 * ceil_log2(c_) : 0.0,
         static_cast<double>(cum_bytes(r1) - cum_bytes(r0)) /
             sizeof(Real)});
    deferred_.ops.push_back(team_.iallreduce_sum(
        std::span<const Real>(t.data() + r0 * f, n),
        std::span<Real>(t_reduced_.data() + r0 * f, n),
        CommCategory::kDense, /*charged=*/false));
  }
  deferred_.active = true;
}

void Algebra15D::times_weight(const Matrix& t, const Matrix& w, Matrix& z,
                              EpochStats& stats) {
  if (!deferred_.active) {
    DistSpmmAlgebra::times_weight(t, w, z, stats);
    return;
  }
  deferred_.active = false;
  const Index f_in = w.rows();
  const Index f_out = w.cols();
  CAGNET_CHECK(t_reduced_.rows() == t.rows() && t.cols() == f_in,
               "times_weight: deferred reduction does not match T");
  z.resize(t.rows(), f_out);
  dist::OverlapScope region(world_.meter(), stats.work, machine());
  for (std::size_t i = 0; i < deferred_.ops.size(); ++i) {
    const auto [r0, r1] = deferred_.rows[i];
    {
      // The manual charge lands here — inside the wait window — so the
      // overlap accounting attributes it to the region it overlapped.
      ScopedPhase scope(stats.profiler, Phase::kDenseComm);
      world_.meter().add(CommCategory::kDense, deferred_.charges[i].first,
                         deferred_.charges[i].second);
      deferred_.ops[i].wait();
    }
    region.close();
    region.open();
    {
      ScopedPhase scope(stats.profiler, Phase::kMisc);
      t_reduced_.block_into(r0, 0, r1 - r0, f_in, t_chunk_);
      z_chunk_.resize(r1 - r0, f_out);
      gemm(Trans::kNo, Trans::kNo, Real{1}, t_chunk_, w, Real{0}, z_chunk_);
      std::copy(z_chunk_.flat().begin(), z_chunk_.flat().end(),
                z.data() + r0 * f_out);
      stats.work.add_gemm(machine(), 2.0 * static_cast<double>(r1 - r0) *
                                         static_cast<double>(f_in) *
                                         static_cast<double>(f_out));
    }
  }
  region.close();
  // Source-release contract: team peers may still be reading this rank's
  // T chunks; spmm_at quiesces the team before T is next rewritten.
}

void Algebra15D::complete_spmm_at(Matrix& t, EpochStats& stats) {
  if (!deferred_.active) return;
  deferred_.active = false;
  ScopedPhase scope(stats.profiler, Phase::kDenseComm);
  for (std::size_t i = 0; i < deferred_.ops.size(); ++i) {
    world_.meter().add(CommCategory::kDense, deferred_.charges[i].first,
                       deferred_.charges[i].second);
    deferred_.ops[i].wait();
  }
  // Team peers may still read `t`'s storage, the reduction's source; it
  // moves into t_reduced_, which only the next spmm_at rewrites, behind
  // its team quiesce.
  std::swap(t, t_reduced_);
}

void Algebra15D::release_setup_buffers() noexcept {
  hj_recv_ = Matrix();
  hj_recv2_ = Matrix();
  t_reduced_ = Matrix();
  for (dist::HaloPlan::PackBuf& buf : halo_.pack) {
    buf.send_buf = Matrix();
    buf.send_bytes = std::vector<std::uint8_t>();
  }
  halo_.recv_decode = std::vector<Real>();
}

void Algebra15D::spmm_a(const Matrix& g, Matrix& u, EpochStats& stats) {
  const Index f = g.cols();

  {
    // Release points: slice peers read this rank's u_partial_ (previous
    // layer's reduce-scatter; the halo backward manages its own pack
    // staging instead) and team peers read u (previous layer's replica
    // broadcast); both buffers are rewritten below. The slice release is
    // bounded to that single op — anything broader would wait on the
    // deferred gradient reductions, which peers finish only later.
    ScopedPhase scope(stats.profiler, Phase::kDenseComm);
    if (has_u_release_) slice_.quiesce_op(u_release_ticket_);
    if (c_ > 1) team_.quiesce();
  }
  // Outer product restricted to this stripe: partial U over the rows
  // R_j, j ≡ t (mod c), stacked in stage order — at c = 1 the full O(nf)
  // low-rank partial of Section IV-A.3.
  u_partial_.resize(a_stacked_.rows(), f);
  {
    ScopedPhase scope(stats.profiler, Phase::kSpmm);
    a_stacked_.spmm(g, u_partial_, /*accumulate=*/false);
    stats.work.add_spmm(machine(), static_cast<double>(a_stacked_.nnz()),
                        static_cast<double>(f),
                        dist::block_degree(a_stacked_));
  }

  const bool keeper = (g_ % c_) == t_;
  u.resize(local_rows(), f);

  if (use_bwd_halo_) {
    // Mirrored contribution exchange instead of the slice reduce-scatter:
    // the rows group g contributes to group j are exactly the rows g
    // *needs from* j forward (A^T(R_g, v) != 0 <=> A(v, R_g) != 0), so
    // the plan is its own mirror — contributions pack along need-rows
    // and land on send-rows, in rank-ascending order — bitwise the
    // reduce-scatter's sums (the rows it skips are exact +0.0 terms).
    // Non-keepers contribute rows and receive nothing; their u arrives
    // with the team broadcast below.
    dist::halo_exchange_contributions(
        u_partial_, std::span<const Index>(bwd_pack_rows_),
        std::span<const std::size_t>(halo_.recv_row_offsets),
        /*self_partial=*/keeper, self_stacked_row0_,
        std::span<const Index>(halo_.send_rows),
        std::span<const std::size_t>(halo_.send_row_offsets), g_, slice_,
        halo_, CommCategory::kDense, machine(), stats, u);
    broadcast_to_team(keeper, u, stats);
    return;
  }

  // The compressed reduce-scatter is an all-gather of full encoded
  // contributions, a win only when the codec ratio beats the slice size.
  CompressMode rmode =
      slice_.size() > 1 ? run().compress : CompressMode::kOff;
  if (!reduce_scatter_compression_pays(rmode, u_partial_.flat().size(),
                                       slice_.size())) {
    rmode = CompressMode::kOff;
  }
  if (rmode != CompressMode::kOff) {
    // Lossy-coded slice reduce-scatter (the op times itself); the exact
    // team broadcast then replicates the keeper's decoded block, so all
    // replicas stay bitwise identical.
    PendingCompressedReduce op = slice_.ireduce_scatter_sum_compressed(
        std::span<const Real>(u_partial_.flat()),
        keeper ? u.flat() : std::span<Real>{}, rmode, u_cbuf_,
        &stats.profiler);
    u_release_ticket_ = op.ticket();
    has_u_release_ = true;
    op.wait();
    broadcast_to_team(keeper, u, stats);
    return;
  }

  // Reduce-scatter within the slice: slice rank j' keeps U[R_j'] when
  // j' ≡ t (mod c), nothing otherwise (chunk order is ascending j, which
  // is ascending slice rank). The keeper's chunk lands directly in u.
  // Then a team broadcast from the member holding this group's block.
  // Both are nonblocking forms with no trailing rendezvous (the sources'
  // release is the quiesce above).
  {
    ScopedPhase scope(stats.profiler, Phase::kDenseComm);
    PendingOp reduce_op = slice_.ireduce_scatter_sum(
        std::span<const Real>(u_partial_.flat()),
        keeper ? u.flat() : std::span<Real>{}, CommCategory::kDense);
    u_release_ticket_ = reduce_op.ticket();
    has_u_release_ = true;
    reduce_op.wait();
  }
  broadcast_to_team(keeper, u, stats);
}

void Algebra15D::broadcast_to_team(bool keeper, Matrix& u,
                                   EpochStats& stats) {
  if (c_ == 1) return;
  // Group g's reduced block landed on team member g mod c (the keeper).
  ScopedPhase scope(stats.profiler, Phase::kDenseComm);
  const std::span<const Real> src =
      keeper ? std::span<const Real>(u.flat()) : std::span<const Real>{};
  team_
      .ibroadcast_from(src, keeper ? std::span<Real>{} : u.flat(), g_ % c_,
                       CommCategory::kDense)
      .wait();
}

void Algebra15D::begin_reduce_gradients(Matrix& y_partial, Index f_in,
                                        Index f_out, Matrix& y_full,
                                        EpochStats& stats) {
  // Rows whole: y_partial is the group's (f_in x f_out) contribution,
  // summed over groups within the slice (each slice forms the identical
  // full sum independently, keeping Y replicated without cross-team
  // traffic).
  dist::begin_allreduce_weight_gradient(y_partial, f_in, f_out, grad_comm_,
                                        stats.profiler, grad_pending_,
                                        y_full);
}

void Algebra15D::finish_gradients(EpochStats& stats) {
  dist::finish_allreduce_weight_gradient(stats.profiler, grad_pending_);
}

}  // namespace cagnet
