#include "src/core/dist15d.hpp"

#include <algorithm>
#include <utility>
#include <vector>

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
    // SpMM accumulates. A member whose stripe has no stage (t >= G) posts
    // nothing.
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
        hj_recv_, hj_recv2_, slice_, stats.work, machine(), stats.profiler);
  }

  // Team all-reduce completes the contraction and leaves T replicated
  // across the c team members (the 1.5D replication cost).
  if (c_ == 1) return;
  ScopedPhase scope(stats.profiler, Phase::kDenseComm);
  team_.allreduce_sum(t.flat(), CommCategory::kDense);
}

void Algebra15D::release_setup_buffers() noexcept {
  hj_recv_ = Matrix();
  hj_recv2_ = Matrix();
  halo_.pack.send_buf = Matrix();
  halo_.pack.send_bytes = std::vector<std::uint8_t>();
  halo_.recv_decode = std::vector<Real>();
}

void Algebra15D::spmm_a(const Matrix& g, Matrix& u, EpochStats& stats) {
  const Index f = g.cols();
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
    slice_.reduce_scatter_sum_compressed(
        std::span<const Real>(u_partial_.flat()),
        keeper ? u.flat() : std::span<Real>{}, rmode, u_cbuf_,
        &stats.profiler);
    broadcast_to_team(keeper, u, stats);
    return;
  }

  // Reduce-scatter within the slice: slice rank j' keeps U[R_j'] when
  // j' ≡ t (mod c), nothing otherwise (chunk order is ascending j, which
  // is ascending slice rank). The keeper's chunk lands directly in u.
  // Then a team broadcast from the member holding this group's block.
  {
    ScopedPhase scope(stats.profiler, Phase::kDenseComm);
    slice_.reduce_scatter_sum(std::span<const Real>(u_partial_.flat()),
                              keeper ? u.flat() : std::span<Real>{},
                              CommCategory::kDense);
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
  team_.broadcast_from(src, keeper ? std::span<Real>{} : u.flat(), g_ % c_,
                       CommCategory::kDense);
}

void Algebra15D::reduce_gradients(Index layer, Matrix& y_partial,
                                  Index f_in, Index f_out, Matrix& y_full,
                                  EpochStats& stats) {
  // Rows whole: y_partial is the group's (f_in x f_out) contribution,
  // summed over groups within the slice (each slice forms the identical
  // full sum independently, keeping Y replicated without cross-team
  // traffic).
  CAGNET_CHECK(y_partial.rows() == f_in && y_partial.cols() == f_out,
               "reduce_gradients: unexpected partial shape");
  dist::allreduce_gradient(layer, y_partial, run().compress, grad_residuals_,
                           slice_, stats.profiler);
  y_full.resize(f_in, f_out);
  std::copy(y_partial.flat().begin(), y_partial.flat().end(),
            y_full.flat().begin());
}

}  // namespace cagnet
