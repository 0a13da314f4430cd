// The rows-whole family: the paper's 1D block-row algorithm (Section IV-A,
// Algorithm 1) and its 1.5D generalization with c-fold dense replication
// (Section IV-B). At c = 1 the 1.5D algorithm *is* Algorithm 1, so one
// class runs both; the registry's "1d" is this algebra at c = 1.
//
// Layout: P = G * c ranks as G "groups" x c "teams" (team index t = rank %
// c, group g = rank / c). Vertex rows are split into G coarse blocks R_g.
//   H^l, G^l: block R_g, *replicated* across the c team members of group g
//             (the c-fold dense memory cost).
//   A^T:      rank (g, t) owns A^T[R_g, R_j] for all j ≡ t (mod c) — the
//             block row's columns are striped across the team, so A itself
//             is not replicated.
//   W:        replicated.
// At c = 1 this is Table III's 1D distribution: A column-partitioned
// (A^T block-row partitioned), H^l and G^l block-row partitioned, and
// every rank is its own group, team and stripe — no replicas, no team.
//
// Per layer:
//   forward   Z = A^T H W : slice t (the G ranks sharing t) runs Algorithm 1
//                           broadcast stages of H_j over only its stripe's
//                           j's — a 1/c reduction of broadcast volume — and
//                           the local A^T_gj H_j products accumulate into T;
//                           for c > 1 a blocking team all-reduce of the
//                           partial T completes the contraction.
//   sigma               : rows are whole, so even log_softmax needs no
//                           communication (Section IV-A.2).
//   backward  AG^l      : outer product A_j G_g over the stripe, summed by a
//                           reduce-scatter of the O(nf/c) per-rank partials
//                           within the slice (IV-A.3); for c > 1 a team
//                           broadcast then replicates the reduced block.
//   Y = (H)^T AG^l      : small outer product + f x f all-reduce within
//                           the slice (IV-A.4).
// Layer 1's forward runs once, at set-up (T^1 = A^T X), and its backward
// needs no AG^1 (see dist_engine.hpp). A narrowing layer aggregates H W (a
// local GEMM) instead of H.
//
// At c = 1 the metered cost matches Section IV-A.5 with edgecut =
// n(P-1)/P (the random / broadcast-based bound; Algorithm 1 broadcasts
// rather than doing individualized request-and-send, exactly as the paper
// argues in IV-A.8). The paper discusses c > 1 only qualitatively
// (Koanantakool-style 1.5D SpMM) and argues that its extra memory is hard
// to justify for GNNs where d = O(f); it gives no formulas or
// implementation. We implement it so the communication/memory trade-off
// can be measured (DESIGN.md experiment E9).
//
// Halo mode (RunConfig::halo) implements the IV-A.8 request-and-send
// instead: a HaloPlan over the slice, built once from the stripe's A^T
// sparsity, exchanges exactly the remote H rows each rank needs (kHalo,
// edgecut_G(A) * f words per layer), pipelined behind the stage SpMMs
// (the self block multiplies while remote rows are in flight; each peer's
// rows are drained zero-copy as they land), and the backward outer
// product sends only its structurally nonzero contribution rows when the
// halo_backward_profitable gate passes (a random partition keeps the
// reduce-scatter) — with losses and weights bitwise identical to the
// broadcast path. Group boundaries follow the DistProblem partition when
// its part count is G (partition-aware layout), so a locality partitioner
// shrinks the exchanged halo.
//
// Only the distributed algebra lives here; the training loop itself is the
// shared DistEngine (see dist_engine.hpp).
#pragma once

#include <memory>
#include <vector>

#include "src/core/dist_engine.hpp"

namespace cagnet {

/// Rows-whole replicated block-row algebra, 1D at c = 1 and 1.5D for
/// c > 1 (the engine's default gather_feature_rows applies); loss rows are
/// primary only on team member 0 of each group.
class Algebra15D final : public DistSpmmAlgebra {
 public:
  /// Collective constructor; replication must divide the world size.
  Algebra15D(const DistProblem& problem, Comm world, int replication,
             const RunConfig& run, MachineModel machine);

  const char* name() const override { return c_ == 1 ? "1d" : "1.5d"; }
  Comm& world() override { return world_; }
  /// At c = 1 the slice is the world and the layout is the pure row
  /// stripe sampled training needs: whole rows, whole features, no
  /// replicas. Team-replicated layouts (c > 1) cannot host it.
  Comm* sample_comm() override { return c_ == 1 ? &slice_ : nullptr; }
  Index row_lo() const override { return row_lo_; }
  Index row_hi() const override { return row_hi_; }
  bool owns_loss_rows() const override { return t_ == 0; }

  void spmm_at(const Matrix& h, Matrix& t, EpochStats& stats) override;
  void spmm_a(const Matrix& g, Matrix& u, EpochStats& stats) override;
  /// Arm the slice halo plan's bounded-staleness state for this epoch
  /// (dist::halo_begin_epoch); a no-op when run().stale_k is off or halo
  /// mode is inactive.
  void begin_epoch(int epoch) override;

  void reduce_gradients(Index layer, Matrix& y_partial, Index f_in,
                        Index f_out, Matrix& y_full,
                        EpochStats& stats) override;
  /// The stage receive buffers and the halo pack staging.
  void release_setup_buffers() noexcept override;

  int replication() const { return c_; }
  int groups() const { return groups_; }
  /// True when the sparsity-aware halo exchange replaces the stripe
  /// broadcasts (run().halo and G > 1).
  bool halo_active() const { return use_halo_; }
  /// True when the backward slice reduce-scatter is also replaced by the
  /// mirrored contribution exchange. Gated at construction: the exchange
  /// moves per-peer contribution rows rather than pre-reduced chunks, so
  /// it only wins when the slice-wide worst-case landed volume stays
  /// within the reduce-scatter's charge (a locality partitioner regime;
  /// a random partition keeps the reduce-scatter).
  bool backward_halo_active() const { return use_bwd_halo_; }

 protected:
  /// Slices hold identical replicas; slice ranks are ordered by group,
  /// i.e. by row block, so the slice all-gather assembles H^L.
  Comm& gather_comm() override { return slice_; }

 private:
  /// Replicate this group's reduced U block from the keeper (team member
  /// g mod c) to the other team members. Collective over the team; a
  /// no-op at c = 1.
  void broadcast_to_team(bool keeper, Matrix& u, EpochStats& stats);

  /// A^T[R_g, R_j] when group j is on this rank's stripe, else nullptr.
  const Csr* stripe_block(int j) const {
    return j % c_ == t_ ? &at_stripe_[static_cast<std::size_t>(j / c_)]
                        : nullptr;
  }

  Comm world_;
  /// The c replicas of this group's dense blocks (c > 1 only; invalid at
  /// c = 1, where no team split is made).
  Comm team_;
  /// The G ranks sharing this team index t (the world itself at c = 1);
  /// also the weight-gradient reduction group.
  Comm slice_;

  int c_ = 1;       ///< replication factor
  int groups_ = 1;  ///< G = P / c
  int t_ = 0;       ///< team index (column stripe)
  int g_ = 0;       ///< group index (vertex block)

  Index row_lo_ = 0, row_hi_ = 0;  ///< R_g
  /// Partition-aware group boundaries (G+1): the DistProblem partition's
  /// offsets when it was prepared for G parts, even block_range otherwise.
  std::vector<Index> row_starts_;
  /// The stripe's groups j ≡ t (mod c), ascending: the broadcast stages.
  /// Empty for a member with no stripe stage (t >= G).
  std::vector<int> stages_;

  bool use_halo_ = false;  ///< sparsity-aware stripe exchange (forward)
  bool use_bwd_halo_ = false;  ///< mirrored contribution exchange (backward)
  dist::HaloPlan halo_;    ///< over the slice; built once, replayed
  /// Backward pack addressing: the plan's need_rows remapped into the
  /// stacked stripe layout of u_partial_ (stacked block base of peer j +
  /// peer-local row), built once alongside the plan.
  std::vector<Index> bwd_pack_rows_;
  Index self_stacked_row0_ = 0;  ///< stacked base of this group's block

  /// at_stripe_[s] = A^T[R_g, R_j] for j = stages_[s]: the s-th summand
  /// of the stage accumulation loop.
  std::vector<Csr> at_stripe_;
  /// A[R_j, R_g] for the stripe's groups, stacked in stage order: the
  /// backward outer-product operand, one kernel call per layer. At c = 1
  /// it is A(:, R_g), the transpose of the whole A^T block row.
  Csr a_stacked_;

  Matrix hj_recv_;    ///< broadcast-stage receive buffer (reused)
  Matrix hj_recv2_;   ///< double-buffer partner (next stage's prefetch)
  Matrix u_partial_;  ///< stacked stripe outer-product partial (reused)

  /// Error-feedback residuals of the lossy Y reduction, one per layer
  /// (dist::allreduce_gradient).
  std::vector<CompressBuf> grad_residuals_;
  /// Codec staging of the compressed slice reduce-scatter
  /// (RunConfig::compress). Error feedback stays off: U is a fresh
  /// activation gradient each layer, not an accumulating signal.
  CompressBuf u_cbuf_;
};

}  // namespace cagnet
