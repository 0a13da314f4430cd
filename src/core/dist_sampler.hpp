// Distributed mini-batch sampled training (the paper's Section VII
// outlook: "our distributed training algorithms ... carefully combined
// with sophisticated sampling based methods").
//
// The sampled epoch is the full-batch distributed epoch *masked* to the
// receptive field of each minibatch: per layer k the runner keeps the
// sorted set F_k of this rank's rows that the batch needs at that depth
// (F_L = the batch seeds; F_{k-1} = the sampled in-neighbors of F_k,
// local and requested-by-peers alike), and every matrix of the layer —
// activations, pre-activations, gradients — is the compact |F_k|-row
// restriction of its full-batch counterpart. Because the per-hop sampled
// neighbor lists stay ascending and the exchange/accumulation discipline
// is exactly the halo path's (ascending peer order, per-source drains,
// rank-ascending contribution sums), an uncapped fanout reproduces the
// full-batch epoch bitwise: every per-element sum is the same ordered sum
// of the same products, restricted to rows outside which the full-batch
// epoch only ever adds exact zeros.
//
// Pipeline (mirroring the PR-5 halo drain discipline): while batch b's
// backward and optimizer step run, batch b+1 has already been sampled,
// its plans built, and its level-0 feature exchange *posted* — the
// ialltoallv flies behind a whole compute phase and is drained row-set by
// row-set inside batch b+1's first-layer sweep (halo_spmm_sweep). Two
// batch slots alternate so nothing is rebuilt in place while peers may
// still read it; after the first minibatch the hot path is
// allocation-free (every vector and matrix is resized in place).
//
// Lockstep: ranks may own different labeled counts, so the batch count is
// the all-reduced maximum and ranks that run out of seeds keep issuing
// every collective on empty (0-row) matrices — same order, same
// categories, zero rows.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/core/dist_common.hpp"
#include "src/gnn/optimizer.hpp"

namespace cagnet {

/// Fanout value meaning "take the whole in-neighborhood" (no cap). An
/// all-infinite fanout vector makes every sampled batch an exact induced
/// receptive field, which is how the sampled trainer proves bitwise
/// parity against the full-batch engine.
inline constexpr Index kSampleAll = std::numeric_limits<Index>::max();

/// The sampled runner's per-run options, taken from RunConfig's sampling
/// fields.
struct MiniBatchOptions {
  Index batch_size = 64;
  /// Per-hop fanouts, outermost hop first; one per GNN layer.
  std::vector<Index> fanouts = {15, 10, 5};
  std::uint64_t seed = 99;
};

class DistSpmmAlgebra;

namespace dist {

/// The sampled minibatch epoch driver. Owned lazily by DistEngine (one
/// per engine); weights/gradients/optimizer stay engine-owned so
/// checkpointing and set_weights keep working unchanged. All methods are
/// collective over the sample communicator.
class SampledRunner {
 public:
  /// Throws Error unless `run`'s sampling modes fit `config`: one fanout
  /// per layer, and fewer layers than the channel ring. Purely local;
  /// DistEngine calls it at construction.
  static void check(const GnnConfig& config, const RunConfig& run);

  /// Collective constructor (one kControl all-reduce fixes the lockstep
  /// batch count). `algebra` must be the row-stripe algebra whose
  /// sample_comm() returned `comm`; its run() supplies the fanouts, the
  /// batch size and the row codec, and must pass check().
  SampledRunner(const DistProblem& problem, const GnnConfig& config,
                DistSpmmAlgebra& algebra, Comm& comm);

  /// One sampled epoch: shuffle this rank's labeled vertices, then for
  /// every (lockstep) minibatch run sample/pack/exchange -> forward ->
  /// loss -> backward -> step, with the next batch's build pipelined
  /// between loss and backward. `epoch` keys the shuffle and sampling RNG
  /// streams (absolute epoch => restart-deterministic);
  /// `features_block` is this rank's H^0 row block. Returns the mean
  /// per-batch loss and the training accuracy over all seeds.
  EpochResult run_epoch(int epoch, const Matrix& features_block,
                        std::vector<Matrix>& weights,
                        std::vector<Matrix>& gradients, Optimizer& optimizer,
                        EpochStats& stats);

 private:
  /// The exchange between level k and level k+1 of one batch slot: the
  /// sampled stripe rows, the per-batch halo plan over them, and the
  /// forward/backward block pair.
  struct Exchange {
    HaloPlan plan;  ///< per-batch need/send over the sampled rows
    /// Sampled A^T stripe rows of the upper level's targets (ascending
    /// columns within each row; global column ids).
    std::vector<Index> samp_row_ptr;
    std::vector<Index> samp_cols;
    std::vector<Real> samp_vals;
    /// Owner-compacted transposes of plan.blocks (backward operators).
    std::vector<Csr> tblocks;
    /// 0..recv_total-1: the backward pack rows (contributions to every
    /// received row travel back to its owner in recv order).
    std::vector<Index> pack_identity;
    Matrix partial;  ///< stacked (recv_total + |F_k|) x f_out contributions
    std::size_t recv_total = 0;
  };

  /// One receptive-field level of one batch slot.
  struct Level {
    std::vector<Index> targets;  ///< this rank's F_k rows, global ascending
    Matrix h;  ///< |F_k| x f_k activations (level L: log-probabilities)
    Matrix z;  ///< |F_k| x f_k pre-activations (ReLU mask, levels 1..L-1)
  };

  /// One pipelined batch: levels 0..L, exchanges 0..L-1, and the posted
  /// level-0 feature exchange.
  struct Slot {
    std::vector<Level> levels;
    std::vector<Exchange> exch;
    PendingOp h0_op;  ///< in-flight feature exchange
  };

  /// Sample batch `batch` of `epoch` into `slot`: seeds, per-hop Floyd
  /// fan-out sampling of the local A^T stripe, need-list exchanges
  /// (kControl), plan/block construction, and the posted level-0 feature
  /// exchange (kHalo). Collective; serial per rank (thread-count
  /// deterministic).
  void build_batch(Slot& slot, int epoch, Index batch,
                   const Matrix& features_block, EpochStats& stats);
  void forward_batch(Slot& slot, const std::vector<Matrix>& weights,
                     EpochStats& stats);
  /// Reduced {loss_sum, hits, seeds} of the batch (kControl).
  std::array<double, 3> reduce_batch_loss(Slot& slot, EpochStats& stats);
  void backward_batch(Slot& slot, const std::vector<Matrix>& weights,
                      std::vector<Matrix>& gradients, double global_seeds,
                      EpochStats& stats);

  const DistProblem& problem_;
  const GnnConfig& config_;
  DistSpmmAlgebra& algebra_;
  Comm& comm_;
  MachineModel machine_;
  MiniBatchOptions options_;

  Index row_lo_ = 0;
  Index row_hi_ = 0;
  std::vector<Index> row_starts_;  ///< P+1 owner boundaries (partition-aware)
  std::vector<Index> labeled_;     ///< this rank's labeled rows, ascending
  Index batches_ = 0;              ///< lockstep batches per epoch

  std::array<Slot, 2> slots_;  ///< pipelined batch double-buffer

  // Shared per-rank scratch (reused across batches; never pipelined).
  std::vector<Index> shuffled_;   ///< this epoch's shuffled labeled rows
  std::vector<Index> picked_;     ///< Floyd sample positions of one row
  std::vector<Index> needs_;      ///< deduped sampled rows of one hop
  std::vector<Index> pos_;        ///< global row -> compact position (n)
  std::vector<std::uint64_t> stamp_;  ///< dedup stamps (n)
  std::uint64_t cur_stamp_ = 0;
  std::vector<int> owners_;       ///< owner of each sampled entry
  std::vector<Index> blk_nnz_;    ///< per-owner entry counts (P)
  std::vector<Index> curs_;       ///< per-owner fill cursors (P)
  std::vector<Index> tscratch_;   ///< Csr::transposed_into scratch
  Gathered<Index> requested_;     ///< need-list exchange staging
  Matrix t1_buf_;  ///< T^1 = (sampled A^T) H^0, kept for the backward's Y^1
  Matrix t_buf_;   ///< T = (sampled A^T) H, layers >= 2, consumed into z
  Matrix g_buf_;   ///< G^k compact (ping)
  Matrix g_next_;  ///< G^(k-1) compact (pong)
  Matrix u_buf_;   ///< U = (sampled A) G compact
  Matrix dh_buf_;  ///< U (W^k)^T before the ReLU mask
  Matrix y_buf_;   ///< weight-gradient partial
};

}  // namespace dist

}  // namespace cagnet
