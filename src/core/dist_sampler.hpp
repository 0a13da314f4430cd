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
// The layer math is DistEngine's: a batch runs the engine's forward,
// backward and optimizer step, and the runner is the Aggregation of that
// pass — T^1 and the forward / backward SpMMs over the batch's sampled
// adjacency. The runner keeps only what is specific to sampling: the
// shuffle, the draws and the exchange plans, the lockstep batch count and
// the blocking per-batch loss reduction.
//
// Batch loop: batch b is sampled and its plans built right before its
// forward. Every aggregation, layer 1's included, runs the halo path's
// pipeline (halo_spmm_pipeline): the exchange of the batch rows is posted,
// and each peer's rows are drained as its stage multiplies them. Each
// exchange completes inside its own call, so no op stays pending across
// layers or batches, and the pack staging keeps its own release points.
// After the first minibatch the hot path is allocation-free (every vector
// and matrix is resized in place).
//
// Lockstep: ranks may own different labeled counts, so the batch count is
// the all-reduced maximum and ranks that run out of seeds keep issuing
// every collective on empty (0-row) matrices — same order, same
// categories, zero rows.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "src/core/dist_engine.hpp"

namespace cagnet {

/// Fanout value meaning "take the whole in-neighborhood" (no cap). An
/// all-infinite fanout vector makes every sampled batch an exact induced
/// receptive field, which is how the sampled trainer proves bitwise
/// parity against the full-batch engine.
inline constexpr Index kSampleAll = std::numeric_limits<Index>::max();

namespace dist {

/// The sampled minibatch epoch driver. Owned lazily by DistEngine (one
/// per engine); weights/gradients/optimizer and the layer loop stay
/// engine-owned, so checkpointing and set_weights keep working unchanged.
/// All methods are collective over the sample communicator.
class SampledRunner final : public Aggregation {
 public:
  /// Throws Error unless `run`'s sampling modes fit `config`: one fanout
  /// per layer. Purely local; DistEngine calls it at construction.
  static void check(const GnnConfig& config, const RunConfig& run);

  /// Collective constructor (one kControl all-reduce fixes the lockstep
  /// batch count). `algebra` must be the row-stripe algebra whose
  /// sample_comm() returned `comm`; its run() supplies the fanouts, the
  /// batch size and the row codec, and must pass check().
  SampledRunner(const DistProblem& problem, const GnnConfig& config,
                DistSpmmAlgebra& algebra, Comm& comm);

  /// One sampled epoch: shuffle this rank's labeled vertices, then for
  /// every (lockstep) minibatch run the engine's `forward` over the batch
  /// (returning its |F_L| x f_L log-probabilities) -> loss -> the
  /// engine's `backward` and optimizer step from G^L (one label per
  /// output row, scale -1/(global seed count)). `epoch`
  /// keys the shuffle and sampling RNG streams (absolute epoch =>
  /// restart-deterministic); `features_block` is this rank's H^0 row
  /// block. Returns the mean per-batch loss and the training accuracy
  /// over all seeds.
  EpochResult run_epoch(
      int epoch, const Matrix& features_block, EpochStats& stats,
      const std::function<const Matrix&(Aggregation&)>& forward,
      const std::function<void(Aggregation&, std::span<const Index>, Real)>&
          backward);

 private:
  /// The exchange between level k and level k+1 of the batch: the
  /// per-batch halo plan over the sampled rows and the forward/backward
  /// block pair.
  struct Exchange {
    HaloPlan plan;  ///< per-batch need/send over the sampled rows
    /// Owner-compacted transposes of plan.blocks (backward operators).
    std::vector<Csr> tblocks;
  };

  /// Sample batch `batch` of `epoch`: seeds, per-hop Floyd fan-out
  /// sampling of the local A^T stripe, need-list exchanges (kControl),
  /// plan/block construction, and the compacted level-0 features.
  /// Collective; serial per rank (thread-count deterministic).
  void build_batch(int epoch, Index batch, const Matrix& features_block,
                   EpochStats& stats);

  // Aggregation over the current batch's exchanges.
  const Matrix& input(EpochStats& stats) override;
  void spmm_at(Index layer, const Matrix& h, Matrix& t,
               EpochStats& stats) override;
  void spmm_a(Index layer, const Matrix& g, Matrix& u,
              EpochStats& stats) override;

  const DistProblem& problem_;
  const GnnConfig& config_;
  DistSpmmAlgebra& algebra_;
  Comm& comm_;

  Index row_lo_ = 0;
  Index row_hi_ = 0;
  std::vector<Index> row_starts_;  ///< P+1 owner boundaries (partition-aware)
  std::vector<Index> labeled_;     ///< this rank's labeled rows, ascending
  Index batches_ = 0;              ///< lockstep batches per epoch

  // The current batch: its receptive-field levels 0..L and exchanges
  // 0..L-1.
  /// Per level k, this rank's F_k rows, global ascending.
  std::vector<std::vector<Index>> targets_;
  std::vector<Index> seed_labels_;  ///< labels of F_L (the seeds)
  Matrix features_;                 ///< |F_0| x f_0 compacted H^0 rows
  std::vector<Exchange> exch_;

  // Per-rank scratch, reused across batches.
  std::vector<Index> shuffled_;   ///< this epoch's shuffled labeled rows
  std::vector<Index> picked_;     ///< Floyd sample positions of one row
  /// Sampled A^T stripe rows of one hop's upper targets (ascending
  /// columns within each row; global column ids).
  std::vector<Index> samp_row_ptr_;
  std::vector<Index> samp_cols_;
  std::vector<Real> samp_vals_;
  std::vector<Index> needs_;      ///< deduped sampled rows of one hop
  std::vector<Index> pos_;        ///< global row -> compact position (n)
  std::vector<std::uint64_t> stamp_;  ///< dedup stamps (n)
  std::uint64_t cur_stamp_ = 0;
  std::vector<int> owners_;       ///< owner of each sampled entry
  std::vector<Index> blk_nnz_;    ///< per-owner entry counts (P)
  std::vector<Index> curs_;       ///< per-owner fill cursors (P)
  std::vector<Index> tscratch_;   ///< Csr::transposed_into scratch
  Gathered<Index> requested_;     ///< need-list exchange staging
  Matrix t1_;       ///< T^1 = (sampled A^T) H^0 of the current batch
  /// Stacked (received + |F_k|) x f backward contributions of one layer.
  Matrix partial_;
  /// 0, 1, 2, ...: the backward's pack rows (contributions to every
  /// received row travel back to its owner in recv order).
  std::vector<Index> iota_;
};

}  // namespace dist

}  // namespace cagnet
