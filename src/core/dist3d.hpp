// The paper's block 3D algorithm: Split-3D-SpMM (Section IV-D).
//
// The paper analyzes this algorithm (it reduces words by another O(P^(1/6))
// over 2D) but does not implement it, citing constants, complexity, and the
// P^(1/3) intermediate replication. We implement it faithfully so that its
// metered communication can be compared against the closed forms and the
// 2D implementation (DESIGN.md experiment E5).
//
// Processes form a q x q x q mesh (P = q^3); each 2D plane with fixed k is
// a "layer". Following Azad et al.'s Split-3D layout:
//   A^T block of rank (i,j,k): rows = coarse block C_i (n/q), cols = fine
//     slab F_{j,k} (n/q^2) — the k-th sub-slab of coarse column j.
//   H^l block of rank (i,j,k): rows = fine slab F_{i,k}, cols = feature
//     block j (f/q) — "shorter and fatter than the 2D distribution".
//
// One Split-3D-SpMM = independent 2D SUMMAs per layer (each layer owns the
// contraction sub-slabs with its k) followed by a reduce-scatter along the
// fiber dimension; the pre-reduction partial is the algorithm's P^(1/3)
// memory replication. The backward pass needs A in the same family of
// blocks, obtained by a 3D distributed transpose: a local transpose plus q
// permutation-routed piece exchanges (i,j,k) -> (j,i,k'').
//
// Only the distributed algebra lives here; the training loop itself is the
// shared DistEngine (see dist_engine.hpp).
#pragma once

#include <memory>

#include "src/core/dist_engine.hpp"

namespace cagnet {

/// Split-3D-SpMM algebra: vertex rows are fine slabs F_{i,k}, feature
/// columns are split across j — both feature hooks are overridden with
/// their within-layer SUMMA realizations.
class Algebra3D final : public DistSpmmAlgebra {
 public:
  /// Collective constructor; world size must be a perfect cube.
  Algebra3D(const DistProblem& problem, Comm world, const RunConfig& run,
            MachineModel machine);

  const char* name() const override { return "3d"; }
  Comm& world() override { return grid_.world; }
  Index row_lo() const override { return fine_lo_; }
  Index row_hi() const override { return fine_hi_; }
  std::pair<Index, Index> feat_slice(Index f) const override {
    return block_range(f, grid_.q, grid_.j);
  }
  bool rows_whole() const override { return false; }
  bool owns_loss_rows() const override { return grid_.j == 0; }

  void spmm_at(const Matrix& h, Matrix& t, EpochStats& stats) override;
  void spmm_a(const Matrix& g, Matrix& u, EpochStats& stats) override;
  void times_weight(const Matrix& t, const Matrix& w, Matrix& z,
                    EpochStats& stats) override;
  void gather_feature_rows(const Matrix& local, Index f, Matrix& full,
                           EpochStats& stats) override;
  void begin_reduce_gradients(Matrix& y_partial, Index f_in, Index f_out,
                              Matrix& y_full, EpochStats& stats) override;
  void finish_gradients(EpochStats& stats) override;

  /// 3D distributed transpose A^T -> A (and back).
  void begin_backward(EpochStats& stats) override;
  void end_backward(EpochStats& stats) override;

  void drain() noexcept override {
    dist::drain_comm(grid_.row);
    dist::drain_comm(grid_.col);
    dist::drain_comm(grid_.fiber);
    dist::drain_comm(jplane_);
  }

  int grid_dim() const { return grid_.q; }

 protected:
  /// j-plane ranks are keyed by (i, k), i.e. ascending fine row blocks, so
  /// gathering full-row outputs along it assembles all n rows in order.
  Comm& gather_comm() override { return jplane_; }

 private:
  /// One Split-3D-SpMM: T = S * D with S this rank's sparse block (row
  /// broadcasts, cached across epochs in `cache`), D the dense blocks
  /// (column broadcasts), then the fiber reduce-scatter. Writes the
  /// (fine rows x dense cols) result block into `out` (storage reused).
  void split3d_spmm(const Csr& my_sparse, dist::SparseStageCache& cache,
                    const Matrix& my_dense, Matrix& out, EpochStats& stats);

  /// 3D distributed transpose of a (coarse x fine)-blocked square matrix;
  /// returns this rank's block of the transpose in the same blocking.
  Csr transpose_3d(const Csr& my_block);

  Grid3D grid_;
  /// Ranks sharing j, ordered by (i, k): the deferred Y reductions' own
  /// communicator (nothing else posts on it during an epoch; see
  /// dist::PendingGradReduce) and the output gather.
  Comm jplane_;

  Index n_ = 0;
  Index coarse_lo_ = 0, coarse_hi_ = 0;  ///< C_i
  Index fine_lo_ = 0, fine_hi_ = 0;      ///< F_{i,k} (H rows)

  Csr at_block_;  ///< A^T[C_i, F_{j,k}]
  Csr a_block_;   ///< A[C_i, F_{j,k}], materialized in backward epoch 1
                  ///< and kept across epochs while the cache is enabled

  Matrix t_partial_;                 ///< P^(1/3)-replicated partial (reused)
  dist::PendingGradReduce grad_pending_;  ///< deferred Y reductions
  dist::DistWorkspace ws_;           ///< reused dense/staging buffers
  dist::SparseStageCache at_cache_;  ///< forward received A^T blocks
  dist::SparseStageCache a_cache_;   ///< backward received A blocks
  dist::TransposeCache trpose_cache_;
};

}  // namespace cagnet
