// The SUMMA family: the paper's block 2D algorithm (Section IV-C,
// Algorithm 2 — the variant CAGNET implements and evaluates, Figs. 2-3)
// and block 3D Split-3D-SpMM (Section IV-D). Split-3D-SpMM runs 2D SUMMA
// independently on each of l process layers and sums the layers with a
// fiber reduce-scatter, so on one layer it *is* Algorithm 2: one class
// runs both. The registry's "2d" is this algebra at l = 1 and "3d" at
// l = P^(1/3).
//
// Processes form a q x q x l mesh (P = q^2 l); each 2D plane with fixed k
// is a "layer". Following Azad et al.'s Split-3D layout:
//   A^T block of rank (i,j,k): rows = coarse block C_i (n/q), cols = fine
//     slab F_{j,k} (n/(ql)) — the k-th of l sub-slabs of coarse column j.
//   H^l block of rank (i,j,k): rows = fine slab F_{i,k}, cols = feature
//     block j (f/q) — "shorter and fatter than the 2D distribution".
//   W: replicated.
// At l = 1 every fine slab is its coarse block: Table IV's 2D distribution
// of A, H^l and G^l on a sqrt(P) x sqrt(P) grid.
//
// Per GCN layer:
//   forward  T = A^T H     : SUMMA SpMM within each process layer — stage s
//                            broadcasts A^T_is along process row i
//                            (sparse) and H_sj along process column j
//                            (dense) — then, for l > 1, the fiber
//                            reduce-scatter of the (n/q x f/q) partials,
//                            the algorithm's P^(1/3) memory replication.
//            Z = T W       : "partial SUMMA" — T_im broadcast along the
//                            process row; W is replicated so only T moves
//                            (the f contraction needs no fiber reduction).
//            (Layer 1's T = A^T X is aggregated once, at set-up; see
//            dist_engine.hpp. Its Z^1 = T^1 W^1 moves no T: each rank
//            multiplies its slice T^1_ij by W^1's rows j and a
//            reduce-scatter along the process row sums the f_1-wide
//            terms, fewer words than f_0-wide T panels whenever
//            f_1 (q-1)/q < f_0; DESIGN.md "Substitutions" gives the
//            measurement.)
//            sigma         : ReLU is elementwise (free); the output-layer
//                            log_softmax needs full rows, hence a row-wise
//                            all-gather (Sections IV-C.2, IV-D.2).
//   backward U = A G^l     : the same SUMMA on the transposed adjacency. A
//                            is obtained from A^T by a distributed
//                            transpose — a local transpose plus l
//                            permutation-routed piece exchanges
//                            (i,j,k) -> (j,i,k''); at l = 1 the pairwise
//                            swap (i,j) <-> (j,i) — the paper's "trpose"
//                            phase, twice per epoch (there and back).
//            G^(l-1)       : U (W^l)^T ⊙ relu'(Z^(l-1)); U is re-used from
//                            the row-wise all-gather performed for Y.
//            Y^l           : (H^(l-1))^T (A G^l) via row all-gather of U,
//                            local GEMM, reduction over the j-plane, and
//                            final row all-gather to keep Y replicated
//                            (IV-C.4, IV-D.4).
//
// The paper analyzes the 3D algorithm (it reduces words by another
// O(P^(1/6)) over 2D) but does not implement it, citing constants,
// complexity, and the P^(1/3) intermediate replication. We implement it
// faithfully so that its metered communication can be compared against
// the closed forms and the 2D algorithm (DESIGN.md experiment E5).
//
// The adjacency never changes, so both orientations' stage blocks arrive
// once, at construction, and every call replays the charges the paper's
// per-epoch traffic makes (see Algebra3D's constructor).
//
// Only the distributed algebra lives here; the training loop itself is the
// shared DistEngine (see dist_engine.hpp).
#pragma once

#include <memory>
#include <vector>

#include "src/core/dist_engine.hpp"

namespace cagnet {

/// SUMMA algebra, 2D at l = 1 and Split-3D-SpMM for l > 1: vertex rows are
/// fine slabs F_{i,k}, feature columns are split across j — both feature
/// hooks are overridden with their within-layer SUMMA realizations.
class Algebra3D final : public DistSpmmAlgebra {
 public:
  /// Collective constructor; the world size must be q^2 * `layers`.
  /// Receives every SUMMA stage block of A^T and of A (transposing A^T
  /// and back) with blocking collectives and records the charges each
  /// call replays; the receipt itself leaves the world meter as it was.
  Algebra3D(const DistProblem& problem, Comm world, int layers,
            const RunConfig& run, MachineModel machine);

  const char* name() const override { return grid_.l == 1 ? "2d" : "3d"; }
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
  void input_times_weight(const Matrix& x, const Matrix& w, Matrix& z,
                          EpochStats& stats) override;
  void gather_feature_rows(const Matrix& local, Index f, Matrix& full,
                           EpochStats& stats) override;
  void reduce_gradients(Index layer, Matrix& y_partial, Index f_in,
                        Index f_out, Matrix& y_full,
                        EpochStats& stats) override;

  /// Replays the distributed transpose A^T -> A and its way back: the
  /// paper's two transposes per epoch, run once at construction.
  void begin_backward(EpochStats& stats) override;

  /// The SUMMA stage receive buffers and, for l > 1, the fiber partial.
  void release_setup_buffers() noexcept override {
    ws_.stage_recv = Matrix();
    ws_.stage_recv2 = Matrix();
    t_partial_ = Matrix();
  }

 protected:
  /// j-plane ranks are keyed by (i, k), i.e. ascending fine row blocks, so
  /// gathering full-row outputs along it assembles all n rows in order. At
  /// l = 1 it has the process column's ranks in the column's order.
  Comm& gather_comm() override { return jplane_; }

 private:
  /// One orientation's SUMMA operand: the block every stage multiplies,
  /// received at construction, and the charges of its broadcasts, which
  /// every call replays in place.
  struct SparseStages {
    /// Stage s: process-row rank s's block; this rank's own at s = j.
    std::vector<Csr> blocks;
    /// Every stage's (rows, cols, nnz) header broadcast.
    CostMeter headers;
    /// Stage s: the row_ptr, col_idx and values broadcasts.
    std::vector<CostMeter> payloads;
  };

  /// Collective over the process row: every stage's block, stage s's
  /// root (row rank s) sending `mine`, with blocking broadcasts.
  SparseStages receive_stages(Csr mine);

  /// One Split-3D-SpMM: T = S * D with S the stage blocks of `sparse`
  /// (their charges replayed where a pipelined loop waits for them),
  /// D the dense blocks (column broadcasts), then, for l > 1, the fiber
  /// reduce-scatter. Writes the (fine rows x dense cols) result block
  /// into `out` (storage reused); at l = 1 the SUMMA accumulates straight
  /// into it.
  void split3d_spmm(const SparseStages& sparse, const Matrix& my_dense,
                    Matrix& out, EpochStats& stats);

  /// 3D distributed transpose of a (coarse x fine)-blocked square matrix;
  /// returns this rank's block of the transpose in the same blocking.
  Csr transpose_3d(const Csr& my_block);

  Grid3D grid_;
  /// Ranks sharing j, ordered by (i, k): every fine row block of feature
  /// slice j, so the Y reduction's group, and the output gather's.
  Comm jplane_;

  Index n_ = 0;
  Index coarse_lo_ = 0, coarse_hi_ = 0;  ///< C_i
  Index fine_lo_ = 0, fine_hi_ = 0;      ///< F_{i,k} (H rows)

  SparseStages at_stages_;  ///< A^T[C_i, F_{s,k}] for every stage s
  SparseStages a_stages_;   ///< A[C_i, F_{s,k}] for every stage s
  CostMeter transposes_;    ///< A^T -> A and back, replayed per epoch

  Matrix t_partial_;  ///< P^(1/3)-replicated partial (l > 1; reused)
  /// Error-feedback residuals of the lossy Y reduction, one per layer
  /// (dist::allreduce_gradient).
  std::vector<CompressBuf> grad_residuals_;
  dist::DistWorkspace ws_;           ///< reused dense/staging buffers
};

}  // namespace cagnet
