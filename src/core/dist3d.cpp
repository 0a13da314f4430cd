#include "src/core/dist3d.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "src/util/error.hpp"

namespace cagnet {

namespace {

/// Side q of the q x q x `layers` grid over `p` ranks; 0 (which
/// Grid3D::create rejects) when there is none.
int grid_side(int p, int layers) {
  return layers >= 1 ? exact_sqrt(p / layers) : 0;
}

}  // namespace

Algebra3D::Algebra3D(const DistProblem& problem, Comm world, int layers,
                     const RunConfig& run, MachineModel machine)
    : DistSpmmAlgebra(run, machine),
      grid_(Grid3D::create(world, grid_side(world.size(), layers), layers)) {
  n_ = problem.graph->num_vertices();
  const int q = grid_.q;
  const int l = grid_.l;

  std::tie(coarse_lo_, coarse_hi_) = block_range(n_, q, grid_.i);
  std::tie(fine_lo_, fine_hi_) = fine_range(n_, q, grid_.i, l, grid_.k);

  jplane_ = grid_.world.split(/*color=*/grid_.j,
                              /*key=*/grid_.i * l + grid_.k);

  // The adjacency never changes, so the blocks the paper's algorithm
  // moves every epoch arrive here, once: this receipt is the simulator's
  // one real copy, and what each call replays is the algorithm's traffic.
  // The meter therefore leaves the set-up as it entered it.
  CostMeter& meter = grid_.world.meter();
  const CostMeter before = meter;
  const auto [ac0, ac1] = fine_range(n_, q, grid_.j, l, grid_.k);
  Csr at_block = problem.at.block(coarse_lo_, coarse_hi_, ac0, ac1);
  Csr a_block = transpose_3d(at_block);
  // The way back restores the forward orientation; together the two are
  // the paper's twice-per-epoch "trpose" cost.
  CAGNET_CHECK(transpose_3d(a_block).nnz() == at_block.nnz(),
               "transpose round-trip changed the block");
  transposes_ = meter;
  transposes_.subtract(before);
  at_stages_ = receive_stages(std::move(at_block));
  a_stages_ = receive_stages(std::move(a_block));
  meter = before;
}

Algebra3D::SparseStages Algebra3D::receive_stages(Csr mine) {
  Comm& row = grid_.row;
  CostMeter& meter = row.meter();
  const auto stages = static_cast<std::size_t>(row.size());
  SparseStages out;
  out.blocks.resize(stages);
  out.payloads.resize(stages);
  const auto record = [&](CostMeter& into, auto&& receive) {
    const CostMeter mark = meter;
    receive();
    CostMeter delta = meter;
    delta.subtract(mark);
    into.merge_sum(delta);
  };
  for (std::size_t s = 0; s < stages; ++s) {
    const int root = static_cast<int>(s);
    const bool is_root = row.rank() == root;
    Csr& block = out.blocks[s];
    if (is_root) block = std::move(mine);
    std::array<Index, 3> header = {block.rows(), block.cols(), block.nnz()};
    record(out.headers, [&] {
      row.broadcast(std::span<Index>(header), root, CommCategory::kSparse);
    });
    record(out.payloads[s], [&] {
      if (is_root) {
        row.broadcast_from(block.row_ptr(), std::span<Index>{}, root,
                           CommCategory::kSparse);
        row.broadcast_from(block.col_idx(), std::span<Index>{}, root,
                           CommCategory::kSparse);
        row.broadcast_from(std::as_const(block).values(), std::span<Real>{},
                           root, CommCategory::kSparse);
        return;
      }
      block.resize_parts(header[0], header[1], header[2]);
      row.broadcast_from(std::span<const Index>{}, block.row_ptr_mut(), root,
                         CommCategory::kSparse);
      row.broadcast_from(std::span<const Index>{}, block.col_idx_mut(), root,
                         CommCategory::kSparse);
      row.broadcast_from(std::span<const Real>{}, block.values(), root,
                         CommCategory::kSparse);
    });
  }
  return out;
}

void Algebra3D::split3d_spmm(const SparseStages& sparse,
                             const Matrix& my_dense, Matrix& out,
                             EpochStats& stats) {
  const int q = grid_.q;
  const bool layered = grid_.l > 1;
  const Index w = my_dense.cols();
  // For l > 1 the SUMMA fills the pre-reduction partial: (n/q x f/q), the
  // P^(1/3)-replicated intermediate of Section IV-D.1. On one layer C_i is
  // this rank's own row block, so it accumulates straight into `out`.
  Matrix& acc = layered ? t_partial_ : out;
  acc.resize(coarse_hi_ - coarse_lo_, w);
  acc.set_zero();
  CostMeter& meter = grid_.row.meter();
  const auto replay = [&](const CostMeter& charges) {
    ScopedPhase scope(stats.profiler, Phase::kSparseComm);
    meter.merge_sum(charges);
  };
  // The sparse charges land where a pipelined SUMMA — header two stages
  // ahead, payload one stage ahead of the SpMM — waits for them: every
  // header and stage 0's payload before the first stage, outside any
  // overlap region, and stage s+1's payload inside the region of stage
  // s's SpMM, ahead of the dense panel in flight beside it.
  replay(sparse.headers);
  replay(sparse.payloads[0]);
  dist::overlapped_dense_stages(
      q,
      [&](int s, dist::PendingDenseStage& dn, Matrix& recv) {
        const auto [d_lo, d_hi] = fine_range(n_, q, s, grid_.l, grid_.k);
        dn.post(my_dense, recv, d_hi - d_lo, w, s, grid_.col,
                CommCategory::kDense);
      },
      [&](int s, const Matrix* d) {
        const Csr& a = sparse.blocks[static_cast<std::size_t>(s)];
        {
          ScopedPhase scope(stats.profiler, Phase::kSpmm);
          a.spmm(*d, acc, /*accumulate=*/true);
          stats.work.add_spmm(machine(), static_cast<double>(a.nnz()),
                              static_cast<double>(w), dist::block_degree(a));
        }
        if (s + 1 < q) {
          replay(sparse.payloads[static_cast<std::size_t>(s) + 1]);
        }
      },
      ws_.stage_recv, ws_.stage_recv2, grid_.col, stats.work, machine(),
      stats.profiler);
  if (!layered) return;

  // Fiber reduce-scatter: sum layer partials, splitting C_i into its fine
  // slabs F_{i,kk}; fiber rank kk keeps slab kk.
  out.resize(fine_hi_ - fine_lo_, w);
  ScopedPhase scope(stats.profiler, Phase::kDenseComm);
  grid_.fiber.reduce_scatter_sum(std::span<const Real>(t_partial_.flat()),
                                 out.flat(), CommCategory::kDense);
}

Csr Algebra3D::transpose_3d(const Csr& my_block) {
  const int q = grid_.q;
  const int l = grid_.l;
  // Local transpose: M[C_i, F_{j,k}] -> M^T[F_{j,k}, C_i].
  const Csr bt = my_block.transposed();
  if (l == 1) {
    // One layer: bt is all of rank (j, i)'s block, so the transpose is the
    // pairwise swap (i, j) <-> (j, i).
    return dist::route_csr(bt, grid_.j * q + grid_.i, grid_.world,
                           CommCategory::kTranspose);
  }

  // Round d: send the column slab F_{i, (k+d)%l} of bt to rank
  // (i', j', k') = (j, i, (k+d)%l). The map is a bijection for each d, and
  // across rounds every target receives the l pieces it must stack.
  std::vector<Csr> pieces(static_cast<std::size_t>(l));
  for (int d = 0; d < l; ++d) {
    const int kk = (grid_.k + d) % l;
    const auto [g0, g1] = fine_range(n_, q, grid_.i, l, kk);
    const int dest = kk * q * q + grid_.j * q + grid_.i;
    // In round d we receive from (j, i, (k-d) mod l): its piece carries the
    // row slab F_{i, k_src} of the assembled block.
    const int k_src = ((grid_.k - d) % l + l) % l;
    pieces[static_cast<std::size_t>(k_src)] = dist::route_csr(
        bt.block(0, bt.rows(), g0 - coarse_lo_, g1 - coarse_lo_), dest,
        grid_.world, CommCategory::kTranspose);
  }
  Csr assembled = Csr::vstack(pieces);
  CAGNET_CHECK(assembled.rows() == coarse_hi_ - coarse_lo_,
               "transpose_3d: assembled row count mismatch");
  return assembled;
}

void Algebra3D::spmm_at(const Matrix& h, Matrix& t, EpochStats& stats) {
  split3d_spmm(at_stages_, h, t, stats);
}

void Algebra3D::spmm_a(const Matrix& g, Matrix& u, EpochStats& stats) {
  split3d_spmm(a_stages_, g, u, stats);
}

void Algebra3D::times_weight(const Matrix& t, const Matrix& w, Matrix& z,
                             EpochStats& stats) {
  // Partial Split-3D-SpMM Z = T W: W is replicated, so only T moves, along
  // within-layer process rows (contraction over the f dimension needs no
  // fiber reduction).
  dist::partial_summa_times_weight(t, w, grid_.q, grid_.j, grid_.row,
                                   machine(), stats, ws_, z);
}

void Algebra3D::input_times_weight(const Matrix& x, const Matrix& w,
                                   Matrix& z, EpochStats& stats) {
  // Z^1 = T^1 W^1, or a narrowing layer's H W: each rank multiplies its
  // feature slice of X by W's matching rows and the within-layer process
  // row sums the f_out-wide terms, so no panel of X moves.
  dist::reduce_times_weight(x, w, grid_.q, grid_.j, grid_.row, machine(),
                            stats, ws_, z);
}

void Algebra3D::gather_feature_rows(const Matrix& local, Index f,
                                    Matrix& full, EpochStats& stats) {
  // Within-layer row all-gather (Section IV-D.2 — no cross-layer or
  // cross-row communication).
  dist::allgather_feature_rows(local, f, grid_.q, grid_.row, stats.profiler,
                               ws_, full);
}

void Algebra3D::reduce_gradients(Index layer, Matrix& y_partial,
                                 Index f_in, Index f_out, Matrix& y_full,
                                 EpochStats& stats) {
  // Reduction over the j-plane (all fine row blocks sharing this feature
  // slice), then a row all-gather of the reduced slices replicates Y
  // (IV-D.4): process column j holds rows block_range(f_in, q, j), so the
  // rank-ordered chunks are Y's rows in order.
  dist::allreduce_gradient(layer, y_partial, run().compress, grad_residuals_,
                           jplane_, stats.profiler);
  {
    ScopedPhase scope(stats.profiler, Phase::kDenseComm);
    grid_.row.allgatherv_into(std::span<const Real>(y_partial.flat()),
                              ws_.gathered, CommCategory::kDense);
  }
  CAGNET_CHECK(ws_.gathered.data.size() ==
                   static_cast<std::size_t>(f_in * f_out),
               "reduce_gradients: gathered slices do not cover Y");
  y_full.resize(f_in, f_out);
  std::copy(ws_.gathered.data.begin(), ws_.gathered.data.end(),
            y_full.data());
}

void Algebra3D::begin_backward(EpochStats& stats) {
  // A arrived at construction; the epoch charges its two transposes.
  ScopedPhase scope(stats.profiler, Phase::kTranspose);
  grid_.world.meter().merge_sum(transposes_);
}

}  // namespace cagnet
