// Compressed sparse row matrix: the adjacency operand of every SpMM.
#pragma once

#include <span>
#include <vector>

#include "src/dense/matrix.hpp"
#include "src/sparse/coo.hpp"
#include "src/util/types.hpp"

namespace cagnet {

/// CSR with sorted column indices within each row.
class Csr {
 public:
  Csr() = default;

  /// Empty matrix of the given shape.
  Csr(Index rows, Index cols);

  /// Build from COO; duplicates are summed, columns sorted.
  static Csr from_coo(const Coo& coo);

  /// Assemble from raw CSR arrays (deserialization). row_ptr must have
  /// rows+1 monotone entries ending at col_idx.size(); columns must be
  /// sorted within rows.
  static Csr from_parts(Index rows, Index cols, std::vector<Index> row_ptr,
                        std::vector<Index> col_idx, std::vector<Real> vals);

  /// Vertical concatenation of row-blocks with identical column counts
  /// (the assembly step of the 3D distributed transpose).
  static Csr vstack(const std::vector<Csr>& pieces);

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  Index nnz() const { return static_cast<Index>(col_idx_.size()); }

  std::span<const Index> row_ptr() const { return row_ptr_; }
  std::span<const Index> col_idx() const { return col_idx_; }
  std::span<const Real> values() const { return vals_; }
  std::span<Real> values() { return vals_; }

  /// Reshape to (rows x cols) with `nnz` slots, reusing the existing
  /// buffers when their capacity suffices — the receive side of the CSR
  /// collectives deserializes straight into the mutable views below.
  /// Contents are unspecified until the caller fills them (and must
  /// satisfy the from_parts invariants afterwards).
  void resize_parts(Index rows, Index cols, Index nnz);

  std::span<Index> row_ptr_mut() { return row_ptr_; }
  std::span<Index> col_idx_mut() { return col_idx_; }

  /// Number of structural nonzeros in row i.
  Index row_degree(Index i) const { return row_ptr_[i + 1] - row_ptr_[i]; }

  /// y = A * x (or y += if accumulate), where x is (cols() x f). `y` must
  /// not be `x` (an aliased call throws Error).
  void spmm(const Matrix& x, Matrix& y, bool accumulate = false) const;

  /// Allocating convenience form of spmm.
  Matrix multiply(const Matrix& x) const;

  /// Structural + numerical transpose (counting sort; O(nnz + n)).
  Csr transposed() const;

  /// Transpose into an existing matrix, reusing `out`'s buffers (and
  /// `scratch` as the counting-sort cursor) so steady-state callers — the
  /// sampled minibatch trainer rebuilds per-batch block transposes every
  /// iteration — stop allocating once capacities have grown. `out` must
  /// not alias this.
  void transposed_into(Csr& out, std::vector<Index>& scratch) const;

  /// Symmetric relabeling of a square matrix: new(r, c) = old(perm[r],
  /// perm[c]), where perm[r] is the old index at new position r (a
  /// bijection). This is the partition-induced vertex permutation applied
  /// to the adjacency; columns are re-sorted within each row.
  Csr permuted(std::span<const Index> perm) const;

  /// Column compaction: new_col[c] gives each old column's new index, or
  /// -1 for columns guaranteed structurally empty. The map must be
  /// strictly increasing on the mapped columns (so sortedness is
  /// preserved); the result has `new_cols` columns and identical rows,
  /// row_ptr, and values. This builds the halo-compacted A^T blocks whose
  /// dense operand holds only the received remote rows.
  Csr with_remapped_columns(std::span<const Index> new_col,
                            Index new_cols) const;

  /// Extract the sub-matrix rows [r0, r1) x cols [c0, c1) with indices
  /// rebased to the block origin. This is the grid-blocking primitive used
  /// by the 1D/2D/3D data distributions.
  Csr block(Index r0, Index r1, Index c0, Index c1) const;

  /// Dense copy, for tests and tiny examples only.
  Matrix to_dense() const;

  /// Scale: vals[p] *= row_scale[row(p)] * col_scale[col(p)].
  /// Used by the GCN normalization D^-1/2 (A+I) D^-1/2.
  void scale_rows_cols(std::span<const Real> row_scale,
                       std::span<const Real> col_scale);

  /// Sum of values per row (the weighted degree vector).
  std::vector<Real> row_sums() const;

  /// Rows with at least one structural nonzero. Used by the hypersparsity
  /// analysis (Ballard et al. expected non-empty row counts).
  Index nonempty_rows() const;

  bool operator==(const Csr& other) const = default;

 private:
  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<Index> row_ptr_;  // size rows_+1
  std::vector<Index> col_idx_;  // size nnz
  std::vector<Real> vals_;      // size nnz
};

}  // namespace cagnet
