#include "src/sparse/csr.hpp"

#include <algorithm>

#include "src/sparse/spmm_kernel.hpp"
#include "src/util/error.hpp"

namespace cagnet {

Csr::Csr(Index rows, Index cols) : rows_(rows), cols_(cols) {
  CAGNET_CHECK(rows >= 0 && cols >= 0, "negative CSR dimension");
  row_ptr_.assign(static_cast<std::size_t>(rows) + 1, 0);
}

Csr Csr::from_coo(const Coo& coo) {
  Coo sorted = coo;
  sorted.sort_and_combine();

  Csr out(coo.rows(), coo.cols());
  const auto& entries = sorted.entries();
  out.col_idx_.resize(entries.size());
  out.vals_.resize(entries.size());
  for (const Triple& t : entries) {
    ++out.row_ptr_[static_cast<std::size_t>(t.row) + 1];
  }
  for (Index i = 0; i < out.rows_; ++i) {
    out.row_ptr_[static_cast<std::size_t>(i) + 1] +=
        out.row_ptr_[static_cast<std::size_t>(i)];
  }
  for (std::size_t p = 0; p < entries.size(); ++p) {
    out.col_idx_[p] = entries[p].col;
    out.vals_[p] = entries[p].val;
  }
  return out;
}

Csr Csr::from_parts(Index rows, Index cols, std::vector<Index> row_ptr,
                    std::vector<Index> col_idx, std::vector<Real> vals) {
  CAGNET_CHECK(row_ptr.size() == static_cast<std::size_t>(rows) + 1,
               "from_parts: row_ptr size mismatch");
  CAGNET_CHECK(col_idx.size() == vals.size(), "from_parts: nnz mismatch");
  CAGNET_CHECK(row_ptr.front() == 0 &&
                   row_ptr.back() == static_cast<Index>(col_idx.size()),
               "from_parts: row_ptr bounds mismatch");
  Csr out(rows, cols);
  out.row_ptr_ = std::move(row_ptr);
  out.col_idx_ = std::move(col_idx);
  out.vals_ = std::move(vals);
  return out;
}

void Csr::resize_parts(Index rows, Index cols, Index nnz) {
  CAGNET_CHECK(rows >= 0 && cols >= 0 && nnz >= 0,
               "resize_parts: negative dimension");
  rows_ = rows;
  cols_ = cols;
  row_ptr_.resize(static_cast<std::size_t>(rows) + 1);
  col_idx_.resize(static_cast<std::size_t>(nnz));
  vals_.resize(static_cast<std::size_t>(nnz));
}

Csr Csr::vstack(const std::vector<Csr>& pieces) {
  CAGNET_CHECK(!pieces.empty(), "vstack of nothing");
  Index rows = 0;
  Index nnz = 0;
  const Index cols = pieces.front().cols();
  for (const Csr& piece : pieces) {
    CAGNET_CHECK(piece.cols() == cols, "vstack: column count mismatch");
    rows += piece.rows();
    nnz += piece.nnz();
  }
  Csr out(rows, cols);
  out.col_idx_.reserve(static_cast<std::size_t>(nnz));
  out.vals_.reserve(static_cast<std::size_t>(nnz));
  Index row_cursor = 0;
  for (const Csr& piece : pieces) {
    for (Index r = 0; r < piece.rows(); ++r) {
      out.row_ptr_[static_cast<std::size_t>(row_cursor + r) + 1] =
          out.row_ptr_[static_cast<std::size_t>(row_cursor + r)] +
          piece.row_degree(r);
    }
    out.col_idx_.insert(out.col_idx_.end(), piece.col_idx_.begin(),
                        piece.col_idx_.end());
    out.vals_.insert(out.vals_.end(), piece.vals_.begin(), piece.vals_.end());
    row_cursor += piece.rows();
  }
  return out;
}

void Csr::spmm(const Matrix& x, Matrix& y, bool accumulate) const {
  CAGNET_CHECK(x.rows() == cols_, "spmm: A is " + std::to_string(rows_) + "x" +
                                      std::to_string(cols_) + " but X is " +
                                      x.shape_string());
  CAGNET_CHECK(y.rows() == rows_ && y.cols() == x.cols(),
               "spmm: bad output shape " + y.shape_string());
  CAGNET_CHECK(&x != &y, "spmm: output must not alias the dense operand");
  spmm_csr_kernel<Real>(rows_, row_ptr_.data(), col_idx_.data(), vals_.data(),
                        x.data(), x.cols(), y.data(), accumulate);
}

Matrix Csr::multiply(const Matrix& x) const {
  Matrix y(rows_, x.cols());
  spmm(x, y, /*accumulate=*/false);
  return y;
}

Csr Csr::transposed() const {
  Csr out(cols_, rows_);
  out.col_idx_.resize(col_idx_.size());
  out.vals_.resize(vals_.size());

  // Counting sort by column index.
  for (Index c : col_idx_) ++out.row_ptr_[static_cast<std::size_t>(c) + 1];
  for (Index i = 0; i < out.rows_; ++i) {
    out.row_ptr_[static_cast<std::size_t>(i) + 1] +=
        out.row_ptr_[static_cast<std::size_t>(i)];
  }
  std::vector<Index> cursor(out.row_ptr_.begin(), out.row_ptr_.end() - 1);
  for (Index r = 0; r < rows_; ++r) {
    for (Index p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      const Index c = col_idx_[p];
      const Index q = cursor[static_cast<std::size_t>(c)]++;
      out.col_idx_[static_cast<std::size_t>(q)] = r;
      out.vals_[static_cast<std::size_t>(q)] = vals_[p];
    }
  }
  // Rows were visited in increasing order, so columns are already sorted.
  return out;
}

void Csr::transposed_into(Csr& out, std::vector<Index>& scratch) const {
  CAGNET_CHECK(&out != this, "transposed_into: output must not alias input");
  out.resize_parts(cols_, rows_, nnz());
  const std::span<Index> out_row_ptr = out.row_ptr_mut();
  const std::span<Index> out_col_idx = out.col_idx_mut();
  const std::span<Real> out_vals = out.values();

  // Counting sort by column index (same pass structure as transposed()).
  std::fill(out_row_ptr.begin(), out_row_ptr.end(), Index{0});
  for (Index c : col_idx_) ++out_row_ptr[static_cast<std::size_t>(c) + 1];
  for (Index i = 0; i < cols_; ++i) {
    out_row_ptr[static_cast<std::size_t>(i) + 1] +=
        out_row_ptr[static_cast<std::size_t>(i)];
  }
  scratch.assign(out_row_ptr.begin(), out_row_ptr.end() - 1);
  for (Index r = 0; r < rows_; ++r) {
    for (Index p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      const Index c = col_idx_[p];
      const Index q = scratch[static_cast<std::size_t>(c)]++;
      out_col_idx[static_cast<std::size_t>(q)] = r;
      out_vals[static_cast<std::size_t>(q)] = vals_[p];
    }
  }
  // Rows were visited in increasing order, so columns are already sorted.
}

Csr Csr::permuted_transposed(std::span<const Index> perm) const {
  CAGNET_CHECK(rows_ == cols_, "permuted_transposed expects a square matrix");
  CAGNET_CHECK(static_cast<Index>(perm.size()) == rows_,
               "permuted_transposed: permutation size mismatch");
  std::vector<Index> iperm(static_cast<std::size_t>(rows_), Index{-1});
  for (Index r = 0; r < rows_; ++r) {
    const Index v = perm[static_cast<std::size_t>(r)];
    CAGNET_CHECK(v >= 0 && v < rows_ && iperm[static_cast<std::size_t>(v)] < 0,
                 "permuted_transposed: perm is not a bijection");
    iperm[static_cast<std::size_t>(v)] = r;
  }
  Csr out(rows_, cols_);
  out.col_idx_.resize(col_idx_.size());
  out.vals_.resize(vals_.size());

  // Counting sort by relabeled column: old column c becomes row iperm[c].
  for (Index c : col_idx_) {
    ++out.row_ptr_[static_cast<std::size_t>(iperm[static_cast<std::size_t>(c)]) +
                   1];
  }
  for (Index i = 0; i < rows_; ++i) {
    out.row_ptr_[static_cast<std::size_t>(i) + 1] +=
        out.row_ptr_[static_cast<std::size_t>(i)];
  }
  std::vector<Index> cursor(out.row_ptr_.begin(), out.row_ptr_.end() - 1);
  for (Index r = 0; r < rows_; ++r) {
    const Index old = perm[static_cast<std::size_t>(r)];
    for (Index p = row_ptr_[old]; p < row_ptr_[old + 1]; ++p) {
      const Index q = cursor[static_cast<std::size_t>(
          iperm[static_cast<std::size_t>(col_idx_[p])])]++;
      out.col_idx_[static_cast<std::size_t>(q)] = r;
      out.vals_[static_cast<std::size_t>(q)] = vals_[p];
    }
  }
  // Relabeled rows were visited in increasing order, so columns are sorted.
  return out;
}

Csr Csr::with_remapped_columns(std::span<const Index> new_col,
                               Index new_cols) const {
  CAGNET_CHECK(static_cast<Index>(new_col.size()) == cols_,
               "with_remapped_columns: map size mismatch");
  Csr out(rows_, new_cols);
  out.row_ptr_ = row_ptr_;
  out.vals_ = vals_;
  out.col_idx_.resize(col_idx_.size());
  for (std::size_t p = 0; p < col_idx_.size(); ++p) {
    const Index mapped = new_col[static_cast<std::size_t>(col_idx_[p])];
    CAGNET_CHECK(mapped >= 0 && mapped < new_cols,
                 "with_remapped_columns: structural column left unmapped");
    out.col_idx_[p] = mapped;
  }
  return out;
}

Csr Csr::block(Index r0, Index r1, Index c0, Index c1) const {
  CAGNET_CHECK(0 <= r0 && r0 <= r1 && r1 <= rows_, "bad block row range");
  CAGNET_CHECK(0 <= c0 && c0 <= c1 && c1 <= cols_, "bad block col range");
  Csr out(r1 - r0, c1 - c0);

  // Two passes: count, then fill. Column indices within a row are sorted, so
  // the [c0, c1) span of each row is found by binary search.
  std::vector<std::pair<Index, Index>> spans(
      static_cast<std::size_t>(r1 - r0));
  Index total = 0;
  for (Index r = r0; r < r1; ++r) {
    const auto begin = col_idx_.begin() + row_ptr_[r];
    const auto end = col_idx_.begin() + row_ptr_[r + 1];
    const Index lo =
        static_cast<Index>(std::lower_bound(begin, end, c0) - col_idx_.begin());
    const Index hi =
        static_cast<Index>(std::lower_bound(begin, end, c1) - col_idx_.begin());
    spans[static_cast<std::size_t>(r - r0)] = {lo, hi};
    total += hi - lo;
    out.row_ptr_[static_cast<std::size_t>(r - r0) + 1] = total;
  }
  out.col_idx_.resize(static_cast<std::size_t>(total));
  out.vals_.resize(static_cast<std::size_t>(total));
  Index q = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    for (Index p = spans[i].first; p < spans[i].second; ++p, ++q) {
      out.col_idx_[static_cast<std::size_t>(q)] =
          col_idx_[static_cast<std::size_t>(p)] - c0;
      out.vals_[static_cast<std::size_t>(q)] =
          vals_[static_cast<std::size_t>(p)];
    }
  }
  return out;
}

Matrix Csr::to_dense() const {
  Matrix out(rows_, cols_);
  for (Index r = 0; r < rows_; ++r) {
    for (Index p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      out(r, col_idx_[static_cast<std::size_t>(p)]) +=
          vals_[static_cast<std::size_t>(p)];
    }
  }
  return out;
}

void Csr::scale_rows_cols(std::span<const Real> row_scale,
                          std::span<const Real> col_scale) {
  CAGNET_CHECK(static_cast<Index>(row_scale.size()) == rows_,
               "row scale size mismatch");
  CAGNET_CHECK(static_cast<Index>(col_scale.size()) == cols_,
               "col scale size mismatch");
  for (Index r = 0; r < rows_; ++r) {
    for (Index p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      vals_[static_cast<std::size_t>(p)] *=
          row_scale[static_cast<std::size_t>(r)] *
          col_scale[static_cast<std::size_t>(
              col_idx_[static_cast<std::size_t>(p)])];
    }
  }
}

std::vector<Real> Csr::row_sums() const {
  std::vector<Real> sums(static_cast<std::size_t>(rows_), Real{0});
  for (Index r = 0; r < rows_; ++r) {
    for (Index p = row_ptr_[r]; p < row_ptr_[r + 1]; ++p) {
      sums[static_cast<std::size_t>(r)] += vals_[static_cast<std::size_t>(p)];
    }
  }
  return sums;
}

Index Csr::nonempty_rows() const {
  Index count = 0;
  for (Index r = 0; r < rows_; ++r) {
    if (row_ptr_[r + 1] > row_ptr_[r]) ++count;
  }
  return count;
}

}  // namespace cagnet
