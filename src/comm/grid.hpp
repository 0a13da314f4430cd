// Block ranges, and the process grid of the 2D / 3D algorithm families.
#pragma once

#include <utility>

#include "src/comm/comm.hpp"

namespace cagnet {

/// Even-as-possible block range: element range [lo, hi) owned by `idx` of
/// `parts` over a dimension of extent n. Matches the paper's block
/// decomposition (process i owns rows in/P .. (i+1)n/P - 1).
inline std::pair<Index, Index> block_range(Index n, int parts, int idx) {
  return {n * idx / parts, n * (idx + 1) / parts};
}

/// q x q x l mesh (P = q^2 l). Rank (i, j, k) is world rank k*q*q + i*q + j.
/// `row`/`col` are the within-layer lines (the ranks of layer k sharing i,
/// resp. j); `fiber` spans the l ranks sharing (i, j) across layers (the
/// reduction dimension of Split-3D-SpMM) and is not made at l = 1, where
/// the one layer is the 2D SUMMA grid.
struct Grid3D {
  Comm world;
  Comm row;
  Comm col;
  Comm fiber;
  int q = 0;
  int l = 0;
  int i = 0;
  int j = 0;
  int k = 0;

  static Grid3D create(const Comm& world, int q, int l);
};

/// Fine block range of the 3D distribution: coarse block `coarse` of n over
/// q parts, subdivided again into l fine slabs, of which `sub` is returned.
/// A^T's 3D blocks are (coarse rows x fine cols); H's are (fine rows x
/// feature cols) — Section IV-D's n/P^(1/3) x n/P^(2/3) shapes at l = q.
/// At l = 1 the one slab is the coarse block.
inline std::pair<Index, Index> fine_range(Index n, int q, int coarse, int l,
                                          int sub) {
  const auto [clo, chi] = block_range(n, q, coarse);
  const auto [flo, fhi] = block_range(chi - clo, l, sub);
  return {clo + flo, clo + fhi};
}

/// Largest integer r with r*r == p, or 0 if p is not a perfect square.
int exact_sqrt(int p);
/// Largest integer r with r*r*r == p, or 0 if p is not a perfect cube.
int exact_cbrt(int p);

}  // namespace cagnet
