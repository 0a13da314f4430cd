// Graph analytics through the semiring interface (paper Section I: the
// neighborhood aggregation is a semiring, so the same SpMM machinery runs
// BFS and shortest paths).
//
//   ./graph_analytics [--vertices 2000] [--degree 6] [--source 0]
//
// Runs level-synchronous BFS with the (or, and) semiring and Bellman-Ford
// shortest paths with the (min, +) semiring, both as repeated SpMM on the
// same CSR the GNN trainers consume, and cross-checks against classical
// CPU implementations.
#include <cstdio>
#include <limits>
#include <queue>
#include <vector>

#include "src/sparse/generate.hpp"
#include "src/sparse/semiring.hpp"
#include "src/util/cli.hpp"
#include "src/util/timer.hpp"

using namespace cagnet;

static int run(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const Index n = args.get_int("vertices", 2000);
  const double degree = args.get_double("degree", 6.0);
  const Index source = args.get_int("source", 0);

  Rng rng(77);
  Coo coo = erdos_renyi(n, degree, rng);
  coo.symmetrize();
  // Positive random weights for SSSP; row i holds in-edges of vertex i so
  // one semiring SpMM propagates values along edges.
  for (auto& t : coo.entries()) t.val = 1.0 + rng.next_double() * 9.0;
  // Weight-0 self loops retain each vertex's settled value across sweeps.
  for (Index v = 0; v < n; ++v) coo.add(v, v, 0.0);
  coo.sort_and_combine();
  const Csr a = Csr::from_coo(coo);
  std::printf("graph: %lld vertices, %lld weighted edges\n\n",
              static_cast<long long>(n), static_cast<long long>(a.nnz()));

  // ---- BFS via (or, and) ----
  WallTimer bfs_timer;
  Matrix frontier(n, 1);
  frontier(source, 0) = 1;
  int rounds = 0;
  Index reached_prev = 0;
  Index reached = 1;
  Matrix next(n, 1);
  while (reached != reached_prev) {
    reached_prev = reached;
    spmm_semiring<OrAnd>(a, frontier, next);
    next(source, 0) = 1;
    std::swap(frontier, next);
    reached = 0;
    for (Index v = 0; v < n; ++v) reached += frontier(v, 0) != 0 ? 1 : 0;
    ++rounds;
  }
  std::printf("BFS (or,and semiring) : %lld/%lld vertices reachable from %lld"
              " in %d rounds (%.1f ms)\n",
              static_cast<long long>(reached), static_cast<long long>(n),
              static_cast<long long>(source), rounds,
              1e3 * bfs_timer.seconds());

  // Verify against a classical queue BFS over the same structure.
  {
    std::vector<char> visited(static_cast<std::size_t>(n), 0);
    std::queue<Index> queue;
    visited[static_cast<std::size_t>(source)] = 1;
    queue.push(source);
    const Csr at = a.transposed();  // out-edges of each vertex
    Index count = 1;
    while (!queue.empty()) {
      const Index u = queue.front();
      queue.pop();
      for (Index p = at.row_ptr()[u]; p < at.row_ptr()[u + 1]; ++p) {
        const Index v = at.col_idx()[p];
        if (!visited[static_cast<std::size_t>(v)]) {
          visited[static_cast<std::size_t>(v)] = 1;
          ++count;
          queue.push(v);
        }
      }
    }
    std::printf("  classical BFS agrees: %lld reachable -> %s\n",
                static_cast<long long>(count),
                count == reached ? "OK" : "MISMATCH");
  }

  // ---- SSSP via (min, +) ----
  WallTimer sssp_timer;
  const Real inf = std::numeric_limits<Real>::infinity();
  Matrix dist(n, 1);
  dist.fill(inf);
  dist(source, 0) = 0;
  Matrix relaxed(n, 1);
  int sweeps = 0;
  while (true) {
    spmm_semiring<MinPlus>(a, dist, relaxed);
    if (relaxed(source, 0) > 0) relaxed(source, 0) = 0;
    ++sweeps;
    if (Matrix::max_abs_diff(relaxed, dist) == 0 || sweeps > n) break;
    std::swap(dist, relaxed);
  }
  double finite_sum = 0;
  Index finite_count = 0;
  for (Index v = 0; v < n; ++v) {
    if (dist(v, 0) < inf) {
      finite_sum += dist(v, 0);
      ++finite_count;
    }
  }
  std::printf("\nSSSP (min,+ semiring) : converged after %d Bellman-Ford "
              "sweeps (%.1f ms); mean distance %.3f over %lld reachable\n",
              sweeps, 1e3 * sssp_timer.seconds(),
              finite_sum / static_cast<double>(finite_count),
              static_cast<long long>(finite_count));
  std::printf("\nThe same Csr/Matrix operands feed GNN training and these\n"
              "analytics: the semiring swap is the Section I extension.\n");
  return 0;
}

int main(int argc, char** argv) { return run_main(argc, argv, run); }
