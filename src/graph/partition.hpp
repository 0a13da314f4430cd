// Vertex partitioning and the edge-cut communication metric of Section IV-A.
//
// The 1D algorithm's bandwidth term is edgecut_P(A) * f, where edgecut_P(A)
// is the maximum over processes of the number of remote dense-matrix rows a
// process must receive. The paper compares a random block distribution with
// METIS partitions (Section IV-A.8); our locality-seeking stand-in is a
// greedy BFS grower (see DESIGN.md, Substitutions).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "src/sparse/csr.hpp"
#include "src/util/rng.hpp"

namespace cagnet {

/// Assignment of every vertex to one of `parts` processes.
struct Partition {
  std::vector<Index> owner;  ///< size n, values in [0, parts)
  int parts = 0;

  Index size() const { return static_cast<Index>(owner.size()); }
};

/// Contiguous block partition: vertex v belongs to part v*P/n-ish (the
/// paper's default 1D layout after an optional random permutation).
Partition block_partition(Index n, int parts);

/// Random balanced partition: a random permutation chopped into equal
/// blocks. This is the "random block row distribution" baseline.
Partition random_partition(Index n, int parts, Rng& rng);

/// Greedy BFS partitioner (METIS stand-in): grows parts from high-degree
/// seeds along edges until each reaches its capacity ceil(n/parts * slack).
Partition greedy_bfs_partition(const Csr& a, int parts, double slack = 1.03);

/// Communication metrics for the 1D algorithm under a given partition.
struct EdgeCutStats {
  /// Edges (u, v) with owner[u] != owner[v] (the paper's "total
  /// communication" proxy, 3,258,385 vs 11,761,151 in IV-A.8).
  Index total_cut_edges = 0;
  /// Max over parts q of cut edges whose source vertex lives on q (the
  /// paper's "edges cut for the process with maximum communication").
  Index max_cut_edges_per_part = 0;
  /// Max over parts q of *distinct* remote vertices adjacent to q: this is
  /// edgecut_P(A) as defined in Section IV-A, the number of dense rows the
  /// busiest process receives.
  Index max_remote_rows_per_part = 0;
};

EdgeCutStats edge_cut(const Csr& a, const Partition& partition);

std::string to_string(const EdgeCutStats& s);

/// Per-part vertex counts of `partition` as a prefix-sum offsets vector
/// (parts+1 entries): part q owns offsets[q] .. offsets[q+1] vertices once
/// the vertices are relabeled part-contiguously (sorted_by_part).
std::vector<Index> partition_offsets(const Partition& partition);

/// The part-contiguous relabeling induced by a partition: perm[r] is the
/// original vertex at permuted position r, with vertices ordered by
/// (owner, original index) — a stable counting sort, so the relabeling is
/// deterministic. Applying it makes every part a contiguous row block
/// whose boundaries are partition_offsets.
std::vector<Index> partition_permutation(const Partition& partition);

/// Named partitioner: builds a Partition of `a`'s rows into `parts`.
/// `seed` feeds the randomized partitioners and is ignored by the
/// deterministic ones.
struct PartitionerSpec {
  std::string name;
  std::function<Partition(const Csr& a, int parts, std::uint64_t seed)> make;
};

/// All registered partitioners: "block" (contiguous ranges, the paper's
/// default layout), "random" (random balanced blocks), "greedy-bfs" (the
/// METIS stand-in). New partitioners are one entry here; DistProblem,
/// the benches, and the HaloParity tests pick them up by name.
const std::vector<PartitionerSpec>& partitioner_registry();

/// Lookup by name; nullptr when unknown.
const PartitionerSpec* find_partitioner(const std::string& name);

/// The CAGNET_PARTITION environment selection (read once, at first call;
/// "block" when unset). An unregistered name throws Error at every call.
const std::string& default_partitioner_name();

}  // namespace cagnet
