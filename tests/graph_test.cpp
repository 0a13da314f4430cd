// Tests for src/graph: GCN normalization invariants, permutations,
// partitioners and edge-cut metrics, and the synthetic dataset registry.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <set>

#include "src/graph/datasets.hpp"
#include "src/graph/graph.hpp"
#include "src/graph/partition.hpp"
#include "src/sparse/generate.hpp"
#include "src/sparse/stats.hpp"
#include "src/util/parallel.hpp"

namespace cagnet {
namespace {

Coo path_graph(Index n) {
  Coo coo(n, n);
  for (Index i = 0; i + 1 < n; ++i) coo.add(i, i + 1, 1.0);
  return coo;
}

TEST(Normalize, SelfLoopsGuaranteeFullDiagonal) {
  const Csr a = gcn_normalize(path_graph(5), /*symmetrize=*/true);
  const Matrix d = a.to_dense();
  for (Index i = 0; i < 5; ++i) EXPECT_GT(d(i, i), 0.0);
}

TEST(Normalize, SymmetricInputYieldsSymmetricMatrix) {
  Rng rng(1);
  Coo coo = erdos_renyi(50, 4, rng);
  const Csr a = gcn_normalize(coo, /*symmetrize=*/true);
  const Matrix d = a.to_dense();
  for (Index i = 0; i < 50; ++i) {
    for (Index j = 0; j < i; ++j) EXPECT_NEAR(d(i, j), d(j, i), 1e-14);
  }
}

TEST(Normalize, SpectralRadiusAtMostOne) {
  // D^-1/2 (A+I) D^-1/2 of an undirected graph has eigenvalues in [-1, 1];
  // verify via power iteration on a small graph.
  Rng rng(2);
  const Csr a = gcn_normalize(erdos_renyi(40, 5, rng), /*symmetrize=*/true);
  Matrix v(40, 1);
  v.fill_uniform(rng, -1, 1);
  Real norm = 0;
  for (int iter = 0; iter < 200; ++iter) {
    const Matrix w = a.multiply(v);
    norm = w.frobenius_norm();
    ASSERT_GT(norm, 0);
    v = w;
    for (Real& x : v.flat()) x /= norm;
  }
  EXPECT_LE(norm, 1.0 + 1e-9);
}

TEST(Normalize, RowValueIsInverseDegreeForRegularGraph) {
  // A cycle is 2-regular; with self loops every modified degree is 3, so
  // every nonzero equals 1/3.
  Coo coo(6, 6);
  for (Index i = 0; i < 6; ++i) coo.add(i, (i + 1) % 6, 1.0);
  const Csr a = gcn_normalize(coo, /*symmetrize=*/true);
  for (Real v : a.values()) EXPECT_NEAR(v, 1.0 / 3.0, 1e-14);
}

TEST(Normalize, RejectsRectangular) {
  Coo coo(3, 4);
  EXPECT_THROW(gcn_normalize(coo, false), Error);
}

TEST(Permutation, IsBijective) {
  Rng rng(3);
  const auto perm = random_permutation(100, rng);
  std::set<Index> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 99);
}

TEST(Partition, BlockPartitionMatchesBlockRange) {
  for (Index n : {10, 103, 64}) {
    for (int parts : {1, 3, 7}) {
      const Partition p = block_partition(n, parts);
      for (int q = 0; q < parts; ++q) {
        const auto [lo, hi] = std::pair<Index, Index>{n * q / parts,
                                                      n * (q + 1) / parts};
        for (Index v = lo; v < hi; ++v) {
          EXPECT_EQ(p.owner[static_cast<std::size_t>(v)], q)
              << "n=" << n << " parts=" << parts << " v=" << v;
        }
      }
    }
  }
}

TEST(Partition, RandomPartitionIsBalanced) {
  Rng rng(4);
  const Partition p = random_partition(1000, 8, rng);
  std::vector<Index> counts(8, 0);
  for (Index o : p.owner) ++counts[static_cast<std::size_t>(o)];
  for (Index c : counts) EXPECT_EQ(c, 125);
}

TEST(Partition, GreedyCoversAllVertices) {
  Rng rng(5);
  const Csr a = Csr::from_coo(erdos_renyi(500, 6, rng));
  const Partition p = greedy_bfs_partition(a, 7);
  ASSERT_EQ(p.size(), 500);
  for (Index o : p.owner) {
    EXPECT_GE(o, 0);
    EXPECT_LT(o, 7);
  }
}

TEST(Partition, GreedyRespectsCapacitySlack) {
  Rng rng(6);
  const Csr a = Csr::from_coo(erdos_renyi(600, 5, rng));
  const double slack = 1.05;
  const Partition p = greedy_bfs_partition(a, 6, slack);
  std::vector<Index> counts(6, 0);
  for (Index o : p.owner) ++counts[static_cast<std::size_t>(o)];
  // The last part absorbs leftovers; all others obey the cap.
  const auto cap = static_cast<Index>(slack * 100 + 1);
  for (std::size_t q = 0; q + 1 < counts.size(); ++q) {
    EXPECT_LE(counts[q], cap);
  }
}

TEST(Partition, EdgeCutZeroForSinglePart) {
  Rng rng(7);
  const Csr a = Csr::from_coo(erdos_renyi(100, 4, rng));
  const auto s = edge_cut(a, block_partition(100, 1));
  EXPECT_EQ(s.total_cut_edges, 0);
  EXPECT_EQ(s.max_cut_edges_per_part, 0);
  EXPECT_EQ(s.max_remote_rows_per_part, 0);
}

TEST(Partition, EdgeCutCountsCrossEdges) {
  // 4-cycle split into two halves: vertices {0,1} and {2,3}.
  Coo coo(4, 4);
  coo.add(0, 1, 1);
  coo.add(1, 2, 1);
  coo.add(2, 3, 1);
  coo.add(3, 0, 1);
  const Csr a = Csr::from_coo(coo);
  const auto s = edge_cut(a, block_partition(4, 2));
  EXPECT_EQ(s.total_cut_edges, 2);          // (1,2) and (3,0)
  EXPECT_EQ(s.max_cut_edges_per_part, 1);   // one each
  EXPECT_EQ(s.max_remote_rows_per_part, 1); // one remote vertex each
}

TEST(Partition, MaxMetricsBoundedByTotals) {
  Rng rng(8);
  const Csr a = Csr::from_coo(rmat(800, 8000, rng));
  Rng prng(9);
  const Partition p = random_partition(800, 8, prng);
  const auto s = edge_cut(a, p);
  EXPECT_LE(s.max_cut_edges_per_part, s.total_cut_edges);
  EXPECT_LE(s.max_remote_rows_per_part, 800);
  EXPECT_GE(s.max_cut_edges_per_part,
            s.total_cut_edges / 8);  // max >= mean
}

// The Section IV-A.8 phenomenon: a locality partitioner cuts the *total*
// edge count substantially, but the busiest process improves much less on
// a skewed graph.
TEST(Partition, GreedyBeatsRandomOnTotalCut) {
  Rng rng(10);
  Coo coo = rmat(2000, 30000, rng);
  coo.symmetrize();
  const Csr a = Csr::from_coo(coo);
  Rng prng(11);
  const Partition random = random_partition(a.rows(), 16, prng);
  const Partition greedy = greedy_bfs_partition(a, 16);
  const auto s_random = edge_cut(a, random);
  const auto s_greedy = edge_cut(a, greedy);
  EXPECT_LT(s_greedy.total_cut_edges, s_random.total_cut_edges);
}

TEST(Partition, RegistryCoversAllPartitioners) {
  for (const char* name : {"block", "random", "greedy-bfs"}) {
    EXPECT_NE(find_partitioner(name), nullptr) << name;
  }
  EXPECT_EQ(find_partitioner("metis"), nullptr);
  // CAGNET_PARTITION is unset in the test environment: the default holds.
  EXPECT_NE(find_partitioner(default_partitioner_name()), nullptr);
}

TEST(Partition, RegistryPartitionersCoverAndBalance) {
  Rng rng(12);
  const Csr a = Csr::from_coo(erdos_renyi(400, 5, rng));
  for (const PartitionerSpec& spec : partitioner_registry()) {
    const Partition p = spec.make(a, 8, 99);
    ASSERT_EQ(p.size(), 400) << spec.name;
    ASSERT_EQ(p.parts, 8) << spec.name;
    std::vector<Index> counts(8, 0);
    for (Index o : p.owner) {
      ASSERT_GE(o, 0) << spec.name;
      ASSERT_LT(o, 8) << spec.name;
      ++counts[static_cast<std::size_t>(o)];
    }
    // Balance: no part above the greedy slack ceiling (the loosest bound
    // of the three partitioners); none empty on a connected-ish graph.
    for (Index c : counts) {
      EXPECT_LE(c, static_cast<Index>(1.03 * 50 + 1)) << spec.name;
      EXPECT_GT(c, 0) << spec.name;
    }
  }
}

TEST(Partition, GreedyDeterministicAcrossThreadBudgets) {
  Rng rng(13);
  Coo coo = rmat(1200, 14000, rng);
  coo.symmetrize();
  const Csr a = Csr::from_coo(coo);
  override_thread_budget(1);
  const Partition serial = greedy_bfs_partition(a, 9);
  override_thread_budget(8);
  const Partition threaded = greedy_bfs_partition(a, 9);
  override_thread_budget(0);
  EXPECT_EQ(serial.owner, threaded.owner);
}

TEST(Partition, OffsetsAndPermutationAreConsistent) {
  Rng rng(14);
  const Csr a = Csr::from_coo(erdos_renyi(300, 4, rng));
  const Partition p = greedy_bfs_partition(a, 5);
  const std::vector<Index> offsets = partition_offsets(p);
  ASSERT_EQ(offsets.size(), 6u);
  EXPECT_EQ(offsets.front(), 0);
  EXPECT_EQ(offsets.back(), 300);
  const std::vector<Index> perm = partition_permutation(p);
  // Bijection ...
  std::set<Index> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 300u);
  // ... that sorts owners part-contiguously with original order preserved
  // inside each part (stable).
  for (std::size_t r = 0; r + 1 < perm.size(); ++r) {
    const Index ow_r = p.owner[static_cast<std::size_t>(perm[r])];
    const Index ow_n = p.owner[static_cast<std::size_t>(perm[r + 1])];
    EXPECT_LE(ow_r, ow_n);
    if (ow_r == ow_n) EXPECT_LT(perm[r], perm[r + 1]);
  }
  for (int q = 0; q < 5; ++q) {
    for (Index r = offsets[static_cast<std::size_t>(q)];
         r < offsets[static_cast<std::size_t>(q) + 1]; ++r) {
      EXPECT_EQ(p.owner[static_cast<std::size_t>(perm[static_cast<std::size_t>(r)])], q);
    }
  }
}

TEST(Partition, PermutedCsrMatchesRelabeledDense) {
  Rng rng(15);
  const Csr a = Csr::from_coo(erdos_renyi(40, 3, rng));
  Rng prng(16);
  const Partition p = random_partition(40, 4, prng);
  const std::vector<Index> perm = partition_permutation(p);
  // The training-order A^T: the transpose of the relabeled A.
  const Csr permuted_t = a.permuted_transposed(std::span<const Index>(perm));
  const Matrix d = a.to_dense();
  const Matrix pd = permuted_t.to_dense();
  for (Index r = 0; r < 40; ++r) {
    for (Index c = 0; c < 40; ++c) {
      EXPECT_EQ(pd(r, c), d(perm[static_cast<std::size_t>(c)],
                            perm[static_cast<std::size_t>(r)]));
    }
  }
  // Edge-cut statistics are invariant under the induced relabeling.
  const Csr permuted = permuted_t.transposed();
  Partition sorted;
  sorted.parts = p.parts;
  sorted.owner.resize(40);
  for (Index r = 0; r < 40; ++r) {
    sorted.owner[static_cast<std::size_t>(r)] =
        p.owner[static_cast<std::size_t>(perm[static_cast<std::size_t>(r)])];
  }
  const EdgeCutStats before = edge_cut(a, p);
  const EdgeCutStats after = edge_cut(permuted, sorted);
  EXPECT_EQ(before.total_cut_edges, after.total_cut_edges);
  EXPECT_EQ(before.max_cut_edges_per_part, after.max_cut_edges_per_part);
  EXPECT_EQ(before.max_remote_rows_per_part, after.max_remote_rows_per_part);
}

/// edge_cut as first written: one hash set of remote rows per part.
EdgeCutStats edge_cut_reference(const Csr& a, const Partition& partition) {
  EdgeCutStats s;
  std::vector<Index> cut(static_cast<std::size_t>(partition.parts), 0);
  std::vector<std::set<Index>> remote(
      static_cast<std::size_t>(partition.parts));
  for (Index u = 0; u < a.rows(); ++u) {
    const Index pu = partition.owner[static_cast<std::size_t>(u)];
    for (Index q = a.row_ptr()[u]; q < a.row_ptr()[u + 1]; ++q) {
      const Index v = a.col_idx()[q];
      if (partition.owner[static_cast<std::size_t>(v)] == pu) continue;
      ++s.total_cut_edges;
      ++cut[static_cast<std::size_t>(pu)];
      remote[static_cast<std::size_t>(pu)].insert(v);
    }
  }
  for (int q = 0; q < partition.parts; ++q) {
    s.max_cut_edges_per_part =
        std::max(s.max_cut_edges_per_part, cut[static_cast<std::size_t>(q)]);
    s.max_remote_rows_per_part = std::max(
        s.max_remote_rows_per_part,
        static_cast<Index>(remote[static_cast<std::size_t>(q)].size()));
  }
  return s;
}

TEST(Partition, EdgeCutMatchesHashSetReference) {
  for (const Index n : {Index{203}, Index{256}}) {
    Rng rng(static_cast<std::uint64_t>(n));
    const std::vector<std::pair<std::string, Csr>> graphs = {
        {"erdos-renyi", Csr::from_coo(erdos_renyi(n, 5, rng))},
        {"planted", gcn_normalize(planted_partition(n, 7, 6, 1, rng, 0.02, 30),
                                  /*symmetrize=*/true)}};
    for (const auto& [graph, a] : graphs) {
      for (const char* name : {"block", "random", "greedy-bfs"}) {
        for (const int parts : {1, 3, 8}) {
          const Partition p = find_partitioner(name)->make(a, parts, 17);
          const EdgeCutStats got = edge_cut(a, p);
          const EdgeCutStats want = edge_cut_reference(a, p);
          const std::string label = graph + " n=" + std::to_string(n) + " " +
                                    name + " parts=" + std::to_string(parts);
          EXPECT_EQ(got.total_cut_edges, want.total_cut_edges) << label;
          EXPECT_EQ(got.max_cut_edges_per_part, want.max_cut_edges_per_part)
              << label;
          EXPECT_EQ(got.max_remote_rows_per_part,
                    want.max_remote_rows_per_part)
              << label;
        }
      }
    }
  }
}

TEST(Partition, RemappedColumnsPreserveStructure) {
  Coo coo(3, 6);
  coo.add(0, 1, 2.0);
  coo.add(0, 4, 3.0);
  coo.add(2, 4, 5.0);
  const Csr a = Csr::from_coo(coo);
  // Columns {1, 4} compact to {0, 1}.
  const std::vector<Index> map = {-1, 0, -1, -1, 1, -1};
  const Csr compact =
      a.with_remapped_columns(std::span<const Index>(map), 2);
  EXPECT_EQ(compact.rows(), 3);
  EXPECT_EQ(compact.cols(), 2);
  EXPECT_EQ(compact.nnz(), 3);
  const Matrix d = compact.to_dense();
  EXPECT_EQ(d(0, 0), 2.0);
  EXPECT_EQ(d(0, 1), 3.0);
  EXPECT_EQ(d(2, 1), 5.0);
}

TEST(Datasets, TableSixSpecsMatchPaper) {
  const auto& specs = paper_datasets();
  ASSERT_EQ(specs.size(), 3u);
  EXPECT_EQ(dataset_spec("reddit").vertices, 232965);
  EXPECT_EQ(dataset_spec("reddit").edges, 114848857);
  EXPECT_EQ(dataset_spec("reddit").features, 602);
  EXPECT_EQ(dataset_spec("reddit").labels, 41);
  EXPECT_EQ(dataset_spec("amazon").vertices, 9430088);
  EXPECT_EQ(dataset_spec("amazon").edges, 231594310);
  EXPECT_EQ(dataset_spec("protein").vertices, 8745542);
  EXPECT_EQ(dataset_spec("protein").edges, 1058120062);
  EXPECT_EQ(dataset_spec("protein").labels, 256);
  EXPECT_THROW(dataset_spec("citeseer"), Error);
}

TEST(Datasets, SyntheticPreservesShapeAtScale) {
  SyntheticOptions opt;
  opt.scale = 1.0 / 512;
  opt.max_features = 64;
  const Graph g = make_dataset("amazon", opt);
  const auto& spec = dataset_spec("amazon");
  EXPECT_NEAR(static_cast<double>(g.num_vertices()),
              spec.vertices / 512.0, spec.vertices / 512.0 * 0.01 + 2);
  EXPECT_EQ(g.feature_dim(), 64);
  EXPECT_EQ(g.num_classes, 24);
  EXPECT_EQ(g.labels.size(), static_cast<std::size_t>(g.num_vertices()));
  // Average degree of the normalized matrix is within 3x of the spec's
  // (symmetrization + self loops grow it; duplicate merges shrink it).
  const double d = degree_stats(g.adjacency).avg_degree;
  EXPECT_GT(d, 0.5 * spec.avg_degree());
  EXPECT_LT(d, 3.0 * spec.avg_degree());
}

TEST(Datasets, AllLabelsWithinRange) {
  SyntheticOptions opt;
  opt.scale = 1.0 / 1024;
  opt.max_features = 16;
  for (const auto& spec : paper_datasets()) {
    const Graph g = make_synthetic(spec, opt);
    for (Index label : g.labels) {
      EXPECT_GE(label, 0);
      EXPECT_LT(label, spec.labels);
    }
  }
}

TEST(Datasets, DeterministicForFixedSeed) {
  SyntheticOptions opt;
  opt.scale = 1.0 / 1024;
  opt.max_features = 8;
  const Graph a = make_dataset("protein", opt);
  const Graph b = make_dataset("protein", opt);
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_TRUE(Matrix::allclose(a.features, b.features, 0.0));
  EXPECT_EQ(a.labels, b.labels);
}

TEST(Datasets, SeedChangesTopology) {
  SyntheticOptions a;
  a.scale = 1.0 / 1024;
  a.max_features = 8;
  SyntheticOptions b = a;
  b.seed = 777;
  const Graph ga = make_dataset("reddit", a);
  const Graph gb = make_dataset("reddit", b);
  EXPECT_FALSE(Matrix::allclose(ga.features, gb.features, 1e-12));
}

}  // namespace
}  // namespace cagnet
