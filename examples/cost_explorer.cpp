// Communication-cost explorer: the paper's Section IV closed forms as a
// planning tool ("algorithmic recipes to get the fastest GNN
// implementations at large scale").
//
//   ./cost_explorer [--vertices 1e6-ish] [--nnz ...] [--features 128]
//                   [--layers 3] [--procs 4,16,64,256,1024]
//   ./cost_explorer --dataset protein     # use a Table VI shape
//
// Prints, per process count: words moved and modeled Summit epoch seconds
// for the 1D / 1.5D(c=4) / 2D / 3D algorithms, and which one wins.
//
// A final section grounds the 1D prediction in a *measured* edgecut
// (CostInputs::from_partition): it partitions a community-structured proxy
// graph with the greedy-BFS partitioner and prints the words a
// sparsity-aware halo run would move next to the random n(P-1)/P bound.
// Disable with --preview-vertices 0.
#include <algorithm>
#include <cstdio>
#include <string>

#include "src/core/costmodel.hpp"
#include "src/graph/datasets.hpp"
#include "src/graph/partition.hpp"
#include "src/sparse/generate.hpp"
#include "src/util/cli.hpp"

using namespace cagnet;

static int run(int argc, char** argv) {
  const CliArgs args(argc, argv);
  double n = args.get_double("vertices", 1e6);
  double nnz = args.get_double("nnz", 0);
  double f = args.get_double("features", 128);
  const int layers = static_cast<int>(args.get_int("layers", 3));
  const std::string dataset = args.get("dataset", "");

  if (!dataset.empty()) {
    const DatasetSpec& spec = dataset_spec(dataset);
    n = static_cast<double>(spec.vertices);
    nnz = static_cast<double>(spec.edges);
    f = static_cast<double>(spec.features);
    std::printf("dataset %s: n=%.3e nnz=%.3e f=%.0f\n", dataset.c_str(), n,
                nnz, f);
  }
  if (nnz <= 0) nnz = 16 * n;

  const auto procs = args.get_int_list("procs", {4, 16, 36, 64, 100, 256,
                                                 1024, 4096});
  const MachineModel summit = MachineModel::summit();

  std::printf("\nper-epoch communication (words per process, Section IV "
              "closed forms; L=%d)\n", layers);
  std::printf("%6s %12s %12s %12s %12s   %-18s\n", "P", "1D", "1.5D(c=4)",
              "2D", "3D", "fastest (modeled)");
  for (long p : procs) {
    const CostInputs in = CostInputs::from_random(
        n, nnz, f, static_cast<int>(p), layers);
    const CommCost c1 = cost_1d(in);
    const CommCost c15 =
        p % 4 == 0 ? cost_15d(in, 4) : CommCost{1e300, 1e300};
    const CommCost c2 = cost_2d(in);
    const CommCost c3 = cost_3d(in);

    const double seconds[4] = {c1.seconds(summit), c15.seconds(summit),
                               c2.seconds(summit), c3.seconds(summit)};
    int best = 0;
    for (int a = 1; a < 4; ++a) {
      if (seconds[a] < seconds[best]) best = a;
    }
    char verdict[64];
    std::snprintf(verdict, sizeof(verdict), "%s (%.4f s)",
                  algorithm_name(best), seconds[best]);
    std::printf("%6ld %12.3e %12.3e %12.3e %12.3e   %-18s\n", p, c1.words,
                c15.words, c2.words, c3.words, verdict);
  }

  std::printf("\nmemory (words per process, incl. replication factors)\n");
  std::printf("%6s %12s %12s %12s %12s\n", "P", "1D", "1.5D(c=4)", "2D",
              "3D");
  for (long p : procs) {
    const CostInputs in = CostInputs::from_random(
        n, nnz, f, static_cast<int>(p), layers);
    std::printf("%6ld %12.3e %12.3e %12.3e %12.3e\n", p,
                memory_words_1d(in),
                p % 4 == 0 ? memory_words_15d(in, 4) : 0.0,
                memory_words_2d(in), memory_words_3d(in));
  }
  std::printf("\n2D consumes optimal memory and O(sqrt(P)) fewer words than"
              "\n1D; 3D shaves another O(P^(1/6)) at a P^(1/3) memory cost\n"
              "(paper abstract / Section IV).\n");

  // ---- Measured edgecut: predictions beyond the n(P-1)/P bound ----
  const Index pn = args.get_int("preview-vertices", 20000);
  if (pn > 0) {
    const double avg_degree = nnz / n;
    Rng rng(21);
    Coo coo = planted_partition(pn, std::max<Index>(pn / 256, 2),
                                0.8 * avg_degree, 0.2 * avg_degree, rng,
                                /*hub_fraction=*/0.0002,
                                /*hub_degree=*/avg_degree * 40);
    coo.symmetrize();
    const Csr a = Csr::from_coo(coo);
    std::printf("\n1D words under a *measured* greedy-BFS edgecut "
                "(community proxy: %lld vertices,\n%lld edges, scaled from "
                "the shape above; CostInputs::from_partition)\n",
                static_cast<long long>(a.rows()),
                static_cast<long long>(a.nnz()));
    std::printf("%6s %14s %14s %14s %10s\n", "P", "bound n(P-1)/P",
                "measured cut", "1D words", "vs bound");
    for (int p : {4, 16, 64}) {
      const Partition part = greedy_bfs_partition(a, p);
      const EdgeCutStats cut = edge_cut(a, part);
      const CostInputs bound = CostInputs::from_random(
          static_cast<double>(a.rows()), static_cast<double>(a.nnz()), f, p,
          layers);
      const CostInputs measured = CostInputs::from_partition(
          cut, static_cast<double>(a.rows()), static_cast<double>(a.nnz()),
          f, p, layers);
      std::printf("%6d %14.0f %14.0f %14.3e %9.2fx\n", p, bound.edgecut,
                  measured.edgecut, cost_1d_symmetric(measured).words,
                  cost_1d_symmetric(bound).words /
                      cost_1d_symmetric(measured).words);
    }
    std::printf("\nA locality partitioner plus the halo exchange "
                "(CAGNET_PARTITION=greedy-bfs,\nCAGNET_HALO=1) realizes the "
                "measured column; Algorithm 1's broadcasts pay\nthe bound "
                "regardless of partition quality (Section IV-A.8).\n");

    // ---- Bounded staleness: amortized forward-halo words per epoch ----
    // cost_1d_halo_stale amortizes the exact forward exchange over a
    // CAGNET_STALE=k refresh interval; k=1 is the exact per-epoch
    // exchange.
    std::printf("\nforward-halo words per epoch under bounded staleness "
                "(CAGNET_STALE=k,\nmeasured greedy-BFS edgecut; k=1 is the "
                "exact exchange)\n");
    std::printf("%6s %14s %14s %14s %14s\n", "P", "k=1", "k=2", "k=4",
                "k=8");
    for (int p : {4, 16, 64}) {
      const Partition part = greedy_bfs_partition(a, p);
      const EdgeCutStats cut = edge_cut(a, part);
      const CostInputs measured = CostInputs::from_partition(
          cut, static_cast<double>(a.rows()), static_cast<double>(a.nnz()),
          f, p, layers);
      std::printf("%6d %14.3e %14.3e %14.3e %14.3e\n", p,
                  cost_1d_halo_stale(measured, 1).words,
                  cost_1d_halo_stale(measured, 2).words,
                  cost_1d_halo_stale(measured, 4).words,
                  cost_1d_halo_stale(measured, 8).words);
    }
    std::printf("\nThe metered counterpart is the kHalo words drop plus "
                "CostMeter::stale_saved_words\n(predicted saving at rate k "
                "= exact words minus the k column).\n");
  }
  return 0;
}

int main(int argc, char** argv) { return run_main(argc, argv, run); }
