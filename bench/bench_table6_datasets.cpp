// Regenerates Table VI: the datasets used in the paper's experiments.
//
// Prints the paper's reported vertices/edges/features/labels next to the
// properties of the synthetic analogs this repo generates (at the bench's
// default scale, and with the scaling rule that preserves average degree).
#include <cstdio>

#include "bench/bench_common.hpp"
#include "src/sparse/stats.hpp"

using namespace cagnet;

static int run(int argc, char** argv) {
  const CliArgs args(argc, argv);
  std::printf("=== Table VI: datasets (paper values vs generated analogs) "
              "===\n\n");
  std::printf("%-9s | %12s %14s %9s %7s | %10s %12s %9s %9s %8s\n", "name",
              "paper-verts", "paper-edges", "paper-f", "paper-L", "gen-verts",
              "gen-nnz", "gen-f", "gen-L", "gen-deg");
  std::printf("---------------------------------------------------------------"
              "----------------------------------------------\n");
  for (const DatasetSpec& spec : paper_datasets()) {
    const Graph g = bench::load_scaled(spec.name, args).graph;
    const DegreeStats s = degree_stats(g.adjacency);
    std::printf("%-9s | %12lld %14lld %9lld %7lld | %10lld %12lld %9lld %9lld "
                "%8.1f\n",
                spec.name.c_str(), static_cast<long long>(spec.vertices),
                static_cast<long long>(spec.edges),
                static_cast<long long>(spec.features),
                static_cast<long long>(spec.labels),
                static_cast<long long>(g.num_vertices()),
                static_cast<long long>(g.num_edges()),
                static_cast<long long>(g.feature_dim()),
                static_cast<long long>(g.num_classes), s.avg_degree);
  }
  std::printf("\npaper avg degrees: reddit %.1f, amazon %.1f, protein %.1f\n",
              dataset_spec("reddit").avg_degree(),
              dataset_spec("amazon").avg_degree(),
              dataset_spec("protein").avg_degree());
  std::printf("generated analogs preserve n:nnz ratio (average degree), the\n"
              "feature/label widths, and R-MAT degree skew; see DESIGN.md\n"
              "(Substitutions). Note: heavily downscaled reddit is denser\n"
              "than the original because its average degree is held.\n");
  return 0;
}

int main(int argc, char** argv) { return run_main(argc, argv, run); }
