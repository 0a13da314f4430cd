// Protein-network embedding: the paper's flagship workload (a HipMCL
// protein-similarity subgraph with 1.06B edges, trained on up to 100 GPUs).
//
//   ./protein_embedding [--scale-denominator 256] [--procs 36]
//                       [--epochs 2] [--hidden 16]
//
// Regenerates a scale-free analog of the protein dataset (matched average
// degree d ~ 121, f = 128 input features, 256 classes), trains the paper's
// 3-layer GCN with the 2D algorithm, and reports the modeled Summit epoch
// time with its Fig. 3-style breakdown.
#include <cstdio>

#include "src/core/algebra_registry.hpp"
#include "src/graph/datasets.hpp"
#include "src/sparse/stats.hpp"
#include "src/util/cli.hpp"
#include "src/util/timer.hpp"

using namespace cagnet;

static int run(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const long denom = args.get_int("scale-denominator", 256);
  const int procs = static_cast<int>(args.get_int("procs", 36));
  const int epochs = static_cast<int>(args.get_int("epochs", 2));
  const Index hidden = args.get_int("hidden", 16);

  if (exact_sqrt(procs) == 0) {
    std::fprintf(stderr, "--procs must be a perfect square for the 2D grid\n");
    return 1;
  }

  SyntheticOptions opt;
  opt.scale = 1.0 / static_cast<double>(denom);
  std::printf("generating protein analog at 1/%ld of Table VI scale...\n",
              denom);
  const Graph graph = make_dataset("protein", opt);
  const DegreeStats stats = degree_stats(graph.adjacency);
  std::printf("  %lld vertices, %lld nonzeros (avg degree %.1f, paper: 121),"
              " f=%lld, %lld classes\n",
              static_cast<long long>(stats.rows),
              static_cast<long long>(stats.nnz), stats.avg_degree,
              static_cast<long long>(graph.feature_dim()),
              static_cast<long long>(graph.num_classes));

  GnnConfig config = GnnConfig::three_layer(graph.feature_dim(),
                                            graph.num_classes, hidden);
  const DistProblem problem = DistProblem::prepare(graph);
  const RunConfig run = RunConfig::from_env();
  const MachineModel summit = MachineModel::summit();

  std::printf("training %d epochs on a %dx%d simulated grid...\n", epochs,
              exact_sqrt(procs), exact_sqrt(procs));
  WallTimer wall;
  run_world(procs, [&](Comm& world) {
    const auto trainer = make_dist_trainer("2d", problem, config, world, run);
    EpochResult r{};
    for (int e = 0; e < epochs; ++e) {
      r = trainer->train_epoch();
      const EpochStats s =
          trainer->reduce_epoch_stats();
      if (world.rank() == 0) {
        std::printf("  epoch %d: loss %.4f | modeled Summit epoch %.3f s "
                    "(comm %.3f s, spmm %.3f s, gemm %.3f s)\n",
                    e, r.loss, s.modeled_seconds(summit),
                    s.comm.modeled_seconds(summit), s.work.spmm_seconds(),
                    s.work.gemm_seconds());
        std::printf("    traffic/rank: dcomm %.2e w, scomm %.2e w, "
                    "trpose %.2e w | host wall so far %.1f s\n",
                    s.comm.words(CommCategory::kDense),
                    s.comm.words(CommCategory::kSparse),
                    s.comm.words(CommCategory::kTranspose), wall.seconds());
      }
    }
  });
  std::printf("done in %.1f s host wall (simulation; the modeled Summit\n"
              "numbers above are the paper-comparable quantity).\n",
              wall.seconds());
  return 0;
}

int main(int argc, char** argv) { return run_main(argc, argv, run); }
