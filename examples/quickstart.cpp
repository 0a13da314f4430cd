// Quickstart: train a 3-layer GCN serially, then distribute it with the
// paper's 2D (SUMMA) algorithm and verify both produce the same model.
//
//   ./quickstart [--vertices 2000] [--degree 8] [--features 32]
//                [--classes 7] [--epochs 20] [--procs 4]
//
// This walks the whole public API surface: graph construction and GCN
// normalization, the serial reference trainer, the simulated distributed
// world, and a distributed trainer with its metered communication stats.
#include <cstdio>

#include "src/core/algebra_registry.hpp"
#include "src/gnn/serial_trainer.hpp"
#include "src/graph/graph.hpp"
#include "src/sparse/generate.hpp"
#include "src/util/cli.hpp"

using namespace cagnet;

static int run(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const Index n = args.get_int("vertices", 2000);
  const double degree = args.get_double("degree", 8.0);
  const Index f = args.get_int("features", 32);
  const Index classes = args.get_int("classes", 7);
  const int epochs = static_cast<int>(args.get_int("epochs", 20));
  const int procs = static_cast<int>(args.get_int("procs", 4));
  args.reject_unread();

  // 1. Build a node-classification problem: R-MAT topology, GCN-normalized
  //    adjacency D^-1/2 (A+I) D^-1/2, random features and labels.
  Rng rng(1234);
  Graph graph;
  graph.name = "quickstart";
  graph.adjacency =
      gcn_normalize(rmat(n, static_cast<Index>(degree * n), rng), true);
  graph.features = Matrix(n, f);
  graph.features.fill_uniform(rng, -1, 1);
  graph.num_classes = classes;
  graph.labels.resize(static_cast<std::size_t>(n));
  for (auto& label : graph.labels) {
    label = static_cast<Index>(rng.next_below(
        static_cast<std::uint64_t>(classes)));
  }
  std::printf("graph: %lld vertices, %lld nonzeros, %lld features, %lld classes\n",
              static_cast<long long>(graph.num_vertices()),
              static_cast<long long>(graph.num_edges()),
              static_cast<long long>(graph.feature_dim()),
              static_cast<long long>(classes));

  // 2. Serial reference training.
  GnnConfig config = GnnConfig::three_layer(f, classes);
  config.learning_rate = 0.5;
  SerialTrainer serial(graph, config);
  std::printf("\nserial training (%d epochs):\n", epochs);
  EpochResult last{};
  for (int e = 0; e < epochs; ++e) {
    last = serial.train_epoch();
    if (e % 5 == 0 || e == epochs - 1) {
      std::printf("  epoch %3d  loss %.6f  train-acc %.3f\n", e, last.loss,
                  last.accuracy);
    }
  }

  // 3. The same training distributed over a sqrt(P) x sqrt(P) process grid
  //    with the paper's 2D SUMMA algorithm. Each "process" is a simulated
  //    rank; collectives move real data and are metered in the alpha-beta
  //    model.
  std::printf("\ndistributed 2D training on %d simulated processes:\n", procs);
  const DistProblem problem = DistProblem::prepare(graph);
  const RunConfig run = RunConfig::from_env();
  run_world(procs, [&](Comm& world) {
    const auto trainer = make_dist_trainer("2d", problem, config, world, run);
    EpochResult r{};
    for (int e = 0; e < epochs; ++e) r = trainer->train_epoch();
    const EpochStats stats =
        trainer->reduce_epoch_stats();
    if (world.rank() == 0) {
      std::printf("  final loss %.6f  train-acc %.3f\n", r.loss, r.accuracy);
      std::printf("  per-epoch traffic (busiest rank): dense %.0f words, "
                  "sparse %.0f words, transpose %.0f words\n",
                  stats.comm.words(CommCategory::kDense),
                  stats.comm.words(CommCategory::kSparse),
                  stats.comm.words(CommCategory::kTranspose));
      const MachineModel summit = MachineModel::summit();
      std::printf("  modeled Summit epoch time: %.3f ms\n",
                  1e3 * stats.modeled_seconds(summit));
      std::printf("  parity with serial: |loss_2d - loss_serial| = %.2e\n",
                  std::abs(r.loss - last.loss));
    }
  });
  std::printf("\nDone. The distributed model matches the serial one up to\n"
              "floating-point accumulation order (see tests/dist_test.cpp\n"
              "for the strict parity checks).\n");
  return 0;
}

int main(int argc, char** argv) { return run_main(argc, argv, run); }
