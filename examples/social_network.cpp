// Social-network node classification with an algorithm shoot-out.
//
//   ./social_network [--scale-denominator 128] [--epochs 2]
//
// Uses a Reddit-like graph (very dense: average degree ~493 >> f) and runs
// the same training under all four algorithm families at matching process
// counts, reporting metered per-rank communication and modeled Summit
// epoch times — the "algorithmic recipes" view of the paper's Section I.
#include <cstdio>
#include <memory>

#include "src/core/algebra_registry.hpp"
#include "src/graph/datasets.hpp"
#include "src/util/cli.hpp"

using namespace cagnet;

namespace {

struct Row {
  const char* name;
  int procs;
  double dense_words;
  double sparse_words;
  double modeled_ms;
  double loss;
};

Row run_one(const char* name, const char* algebra, const DistProblem& problem,
            const GnnConfig& config, const RunConfig& run, int procs,
            int epochs) {
  const MachineModel summit = MachineModel::summit();
  Row row{name, procs, 0, 0, 0, 0};
  run_world(procs, [&](Comm& world) {
    auto trainer = make_dist_trainer(algebra, problem, config, world, run);
    EpochResult r{};
    for (int e = 0; e < epochs; ++e) r = trainer->train_epoch();
    const EpochStats s =
        trainer->reduce_epoch_stats();
    if (world.rank() == 0) {
      row.dense_words = s.comm.words(CommCategory::kDense);
      row.sparse_words = s.comm.words(CommCategory::kSparse) +
                         s.comm.words(CommCategory::kTranspose);
      row.modeled_ms = 1e3 * s.modeled_seconds(summit);
      row.loss = r.loss;
    }
  });
  return row;
}

}  // namespace

static int run(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const long denom = args.get_int("scale-denominator", 128);
  const int epochs = static_cast<int>(args.get_int("epochs", 2));
  const Index max_features = args.get_int("max-features", 64);
  args.reject_unread();

  SyntheticOptions opt;
  opt.scale = 1.0 / static_cast<double>(denom);
  opt.max_features = max_features;
  std::printf("generating reddit analog at 1/%ld scale (f capped at %lld)\n",
              denom, static_cast<long long>(opt.max_features));
  const Graph graph = make_dataset("reddit", opt);
  std::printf("  %lld vertices, %lld nonzeros\n\n",
              static_cast<long long>(graph.num_vertices()),
              static_cast<long long>(graph.num_edges()));

  GnnConfig config = GnnConfig::three_layer(graph.feature_dim(),
                                            graph.num_classes);
  const DistProblem problem = DistProblem::prepare(graph);
  const RunConfig run = RunConfig::from_env();

  std::vector<Row> rows;
  rows.push_back(run_one("1D   ", "1d", problem, config, run, 16, epochs));
  rows.push_back(
      run_one("1.5D ", "1.5d-c4", problem, config, run, 16, epochs));
  rows.push_back(run_one("2D   ", "2d", problem, config, run, 16, epochs));
  rows.push_back(run_one("3D   ", "3d", problem, config, run, 27, epochs));

  std::printf("%-6s %5s %14s %14s %12s %10s\n", "algo", "P", "dense words",
              "sparse words", "modeled ms", "loss");
  for (const Row& r : rows) {
    std::printf("%-6s %5d %14.3e %14.3e %12.3f %10.4f\n", r.name, r.procs,
                r.dense_words, r.sparse_words, r.modeled_ms, r.loss);
  }
  std::printf("\nAll losses agree: the algorithms are exact reformulations\n"
              "of the same full-batch GCN training (paper Section V-A).\n"
              "At these small P the 1D family still wins on latency; the 2D\n"
              "and 3D advantages appear at sqrt(P) >= 5 (see\n"
              "bench_costmodel_scaling).\n");
  return 0;
}

int main(int argc, char** argv) { return run_main(argc, argv, run); }
