// Community detection: a workload where the GCN genuinely learns.
//
//   ./community_detection [--vertices 600] [--communities 4] [--procs 4]
//                         [--epochs 60]
//
// Generates a planted-partition graph whose labels are the community ids,
// trains the paper's GCN three ways — full-batch serial, full-batch
// distributed 2D (the paper's algorithm), and mini-batch with neighbor
// sampling (the paper's Section VII direction) on one worker — and
// compares accuracy.
// The full-batch runs agree exactly (Section V-A); sampling trades a little
// accuracy for a bounded memory footprint.
#include <cstdio>
#include <filesystem>
#include <string>

#include <unistd.h>

#include "src/core/algebra_registry.hpp"
#include "src/dense/ops.hpp"
#include "src/gnn/checkpoint.hpp"
#include "src/gnn/serial_trainer.hpp"
#include "src/sparse/generate.hpp"
#include "src/util/cli.hpp"

using namespace cagnet;

static int run(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const Index n = args.get_int("vertices", 600);
  const Index communities = args.get_int("communities", 4);
  const int procs = static_cast<int>(args.get_int("procs", 4));
  const int epochs = static_cast<int>(args.get_int("epochs", 60));
  args.reject_unread();

  Rng rng(2024);
  Graph g;
  g.name = "communities";
  g.adjacency = gcn_normalize(
      planted_partition(n, communities, 12, 1.5, rng, 0.0), true);
  g.features = Matrix(n, 16);
  g.features.fill_uniform(rng, -1, 1);
  g.num_classes = communities;
  g.labels.resize(static_cast<std::size_t>(n));
  const Index comm_size = (n + communities - 1) / communities;
  for (Index v = 0; v < n; ++v) {
    g.labels[static_cast<std::size_t>(v)] = v / comm_size;
  }
  std::printf("planted-partition graph: %lld vertices, %lld nonzeros, "
              "%lld communities (chance accuracy %.2f)\n\n",
              static_cast<long long>(g.num_vertices()),
              static_cast<long long>(g.num_edges()),
              static_cast<long long>(communities),
              1.0 / static_cast<double>(communities));

  GnnConfig config;
  config.dims = {16, 32, communities};
  config.learning_rate = 0.01;
  config.optimizer.kind = OptimizerKind::kAdam;

  // 1. Full-batch serial reference.
  SerialTrainer serial(g, config);
  EpochResult serial_result{};
  for (int e = 0; e < epochs; ++e) serial_result = serial.train_epoch();
  std::printf("full-batch serial     : loss %.4f  accuracy %.3f\n",
              serial_result.loss, serial_result.accuracy);

  // 2. Full-batch distributed (the paper's 2D algorithm).
  const DistProblem problem = DistProblem::prepare(g);
  const RunConfig run = RunConfig::from_env();
  run_world(procs, [&](Comm& world) {
    const auto trainer = make_dist_trainer("2d", problem, config, world, run);
    EpochResult r{};
    for (int e = 0; e < epochs; ++e) r = trainer->train_epoch();
    if (world.rank() == 0) {
      std::printf("full-batch 2D (P=%d)   : loss %.4f  accuracy %.3f  "
                  "(matches serial: |delta|=%.1e)\n",
                  procs, r.loss, r.accuracy,
                  std::abs(r.loss - serial_result.loss));
    }
  });

  // 3. Mini-batch with neighbor sampling (Section VII direction): the
  //    sampled 1D trainer on a one-worker world.
  RunConfig sampled = run;
  sampled.sample = true;
  sampled.sample_batch = 64;
  sampled.sample_fanouts = {10, 10};
  run_world(1, [&](Comm& world) {
    const auto trainer =
        make_dist_trainer("1d", problem, config, world, sampled);
    EpochResult r{};
    for (int e = 0; e < epochs; ++e) r = trainer->train_epoch();
    // A full-graph forward with the trained weights (inference).
    const Matrix full_probs = trainer->gather_output();
    std::printf("mini-batch sampled    : loss %.4f  accuracy %.3f  "
                "(full-graph inference accuracy %.3f)\n",
                r.loss, r.accuracy, accuracy(full_probs, g.labels));
  });

  // 4. Checkpoint round trip, under a name of this process's own so
  //    concurrent runs never share the file.
  const std::string ckpt =
      (std::filesystem::temp_directory_path() /
       (std::to_string(::getpid()) + "_cagnet_community.ckpt"))
          .string();
  save_weights(ckpt, serial.weights());
  SerialTrainer resumed(g, config);
  resumed.weights() = load_weights(ckpt);
  std::printf("\ncheckpoint restored   : forward parity %.1e\n",
              Matrix::max_abs_diff(resumed.forward(), serial.forward()));
  std::remove(ckpt.c_str());
  return 0;
}

int main(int argc, char** argv) { return run_main(argc, argv, run); }
