// End-to-end integration tests crossing module boundaries: dataset
// registry -> distributed training -> checkpoint -> serial inference, and
// Matrix Market round trips feeding the training pipeline.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>

#include <unistd.h>

#include "src/core/algebra_registry.hpp"
#include "src/core/costmodel.hpp"
#include "src/dense/ops.hpp"
#include "src/gnn/checkpoint.hpp"
#include "src/gnn/serial_trainer.hpp"
#include "src/graph/datasets.hpp"
#include "src/graph/mmio.hpp"
#include "src/graph/partition.hpp"
#include "src/sparse/generate.hpp"

namespace cagnet {
namespace {

/// `name` under the temp directory, prefixed with this process's id so
/// concurrent runs (two builds' test suites, two bench runs) never share
/// a file.
std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (std::to_string(::getpid()) + "_" + name))
      .string();
}

TEST(Integration, RegistryTrainCheckpointInfer) {
  // Compares distributed training on the exact wire (RunConfig{}, the
  // Dist2D default) against the serial oracle; lossy-mode convergence is
  // asserted (with tolerance) in compress_test.
  // 1. Synthetic amazon analog from the Table VI registry.
  SyntheticOptions opt;
  opt.scale = 1.0 / 4096;
  opt.max_features = 24;
  const Graph g = make_dataset("amazon", opt);

  // 2. Distributed 2D training for a few epochs; rank 0 checkpoints.
  GnnConfig config = GnnConfig::three_layer(g.feature_dim(), g.num_classes);
  config.learning_rate = 0.1;
  const DistProblem problem = DistProblem::prepare(g);
  const std::string path = temp_path("cagnet_integration.ckpt");
  Real dist_loss = 0;
  run_world(4, [&](Comm& world) {
    const auto trainer =
        make_dist_trainer("2d", problem, config, world, RunConfig{});
    EpochResult r{};
    for (int e = 0; e < 3; ++e) r = trainer->train_epoch();
    if (world.rank() == 0) {
      dist_loss = r.loss;
      save_weights(path, trainer->weights());
    }
  });

  // 3. Serial trainer restored from the checkpoint must produce the same
  //    next-epoch loss as continuing distributed training would.
  SerialTrainer serial(g, config);
  serial.weights() = load_weights(path);
  const Matrix& probs = serial.forward();
  const Real resumed_loss = nll_loss(probs, g.labels);

  SerialTrainer oracle(g, config);
  for (int e = 0; e < 3; ++e) oracle.train_epoch();
  const Real oracle_loss = nll_loss(oracle.forward(), g.labels);
  EXPECT_NEAR(resumed_loss, oracle_loss, 1e-8);
  EXPECT_TRUE(std::isfinite(dist_loss));
  std::remove(path.c_str());
}

TEST(Integration, MatrixMarketGraphFeedsTraining) {
  // Export a generated topology, reload it as if it were an external
  // dataset, normalize, and train end to end.
  const std::string path = temp_path("cagnet_integration.mtx");
  Rng rng(31);
  const Csr raw = Csr::from_coo(erdos_renyi(150, 5, rng));
  write_matrix_market_file(path, raw);

  Coo reloaded = read_matrix_market_file(path);
  Graph g;
  g.name = "mtx";
  g.adjacency = gcn_normalize(std::move(reloaded), true);
  g.features = Matrix(150, 6);
  g.features.fill_uniform(rng, -1, 1);
  g.num_classes = 3;
  g.labels.assign(150, 0);
  for (std::size_t v = 0; v < g.labels.size(); ++v) {
    g.labels[v] = static_cast<Index>(v % 3);
  }

  GnnConfig config = GnnConfig::three_layer(6, 3, 8);
  SerialTrainer trainer(g, config);
  const Real first = trainer.train_epoch().loss;
  Real last = first;
  for (int e = 0; e < 20; ++e) last = trainer.train_epoch().loss;
  EXPECT_LT(last, first);
  std::remove(path.c_str());
}

TEST(Integration, PartitionerFeedsCostModelNarrative) {
  // The 1D bandwidth term is edgecut * f: a better partition must map to a
  // proportionally lower modeled communication for the 1D algorithm.
  Rng rng(32);
  Coo coo = planted_partition(3000, 30, 10, 1, rng, 0.0);
  coo.symmetrize();
  const Csr a = Csr::from_coo(coo);
  Rng prng(33);
  const auto random_cut = edge_cut(a, random_partition(a.rows(), 8, prng));
  const auto greedy_cut = edge_cut(a, greedy_bfs_partition(a, 8));
  ASSERT_LT(greedy_cut.max_remote_rows_per_part,
            random_cut.max_remote_rows_per_part);

  CostInputs in;
  in.n = static_cast<double>(a.rows());
  in.nnz = static_cast<double>(a.nnz());
  in.f = 64;
  in.p = 8;
  in.layers = 3;
  in.edgecut = static_cast<double>(random_cut.max_remote_rows_per_part);
  const double random_words = cost_1d(in).words;
  in.edgecut = static_cast<double>(greedy_cut.max_remote_rows_per_part);
  const double greedy_words = cost_1d(in).words;
  EXPECT_LT(greedy_words, random_words);
}

TEST(Integration, DatasetScaleSweepStaysTrainable) {
  // Property sweep: every registry dataset at several scales produces a
  // normalized, trainable problem (finite losses, spectral norm <= 1).
  for (const auto& spec : paper_datasets()) {
    for (double denom : {2048.0, 8192.0}) {
      SyntheticOptions opt;
      opt.scale = 1.0 / denom;
      opt.max_features = 12;
      const Graph g = make_synthetic(spec, opt);
      ASSERT_GT(g.num_vertices(), 0);
      ASSERT_EQ(g.adjacency.rows(), g.adjacency.cols());
      GnnConfig config = GnnConfig::three_layer(g.feature_dim(),
                                                g.num_classes, 4);
      SerialTrainer trainer(g, config);
      const EpochResult r = trainer.train_epoch();
      EXPECT_TRUE(std::isfinite(r.loss)) << spec.name << " 1/" << denom;
    }
  }
}

}  // namespace
}  // namespace cagnet
