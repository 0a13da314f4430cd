// Parity tests for the distributed trainers: for the same seed, every
// registered algebra (1D, 1.5D, 2D, 3D), executed by the one shared
// DistEngine, must reproduce the serial reference's per-epoch losses and
// output embeddings up to floating-point accumulation error — the paper's
// Section V-A verification. Also checks the metered communication against
// the Section IV closed forms.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/algebra_registry.hpp"
#include "src/core/costmodel.hpp"
#include "src/core/dist15d.hpp"
#include "src/core/dist3d.hpp"
#include "src/gnn/serial_trainer.hpp"
#include "src/graph/datasets.hpp"
#include "src/sparse/generate.hpp"

namespace cagnet {
namespace {

constexpr Real kParityTol = 1e-8;

Graph test_graph(Index n, Index f, Index classes, std::uint64_t seed) {
  Rng rng(seed);
  Graph g;
  g.name = "dist-test";
  g.adjacency = gcn_normalize(rmat(n, n * 6, rng), true);
  g.features = Matrix(n, f);
  g.features.fill_uniform(rng, -1, 1);
  g.num_classes = classes;
  g.labels.resize(static_cast<std::size_t>(n));
  for (auto& label : g.labels) {
    label = static_cast<Index>(rng.next_below(
        static_cast<std::uint64_t>(classes)));
  }
  return g;
}

struct RunOutcome {
  std::vector<Real> losses;
  Matrix output;     // epoch-K forward output (gathered)
  EpochStats stats;  // max-reduced stats of the final epoch
  EpochStats setup;  // max-reduced meter delta of make_dist_trainer
};

/// Run `epochs` epochs of the named registry algebra through the shared
/// engine on a simulated world of `p` ranks, in `mode` (by default the
/// exact broadcast mode).
RunOutcome run_distributed(const std::string& algebra, const Graph& g,
                           const GnnConfig& config, int p, int epochs,
                           const RunConfig& mode = {}) {
  const DistProblem prob = DistProblem::prepare(g);
  RunOutcome outcome;
  std::mutex mutex;
  run_world(p, [&](Comm& world) {
    EpochStats setup;
    auto trainer = build_metered(world, setup.comm, [&] {
      return make_dist_trainer(algebra, prob, config, world, mode);
    });
    setup = EpochStats::reduce_max(setup, world);
    std::vector<Real> losses;
    for (int e = 0; e < epochs; ++e) {
      losses.push_back(trainer->train_epoch().loss);
    }
    const EpochStats reduced = trainer->reduce_epoch_stats();
    Matrix out = trainer->gather_output();
    if (world.rank() == 0) {
      std::lock_guard<std::mutex> lock(mutex);
      outcome.losses = std::move(losses);
      outcome.output = std::move(out);
      outcome.stats = reduced;
      outcome.setup = setup;
    }
  });
  return outcome;
}

/// Serial run collecting per-epoch losses and the epoch-K forward output.
RunOutcome run_serial(const Graph& g, const GnnConfig& config, int epochs) {
  SerialTrainer trainer(g, config);
  RunOutcome outcome;
  for (int e = 0; e < epochs; ++e) {
    outcome.losses.push_back(trainer.train_epoch().loss);
  }
  outcome.output = trainer.activations().back();
  return outcome;
}

// ---- Registry-driven parity: every algebra x every valid world size ----

struct AlgebraWorld {
  std::string algebra;
  int p = 0;
};

std::vector<AlgebraWorld> all_registered_cases() {
  std::vector<AlgebraWorld> cases;
  for (const AlgebraSpec& spec : algebra_registry()) {
    for (int p : spec.world_sizes) {
      EXPECT_TRUE(spec.accepts(p))
          << spec.name << " rejects its own suggested world size " << p;
      cases.push_back({spec.name, p});
    }
  }
  return cases;
}

std::string case_name(const ::testing::TestParamInfo<AlgebraWorld>& info) {
  std::string name = info.param.algebra + "_p" +
                     std::to_string(info.param.p);
  for (char& c : name) {
    if (c == '.' || c == '-') c = '_';
  }
  return name;
}

class EngineParity : public ::testing::TestWithParam<AlgebraWorld> {};

TEST_P(EngineParity, MatchesSerialLossesAndEmbeddings) {
  const auto [algebra, p] = GetParam();
  const Graph g = test_graph(90, 12, 5, 42);
  GnnConfig config = GnnConfig::three_layer(12, 5, 8);
  config.learning_rate = 0.2;
  const int epochs = 4;

  const RunOutcome serial = run_serial(g, config, epochs);
  const RunOutcome dist = run_distributed(algebra, g, config, p, epochs);

  ASSERT_EQ(dist.losses.size(), serial.losses.size());
  for (int e = 0; e < epochs; ++e) {
    EXPECT_NEAR(dist.losses[static_cast<std::size_t>(e)],
                serial.losses[static_cast<std::size_t>(e)], kParityTol)
        << "epoch " << e;
  }
  EXPECT_LE(Matrix::max_abs_diff(dist.output, serial.output), kParityTol);
}

INSTANTIATE_TEST_SUITE_P(AllAlgebras, EngineParity,
                         ::testing::ValuesIn(all_registered_cases()),
                         case_name);

TEST(EngineParity, RegistryCoversAllPaperFamilies) {
  for (const char* name : {"1d", "1.5d-c2", "1.5d-c4", "2d", "3d"}) {
    EXPECT_NE(find_algebra(name), nullptr) << name;
  }
  EXPECT_EQ(find_algebra("nonexistent"), nullptr);
}

TEST(EngineParity, UnknownAlgebraNameThrows) {
  const Graph g = test_graph(40, 8, 3, 58);
  const DistProblem problem = DistProblem::prepare(g);
  const GnnConfig config = GnnConfig::three_layer(8, 3);
  EXPECT_THROW(run_world(2,
                         [&](Comm& world) {
                           make_dist_trainer("4d", problem, config, world,
                                             RunConfig{});
                         }),
               Error);
}

TEST(DistParity, UnevenBlockSizesStillMatch) {
  // n deliberately not divisible by P or the grid dimension.
  const Graph g = test_graph(101, 7, 3, 43);
  GnnConfig config = GnnConfig::three_layer(7, 3, 5);
  const RunOutcome serial = run_serial(g, config, 3);
  const RunOutcome d1 = run_distributed("1d", g, config, 6, 3);
  const RunOutcome d2 = run_distributed("2d", g, config, 9, 3);
  EXPECT_LE(Matrix::max_abs_diff(d1.output, serial.output), kParityTol);
  EXPECT_LE(Matrix::max_abs_diff(d2.output, serial.output), kParityTol);
}

TEST(DistParity, DirectedGraphMatchesAcrossAllFamilies) {
  // A directed (asymmetric) adjacency exercises the A-vs-A^T handling: the
  // forward pass multiplies by A^T, the backward by A, and the 2D/3D
  // algebras materialize A through distributed transposes.
  Rng rng(51);
  Graph g;
  g.name = "directed";
  g.adjacency = gcn_normalize(rmat(80, 80 * 5, rng), /*symmetrize=*/false);
  g.features = Matrix(80, 9);
  g.features.fill_uniform(rng, -1, 1);
  g.num_classes = 4;
  g.labels.resize(80);
  for (auto& label : g.labels) {
    label = static_cast<Index>(rng.next_below(4));
  }
  // {9, 6, 6, 4} narrows at layer 3 only. {9, 8, 6, 4} narrows at
  // layers 2 and 3 back to back, so each H W product is a broadcast
  // source that peers may still read while the next layer forms its
  // own: one buffer shared between them broke parity in every family.
  RunConfig halo;
  halo.halo = true;
  for (const std::vector<Index>& dims :
       {std::vector<Index>{9, 6, 6, 4}, std::vector<Index>{9, 8, 6, 4}}) {
    GnnConfig config;
    config.dims = dims;
    const RunOutcome serial = run_serial(g, config, 3);
    for (const RunConfig& mode : {RunConfig{}, halo}) {
      for (const auto& [algebra, p] :
           {std::pair<std::string, int>{"1d", 4},
            {"1.5d-c2", 8},
            {"2d", 9},
            {"3d", 8}}) {
        const RunOutcome dist =
            run_distributed(algebra, g, config, p, 3, mode);
        EXPECT_LE(Matrix::max_abs_diff(dist.output, serial.output),
                  kParityTol)
            << "algebra " << algebra << " P=" << p << " dims[1] "
            << dims[1] << (mode.halo ? " halo" : "");
      }
    }
  }
}

TEST(DistParity, MaskedLabelsMatchSerial) {
  Graph g = test_graph(72, 8, 3, 52);
  for (std::size_t v = 0; v < g.labels.size(); v += 3) g.labels[v] = -1;
  GnnConfig config = GnnConfig::three_layer(8, 3, 5);
  const RunOutcome serial = run_serial(g, config, 3);
  for (const auto& [algebra, p] : {std::pair<std::string, int>{"1d", 6},
                                   {"2d", 4},
                                   {"3d", 8}}) {
    const RunOutcome dist = run_distributed(algebra, g, config, p, 3);
    ASSERT_EQ(dist.losses.size(), serial.losses.size());
    for (std::size_t e = 0; e < serial.losses.size(); ++e) {
      EXPECT_NEAR(dist.losses[e], serial.losses[e], kParityTol);
    }
  }
}

TEST(DistParity, DeepNetworkMatchesOn3D) {
  const Graph g = test_graph(100, 6, 3, 53);
  GnnConfig config;
  config.dims = {6, 10, 10, 10, 10, 3};  // 5 layers
  const RunOutcome serial = run_serial(g, config, 2);
  const RunOutcome dist = run_distributed("3d", g, config, 27, 2);
  EXPECT_LE(Matrix::max_abs_diff(dist.output, serial.output), kParityTol);
}

TEST(DistParity, DeeperThanChannelRingMatchesSerial) {
  // Twenty layers post more ops per epoch on each communicator than it
  // has channels (16), so every family must complete each layer's ops
  // before the ring wraps around to them. Every weight-gradient
  // reduction completes within its layer; a hang here, not a mismatch,
  // would be the failure mode.
  const Graph g = test_graph(64, 6, 3, 54);
  GnnConfig config;
  config.dims.assign(21, 6);
  config.dims.back() = 3;
  const RunOutcome serial = run_serial(g, config, 2);
  for (const auto& [algebra, p] :
       {std::pair<std::string, int>{"1d", 4},
        {"1.5d-c2", 4},
        {"2d", 4},
        {"3d", 8}}) {
    const RunOutcome dist = run_distributed(algebra, g, config, p, 2);
    EXPECT_LE(Matrix::max_abs_diff(dist.output, serial.output), kParityTol)
        << algebra;
    for (std::size_t e = 0; e < serial.losses.size(); ++e) {
      EXPECT_NEAR(dist.losses[e], serial.losses[e], kParityTol) << algebra;
    }
  }
}

TEST(DistParity, TwoDOnAnEightByEightGridMatchesSerial) {
  // At q = 8 the process column carries 16 SUMMA panels in one backward
  // layer, a whole channel ring's worth. Every gradient reduction
  // completes within its layer, so no op is pending across layers for
  // those panels to collide with.
  const Graph g = test_graph(128, 8, 4, 55);
  const GnnConfig config = GnnConfig::three_layer(8, 4, 8);
  const RunOutcome serial = run_serial(g, config, 2);
  const RunOutcome dist = run_distributed("2d", g, config, 64, 2);
  EXPECT_LE(Matrix::max_abs_diff(dist.output, serial.output), kParityTol);
  for (std::size_t e = 0; e < serial.losses.size(); ++e) {
    EXPECT_NEAR(dist.losses[e], serial.losses[e], kParityTol);
  }
}

TEST(DistParity, ConfigGraphMismatchThrowsInWorld) {
  const Graph g = test_graph(40, 8, 3, 54);
  GnnConfig bad = GnnConfig::three_layer(9, 3);  // wrong input width
  const DistProblem problem = DistProblem::prepare(g);
  EXPECT_THROW(run_world(4,
                         [&](Comm& world) {
                           make_dist_trainer("2d", problem, bad, world,
                                             RunConfig{});
                         }),
               Error);
}

TEST(DistParity, ThreeDRejectsNonCubeWorld) {
  const Graph g = test_graph(40, 8, 3, 55);
  const DistProblem problem = DistProblem::prepare(g);
  const GnnConfig config = GnnConfig::three_layer(8, 3);
  EXPECT_THROW(run_world(4,
                         [&](Comm& world) {
                           make_dist_trainer("3d", problem, config, world,
                                             RunConfig{});
                         }),
               Error);
}

TEST(DistParity, TwoDRejectsNonSquareWorld) {
  const Graph g = test_graph(40, 8, 3, 55);
  const DistProblem problem = DistProblem::prepare(g);
  const GnnConfig config = GnnConfig::three_layer(8, 3);
  EXPECT_THROW(run_world(6,
                         [&](Comm& world) {
                           make_dist_trainer("2d", problem, config, world,
                                             RunConfig{});
                         }),
               Error);
}

TEST(DistParity, SplitThreeDWithLayersOtherThanQMatchesSerial) {
  // The registry builds l = 1 ("2d") and l = q ("3d"); the transpose's
  // piece rounds and the fine slabs run modulo l, checked here on
  // q x q x l grids with l outside {1, q} and uneven blocks.
  const Graph g = test_graph(97, 8, 4, 58);
  const GnnConfig config = GnnConfig::three_layer(8, 4, 6);
  const DistProblem problem = DistProblem::prepare(g);
  const RunOutcome serial = run_serial(g, config, 2);
  for (const auto& [p, layers] : {std::pair<int, int>{12, 3}, {18, 2}}) {
    RunOutcome dist;
    std::mutex mutex;
    run_world(p, [&](Comm& world) {
      DistEngine trainer(problem, config,
                         std::make_unique<Algebra3D>(
                             problem, world, layers, RunConfig{},
                             MachineModel::summit()));
      std::vector<Real> losses;
      for (int e = 0; e < 2; ++e) {
        losses.push_back(trainer.train_epoch().loss);
      }
      Matrix out = trainer.gather_output();
      if (world.rank() == 0) {
        std::lock_guard<std::mutex> lock(mutex);
        dist.losses = std::move(losses);
        dist.output = std::move(out);
      }
    });
    EXPECT_LE(Matrix::max_abs_diff(dist.output, serial.output), kParityTol)
        << "p=" << p << " l=" << layers;
    for (std::size_t e = 0; e < serial.losses.size(); ++e) {
      EXPECT_NEAR(dist.losses[e], serial.losses[e], kParityTol)
          << "p=" << p << " l=" << layers;
    }
  }
}

TEST(DistParity, FifteenDRejectsBadReplication) {
  const Graph g = test_graph(40, 8, 3, 56);
  const DistProblem problem = DistProblem::prepare(g);
  const GnnConfig config = GnnConfig::three_layer(8, 3);
  EXPECT_THROW(run_world(6,
                         [&](Comm& world) {
                           Algebra15D algebra(problem, world, 4, RunConfig{},
                                              MachineModel::summit());
                         }),
               Error);
}

TEST(DistMeter, FifteenDDenseTrafficFallsWithReplication) {
  // Section IV-B: c-fold replication cuts the broadcast volume ~1/c once
  // P >> c^2 (the team-reduction terms scale with c/P). The closed form
  // cost_15d predicts a ~0.34x ratio for c=4 at P=64. The claim is about
  // the *broadcast* algorithm's volumes (halo-mode volumes are covered by
  // tests/halo_test.cpp).
  const Graph g = test_graph(256, 16, 4, 57);
  GnnConfig config;
  config.dims = {16, 16, 16, 4};
  const DistProblem problem = DistProblem::prepare(g);
  const auto measure = [&](int c) {
    double words = 0;
    run_world(64, [&](Comm& world) {
      DistEngine trainer(problem, config,
                         std::make_unique<Algebra15D>(
                             problem, world, c, RunConfig{},
                             MachineModel::summit()));
      trainer.train_epoch();
      const EpochStats s = trainer.reduce_epoch_stats();
      if (world.rank() == 0) words = s.comm.words(CommCategory::kDense);
    });
    return words;
  };
  const double words_c1 = measure(1);
  const double words_c4 = measure(4);
  EXPECT_LT(words_c4, 0.5 * words_c1);
}

TEST(DistParity, FeatureDimNarrowerThanGridMatchesSerial) {
  // A feature dimension smaller than the grid dimension gives some process
  // columns the full slice and others an empty one — the engine's
  // rows-whole branching must stay uniform across ranks (a per-rank slice
  // test deadlocks the gather collectives here).
  const Graph g = test_graph(48, 6, 1, 63);
  for (const std::vector<Index>& dims :
       {std::vector<Index>{6, 4, 1}, {6, 1, 4, 1}}) {
    GnnConfig config;
    config.dims = dims;
    const RunOutcome serial = run_serial(g, config, 2);
    for (const auto& [algebra, p] : {std::pair<std::string, int>{"2d", 4},
                                     {"3d", 8}}) {
      const RunOutcome dist = run_distributed(algebra, g, config, p, 2);
      EXPECT_LE(Matrix::max_abs_diff(dist.output, serial.output), kParityTol)
          << "algebra " << algebra;
    }
  }
}

TEST(DistParity, TwoLayerNetworkMatches) {
  const Graph g = test_graph(64, 10, 4, 44);
  GnnConfig config;
  config.dims = {10, 4};
  const RunOutcome serial = run_serial(g, config, 3);
  const RunOutcome d2 = run_distributed("2d", g, config, 4, 3);
  EXPECT_LE(Matrix::max_abs_diff(d2.output, serial.output), kParityTol);
}

// Optimizer state (momentum, Adam moments) is replicated alongside W, so
// distributed parity must hold for every optimizer kind.
class OptimizerParity : public ::testing::TestWithParam<OptimizerKind> {};

TEST_P(OptimizerParity, DistributedMatchesSerial) {
  const Graph g = test_graph(80, 10, 4, 60);
  GnnConfig config = GnnConfig::three_layer(10, 4, 8);
  config.learning_rate = 0.05;
  config.optimizer.kind = GetParam();
  const int epochs = 5;  // enough steps for momentum/Adam state to matter

  const RunOutcome serial = run_serial(g, config, epochs);
  for (const auto& [algebra, p] : {std::pair<std::string, int>{"1d", 4},
                                   {"2d", 9},
                                   {"3d", 8},
                                   {"1.5d-c2", 8}}) {
    const RunOutcome dist = run_distributed(algebra, g, config, p, epochs);
    for (std::size_t e = 0; e < serial.losses.size(); ++e) {
      EXPECT_NEAR(dist.losses[e], serial.losses[e], kParityTol)
          << "algebra " << algebra << " epoch " << e;
    }
    EXPECT_LE(Matrix::max_abs_diff(dist.output, serial.output), kParityTol);
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, OptimizerParity,
                         ::testing::Values(OptimizerKind::kSgd,
                                           OptimizerKind::kMomentum,
                                           OptimizerKind::kAdam));

// ---- Metered traffic vs the Section IV closed forms ----

TEST(DistMeter, OneDDenseWordsMatchClosedForm) {
  // A broadcast-path (Algorithm 1) bound.
  const Index n = 96;
  const Index f = 8;  // uniform width keeps the formula exact
  const Graph g = test_graph(n, f, 4, 45);
  GnnConfig config;
  config.dims = {f, f, f, 4};
  const int p = 4;
  const int L = 3;

  const RunOutcome dist = run_distributed("1d", g, config, p, 1);
  // The form counts layer 1's broadcasts every epoch; the engine pays
  // them once, at set-up, so the metered side adds the set-up's words.
  const double dense_words = dist.stats.comm.words(CommCategory::kDense) +
                             dist.setup.comm.words(CommCategory::kDense);

  // Per layer and per rank: broadcasts deliver ~n*f (edgecut bound with the
  // trailing f_out=4 layer slightly smaller), reduce-scatter ~n*f*(p-1)/p,
  // all-reduce ~2*f^2*(p-1)/p. The closed form L*(edgecut*f + n*f + f^2)
  // with edgecut = n(p-1)/p should agree within ~35% (layer-width taper,
  // layer 1's backward reduce-scatter that the identity
  // Y^1 = (T^1)^T G^1 leaves out, and the meter charging the root its own
  // block).
  const CostInputs in = CostInputs::from_random(
      static_cast<double>(n), 0.0, static_cast<double>(f), p, L);
  const double predicted = cost_1d(in).words;
  EXPECT_GT(dense_words, 0.5 * predicted);
  EXPECT_LT(dense_words, 1.6 * predicted);
}

TEST(DistMeter, TwoDDenseWordsScaleWithSqrtP) {
  const Graph g = test_graph(144, 16, 4, 46);
  GnnConfig config;
  config.dims = {16, 16, 16, 4};

  const RunOutcome p4 = run_distributed("2d", g, config, 4, 1);
  const RunOutcome p16 = run_distributed("2d", g, config, 16, 1);
  const double w4 = p4.stats.comm.words(CommCategory::kDense);
  const double w16 = p16.stats.comm.words(CommCategory::kDense);
  // Section IV-C: dense words per process fall by ~sqrt(4) = 2 when P
  // quadruples. Allow generous slack for the f^2 replication terms and
  // uneven blocks at this small scale.
  EXPECT_GT(w4 / w16, 1.4);
  EXPECT_LT(w4 / w16, 3.0);
}

TEST(DistMeter, TwoDSparseTrafficPresentAndTransposeCharged) {
  const Graph g = test_graph(100, 8, 4, 47);
  GnnConfig config = GnnConfig::three_layer(8, 4, 8);
  const RunOutcome r = run_distributed("2d", g, config, 9, 1);
  EXPECT_GT(r.stats.comm.words(CommCategory::kSparse), 0.0);
  EXPECT_GT(r.stats.comm.words(CommCategory::kTranspose), 0.0);
  // 1D has no sparse movement at all (A never travels in Algorithm 1).
  const RunOutcome r1 = run_distributed("1d", g, config, 4, 1);
  EXPECT_DOUBLE_EQ(r1.stats.comm.words(CommCategory::kSparse), 0.0);
}

TEST(DistMeter, SingleProcessMovesNoData) {
  const Graph g = test_graph(64, 6, 3, 48);
  GnnConfig config = GnnConfig::three_layer(6, 3, 4);
  for (const char* algebra : {"1d", "2d"}) {
    const RunOutcome r = run_distributed(algebra, g, config, 1, 1);
    EXPECT_DOUBLE_EQ(r.stats.comm.words(CommCategory::kDense), 0.0);
    EXPECT_DOUBLE_EQ(r.stats.comm.words(CommCategory::kSparse), 0.0);
  }
}

TEST(DistParity, GatherOutputIdenticalOnEveryRank) {
  // gather_output is a collective returning the full H^L; every rank must
  // observe bitwise the same matrix.
  const Graph g = test_graph(60, 6, 3, 61);
  const GnnConfig config = GnnConfig::three_layer(6, 3, 5);
  const DistProblem problem = DistProblem::prepare(g);
  run_world(9, [&](Comm& world) {
    const auto trainer =
        make_dist_trainer("2d", problem, config, world, RunConfig{});
    trainer->train_epoch();
    Matrix mine = trainer->gather_output();
    // Compare against rank 0's copy via a broadcast.
    Matrix reference = mine;
    world.broadcast(reference.flat(), 0, CommCategory::kControl);
    ASSERT_LE(Matrix::max_abs_diff(mine, reference), 0.0);
  });
}

TEST(DistParity, RepeatedEpochsKeepWeightsReplicated) {
  // After several epochs, every rank's replicated weights must agree
  // exactly (any drift would indicate a non-deterministic reduction).
  const Graph g = test_graph(70, 8, 4, 62);
  GnnConfig config = GnnConfig::three_layer(8, 4, 6);
  config.optimizer.kind = OptimizerKind::kAdam;
  const DistProblem problem = DistProblem::prepare(g);
  run_world(8, [&](Comm& world) {
    const auto trainer =
        make_dist_trainer("3d", problem, config, world, RunConfig{});
    for (int e = 0; e < 4; ++e) trainer->train_epoch();
    for (const Matrix& w : trainer->weights()) {
      Matrix reference = w;
      world.broadcast(reference.flat(), 0, CommCategory::kControl);
      ASSERT_LE(Matrix::max_abs_diff(w, reference), 0.0);
    }
  });
}

TEST(DistStats, WorkMeterSeesSpmmOnAllRanks) {
  const Graph g = test_graph(80, 8, 4, 49);
  GnnConfig config = GnnConfig::three_layer(8, 4, 8);
  const RunOutcome r = run_distributed("2d", g, config, 4, 1);
  EXPECT_GT(r.stats.work.spmm_flops(), 0.0);
  EXPECT_GT(r.stats.work.gemm_flops(), 0.0);
  EXPECT_GT(r.stats.work.total_seconds(), 0.0);
}

// Randomized differential sweep: random graph shape x random architecture
// x every algebra family, always compared against the serial oracle.
class RandomizedDifferential : public ::testing::TestWithParam<int> {};

TEST_P(RandomizedDifferential, AllFamiliesMatchSerial) {
  const int trial = GetParam();
  Rng rng(1000 + static_cast<std::uint64_t>(trial));
  const Index n = 48 + static_cast<Index>(rng.next_below(80));
  const Index f = 4 + static_cast<Index>(rng.next_below(10));
  const Index classes = 2 + static_cast<Index>(rng.next_below(5));
  const Index hidden = 3 + static_cast<Index>(rng.next_below(12));
  const Index layers = 2 + static_cast<Index>(rng.next_below(3));
  const bool directed = rng.next_below(2) == 0;

  Graph g;
  g.name = "fuzz";
  g.adjacency = gcn_normalize(
      rmat(n, n * (3 + static_cast<Index>(rng.next_below(6))), rng),
      !directed);
  g.features = Matrix(n, f);
  g.features.fill_uniform(rng, -1, 1);
  g.num_classes = classes;
  g.labels.resize(static_cast<std::size_t>(n));
  for (auto& label : g.labels) {
    // ~1/8 of vertices unlabeled.
    label = rng.next_below(8) == 0
                ? Index{-1}
                : static_cast<Index>(rng.next_below(
                      static_cast<std::uint64_t>(classes)));
  }

  GnnConfig config;
  config.dims.push_back(f);
  for (Index l = 0; l + 1 < layers; ++l) config.dims.push_back(hidden);
  config.dims.push_back(classes);
  config.seed = 7 + static_cast<std::uint64_t>(trial);

  const RunOutcome serial = run_serial(g, config, 2);
  for (const auto& [algebra, p] : {std::pair<std::string, int>{"1d", 5},
                                   {"1.5d-c2", 6},
                                   {"2d", 16},
                                   {"3d", 8}}) {
    const RunOutcome dist = run_distributed(algebra, g, config, p, 2);
    EXPECT_LE(Matrix::max_abs_diff(dist.output, serial.output), kParityTol)
        << "trial " << trial << " algebra " << algebra;
    for (std::size_t e = 0; e < serial.losses.size(); ++e) {
      EXPECT_NEAR(dist.losses[e], serial.losses[e], kParityTol)
          << "trial " << trial << " algebra " << algebra;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Trials, RandomizedDifferential,
                         ::testing::Range(0, 8));

// ---- The overlapped schedule ----
// Every world size runs one schedule: the SUMMA-style loops double-buffer
// their stage broadcasts, the 1.5D replica reduction drains behind the
// Z = T W GEMM, and the weight-gradient reductions fly behind the backward
// recurrence. Which words move is fixed by the algorithm, not by that
// schedule, so MeterPin pins every category's charges as literals.

struct MeteredRun {
  std::vector<Real> losses;
  std::vector<std::vector<double>> epoch_meters;  // rank 0, per epoch
  std::vector<std::vector<double>> max_meters;    // max over ranks, per epoch
  std::vector<double> setup_meter;      // rank 0, across make_dist_trainer
  std::vector<double> max_setup_meter;  // the same, max over ranks
  // rank 0, per epoch: {regions, serialized s, overlapped s}
  std::vector<std::array<double, 3>> epoch_overlap;
  double overlap_regions = 0;
  double overlap_saved = 0;
  double modeled = 0;          // rank 0, final epoch, serialized
  double modeled_overlap = 0;  // rank 0, final epoch, overlap-folded
};

MeteredRun run_metered(const std::string& algebra,
                       const DistProblem& problem, const GnnConfig& config,
                       int p, int epochs, const RunConfig& mode = {}) {
  MeteredRun run;
  std::mutex mutex;
  run_world(p, [&](Comm& world) {
    const auto meter_row = [](const CostMeter& m) {
      std::vector<double> row;
      for (std::size_t c = 0; c < CostMeter::kNumCategories; ++c) {
        const auto cat = static_cast<CommCategory>(c);
        row.push_back(m.latency_units(cat));
        row.push_back(m.words(cat));
      }
      return row;
    };
    EpochStats setup;
    auto trainer = build_metered(world, setup.comm, [&] {
      return make_dist_trainer(algebra, problem, config, world, mode);
    });
    std::vector<double> setup_row = meter_row(setup.comm);
    std::vector<double> max_setup_row =
        meter_row(EpochStats::reduce_max(setup, world).comm);
    std::vector<Real> losses;
    std::vector<std::vector<double>> meters;
    std::vector<std::vector<double>> max_meters;
    std::vector<std::array<double, 3>> overlap;
    for (int e = 0; e < epochs; ++e) {
      losses.push_back(trainer->train_epoch().loss);
      const CostMeter& m = trainer->last_epoch_stats().comm;
      meters.push_back(meter_row(m));
      overlap.push_back({m.overlap_regions(), m.overlap_serialized_seconds(),
                         m.overlap_overlapped_seconds()});
      // Collective, outside the next epoch's meter window.
      max_meters.push_back(meter_row(trainer->reduce_epoch_stats().comm));
    }
    if (world.rank() == 0) {
      std::lock_guard<std::mutex> lock(mutex);
      const EpochStats& stats = trainer->last_epoch_stats();
      run.losses = std::move(losses);
      run.epoch_meters = std::move(meters);
      run.max_meters = std::move(max_meters);
      run.setup_meter = std::move(setup_row);
      run.max_setup_meter = std::move(max_setup_row);
      run.epoch_overlap = std::move(overlap);
      run.overlap_regions = stats.comm.overlap_regions();
      run.overlap_saved = stats.comm.overlap_saved_seconds();
      run.modeled = stats.modeled_seconds(MachineModel::summit());
      run.modeled_overlap =
          stats.modeled_seconds_overlap(MachineModel::summit());
    }
  });
  return run;
}

/// One pinned configuration. `parts` > 0 selects the halo exchange on a
/// greedy-bfs partition of the community graph into `parts` row blocks;
/// 0 selects the identity layout of the R-MAT graph.
struct MeterPin {
  std::string algebra;
  int p = 0;
  int parts = 0;
  /// Rank 0's {latency units, words} per CommCategory, in enum order
  /// (dense, sparse, trpose, halo, compressed, control). Each of the three
  /// epochs charges exactly these values: the 2D/3D families replay the
  /// sparse and transpose charges of the blocks they receive at
  /// construction.
  std::array<double, 2 * CostMeter::kNumCategories> meter;
  /// The same slots maximized over ranks (reduce_epoch_stats). Rank 0 is
  /// grid rank (0, 0), whose 2D transpose is a self-route that charges
  /// nothing; the busiest rank's transpose words are pinned here.
  std::array<double, 2 * CostMeter::kNumCategories> max_meter;
  /// Rank 0's set-up, the meter delta across make_dist_trainer: layer 1's
  /// aggregate T^1 = A^T X (the f_0-wide forward SpMM, charged once), plus
  /// the halo plan's one-time kControl traffic.
  std::array<double, 2 * CostMeter::kNumCategories> setup;
  /// The set-up maximized over ranks.
  std::array<double, 2 * CostMeter::kNumCategories> max_setup;
};

// Per family, each epoch charges what it did before layer 1 aggregated
// once, minus two terms: the set-up's forward aggregate (pinned in
// `setup`) and layer 1's f_1-wide backward SpMM U = A G^1 (its
// reduce-scatter and team broadcast, or its SUMMA stages and fiber
// reduce-scatter), which the identity Y^1 = (T^1)^T G^1 leaves out. The
// 2D/3D dense charges also reflect Z^1 = T^1 W^1's process-row
// reduce-scatter of f_1-wide terms (rows * f_1 * (q-1)/q words and
// ceil(lg q) latency), which replaced broadcasting T^1's panels (rows *
// f_0 words and q * ceil(lg q) latency); later layers keep the panel
// broadcasts. Layer 3 of the pinned model {10, 8, 8, 4} narrows, so it
// forms H^2 W^3 first (a local GEMM for 1D/1.5D; for 2D/3D the
// reduce-scatter of Z^1's form, rows * 4 * (q-1)/q words and ceil(lg q)
// latency, in place of the partial SUMMA's rows * 8 words and
// q * ceil(lg q)) and aggregates 4 columns instead of 8. The dense words
// fall by 4 columns of each layer-3 charge: 1D's four 24-row stages
// (384), 1.5D's stripe stages and team all-reduce (384 at c = 2, P = 4;
// 288 at P = 8; 576 at c = 4, whose one-member slice stages charge
// nothing), 2D's panels plus the replaced partial SUMMA (480 at P = 4,
// 266.75 on rank 0 at P = 9) and 3D's panels, fiber reduce-scatter and
// partial SUMMA (288). The halo words fall to (8 + 4) / (8 + 8) of the
// rows each rank receives. 1D/1.5D latency is unchanged; 2D/3D lose
// (q - 1) * ceil(lg q) units.
std::vector<MeterPin> meter_pins() {
  return {
      {"1d", 4, 0, {32, 2280, 0, 0, 0, 0, 0, 0, 0, 0, 4, 3},
       {32, 2280, 0, 0, 0, 0, 0, 0, 0, 0, 4, 3},
       {8, 960, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
       {8, 960, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"1.5d-c2", 4, 0, {16, 2192, 0, 0, 0, 0, 0, 0, 0, 0, 4, 3},
       {16, 2192, 0, 0, 0, 0, 0, 0, 0, 0, 4, 3},
       {3, 960, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
       {3, 960, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"1.5d-c2", 8, 0, {30, 1848, 0, 0, 0, 0, 0, 0, 0, 0, 6, 3.5},
       {30, 1848, 0, 0, 0, 0, 0, 0, 0, 0, 6, 3.5},
       {6, 720, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
       {6, 720, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"1.5d-c4", 4, 0, {12, 2880, 0, 0, 0, 0, 0, 0, 0, 0, 4, 3},
       {12, 2880, 0, 0, 0, 0, 0, 0, 0, 0, 4, 3},
       {4, 1440, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
       {4, 1440, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"2d", 4, 0, {25, 2576, 32, 3568, 0, 0, 0, 0, 0, 0, 4, 3},
       {25, 2576, 32, 3792, 8, 840, 0, 0, 0, 0, 4, 3},
       {2, 480, 8, 892, 0, 0, 0, 0, 0, 0, 0, 0},
       {2, 480, 8, 948, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"2d", 9, 0, {60, 1855.75, 96, 2624, 0, 0, 0, 0, 0, 0, 8, 3.5},
       {60, 2118.5, 96, 2800, 8, 468, 0, 0, 0, 0, 8, 3.5},
       {6, 288, 24, 656, 0, 0, 0, 0, 0, 0, 0, 0},
       {6, 384, 24, 700, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"3d", 8, 0, {35, 1708, 32, 1672, 8, 220, 0, 0, 0, 0, 6, 3.5},
       {35, 1708, 32, 2328, 16, 600, 0, 0, 0, 0, 6, 3.5},
       {3, 360, 8, 418, 0, 0, 0, 0, 0, 0, 0, 0},
       {3, 360, 8, 582, 0, 0, 0, 0, 0, 0, 0, 0}},
      {"1d", 4, 4, {16, 2532, 0, 0, 0, 0, 6, 1080, 0, 0, 4, 3},
       {16, 2532, 0, 0, 0, 0, 6, 1584, 0, 0, 4, 3},
       {0, 0, 0, 0, 0, 0, 3, 900, 0, 0, 7, 124.5},
       {0, 0, 0, 0, 0, 0, 3, 1320, 0, 0, 7, 124.5}},
      {"1.5d-c2", 8, 4, {22, 2922, 0, 0, 0, 0, 6, 312, 0, 0, 6, 3.5},
       {22, 2994, 0, 0, 0, 0, 6, 1116, 0, 0, 6, 3.5},
       {2, 650, 0, 0, 0, 0, 3, 260, 0, 0, 7, 124.5},
       {2, 650, 0, 0, 0, 0, 3, 930, 0, 0, 7, 124.5}},
  };
}

Graph community_graph(Index n, Index communities, Index f, Index classes,
                      std::uint64_t seed) {
  Rng rng(seed);
  Graph g;
  g.name = "dist-test-communities";
  g.adjacency = gcn_normalize(
      planted_partition(n, communities, 10.0, 1.0, rng,
                        /*hub_fraction=*/0.0),
      /*symmetrize=*/true);
  g.features = Matrix(n, f);
  g.features.fill_uniform(rng, -1, 1);
  g.num_classes = classes;
  g.labels.resize(static_cast<std::size_t>(n));
  for (auto& label : g.labels) {
    label = static_cast<Index>(
        rng.next_below(static_cast<std::uint64_t>(classes)));
  }
  return g;
}

TEST(MeterPin, ExactChargesMatchRecordedValues) {
  // Every exact-mode charge is a whole number of bytes over the 8-byte
  // word, so the literals are exact doubles and compare with ==. The
  // per-epoch literals were first recorded when a synchronous schedule
  // still ran beside the overlapped one, and both charged them bit for
  // bit; they were re-recorded, with the set-up pins, when layer 1's
  // aggregate moved to set-up (see meter_pins).
  const Graph rmat_graph = test_graph(96, 10, 4, 77);
  const DistProblem identity = DistProblem::prepare(rmat_graph);
  const GnnConfig config = GnnConfig::three_layer(10, 4, 8);
  const Graph communities = community_graph(252, 12, 10, 4, 97);
  GnnConfig halo_config = config;
  halo_config.learning_rate = 0.1;

  for (const MeterPin& pin : meter_pins()) {
    const bool halo = pin.parts > 0;
    RunConfig mode;
    mode.halo = halo;
    const DistProblem partitioned =
        halo ? DistProblem::prepare(communities, pin.parts, "greedy-bfs")
             : DistProblem();
    const MeteredRun run = run_metered(
        pin.algebra, halo ? partitioned : identity,
        halo ? halo_config : config, pin.p, 3, mode);
    const std::string label = pin.algebra + " p=" + std::to_string(pin.p) +
                              (halo ? " halo" : "");
    ASSERT_EQ(run.epoch_meters.size(), 3u) << label;
    ASSERT_EQ(run.max_meters.size(), 3u) << label;
    const auto slot = [](std::size_t i) {
      return std::string(
                 comm_category_name(static_cast<CommCategory>(i / 2))) +
             (i % 2 == 0 ? " latency" : " words");
    };
    for (std::size_t e = 0; e < run.epoch_meters.size(); ++e) {
      ASSERT_EQ(run.epoch_meters[e].size(), pin.meter.size()) << label;
      ASSERT_EQ(run.max_meters[e].size(), pin.max_meter.size()) << label;
      for (std::size_t i = 0; i < pin.meter.size(); ++i) {
        EXPECT_EQ(run.epoch_meters[e][i], pin.meter[i])
            << label << " epoch " << e << " rank 0 " << slot(i);
        EXPECT_EQ(run.max_meters[e][i], pin.max_meter[i])
            << label << " epoch " << e << " max " << slot(i);
      }
    }
    ASSERT_EQ(run.setup_meter.size(), pin.setup.size()) << label;
    ASSERT_EQ(run.max_setup_meter.size(), pin.max_setup.size()) << label;
    for (std::size_t i = 0; i < pin.setup.size(); ++i) {
      EXPECT_EQ(run.setup_meter[i], pin.setup[i])
          << label << " set-up rank 0 " << slot(i);
      EXPECT_EQ(run.max_setup_meter[i], pin.max_setup[i])
          << label << " set-up max " << slot(i);
    }
  }
}

TEST(Overlap, EveryAlgebraRecordsRegions) {
  const Graph g = test_graph(96, 10, 4, 77);
  const DistProblem problem = DistProblem::prepare(g);
  const GnnConfig config = GnnConfig::three_layer(10, 4, 8);
  for (const MeterPin& pin : meter_pins()) {
    if (pin.parts > 0) continue;  // halo regions: tests/halo_test.cpp
    const MeteredRun run =
        run_metered(pin.algebra, problem, config, pin.p, 3);
    const std::string label = pin.algebra + " p=" + std::to_string(pin.p);
    // p > 1 SUMMA-style loops record at least one region per layer.
    EXPECT_GT(run.overlap_regions, 0.0) << label;
    EXPECT_GE(run.overlap_saved, 0.0) << label;
  }
}

TEST(Overlap, SingleRankRegionsSaveNothing) {
  // A single rank runs the same overlapped loops as larger worlds, each
  // with one stage. Every region pairs zero communication with its
  // compute, so the overlap-folded modeled time equals the serialized one
  // bit for bit.
  const Graph g = test_graph(64, 6, 3, 48);
  const DistProblem problem = DistProblem::prepare(g);
  const GnnConfig config = GnnConfig::three_layer(6, 3, 4);
  for (const char* algebra : {"1d", "2d", "3d"}) {
    const MeteredRun run =
        run_metered(algebra, problem, config, 1, 2);
    const std::string label = algebra;
    EXPECT_GT(run.overlap_regions, 0.0) << label;
    EXPECT_EQ(run.overlap_saved, 0.0) << label;
    EXPECT_EQ(run.modeled_overlap, run.modeled) << label;
  }
}

TEST(Overlap, ReducedSavingIsTheLargestRankSaving) {
  // Rank 0 serialized 4 s and overlapped 1 s (a 3 s saving), rank 1 5 s
  // and 4.5 s (0.5 s). The reduced saving is rank 0's 3 s; maxing the two
  // totals separately would read 5 - 4.5 = 0.5 s, which pairs rank 1's
  // serialized seconds with its own overlapped ones and drops rank 0's.
  run_world(2, [](Comm& world) {
    EpochStats mine;
    if (world.rank() == 0) {
      mine.comm.restore_overlap_totals(4, 1, 1);
    } else {
      mine.comm.restore_overlap_totals(5, 4.5, 1);
    }
    const EpochStats reduced = EpochStats::reduce_max(mine, world);
    EXPECT_EQ(reduced.comm.overlap_serialized_seconds(), 5.0);
    EXPECT_EQ(reduced.comm.overlap_saved_seconds(), 3.0);
    EXPECT_EQ(reduced.comm.overlap_regions(), 1.0);
  });
}

TEST(EpochCache, CachedEpochsReplayChargesExactly) {
  // The stage blocks and A arrive at construction; every epoch replays
  // their charges and must charge, bit for bit, what the per-epoch
  // receipt (every call broadcasting its blocks, every epoch transposing
  // A and back) charged, recorded from that path: rank 0's {latency
  // units, words} per category in enum order, and its overlap totals
  // {regions, serialized s, overlapped s}. Each epoch's window sums from
  // zero, so every epoch reads the same bits of both. Re-recorded when
  // layer 3 of {8, 6, 6, 3} began aggregating H^2 W^3 at 3 columns: the
  // dense words fell by 340 (2D: 160 of SpMM panels, and 180 where a
  // 60-word reduce-scatter replaced the 240-word partial SUMMA) and 210
  // (3D), and each lost one latency unit and two overlap regions.
  struct Pin {
    std::string algebra;
    int p;
    std::array<double, 2 * CostMeter::kNumCategories> meter;
    std::array<double, 3> overlap;
  };
  const std::vector<Pin> pins = {
      {"2d", 4, {25, 1562, 32, 2864, 0, 0, 0, 0, 0, 0, 4, 3},
       {0x1.4p+3, 0x1.664b7ac085262p-12, 0x1.65b8596915f5bp-12}},
      {"3d", 8, {35, 1017.5, 32, 1656, 8, 180, 0, 0, 0, 0, 6, 3.5},
       {0x1.4p+3, 0x1.65ef6c41c28d8p-12, 0x1.656493026594fp-12}},
  };
  const Graph g = test_graph(80, 8, 3, 78);
  const DistProblem problem = DistProblem::prepare(g);
  GnnConfig config = GnnConfig::three_layer(8, 3, 6);
  for (const Pin& pin : pins) {
    const MeteredRun run = run_metered(pin.algebra, problem, config, pin.p, 3);
    ASSERT_EQ(run.epoch_meters.size(), 3u);
    for (std::size_t e = 0; e < run.epoch_meters.size(); ++e) {
      ASSERT_EQ(run.epoch_meters[e].size(), pin.meter.size());
      for (std::size_t i = 0; i < pin.meter.size(); ++i) {
        EXPECT_EQ(run.epoch_meters[e][i], pin.meter[i])
            << pin.algebra << " epoch " << e << " slot " << i;
      }
      for (std::size_t k = 0; k < 3; ++k) {
        EXPECT_EQ(run.epoch_overlap[e][k], pin.overlap[k])
            << pin.algebra << " epoch " << e << " overlap " << k;
      }
    }
  }
}

TEST(DistStats, ProfilerCoversAllPhasesFor2D) {
  const Graph g = test_graph(81, 8, 4, 50);
  GnnConfig config = GnnConfig::three_layer(8, 4, 8);
  const RunOutcome r = run_distributed("2d", g, config, 9, 1);
  EXPECT_GT(r.stats.profiler.seconds(Phase::kSpmm), 0.0);
  EXPECT_GT(r.stats.profiler.seconds(Phase::kDenseComm), 0.0);
  EXPECT_GT(r.stats.profiler.seconds(Phase::kSparseComm), 0.0);
  EXPECT_GT(r.stats.profiler.seconds(Phase::kTranspose), 0.0);
  EXPECT_GT(r.stats.profiler.seconds(Phase::kMisc), 0.0);
}

}  // namespace
}  // namespace cagnet
