// Partition-aware layouts and the sparsity-aware halo exchange.
//
// The HaloParity suite is the contract of RunConfig::halo: for every
// rows-whole algebra, world size, and partitioner, the halo path must
// reproduce the broadcast path's losses, accuracy, weights, and embeddings
// *bitwise* while metering strictly less traffic. The exact
// words test pins the acceptance claim of Section IV-A.8: on a
// community-structured graph the 1D halo volume equals
// max_remote_rows_per_part * f exactly and beats the broadcast bound by a
// wide factor under the greedy-BFS partitioner. The serial-parity tests
// verify the partition/permutation contract end to end (relabel once,
// train permuted, un-permute on output).
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/algebra_registry.hpp"
#include "src/core/costmodel.hpp"
#include "src/core/dist15d.hpp"
#include "src/gnn/serial_trainer.hpp"
#include "src/graph/datasets.hpp"
#include "src/sparse/generate.hpp"
#include "src/util/parallel.hpp"

namespace cagnet {
namespace {

constexpr Real kParityTol = 1e-8;

/// Community-structured graph (no hubs): the regime where a locality
/// partitioner shrinks the halo.
Graph community_graph(Index n, Index communities, Index f, Index classes,
                      std::uint64_t seed, double intra = 10.0,
                      double inter = 1.0) {
  Rng rng(seed);
  Graph g;
  g.name = "halo-test";
  Coo coo = planted_partition(n, communities, intra, inter, rng,
                              /*hub_fraction=*/0.0);
  g.adjacency = gcn_normalize(std::move(coo), /*symmetrize=*/true);
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

struct HaloRun {
  std::vector<Real> losses;
  std::vector<Real> accuracies;
  std::vector<Matrix> weights;
  Matrix output;          // gathered, un-permuted
  EpochStats stats;       // max-reduced, final epoch
  EpochStats setup;       // max-reduced meter delta of make_dist_trainer
  /// Every rank's words and latency units per category, then its modeled
  /// overlap seconds: block (epoch + 1) * p + rank, epoch -1 the set-up.
  std::vector<double> rank_meters;
};

HaloRun run_trainer(const std::string& algebra, const DistProblem& problem,
                    const GnnConfig& config, int p, int epochs,
                    const RunConfig& mode) {
  constexpr std::size_t kCats = CostMeter::kNumCategories;
  constexpr std::size_t kBlock = 2 * kCats + 1;
  HaloRun run;
  run.rank_meters.resize(static_cast<std::size_t>((epochs + 1) * p) *
                         kBlock);
  std::mutex mutex;
  run_world(p, [&](Comm& world) {
    const auto record = [&](int epoch, const EpochStats& stats) {
      double* at = run.rank_meters.data() +
                   static_cast<std::size_t>((epoch + 1) * p + world.rank()) *
                       kBlock;
      for (std::size_t c = 0; c < kCats; ++c) {
        const auto cat = static_cast<CommCategory>(c);
        at[2 * c] = stats.comm.words(cat);
        at[2 * c + 1] = stats.comm.latency_units(cat);
      }
      at[2 * kCats] = stats.modeled_seconds_overlap(MachineModel::summit());
    };
    EpochStats setup;
    auto trainer = build_metered(world, setup.comm, [&] {
      return make_dist_trainer(algebra, problem, config, world, mode);
    });
    record(-1, setup);
    setup = EpochStats::reduce_max(setup, world);
    std::vector<Real> losses;
    std::vector<Real> accuracies;
    for (int e = 0; e < epochs; ++e) {
      const EpochResult r = trainer->train_epoch();
      losses.push_back(r.loss);
      accuracies.push_back(r.accuracy);
      record(e, trainer->last_epoch_stats());
    }
    const EpochStats reduced = trainer->reduce_epoch_stats();
    Matrix out = trainer->gather_output();
    if (world.rank() == 0) {
      std::lock_guard<std::mutex> lock(mutex);
      run.losses = std::move(losses);
      run.accuracies = std::move(accuracies);
      run.weights = trainer->weights();
      run.output = std::move(out);
      run.stats = reduced;
      run.setup = setup;
    }
  });
  return run;
}

/// The exact halo mode; RunConfig{} is the broadcast path it must match.
RunConfig halo_mode() {
  RunConfig run;
  run.halo = true;
  return run;
}

// ---- HaloParity: broadcast vs halo, bitwise, across the matrix of
// algebras x world sizes x partitioners ----

struct HaloCase {
  std::string algebra;
  int p = 0;
  int partition_parts = 0;  ///< parts the DistProblem is prepared for
};

std::vector<HaloCase> halo_cases() {
  // Partition parts aligned with the algebra's row-block count (P for 1D,
  // G = P/c for 1.5D) exercise the partition-aware boundaries; the final
  // 1.5D case deliberately misaligns them to cover the block_range
  // fallback on the permuted problem.
  return {
      {"1d", 4, 4},       {"1d", 7, 7},      {"1.5d-c2", 8, 4},
      {"1.5d-c4", 8, 2},  {"1.5d-c2", 4, 4},
  };
}

class HaloParity
    : public ::testing::TestWithParam<std::tuple<HaloCase, std::string>> {};

TEST_P(HaloParity, BitwiseMatchesBroadcastPath) {
  const auto [c, partitioner] = GetParam();
  const Graph g = community_graph(252, 12, 10, 4, 91);
  GnnConfig config = GnnConfig::three_layer(10, 4, 8);
  config.learning_rate = 0.1;
  const int epochs = 3;
  const DistProblem problem =
      DistProblem::prepare(g, c.partition_parts, partitioner);

  const HaloRun bcast =
      run_trainer(c.algebra, problem, config, c.p, epochs, RunConfig{});
  const HaloRun halo =
      run_trainer(c.algebra, problem, config, c.p, epochs, halo_mode());

  const std::string label =
      c.algebra + " p=" + std::to_string(c.p) + " " + partitioner;
  ASSERT_EQ(halo.losses.size(), bcast.losses.size()) << label;
  for (std::size_t e = 0; e < halo.losses.size(); ++e) {
    EXPECT_EQ(halo.losses[e], bcast.losses[e]) << label << " epoch " << e;
    EXPECT_EQ(halo.accuracies[e], bcast.accuracies[e])
        << label << " epoch " << e;
  }
  ASSERT_EQ(halo.weights.size(), bcast.weights.size()) << label;
  for (std::size_t l = 0; l < halo.weights.size(); ++l) {
    EXPECT_LE(Matrix::max_abs_diff(halo.weights[l], bcast.weights[l]),
              Real{0})
        << label << " weights layer " << l;
  }
  EXPECT_LE(Matrix::max_abs_diff(halo.output, bcast.output), Real{0})
      << label << " output";

  // The halo path moves its forward traffic as kHalo and strictly less
  // dense data; the broadcast path never charges kHalo.
  EXPECT_GT(halo.stats.comm.words(CommCategory::kHalo), 0.0) << label;
  EXPECT_DOUBLE_EQ(bcast.stats.comm.words(CommCategory::kHalo), 0.0)
      << label;
  EXPECT_LT(halo.stats.comm.words(CommCategory::kDense),
            bcast.stats.comm.words(CommCategory::kDense))
      << label;
  // The halo never moves more than the broadcasts; under a random
  // partition it can tie exactly (every remote row is touched).
  EXPECT_LE(halo.stats.comm.total_words(), bcast.stats.comm.total_words())
      << label;
}

std::string halo_case_name(
    const ::testing::TestParamInfo<std::tuple<HaloCase, std::string>>&
        info) {
  const auto& [c, partitioner] = info.param;
  std::string name = c.algebra + "_p" + std::to_string(c.p) + "_parts" +
                     std::to_string(c.partition_parts) + "_" + partitioner;
  for (char& ch : name) {
    if (ch == '.' || ch == '-') ch = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllCases, HaloParity,
    ::testing::Combine(::testing::ValuesIn(halo_cases()),
                       ::testing::Values("block", "random", "greedy-bfs")),
    halo_case_name);

// ---- The pipelined halo path: bitwise across thread budgets, overlap
// regions recorded, across world sizes x partitioners ----

class HaloPipelineParity
    : public ::testing::TestWithParam<std::tuple<HaloCase, std::string>> {};

TEST_P(HaloPipelineParity, BitwiseAcrossThreadBudgetsAndRecordsRegions) {
  const auto [c, partitioner] = GetParam();
  const Graph g = community_graph(252, 12, 10, 4, 97);
  GnnConfig config = GnnConfig::three_layer(10, 4, 8);
  config.learning_rate = 0.1;
  const int epochs = 3;
  const DistProblem problem =
      DistProblem::prepare(g, c.partition_parts, partitioner);

  override_thread_budget(1);
  const HaloRun one =
      run_trainer(c.algebra, problem, config, c.p, epochs, halo_mode());
  override_thread_budget(8);
  const HaloRun eight =
      run_trainer(c.algebra, problem, config, c.p, epochs, halo_mode());
  override_thread_budget(0);

  const std::string label =
      c.algebra + " p=" + std::to_string(c.p) + " " + partitioner;
  ASSERT_EQ(one.losses.size(), eight.losses.size()) << label;
  for (std::size_t e = 0; e < one.losses.size(); ++e) {
    EXPECT_EQ(one.losses[e], eight.losses[e]) << label << " epoch " << e;
    EXPECT_EQ(one.accuracies[e], eight.accuracies[e])
        << label << " epoch " << e;
  }
  ASSERT_EQ(one.weights.size(), eight.weights.size()) << label;
  for (std::size_t l = 0; l < one.weights.size(); ++l) {
    EXPECT_LE(Matrix::max_abs_diff(one.weights[l], eight.weights[l]),
              Real{0})
        << label << " weights layer " << l;
  }
  EXPECT_LE(Matrix::max_abs_diff(one.output, eight.output), Real{0})
      << label << " output";
  // Metered words and latency: bitwise equal per category (the threaded
  // pack/scatter must not change what the drains charge).
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(CommCategory::kCount); ++i) {
    const auto cat = static_cast<CommCategory>(i);
    EXPECT_EQ(one.stats.comm.words(cat), eight.stats.comm.words(cat))
        << label << " words " << comm_category_name(cat);
    EXPECT_EQ(one.stats.comm.latency_units(cat),
              eight.stats.comm.latency_units(cat))
        << label << " latency " << comm_category_name(cat);
  }
  // The pipelined halo path engages the overlap machinery (one region per
  // drained peer stage).
  EXPECT_GT(one.stats.comm.overlap_regions(), 0.0) << label;
  EXPECT_GE(one.stats.comm.overlap_saved_seconds(), 0.0) << label;
}

INSTANTIATE_TEST_SUITE_P(
    AllCases, HaloPipelineParity,
    ::testing::Combine(::testing::ValuesIn(halo_cases()),
                       ::testing::Values("block", "random", "greedy-bfs")),
    halo_case_name);

TEST(HaloOverlap, ThreadedPackParityOnLargePipelinedExchange) {
  // Large enough that the pool pack/scatter actually splits into multiple
  // chunks (rows * f beyond the per-chunk minimum): the threaded pipeline
  // must stay bitwise the single-threaded one.
  const Graph g = community_graph(4096, 32, 32, 8, 98);
  GnnConfig config = GnnConfig::three_layer(32, 8, 16);
  const DistProblem problem = DistProblem::prepare(g, 4, "random");

  override_thread_budget(8);
  const HaloRun threaded =
      run_trainer("1d", problem, config, 4, 2, halo_mode());
  override_thread_budget(1);
  const HaloRun serial =
      run_trainer("1d", problem, config, 4, 2, halo_mode());
  override_thread_budget(0);

  for (std::size_t e = 0; e < threaded.losses.size(); ++e) {
    EXPECT_EQ(threaded.losses[e], serial.losses[e]) << "epoch " << e;
  }
  EXPECT_LE(Matrix::max_abs_diff(threaded.output, serial.output), Real{0});
  EXPECT_GT(threaded.stats.comm.overlap_regions(), 0.0);
}

// ---- The 1.5D backward contribution exchange ----

TEST(HaloBackward15D, EngagesUnderLocalityPartitionAndGatesUnderRandom) {
  const Graph g = community_graph(256, 16, 8, 4, 99, /*intra=*/12.0,
                                  /*inter=*/0.5);
  // Locality partition: the busiest rank's landed contribution rows stay
  // far under the reduce-scatter charge, so the mirrored backward
  // exchange must engage (this is the path the backward-parity cases in
  // HaloParity/HaloPipelineParity then exercise).
  {
    const DistProblem problem = DistProblem::prepare(g, 4, "greedy-bfs");
    run_world(8, [&](Comm& world) {
      Algebra15D algebra(problem, world, 2, halo_mode(),
                         MachineModel::summit());
      EXPECT_TRUE(algebra.halo_active());
      EXPECT_TRUE(algebra.backward_halo_active());
    });
    run_world(8, [&](Comm& world) {
      Algebra15D algebra(problem, world, 1, halo_mode(),
                         MachineModel::summit());
      EXPECT_TRUE(algebra.halo_active());
      EXPECT_TRUE(algebra.backward_halo_active());
    });
  }
  // Random partition: nearly every row travels anyway, so the gate must
  // keep the reduce-scatter (the exchange would move more and pay
  // pack/scatter work on top).
  {
    const DistProblem problem = DistProblem::prepare(g, 4, "random");
    run_world(8, [&](Comm& world) {
      Algebra15D algebra(problem, world, 2, halo_mode(),
                         MachineModel::summit());
      EXPECT_TRUE(algebra.halo_active());
      EXPECT_FALSE(algebra.backward_halo_active());
    });
  }
  // The 1D member (c = 1) splits rows into G = P = 8 groups, so its
  // random partition is prepared for 8 parts: halving each part of the
  // 4-part one keeps community locality (the permutation is a stable sort
  // by owner, and communities are contiguous id ranges), and the gate
  // would open.
  {
    const DistProblem problem = DistProblem::prepare(g, 8, "random");
    run_world(8, [&](Comm& world) {
      Algebra15D algebra(problem, world, 1, halo_mode(),
                         MachineModel::summit());
      EXPECT_TRUE(algebra.halo_active());
      EXPECT_FALSE(algebra.backward_halo_active());
    });
  }
}

TEST(HaloBackward15D, BackwardExchangeShrinksDenseWordsVsReduceScatter) {
  // With the backward exchange engaged, halo-mode kDense words must drop
  // strictly below the broadcast path's (which reduce-scatters the full
  // stripe) — not merely match it.
  const Graph g = community_graph(256, 16, 8, 4, 100, /*intra=*/12.0,
                                  /*inter=*/0.5);
  GnnConfig config = GnnConfig::three_layer(8, 4, 6);
  const DistProblem problem = DistProblem::prepare(g, 4, "greedy-bfs");

  const HaloRun halo =
      run_trainer("1.5d-c2", problem, config, 8, 2, halo_mode());
  const HaloRun bcast =
      run_trainer("1.5d-c2", problem, config, 8, 2, RunConfig{});

  for (std::size_t e = 0; e < halo.losses.size(); ++e) {
    EXPECT_EQ(halo.losses[e], bcast.losses[e]) << "epoch " << e;
  }
  EXPECT_LE(Matrix::max_abs_diff(halo.output, bcast.output), Real{0});
  EXPECT_LT(halo.stats.comm.words(CommCategory::kDense),
            bcast.stats.comm.words(CommCategory::kDense));
  EXPECT_LE(halo.stats.comm.total_words(), bcast.stats.comm.total_words());
}

// ---- The acceptance claim: exact edgecut volume and the >= 3x win ----

TEST(HaloWords, ExactEdgecutVolumeAndReductionAtP16) {
  // Planted-partition graph at P=16 under the greedy-BFS partitioner: the
  // 1D halo path's metered kHalo words per epoch must equal
  // max_remote_rows_per_part times the widths the layers 2..L exchange,
  // *exactly* — layer 1's f_0-wide exchange runs once, at set-up, where
  // it must carry max_remote_rows_per_part * f_0 — and the total metered
  // volume per epoch must be >= 3x below the broadcast path's. A layer
  // l >= 2 exchanges the input of its SpMM: H^(l-1), f_(l-1) wide, when
  // it keeps or widens the width, and H^(l-1) W^l, f_l wide, when it
  // narrows, so min(f_(l-1), f_l) in both cases.
  const int p = 16;
  const Graph g = community_graph(640, 16, 16, 8, 92, /*intra=*/12.0,
                                  /*inter=*/1.0);
  const DistProblem problem = DistProblem::prepare(g, p, "greedy-bfs");
  const auto max_remote =
      static_cast<double>(problem.edgecut.max_remote_rows_per_part);
  const auto exchanged_width = [](const GnnConfig& config) {
    Index sum = 0;
    for (std::size_t l = 2; l < config.dims.size(); ++l) {
      sum += std::min(config.dims[l - 1], config.dims[l]);
    }
    return sum;
  };

  // {16, 16, 16, 8}: layer 2 keeps 16 columns, layer 3 narrows to 8.
  GnnConfig config = GnnConfig::three_layer(16, 8, 16);
  const HaloRun halo = run_trainer("1d", problem, config, p, 2, halo_mode());
  const HaloRun bcast = run_trainer("1d", problem, config, p, 2, RunConfig{});
  const double expected =
      max_remote * static_cast<double>(exchanged_width(config));
  const double expected_setup =
      max_remote * static_cast<double>(config.dims.front());
  EXPECT_EQ(expected, 130.0 * (16 + 8));
  EXPECT_EQ(halo.stats.comm.words(CommCategory::kHalo), expected);
  EXPECT_EQ(halo.setup.comm.words(CommCategory::kHalo), expected_setup);
  EXPECT_GE(bcast.stats.comm.total_words(),
            3.0 * halo.stats.comm.total_words());
  // Bitwise training parity holds at this scale too.
  for (std::size_t e = 0; e < halo.losses.size(); ++e) {
    EXPECT_EQ(halo.losses[e], bcast.losses[e]);
  }
  // The measured edgecut feeds the closed forms: predicted 1D words under
  // from_partition, whose per-epoch form still counts layer 1 at the
  // layers' mean exchanged width, bound the metered halo volume of
  // set-up plus epoch tightly from the same statistic.
  const double sum_all_f =
      static_cast<double>(exchanged_width(config) + config.dims.front());
  const CostInputs measured = CostInputs::from_partition(
      problem.edgecut, static_cast<double>(g.num_vertices()),
      static_cast<double>(g.num_edges()), sum_all_f / 3.0, p, 3);
  EXPECT_GT(cost_1d_symmetric(measured).words, expected + expected_setup);

  // {16, 6, 12, 8}: layer 2 widens, so it exchanges H^1 at 6 columns,
  // not 12; layer 3 narrows, so it exchanges H^2 W^3 at 8, not 12.
  GnnConfig widening;
  widening.dims = {16, 6, 12, 8};
  const HaloRun wide = run_trainer("1d", problem, widening, p, 2,
                                   halo_mode());
  EXPECT_EQ(wide.stats.comm.words(CommCategory::kHalo),
            max_remote * (6 + 8));
  EXPECT_EQ(wide.setup.comm.words(CommCategory::kHalo), expected_setup);
}

// ---- Partition/permutation contract: permuted training, original-order
// output, serial parity for every family ----

TEST(PartitionedTraining, AllFamiliesMatchSerialUnderEveryPartitioner) {
  const Graph g = community_graph(180, 9, 8, 3, 93);
  GnnConfig config = GnnConfig::three_layer(8, 3, 6);
  const int epochs = 3;

  SerialTrainer serial(g, config);
  std::vector<Real> serial_losses;
  for (int e = 0; e < epochs; ++e) {
    serial_losses.push_back(serial.train_epoch().loss);
  }
  const Matrix& serial_out = serial.activations().back();

  // 2D/3D ignore RunConfig::halo; 1D/1.5D use it.
  for (const std::string partitioner : {"random", "greedy-bfs"}) {
    for (const auto& [algebra, p] : {std::pair<std::string, int>{"1d", 5},
                                     {"1.5d-c2", 6},
                                     {"2d", 4},
                                     {"3d", 8}}) {
      const DistProblem problem = DistProblem::prepare(g, p, partitioner);
      const HaloRun dist =
          run_trainer(algebra, problem, config, p, epochs, halo_mode());
      const std::string label = algebra + " p=" + std::to_string(p) + " " +
                                partitioner;
      for (int e = 0; e < epochs; ++e) {
        EXPECT_NEAR(dist.losses[static_cast<std::size_t>(e)],
                    serial_losses[static_cast<std::size_t>(e)], kParityTol)
            << label << " epoch " << e;
      }
      EXPECT_LE(Matrix::max_abs_diff(dist.output, serial_out), kParityTol)
          << label;
    }
  }
}

TEST(PartitionedTraining, BlockOrderKeepsEveryBlock) {
  // The "block" partitioner orders each part for locality, so it trains
  // on relabeled rows; but every block an algebra extracts keeps its
  // vertex set, so every rank charges what the identity form charges,
  // and training agrees with the serial oracle in original order. That
  // holds at P = parts and at every divisor of parts: one problem
  // prepared for 8 parts also runs at P = 1, 2 and 4.
  const GnnConfig config = GnnConfig::three_layer(6, 3, 5);
  const int epochs = 2;
  for (const Index n : {Index{120}, Index{121}, Index{250}}) {
    const Graph g = community_graph(n, 6, 6, 3, 94);
    SerialTrainer serial(g, config);
    std::vector<Real> serial_losses;
    for (int e = 0; e < epochs; ++e) {
      serial_losses.push_back(serial.train_epoch().loss);
    }
    const Matrix& serial_out = serial.activations().back();
    const DistProblem plain = DistProblem::prepare(g);
    const DistProblem blocked8 = DistProblem::prepare(g, 8, "block");
    for (const AlgebraSpec& spec : algebra_registry()) {
      for (const int p : {1, 2, 4, 8}) {
        if (!spec.accepts(p)) continue;
        const DistProblem blocked = DistProblem::prepare(g, p, "block");
        ASSERT_TRUE(blocked.partitioned());
        ASSERT_EQ(blocked.perm.size(), static_cast<std::size_t>(n));
        const std::string label =
            spec.name + " p=" + std::to_string(p) + " n=" + std::to_string(n);
        const HaloRun a =
            run_trainer(spec.name, plain, config, p, epochs, RunConfig{});
        const HaloRun b =
            run_trainer(spec.name, blocked, config, p, epochs, RunConfig{});
        EXPECT_EQ(a.rank_meters, b.rank_meters) << label;
        for (int e = 0; e < epochs; ++e) {
          EXPECT_NEAR(b.losses[static_cast<std::size_t>(e)],
                      serial_losses[static_cast<std::size_t>(e)], kParityTol)
              << label << " epoch " << e;
        }
        EXPECT_LE(Matrix::max_abs_diff(b.output, serial_out), kParityTol)
            << label;
        EXPECT_LE(Matrix::max_abs_diff(b.output, a.output), kParityTol)
            << label;
        if (p == 8) continue;
        const HaloRun c =
            run_trainer(spec.name, blocked8, config, p, epochs, RunConfig{});
        EXPECT_EQ(a.rank_meters, c.rank_meters) << label << " of 8 parts";
        EXPECT_LE(Matrix::max_abs_diff(c.output, serial_out), kParityTol)
            << label << " of 8 parts";
      }
    }
  }
}

TEST(PartitionedTraining, LocalityOrderStaysInsideEveryPiece) {
  // Every cut an algebra can make at P = parts or a divisor of it: the
  // parts' boundaries and the 3D fine slabs of each q^2 l dividing parts
  // (at q = 1, the even blocks of each divisor). Each cut's prefix of the
  // training order holds the vertices it holds without the in-piece order
  // (the partition-sorted order). The meters cannot check this under
  // "block" alone: there every divisor's even blocks are part boundaries.
  for (const Index n : {Index{121}, Index{250}}) {
    const Graph g = community_graph(n, 5, 4, 3, 97);
    for (const char* name : {"block", "random", "greedy-bfs"}) {
      for (const int parts : {1, 3, 4, 8}) {
        const DistProblem problem = DistProblem::prepare(g, parts, name);
        const std::vector<Index> sorted = partition_permutation(
            find_partitioner(name)->make(g.adjacency, parts, 12345));
        std::vector<Index> cuts = problem.part_offsets;
        for (int q = 1; q * q <= parts; ++q) {
          for (int l = 1; q * q * l <= parts; ++l) {
            if (parts % (q * q * l) != 0) continue;
            for (int i = 0; i < q; ++i) {
              for (int s = 0; s < l; ++s) {
                cuts.push_back(fine_range(n, q, i, l, s).second);
              }
            }
          }
        }
        const std::string label = std::string(name) + " n=" +
                                   std::to_string(n) + " parts=" +
                                   std::to_string(parts);
        for (const Index cut : cuts) {
          std::vector<Index> got(problem.perm.begin(),
                                 problem.perm.begin() + cut);
          std::vector<Index> want(sorted.begin(), sorted.begin() + cut);
          std::sort(got.begin(), got.end());
          std::sort(want.begin(), want.end());
          EXPECT_EQ(got, want) << label << " cut " << cut;
        }
        EXPECT_EQ(DistProblem::prepare(g, parts, name).perm, problem.perm)
            << label;
      }
    }
  }
}

TEST(PartitionedTraining, RowRangeFollowsPartitionOffsetsWhenAligned) {
  const Graph g = community_graph(100, 5, 6, 3, 95);
  const DistProblem problem = DistProblem::prepare(g, 5, "greedy-bfs");
  ASSERT_TRUE(problem.partitioned());
  // Aligned query: ranges tile [0, n) along the partition's own offsets.
  Index covered = 0;
  for (int q = 0; q < 5; ++q) {
    const auto [lo, hi] = problem.row_range(5, q);
    EXPECT_EQ(lo, covered);
    EXPECT_LE(lo, hi);
    covered = hi;
    EXPECT_EQ(hi, problem.part_offsets[static_cast<std::size_t>(q) + 1]);
  }
  EXPECT_EQ(covered, g.num_vertices());
  // Misaligned query falls back to even blocks of the permuted order.
  const auto [lo3, hi3] = problem.row_range(3, 1);
  const auto [bl3, bh3] = block_range(g.num_vertices(), 3, 1);
  EXPECT_EQ(lo3, bl3);
  EXPECT_EQ(hi3, bh3);
}

TEST(PartitionedTraining, UnknownPartitionerThrows) {
  const Graph g = community_graph(60, 3, 4, 2, 96);
  EXPECT_THROW(DistProblem::prepare(g, 4, "metis"), Error);
}

}  // namespace
}  // namespace cagnet
