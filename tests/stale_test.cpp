// Bounded-staleness halo refresh (RunConfig::stale_k) and
// aggregation-before-communication (RunConfig::preagg).
//
// The contract under test (DESIGN.md "Staleness and pre-aggregation
// contract"):
//   - stale_k = 0 (off) and stale_k = 1 are bitwise the exact halo
//     path — losses, weights, output, and every per-category meter,
//     including stale_saved_words == 0.
//   - A fixed refresh interval k >= 2 cuts metered kHalo traffic by ~k
//     while the skipped words are credited exactly: for every rank,
//     exact kHalo words minus stale kHalo words equals stale_saved_words
//     (compression off). Accuracy on a learnable graph stays within a
//     small floor of the exact run's.
//   - Within a stale mode, runs stay bitwise equal across thread budgets
//     (losses, weights, meters).
//   - Pre-aggregation ships pre-reduced rows for pairs where that is
//     structurally smaller, so metered kHalo words drop below the exact
//     exchange on a hub-heavy graph; it is deterministic across thread
//     budgets.
//   - The stale cache is per-run transient state (like the compression
//     error-feedback residual): a restart rebuilds it, refreshes on the
//     first resumed epoch, and keeps converging — but is NOT bitwise the
//     uninterrupted run, which is why the checkpoint drills pin exact
//     mode.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include <unistd.h>

#include "src/core/algebra_registry.hpp"
#include "src/gnn/checkpoint.hpp"
#include "src/graph/graph.hpp"
#include "src/sparse/generate.hpp"
#include "src/util/parallel.hpp"

namespace cagnet {
namespace {

/// The halo mode with refresh interval `k` and pre-aggregation `preagg`
/// (codec off: the exact-saving identity is stated in uncompressed
/// words).
RunConfig stale_mode(int k, bool preagg = false) {
  RunConfig run;
  run.halo = true;
  run.stale_k = k;
  run.preagg = preagg;
  return run;
}

/// Community-structured graph whose labels follow the communities and
/// whose features carry a per-community offset, so training accuracy is
/// a meaningful signal (same construction the compression suite uses).
Graph learnable_graph(Index n, Index communities, Index f, Index classes,
                      std::uint64_t seed, double hub_fraction = 0.0,
                      double hub_degree = 0.0) {
  Rng rng(seed);
  Graph g;
  g.name = "stale-test";
  Coo coo = planted_partition(n, communities, 10.0, 1.0, rng, hub_fraction,
                              hub_degree);
  g.adjacency = gcn_normalize(std::move(coo), /*symmetrize=*/true);
  g.features = Matrix(n, f);
  g.features.fill_uniform(rng, -1, 1);
  g.num_classes = classes;
  g.labels.resize(static_cast<std::size_t>(n));
  for (Index v = 0; v < n; ++v) {
    const Index community = v * communities / n;
    g.labels[static_cast<std::size_t>(v)] = community % classes;
    g.features(v, community % f) += Real{2};
  }
  return g;
}

struct StaleRun {
  std::vector<Real> losses;
  std::vector<Real> accuracies;
  std::vector<Matrix> weights;
  Matrix output;
  EpochStats final_stats;  ///< max-reduced, final epoch
  // Rank 0's per-run totals, summed over its per-epoch meters.
  double halo_words = 0;
  double halo_latency = 0;
  double stale_saved = 0;
  // Rank 0's final-epoch per-category meters, for bitwise comparisons.
  std::vector<double> meter_row;
};

StaleRun run_trainer(const std::string& algebra, const DistProblem& problem,
                     const GnnConfig& config, int p, int epochs,
                     const RunConfig& mode) {
  StaleRun run;
  std::mutex mutex;
  run_world(p, [&](Comm& world) {
    auto trainer = make_dist_trainer(algebra, problem, config, world, mode);
    std::vector<Real> losses;
    std::vector<Real> accuracies;
    double halo_words = 0;
    double halo_latency = 0;
    double stale_saved = 0;
    std::vector<double> meter_row;
    for (int e = 0; e < epochs; ++e) {
      const EpochResult r = trainer->train_epoch();
      losses.push_back(r.loss);
      accuracies.push_back(r.accuracy);
      const CostMeter& m = trainer->last_epoch_stats().comm;
      halo_words += m.words(CommCategory::kHalo);
      halo_latency += m.latency_units(CommCategory::kHalo);
      stale_saved += m.stale_saved_words();
      meter_row.clear();
      for (std::size_t c = 0; c < CostMeter::kNumCategories; ++c) {
        const auto cat = static_cast<CommCategory>(c);
        meter_row.push_back(m.latency_units(cat));
        meter_row.push_back(m.words(cat));
      }
    }
    const EpochStats reduced = trainer->reduce_epoch_stats();
    Matrix out = trainer->gather_output();
    if (world.rank() == 0) {
      std::lock_guard<std::mutex> lock(mutex);
      run.losses = std::move(losses);
      run.accuracies = std::move(accuracies);
      run.weights = trainer->weights();
      run.output = std::move(out);
      run.final_stats = reduced;
      run.halo_words = halo_words;
      run.halo_latency = halo_latency;
      run.stale_saved = stale_saved;
      run.meter_row = std::move(meter_row);
    }
  });
  return run;
}

void expect_bitwise_equal(const StaleRun& a, const StaleRun& b,
                          const std::string& label) {
  ASSERT_EQ(a.losses.size(), b.losses.size()) << label;
  for (std::size_t e = 0; e < a.losses.size(); ++e) {
    EXPECT_EQ(a.losses[e], b.losses[e]) << label << " loss, epoch " << e;
    EXPECT_EQ(a.accuracies[e], b.accuracies[e])
        << label << " accuracy, epoch " << e;
  }
  ASSERT_EQ(a.weights.size(), b.weights.size()) << label;
  for (std::size_t l = 0; l < a.weights.size(); ++l) {
    EXPECT_LE(Matrix::max_abs_diff(a.weights[l], b.weights[l]), Real{0})
        << label << " weights, layer " << l;
  }
  EXPECT_LE(Matrix::max_abs_diff(a.output, b.output), Real{0})
      << label << " output";
  ASSERT_EQ(a.meter_row.size(), b.meter_row.size()) << label;
  for (std::size_t i = 0; i < a.meter_row.size(); ++i) {
    EXPECT_EQ(a.meter_row[i], b.meter_row[i]) << label << " meter " << i;
  }
}

struct StaleCase {
  std::string algebra;
  int p = 0;
  int partition_parts = 0;
};

std::vector<StaleCase> stale_cases() {
  return {{"1d", 4, 4}, {"1d", 7, 7}, {"1.5d-c2", 8, 4}, {"1.5d-c2", 4, 4}};
}

// ---- stale_k = 0 and 1 are bitwise the exact halo path ----

TEST(StaleParity, OffAndKOneBitwiseMatchExactPath) {
  const Graph g = learnable_graph(252, 12, 10, 4, 91);
  GnnConfig config = GnnConfig::three_layer(10, 4, 8);
  config.learning_rate = 0.1;
  const int epochs = 3;

  for (const auto& c : stale_cases()) {
    for (const char* partitioner : {"block", "greedy-bfs"}) {
      const DistProblem problem =
          DistProblem::prepare(g, c.partition_parts, partitioner);
      const std::string label = c.algebra + "/" + partitioner;

      const StaleRun exact =
          run_trainer(c.algebra, problem, config, c.p, epochs, stale_mode(0));
      const StaleRun k1 =
          run_trainer(c.algebra, problem, config, c.p, epochs, stale_mode(1));

      expect_bitwise_equal(exact, k1, label);
      EXPECT_DOUBLE_EQ(exact.stale_saved, 0.0) << label;
      EXPECT_DOUBLE_EQ(k1.stale_saved, 0.0) << label;
      EXPECT_DOUBLE_EQ(exact.final_stats.comm.stale_saved_words(), 0.0)
          << label;
      EXPECT_DOUBLE_EQ(k1.final_stats.comm.stale_saved_words(), 0.0)
          << label;
    }
  }
}

TEST(StaleParity, NegativeIntervalIsRefused) {
  const RunConfig run = stale_mode(-7);
  EXPECT_THROW(run.validate(), Error);
  // A trainer validates its modes when it is built.
  const Graph g = learnable_graph(32, 2, 4, 2, 96);
  const DistProblem problem = DistProblem::prepare(g);
  EXPECT_THROW(run_world(2,
                         [&](Comm& world) {
                           make_dist_trainer(
                               "1d", problem, GnnConfig::three_layer(4, 2),
                               world, run);
                         }),
               Error);
}

// ---- Fixed k >= 2: traffic drops ~k-fold, savings credited exactly ----

TEST(StaleTraffic, FixedKCutsHaloWordsAndCreditsSavingsExactly) {
  const Graph g = learnable_graph(240, 12, 10, 4, 93);
  GnnConfig config = GnnConfig::three_layer(10, 4, 8);
  config.learning_rate = 0.1;
  const int epochs = 12;
  const DistProblem problem = DistProblem::prepare(g, 4, "greedy-bfs");

  const StaleRun exact =
      run_trainer("1d", problem, config, 4, epochs, stale_mode(0));
  const StaleRun stale =
      run_trainer("1d", problem, config, 4, epochs, stale_mode(4));

  ASSERT_GT(exact.halo_words, 0.0);
  // 12 epochs at k=4 refresh on epochs 0, 4, 8: a 4x word cut (the
  // acceptance floor is 2x).
  EXPECT_GE(exact.halo_words, 2.0 * stale.halo_words);
  EXPECT_GT(exact.halo_latency, stale.halo_latency);
  // The skipped words are credited exactly: rank 0's exact halo words
  // minus its stale halo words is its stale_saved_words (uncompressed
  // wire, so words are element counts on both sides).
  EXPECT_DOUBLE_EQ(exact.halo_words - stale.halo_words, stale.stale_saved);
  EXPECT_DOUBLE_EQ(exact.stale_saved, 0.0);

  // Bounded staleness is lossy but bounded: the run still converges to
  // within a small floor of the exact run's training accuracy.
  EXPECT_LT(stale.losses.back(), stale.losses.front());
  EXPECT_GE(stale.accuracies.back(), exact.accuracies.back() - 0.1);
}

TEST(StaleTraffic, SetupExchangeTakesNoCacheSlot) {
  // Layer 1's f_0-wide exchange runs once, at set-up, with the staleness
  // state disarmed: it charges kHalo words and credits no savings. Every
  // epoch then makes the L - 1 exchanges of layers 2..L. A refresh epoch
  // fills their cache slots; a replay epoch serves all of them from the
  // cache, so it charges zero kHalo latency and words and credits exactly
  // the refresh epoch's words. A layer l >= 2 exchanges the input of its
  // SpMM, min(f_(l-1), f_l) wide: layers 2 and 3 narrow (8 -> 6 -> 4),
  // so they move H W at f_2 = 6 and f_3 = 4. The widths differ from
  // f_0 = 12, so a set-up exchange that took a slot would show: each
  // rank's refresh words are its set-up words times (f_2 + f_3) / f_0.
  const Graph g = learnable_graph(240, 12, 12, 4, 95);
  GnnConfig config;
  config.dims = {12, 8, 6, 4};
  config.learning_rate = 0.1;
  const int epochs = 5;  // k = 4: refresh, three replays, refresh
  for (const auto& [algebra, p, parts] :
       {std::tuple<std::string, int, int>{"1d", 4, 4},
        {"1.5d-c2", 8, 4}}) {
    const DistProblem problem = DistProblem::prepare(g, parts, "greedy-bfs");
    // Per rank: {kHalo latency, kHalo words, saved words} of the set-up
    // (row 0) and of each epoch (rows 1..epochs).
    std::vector<std::vector<std::array<double, 3>>> rows(
        static_cast<std::size_t>(p));
    run_world(p, [&](Comm& world) {
      const auto halo_row = [](const CostMeter& m) {
        return std::array<double, 3>{m.latency_units(CommCategory::kHalo),
                                     m.words(CommCategory::kHalo),
                                     m.stale_saved_words()};
      };
      auto& mine = rows[static_cast<std::size_t>(world.rank())];
      CostMeter setup;
      auto trainer = build_metered(world, setup, [&] {
        return make_dist_trainer(algebra, problem, config, world,
                                 stale_mode(4));
      });
      mine.push_back(halo_row(setup));
      for (int e = 0; e < epochs; ++e) {
        trainer->train_epoch();
        mine.push_back(halo_row(trainer->last_epoch_stats().comm));
      }
    });
    double setup_words = 0;
    for (int r = 0; r < p; ++r) {
      const auto& mine = rows[static_cast<std::size_t>(r)];
      const std::string label = algebra + " rank " + std::to_string(r);
      const auto& setup = mine[0];
      const auto& refresh = mine[1];
      setup_words += setup[1];
      EXPECT_EQ(setup[2], 0.0) << label;
      EXPECT_EQ(refresh[2], 0.0) << label;
      EXPECT_EQ(refresh[1] * 12.0, setup[1] * (6.0 + 4.0)) << label;
      for (int e = 2; e <= 4; ++e) {
        EXPECT_EQ(mine[e][0], 0.0) << label << " replay epoch " << e - 1;
        EXPECT_EQ(mine[e][1], 0.0) << label << " replay epoch " << e - 1;
        EXPECT_EQ(mine[e][2], refresh[1]) << label << " replay epoch " << e - 1;
      }
      EXPECT_EQ(mine[5], refresh) << label << " second refresh";
    }
    EXPECT_GT(setup_words, 0.0) << algebra;
  }
}

TEST(StaleTraffic, ThreadBudgetsStayBitwiseWithinStaleMode) {
  const Graph g = learnable_graph(240, 12, 10, 4, 93);
  GnnConfig config = GnnConfig::three_layer(10, 4, 8);
  config.learning_rate = 0.1;
  const int epochs = 6;

  for (const auto& c : stale_cases()) {
    const DistProblem problem =
        DistProblem::prepare(g, c.partition_parts, "greedy-bfs");
    override_thread_budget(1);
    const StaleRun one =
        run_trainer(c.algebra, problem, config, c.p, epochs, stale_mode(3));
    override_thread_budget(8);
    const StaleRun eight =
        run_trainer(c.algebra, problem, config, c.p, epochs, stale_mode(3));
    override_thread_budget(0);
    expect_bitwise_equal(one, eight, c.algebra + "/k=3");
    EXPECT_EQ(one.stale_saved, eight.stale_saved) << c.algebra;
  }
}

// ---- Pre-aggregation: fewer words on hub-heavy coupling, deterministic --

TEST(PreAgg, CutsHaloWordsOnHubGraphAndStaysDeterministic) {
  // Hubs concentrate many remote reads onto few local output rows —
  // exactly the structure where shipping one pre-reduced row per output
  // row beats shipping every requested source row.
  const Graph g = learnable_graph(240, 12, 10, 4, 97, /*hub_fraction=*/0.05,
                                  /*hub_degree=*/60.0);
  GnnConfig config = GnnConfig::three_layer(10, 4, 8);
  config.learning_rate = 0.1;
  const int epochs = 6;
  const DistProblem problem = DistProblem::prepare(g, 4, "greedy-bfs");

  const StaleRun exact =
      run_trainer("1d", problem, config, 4, epochs, stale_mode(0));

  const RunConfig preagg = stale_mode(0, /*preagg=*/true);
  const StaleRun agg = run_trainer("1d", problem, config, 4, epochs, preagg);
  override_thread_budget(8);
  const StaleRun agg_eight =
      run_trainer("1d", problem, config, 4, epochs, preagg);
  override_thread_budget(0);

  ASSERT_GT(exact.halo_words, 0.0);
  EXPECT_LT(agg.halo_words, exact.halo_words);
  // Lossy only in floating-point association order: same convergence.
  EXPECT_LT(agg.losses.back(), agg.losses.front());
  EXPECT_GE(agg.accuracies.back(), exact.accuracies.back() - 0.1);
  // Deterministic within the mode: thread budgets bitwise agree.
  expect_bitwise_equal(agg, agg_eight, "preagg thread budgets");
}

TEST(PreAgg, ComposesWithStale) {
  const Graph g = learnable_graph(240, 12, 10, 4, 97, /*hub_fraction=*/0.05,
                                  /*hub_degree=*/60.0);
  GnnConfig config = GnnConfig::three_layer(10, 4, 8);
  config.learning_rate = 0.1;
  const int epochs = 12;
  const DistProblem problem = DistProblem::prepare(g, 4, "greedy-bfs");

  const StaleRun agg = run_trainer("1d", problem, config, 4, epochs,
                                  stale_mode(0, /*preagg=*/true));
  const StaleRun both = run_trainer("1d", problem, config, 4, epochs,
                                   stale_mode(4, /*preagg=*/true));

  // Staleness stacks on top of aggregation: skipped epochs move nothing,
  // and the credited savings reflect the *aggregated* exchange words.
  EXPECT_GE(agg.halo_words, 2.0 * both.halo_words);
  EXPECT_DOUBLE_EQ(agg.halo_words - both.halo_words, both.stale_saved);
  EXPECT_LT(both.losses.back(), both.losses.front());
}

// ---- Restart drill: the stale cache is per-run transient state ----

TEST(StaleRestart, ResumedRunRefreshesCacheAndKeepsConverging) {
  const Graph g = learnable_graph(240, 12, 10, 4, 99);
  GnnConfig config = GnnConfig::three_layer(10, 4, 8);
  config.learning_rate = 0.1;
  const DistProblem problem = DistProblem::prepare(g, 4, "greedy-bfs");
  const int pre = 5;
  const int post = 5;
  const std::string path =
      (std::filesystem::temp_directory_path() /
       (std::to_string(::getpid()) + "_cagnet_stale_drill.bin"))
          .string();

  const RunConfig stale = stale_mode(4);

  // Uninterrupted stale run, the reference trajectory.
  const StaleRun oracle =
      run_trainer("1d", problem, config, 4, pre + post, stale);

  // Interrupted: train, checkpoint weights, resume in a fresh world. The
  // stale cache is deliberately NOT serialized — the resumed trainer's
  // plan starts invalid and re-exchanges on its first epoch (the same
  // per-run-transient contract as the compression error-feedback
  // residual), so the continuation converges but is not bitwise the
  // oracle; the bitwise-resume drills in checkpoint_test/fault_test pin
  // exact mode for exactly this reason.
  std::mutex mutex;
  run_world(4, [&](Comm& world) {
    auto trainer = make_dist_trainer("1d", problem, config, world, stale);
    for (int e = 0; e < pre; ++e) trainer->train_epoch();
    if (world.rank() == 0) {
      std::lock_guard<std::mutex> lock(mutex);
      save_weights(path, trainer->weights());
    }
  });
  StaleRun resumed;
  run_world(4, [&](Comm& world) {
    auto trainer = make_dist_trainer("1d", problem, config, world, stale);
    trainer->set_weights(load_weights(path));
    trainer->set_start_epoch(pre);
    std::vector<Real> losses;
    std::vector<Real> accuracies;
    for (int e = 0; e < post; ++e) {
      const EpochResult r = trainer->train_epoch();
      losses.push_back(r.loss);
      accuracies.push_back(r.accuracy);
    }
    if (world.rank() == 0) {
      std::lock_guard<std::mutex> lock(mutex);
      resumed.losses = std::move(losses);
      resumed.accuracies = std::move(accuracies);
      resumed.weights = trainer->weights();
    }
  });
  std::remove(path.c_str());

  ASSERT_EQ(resumed.losses.size(), static_cast<std::size_t>(post));
  // The resumed trajectory keeps descending from where the checkpoint
  // left off and lands within the same accuracy floor as the oracle.
  EXPECT_LT(resumed.losses.back(), oracle.losses[pre - 1]);
  EXPECT_GE(resumed.accuracies.back(), oracle.accuracies.back() - 0.1);
}

}  // namespace
}  // namespace cagnet
