// The mode matrix: every legal RunConfig, in-process, on every registry
// algebra and three small adversarial graphs.
//
// Full batch enumerates halo {off, on} x compress {off, fp16, int8} x
// stale {off, 1, 4} x preagg {off, on}, with stale and preagg varied only
// under halo (both ride the halo exchange). Sampled training
// is 1D only: {capped, uncapped with a whole-graph batch} x compress
// {off, int8}. Every cell runs at thread budgets 1 and 3 and must agree
// with itself bitwise. Cells on an exact wire (compress off, stale off or
// 1, preagg off) match the serial oracle and equal the broadcast cell
// bitwise; pre-aggregated cells match the serial oracle; uncapped sampled
// cells equal full batch bitwise; lossy cells end at a finite loss. A
// failing cell prints RunConfig::to_string(), the env spelling that
// reproduces it from the shell.
//
// Also here: two trainers with different modes alternating epochs in one
// world, each bitwise equal to its solo run.
#include <gtest/gtest.h>

#include <cmath>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/algebra_registry.hpp"
#include "src/core/dist_sampler.hpp"
#include "src/gnn/serial_trainer.hpp"
#include "src/graph/graph.hpp"
#include "src/sparse/generate.hpp"
#include "src/util/parallel.hpp"

namespace cagnet {
namespace {

constexpr Real kParityTol = 1e-8;
constexpr int kEpochs = 2;
constexpr Index kFeatures = 6;
constexpr Index kClasses = 3;

Graph make_graph(std::string name, Coo coo, std::uint64_t seed) {
  Rng rng(seed);
  const Index n = coo.rows();
  Graph g;
  g.name = std::move(name);
  g.adjacency = gcn_normalize(std::move(coo), /*symmetrize=*/true);
  g.features = Matrix(n, kFeatures);
  g.features.fill_uniform(rng, -1, 1);
  g.num_classes = kClasses;
  g.labels.resize(static_cast<std::size_t>(n));
  for (auto& label : g.labels) {
    label = static_cast<Index>(
        rng.next_below(static_cast<std::uint64_t>(kClasses)));
  }
  return g;
}

/// One hub adjacent to every other vertex: its row spans the whole graph
/// and every other row holds one remote column.
Graph star_graph(Index n) {
  Coo coo(n, n);
  for (Index v = 1; v < n; ++v) coo.add(0, v, Real{1});
  return make_graph("star", std::move(coo), 201);
}

/// A path over the first half of the vertices; the second half is
/// isolated (self loops only), so some ranks own rows no peer needs.
Graph path_graph(Index n) {
  Coo coo(n, n);
  for (Index v = 0; v + 1 < n / 2; ++v) coo.add(v, v + 1, Real{1});
  return make_graph("path+isolated", std::move(coo), 202);
}

/// Planted communities with a few cross edges.
Graph planted_graph(Index n) {
  Rng rng(203);
  return make_graph("planted",
                    planted_partition(n, 4, 4.0, 0.5, rng,
                                      /*hub_fraction=*/0.0),
                    204);
}

std::vector<Graph> adversarial_graphs() {
  std::vector<Graph> graphs;
  graphs.push_back(star_graph(24));
  graphs.push_back(path_graph(26));
  graphs.push_back(planted_graph(32));
  return graphs;
}

/// Every legal full-batch config, the broadcast cell (RunConfig{}) first.
std::vector<RunConfig> full_batch_configs() {
  const CompressMode codecs[] = {CompressMode::kOff, CompressMode::kFp16,
                                 CompressMode::kInt8};
  std::vector<RunConfig> configs;
  for (bool halo : {false, true}) {
    for (CompressMode compress : codecs) {
      for (int stale : {0, 1, 4}) {
        for (bool preagg : {false, true}) {
          if (!halo && (stale != 0 || preagg)) continue;
          RunConfig run;
          run.halo = halo;
          run.compress = compress;
          run.stale_k = stale;
          run.preagg = preagg;
          configs.push_back(run);
        }
      }
    }
  }
  return configs;
}

/// The sampled configs on a graph of `n` vertices: capped fanouts with
/// small batches, and uncapped fanouts with one whole-graph batch.
std::vector<RunConfig> sampled_configs(Index n) {
  std::vector<RunConfig> configs;
  for (bool uncapped : {false, true}) {
    for (CompressMode compress : {CompressMode::kOff, CompressMode::kInt8}) {
      RunConfig run;
      run.sample = true;
      run.compress = compress;
      run.sample_fanouts = uncapped
                               ? std::vector<Index>(3, kSampleAll)
                               : std::vector<Index>{2, 2, 2};
      run.sample_batch = uncapped ? n : 5;
      configs.push_back(run);
    }
  }
  return configs;
}

bool exact_wire(const RunConfig& run) {
  return run.compress == CompressMode::kOff &&
         (run.stale_k == 0 || run.stale_k == 1) && !run.preagg &&
         !run.sample;
}

struct CellRun {
  std::vector<Real> losses;
  std::vector<Matrix> weights;  ///< after the last step
  Matrix output;                ///< gathered after the last epoch
  std::vector<double> meters;   ///< rank 0's per-epoch category meters
};

CellRun run_cell(const std::string& algebra, const DistProblem& problem,
                 const GnnConfig& config, int p, const RunConfig& mode,
                 int threads) {
  CellRun run;
  std::mutex mutex;
  override_thread_budget(threads);
  run_world(p, [&](Comm& world) {
    auto trainer = make_dist_trainer(algebra, problem, config, world, mode);
    std::vector<Real> losses;
    std::vector<double> meters;
    for (int e = 0; e < kEpochs; ++e) {
      losses.push_back(trainer->train_epoch().loss);
      const CostMeter& m = trainer->last_epoch_stats().comm;
      for (std::size_t c = 0; c < CostMeter::kNumCategories; ++c) {
        meters.push_back(m.latency_units(static_cast<CommCategory>(c)));
        meters.push_back(m.words(static_cast<CommCategory>(c)));
      }
    }
    Matrix out = trainer->gather_output();
    if (world.rank() == 0) {
      std::lock_guard<std::mutex> lock(mutex);
      run.losses = std::move(losses);
      run.weights = trainer->weights();
      run.output = std::move(out);
      run.meters = std::move(meters);
    }
  });
  override_thread_budget(0);
  return run;
}

/// Losses and final weights bitwise equal; also the gathered output when
/// both outputs come from the same forward (a sampled trainer gathers a
/// fresh forward under the final weights, full batch its last epoch's),
/// and the meters when both runs move the same words.
void expect_bitwise(const CellRun& a, const CellRun& b, bool output,
                    bool meters, const std::string& label) {
  EXPECT_EQ(a.losses, b.losses) << label;
  ASSERT_EQ(a.weights.size(), b.weights.size()) << label;
  for (std::size_t l = 0; l < a.weights.size(); ++l) {
    EXPECT_LE(Matrix::max_abs_diff(a.weights[l], b.weights[l]), Real{0})
        << label << " weights " << l;
  }
  if (output) {
    EXPECT_LE(Matrix::max_abs_diff(a.output, b.output), Real{0}) << label;
  }
  if (meters) EXPECT_EQ(a.meters, b.meters) << label;
}

/// Runs `mode` at both thread budgets, checks they agree bitwise, and
/// returns the budget-1 run.
CellRun run_checked_cell(const std::string& algebra,
                         const DistProblem& problem, const GnnConfig& config,
                         int p, const RunConfig& mode,
                         const std::string& label) {
  const CellRun one = run_cell(algebra, problem, config, p, mode, 1);
  const CellRun three = run_cell(algebra, problem, config, p, mode, 3);
  expect_bitwise(one, three, /*output=*/true, /*meters=*/true,
                 label + " threads 1 vs 3");
  return one;
}

/// The first registered world size of `spec` above 2 (its largest if
/// none), so every family runs with real peers.
int matrix_world(const AlgebraSpec& spec) {
  for (int p : spec.world_sizes) {
    if (p > 2) return p;
  }
  return spec.world_sizes.back();
}

TEST(ModeMatrix, EveryFullBatchConfigOnEveryAlgebra) {
  const GnnConfig config = GnnConfig::three_layer(kFeatures, kClasses, 4);
  for (const Graph& g : adversarial_graphs()) {
    SerialTrainer serial(g, config);
    std::vector<Real> serial_losses;
    for (int e = 0; e < kEpochs; ++e) {
      serial_losses.push_back(serial.train_epoch().loss);
    }
    const DistProblem problem = DistProblem::prepare(g);
    for (const AlgebraSpec& spec : algebra_registry()) {
      const int p = matrix_world(spec);
      CellRun broadcast;
      for (const RunConfig& mode : full_batch_configs()) {
        const std::string label = g.name + " " + spec.name + " p=" +
                                  std::to_string(p) + " " + mode.to_string();
        const CellRun run =
            run_checked_cell(spec.name, problem, config, p, mode, label);
        ASSERT_EQ(run.losses.size(), static_cast<std::size_t>(kEpochs))
            << label;
        EXPECT_TRUE(std::isfinite(run.losses.back())) << label;
        if (mode == RunConfig{}) broadcast = run;
        const bool exact = exact_wire(mode);
        const bool preagg_exact = mode.preagg &&
                                  mode.compress == CompressMode::kOff &&
                                  (mode.stale_k == 0 || mode.stale_k == 1);
        if (exact || preagg_exact) {
          for (int e = 0; e < kEpochs; ++e) {
            const auto es = static_cast<std::size_t>(e);
            EXPECT_NEAR(run.losses[es], serial_losses[es], kParityTol)
                << label << " epoch " << e;
          }
          EXPECT_LE(
              Matrix::max_abs_diff(run.output, serial.activations().back()),
              kParityTol)
              << label;
        }
        if (exact) {
          expect_bitwise(run, broadcast, /*output=*/true, /*meters=*/false,
                         label + " vs broadcast");
        }
      }
    }
  }
}

TEST(ModeMatrix, EverySampledConfigOn1D) {
  const GnnConfig config = GnnConfig::three_layer(kFeatures, kClasses, 4);
  const AlgebraSpec* one_d = find_algebra("1d");
  ASSERT_NE(one_d, nullptr);
  const int p = matrix_world(*one_d);
  for (const Graph& g : adversarial_graphs()) {
    const DistProblem problem = DistProblem::prepare(g);
    const CellRun full =
        run_cell("1d", problem, config, p, RunConfig{}, 1);
    for (const RunConfig& mode : sampled_configs(g.num_vertices())) {
      const std::string label =
          g.name + " 1d p=" + std::to_string(p) + " " + mode.to_string();
      const CellRun run =
          run_checked_cell("1d", problem, config, p, mode, label);
      ASSERT_EQ(run.losses.size(), static_cast<std::size_t>(kEpochs))
          << label;
      EXPECT_TRUE(std::isfinite(run.losses.back())) << label;
      const bool uncapped = mode.sample_fanouts.front() == kSampleAll;
      if (uncapped && mode.compress == CompressMode::kOff) {
        expect_bitwise(run, full, /*output=*/false, /*meters=*/false,
                       label + " vs full batch");
      }
    }
    // Sampling is 1D only: every other family refuses the mode when the
    // trainer is built, on every rank, after its collective set-up.
    for (const AlgebraSpec& spec : algebra_registry()) {
      if (spec.name == "1d") continue;
      const RunConfig mode = sampled_configs(g.num_vertices()).front();
      run_world(matrix_world(spec), [&](Comm& world) {
        EXPECT_THROW(make_dist_trainer(spec.name, problem, config, world,
                                       mode),
                     Error)
            << spec.name;
      });
    }
  }
}

// ---- Two trainers, two configs, one world ----

struct SoloRun {
  std::vector<Real> losses;
  std::vector<double> meters;  ///< rank 0's per-epoch category meters
};

void record(const DistTrainer& trainer, Real loss, SoloRun& run) {
  run.losses.push_back(loss);
  const CostMeter& m = trainer.last_epoch_stats().comm;
  for (std::size_t c = 0; c < CostMeter::kNumCategories; ++c) {
    run.meters.push_back(m.latency_units(static_cast<CommCategory>(c)));
    run.meters.push_back(m.words(static_cast<CommCategory>(c)));
  }
}

TEST(TwoTrainers, AlternatingEpochsInOneWorldMatchSoloRuns) {
  // A 1D trainer on {halo, stale 4, int8} and one on the exact broadcast
  // config share a world and alternate epochs. The modes are trainer
  // state, not process state, so each must equal its solo run bitwise.
  const Graph g = planted_graph(48);
  const GnnConfig config = GnnConfig::three_layer(kFeatures, kClasses, 4);
  const DistProblem problem = DistProblem::prepare(g, 4, "greedy-bfs");
  RunConfig lossy;
  lossy.halo = true;
  lossy.stale_k = 4;
  lossy.compress = CompressMode::kInt8;
  const RunConfig exact;
  const int epochs = 6;

  const auto solo = [&](const RunConfig& mode) {
    SoloRun run;
    std::mutex mutex;
    run_world(4, [&](Comm& world) {
      auto trainer = make_dist_trainer("1d", problem, config, world, mode);
      SoloRun mine;
      for (int e = 0; e < epochs; ++e) {
        record(*trainer, trainer->train_epoch().loss, mine);
      }
      if (world.rank() == 0) {
        std::lock_guard<std::mutex> lock(mutex);
        run = std::move(mine);
      }
    });
    return run;
  };
  const SoloRun lossy_solo = solo(lossy);
  const SoloRun exact_solo = solo(exact);

  SoloRun lossy_shared;
  SoloRun exact_shared;
  std::mutex mutex;
  run_world(4, [&](Comm& world) {
    auto a = make_dist_trainer("1d", problem, config, world, lossy);
    auto b = make_dist_trainer("1d", problem, config, world, exact);
    SoloRun mine_a;
    SoloRun mine_b;
    for (int e = 0; e < epochs; ++e) {
      record(*a, a->train_epoch().loss, mine_a);
      record(*b, b->train_epoch().loss, mine_b);
    }
    if (world.rank() == 0) {
      std::lock_guard<std::mutex> lock(mutex);
      lossy_shared = std::move(mine_a);
      exact_shared = std::move(mine_b);
    }
  });

  EXPECT_EQ(lossy_shared.losses, lossy_solo.losses);
  EXPECT_EQ(lossy_shared.meters, lossy_solo.meters);
  EXPECT_EQ(exact_shared.losses, exact_solo.losses);
  EXPECT_EQ(exact_shared.meters, exact_solo.meters);
  // The two modes really differ: staleness skips halo exchanges.
  EXPECT_NE(lossy_solo.meters, exact_solo.meters);
}

}  // namespace
}  // namespace cagnet
