// Distributed sampled-training tests: the RunConfig::sample minibatch path's
// acceptance contract. An uncapped fanout with a whole-graph batch must
// reproduce the full-batch epoch bitwise (per algebra and world size);
// sampled epochs are bitwise-deterministic across thread budgets; finite
// fanouts still reach the exact run's accuracy floor; restart
// (set_start_epoch, train_with_recovery) resumes the epoch-keyed sample
// streams exactly; unsupported algebras fail with a typed Error.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "src/comm/comm.hpp"
#include "src/comm/compress.hpp"
#include "src/comm/fault.hpp"
#include "src/core/algebra_registry.hpp"
#include "src/core/dist_sampler.hpp"
#include "src/core/recovery.hpp"
#include "src/graph/graph.hpp"
#include "src/sparse/generate.hpp"
#include "src/util/parallel.hpp"

namespace cagnet {
namespace {

/// A sampled run mode: per-hop `fanouts` and minibatches of `batch`.
RunConfig sampled(std::vector<Index> fanouts, Index batch) {
  RunConfig run;
  run.sample = true;
  run.sample_fanouts = std::move(fanouts);
  run.sample_batch = batch;
  return run;
}

/// The exact full-batch halo mode the sampled path is compared against.
RunConfig halo_mode() {
  RunConfig run;
  run.halo = true;
  return run;
}

class FaultPlanGuard {
 public:
  explicit FaultPlanGuard(FaultPlan plan) {
    set_fault_plan(std::make_shared<FaultPlan>(std::move(plan)));
  }
  ~FaultPlanGuard() { clear_fault_plan(); }
};

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Planted-partition graph whose labels follow the communities (the same
/// learnable construction the compression suite trains on).
Graph learnable_graph(Index n, Index communities, Index f, Index classes,
                      std::uint64_t seed) {
  Rng rng(seed);
  Graph g;
  g.name = "sampled-test";
  Coo coo = planted_partition(n, communities, 10.0, 1.0, rng,
                              /*hub_fraction=*/0.0);
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

struct TrainRun {
  std::vector<Real> losses;
  std::vector<Real> accuracies;
  std::vector<Matrix> weights;
  EpochStats stats;  ///< max-reduced, final epoch
};

TrainRun run_trainer(const std::string& algebra, const DistProblem& problem,
                     const GnnConfig& config, int p, int epochs,
                     const RunConfig& mode) {
  TrainRun run;
  std::mutex mutex;
  run_world(p, [&](Comm& world) {
    auto trainer = make_dist_trainer(algebra, problem, config, world, mode);
    std::vector<Real> losses;
    std::vector<Real> accuracies;
    for (int e = 0; e < epochs; ++e) {
      const EpochResult r = trainer->train_epoch();
      losses.push_back(r.loss);
      accuracies.push_back(r.accuracy);
    }
    const EpochStats reduced = trainer->reduce_epoch_stats();
    if (world.rank() == 0) {
      std::lock_guard<std::mutex> lock(mutex);
      run.losses = std::move(losses);
      run.accuracies = std::move(accuracies);
      run.weights = trainer->weights();
      run.stats = reduced;
    }
  });
  return run;
}

/// Whole-graph training accuracy of a fixed weight set: one exact
/// full-batch epoch at learning rate zero (SGD with zero step leaves the
/// weights untouched) reports the deterministic full-graph forward
/// metrics. This is the fair yardstick for sampled runs, whose in-epoch
/// accuracy is measured on noisy sampled neighborhoods.
Real eval_accuracy(const DistProblem& problem, GnnConfig config, int p,
                   const std::vector<Matrix>& weights) {
  config.learning_rate = 0;
  Real acc = 0;
  std::mutex mutex;
  run_world(p, [&](Comm& world) {
    auto trainer =
        make_dist_trainer("1d", problem, config, world, RunConfig{});
    trainer->set_weights(weights);
    const EpochResult r = trainer->train_epoch();
    if (world.rank() == 0) {
      std::lock_guard<std::mutex> lock(mutex);
      acc = r.accuracy;
    }
  });
  return acc;
}

void expect_bitwise_equal(const TrainRun& a, const TrainRun& b) {
  ASSERT_EQ(a.losses.size(), b.losses.size());
  for (std::size_t e = 0; e < a.losses.size(); ++e) {
    EXPECT_EQ(a.losses[e], b.losses[e]) << "epoch " << e;
    EXPECT_EQ(a.accuracies[e], b.accuracies[e]) << "epoch " << e;
  }
  ASSERT_EQ(a.weights.size(), b.weights.size());
  for (std::size_t l = 0; l < a.weights.size(); ++l) {
    EXPECT_LE(Matrix::max_abs_diff(a.weights[l], b.weights[l]), Real{0})
        << "layer " << l;
  }
}

TEST(SampledTraining, InfiniteFanoutMatchesFullBatchBitwise) {
  // Uncapped fanouts and a batch covering every labeled vertex make the
  // sampled epoch the full-batch epoch masked to (all) receptive-field
  // rows: same ordered sums, so losses and weights agree bitwise at any
  // world size.
  const Graph g = learnable_graph(180, 9, 10, 3, 41);
  const GnnConfig config = GnnConfig::three_layer(10, 3, 8);
  const DistProblem problem = DistProblem::prepare(g);
  const int epochs = 3;
  RunConfig uncapped =
      sampled({kSampleAll, kSampleAll, kSampleAll}, g.num_vertices());
  uncapped.halo = true;

  for (const int p : {1, 2, 4}) {
    SCOPED_TRACE("p=" + std::to_string(p));
    const TrainRun full =
        run_trainer("1d", problem, config, p, epochs, halo_mode());
    const TrainRun sample =
        run_trainer("1d", problem, config, p, epochs, uncapped);
    expect_bitwise_equal(full, sample);
  }
}

TEST(SampledTraining, InfiniteFanoutParityHoldsOnGreedyBfsPartition) {
  // Same parity contract on a non-contiguous partition: the sampler's
  // owner arithmetic must follow the partition-aware row starts.
  const Graph g = learnable_graph(180, 9, 10, 3, 43);
  const GnnConfig config = GnnConfig::three_layer(10, 3, 8);
  const DistProblem problem = DistProblem::prepare(g, 4, "greedy-bfs");
  RunConfig uncapped =
      sampled({kSampleAll, kSampleAll, kSampleAll}, g.num_vertices());
  uncapped.halo = true;

  const TrainRun full = run_trainer("1d", problem, config, 4, 3, halo_mode());
  const TrainRun sample = run_trainer("1d", problem, config, 4, 3, uncapped);
  expect_bitwise_equal(full, sample);
}

TEST(SampledTraining, FiniteFanoutDeterministicAcrossThreadBudgets) {
  // The minibatch pipeline (sample, pack, exchange, compute) must be
  // bitwise-reproducible for a fixed seed whatever the kernel thread
  // budget: sampling is serial per rank and every reduction order is
  // fixed by the schedule, not the thread count. One worker (P=1) is
  // serial minibatch training.
  const int budget_before = thread_budget();
  const Graph g = learnable_graph(160, 8, 10, 4, 47);
  const GnnConfig config = GnnConfig::three_layer(10, 4, 8);
  const DistProblem problem = DistProblem::prepare(g);

  for (const int p : {1, 4}) {
    SCOPED_TRACE("p=" + std::to_string(p));
    std::vector<TrainRun> runs;
    for (const int budget : {1, 8}) {
      override_thread_budget(budget);
      runs.push_back(
          run_trainer("1d", problem, config, p, 3, sampled({6, 4, 3}, 16)));
    }
    override_thread_budget(budget_before);
    expect_bitwise_equal(runs[0], runs[1]);
    if (p == 1) continue;
    // The run genuinely exchanged sampled rows (kHalo) and need lists
    // (kControl) — the metering contract of the sampled path.
    EXPECT_GT(runs[0].stats.comm.words(CommCategory::kHalo), 0.0);
    EXPECT_GT(runs[0].stats.comm.words(CommCategory::kControl), 0.0);
  }
}

TEST(SampledTraining, MultiBatchPipelineBitwiseAcrossThreadBudgets) {
  // Multiple batches per epoch on a greedy-bfs partition, so the
  // cross-batch pipeline (build b+1 behind backward b) is genuinely
  // exercised; the thread budget must not change a bit.
  const int budget_before = thread_budget();
  const Graph g = learnable_graph(180, 9, 10, 3, 53);
  const GnnConfig config = GnnConfig::three_layer(10, 3, 8);
  const DistProblem problem = DistProblem::prepare(g, 4, "greedy-bfs");

  const RunConfig mode = sampled({8, 5, 3}, 12);

  override_thread_budget(1);
  const TrainRun one = run_trainer("1d", problem, config, 4, 4, mode);
  override_thread_budget(8);
  const TrainRun eight = run_trainer("1d", problem, config, 4, 4, mode);
  override_thread_budget(budget_before);
  expect_bitwise_equal(one, eight);
  EXPECT_EQ(one.stats.comm.words(CommCategory::kHalo),
            eight.stats.comm.words(CommCategory::kHalo));
}

TEST(SampledTraining, FiniteFanoutReachesExactAccuracyFloor) {
  // The convergence half of the acceptance: capped fanouts inject
  // sampling noise but must still train to the exact run's accuracy
  // floor on the planted-partition task (same discipline as the lossy
  // compression contract), on one worker and on four.
  const Graph g = learnable_graph(240, 8, 12, 4, 51);
  GnnConfig config = GnnConfig::three_layer(12, 4, 16);
  config.learning_rate = 0.3;
  const int epochs = 60;

  for (const int p : {1, 4}) {
    SCOPED_TRACE("p=" + std::to_string(p));
    const DistProblem problem = DistProblem::prepare(g, p, "greedy-bfs");
    const TrainRun exact =
        run_trainer("1d", problem, config, p, epochs, halo_mode());
    ASSERT_TRUE(std::isfinite(exact.losses.back()));
    const Real exact_acc = eval_accuracy(problem, config, p, exact.weights);
    ASSERT_GE(exact_acc, 0.8);

    // Sampled in-epoch accuracy is measured on sampled neighborhoods and
    // shifting minibatch weights, so judge the trained model by the same
    // full-graph forward the exact run is judged by.
    RunConfig mode = sampled({12, 10, 8}, 32);
    mode.halo = true;
    const TrainRun sample =
        run_trainer("1d", problem, config, p, epochs, mode);
    EXPECT_TRUE(std::isfinite(sample.losses.back()));
    const Real sampled_acc =
        eval_accuracy(problem, config, p, sample.weights);
    EXPECT_GE(sampled_acc, exact_acc - 0.05)
        << "sampled in-epoch accuracy " << sample.accuracies.back();

    // And under a lossy wire codec the sampled run still trains (the halo
    // rows and gradient reductions share the compressed path).
    mode.compress = CompressMode::kInt8;
    const TrainRun lossy =
        run_trainer("1d", problem, config, p, epochs, mode);
    EXPECT_TRUE(std::isfinite(lossy.losses.back()));
    const Real lossy_acc = eval_accuracy(problem, config, p, lossy.weights);
    EXPECT_GE(lossy_acc, exact_acc - 0.1)
        << "lossy in-epoch accuracy " << lossy.accuracies.back();
  }
}

TEST(SampledTraining, UnsupportedAlgebraThrowsTypedError) {
  // Sampling rides the row-stripe halo machinery; algebras without a
  // sample communicator must refuse loudly, not train nonsense.
  const Graph g = learnable_graph(64, 4, 8, 4, 61);
  const GnnConfig config = GnnConfig::three_layer(8, 4, 6);
  const DistProblem problem = DistProblem::prepare(g);
  const RunConfig mode = sampled({4, 3, 2}, 16);
  const struct {
    const char* algebra;
    int p;
  } cases[] = {{"1.5d-c2", 4}, {"2d", 4}, {"3d", 8}};
  for (const auto& c : cases) {
    // The refusal fires at construction, after the algebra's collective
    // set-up, so every rank throws and catches locally — no peer is left
    // parked in an exchange.
    run_world(c.p, [&](Comm& world) {
      EXPECT_THROW(make_dist_trainer(c.algebra, problem, config, world, mode),
                   Error)
          << c.algebra;
    });
  }
}

TEST(SampledTraining, InvalidSampleOptionsThrowTypedError) {
  // The engine forwards the run's sampling modes to the sampled runner;
  // a fanout list that does not match the model depth (or a nonsensical
  // batch size) must surface as a typed Error when the trainer is built.
  const Graph g = learnable_graph(64, 4, 8, 4, 67);
  const GnnConfig config = GnnConfig::three_layer(8, 4, 6);
  const DistProblem problem = DistProblem::prepare(g);
  // A three-layer model needs three hops.
  const RunConfig short_fanouts = sampled({4, 3}, 16);
  run_world(1, [&](Comm& world) {
    EXPECT_THROW(
        make_dist_trainer("1d", problem, config, world, short_fanouts),
        Error);
  });
  EXPECT_THROW(sampled({4, 3, 2}, 0).validate(), Error);
  // Sixteen layers would keep the prefetched exchange pending past the
  // channel ring: a typed Error, not a hang.
  GnnConfig deep;
  deep.dims.assign(17, 4);  // 16 layers, 4 classes
  deep.dims.front() = 8;    // the graph's feature width
  const RunConfig deep_fanouts = sampled(std::vector<Index>(16, 2), 16);
  run_world(2, [&](Comm& world) {
    EXPECT_THROW(make_dist_trainer("1d", problem, deep, world, deep_fanouts),
                 Error);
  });
}

TEST(SampledTraining, SetStartEpochResumesSampleStreamsBitwise) {
  // The shuffle and per-batch sample streams are keyed by the absolute
  // epoch, so a restart that restores weights and calls set_start_epoch
  // continues exactly where the uninterrupted run would be.
  const Graph g = learnable_graph(160, 8, 10, 4, 71);
  const GnnConfig config = GnnConfig::three_layer(10, 4, 8);
  const DistProblem problem = DistProblem::prepare(g);
  const RunConfig mode = sampled({6, 4, 3}, 16);

  run_world(4, [&](Comm& world) {
    auto oracle = make_dist_trainer("1d", problem, config, world, mode);
    std::vector<Real> oracle_losses;
    for (int e = 0; e < 6; ++e) {
      oracle_losses.push_back(oracle->train_epoch().loss);
    }

    auto first = make_dist_trainer("1d", problem, config, world, mode);
    for (int e = 0; e < 3; ++e) first->train_epoch();

    // Weights are replicated, so every rank restores its own copy —
    // exactly what train_with_recovery does from a checkpoint.
    auto resumed = make_dist_trainer("1d", problem, config, world, mode);
    resumed->set_weights(first->weights());
    resumed->set_start_epoch(3);
    for (int e = 3; e < 6; ++e) {
      const Real loss = resumed->train_epoch().loss;
      EXPECT_EQ(loss, oracle_losses[static_cast<std::size_t>(e)])
          << "epoch " << e;
    }
    const auto& got = resumed->weights();
    const auto& want = oracle->weights();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t l = 0; l < got.size(); ++l) {
      EXPECT_LE(Matrix::max_abs_diff(got[l], want[l]), Real{0})
          << "layer " << l;
    }
  });
}

TEST(SampledRecoveryDrill, FaultedSampledRunRecoversBitwise) {
  // A rank dies mid-minibatch (the transport seam fires inside the
  // sampled schedule); train_with_recovery must unwind every survivor,
  // restart from the checkpoint, and — because the sample streams are
  // epoch-keyed — finish bitwise-identical to the unfaulted run.
  const Graph g = learnable_graph(128, 8, 8, 4, 77);
  GnnConfig config = GnnConfig::three_layer(8, 4, 6);
  config.learning_rate = 0.1;
  const DistProblem problem = DistProblem::prepare(g);
  const int epochs = 5;
  const RunConfig mode = sampled({6, 4, 3}, 12);

  const TrainRun oracle = run_trainer("1d", problem, config, 4, epochs, mode);

  const std::string path = temp_path("cagnet_sampled_drill.ckpt");
  RecoveryOptions options;
  options.ckpt_path = path;
  options.ckpt_every = 2;
  options.run = mode;
  RecoveryReport report;
  {
    FaultPlanGuard fault(FaultPlan().kill_any(1, FaultSite::kPost, 70));
    report = train_with_recovery("1d", problem, config, 4, epochs, options);
  }
  EXPECT_GE(report.restarts, 1);
  ASSERT_TRUE(report.last_abort.has_value());
  EXPECT_EQ(report.last_abort->rank(), 1);

  EXPECT_EQ(report.losses, oracle.losses);
  ASSERT_EQ(report.weights.size(), oracle.weights.size());
  for (std::size_t l = 0; l < oracle.weights.size(); ++l) {
    EXPECT_LE(Matrix::max_abs_diff(report.weights[l], oracle.weights[l]),
              Real{0})
        << "layer " << l;
  }
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cagnet
