// Distributed sampled-training tests: the RunConfig::sample minibatch path's
// acceptance contract. An uncapped fanout with a whole-graph batch must
// reproduce the full-batch epoch bitwise (per algebra and world size);
// sampled epochs are bitwise-deterministic across thread budgets; finite
// fanouts still reach the exact run's accuracy floor; restart
// (set_start_epoch, train_with_recovery) resumes the epoch-keyed sample
// streams exactly; unsupported algebras fail with a typed Error.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include <unistd.h>

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

/// `name` under the temp directory, prefixed with this process's id so
/// concurrent runs (two builds' test suites, two bench runs) never share
/// a file.
std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (std::to_string(::getpid()) + "_" + name))
      .string();
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
  // world size. The sixteen-layer model posts 31 exchanges per batch on
  // one communicator, more than its 16 channels, so it passes only while
  // no exchange stays pending across layers or batches.
  const Graph g = learnable_graph(180, 9, 10, 3, 41);
  GnnConfig deep;
  deep.dims.assign(17, 6);  // 16 layers
  deep.dims.front() = 10;   // the graph's feature width
  deep.dims.back() = 3;     // its class count
  const DistProblem problem = DistProblem::prepare(g);
  const int epochs = 3;

  for (const GnnConfig& config : {GnnConfig::three_layer(10, 3, 8), deep}) {
    RunConfig uncapped = sampled(
        std::vector<Index>(static_cast<std::size_t>(config.num_layers()),
                           kSampleAll),
        g.num_vertices());
    uncapped.halo = true;
    for (const int p : {1, 2, 4}) {
      SCOPED_TRACE("layers=" + std::to_string(config.num_layers()) +
                   " p=" + std::to_string(p));
      const TrainRun full =
          run_trainer("1d", problem, config, p, epochs, halo_mode());
      const TrainRun sample =
          run_trainer("1d", problem, config, p, epochs, uncapped);
      expect_bitwise_equal(full, sample);
    }
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
  // Multiple batches per epoch on a greedy-bfs partition, so each batch
  // is built and exchanged after the previous one's step, reusing its
  // plans and pack staging in place; the thread budget must not change a
  // bit.
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

// ---- Pinned finite-fanout epochs ----
// The tests above compare sampled runs with each other or with the
// full-batch engine; these literals pin what a capped-fanout run itself
// computes and charges, so a refactor of the sampled epoch can be held to
// the same bits.

/// 64-bit FNV-1a over the bytes of every weight matrix, in layer order.
std::uint64_t fnv1a_weights(const std::vector<Matrix>& weights) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const Matrix& w : weights) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(w.data());
    for (std::size_t i = 0; i < w.flat().size() * sizeof(Real); ++i) {
      hash ^= bytes[i];
      hash *= 0x100000001b3ull;
    }
  }
  return hash;
}

using MeterRow = std::array<double, 2 * CostMeter::kNumCategories>;

/// One epoch of a pinned sampled run.
struct PinnedEpoch {
  double loss;
  double accuracy;
  /// Rank 0's {latency units, words} per CommCategory, in enum order.
  MeterRow meter;
  /// The same slots maximized over ranks (reduce_epoch_stats).
  MeterRow max_meter;
  /// Rank 0's overlap totals {regions, serialized s, overlapped s}.
  std::array<double, 3> overlap;
  /// Rank 0's modeled local-kernel seconds (WorkMeter::total_seconds).
  double work;
};

struct SampledPinCase {
  std::string label;
  int p;
  std::array<PinnedEpoch, 3> epochs;
  std::uint64_t weights_hash;  ///< fnv1a_weights after the last epoch
};

MeterRow meter_row(const CostMeter& m) {
  MeterRow row{};
  for (std::size_t c = 0; c < CostMeter::kNumCategories; ++c) {
    const auto cat = static_cast<CommCategory>(c);
    row[2 * c] = m.latency_units(cat);
    row[2 * c + 1] = m.words(cat);
  }
  return row;
}

/// Three epochs of `mode` on `p` ranks, recorded as a SampledPinCase.
SampledPinCase record_sampled(const std::string& label,
                              const DistProblem& problem,
                              const GnnConfig& config, int p,
                              const RunConfig& mode) {
  SampledPinCase got{label, p, {}, 0};
  std::mutex mutex;
  run_world(p, [&](Comm& world) {
    auto trainer = make_dist_trainer("1d", problem, config, world, mode);
    std::array<PinnedEpoch, 3> epochs{};
    for (PinnedEpoch& pinned : epochs) {
      const EpochResult r = trainer->train_epoch();
      const EpochStats& stats = trainer->last_epoch_stats();
      pinned.loss = r.loss;
      pinned.accuracy = r.accuracy;
      pinned.meter = meter_row(stats.comm);
      pinned.overlap = {stats.comm.overlap_regions(),
                        stats.comm.overlap_serialized_seconds(),
                        stats.comm.overlap_overlapped_seconds()};
      pinned.work = stats.work.total_seconds();
      // Collective, outside the next epoch's meter window.
      pinned.max_meter = meter_row(trainer->reduce_epoch_stats().comm);
    }
    if (world.rank() == 0) {
      std::lock_guard<std::mutex> lock(mutex);
      got.epochs = epochs;
      got.weights_hash = fnv1a_weights(trainer->weights());
    }
  });
  return got;
}

/// `got` in the initializer syntax of sampled_pins(), for re-recording.
std::string pin_literal(const SampledPinCase& got) {
  std::string out;
  char buf[64];
  const auto add = [&](const char* fmt, double v) {
    std::snprintf(buf, sizeof(buf), fmt, v);
    out += buf;
  };
  const auto row = [&](const MeterRow& r) {
    out += "{";
    for (std::size_t i = 0; i < r.size(); ++i) {
      add(i == 0 ? "%.17g" : ", %.17g", r[i]);
    }
    out += "}";
  };
  out += "{\"" + got.label + "\", " + std::to_string(got.p) + ",\n {{";
  for (std::size_t e = 0; e < got.epochs.size(); ++e) {
    const PinnedEpoch& pe = got.epochs[e];
    out += e == 0 ? "{" : "\n   {";
    add("%a", pe.loss);
    add(", %a,\n    ", pe.accuracy);
    row(pe.meter);
    out += ",\n    ";
    row(pe.max_meter);
    add(",\n    {%a", pe.overlap[0]);
    add(", %a", pe.overlap[1]);
    add(", %a},\n    ", pe.overlap[2]);
    add("%a}", pe.work);
    out += e + 1 < got.epochs.size() ? "," : "}},";
  }
  std::snprintf(buf, sizeof(buf), "\n 0x%016llxull},",
                static_cast<unsigned long long>(got.weights_hash));
  out += buf;
  return out;
}

// Recorded from SampledRunner's own forward and backward, before sampled
// batches ran through DistEngine's layer loop, so that merge is held to
// every bit these runs compute and charge. The overlap totals of epochs 2
// and 3 were re-recorded when each epoch's meter window began summing
// from zero instead of differencing the run's cumulative sums. Every
// case was re-recorded when narrowing layers began aggregating H W: the
// models' layer 3 (8 -> 3 and 8 -> 4 columns) then exchanges and
// aggregates its batch rows at the output width. Each halo word that left
// is 5 columns of a received layer-3 row (43, 44 and 50 rows on rank 0
// over the p4 epochs); at p2 each received row lost 4 int8 bytes, half a
// word (31, 36 and 30 rows on rank 0). Losses and weights moved at
// rounding level, since Z = Â^T (H W) rounds differently from (Â^T H) W.
std::vector<SampledPinCase> sampled_pins() {
  return {
      {"p4 greedy-bfs", 4,
       {{{0x1.1dd7a0d170b2p+0, 0x1.ddddddddddddep-2,
          {48, 1008, 0, 0, 0, 0, 60, 2298, 0, 0, 52, 182},
          {48, 1008, 0, 0, 0, 0, 60, 3229, 0, 0, 52, 318},
          {0x1.4p+6, 0x1.3d3f5f0703d9ap-10, 0x1.3b63301dafddap-10},
          0x1.8f05d120aab41p-17},
         {0x1.1b8a01bac745ap+0, 0x1p-1,
          {48, 1008, 0, 0, 0, 0, 60, 2198, 0, 0, 52, 174},
          {48, 1008, 0, 0, 0, 0, 60, 3252, 0, 0, 52, 309},
          {0x1.4p+6, 0x1.3d318c45ebe85p-10, 0x1.3b5e476bc58c9p-10},
          0x1.879ff0050cf49p-17},
         {0x1.187ad46e187a4p+0, 0x1.05b05b05b05bp-1,
          {48, 1008, 0, 0, 0, 0, 60, 2229, 0, 0, 52, 173},
          {48, 1008, 0, 0, 0, 0, 60, 3150, 0, 0, 52, 325},
          {0x1.4p+6, 0x1.3d38327fd7ceep-10, 0x1.3b5fd28ba7896p-10},
          0x1.8df6030165d6fp-17}}},
       0xf6f104ea1b435878ull},
      {"p2 int8", 2,
       {{{0x1.5ee5ea7ac06bfp+0, 0x1.a666666666666p-2,
          {0, 0, 0, 0, 0, 0, 0, 0, 55, 373.75, 25, 180},
          {0, 0, 0, 0, 0, 0, 0, 0, 55, 395, 25, 181},
          {0x1.9p+5, 0x1.0b60c37f73ae8p-11, 0x1.08a831097aa17p-11},
          0x1.ddade1be403f8p-17},
         {0x1.5dcfe9016145p+0, 0x1.ep-2,
          {0, 0, 0, 0, 0, 0, 0, 0, 55, 379.75, 25, 175},
          {0, 0, 0, 0, 0, 0, 0, 0, 55, 379.75, 25, 183},
          {0x1.9p+5, 0x1.0b50e24aea6bdp-11, 0x1.08a0ea4a816d4p-11},
          0x1.d50671c53c4cep-17},
         {0x1.5ef233f82b8c3p+0, 0x1.d99999999999ap-2,
          {0, 0, 0, 0, 0, 0, 0, 0, 55, 414, 25, 193},
          {0, 0, 0, 0, 0, 0, 0, 0, 55, 414, 25, 203},
          {0x1.9p+5, 0x1.0b6db7366db3dp-11, 0x1.08b01688f3ab4p-11},
          0x1.e102b9916d2bep-17}}},
       0x8f90157d45d560f8ull},
      {"p1", 1,
       {{{0x1.5f6511efb9b57p+0, 0x1.d333333333333p-2,
          {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
          {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
          {0x1.9p+5, 0x1.0cdbb5bcc89a3p-16, 0x1.0cdbb5bcc89a3p-16},
          0x1.d298709c946c5p-16},
         {0x1.5cfe02c4c3e1fp+0, 0x1.ep-2,
          {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
          {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
          {0x1.9p+5, 0x1.0dd4d1696ecd4p-16, 0x1.0dd4d1696ecd4p-16},
          0x1.d44d4a2369356p-16},
         {0x1.5bf9910578622p+0, 0x1.d99999999999ap-2,
          {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
          {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
          {0x1.9p+5, 0x1.087ab933dcb4p-16, 0x1.087ab933dcb4p-16},
          0x1.caea9dbdd6e33p-16}}},
       0x7a9b862fdf5d0d41ull},
  };
}

TEST(SampledPin, FiniteFanoutEpochsMatchRecordedValues) {
  // Every value is compared with ==: losses, accuracies, overlap totals
  // and WorkMeter seconds as hex floats, meter charges as the exact
  // dyadic word counts every charge is. Three cases: four ranks on a
  // greedy-bfs partition with 12-seed batches (several batches per rank,
  // each built after the previous one's step), two ranks under the int8
  // codec, and one rank.
  const Graph multi = learnable_graph(180, 9, 10, 3, 53);
  const DistProblem multi_problem =
      DistProblem::prepare(multi, 4, "greedy-bfs");
  const GnnConfig multi_config = GnnConfig::three_layer(10, 3, 8);
  const Graph small = learnable_graph(160, 8, 10, 4, 47);
  const DistProblem small_problem = DistProblem::prepare(small);
  const GnnConfig small_config = GnnConfig::three_layer(10, 4, 8);
  RunConfig int8 = sampled({6, 4, 3}, 16);
  int8.compress = CompressMode::kInt8;

  const std::vector<SampledPinCase> got = {
      record_sampled("p4 greedy-bfs", multi_problem, multi_config, 4,
                     sampled({8, 5, 3}, 12)),
      record_sampled("p2 int8", small_problem, small_config, 2, int8),
      record_sampled("p1", small_problem, small_config, 1,
                     sampled({6, 4, 3}, 16)),
  };
  const std::vector<SampledPinCase> want = sampled_pins();
  std::string recorded;
  for (const SampledPinCase& g : got) recorded += pin_literal(g) + "\n";
  ASSERT_EQ(got.size(), want.size()) << "recorded now:\n" << recorded;
  const auto slot = [](std::size_t i) {
    return std::string(comm_category_name(static_cast<CommCategory>(i / 2))) +
           (i % 2 == 0 ? " latency" : " words");
  };
  for (std::size_t c = 0; c < got.size(); ++c) {
    const SampledPinCase& g = got[c];
    const SampledPinCase& w = want[c];
    SCOPED_TRACE(g.label + "; recorded now:\n" + pin_literal(g));
    ASSERT_EQ(g.label, w.label);
    for (std::size_t e = 0; e < g.epochs.size(); ++e) {
      const PinnedEpoch& ge = g.epochs[e];
      const PinnedEpoch& we = w.epochs[e];
      EXPECT_EQ(ge.loss, we.loss) << "epoch " << e;
      EXPECT_EQ(ge.accuracy, we.accuracy) << "epoch " << e;
      for (std::size_t i = 0; i < ge.meter.size(); ++i) {
        EXPECT_EQ(ge.meter[i], we.meter[i])
            << "epoch " << e << " rank 0 " << slot(i);
        EXPECT_EQ(ge.max_meter[i], we.max_meter[i])
            << "epoch " << e << " max " << slot(i);
      }
      for (std::size_t i = 0; i < ge.overlap.size(); ++i) {
        EXPECT_EQ(ge.overlap[i], we.overlap[i])
            << "epoch " << e << " overlap total " << i;
      }
      EXPECT_EQ(ge.work, we.work) << "epoch " << e;
    }
    EXPECT_EQ(g.weights_hash, w.weights_hash);
  }
}

}  // namespace
}  // namespace cagnet
