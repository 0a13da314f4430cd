// Determinism and cost-model invariance of the threaded, cached hot path.
//
// Two guarantees this PR's optimizations must never break:
//
//  1. Thread-count determinism: every kernel parallelizes over disjoint
//     output blocks whose per-element accumulation order is independent of
//     the chunk count, so training is bitwise identical under any
//     CAGNET_THREADS. (Verified via override_thread_budget, the in-process
//     form of the env var.)
//
//  2. Meter invariance of the epoch caches: the SUMMA sparse-block and
//     distributed-transpose caches replay the charges their first call
//     recorded (the forward blocks' first call is the set-up's layer-1
//     aggregate), so per-epoch CostMeter words/latency — the paper's
//     measurements — are exactly what the uncached (seed-behavior) path
//     charges, for every algebra and every epoch, epoch 1 included.
#include <gtest/gtest.h>

#include <mutex>
#include <string>
#include <vector>

#include "src/core/algebra_registry.hpp"
#include "src/graph/datasets.hpp"
#include "src/sparse/generate.hpp"
#include "src/util/parallel.hpp"

namespace cagnet {
namespace {

Graph make_graph(Index n, Index degree, Index f, Index classes,
                 std::uint64_t seed) {
  Rng rng(seed);
  Graph g;
  g.name = "determinism-test";
  g.adjacency = gcn_normalize(rmat(n, n * degree, rng), true);
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

struct TrainedState {
  std::vector<Real> losses;
  std::vector<Matrix> weights;
  Matrix output;
  // Per-epoch (latency, words) for every category, rank 0's view.
  std::vector<std::vector<double>> epoch_meters;
};

TrainedState train(const std::string& algebra, const DistProblem& problem,
                   const GnnConfig& config, int p, int epochs,
                   const RunConfig& mode = {}) {
  TrainedState state;
  std::mutex mutex;
  run_world(p, [&](Comm& world) {
    auto trainer = make_dist_trainer(algebra, problem, config, world, mode);
    std::vector<Real> losses;
    std::vector<std::vector<double>> meters;
    for (int e = 0; e < epochs; ++e) {
      losses.push_back(trainer->train_epoch().loss);
      const CostMeter& m = trainer->last_epoch_stats().comm;
      std::vector<double> row;
      for (std::size_t c = 0; c < CostMeter::kNumCategories; ++c) {
        const auto cat = static_cast<CommCategory>(c);
        row.push_back(m.latency_units(cat));
        row.push_back(m.words(cat));
      }
      meters.push_back(std::move(row));
    }
    Matrix out = trainer->gather_output();
    if (world.rank() == 0) {
      std::lock_guard<std::mutex> lock(mutex);
      state.losses = std::move(losses);
      state.weights = trainer->weights();
      state.output = std::move(out);
      state.epoch_meters = std::move(meters);
    }
  });
  return state;
}

void expect_bitwise_equal(const TrainedState& a, const TrainedState& b,
                          const std::string& label) {
  ASSERT_EQ(a.losses.size(), b.losses.size()) << label;
  for (std::size_t e = 0; e < a.losses.size(); ++e) {
    EXPECT_EQ(a.losses[e], b.losses[e]) << label << " loss, epoch " << e;
  }
  ASSERT_EQ(a.weights.size(), b.weights.size()) << label;
  for (std::size_t l = 0; l < a.weights.size(); ++l) {
    EXPECT_LE(Matrix::max_abs_diff(a.weights[l], b.weights[l]), Real{0})
        << label << " weights, layer " << l;
  }
  EXPECT_LE(Matrix::max_abs_diff(a.output, b.output), Real{0})
      << label << " output";
}

/// Representative world per algebra, kept small so the whole suite stays
/// fast: the single-process worlds carry blocks large enough that the
/// kernels genuinely chunk under an 8-thread budget.
std::vector<std::pair<std::string, int>> determinism_cases() {
  return {{"1d", 1},      {"1d", 4},      {"1.5d-c2", 4}, {"1.5d-c4", 4},
          {"2d", 1},      {"2d", 4},      {"3d", 1},      {"3d", 8}};
}

TEST(ThreadDeterminism, TrainingBitwiseIdenticalAcrossThreadCounts) {
  // Large enough single-rank blocks that spmm/gemm really split into
  // multiple chunks at budget 8 (the minimum-work clamp is ~256k flops).
  const Graph g = make_graph(1024, 16, 32, 6, 71);
  const DistProblem problem = DistProblem::prepare(g);
  GnnConfig config = GnnConfig::three_layer(32, 6, 32);

  for (const auto& [algebra, p] : determinism_cases()) {
    override_thread_budget(1);
    const TrainedState serial = train(algebra, problem, config, p, 3);
    override_thread_budget(8);
    const TrainedState threaded = train(algebra, problem, config, p, 3);
    override_thread_budget(0);
    expect_bitwise_equal(serial, threaded,
                         algebra + " p=" + std::to_string(p));
  }
}

TEST(EpochCacheMeter, CachedChargesBitwiseMatchUncachedSeedBehavior) {
  const Graph g = make_graph(192, 8, 12, 4, 72);
  const DistProblem problem = DistProblem::prepare(g);
  GnnConfig config = GnnConfig::three_layer(12, 4, 8);
  const int epochs = 3;

  for (const AlgebraSpec& spec : algebra_registry()) {
    int p = 0;
    for (int candidate : spec.world_sizes) {
      if (candidate > 1 && candidate <= 9) p = candidate;
    }
    ASSERT_GT(p, 0) << spec.name;

    RunConfig uncached_mode;
    uncached_mode.epoch_cache = false;
    const TrainedState cached = train(spec.name, problem, config, p, epochs);
    const TrainedState uncached =
        train(spec.name, problem, config, p, epochs, uncached_mode);

    // The cached path must charge exactly the uncached (seed) meters for
    // every epoch and category — latency units and words bitwise equal.
    ASSERT_EQ(cached.epoch_meters.size(), uncached.epoch_meters.size());
    for (std::size_t e = 0; e < cached.epoch_meters.size(); ++e) {
      ASSERT_EQ(cached.epoch_meters[e].size(),
                uncached.epoch_meters[e].size());
      for (std::size_t i = 0; i < cached.epoch_meters[e].size(); ++i) {
        EXPECT_EQ(cached.epoch_meters[e][i], uncached.epoch_meters[e][i])
            << spec.name << " p=" << p << " epoch " << e << " slot " << i;
      }
    }
    // And the training itself must be unaffected by the cache.
    expect_bitwise_equal(cached, uncached, spec.name + " cache on/off");
  }
}

TEST(EpochCacheMeter, RepeatedEpochsChargeIdenticalMeters) {
  // Within one cached run, every epoch must charge exactly the same
  // words/latency (the adjacency traffic is epoch-invariant and the dense
  // traffic sizes never change). Bounded staleness (RunConfig::stale_k)
  // makes halo traffic epoch-VARIANT by design — refresh epochs charge
  // kHalo, replay epochs don't — so this holds on the exact schedule.
  const Graph g = make_graph(128, 8, 10, 3, 73);
  const DistProblem problem = DistProblem::prepare(g);
  GnnConfig config = GnnConfig::three_layer(10, 3, 6);
  for (const auto& [algebra, p] :
       {std::pair<std::string, int>{"2d", 4}, {"3d", 8}, {"1.5d-c2", 4}}) {
    const TrainedState run = train(algebra, problem, config, p, 4);
    for (std::size_t e = 1; e < run.epoch_meters.size(); ++e) {
      for (std::size_t i = 0; i < run.epoch_meters[e].size(); ++i) {
        EXPECT_EQ(run.epoch_meters[0][i], run.epoch_meters[e][i])
            << algebra << " epoch " << e << " slot " << i;
      }
    }
  }
}

}  // namespace
}  // namespace cagnet
