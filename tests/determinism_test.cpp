// Determinism and cost-model invariance of the threaded hot path.
//
// Two guarantees its optimizations must never break:
//
//  1. Thread-count determinism: every kernel parallelizes over disjoint
//     output blocks whose per-element accumulation order is independent of
//     the chunk count, so training is bitwise identical under any
//     CAGNET_THREADS. (Verified via override_thread_budget, the in-process
//     form of the env var.)
//
//  2. Meter invariance of set-up receipt: the 2D/3D families receive
//     their SUMMA stage blocks and transpose A at construction, and every
//     call replays the recorded charges where the pipelined per-epoch
//     receipt took them. Per-epoch CostMeter words, latency units and
//     overlap totals — the paper's measurements and the modeled time —
//     are therefore exactly what that per-epoch path charged (pinned
//     below as literals), for every algebra and every epoch, epoch 1
//     included.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
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
  // Per-epoch {regions, serialized s, overlapped s}, rank 0's view.
  std::vector<std::array<double, 3>> epoch_overlap;
};

TrainedState train(const std::string& algebra, const DistProblem& problem,
                   const GnnConfig& config, int p, int epochs) {
  TrainedState state;
  std::mutex mutex;
  run_world(p, [&](Comm& world) {
    auto trainer =
        make_dist_trainer(algebra, problem, config, world, RunConfig{});
    std::vector<Real> losses;
    std::vector<std::vector<double>> meters;
    std::vector<std::array<double, 3>> overlap;
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
      overlap.push_back({m.overlap_regions(), m.overlap_serialized_seconds(),
                         m.overlap_overlapped_seconds()});
    }
    Matrix out = trainer->gather_output();
    if (world.rank() == 0) {
      std::lock_guard<std::mutex> lock(mutex);
      state.losses = std::move(losses);
      state.weights = trainer->weights();
      state.output = std::move(out);
      state.epoch_meters = std::move(meters);
      state.epoch_overlap = std::move(overlap);
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

/// What the per-epoch SUMMA receipt (every call broadcasting its stage
/// blocks, every epoch transposing A and back) charged, recorded from
/// that path before the blocks moved to set-up: rank 0's {latency units,
/// words} per category in enum order (dense, sparse, trpose, halo,
/// compressed, control), which each epoch charges, and its per-epoch
/// overlap totals {regions, serialized s, overlapped s}. Those are
/// differences of the run's cumulative double sums, so their last bits
/// move from epoch to epoch, the same way in every family.
struct UncachedPin {
  std::string algebra;
  int p = 0;
  std::array<double, 2 * CostMeter::kNumCategories> meter;
  std::array<std::array<double, 3>, 3> overlap;
};

/// At make_graph(192, 8, 12, 4, 72), three_layer(12, 4, 8), three
/// epochs, each algebra on its largest registered world of 2..9 ranks.
std::vector<UncachedPin> uncached_pins() {
  return {
      {"1d", 8, {72, 5424, 0, 0, 0, 0, 0, 0, 0, 0, 6, 3.5},
       {{{0x1p+4, 0x1.ba26c52ea1896p-11, 0x1.b90c295129d7p-11},
         {0x1p+4, 0x1.ba26c52ea1894p-11, 0x1.b90c295129d72p-11},
         {0x1p+4, 0x1.ba26c52ea1888p-11, 0x1.b90c295129d88p-11}}}},
      {"1.5d-c2", 8, {30, 4032, 0, 0, 0, 0, 0, 0, 0, 0, 6, 3.5},
       {{{0x1.8p+3, 0x1.56e1f58561b52p-14, 0x1.542f2088036e6p-14},
         {0x1.8p+3, 0x1.56e1f58561b56p-14, 0x1.542f2088036e2p-14},
         {0x1.8p+3, 0x1.56e1f58561b4ap-14, 0x1.542f2088036e8p-14}}}},
      {"1.5d-c4", 8, {22, 5760, 0, 0, 0, 0, 0, 0, 0, 0, 6, 3.5},
       {{{0x1.4p+3, 0x1.060e95fba8894p-19, 0x1.05cabaf4b645cp-19},
         {0x1.4p+3, 0x1.060e95fba8893p-19, 0x1.05cabaf4b645bp-19},
         {0x1.4p+3, 0x1.060e95fba8894p-19, 0x1.05cabaf4b645cp-19}}}},
      {"2d", 9, {64, 4071.75, 96, 6296, 0, 0, 0, 0, 0, 0, 8, 3.5},
       {{{0x1.2p+4, 0x1.7aa6cd4c9442fp-10, 0x1.7a38b4bbddce4p-10},
         {0x1.2p+4, 0x1.7aa6cd4c9443p-10, 0x1.7a38b4bbddce9p-10},
         {0x1.2p+4, 0x1.7aa6cd4c94436p-10, 0x1.7a38b4bbddcf4p-10}}}},
      {"3d", 8, {36, 3792, 32, 5296, 8, 520, 0, 0, 0, 0, 6, 3.5},
       {{{0x1.8p+3, 0x1.7e2e664d0563cp-12, 0x1.7c878681a8a1ep-12},
         {0x1.8p+3, 0x1.7e2e664d05638p-12, 0x1.7c878681a8a1ap-12},
         {0x1.8p+3, 0x1.7e2e664d05636p-12, 0x1.7c878681a8a18p-12}}}},
  };
}

TEST(EpochCacheMeter, CachedChargesBitwiseMatchUncachedSeedBehavior) {
  const Graph g = make_graph(192, 8, 12, 4, 72);
  const DistProblem problem = DistProblem::prepare(g);
  GnnConfig config = GnnConfig::three_layer(12, 4, 8);
  const int epochs = 3;

  const std::vector<UncachedPin> pins = uncached_pins();
  for (const AlgebraSpec& spec : algebra_registry()) {
    int p = 0;
    for (int candidate : spec.world_sizes) {
      if (candidate > 1 && candidate <= 9) p = candidate;
    }
    ASSERT_GT(p, 0) << spec.name;
    const auto pin = std::find_if(pins.begin(), pins.end(), [&](const auto& x) {
      return x.algebra == spec.name;
    });
    ASSERT_NE(pin, pins.end()) << "no pin for " << spec.name;
    ASSERT_EQ(pin->p, p) << spec.name;

    // Every epoch, epoch 1 included, charges exactly what the per-epoch
    // receipt charged: latency units, words and overlap totals bitwise.
    const TrainedState run = train(spec.name, problem, config, p, epochs);
    ASSERT_EQ(run.epoch_meters.size(), static_cast<std::size_t>(epochs));
    for (std::size_t e = 0; e < run.epoch_meters.size(); ++e) {
      ASSERT_EQ(run.epoch_meters[e].size(), pin->meter.size());
      for (std::size_t i = 0; i < pin->meter.size(); ++i) {
        EXPECT_EQ(run.epoch_meters[e][i], pin->meter[i])
            << spec.name << " p=" << p << " epoch " << e << " slot " << i;
      }
      for (std::size_t k = 0; k < 3; ++k) {
        EXPECT_EQ(run.epoch_overlap[e][k], pin->overlap[e][k])
            << spec.name << " p=" << p << " epoch " << e << " overlap "
            << k;
      }
    }
  }
}

TEST(EpochCacheMeter, RepeatedEpochsChargeIdenticalMeters) {
  // Within one run, every epoch must charge exactly the same
  // words/latency (the adjacency traffic is epoch-invariant and the dense
  // traffic sizes never change), and record the same overlap regions:
  // epoch 1 is no different from the rest. The overlap seconds are
  // differences of the run's cumulative sums, which round differently
  // from epoch to epoch (a few ulps; see UncachedPin), so they are
  // compared to 1e-12 relative, far below the gap a replay outside the
  // overlap regions opens. Bounded staleness (RunConfig::stale_k) makes
  // halo traffic epoch-VARIANT by design — refresh epochs charge kHalo,
  // replay epochs don't — so this holds on the exact schedule.
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
      const auto& first = run.epoch_overlap[0];
      const auto& now = run.epoch_overlap[e];
      EXPECT_EQ(first[0], now[0]) << algebra << " epoch " << e << " regions";
      for (std::size_t k = 1; k < 3; ++k) {
        EXPECT_NEAR(first[k], now[k], 1e-12 * first[k])
            << algebra << " epoch " << e << " overlap " << k;
      }
    }
  }
}

}  // namespace
}  // namespace cagnet
