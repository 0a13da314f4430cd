// Shared machinery for the table/figure regeneration harnesses.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "src/core/algebra_registry.hpp"
#include "src/graph/datasets.hpp"
#include "src/util/cli.hpp"
#include "src/util/timer.hpp"

namespace cagnet::bench {

/// A generated dataset plus the factor by which it was shrunk from the
/// paper's Table VI size.
struct ScaledDataset {
  Graph graph;
  double denominator = 1.0;
};

/// Result of training one configuration with the 2D implementation.
struct Fig2Point {
  std::string dataset;
  int procs = 0;
  double modeled_epoch_seconds = 0;  ///< extrapolated to full Table VI scale
  double host_epoch_seconds = 0;     ///< wall time on this host (simulation)
  EpochStats stats;                  ///< max-reduced final-epoch stats
  EpochStats setup;                  ///< max-reduced set-up meter
  double denominator = 1.0;
  Real loss = 0;
};

/// The set-up words a per-epoch figure of the paper would count: every
/// category but kControl.
inline double setup_words(const EpochStats& setup) {
  return setup.comm.total_words() - setup.comm.words(CommCategory::kControl);
}

/// Extrapolated Summit seconds for one traffic category.
///
/// The simulation runs a 1/denominator-scale replica; every bandwidth and
/// flop quantity is linear in (n, nnz) at fixed P and f, so multiplying the
/// beta/work terms by the denominator recovers the full-scale cost, while
/// latency (alpha) terms depend only on P and the stage structure and are
/// kept as metered. Local-kernel *rates* depend on average degree and dense
/// width, both preserved by the scaling rule, so the extrapolation is
/// rate-faithful. (The f^2 all-reduce terms, which do not grow with n, are
/// conservatively scaled along; they are orders of magnitude too small to
/// matter.)
inline double extrapolated_seconds(const CostMeter& comm,
                                   const MachineModel& m, CommCategory cat,
                                   double denominator) {
  if (cat == CommCategory::kControl) return 0.0;
  return m.alpha * comm.latency_units(cat) +
         m.beta * comm.words(cat) * denominator;
}

inline double extrapolated_total_seconds(const EpochStats& stats,
                                         const MachineModel& m,
                                         double denominator) {
  double total = stats.work.total_seconds() * denominator;
  for (std::size_t c = 0; c < CostMeter::kNumCategories; ++c) {
    total += extrapolated_seconds(stats.comm, m,
                                  static_cast<CommCategory>(c), denominator);
  }
  return total;
}

/// Train `epochs` epochs of the paper's 3-layer GCN on the scaled dataset
/// with the 2D algorithm on `procs` simulated processes.
inline Fig2Point run_2d(const ScaledDataset& data, int procs, int epochs,
                        Index hidden = 16) {
  const Graph& graph = data.graph;
  const GnnConfig config =
      GnnConfig::three_layer(graph.feature_dim(), graph.num_classes, hidden);
  const DistProblem problem = DistProblem::prepare(graph);
  const RunConfig run = RunConfig::from_env();
  const MachineModel summit = MachineModel::summit();

  Fig2Point point;
  point.dataset = graph.name;
  point.procs = procs;
  point.denominator = data.denominator;

  WallTimer wall;
  run_world(procs, [&](Comm& world) {
    EpochStats setup;
    const auto trainer = build_metered(world, setup.comm, [&] {
      return make_dist_trainer("2d", problem, config, world, run);
    });
    setup = EpochStats::reduce_max(setup, world);
    EpochResult r{};
    for (int e = 0; e < epochs; ++e) r = trainer->train_epoch();
    const EpochStats s =
        trainer->reduce_epoch_stats();
    if (world.rank() == 0) {
      point.stats = s;
      point.setup = setup;
      point.loss = r.loss;
      point.modeled_epoch_seconds =
          extrapolated_total_seconds(s, summit, data.denominator);
    }
  });
  point.host_epoch_seconds = wall.seconds() / epochs;
  return point;
}

/// The per-dataset GPU counts of Figs. 2-3 (paper Section V-C: amazon does
/// not fit below 16 devices, protein below 36).
inline std::vector<long> paper_proc_list(const std::string& dataset) {
  if (dataset == "reddit") return {4, 16, 36, 64};
  if (dataset == "amazon") return {16, 36, 64};
  return {36, 64, 100};  // protein
}

/// Default generation scale per dataset, sized for a ~20 GB host while
/// keeping every P in the paper's list meaningful (n >> P^(3/2)).
inline double default_denominator(const std::string& dataset) {
  if (dataset == "reddit") return 128;  // density grows as n shrinks
  if (dataset == "amazon") return 256;
  return 256;                           // protein
}

/// The flags of load_scaled, read once up front: --scale-denominator (0,
/// the default, picks default_denominator) and --seed.
struct ScaleFlags {
  explicit ScaleFlags(const CliArgs& args)
      : denominator(args.get_double("scale-denominator", 0)),
        seed(static_cast<std::uint64_t>(args.get_int("seed", 42))) {}
  double denominator;
  std::uint64_t seed;
};

inline ScaledDataset load_scaled(const std::string& dataset,
                                 const ScaleFlags& flags) {
  ScaledDataset out;
  out.denominator = flags.denominator > 0 ? flags.denominator
                                          : default_denominator(dataset);
  SyntheticOptions opt;
  opt.scale = 1.0 / out.denominator;
  opt.seed = flags.seed;
  out.graph = make_dataset(dataset, opt);
  return out;
}

}  // namespace cagnet::bench
