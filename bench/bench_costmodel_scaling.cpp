// Regenerates the Section IV / VI-d communication comparisons:
//   (a) words-per-epoch of 1D / 1.5D / 2D / 3D at full Table VI sizes,
//       via the closed forms (no memory needed);
//   (b) the "(5/sqrt(P)) of 1D" ratio and the sqrt(P) >= 5 crossover that
//       explains why <= 16-GPU studies (NeuGraph, ROC) can't see the 2D
//       advantage (Section VI-d);
//   (c) a metered-vs-analytical cross-check: the actual trainers' counted
//       traffic against the formulas, on scaled graphs at small P.
#include <cmath>
#include <cstdio>

#include "bench/bench_common.hpp"
#include "src/core/algebra_registry.hpp"
#include "src/core/costmodel.hpp"

using namespace cagnet;

namespace {

void closed_form_table(const DatasetSpec& spec) {
  std::printf("\n--- %s (n=%.3e, nnz=%.3e, f=%.0f, L=3) ---\n",
              spec.name.c_str(), static_cast<double>(spec.vertices),
              static_cast<double>(spec.edges),
              static_cast<double>(spec.features));
  std::printf("%6s %12s %12s %12s %12s %10s %12s\n", "P", "1D", "1.5D(c=4)",
              "2D", "3D", "2D/1D", "5/sqrt(P)");
  for (long p : {4L, 16L, 36L, 64L, 100L, 256L, 1024L, 4096L}) {
    const CostInputs in = CostInputs::from_random(
        static_cast<double>(spec.vertices), static_cast<double>(spec.edges),
        static_cast<double>(spec.features), static_cast<int>(p), 3);
    const double w1 = cost_1d(in).words;
    const double w15 = cost_15d(in, 4).words;
    const double w2 = cost_2d(in).words;
    const double w3 = cost_3d(in).words;
    std::printf("%6ld %12.3e %12.3e %12.3e %12.3e %10.3f %12.3f%s\n", p, w1,
                w15, w2, w3, w2 / w1, 5.0 / std::sqrt(static_cast<double>(p)),
                w2 < w1 ? "  << 2D wins" : "");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);

  std::printf("=== Sections IV & VI-d: communication scaling of the "
              "algorithm families ===\n");
  std::printf("(words moved per process per epoch, closed forms at FULL "
              "Table VI sizes)\n");
  for (const DatasetSpec& spec : paper_datasets()) closed_form_table(spec);

  std::printf("\nNote the crossover: 2D/1D beats 1.0 once sqrt(P) > 5 under"
              "\nthe nnz~nf regime — at 8-16 GPUs (NeuGraph/ROC scale) 1D\n"
              "still wins, exactly the paper's Section VI-d argument.\n");

  // ---- metered vs analytical cross-check ----
  std::printf("\n=== metered traffic vs closed forms (scaled graphs, small P)"
              " ===\n");
  SyntheticOptions opt;
  opt.scale = 1.0 / 1024;
  opt.max_features = 64;
  const Graph g = make_dataset("amazon", opt);
  const double n = static_cast<double>(g.num_vertices());
  const double nnz = static_cast<double>(g.num_edges());
  // Uniform layer width makes the closed form exact per layer.
  GnnConfig config;
  config.dims = {g.feature_dim(), g.feature_dim(), g.feature_dim(),
                 g.num_classes};
  const double favg = static_cast<double>(g.feature_dim());
  const DistProblem problem = DistProblem::prepare(g);
  const RunConfig run = RunConfig::from_env();

  std::printf("%-5s %4s %14s %14s %8s\n", "algo", "P", "metered dense",
              "predicted", "ratio");
  for (long p : {4L, 8L, 16L}) {
    double metered = 0;
    run_world(static_cast<int>(p), [&](Comm& world) {
      const auto trainer = make_dist_trainer("1d", problem, config, world, run);
      trainer->train_epoch();
      const EpochStats s =
          trainer->reduce_epoch_stats();
      if (world.rank() == 0) metered = s.comm.words(CommCategory::kDense);
    });
    const CostInputs in = CostInputs::from_random(
        n, nnz, favg, static_cast<int>(p), 3);
    const double predicted = cost_1d(in).words;
    std::printf("%-5s %4ld %14.3e %14.3e %8.3f\n", "1D", p, metered,
                predicted, metered / predicted);
  }
  for (long p : {4L, 16L, 36L}) {
    const bench::Fig2Point pt = [&] {
      bench::Fig2Point out;
      const MachineModel summit = MachineModel::summit();
      run_world(static_cast<int>(p), [&](Comm& world) {
        const auto trainer =
            make_dist_trainer("2d", problem, config, world, run);
        trainer->train_epoch();
        const EpochStats s =
            trainer->reduce_epoch_stats();
        if (world.rank() == 0) {
          out.stats = s;
          out.modeled_epoch_seconds = s.modeled_seconds(summit);
        }
      });
      return out;
    }();
    const CostInputs in = CostInputs::from_random(
        n, nnz, favg, static_cast<int>(p), 3);
    // The 2D closed form's dense part: 8nf/sqrt(P) + f^2 per layer.
    const double rp = std::sqrt(static_cast<double>(p));
    const double predicted = 3.0 * (8.0 * n * favg / rp + favg * favg);
    std::printf("%-5s %4ld %14.3e %14.3e %8.3f\n", "2D", p,
                pt.stats.comm.words(CommCategory::kDense), predicted,
                pt.stats.comm.words(CommCategory::kDense) / predicted);
  }
  std::printf(
      "\n1D ratios sit near 1: Algorithm 1's broadcasts realize the\n"
      "edgecut*f + nf + f^2 form directly. 2D ratios sit near 0.5 and are\n"
      "*stable in P*: the paper's 8nf/sqrt(P) constant is deliberately\n"
      "conservative (Section IV-C5 'to reduce clutter'), while the\n"
      "implementation reuses the AG^l all-gather for both Y^l and G^(l-1)\n"
      "and moves ~4nf/sqrt(P) per layer. Constant offsets do not affect\n"
      "any scaling conclusion; the sqrt(P) slope is what matters and it\n"
      "matches (see the P-sweep above).\n");
  return 0;
}
