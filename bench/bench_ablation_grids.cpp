// Ablations of the design choices Section IV discusses but does not
// implement (DESIGN.md experiment E9):
//
//   (a) Rectangular 2D grids (Section IV-C.6): a Pr > Pc grid trades
//       sparse-broadcast words (nnz/Pr) for dense words (nf/Pc + nf/Pr);
//       the paper argues the square minimizes the dense sum ("square has
//       the smallest perimeter") and keeps to square grids. The table
//       shows where a rectangular grid *would* pay off: d >> f.
//   (b) 1.5D replication (Section IV-B): metered words and per-rank memory
//       of Algebra15D at c in {1, 2, 4, 8}, on one world size. Communication
//       falls ~1/c while the dense memory grows c-fold — the trade the
//       paper deems unattractive for GNNs (d = O(f)), visible here.
#include <cstdio>

#include "bench/bench_common.hpp"
#include "src/core/costmodel.hpp"
#include "src/core/dist15d.hpp"
#include "src/graph/datasets.hpp"
#include "src/util/cli.hpp"

using namespace cagnet;

static int run(int argc, char** argv) {
  const CliArgs args(argc, argv);

  std::printf("=== (a) rectangular 2D grids, forward-propagation words "
              "(closed form, P=64) ===\n\n");
  struct Shape {
    const char* label;
    double n, d, f;
  };
  const Shape shapes[] = {
      {"amazon-like  (d=24.6 << f=300)", 9.43e6, 24.6, 300},
      {"protein-like (d=121 ~ f=128)", 8.75e6, 121, 128},
      {"degree-heavy (d=500 >> f=16)", 1e6, 500, 16},
  };
  for (const Shape& s : shapes) {
    std::printf("%s\n", s.label);
    std::printf("  %8s %14s %14s %14s\n", "Pr x Pc", "sparse words",
                "dense words", "total");
    CostInputs in;
    in.n = s.n;
    in.nnz = s.d * s.n;
    in.f = s.f;
    in.p = 64;
    in.layers = 1;
    for (const auto [pr, pc] : {std::pair<int, int>{2, 32},
                                {4, 16},
                                {8, 8},
                                {16, 4},
                                {32, 2}}) {
      const double sparse = in.nnz / pr;
      const double dense = in.n * in.f / pc + in.n * in.f / pr;
      std::printf("  %3dx%-4d %14.3e %14.3e %14.3e%s\n", pr, pc, sparse,
                  dense, sparse + dense,
                  (pr == 8 && pc == 8) ? "   <- square" : "");
    }
    std::printf("\n");
  }

  std::printf("=== (b) 1.5D replication ablation (metered, P=16) ===\n\n");
  SyntheticOptions opt;
  opt.scale = 1.0 / 1024;
  opt.max_features = 64;
  const Graph g = make_dataset("amazon", opt);
  const GnnConfig config =
      GnnConfig::three_layer(g.feature_dim(), g.num_classes);
  const DistProblem problem = DistProblem::prepare(g);
  const RunConfig run = RunConfig::from_env();
  const MachineModel summit = MachineModel::summit();
  const double n = static_cast<double>(g.num_vertices());
  const double f = static_cast<double>(g.feature_dim());

  // set-up words: layer 1's aggregate A^T X, moved once at set-up and in
  // none of the epoch columns (the paper's epochs move it every epoch).
  std::printf("%3s %16s %14s %18s %10s %14s\n", "c", "dense words/rank",
              "modeled ms", "H-memory words/rank", "loss", "set-up words");
  for (int c : {1, 2, 4, 8}) {
    double words = 0;
    double ms = 0;
    double setup_words = 0;
    Real loss = 0;
    run_world(16, [&](Comm& world) {
      EpochStats setup;
      const auto trainer = build_metered(world, setup.comm, [&] {
        return std::make_unique<DistEngine>(
            problem, config,
            std::make_unique<Algebra15D>(problem, world, c, run,
                                         MachineModel::summit()));
      });
      setup = EpochStats::reduce_max(setup, world);
      EpochResult r{};
      for (int e = 0; e < 2; ++e) r = trainer->train_epoch();
      const EpochStats s =
          trainer->reduce_epoch_stats();
      if (world.rank() == 0) {
        words = s.comm.words(CommCategory::kDense);
        ms = 1e3 * s.comm.modeled_seconds(summit);
        setup_words = bench::setup_words(setup);
        loss = r.loss;
      }
    });
    // Per-rank H storage: block rows n/(P/c) x f, i.e. c-fold replication.
    const double h_mem = n * f / (16.0 / c);
    std::printf("%3d %16.3e %14.3f %18.3e %10.4f %14.3e\n", c, words, ms,
                h_mem, loss, setup_words);
  }
  std::printf("\nExpected: dense words fall roughly as 1/c (until the\n"
              "team-reduction terms bite) while the dense memory footprint\n"
              "rises c-fold — Section IV-B's trade-off. Losses identical:\n"
              "every c computes the same training.\n");
  return 0;
}

int main(int argc, char** argv) { return run_main(argc, argv, run); }
