// Regenerates Fig. 3: per-epoch time breakdown of the 2D implementation
// into misc / trpose / dcomm / scomm / spmm, across GPU counts for
// amazon, reddit, and protein.
//
// Communication phases (dcomm, scomm, trpose) are the metered alpha-beta
// traffic converted to Summit seconds; spmm and misc (GEMM + elementwise)
// come from the V100 kernel model. Expected shapes (paper Section VI):
//   amazon : dcomm dominates and falls ~2x for 4x more devices; scomm is
//            latency-bound and does not scale.
//   reddit : spmm dominates at small P and scales (paper: 5.23x from 4 to
//            64); communication is latency-bound.
//   protein: total communication falls ~1.65x from 36 to 100.
#include <cstdio>

#include "bench/bench_common.hpp"

using namespace cagnet;

static int run(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const int epochs = static_cast<int>(args.get_int("epochs", 1));
  const bench::ScaleFlags scale(args);
  args.reject_unread();
  const MachineModel summit = MachineModel::summit();

  std::printf("=== Fig. 3: per-epoch breakdown of the 2D implementation "
              "(modeled Summit seconds) ===\n\n");
  // The halo column is the kHalo category's modeled seconds: zero for the
  // 2D family (which has no halo path), but reported so a run of this
  // breakdown under a halo-enabled algebra cannot silently fold
  // demand-driven exchange traffic into another column.
  // set-up words: layer 1's aggregate A^T X per process, moved once at
  // set-up and in none of the epoch columns (the paper's epochs move it
  // every epoch).
  std::printf("%-9s %5s %10s %10s %10s %10s %10s %10s %10s %13s\n",
              "dataset", "P", "misc", "trpose", "dcomm", "scomm", "halo",
              "spmm", "total", "set-up words");
  std::printf("----------------------------------------------------------------"
              "---------------------------------------\n");

  for (const char* name : {"amazon", "reddit", "protein"}) {
    const bench::ScaledDataset g = bench::load_scaled(name, scale);
    std::vector<bench::Fig2Point> points;
    for (long p : bench::paper_proc_list(name)) {
      points.push_back(bench::run_2d(g, static_cast<int>(p), epochs));
      const EpochStats& s = points.back().stats;
      const double denom = points.back().denominator;
      const double misc = s.work.gemm_seconds() * denom;
      const double trpose = bench::extrapolated_seconds(
          s.comm, summit, CommCategory::kTranspose, denom);
      const double dcomm = bench::extrapolated_seconds(
          s.comm, summit, CommCategory::kDense, denom);
      const double scomm = bench::extrapolated_seconds(
          s.comm, summit, CommCategory::kSparse, denom);
      const double halo = bench::extrapolated_seconds(
          s.comm, summit, CommCategory::kHalo, denom);
      const double spmm = s.work.spmm_seconds() * denom;
      std::printf("%-9s %5ld %10.4f %10.4f %10.4f %10.4f %10.4f %10.4f "
                  "%10.4f %13.3e\n",
                  name, p, misc, trpose, dcomm, scomm, halo, spmm,
                  misc + trpose + dcomm + scomm + halo + spmm,
                  bench::setup_words(points.back().setup));
    }
    // Paper's headline per-dataset scaling observations.
    const EpochStats& first = points.front().stats;
    const EpochStats& final = points.back().stats;
    const double denom = points.front().denominator;
    const double dcomm_ratio =
        bench::extrapolated_seconds(first.comm, summit, CommCategory::kDense,
                                    denom) /
        bench::extrapolated_seconds(final.comm, summit, CommCategory::kDense,
                                    denom);
    const double spmm_ratio =
        first.work.spmm_seconds() / final.work.spmm_seconds();
    const auto total_comm = [&](const EpochStats& s) {
      return bench::extrapolated_seconds(s.comm, summit,
                                         CommCategory::kDense, denom) +
             bench::extrapolated_seconds(s.comm, summit,
                                         CommCategory::kSparse, denom) +
             bench::extrapolated_seconds(s.comm, summit,
                                         CommCategory::kTranspose, denom) +
             bench::extrapolated_seconds(s.comm, summit,
                                         CommCategory::kHalo, denom);
    };
    const double comm_ratio = total_comm(first) / total_comm(final);
    std::printf("  -> %s: dcomm %d->%d: %.2fx | spmm: %.2fx | total comm: "
                "%.2fx\n",
                name, points.front().procs, points.back().procs, dcomm_ratio,
                spmm_ratio, comm_ratio);
    if (std::string(name) == "amazon") {
      std::printf("     (paper: dcomm falls ~2x for 4x devices)\n");
    } else if (std::string(name) == "reddit") {
      std::printf("     (paper: spmm scales 5.23x from 4 to 64)\n");
    } else {
      std::printf("     (paper: total comm falls ~1.65x from 36 to 100)\n");
    }
    std::printf("\n");
  }
  std::printf("host-measured per-phase seconds (this machine's simulation;\n"
              "shape only, absolute values are not Summit-comparable):\n");
  {
    const bench::ScaledDataset g = bench::load_scaled("reddit", scale);
    for (long p : {4L, 16L}) {
      const bench::Fig2Point pt =
          bench::run_2d(g, static_cast<int>(p), epochs);
      std::printf("  reddit P=%ld: %s\n", p,
                  pt.stats.profiler.to_string().c_str());
    }
  }
  return 0;
}

int main(int argc, char** argv) { return run_main(argc, argv, run); }
