// Regenerates Fig. 2: epoch throughput of the 2D implementation across
// GPU counts, for amazon (16/36/64), reddit (4/16/36/64), and protein
// (36/64/100).
//
// The paper-comparable series is the *modeled* epochs/sec (alpha-beta
// communication on Summit constants + V100-modeled local kernels); the
// host column is the wall time of the simulation on this machine and is
// reported only for transparency. The expected shape: throughput rises
// with P on every dataset (the paper reports 1.8x from 16 to 64 on
// amazon, and ~1.65x communication reduction from 36 to 100 on protein).
#include <cstdio>

#include "bench/bench_common.hpp"

using namespace cagnet;

static int run(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const int epochs = static_cast<int>(args.get_int("epochs", 1));

  std::printf("=== Fig. 2: epoch throughput of the 2D implementation ===\n");
  std::printf("(modeled = Summit alpha-beta + V100 kernel model, metered on\n"
              " a scaled replica and extrapolated to full Table VI size —\n"
              " the paper-comparable y-axis. host = this machine's\n"
              " simulation wall time, for transparency only.)\n\n");
  std::printf("(set-up words = layer 1's aggregate A^T X per process, moved\n"
              " once at set-up; the paper's epochs move it every epoch.)\n\n");
  std::printf("%-9s %5s %18s %18s %12s %14s\n", "dataset", "P",
              "modeled epochs/s", "host epochs/s", "final loss",
              "set-up words");
  std::printf("----------------------------------------------------------------"
              "----------------\n");

  for (const char* name : {"amazon", "reddit", "protein"}) {
    const bench::ScaledDataset g = bench::load_scaled(name, args);
    std::vector<bench::Fig2Point> points;
    for (long p : bench::paper_proc_list(name)) {
      points.push_back(bench::run_2d(g, static_cast<int>(p), epochs));
      const bench::Fig2Point& pt = points.back();
      std::printf("%-9s %5ld %18.3f %18.3f %12.4f %14.3e\n", name, p,
                  1.0 / pt.modeled_epoch_seconds,
                  1.0 / pt.host_epoch_seconds, pt.loss,
                  bench::setup_words(pt.setup));
    }
    std::printf("  -> speedup %d -> %d procs: %.2fx (paper: amazon 16->64 "
                "= 1.8x)\n\n",
                points.front().procs, points.back().procs,
                points.front().modeled_epoch_seconds /
                    points.back().modeled_epoch_seconds);
  }
  return 0;
}

int main(int argc, char** argv) { return run_main(argc, argv, run); }
