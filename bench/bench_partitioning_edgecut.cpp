// Regenerates the Section IV-A.8 graph-partitioning study.
//
// The paper runs METIS on Reddit at 64 processes and observes:
//   - total edge cut:   3,258,385 vs 11,761,151 random  (72% reduction)
//   - max per-process:    131,286 vs    185,823 random  (29% reduction)
// i.e. a locality partitioner helps the *total* far more than the *max*,
// and the bulk-synchronous runtime is dictated by the max. We reproduce
// the phenomenon with the greedy BFS partitioner (METIS stand-in, see
// DESIGN.md) on a scale-free graph.
//
// The second half closes the loop between the study and the trainer: it
// runs real 1D epochs per registered partitioner — broadcast path and
// sparsity-aware halo path — and prints the metered
// words next to the predicted edgecut_P(A) times the exchanged widths,
// plus measured
// epochs/sec, in the same JSON shape BENCH_EPOCH_THROUGHPUT.json tracks.
// Both paths train side by side in one world and are timed as
// interleaved pairs of epochs, alternating which path runs first, so a
// slow stretch of the host lands on both; each path's time is the best of
// its --epoch-reps measured epochs, so one scheduler hiccup cannot invert
// a comparison.
//
// The run *fails* (nonzero exit, clear message) if the halo path loses
// on wall clock despite a words_reduction of at least kJudgedReduction —
// the pipelined exchange regressing to "fewer words, same critical path"
// is exactly the regression class this bench exists to catch. A
// partitioner below that reduction (random moves ~1.05x fewer words) is
// printed as "not judged": there the two paths' epoch times sit within
// host noise of each other, and which one wins says nothing about the
// pipeline.
//
// Epoch-run flags: --epoch-parts 16, --features 16, --hidden 16,
// --epoch-reps 5.
#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/core/algebra_registry.hpp"
#include "src/core/costmodel.hpp"
#include "src/graph/partition.hpp"
#include "src/sparse/generate.hpp"
#include "src/util/cli.hpp"
#include "src/util/timer.hpp"

using namespace cagnet;

namespace {

/// Smallest broadcast-to-halo words reduction at which the halo path must
/// also win on wall clock (block and greedy-bfs reach ~1.6x on the
/// tracked configuration).
constexpr double kJudgedReduction = 1.5;

}  // namespace

static int run(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const Index n = args.get_int("vertices", 30000);
  const int parts = static_cast<int>(args.get_int("parts", 64));
  const Index communities = args.get_int("communities", 256);
  const double intra_degree = args.get_double("intra-degree", 18);
  const double inter_degree = args.get_double("inter-degree", 2);
  const double hub_fraction = args.get_double("hub-fraction", 0.00025);
  const double hub_degree = args.get_double("hub-degree", 15000);
  const int epoch_parts = static_cast<int>(args.get_int("epoch-parts", 16));
  const Index f = args.get_int("features", 16);
  const Index hidden = args.get_int("hidden", 16);
  const int epoch_reps =
      std::max(1, static_cast<int>(args.get_int("epoch-reps", 5)));
  args.reject_unread();

  std::printf("=== Section IV-A.8: partitioning quality vs the max-metric "
              "===\n\n");
  // Reddit-like structure: strong communities (what METIS exploits for its
  // 72%% total-cut reduction) plus graph-wide hubs (why the busiest process
  // only improves 29%%). A pure R-MAT graph has no communities and METIS
  // would gain little — the paper itself notes scale-free graphs partition
  // poorly (end of IV-A.8).
  Rng rng(7);
  Coo coo = planted_partition(n, communities, intra_degree, inter_degree,
                              rng, hub_fraction, hub_degree);
  coo.symmetrize();
  const Csr a = Csr::from_coo(coo);
  std::printf("community graph: %lld vertices, %lld edges, %lld planted "
              "communities + hubs, P = %d\n\n",
              static_cast<long long>(a.rows()),
              static_cast<long long>(a.nnz()),
              static_cast<long long>(communities), parts);

  Rng prng(8);
  const Partition random = random_partition(a.rows(), parts, prng);
  const Partition greedy = greedy_bfs_partition(a, parts);
  const EdgeCutStats s_random = edge_cut(a, random);
  const EdgeCutStats s_greedy = edge_cut(a, greedy);

  const auto pct = [](Index better, Index worse) {
    return 100.0 * (1.0 - static_cast<double>(better) /
                              static_cast<double>(worse));
  };

  std::printf("%-22s %14s %14s %12s\n", "metric", "random", "greedy(BFS)",
              "reduction");
  std::printf("------------------------------------------------------------------\n");
  std::printf("%-22s %14lld %14lld %11.1f%%\n", "total cut edges",
              static_cast<long long>(s_random.total_cut_edges),
              static_cast<long long>(s_greedy.total_cut_edges),
              pct(s_greedy.total_cut_edges, s_random.total_cut_edges));
  std::printf("%-22s %14lld %14lld %11.1f%%\n", "max cut edges/proc",
              static_cast<long long>(s_random.max_cut_edges_per_part),
              static_cast<long long>(s_greedy.max_cut_edges_per_part),
              pct(s_greedy.max_cut_edges_per_part,
                  s_random.max_cut_edges_per_part));
  std::printf("%-22s %14lld %14lld %11.1f%%\n", "max remote rows/proc",
              static_cast<long long>(s_random.max_remote_rows_per_part),
              static_cast<long long>(s_greedy.max_remote_rows_per_part),
              pct(s_greedy.max_remote_rows_per_part,
                  s_random.max_remote_rows_per_part));
  std::printf("\npaper (METIS on Reddit, P=64): total 11,761,151 -> 3,258,385"
              " (72%%)\n                              max      185,823 ->  "
              " 131,286 (29%%)\n");
  std::printf("\nThe expected shape: total-cut reduction far exceeds the\n"
              "max-per-process reduction on skewed graphs, and the runtime\n"
              "of a bulk-synchronous epoch follows the max (Section "
              "IV-A.8).\n");

  // ---- Closing the loop: real 1D epochs per partitioner ----
  const Index classes = 8;

  Graph g;
  g.name = "edgecut-epochs";
  g.adjacency = gcn_normalize(coo, /*symmetrize=*/true);
  g.features = Matrix(g.adjacency.rows(), f);
  Rng frng(12);
  g.features.fill_uniform(frng, -1, 1);
  g.num_classes = classes;
  g.labels.resize(static_cast<std::size_t>(g.adjacency.rows()));
  for (auto& label : g.labels) {
    label = static_cast<Index>(
        frng.next_below(static_cast<std::uint64_t>(classes)));
  }
  GnnConfig gnn = GnnConfig::three_layer(f, classes, hidden);
  // Per layer the halo path receives this rank's distinct remote rows of
  // the layer's SpMM input, min(f_(l-1), f_l) wide (a narrowing layer
  // exchanges H W): predicted kHalo words per epoch = max_remote_rows *
  // the sum of those widths over layers 2..L (layer 1's exchange runs
  // once, at set-up).
  Index exchanged_width = 0;
  for (std::size_t l = 2; l < gnn.dims.size(); ++l) {
    exchanged_width += std::min(gnn.dims[l - 1], gnn.dims[l]);
  }

  std::printf("\n=== 1D epochs at P=%d: broadcast vs halo, per "
              "partitioner ===\n\n", epoch_parts);
  std::printf("%-12s %12s %14s %14s %9s %9s %9s %7s\n", "partitioner",
              "max_remote", "metered halo", "bcast dense", "reduction",
              "bcast eps", "halo eps", "judged");
  std::array<RunConfig, 2> modes;  // [0] broadcast, [1] halo
  modes[0] = modes[1] = RunConfig::from_env();
  modes[0].halo = false;
  modes[1].halo = true;
  std::vector<std::string> regressions;
  std::vector<std::string> not_judged;
  for (const PartitionerSpec& spec : partitioner_registry()) {
    const DistProblem problem =
        DistProblem::prepare(g, epoch_parts, spec.name);
    std::array<EpochStats, 2> stats;
    std::array<double, 2> best = {0, 0};
    run_world(epoch_parts, [&](Comm& world) {
      std::array<std::unique_ptr<DistTrainer>, 2> trainers;
      for (int halo = 0; halo <= 1; ++halo) {
        trainers[halo] =
            make_dist_trainer("1d", problem, gnn, world, modes[halo]);
        trainers[halo]->train_epoch();  // warm-up (plan + buffers)
      }
      std::array<double, 2> mine = {0, 0};
      for (int rep = 0; rep < epoch_reps; ++rep) {
        for (int k = 0; k < 2; ++k) {
          const int halo = (rep + k) % 2;  // alternate which path leads
          world.barrier();
          WallTimer timer;
          trainers[halo]->train_epoch();
          world.barrier();
          const double elapsed = timer.seconds();
          if (rep == 0 || elapsed < mine[halo]) mine[halo] = elapsed;
        }
      }
      for (int halo = 0; halo <= 1; ++halo) {
        EpochStats reduced = trainers[halo]->reduce_epoch_stats();
        if (world.rank() == 0) {
          stats[halo] = std::move(reduced);
          best[halo] = mine[halo];
        }
      }
    });
    const std::array<double, 2> words = {stats[0].comm.total_words(),
                                         stats[1].comm.total_words()};
    const std::array<double, 2> eps = {best[0] > 0 ? 1.0 / best[0] : 0,
                                       best[1] > 0 ? 1.0 / best[1] : 0};
    const double halo_words = stats[1].comm.words(CommCategory::kHalo);
    const double predicted =
        static_cast<double>(problem.edgecut.max_remote_rows_per_part) *
        static_cast<double>(exchanged_width);
    const double reduction = words[1] > 0 ? words[0] / words[1] : 0.0;
    const bool judged = reduction >= kJudgedReduction;
    std::printf("%-12s %12lld %14.0f %14.0f %8.2fx %9.3f %9.3f %7s\n",
                spec.name.c_str(),
                static_cast<long long>(
                    problem.edgecut.max_remote_rows_per_part),
                halo_words, words[0], reduction, eps[0], eps[1],
                judged ? "yes" : "no");
    std::printf("{\"schema_version\":3,"
                "\"bench\":\"partition_edgecut_epoch\",\"partitioner\":"
                "\"%s\",\"world\":%d,\"n\":%lld,\"f\":%lld,"
                "\"max_remote_rows\":%lld,\"predicted_halo_words\":%.0f,"
                "\"halo_words\":%.0f,\"broadcast_total_words\":%.0f,"
                "\"halo_total_words\":%.0f,\"words_reduction\":%.3f,"
                "\"overlap_regions\":%.0f,"
                "\"phase_hpack\":%.5f,"
                "\"bcast_eps\":%.3f,\"halo_eps\":%.3f}\n",
                spec.name.c_str(), epoch_parts,
                static_cast<long long>(g.adjacency.rows()),
                static_cast<long long>(f),
                static_cast<long long>(
                    problem.edgecut.max_remote_rows_per_part),
                predicted, halo_words, words[0], words[1], reduction,
                stats[1].comm.overlap_regions(),
                stats[1].profiler.seconds(Phase::kHaloPack), eps[0], eps[1]);
    const std::string verdict =
        spec.name + ": halo " + std::to_string(eps[1]) + " eps vs broadcast " +
        std::to_string(eps[0]) + " eps at a " + std::to_string(reduction) +
        "x words reduction";
    if (!judged) {
      not_judged.push_back(verdict);
    } else if (eps[1] < eps[0]) {
      regressions.push_back(verdict);
    }
  }
  for (const std::string& line : not_judged) {
    std::printf("not judged (words reduction below the %.2fx threshold): "
                "%s\n",
                kJudgedReduction, line.c_str());
  }
  std::printf("\nmetered halo words equal the predicted edgecut_P(A) times\n"
              "the exchanged widths exactly (the IV-A.8 request-and-send\n"
              "volume); the broadcast path pays the n(P-1)/P bound\n"
              "regardless of partitioner.\n");
  if (!regressions.empty()) {
    std::fprintf(stderr,
                 "\nFAIL: the halo path lost on wall clock despite moving "
                 "at least %.2fx fewer words.\nThe pipelined exchange has "
                 "regressed to \"fewer words, same critical path\":\n",
                 kJudgedReduction);
    for (const std::string& r : regressions) {
      std::fprintf(stderr, "  - %s\n", r.c_str());
    }
    return 1;
  }
  return 0;
}

int main(int argc, char** argv) { return run_main(argc, argv, run); }
