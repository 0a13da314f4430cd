// Epoch throughput per algebra x world size x thread count, in
// machine-readable JSON (one object per line) so successive PRs can track
// the performance trajectory in BENCH_*.json files.
//
// Unlike the figure regenerators this measures *host* epochs/sec — the
// thing local-kernel and allocation work actually moves — alongside the
// metered per-epoch communication words, which must stay invariant across
// perf PRs (the words are the paper's measurements; see the cost-model
// regression test in tests/determinism_test.cpp).
//
// Flags:
//   --smoke            tiny problem + ~2s total budget (the CI mode)
//   --n, --degree      graph shape (default 4096 vertices, avg degree 12)
//   --f, --hidden      feature/hidden widths (default 32/32)
//   --algebras 2d,3d   comma-separated registry names (default: all four
//                      families at representative sizes)
//   --worlds 4,8       restrict the registry world sizes swept per algebra
//                      (only meaningful with --algebras)
//   --threads 1,8      thread budgets to sweep (default 1,<hardware>)
//   --seconds S        measurement budget per configuration (default 1.0)
//   --epochs N         cap on measured epochs per configuration
//   --partition NAME   partitioner from the registry (block/random/
//                      greedy-bfs; default CAGNET_PARTITION or "block") —
//                      non-block choices re-prepare the problem per world
//                      size with partition-aware row blocks
//   --halo 0|1|0,1     sparsity-aware halo exchange for the 1D/1.5D
//                      families (default CAGNET_HALO); halo_words and
//                      max_remote_rows land in the JSON. A list runs the
//                      modes back-to-back per configuration, so the
//                      halo-vs-broadcast eps comparison is not skewed by
//                      cross-invocation load drift
//   --graph rmat|planted  topology (planted = community-structured, the
//                      regime where a locality partitioner pays)
//   --communities C    planted communities (default n/48)
//   --inter-frac X     planted fraction of degree crossing communities
//                      (default 0.2; smaller = stronger locality)
//   --compress M[,M]   lossy wire codecs to sweep (off/int8;
//                      default CAGNET_COMPRESS). compressed_words in the
//                      JSON is the metered post-compression volume in
//                      Real-sized words — the words-on-wire actually paid
//                      — and phase_cpack the codec pack/unpack seconds
//   --stale M[,M]      bounded-staleness refresh rates to sweep for the
//                      1D/1.5D halo exchange (off/<k>; default
//                      CAGNET_STALE). stale_k echoes the mode per row and
//                      stale_words_saved the metered halo words the
//                      cache-replay epochs elided (exact words minus
//                      metered words, CostMeter::stale_saved_words)
//   --preagg 0|1|0,1   aggregation-before-communication on the forward
//                      halo exchange (default CAGNET_PREAGG); like
//                      --halo, a list runs the modes back-to-back
//   --sample           sampled minibatch epochs (1D only: non-1d configs
//                      are skipped with a note). fanouts/batch_size land
//                      in the JSON and sampled_words records the metered
//                      per-epoch kHalo volume of the sampled row
//                      exchange; full-batch rows carry ""/0/0
//   --fanouts 15,10,5  per-hop fan-out caps, outermost hop first (must
//                      match the model's layer count)
//   --batch-size B     seed vertices per rank per minibatch (default 64)
//
// The word, latency, overlap and phase columns are per-epoch means over
// a fixed window of measured epochs, one full staleness period (1 epoch
// unless --stale sets k): a stale run refreshes once per period and
// sampled epochs draw afresh, so the last epoch alone would change with
// the host-time budget. The window always runs, even past --seconds
// and --epochs.
#include <algorithm>
#include <array>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/comm/compress.hpp"
#include "src/core/algebra_registry.hpp"
#include "src/graph/graph.hpp"
#include "src/sparse/generate.hpp"
#include "src/util/cli.hpp"
#include "src/util/parallel.hpp"
#include "src/util/timer.hpp"

namespace cagnet {
namespace {

struct BenchConfig {
  std::string algebra;
  int world = 1;
};

std::vector<std::string> split_csv(const std::string& list) {
  std::vector<std::string> names;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > start) names.push_back(list.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return names;
}

/// A --stale item, in the CAGNET_STALE grammar: "off" or a positive
/// refresh interval.
int parse_stale_mode(const std::string& name) {
  return RunConfig::parse([&](const char* knob) {
           return std::string_view(knob) == "CAGNET_STALE"
                      ? std::optional<std::string>(name)
                      : std::nullopt;
         }).stale_k;
}

std::string stale_mode_label(int k) {
  return k == 0 ? "off" : std::to_string(k);
}

/// A row's metered columns summed over its window's epochs, each epoch
/// max-reduced over the ranks first.
struct WindowSums {
  double dense_words = 0, sparse_words = 0, trpose_words = 0;
  double halo_words = 0, compressed_words = 0, stale_saved = 0;
  double latency_units = 0, overlap_regions = 0, overlap_saved = 0;
  std::array<double, Profiler::kNumPhases> phase_seconds = {};

  void add(const EpochStats& stats) {
    dense_words += stats.comm.words(CommCategory::kDense);
    sparse_words += stats.comm.words(CommCategory::kSparse);
    trpose_words += stats.comm.words(CommCategory::kTranspose);
    halo_words += stats.comm.words(CommCategory::kHalo);
    compressed_words += stats.comm.words(CommCategory::kCompressed);
    stale_saved += stats.comm.stale_saved_words();
    latency_units += stats.comm.total_latency_units();
    overlap_regions += stats.comm.overlap_regions();
    overlap_saved += stats.comm.overlap_saved_seconds();
    for (std::size_t ph = 0; ph < Profiler::kNumPhases; ++ph) {
      phase_seconds[ph] += stats.profiler.seconds(static_cast<Phase>(ph));
    }
  }
};

Graph make_graph(const std::string& topology, Index n, Index degree, Index f,
                 Index classes, Index communities, double inter_frac) {
  Rng rng(2024);
  Graph g;
  g.name = "epoch-throughput";
  Coo coo =
      topology == "planted"
          ? planted_partition(
                n, communities,
                (1.0 - inter_frac) * static_cast<double>(degree),
                inter_frac * static_cast<double>(degree), rng,
                /*hub_fraction=*/0.0)
          : rmat(n, n * degree, rng);
  g.adjacency = gcn_normalize(std::move(coo), /*symmetrize=*/true);
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

int run(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const bool smoke = args.has("smoke");

  const Index n = args.get_int("n", smoke ? 768 : 4096);
  const Index degree = args.get_int("degree", 12);
  const Index f = args.get_int("f", 32);
  const Index hidden = args.get_int("hidden", 32);
  const Index classes = 8;
  const double seconds_per_config =
      args.get_double("seconds", smoke ? 0.12 : 1.0);
  const long max_epochs = args.get_int("epochs", smoke ? 6 : 1000);

  std::vector<BenchConfig> configs;
  const std::vector<long> world_filter = args.get_int_list("worlds", {});
  const auto world_selected = [&](int p) {
    if (world_filter.empty()) return true;
    return std::find(world_filter.begin(), world_filter.end(),
                     static_cast<long>(p)) != world_filter.end();
  };
  if (args.has("algebras")) {
    for (const std::string& name : split_csv(args.get("algebras", ""))) {
      const AlgebraSpec* spec = find_algebra(name);
      if (spec == nullptr) {
        std::fprintf(stderr, "unknown algebra: %s\n", name.c_str());
        return 1;
      }
      for (int p : spec->world_sizes) {
        if (p <= 27 && world_selected(p)) configs.push_back({name, p});
      }
    }
  } else {
    // The large worlds (2d@16, 3d@27) are the paper's regime, where the
    // per-stage prefetch has the most stages to hide.
    configs = {{"1d", 1},  {"1d", 4},  {"1.5d-c2", 4}, {"2d", 1},
               {"2d", 4},  {"2d", 16}, {"3d", 1},      {"3d", 8},
               {"3d", 27}};
    if (smoke) {
      configs = {{"1d", 4}, {"2d", 1}, {"2d", 4},
                 {"2d", 16}, {"3d", 8}, {"3d", 27}};
    }
  }

  std::vector<long> thread_counts = args.get_int_list(
      "threads", {1, static_cast<long>(thread_budget())});

  const std::string partition =
      args.get("partition", default_partitioner_name());
  if (find_partitioner(partition) == nullptr) {
    std::fprintf(stderr, "unknown partitioner: %s\n", partition.c_str());
    return 1;
  }
  // The CAGNET_* modes are the defaults the flags below override.
  const RunConfig env_run = RunConfig::from_env();
  const std::vector<long> halo_modes =
      args.get_int_list("halo", {env_run.halo ? 1L : 0L});
  const bool any_halo =
      std::find(halo_modes.begin(), halo_modes.end(), 1L) !=
      halo_modes.end();
  std::vector<CompressMode> compress_modes;
  for (const std::string& name : split_csv(
           args.get("compress", compress_mode_name(env_run.compress)))) {
    compress_modes.push_back(parse_compress_mode(name));
  }
  if (compress_modes.empty()) compress_modes.push_back(CompressMode::kOff);
  std::vector<int> stale_modes;
  for (const std::string& name :
       split_csv(args.get("stale", stale_mode_label(env_run.stale_k)))) {
    stale_modes.push_back(parse_stale_mode(name));
  }
  if (stale_modes.empty()) stale_modes.push_back(0);
  const std::vector<long> preagg_modes =
      args.get_int_list("preagg", {env_run.preagg ? 1L : 0L});

  const bool sample = args.has("sample");
  const std::vector<long> fanout_args =
      args.get_int_list("fanouts", {15, 10, 5});
  const Index batch_size = args.get_int("batch-size", 64);
  std::string fanouts_str;
  RunConfig base_run = env_run;
  base_run.sample = sample;
  if (sample) {
    base_run.sample_fanouts.assign(fanout_args.begin(), fanout_args.end());
    base_run.sample_batch = batch_size;
    for (std::size_t i = 0; i < fanout_args.size(); ++i) {
      if (i > 0) fanouts_str += ',';
      fanouts_str += std::to_string(fanout_args[i]);
    }
  }

  const std::string topology = args.get("graph", "rmat");
  const Index communities =
      args.get_int("communities", std::max<Index>(n / 48, 2));
  const double inter_frac = args.get_double("inter-frac", 0.2);
  args.reject_unread();

  const Graph graph =
      make_graph(topology, n, degree, f, classes, communities, inter_frac);
  const DistProblem problem = DistProblem::prepare(graph);
  GnnConfig gnn = GnnConfig::three_layer(f, classes, hidden);

  for (const BenchConfig& config : configs) {
    if (sample && config.algebra != "1d") {
      std::fprintf(stderr,
                   "skipping %s @ p=%d: sampled training rides the 1D "
                   "row-stripe halo machinery\n",
                   config.algebra.c_str(), config.world);
      continue;
    }
    // Partition-aware runs relabel the problem per world size so the row
    // blocks follow the partitioner's (possibly uneven) parts. Halo runs
    // prepare even the block layout (the identity form's blocks and
    // charges) so the JSON's max_remote_rows records the real edgecut,
    // not zero.
    const bool per_world = partition != "block" || any_halo;
    const DistProblem partitioned =
        per_world ? DistProblem::prepare(graph, config.world, partition)
                  : DistProblem{};
    const DistProblem& active = per_world ? partitioned : problem;
    // Only the rows-whole families consume the halo toggle; sweeping the
    // modes for 2D/3D would just emit duplicate rows whose eps delta is
    // run-to-run noise mislabeled as a halo effect.
    const bool halo_toggleable = config.algebra.rfind("1", 0) == 0;
    const std::vector<long> single_mode = {halo_modes.front()};
    const std::vector<long>& swept_modes =
        halo_toggleable ? halo_modes : single_mode;
    // Staleness and pre-aggregation ride the halo exchange, so only the
    // rows-whole families sweep them (same de-duplication as --halo).
    const std::vector<int> single_stale = {stale_modes.front()};
    const std::vector<int>& swept_stales =
        halo_toggleable ? stale_modes : single_stale;
    const std::vector<long> single_preagg = {preagg_modes.front()};
    const std::vector<long>& swept_preaggs =
        halo_toggleable ? preagg_modes : single_preagg;
    for (long threads : thread_counts) {
    for (long halo_mode : swept_modes) {
    for (CompressMode cmode : compress_modes) {
    for (int stale_mode : swept_stales) {
    for (long preagg_mode : swept_preaggs) {
      const bool halo = halo_mode != 0;
      RunConfig run = base_run;
      run.halo = halo;
      run.compress = cmode;
      run.stale_k = stale_mode;
      run.preagg = preagg_mode != 0;
      override_thread_budget(static_cast<int>(threads));
      double warm_seconds = 0;
      double measured_seconds = 0;
      long epochs = 0;
      const long window = std::max(1, stale_mode);
      WindowSums sums;
      run_world(config.world, [&](Comm& world) {
        auto trainer =
            make_dist_trainer(config.algebra, active, gnn, world, run);
        WallTimer warm;
        trainer->train_epoch();  // warm-up: caches fill, buffers size
        world.barrier();
        const double warmed = warm.seconds();
        WallTimer timer;
        long local_epochs = 0;
        // Every rank runs the same loop (collectives are lock-step), so
        // the continue/stop decision must be rank-uniform: rank 0 decides
        // and broadcasts the verdict as control traffic. The harness uses
        // the nonblocking broadcast so its own pacing does not
        // re-serialize the ranks each epoch; the persistent flag buffers
        // are released by the hold of the next epoch's blocking loss
        // all-reduce, which every rank posts after its flag wait.
        bool keep_going = true;
        std::array<Index, 1> flag_src = {0};
        std::array<Index, 1> flag_dst = {0};
        while (keep_going) {
          trainer->train_epoch();
          ++local_epochs;
          if (local_epochs <= window) {
            const EpochStats stats = trainer->reduce_epoch_stats();
            if (world.rank() == 0) sums.add(stats);
          }
          const Index verdict =
              world.rank() == 0 &&
                      (local_epochs < window ||
                       (local_epochs < max_epochs &&
                        timer.seconds() < seconds_per_config))
                  ? Index{1}
                  : Index{0};
          flag_src[0] = verdict;
          PendingOp op =
              world.rank() == 0
                  ? world.ibroadcast_from(std::span<const Index>(flag_src),
                                          std::span<Index>{}, 0,
                                          CommCategory::kControl)
                  : world.ibroadcast_from(std::span<const Index>{},
                                          std::span<Index>(flag_dst), 0,
                                          CommCategory::kControl);
          op.wait();
          keep_going = (world.rank() == 0 ? flag_src[0] : flag_dst[0]) == 1;
        }
        world.barrier();
        const double elapsed = timer.seconds();
        if (world.rank() == 0) {
          warm_seconds = warmed;
          measured_seconds = elapsed;
          epochs = local_epochs;
        }
      });
      override_thread_budget(0);
      const double eps =
          measured_seconds > 0 ? static_cast<double>(epochs) / measured_seconds
                               : 0.0;
      const auto mean = [&](double sum) {
        return sum / static_cast<double>(window);
      };
      std::printf(
          "{\"schema_version\":5,"
          "\"bench\":\"epoch_throughput\",\"algebra\":\"%s\","
          "\"world\":%d,\"threads\":%ld,\"n\":%lld,\"degree\":%lld,"
          "\"f\":%lld,\"hidden\":%lld,\"epochs\":%ld,\"seconds\":%.4f,"
          "\"warmup_seconds\":%.4f,\"epochs_per_sec\":%.3f,"
          "\"dense_words\":%.1f,\"sparse_words\":%.1f,"
          "\"transpose_words\":%.1f,\"halo_words\":%.1f,"
          "\"compress\":\"%s\",\"compressed_words\":%.1f,"
          "\"stale_k\":\"%s\",\"stale_words_saved\":%.1f,\"preagg\":%d,"
          "\"partition\":\"%s\",\"halo\":%d,\"max_remote_rows\":%lld,"
          "\"fanouts\":\"%s\",\"batch_size\":%lld,"
          "\"sampled_words\":%.1f,"
          "\"latency_units\":%.2f,"
          "\"overlap_regions\":%.2f,"
          "\"overlap_saved_modeled_s\":%.6f,"
          "\"phase_misc\":%.5f,\"phase_trpose\":%.5f,\"phase_dcomm\":%.5f,"
          "\"phase_scomm\":%.5f,\"phase_spmm\":%.5f,"
          "\"phase_hpack\":%.5f,\"phase_cpack\":%.5f}\n",
          config.algebra.c_str(), config.world, threads,
          static_cast<long long>(n), static_cast<long long>(degree),
          static_cast<long long>(f), static_cast<long long>(hidden), epochs,
          measured_seconds, warm_seconds, eps, mean(sums.dense_words),
          mean(sums.sparse_words), mean(sums.trpose_words),
          mean(sums.halo_words), compress_mode_name(cmode),
          mean(sums.compressed_words), stale_mode_label(stale_mode).c_str(),
          mean(sums.stale_saved), preagg_mode != 0 ? 1 : 0,
          partition.c_str(), halo ? 1 : 0,
          static_cast<long long>(active.edgecut.max_remote_rows_per_part),
          fanouts_str.c_str(),
          static_cast<long long>(sample ? batch_size : 0),
          sample ? mean(sums.halo_words) : 0.0, mean(sums.latency_units),
          mean(sums.overlap_regions), mean(sums.overlap_saved),
          mean(sums.phase_seconds[0]), mean(sums.phase_seconds[1]),
          mean(sums.phase_seconds[2]), mean(sums.phase_seconds[3]),
          mean(sums.phase_seconds[4]), mean(sums.phase_seconds[5]),
          mean(sums.phase_seconds[6]));
      std::fflush(stdout);
    }
    }
    }
    }
    }
  }
  return 0;
}

}  // namespace
}  // namespace cagnet

int main(int argc, char** argv) {
  return cagnet::run_main(argc, argv, cagnet::run);
}
