// Chaos/recovery drill harness: sweep deterministic fault injections
// across the algebra families and wire codecs, drive each
// interrupted run through the checkpoint/restart supervision loop
// (src/core/recovery.hpp), and record the recovery overhead as JSON lines
// (bench "recovery_drill", appended to BENCH_RECOVERY.json by the repo
// workflow; schema pinned by tools/check_bench_schema.py).
//
// Each cell runs twice: an uninterrupted baseline (no fault plan, no
// checkpointing) and a drill with an armed FaultPlan plus periodic
// checkpoints. The drill must either complete after automatic restarts —
// bitwise identical to the baseline in exact mode — or surface a typed
// CommAborted; a hang or crash is the only unacceptable outcome, and
// tools/chaos_drill.py enforces exactly that contract around this binary.
#include <array>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "src/comm/compress.hpp"
#include "src/comm/fault.hpp"
#include "src/core/algebra_registry.hpp"
#include "src/core/recovery.hpp"
#include "src/sparse/generate.hpp"
#include "src/util/cli.hpp"
#include "src/util/timer.hpp"

namespace cagnet {
namespace {

Graph make_graph(Index n, Index f, Index classes, std::uint64_t seed) {
  Rng rng(seed);
  Graph g;
  g.name = "recovery-bench";
  Coo coo = planted_partition(n, /*communities=*/8, 8.0, 1.0, rng,
                              /*hub_fraction=*/0.0);
  g.adjacency = gcn_normalize(std::move(coo), /*symmetrize=*/true);
  g.features = Matrix(n, f);
  g.features.fill_uniform(rng, -1, 1);
  g.num_classes = classes;
  g.labels.resize(static_cast<std::size_t>(n));
  for (Index v = 0; v < n; ++v) {
    g.labels[static_cast<std::size_t>(v)] = v % classes;
  }
  return g;
}

std::vector<std::string> split_csv(const std::string& list) {
  std::vector<std::string> out;
  std::string item;
  for (char c : list) {
    if (c == ',') {
      if (!item.empty()) out.push_back(item);
      item.clear();
    } else {
      item.push_back(c);
    }
  }
  if (!item.empty()) out.push_back(item);
  return out;
}

struct InjectionPoint {
  FaultAction action;
  FaultSite site;
};

int run(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const bool smoke = args.has("smoke");

  const Index n = args.get_int("n", smoke ? 160 : 512);
  const Index f = 8;
  const Index classes = 4;
  const int epochs = static_cast<int>(args.get_int("epochs", smoke ? 6 : 10));
  const int every =
      static_cast<int>(args.get_int("ckpt-every", 2));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 2020));

  struct AlgebraCase {
    std::string algebra;
    int p;
  };
  std::vector<AlgebraCase> algebras = {
      {"1d", 4}, {"1.5d-c2", 4}, {"2d", 4}, {"3d", 8}};
  if (args.has("algebras")) {
    algebras.clear();
    for (const std::string& name : split_csv(args.get("algebras", ""))) {
      const AlgebraSpec* spec = find_algebra(name);
      if (spec == nullptr) {
        std::fprintf(stderr, "unknown algebra: %s\n", name.c_str());
        return 1;
      }
      algebras.push_back({spec->name, spec->world_sizes.front() > 1
                                          ? spec->world_sizes.front()
                                          : spec->world_sizes.back()});
    }
  }

  std::vector<CompressMode> compress_modes;
  for (const std::string& name :
       split_csv(args.get("compress", "off,int8"))) {
    compress_modes.push_back(parse_compress_mode(name));
  }
  args.reject_unread();

  // One kill per lifecycle seam plus a poisoned payload: the three
  // distinct ways the transport backend can take a rank down. The N-th
  // event at which each fires is a seeded pick, so the sweep covers
  // varied schedule positions while staying reproducible run to run.
  const std::array<InjectionPoint, 3> points = {{
      {FaultAction::kKill, FaultSite::kPost},
      {FaultAction::kKill, FaultSite::kWait},
      {FaultAction::kPoison, FaultSite::kWait},
  }};

  const Graph graph = make_graph(n, f, classes, seed);
  const GnnConfig config = GnnConfig::three_layer(f, classes, 6);
  const DistProblem problem = DistProblem::prepare(graph);
  const std::string ckpt =
      (std::filesystem::temp_directory_path() /
       (std::to_string(::getpid()) + "_cagnet_bench_recovery.bin"))
          .string();

  // The CAGNET_* modes, with the swept codec on top.
  RunConfig run = RunConfig::from_env();
  std::uint64_t cell = 0;

  for (const AlgebraCase& a : algebras) {
    for (CompressMode cmode : compress_modes) {
      run.compress = cmode;

      // Uninterrupted baseline: same supervision-loop code path, no
      // fault and no periodic checkpoints, so the drill's extra wall
      // time is attributable to recovery alone.
      clear_fault_plan();
      RecoveryOptions base_opt;
      base_opt.ckpt_path = ckpt;
      base_opt.ckpt_every = 0;
      base_opt.run = run;
      WallTimer base_timer;
      const RecoveryReport baseline = train_with_recovery(
          a.algebra, problem, config, a.p, epochs, base_opt);
      const double baseline_seconds = base_timer.seconds();

      for (const InjectionPoint& pt : points) {
        ++cell;
        // Rank 1 exists in every swept world. nth counts rank 1's
        // events from the plan's arming, trainer set-up included, so the
        // fault lands early in the schedule; a restart retrains lost
        // epochs only when it lands after an epoch that no checkpoint
        // covers yet (retrained_epochs records which cells do).
        const std::uint64_t nth = seeded_nth(seed + cell, 5, 60);
        auto plan = std::make_shared<FaultPlan>();
        FaultTrigger trigger;
        trigger.action = pt.action;
        trigger.rank = 1;
        trigger.any_category = true;
        trigger.site = pt.site;
        trigger.nth = nth;
        plan->add(trigger);
        set_fault_plan(plan);

        RecoveryOptions opt;
        opt.ckpt_path = ckpt;
        opt.ckpt_every = every;
        opt.max_restarts = 3;
        opt.run = run;
        bool recovered = true;
        RecoveryReport report;
        WallTimer timer;
        try {
          report = train_with_recovery(a.algebra, problem, config, a.p,
                                       epochs, opt);
        } catch (const CommAborted& e) {
          recovered = false;
          report.last_abort = e;
        }
        const double drill_seconds = timer.seconds();
        clear_fault_plan();

        bool bitwise = recovered;
        if (recovered) {
          if (report.losses != baseline.losses ||
              report.weights.size() != baseline.weights.size()) {
            bitwise = false;
          } else {
            for (std::size_t l = 0; l < report.weights.size(); ++l) {
              if (Matrix::max_abs_diff(report.weights[l],
                                       baseline.weights[l]) > Real{0}) {
                bitwise = false;
                break;
              }
            }
          }
        }

        std::printf(
            "{\"schema_version\":2,\"bench\":\"recovery_drill\","
            "\"algebra\":\"%s\",\"world\":%d,"
            "\"compress\":\"%s\",\"action\":\"%s\",\"site\":\"%s\","
            "\"category\":\"any\",\"nth\":%llu,\"epochs\":%d,"
            "\"ckpt_every\":%d,\"restarts\":%d,\"retrained_epochs\":%d,"
            "\"checkpoints_written\":%d,"
            "\"checkpoint_write_seconds\":%.6f,\"recovered\":%s,"
            "\"bitwise_identical\":%s,\"seconds\":%.4f,"
            "\"baseline_seconds\":%.4f,\"recovery_overhead_s\":%.4f}\n",
            a.algebra.c_str(), a.p, compress_mode_name(cmode),
            fault_action_name(pt.action), fault_site_name(pt.site),
            static_cast<unsigned long long>(nth), epochs, every,
            report.restarts, report.retrained_epochs,
            report.checkpoints_written, report.checkpoint_write_seconds,
            recovered ? "true" : "false", bitwise ? "true" : "false",
            drill_seconds, baseline_seconds,
            drill_seconds - baseline_seconds);
        std::fflush(stdout);
      }
    }
  }

  std::remove(ckpt.c_str());
  std::remove((ckpt + ".tmp").c_str());
  return 0;
}

}  // namespace
}  // namespace cagnet

int main(int argc, char** argv) {
  return cagnet::run_main(argc, argv, cagnet::run);
}
