#include "src/core/recovery.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <mutex>

#include "src/gnn/checkpoint.hpp"

namespace cagnet {

RecoveryReport train_with_recovery(const std::string& algebra,
                                   const DistProblem& problem,
                                   const GnnConfig& config, int p, int epochs,
                                   const RecoveryOptions& options) {
  CAGNET_CHECK(!options.ckpt_path.empty(),
               "train_with_recovery: options.ckpt_path is required");
  CAGNET_CHECK(epochs >= 0, "train_with_recovery: epochs must be >= 0");
  CAGNET_CHECK(options.ckpt_every >= 0,
               "train_with_recovery: options.ckpt_every must be >= 0");
  const int every = options.ckpt_every;
  const std::string& path = options.ckpt_path;
  if (!options.resume_existing) {
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
  }

  RecoveryReport report;
  report.epochs = epochs;
  report.losses.assign(static_cast<std::size_t>(epochs), Real{0});

  std::mutex report_mutex;

  for (;;) {
    // Resume point: the latest durable checkpoint, or a fresh model. The
    // deterministic weight init means attempt zero is reproducible too.
    int start = 0;
    bool have_ckpt = false;
    Checkpoint ckpt;
    if (std::filesystem::exists(path)) {
      ckpt = load_checkpoint(path);  // CRC-verified; throws if corrupt
      start = static_cast<int>(ckpt.epoch);
      CAGNET_CHECK(start <= epochs,
                   "checkpoint " + path + " is ahead of the requested run (" +
                       std::to_string(start) + " > " +
                       std::to_string(epochs) + " epochs)");
      have_ckpt = true;
    }
    // Where this attempt's fault landed: the epochs completed by the rank
    // whose own op failed, fixed by that rank's program order. A
    // survivor's count when the abort reached it depends on thread timing.
    int fault_epoch = -1;

    try {
      run_world(p, [&](Comm& world) {
        int e = start;
        try {
          auto trainer =
              make_dist_trainer(algebra, problem, config, world, options.run);
          if (have_ckpt) trainer->set_weights(ckpt.weights);
          // Resume epoch-keyed RNG streams (sampled training) where the
          // uninterrupted run would be; a no-op for full-batch trainers.
          trainer->set_start_epoch(start);
          for (; e < epochs; ++e) {
            const Real loss = trainer->train_epoch().loss;
            if (world.rank() == 0) {
              {
                std::lock_guard<std::mutex> lock(report_mutex);
                report.losses[static_cast<std::size_t>(e)] = loss;
              }
              if (every > 0 && (e + 1) % every == 0 && e + 1 < epochs) {
                const auto t0 = std::chrono::steady_clock::now();
                save_checkpoint(path, trainer->weights(),
                                static_cast<std::uint64_t>(e + 1));
                const auto t1 = std::chrono::steady_clock::now();
                std::lock_guard<std::mutex> lock(report_mutex);
                report.checkpoint_write_seconds +=
                    std::chrono::duration<double>(t1 - t0).count();
                ++report.checkpoints_written;
              }
            }
          }
          if (world.rank() == 0) {
            std::lock_guard<std::mutex> lock(report_mutex);
            report.weights = trainer->weights();
          }
        } catch (const CommAborted& abort) {
          if (!abort.peer_failure()) {
            std::lock_guard<std::mutex> lock(report_mutex);
            fault_epoch = fault_epoch < 0 ? e : std::min(fault_epoch, e);
          }
          throw;
        }
      });
      return report;
    } catch (const CommAborted& abort) {
      report.last_abort = abort;
      ++report.restarts;
      // Epochs the world finished before the fault but no checkpoint
      // covers: the next attempt resumes from the latest checkpoint and
      // re-trains them.
      int durable = 0;
      if (std::filesystem::exists(path)) {
        durable = static_cast<int>(load_checkpoint(path).epoch);
      }
      if (fault_epoch > durable) {
        report.retrained_epochs += fault_epoch - durable;
      }
      if (report.restarts > options.max_restarts) throw;
    }
  }
}

}  // namespace cagnet
