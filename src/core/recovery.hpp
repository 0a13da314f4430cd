// Checkpoint/restart recovery driver: close the fault-tolerance loop.
//
// train_with_recovery runs distributed training inside a supervision
// loop: periodic crash-consistent checkpoints (src/gnn/checkpoint.hpp,
// atomic tmp+rename so a crash mid-write can never corrupt the latest
// good image), and on a CommAborted — injected by the fault backend
// (src/comm/fault.hpp) or surfaced by a genuine rank failure — it
// rebuilds a fresh world, reloads the latest valid checkpoint, and
// resumes from the epoch it recorded. SGD is stateless and the weights
// are replicated, so weights + epoch are the complete training state; in
// exact mode a recovered run is bitwise identical to an uninterrupted
// one (pinned by tests/fault_test.cpp). Under a lossy codec the
// error-feedback residuals are deliberately transient per-world state:
// they reset to zero on the rebuilt communicator and the run converges
// but is not bitwise reproducible across a restart.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/comm/fault.hpp"
#include "src/core/algebra_registry.hpp"

namespace cagnet {

struct RecoveryOptions {
  std::string ckpt_path;   ///< checkpoint file (required)
  int ckpt_every = 0;      ///< epochs between checkpoints; 0 = none
  RunConfig run;           ///< every rebuilt world's trainer modes
  int max_restarts = 3;    ///< give up (rethrow) after this many aborts
  bool resume_existing = false;  ///< load ckpt_path if it already exists
};

/// What the supervision loop did, for recovery-overhead accounting.
struct RecoveryReport {
  int epochs = 0;              ///< total epochs requested (and completed)
  int restarts = 0;            ///< worlds rebuilt after a CommAborted
  int retrained_epochs = 0;    ///< epochs lost to aborts and re-trained
  int checkpoints_written = 0;
  double checkpoint_write_seconds = 0;  ///< total wall time in save_checkpoint
  std::vector<Real> losses;    ///< per-epoch global loss (rank 0's view)
  std::vector<Matrix> weights; ///< final replicated weights
  std::optional<CommAborted> last_abort;  ///< most recent abort survived
};

/// Train `epochs` epochs of `algebra` on a `p`-rank world, restarting
/// from the latest checkpoint after any CommAborted, up to
/// `options.max_restarts` times. Rank 0 checkpoints every k epochs.
/// Throws the abort if restarts are exhausted (or the failure is typed
/// as something other than CommAborted); throws Error if
/// options.ckpt_path is empty or options.ckpt_every is negative.
RecoveryReport train_with_recovery(const std::string& algebra,
                                   const DistProblem& problem,
                                   const GnnConfig& config, int p, int epochs,
                                   const RecoveryOptions& options);

}  // namespace cagnet
