// First-order optimizers for GCN training.
//
// The distributed algorithms keep W and Y fully replicated (Table III/IV/V),
// so optimizer state is replicated too and the update is communication-free
// — exactly the property the paper exploits ("the gradient descent step does
// not require communication", Section III-D). Every trainer (serial and all
// four distributed families) shares this implementation, which preserves
// the bitwise parity between them for any optimizer choice.
#pragma once

#include <vector>

#include "src/dense/matrix.hpp"

namespace cagnet {

enum class OptimizerKind {
  kSgd,       ///< W -= lr * Y (the paper's update)
  kMomentum,  ///< Polyak: v = mu*v + Y; W -= lr * v
  kAdam,      ///< Kingma-Ba with bias correction
};

struct OptimizerOptions {
  OptimizerKind kind = OptimizerKind::kSgd;
  Real momentum = 0.9;       ///< kMomentum
  Real adam_beta1 = 0.9;     ///< kAdam
  Real adam_beta2 = 0.999;   ///< kAdam
  Real adam_epsilon = 1e-8;  ///< kAdam
};

/// Stateful optimizer over a fixed set of weight matrices.
class Optimizer {
 public:
  /// Shapes are taken from `weights`; state starts at zero.
  Optimizer(OptimizerOptions options, Real learning_rate,
            const std::vector<Matrix>& weights);

  /// Apply one update step. `gradients` must match the construction shapes.
  void step(std::vector<Matrix>& weights,
            const std::vector<Matrix>& gradients);

 private:
  OptimizerOptions options_;
  Real learning_rate_;
  std::vector<Matrix> m_;  ///< momentum / first-moment state
  std::vector<Matrix> v_;  ///< second-moment state (Adam)
  long t_ = 0;
};

}  // namespace cagnet
