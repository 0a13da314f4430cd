// Single-process full-batch GCN trainer: the reference implementation.
//
// Implements the paper's forward/backward equations directly on the whole
// matrices. Every distributed trainer is validated to reproduce this
// trainer's losses and embeddings up to floating-point accumulation error
// (the same parity claim the paper makes against serial PyTorch in V-A).
#pragma once

#include <optional>
#include <vector>

#include "src/gnn/model.hpp"
#include "src/gnn/optimizer.hpp"
#include "src/graph/graph.hpp"

namespace cagnet {

class SerialTrainer {
 public:
  /// Graph must outlive the trainer.
  SerialTrainer(const Graph& graph, GnnConfig config);

  /// Forward pass only: fills the layer cache and returns the output
  /// log-probabilities H^L.
  const Matrix& forward();

  /// Backward pass from the cached forward state; fills weight gradients.
  /// Must follow a forward() call.
  void backward();

  /// SGD step: W^l -= lr * Y^l.
  void step();

  /// forward + loss/accuracy + backward + step.
  EpochResult train_epoch();

  const GnnConfig& config() const { return config_; }
  const std::vector<Matrix>& weights() const { return weights_; }
  std::vector<Matrix>& weights() { return weights_; }
  /// dL/dW^l from the last backward().
  const std::vector<Matrix>& gradients() const { return gradients_; }
  /// H^l for l = 0..L from the last forward().
  const std::vector<Matrix>& activations() const { return h_; }

 private:
  const Graph& graph_;
  GnnConfig config_;
  Csr at_;  ///< A^T, used by forward (kept explicit for directed generality)
  std::optional<Optimizer> optimizer_;
  std::vector<Matrix> weights_;
  std::vector<Matrix> gradients_;
  std::vector<Matrix> h_;
  std::vector<Matrix> z_;
};

}  // namespace cagnet
