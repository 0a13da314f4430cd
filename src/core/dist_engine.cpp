#include "src/core/dist_engine.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "src/core/dist_sampler.hpp"
#include "src/dense/gemm.hpp"
#include "src/dense/ops.hpp"
#include "src/util/error.hpp"
#include "src/util/parallel.hpp"

namespace cagnet {

void DistSpmmAlgebra::times_weight(const Matrix& t, const Matrix& w,
                                   Matrix& z, EpochStats& stats) {
  // Rows-whole default: T is (local_rows x f_in), W replicated, so Z = T W
  // is a purely local GEMM.
  ScopedPhase scope(stats.profiler, Phase::kMisc);
  z.resize(t.rows(), w.cols());
  gemm(Trans::kNo, Trans::kNo, Real{1}, t, w, Real{0}, z);
  stats.work.add_gemm(machine(), 2.0 * static_cast<double>(t.rows()) *
                                     static_cast<double>(w.rows()) *
                                     static_cast<double>(w.cols()));
}

void DistSpmmAlgebra::gather_feature_rows(const Matrix& local, Index f,
                                          Matrix& full, EpochStats& stats) {
  (void)stats;
  CAGNET_CHECK(local.cols() == f,
               "gather_feature_rows: rows-whole layout expects full width");
  full.resize(local.rows(), f);
  std::copy(local.flat().begin(), local.flat().end(), full.flat().begin());
}

Matrix DistSpmmAlgebra::gather_output(const Matrix& output_rows, Index n) {
  const auto gathered = gather_comm().allgatherv(
      std::span<const Real>(output_rows.flat()), CommCategory::kControl);
  Matrix full(n, output_rows.cols());
  CAGNET_CHECK(gathered.data.size() == static_cast<std::size_t>(full.size()),
               "gather_output: size mismatch");
  std::copy(gathered.data.begin(), gathered.data.end(), full.data());
  return full;
}

DistEngine::~DistEngine() {
  if (algebra_ == nullptr) return;
  // Peers may still be reading this engine's loss scratch (world) or the
  // algebra's broadcast sources; release both before the buffers die.
  algebra_->drain();
  dist::drain_comm(algebra_->world());
}

DistEngine::DistEngine(const DistProblem& problem, GnnConfig config,
                       std::unique_ptr<DistSpmmAlgebra> algebra)
    : problem_(problem), config_(std::move(config)),
      algebra_(std::move(algebra)) {
  const Graph& g = *problem_.graph;
  CAGNET_CHECK(algebra_ != nullptr, "engine requires an algebra");
  CAGNET_CHECK(config_.dims.front() == g.feature_dim(),
               "input dim must match graph features");

  if (algebra_->run().sample) {
    CAGNET_CHECK(algebra_->sample_comm() != nullptr,
                 std::string("sampled training requires a row-partitioned "
                             "algebra exposing sample_comm(); '") +
                     algebra_->name() + "' cannot run RunConfig::sample");
    dist::SampledRunner::check(config_, algebra_->run());
  }

  weights_ = make_weights(config_);
  optimizer_.emplace(config_.optimizer, config_.learning_rate, weights_);
  gradients_.resize(weights_.size());
  const auto layers = static_cast<std::size_t>(config_.num_layers());
  h_.resize(layers + 1);
  z_.resize(layers + 1);
  const auto [f0, f1] = algebra_->feat_slice(config_.dims.front());
  h_[0] = g.features.block(algebra_->row_lo(), f0, algebra_->local_rows(),
                           f1 - f0);
  // Sampled epochs read X itself; their full-batch T^1 waits for the
  // first gather_output.
  if (!algebra_->run().sample) {
    aggregate_input();
    // Peers may still read the X block (stage roots broadcast straight
    // from it) and the set-up's staging; release both before they are
    // freed.
    algebra_->drain();
    algebra_->release_setup_buffers();
    h_[0] = Matrix();
  }
}

void DistEngine::aggregate_input() {
  EpochStats setup;
  algebra_->spmm_at(h_[0], t1_, setup);
  algebra_->complete_spmm_at(t1_, setup);
  aggregated_ = true;
}

void DistEngine::set_weights(const std::vector<Matrix>& weights) {
  CAGNET_CHECK(weights.size() == weights_.size(),
               "set_weights: layer count mismatch");
  for (std::size_t i = 0; i < weights.size(); ++i) {
    CAGNET_CHECK(weights[i].rows() == weights_[i].rows() &&
                     weights[i].cols() == weights_[i].cols(),
                 "set_weights: layer shape mismatch");
    std::copy(weights[i].flat().begin(), weights[i].flat().end(),
              weights_[i].flat().begin());
  }
}

const Matrix& DistEngine::forward() {
  const Index layers = config_.num_layers();

  for (Index l = 1; l <= layers; ++l) {
    const Index f_out = config_.dims[static_cast<std::size_t>(l)];

    // T = A^T H^(l-1) (the algebra's distributed SpMM; layer 1's was
    // aggregated once at set-up), then Z = T W.
    auto& z = z_[static_cast<std::size_t>(l)];
    const Matrix& w = weights_[static_cast<std::size_t>(l - 1)];
    if (l > 1) {
      algebra_->spmm_at(h_[static_cast<std::size_t>(l - 1)], t_buf_, stats_);
      algebra_->times_weight(t_buf_, w, z, stats_);
    } else {
      algebra_->input_times_weight(t1_, w, z, stats_);
    }

    if (l == layers) {
      // log-softmax needs whole rows; rows-whole layouts skip the gather
      // (uniform across ranks by the algebra contract). output_rows_ is
      // the canonical final-layer activation — h_[L] is never read.
      const bool rows_whole = algebra_->rows_whole();
      if (!rows_whole) {
        algebra_->gather_feature_rows(z, f_out, zrows_buf_, stats_);
      }
      const Matrix& z_rows = rows_whole ? z : zrows_buf_;
      ScopedPhase scope(stats_.profiler, Phase::kMisc);
      output_rows_.resize(z_rows.rows(), f_out);
      log_softmax_rows(z_rows, output_rows_);
    } else {
      ScopedPhase scope(stats_.profiler, Phase::kMisc);
      auto& h = h_[static_cast<std::size_t>(l)];
      h.resize(z.rows(), z.cols());
      relu(z, h);
    }
  }
  return output_rows_;
}

void DistEngine::backward() {
  const Index layers = config_.num_layers();
  const Index local_rows = algebra_->local_rows();
  const Index row_lo = algebra_->row_lo();
  const std::vector<Index>& labels = problem_.graph->labels;

  algebra_->begin_backward(stats_);

  // G^L = dL/dZ^L from the cached full-row log-probs, restricted to the
  // local feature slice. For mean-NLL upstream gradients the row sum of
  // dL/dH is -1/m for every labeled row, so the log-softmax Jacobian
  // product needs no communication in any layout. Rows are independent,
  // so they run as parallel row blocks without changing a bit.
  const Index f_last = config_.dims.back();
  const auto [fL0, fL1] = algebra_->feat_slice(f_last);
  g_buf_.resize(local_rows, fL1 - fL0);
  {
    ScopedPhase scope(stats_.profiler, Phase::kMisc);
    const bool labeled = problem_.labeled_count > 0;
    const Real scale =
        labeled ? Real{-1} / static_cast<Real>(problem_.labeled_count)
                : Real{0};
    const auto rows = [&](Index r0, Index r1) {
      for (Index r = r0; r < r1; ++r) {
        const Index label = labels[static_cast<std::size_t>(row_lo + r)];
        if (!labeled || label < 0) {
          std::fill(g_buf_.row(r).begin(), g_buf_.row(r).end(), Real{0});
          continue;
        }
        for (Index c = 0; c < fL1 - fL0; ++c) {
          g_buf_(r, c) = -std::exp(output_rows_(r, fL0 + c)) * scale;
        }
        if (label >= fL0 && label < fL1) g_buf_(r, label - fL0) += scale;
      }
    };
    parallel_for(local_rows,
                 plan_chunks(static_cast<double>(g_buf_.size()),
                             kMinElemsPerChunk, local_rows),
                 rows);
  }

  for (Index l = layers; l >= 1; --l) {
    const Index f_in = config_.dims[static_cast<std::size_t>(l - 1)];
    const Index f_out = config_.dims[static_cast<std::size_t>(l)];

    // U = A G^l (the algebra's transposed distributed SpMM), with full rows
    // assembled once and reused by both Y^l and G^(l-1) — the paper's
    // intermediate-product reuse. Layer 1 needs no U: its weight gradient
    // X^T (A G^1) is (T^1)^T G^1, so G^1's rows stand in. Rows-whole
    // layouts already hold full rows and skip the gather (uniform by the
    // algebra contract).
    if (l > 1) algebra_->spmm_a(g_buf_, u_buf_, stats_);
    const Matrix& u = l > 1 ? u_buf_ : g_buf_;
    if (!algebra_->rows_whole()) {
      algebra_->gather_feature_rows(u, f_out, u_rows_buf_, stats_);
    }
    const Matrix& u_rows = algebra_->rows_whole() ? u : u_rows_buf_;

    // Y^l = (H^(l-1))^T (A G^l): local slice product, completed into the
    // replicated gradient by the algebra's reductions.
    const auto [fi0, fi1] = algebra_->feat_slice(f_in);
    {
      ScopedPhase scope(stats_.profiler, Phase::kMisc);
      y_buf_.resize(fi1 - fi0, f_out);
      gemm(Trans::kYes, Trans::kNo, Real{1},
           l > 1 ? h_[static_cast<std::size_t>(l - 1)] : t1_, u_rows, Real{0},
           y_buf_);
      stats_.work.add_gemm(algebra_->machine(),
                           2.0 * static_cast<double>(local_rows) *
                               static_cast<double>(fi1 - fi0) *
                               static_cast<double>(f_out));
    }
    algebra_->begin_reduce_gradients(
        y_buf_, f_in, f_out, gradients_[static_cast<std::size_t>(l - 1)],
        stats_);

    if (l > 1) {
      // G^(l-1) = (U (W^l)^T) ⊙ relu'(Z^(l-1)); only the local feature
      // slice of W's rows participates.
      ScopedPhase scope(stats_.profiler, Phase::kMisc);
      const Matrix& w = weights_[static_cast<std::size_t>(l - 1)];
      dh_buf_.resize(local_rows, fi1 - fi0);
      if (fi0 == 0 && fi1 == f_in) {
        gemm(Trans::kNo, Trans::kYes, Real{1}, u_rows, w, Real{0}, dh_buf_);
      } else {
        w.block_into(fi0, 0, fi1 - fi0, f_out, w_rows_buf_);
        gemm(Trans::kNo, Trans::kYes, Real{1}, u_rows, w_rows_buf_, Real{0},
             dh_buf_);
      }
      stats_.work.add_gemm(algebra_->machine(),
                           2.0 * static_cast<double>(local_rows) *
                               static_cast<double>(fi1 - fi0) *
                               static_cast<double>(f_out));
      g_next_buf_.resize(local_rows, fi1 - fi0);
      relu_backward(dh_buf_, z_[static_cast<std::size_t>(l - 1)],
                    g_next_buf_);
      std::swap(g_buf_, g_next_buf_);
    }
  }

  // The deferred gradient reductions complete here, having flown behind
  // the backward recurrence; the optimizer step needs them.
  algebra_->finish_gradients(stats_);
}

void DistEngine::step() {
  ScopedPhase scope(stats_.profiler, Phase::kMisc);
  optimizer_->step(weights_, gradients_);
}

void DistEngine::set_start_epoch(int epoch) { epoch_ = epoch; }

EpochResult DistEngine::train_epoch_sampled() {
  if (sampler_ == nullptr) {
    sampler_ = std::make_unique<dist::SampledRunner>(
        problem_, config_, *algebra_, *algebra_->sample_comm());
  }
  Comm& world = algebra_->world();
  const CostMeter before = world.meter();
  stats_ = EpochStats{};
  stats_.result = sampler_->run_epoch(epoch_, h_[0], weights_, gradients_,
                                      *optimizer_, stats_);
  ++epoch_;
  stats_.comm = world.meter();
  stats_.comm.subtract(before);
  return stats_.result;
}

EpochResult DistEngine::train_epoch() {
  if (algebra_->run().sample) return train_epoch_sampled();
  Comm& world = algebra_->world();
  const CostMeter before = world.meter();
  stats_ = EpochStats{};

  // Release point for the previous epoch's nonblocking loss reduction:
  // peers read this rank's loss scratch at their waits, and it is
  // rewritten below. A handful of atomic loads when already drained.
  world.quiesce();

  // Arm the algebra's bounded-staleness halo refresh for this epoch.
  // No-op unless run().stale_k selects a lossy mode.
  algebra_->begin_epoch(epoch_);

  forward();
  // Replicas hold identical output rows; only the primary copies
  // contribute loss terms to the global reduction.
  const Matrix empty(0, config_.dims.back());
  stats_.result = dist::reduce_loss_accuracy(
      algebra_->owns_loss_rows() ? output_rows_ : empty, algebra_->row_lo(),
      problem_.graph->labels, problem_.labeled_count, world, loss_scratch_);
  backward();
  step();

  stats_.comm = world.meter();
  stats_.comm.subtract(before);
  ++epoch_;
  return stats_.result;
}

EpochStats DistEngine::reduce_epoch_stats() const {
  return EpochStats::reduce_max(stats_, algebra_->world());
}

Matrix DistEngine::gather_output() {
  if (algebra_->run().sample) {
    // Sampled epochs never materialize the full-graph output; inference
    // runs one full-batch forward with the current weights first — with
    // the staleness machinery disarmed (inference is exact; the cache
    // slots belong to the training epochs' layer sequence). The first
    // call aggregates T^1 for it, outside every epoch.
    algebra_->begin_epoch(-1);
    if (!aggregated_) aggregate_input();
    forward();
  }
  Matrix full =
      algebra_->gather_output(output_rows_, problem_.graph->num_vertices());
  if (problem_.perm.empty()) return full;
  // Partition-aware runs train on the permuted problem; hand callers the
  // original vertex order back (permuted row r is original vertex
  // perm[r]).
  Matrix original(full.rows(), full.cols());
  for (Index r = 0; r < full.rows(); ++r) {
    const Index v = problem_.perm[static_cast<std::size_t>(r)];
    std::copy(full.row(r).begin(), full.row(r).end(),
              original.row(v).begin());
  }
  return original;
}

}  // namespace cagnet
