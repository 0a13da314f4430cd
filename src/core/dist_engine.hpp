// The shared distributed GCN training engine.
//
// The paper's four partitioning algorithms (1D, 1.5D, 2D, 3D) differ *only*
// in how they realize the distributed SpMM A^T H (forward) and A G
// (backward) plus the collectives that keep W and Y replicated. Everything
// else — weight/optimizer state, the per-layer forward (distributed SpMM
// and GEMM, in the order that aggregates the narrower width -> ReLU /
// log-softmax), the loss/accuracy reduction, the
// backward recurrence, the SGD step, and EpochStats collection — is
// identical across the families. Layer 1's SpMM runs once, at set-up: the
// input X never changes (no dropout, no bias), so T^1 = A^T X is
// epoch-invariant and X^T (A G^1) = (T^1)^T G^1 needs no backward SpMM.
// DistEngine owns that shared epoch;
// DistSpmmAlgebra is the strategy interface each partitioning implements
// (see DESIGN.md, "Engine / algebra split"). Adding a new partitioning is
// one algebra subclass plus a registry entry (algebra_registry.hpp).
// DistEngine's forward and backward are the only layer loop. They run
// over an Aggregation — the set-up T^1 and the algebra's spmm_at /
// spmm_a in a full-batch epoch, a sampled batch's own (dist_sampler.hpp)
// otherwise — and take every row count from the matrices.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/core/dist_common.hpp"
#include "src/gnn/optimizer.hpp"

namespace cagnet {

namespace dist {
class SampledRunner;
}  // namespace dist

/// Distributed linear algebra of one partitioning scheme. All methods are
/// collective over world(); every rank must call them in lockstep (the same
/// contract as Comm). An algebra is stateful only in its partitioned
/// adjacency blocks and communicators — activations, weights, and optimizer
/// state live in the engine.
///
/// Local data layout contract: each rank owns the H/G/Z row block
/// [row_lo(), row_hi()) and, of an f-wide feature dimension, the column
/// slice feat_slice(f). 1D/1.5D keep rows whole (feat_slice = [0, f)); the
/// 2D/3D families split features across process columns.
class DistSpmmAlgebra {
 public:
  /// Throws Error when `run` fails RunConfig::validate.
  DistSpmmAlgebra(const RunConfig& run, MachineModel machine)
      : machine_(machine), run_(run) {
    run_.validate();
  }
  virtual ~DistSpmmAlgebra() = default;

  DistSpmmAlgebra(const DistSpmmAlgebra&) = delete;
  DistSpmmAlgebra& operator=(const DistSpmmAlgebra&) = delete;

  /// Registry / display name ("1d", "2d", ...). Purely local.
  virtual const char* name() const = 0;

  /// The world communicator (loss reduction, stats, meter windows). The
  /// returned Comm's meter carries every charge this algebra makes, since
  /// meters are shared across split sub-communicators.
  virtual Comm& world() = 0;

  /// Target machine for modeled local-kernel work and for folding overlap
  /// regions (CostMeter overlap accounting). Purely local.
  const MachineModel& machine() const { return machine_; }

  /// The run's modes, fixed at construction (identical on every rank).
  /// The engine and the sampled runner read theirs here. Purely local.
  const RunConfig& run() const { return run_; }

  // ---- Local layout (all purely local queries) ----

  /// First global row of this rank's H/G/Z blocks.
  virtual Index row_lo() const = 0;
  /// One past the last global row of this rank's H/G/Z blocks.
  virtual Index row_hi() const = 0;
  /// Row count of this rank's H/G/Z blocks.
  Index local_rows() const { return row_hi() - row_lo(); }

  /// Column range [c0, c1) of an f-wide feature dimension stored locally.
  virtual std::pair<Index, Index> feat_slice(Index f) const { return {0, f}; }

  /// True when local blocks hold whole feature rows (feat_slice is the
  /// identity) so gather_feature_rows is a no-op the engine may skip.
  /// Must be uniform across the world — the engine branches on it around
  /// collectives. Per-rank slice arithmetic is NOT a substitute: a 1-wide
  /// feature dimension on a multi-column grid gives some ranks the full
  /// slice and others an empty one.
  virtual bool rows_whole() const { return true; }

  /// True when this rank's output rows are the primary copy for loss and
  /// accuracy terms (replicas — 1.5D team members t > 0, 2D/3D process
  /// columns j > 0 — contribute nothing to the global reduction).
  virtual bool owns_loss_rows() const { return true; }

  /// Communicator of the sampled minibatch path, or nullptr when this
  /// algebra cannot host it. Sampled training needs a pure row-stripe
  /// layout — every rank owning whole rows [row_lo, row_hi) of H and the
  /// matching A^T stripe to sample in-neighbors from — so only 1D (the
  /// rows-whole family at c = 1) qualifies today; feature-sliced (2D/3D)
  /// and team-replicated (1.5D, c > 1) layouts return nullptr and
  /// DistEngine raises a typed Error.
  virtual Comm* sample_comm() { return nullptr; }

  // ---- The distributed operations of one GCN layer ----
  //
  // All results are written into caller-owned output matrices whose
  // storage is reused across layers and epochs (Matrix::resize), so the
  // per-epoch hot path stops allocating after the first epoch. Outputs
  // must not alias inputs.

  /// Forward propagation T = A^T H: `h` is the local block of an
  /// activation-layout input, `t` receives the local block of T in the
  /// same layout and width. Collective. The engine calls it every epoch
  /// for each layer l >= 2 on H^(l-1), or, when the layer narrows
  /// (f_l < f_(l-1)), on H^(l-1) W^l, and once at set-up for layer 1's
  /// T^1 = A^T X. Charges: the family's broadcast/
  /// reduction stages — kSparse for adjacency blocks (2D/3D SUMMA stages;
  /// the blocks arrive at construction, and every call replays their
  /// broadcasts' charges where a pipelined loop waits for them), kDense
  /// for activation panels and the completing reductions. Stage k+1's
  /// blocks are in flight behind stage k's local SpMM; `t` returns whole
  /// (1.5D at c > 1 completes it with a blocking team all-reduce).
  virtual void spmm_at(const Matrix& h, Matrix& t, EpochStats& stats) = 0;

  /// Backward propagation U = A G: `g` is the local block of G^l, `u`
  /// receives the local block of U. The engine calls it for layers
  /// l >= 2 only (layer 1's weight gradient is (T^1)^T G^1), after
  /// begin_backward(). Collective; charges like spmm_at (on the
  /// transposed-adjacency blocks, which the 2D/3D families also receive
  /// at construction).
  virtual void spmm_a(const Matrix& g, Matrix& u, EpochStats& stats) = 0;

  /// Z = T W with W replicated: `t` is the local block of T, `z` receives
  /// the local block of Z. Default: purely local GEMM (rows-whole
  /// layouts; charges nothing); the 2D/3D families override with their
  /// partial-SUMMA row broadcasts (kDense). Collective whenever
  /// communication is involved.
  virtual void times_weight(const Matrix& t, const Matrix& w, Matrix& z,
                            EpochStats& stats);

  /// Z = X W for an `x` in activation layout: layer 1's Z^1 = T^1 W^1
  /// on the set-up's aggregate (f_0 wide), and a narrowing layer's
  /// H^(l-1) W^l, formed before its SpMM
  /// so that the SpMM and its exchange run at f_l. Default:
  /// times_weight, a local GEMM for the rows-whole families. The 2D/3D
  /// families override with a process-row reduce-scatter of the
  /// f_out-wide terms X_j W_j, which charges fewer words than
  /// broadcasting X's f_in-wide panels whenever f_out (q-1)/q < f_in.
  /// Collective whenever communication is involved.
  virtual void input_times_weight(const Matrix& x, const Matrix& w,
                                  Matrix& z, EpochStats& stats) {
    times_weight(x, w, z, stats);
  }

  /// Assemble full rows (local_rows x f) from the local feature slice —
  /// the row-wise all-gather forced by log-softmax's row dependence and
  /// reused for the weight-gradient operand. Default: identity copy
  /// (rows-whole layouts move nothing; the engine skips the call). The
  /// 2D/3D overrides are collective over the process row and charge
  /// kDense for the received slices.
  virtual void gather_feature_rows(const Matrix& local, Index f,
                                   Matrix& full, EpochStats& stats);

  /// Complete layer `layer`'s weight gradient Y^l = (H^(l-1))^T (A G^l)
  /// (at l = 1, the equal (T^1)^T G^1) from this rank's partial
  /// `y_partial` (feat_slice(f_in) width x f_out; overwritten), leaving
  /// the fully replicated (f_in x f_out) gradient in `y_full` on every
  /// rank. Blocking collectives, so nothing stays pending across layers;
  /// charges kDense for the all-reduce (and, 2D/3D, the slice
  /// all-gather). Every charge value is an integer count of bytes over the
  /// 8-byte word — an exactly-representable dyadic — so per-category sums
  /// are order-independent. Under RunConfig::compress the all-reduce is
  /// lossy with error feedback, one residual per layer.
  virtual void reduce_gradients(Index layer, Matrix& y_partial, Index f_in,
                                Index f_out, Matrix& y_full,
                                EpochStats& stats) = 0;

  /// Assemble the full (n x f) output on every rank from the full-row local
  /// output block (parity tests and inference). Default: rank-ordered
  /// all-gather over gather_comm(), charged as kControl so it never
  /// perturbs the modeled training volumes. Collective.
  virtual Matrix gather_output(const Matrix& output_rows, Index n);

  // ---- Epoch hooks ----

  /// Called at the start of each full-batch epoch with the absolute epoch
  /// number, or with -1 to disarm before an out-of-band forward (sampled
  /// inference). The 1D/1.5D families arm their halo plan's
  /// bounded-staleness state here (dist::halo_begin_epoch), a purely
  /// local decision. A no-op by default and whenever run().stale_k is
  /// off.
  virtual void begin_epoch(int epoch) { (void)epoch; }

  /// Called before the backward recurrence. The 2D/3D families charge
  /// the paper's "trpose" phase here (kTranspose): the distributed
  /// transpose A^T -> A and its way back, which their constructor ran
  /// once and every epoch replays. Purely local; a no-op by default.
  virtual void begin_backward(EpochStats& stats) { (void)stats; }

  /// Free the receive and staging buffers the set-up's f_0-wide T^1 =
  /// A^T X sized. Matrix::resize keeps capacity, so they would otherwise
  /// stay X-panel sized for the whole run, though every epoch's panels
  /// are narrower. The engine calls it once, after the set-up's SpMM
  /// returned (with its sources released); the epochs regrow them at
  /// their own widths. Purely local; nothing to free by default.
  virtual void release_setup_buffers() noexcept {}

 protected:
  /// Communicator whose rank-ordered all-gather of full-row output blocks
  /// assembles H^L: world (1D), the slice (1.5D), the j-plane (2D/3D; at
  /// l = 1 it has the process column's ranks).
  virtual Comm& gather_comm() = 0;

 private:
  MachineModel machine_;
  RunConfig run_;
};

/// The aggregations of one pass through DistEngine's layer loop, all
/// that a full-batch epoch and a sampled batch do differently: Â is A,
/// or a batch's sampled restriction of it. Each result has the rows of
/// the level it aggregates onto: the local row block of the whole graph,
/// or a batch's |F_k| rows. Collective whenever the realization
/// communicates.
class Aggregation {
 public:
  virtual ~Aggregation() = default;

  /// T^1 = Â^T H^0 (f_0 wide), which Z^1 = T^1 W^1 and Y^1 = (T^1)^T G^1
  /// read. Called once per pass, first; valid until the backward ends.
  virtual const Matrix& input(EpochStats& stats) = 0;

  /// Forward propagation Â^T M for a layer l >= 2: `m` is the
  /// level-(l-1) block of the layer's SpMM input — H^(l-1), or
  /// H^(l-1) W^l when the layer narrows (f_l < f_(l-1)) — and `t`
  /// receives the level-l block of the product, as wide as `m`.
  virtual void spmm_at(Index layer, const Matrix& m, Matrix& t,
                       EpochStats& stats) = 0;

  /// Backward propagation U^l = Â G^l for a layer l >= 2: `g` is the
  /// level-l block of G, `u` receives the level-(l-1) block of U.
  virtual void spmm_a(Index layer, const Matrix& g, Matrix& u,
                      EpochStats& stats) = 0;
};

/// The single shared trainer: one GCN epoch (forward, loss, backward, SGD
/// step) expressed against a DistSpmmAlgebra, over the whole graph or, in
/// a sampled run, once per minibatch. Owns the replicated
/// weights/optimizer, the local activation caches, and the per-epoch
/// EpochStats.
class DistEngine : public DistTrainer {
 public:
  /// Collective constructor: call on every rank of the algebra's world.
  /// The modes are the algebra's run(); a sampled run on an algebra
  /// without sample_comm(), or with fanouts that do not fit the model,
  /// throws Error here. A full-batch run aggregates layer 1 here: T^1 =
  /// A^T X through the algebra's spmm_at, charged to the world meter
  /// before any epoch's window opens (see aggregate_input).
  DistEngine(const DistProblem& problem, GnnConfig config,
             std::unique_ptr<DistSpmmAlgebra> algebra);
  ~DistEngine() override;  // out of line: SampledRunner is incomplete here

  /// One epoch: full batch (forward, loss, backward, SGD step), or, in a
  /// sampled run, the same steps per minibatch (dist::SampledRunner).
  /// Collective over the algebra's world; the returned loss/accuracy are
  /// already globally reduced (the reductions are charged as kControl).
  /// last_epoch_stats().comm afterwards holds this rank's charges of the
  /// epoch, summed from zero (a MeterWindow), overlap totals included.
  EpochResult train_epoch() override;

  /// Stats of the most recent epoch (this rank's view). Purely local.
  const EpochStats& last_epoch_stats() const override { return stats_; }

  /// Collective: the most recent epoch's stats max-reduced over the world
  /// (bulk-synchronous epochs are paced by the slowest rank); the
  /// reduction travels as kControl.
  EpochStats reduce_epoch_stats() const override;

  /// Collective: assemble the full (n x f) output log-probability matrix
  /// on every rank (kControl traffic; parity tests and inference). For a
  /// partitioned problem the rows are un-permuted back to original vertex
  /// order, so callers never see the internal relabeling.
  Matrix gather_output() override;

  /// Replicated weight matrices (bitwise identical on every rank by
  /// construction). Purely local.
  const std::vector<Matrix>& weights() const override { return weights_; }

  /// Replace the replicated weights (checkpoint restore). Purely local —
  /// call with identical matrices on every rank (e.g. loaded from the
  /// same checkpoint file) to keep the replication invariant; shapes must
  /// match the configured model exactly.
  void set_weights(const std::vector<Matrix>& weights) override;

  /// Training configuration (identical on every rank). Purely local.
  const GnnConfig& config() const { return config_; }
  /// The partitioning strategy driving this engine. Purely local access;
  /// calling algebra methods directly re-enters the collective contract.
  DistSpmmAlgebra& algebra() { return *algebra_; }
  const DistSpmmAlgebra& algebra() const { return *algebra_; }

  /// Align the absolute-epoch counter (checkpoint resume). The sampled
  /// path keys its shuffle/sampling RNG streams by absolute epoch, so
  /// restarting from a checkpoint must resume the streams where the
  /// uninterrupted run would be — the recovery drills assert bitwise
  /// parity through this hook. Purely local.
  void set_start_epoch(int epoch) override;

 private:
  /// The layer loop's forward over `agg`; returns the full rows of
  /// this pass's log-probabilities (output_rows_).
  const Matrix& forward(Aggregation& agg);
  /// The layer loop's backward over the `agg` of the preceding forward:
  /// G^L from output_rows_, whose row r has label `labels[r]` (< 0:
  /// unlabeled, a zero gradient row) and the mean-NLL `scale`, -1 over
  /// the loss's labeled row count (0 when there are none); then the
  /// recurrence down to Y^1, each layer's gradient reduced in turn.
  void backward(Aggregation& agg, std::span<const Index> labels, Real scale);
  void step();
  /// T^1 = A^T X from the resident X block (collective). X is constant —
  /// the model has no dropout and no bias — so layer 1's aggregate never
  /// changes: every epoch runs Z^1 = T^1 W^1 forward and Y^1 =
  /// (T^1)^T G^1 = X^T (A G^1) backward, without the f_0-wide SpMMs or
  /// their exchanges. Runs with the staleness state disarmed, so it takes
  /// no halo cache slot.
  void aggregate_input();

  const DistProblem& problem_;
  GnnConfig config_;
  std::unique_ptr<DistSpmmAlgebra> algebra_;

  std::optional<Optimizer> optimizer_;
  std::vector<Matrix> weights_;
  std::vector<Matrix> gradients_;
  /// Local blocks of H^l, l = 1..L-1: the row block, or in a sampled
  /// run the current batch's |F_l| rows. h_[0] holds the X block only in
  /// sampled runs (the minibatch features); a full-batch run keeps T^1
  /// instead and frees X at set-up.
  std::vector<Matrix> h_;
  std::vector<Matrix> z_;  ///< local blocks of Z^l, l = 1..L (as h_)
  Matrix t1_;              ///< T^1 = A^T X, layer 1's full-batch aggregate
  bool aggregated_ = false;  ///< t1_ holds T^1
  /// T^1 of the pass in flight: the forward takes it from its
  /// aggregation, the backward's Y^1 reads it.
  const Matrix* input_ = nullptr;
  Matrix output_rows_;     ///< full rows of this rank's H^L block

  // Reusable epoch workspaces: sized on first use, allocation-free after
  // the first epoch (Matrix::resize reuses storage).
  Matrix t_buf_;       ///< T = A^T H^(l-1), layers l >= 2 that keep or
                       ///< widen their width
  Matrix hw_buf_;      ///< H^(l-1) W^l, the SpMM input of a narrowing
                       ///< layer (f_l < f_(l-1)); no peer reads it once
                       ///< spmm_at returns
  Matrix zrows_buf_;   ///< gathered full rows of Z^L
  Matrix u_buf_;       ///< U = A G^l, layers l >= 2
  Matrix u_rows_buf_;  ///< gathered full rows of U (G^1 at layer 1)
  Matrix g_buf_;       ///< G^l (ping)
  Matrix g_next_buf_;  ///< G^(l-1) (pong)
  Matrix dh_buf_;      ///< U (W^l)^T before the ReLU mask
  Matrix y_buf_;       ///< weight-gradient slice partial
  Matrix w_rows_buf_;  ///< feat-sliced rows of W for the G recurrence

  /// Sampled minibatch state (dist::SampledRunner), constructed lazily on
  /// the first sampled epoch.
  std::unique_ptr<dist::SampledRunner> sampler_;
  /// Absolute epoch counter (sampled RNG stream key; see set_start_epoch).
  int epoch_ = 0;

  EpochStats stats_;
};

}  // namespace cagnet
