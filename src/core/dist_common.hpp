// Shared machinery of the distributed GNN trainers (1D / 1.5D / 2D / 3D).
#pragma once

#include <array>
#include <functional>
#include <span>
#include <vector>

#include "src/comm/comm.hpp"
#include "src/comm/grid.hpp"
#include "src/comm/machine.hpp"
#include "src/core/run_config.hpp"
#include "src/gnn/model.hpp"
#include "src/graph/graph.hpp"
#include "src/graph/partition.hpp"
#include "src/util/profiler.hpp"

namespace cagnet {

/// Read-only problem state shared by all ranks of a simulated world.
///
/// The simulation keeps one copy of the graph in host memory, the
/// caller's; each rank extracts only its own blocks in its trainer
/// constructor, mirroring a real distributed loader. A^T is materialized
/// once here rather than per rank (the paper's implementation likewise
/// prepares both orientations).
///
/// Training order: the algebras index rows by training position r, which
/// holds the caller's vertex perm[r] (r itself when perm is empty, the
/// identity form `prepare(graph)`). The partition-aware form
/// `prepare(graph, parts, partitioner)` runs a registered partitioner
/// (src/graph/partition.hpp), sorts the vertices part-contiguously, and
/// orders the vertices inside every piece for SpMM locality
/// (order_within_pieces). The pieces cut the sorted order at every part
/// boundary, every block_range boundary of each divisor of `parts`, and
/// every 3D fine_range boundary of each q^2 l dividing `parts`, so at
/// P = parts or a divisor of it every row or column block an algebra
/// extracts keeps its vertex set, nnz and degrees: the order moves no
/// word. `at`, `labels`, `partition` and `part_offsets` are in training
/// order; `graph` is not copied and stays in the caller's order, so
/// only DistProblem reads its features, labels and adjacency
/// (feature_rows gathers X through perm). The engine un-permutes
/// gather_output() so callers always see original vertex order. The
/// block boundaries follow the (generally uneven) part sizes via
/// row_range(); algebras whose part count differs from the partition's
/// fall back to even block_range splits of the training order.
struct DistProblem {
  const Graph* graph = nullptr;  ///< the caller's graph, in its own order
  Csr at;  ///< A^T in training order (the paper keeps A and A^T
           ///< distinguishable for directedness)
  std::vector<Index> labels;  ///< labels in training order
  Index labeled_count = 0;

  // ---- Partition-aware layout (empty / identity when prepared without a
  // partitioner) ----
  std::string partitioner = "block";
  Partition partition;             ///< owners in training order (sorted)
  std::vector<Index> part_offsets; ///< parts+1 row prefix; empty = even blocks
  std::vector<Index> perm;         ///< training row r = original vertex
                                   ///< perm[r]; empty = identity
  EdgeCutStats edgecut;            ///< of `partition` on the graph

  /// Identity layout (the paper's default block distribution).
  static DistProblem prepare(const Graph& graph);

  /// Partitioned layout: run the named registered partitioner for `parts`
  /// parts, put the problem in training order (parts contiguous, each
  /// piece ordered for locality), and record the edge-cut statistics the
  /// halo path and the cost model consume. Every partitioner, "block"
  /// included, is ordered: "block" charges every word and latency unit
  /// the identity form charges, but trains on relabeled rows, so its
  /// results agree with the identity form's to rounding, not bitwise.
  static DistProblem prepare(const Graph& graph, int parts,
                             const std::string& partitioner,
                             std::uint64_t seed = 12345);

  /// True when part boundaries (possibly uneven) are recorded.
  bool partitioned() const { return !part_offsets.empty(); }

  /// Row range of block `idx` of `parts`: the partition's own (uneven)
  /// boundaries when its part count matches `parts`, the even block_range
  /// otherwise. The 1D family queries with parts = P, the 1.5D family
  /// with parts = G = P / c.
  std::pair<Index, Index> row_range(int parts, int idx) const {
    if (static_cast<int>(part_offsets.size()) == parts + 1) {
      return {part_offsets[static_cast<std::size_t>(idx)],
              part_offsets[static_cast<std::size_t>(idx) + 1]};
    }
    return block_range(graph->num_vertices(), parts, idx);
  }

  /// Training rows [r0, r0 + rows) of the features, columns [c0, c0 +
  /// cols): the caller's rows gathered through perm.
  Matrix feature_rows(Index r0, Index rows, Index c0, Index cols) const;
};

/// Per-epoch instrumentation, mirroring what Figs. 2-3 report.
struct EpochStats {
  EpochResult result;
  Profiler profiler;    ///< measured host seconds per phase (this rank)
  CostMeter comm;       ///< metered traffic for the epoch (this rank)
  WorkMeter work;       ///< modeled local-kernel seconds (this rank)

  /// Modeled epoch seconds on the target machine: communication under
  /// alpha-beta plus modeled local kernels, with every phase serialized
  /// (the paper's bulk-synchronous reading).
  double modeled_seconds(const MachineModel& m) const {
    return comm.modeled_seconds(m) + work.total_seconds();
  }

  /// Modeled epoch seconds when each overlapped region pays
  /// max(comm, compute) instead of comm + compute (see CostMeter's overlap
  /// accounting). Equals modeled_seconds when nothing was overlapped.
  /// Note: the per-region fold uses the machine the run was recorded with.
  double modeled_seconds_overlap(const MachineModel& m) const {
    return modeled_seconds(m) - comm.overlap_saved_seconds();
  }

  /// Collective: component-wise max over ranks (bulk-synchronous epochs
  /// are paced by the slowest rank), metered as control traffic. The
  /// overlap totals keep the largest serialized seconds and the largest
  /// per-rank saving (serialized - overlapped).
  static EpochStats reduce_max(const EpochStats& mine, Comm& comm);
};

/// Interface shared by the distributed trainers. All methods are
/// *collective*: every rank of the world must call them in lockstep.
class DistTrainer {
 public:
  virtual ~DistTrainer() = default;

  /// One full-batch epoch (forward, loss, backward, SGD step). The returned
  /// loss/accuracy are global (already reduced).
  virtual EpochResult train_epoch() = 0;

  /// Stats of the most recent epoch (this rank's view).
  virtual const EpochStats& last_epoch_stats() const = 0;

  /// Collective: the most recent epoch's stats max-reduced over the world
  /// (bulk-synchronous epochs are paced by the slowest rank).
  virtual EpochStats reduce_epoch_stats() const = 0;

  /// Assemble the full output log-probability matrix H^L on every rank
  /// (control-category traffic; used for parity tests and inference).
  virtual Matrix gather_output() = 0;

  /// Replicated weight matrices (identical on every rank by construction).
  virtual const std::vector<Matrix>& weights() const = 0;

  /// Overwrite the replicated weights (checkpoint restore). Purely local,
  /// but every rank must install identical matrices or the replication
  /// invariant breaks; shapes must match the configured layers.
  virtual void set_weights(const std::vector<Matrix>& weights) = 0;

  /// Align the trainer's absolute-epoch counter after a checkpoint
  /// restore. Full-batch training is epoch-stateless (weights are the
  /// whole state), so the default is a no-op; the sampled trainer keys
  /// its shuffle and sampling RNG streams by absolute epoch, and restart
  /// bitwise-determinism requires resuming those streams at the restored
  /// epoch rather than zero. Purely local.
  virtual void set_start_epoch(int epoch) { (void)epoch; }
};

/// Helpers shared by the trainer implementations.
namespace dist {

/// Reusable dense/staging buffers for the shared SUMMA helpers. One per
/// algebra instance; after the first epoch the hot path stops allocating.
/// The helpers never nest, so sharing the buffers between them is safe.
struct DistWorkspace {
  Matrix stage_recv;        ///< per-stage dense broadcast receive buffer
  Matrix stage_recv2;       ///< double-buffer partner of stage_recv (stage
                            ///< k+1 lands here while stage k is still
                            ///< being consumed)
  Matrix w_block;           ///< the weight block a Z = T W path reads
  Matrix z_staged;          ///< reduce_times_weight's f_out-wide term,
                            ///< slice-major: its reduce-scatter source
  Gathered<Real> gathered;  ///< all-gather staging
};

/// Demand-driven halo exchange plan of the rows-whole (1D / 1.5D)
/// families, built once per algebra from the local A^T sparsity and
/// kept across epochs and layers (the analogue of the SUMMA's stage
/// blocks, received at construction). Lifecycle:
///
///   1. *Build* (collective, constructor time): each rank scans its A^T
///      blocks for the distinct peer-local columns they touch (`need`),
///      compacts each block to those columns (Csr::with_remapped_columns),
///      and runs one index alltoallv so every rank learns which of its
///      rows each peer requests (`send`). The index exchange is one-time
///      setup, charged as kControl.
///   2. *Epoch replay*: every forward layer packs the `send` rows of H
///      (threaded on the persistent pool, Phase::kHaloPack) and exchanges
///      them (kHalo; edgecut words). The backward reuses the same plan
///      mirrored — contributions travel along need-rows and land on
///      send-rows. Nothing is rebuilt; the staging buffers are reused
///      allocation-free.
///   3. *Pipeline + release*: the exchange posts through
///      ialltoallv_post and each peer's rows are drained — zero-copy,
///      straight from the peer's pack buffer — exactly when the stage
///      that multiplies them runs (PendingOp::await_source), so the
///      self-block SpMM and every earlier stage execute while later
///      peers' rows are still in flight. The sweep that posted the
///      exchange returns only after every member completed it (it
///      quiesces the communicator), so the next exchange rewrites the
///      one pack staging at once.
struct HaloPlan {
  bool ready = false;
  /// Forward receives: rows obtained from each source, ascending peer
  /// order. need_rows are peer-local row indices.
  std::vector<std::size_t> recv_row_offsets;  ///< P+1
  std::vector<Index> need_rows;
  /// Forward sends: this rank's local row indices each destination
  /// requested.
  std::vector<std::size_t> send_row_offsets;  ///< P+1
  std::vector<Index> send_rows;
  /// Column-compacted A^T blocks (self and absent peers left empty; the
  /// self stage multiplies the rank's own uncompacted block against H).
  std::vector<Csr> blocks;
  /// The pack staging. Peers read send_buf and send_elem_offsets at
  /// their own drains, until the sweep that posted them returns.
  struct PackBuf {
    Matrix send_buf;
    std::vector<std::size_t> send_elem_offsets;  ///< P+1, rebuilt per use
    /// Compressed-payload staging (RunConfig::compress): the exact
    /// pack above is re-encoded per destination chunk into send_bytes,
    /// and the byte offsets replace the element offsets on the wire.
    std::vector<std::uint8_t> send_bytes;
    std::vector<std::size_t> send_byte_offsets;  ///< P+1
  };
  PackBuf pack;
  /// Codec of the row payloads (RunConfig::compress; kOff = exact
  /// rows), fixed by the plan's owner at construction.
  CompressMode codec = CompressMode::kOff;
  /// Decode target for compressed halo rows: the forward decodes each
  /// peer's chunk at recv_row_offsets[j]*f; the backward at
  /// land_row_offsets[r]*f. Sized by the caller before the sweep.
  std::vector<Real> recv_decode;

  /// Bounded-staleness refresh state (RunConfig::stale_k; armed per epoch by
  /// halo_begin_epoch, consumed by halo_spmm_pipeline). The cache holds
  /// the *landed* rows of each forward exchange — one slot per forward
  /// layer, laid out at the exchange's effective receive offsets — so a
  /// skipped epoch replays them through the identical accumulation
  /// without touching the wire. Per-run transient: never checkpointed,
  /// and a rebuilt world's plan refreshes on its first epoch.
  struct StaleState {
    bool active = false;      ///< cache machinery armed for this epoch
    bool epoch_skip = false;  ///< replay every peer, no exchange
    int cur_slot = 0;         ///< forward-exchange slot of the current call
    int layer = 0;            ///< forward exchanges begun this epoch
    int filled_epoch = -1;    ///< epoch of the last refresh
    std::vector<std::vector<Real>> cache;  ///< landed rows per slot
    std::vector<Index> cache_f;            ///< feature width per slot
  };
  StaleState stale;

  /// Aggregation-before-communication plan (RunConfig::preagg; built once by
  /// build_preagg_plan next to the halo plan). Both endpoints of a
  /// (source, dest) pair derive the same structural decision from the
  /// same A^T coupling block — aggregate exactly when the block has
  /// fewer distinct nonzero output rows than requested source rows — so
  /// no control traffic is needed and the effective wire layout is
  /// rank-consistent by construction.
  struct PreAggPlan {
    bool active = false;         ///< any pair aggregates
    std::vector<char> agg_send;  ///< per dest: this rank pre-reduces
    std::vector<char> agg_recv;  ///< per source: rows land pre-reduced
    /// Per aggregating dest: the dest's A^T coupling segment compacted to
    /// its nonzero output rows (columns stay rank-local H indices), the
    /// operator of the sender-side partial SpMM.
    std::vector<Csr> seg;
    std::vector<std::size_t> stage_row_offsets;    ///< P+1, full refresh
    std::vector<std::size_t> epoch_stage_offsets;  ///< P+1, this epoch
    std::vector<Index> stage_rows;  ///< iota pack indices into stage
    Matrix stage;                   ///< staged outgoing rows (agg + raw)
    /// Per aggregating source: the local T rows its pre-reduced rows
    /// scatter-add onto (ascending; chunked by agg_land_offsets).
    std::vector<Index> agg_land_rows;
    std::vector<std::size_t> agg_land_offsets;      ///< P+1
    std::vector<std::size_t> eff_recv_row_offsets;  ///< P+1 landed rows
  };
  PreAggPlan preagg;
};

/// The (parts+1) partition-aware block boundaries of `problem` for a
/// family splitting rows into `parts` blocks (DistProblem::row_range
/// semantics: the partition's own offsets when aligned, even block_range
/// otherwise). Shared by the rows-whole family (parts = G = P/c) and the
/// sampled runner (parts = P).
std::vector<Index> row_starts(const DistProblem& problem, int parts);

/// Build `plan` from this rank's A^T blocks: `block_of(j)` returns the
/// (local_rows x peer_rows(j)) block of peer j's columns, or nullptr when
/// no rows are needed from j (1.5D off-stripe peers); `self` is this
/// rank's index in `comm` (its own block is never exchanged). Collective
/// over `comm`; the index request-and-send is charged as kControl.
void build_halo_plan(const std::function<const Csr*(int)>& block_of,
                     int self, Comm& comm, HaloPlan& plan);

/// Arm (or disarm) the plan's bounded-staleness state for one epoch,
/// called by the algebra's begin_epoch hook before the first forward
/// exchange, with the trainer's `run` modes. An epoch refreshes when
/// run.stale_k epochs have passed since the plan's last refresh, and
/// replays the cache otherwise. Both counters evolve identically on every
/// rank, so a replay epoch elides the collective entirely and the call is
/// purely local. epoch < 0 disarms (exact path; used by out-of-band
/// forwards like gather_output). No-op state when stale is off, k == 1,
/// or the halo plan is inactive.
void halo_begin_epoch(int epoch, bool halo_active, const RunConfig& run,
                      HaloPlan& plan);

/// Build the plan's aggregation-before-communication side tables from the
/// global A^T (`at`): `peer_rows(j)` returns peer j's [row_lo, row_hi)
/// global output-row range, [my_row_lo, my_row_hi) is this rank's H-row
/// range, `self` its index in the plan's communicator. Purely local —
/// sender and receiver of each pair inspect the same coupling block and
/// reach the same decision. Leaves preagg.active false when no pair
/// profits. Call after build_halo_plan, once, at construction.
void build_preagg_plan(const Csr& at,
                       const std::function<std::pair<Index, Index>(int)>&
                           peer_rows,
                       Index my_row_lo, Index my_row_hi, int self,
                       HaloPlan& plan);

/// Collective profitability gate of the mirrored backward contribution
/// exchange: the exchange lands per-peer contribution rows (the plan's
/// send side) instead of a pre-reduced chunk, paying pack + scatter-add
/// host work per landed row — a win only when the structural sparsity
/// actually shrinks the volume. Returns true when the busiest rank's
/// landed rows stay under half the reduce-scatter's per-rank row charge
/// (`rs_rows`), max-reduced over `comm` so the decision is rank-uniform
/// (collective order depends on it). One-time setup traffic (kControl).
bool halo_backward_profitable(std::size_t landed_rows, double rs_rows,
                              Comm& comm);

/// Begin one halo exchange: pack the rows of `src` listed in (`rows`,
/// `row_offsets`) into the plan's pack staging on the persistent pool
/// (Phase::kHaloPack), and post them through ialltoallv_post. The
/// returned pending op is the drain handle (per-source zero-copy views;
/// the caller must wait() it after draining, then quiesce `comm`).
/// Charges land on `cat` at the drains.
PendingOp halo_exchange_begin(const Matrix& src, std::span<const Index> rows,
                              std::span<const std::size_t> row_offsets,
                              Comm& comm, HaloPlan& plan, CommCategory cat,
                              Profiler& profiler);

/// The pipelined halo forward of the rows-whole families: one exchange of
/// the plan's send rows of `h` plus the stage sweep, accumulating into
/// `t` in ascending peer order — bitwise the broadcast loops'
/// accumulation. The self stage (j == self) multiplies the rank's own
/// uncompacted block (`self_block`; null when this rank's block is not a
/// stage, as for 1.5D non-keepers) against `h` and waits on nothing;
/// each remote stage drains exactly its peer's packed rows as they land
/// (zero-copy from the peer's staging, charges applied at the drain) and
/// multiplies the plan's compacted block. Every drain is
/// recorded as one CostMeter overlap region paired against the previous
/// stage's SpMM, so halo mode reports nonzero overlap_regions. Returns
/// with its sources released: after the last drain it quiesces `comm`
/// (an unwind drains it, swallowing abort errors), so no peer reads the
/// pack staging once it returns. Shared by the 1D (comm = world) and
/// 1.5D (comm = slice) forwards and the sampled batches' aggregations
/// (comm = world, a per-batch plan).
void halo_spmm_pipeline(const Matrix& h, const Csr* self_block, int self,
                        Comm& comm, HaloPlan& plan, CommCategory cat,
                        const MachineModel& machine, EpochStats& stats,
                        Matrix& t);

/// The mirrored backward contribution exchange: pack `pack_rows` of
/// `partial` (the structurally nonzero remote contribution rows), ship
/// them along the plan, and accumulate into `u` in ascending peer order —
/// bitwise the reduce-scatter it replaces (skipped rows are exact +0.0
/// terms). The self term adds `partial` rows [self_row0, self_row0 +
/// u.rows()) when `self_partial` is true (1D always; 1.5D only on
/// keepers); remote peers' landed rows scatter-add onto `land_rows`
/// (chunked by `land_row_offsets`), threaded on the pool — rows within a
/// peer are distinct, so chunked writes stay disjoint and deterministic.
/// Drains per peer with the same chunk-drain overlap accounting as the
/// forward, and returns with its sources released like
/// halo_spmm_pipeline. Shared by the 1D (full plan mirror) and 1.5D
/// (stripe-stacked pack rows) backwards.
void halo_exchange_contributions(
    const Matrix& partial, std::span<const Index> pack_rows,
    std::span<const std::size_t> pack_row_offsets, bool self_partial,
    Index self_row0, std::span<const Index> land_rows,
    std::span<const std::size_t> land_row_offsets, int self, Comm& comm,
    HaloPlan& plan, CommCategory cat, const MachineModel& machine,
    EpochStats& stats, Matrix& u);

/// This rank's {NLL sum, correct predictions} over the rows of output
/// log-probabilities `log_probs` (full rows), row r labeled `labels[r]`;
/// unlabeled rows (label < 0) add nothing. Rows are summed in ascending
/// order. Purely local.
std::array<double, 2> loss_terms(const Matrix& log_probs,
                                 std::span<const Index> labels);

/// Global mean NLL loss and accuracy from a local row block of output
/// log-probabilities, row r labeled `labels[r]`. Reduces loss_terms
/// across ranks as control traffic through one blocking all-reduce.
EpochResult reduce_loss_accuracy(const Matrix& local_log_probs,
                                 std::span<const Index> labels,
                                 Index labeled_count, Comm& comm);

/// Average degree of a CSR block (nnz / rows), guarding empty blocks.
double block_degree(const Csr& block);

/// One dense broadcast stage without staging copies, shared by every
/// dense stage loop (1D stages, 1.5D stripes, 2D/3D SUMMA stages, partial
/// SUMMA): post() ships the stage root's (comm rank `root`) block `mine`
/// without blocking; wait() completes the receive and returns the usable
/// (rows x cols) block — the root's own `mine`, or `recv` (storage
/// reused) everywhere else. Charges lg(P) latency and the block's words
/// to `cat` at wait. `mine` (root) and `recv` (everyone else) must stay
/// valid and unmodified until every rank of `comm` has waited, which
/// overlapped_dense_stages holds before it returns.
class PendingDenseStage {
 public:
  void post(const Matrix& mine, Matrix& recv, Index rows, Index cols,
            int root, Comm& comm, CommCategory cat);
  const Matrix* wait();

 private:
  PendingOp op_;
  const Matrix* result_ = nullptr;
};

/// Bookkeeping for CostMeter's overlap accounting in the double-buffered
/// loops: open() marks the start of one overlapped compute block, close()
/// ends it, pairing the modeled local-kernel seconds recorded by `work`
/// in between against the comm charged to `meter` in the same window.
/// The loops call close() right after the waits of stage k+1 (whose
/// charges are the comm that was in flight) and open() right before the
/// stage-k+1 compute, so each region is exactly one stage of overlap.
class OverlapScope {
 public:
  OverlapScope(CostMeter& meter, const WorkMeter& work,
               const MachineModel& machine)
      : meter_(meter), work_(work), machine_(machine) {}
  ~OverlapScope() { close(); }

  OverlapScope(const OverlapScope&) = delete;
  OverlapScope& operator=(const OverlapScope&) = delete;

  void open() {
    meter_.begin_overlap_region();
    work_mark_ = work_.total_seconds();
    open_ = true;
  }
  void close() {
    if (!open_) return;
    meter_.end_overlap_region(machine_, work_.total_seconds() - work_mark_);
    open_ = false;
  }

 private:
  CostMeter& meter_;
  const WorkMeter& work_;
  MachineModel machine_;
  double work_mark_ = 0;
  bool open_ = false;
};

/// The dense double-buffer pipeline behind every broadcast-stage loop
/// (1D stages, 1.5D stripes, the 2D/3D SUMMA and partial SUMMA): posts
/// stage 0, then for each stage waits its panel, closes the overlap
/// region (so the charges of the waits are paired with the previous
/// stage's compute), posts stage s+1 into the other receive buffer,
/// reopens the region, and runs `compute_stage`. `post_stage(s, dn,
/// recv)` must post stage s's broadcast on `dn` receiving into `recv`;
/// `compute_stage(s, block)` consumes the stage, and whatever it charges
/// lands in stage s's region (the SUMMA replays stage s+1's sparse
/// payload there). Every stage posts on `comm`, whose meter the regions
/// record on. Returns with its sources released: after the last stage it
/// quiesces `comm` (an unwind drains it, swallowing abort errors), so the
/// caller may rewrite or free every stage root's block once it returns.
/// `stages` may be 0 (a 1.5D member with no stripe stage): nothing
/// posts. Keeping the close/post/open ordering in one place keeps the
/// overlap accounting invariant from drifting between the loops.
void overlapped_dense_stages(
    int stages,
    const std::function<void(int, PendingDenseStage&, Matrix&)>& post_stage,
    const std::function<void(int, const Matrix*)>& compute_stage,
    Matrix& recv0, Matrix& recv1, Comm& comm, const WorkMeter& work,
    const MachineModel& machine, Profiler& profiler);

/// Permutation-route a CSR block to `dest` (see Comm::route): the
/// distributed-transpose primitive. Algebra3D transposes locally and
/// routes the pieces along its permutation; at l = 1 rank (i,j) swaps its
/// one piece with rank (j,i).
Csr route_csr(const Csr& mine, int dest, Comm& comm, CommCategory cat);

/// Row-wise all-gather of feature slices into full rows: `local` is this
/// rank's (rows x w_j) slice, `parts` ranks along `row_comm` each hold the
/// block_range(full_cols, parts, j) slice. Assembles into `full` (storage
/// reused) via the workspace. Charges kDense. Algebra3D's row gather
/// (log-softmax rows and the U reuse).
void allgather_feature_rows(const Matrix& local, Index full_cols, int parts,
                            Comm& row_comm, Profiler& profiler,
                            DistWorkspace& ws, Matrix& full);

/// Sum this rank's weight-gradient partial `y` of layer `layer` over
/// `comm` in place with the blocking all-reduce (kDense). Under a `codec`
/// other than kOff the sum runs through the lossy codec with error
/// feedback, one residual per layer (`residuals[layer - 1]`, grown on
/// first use), so each layer's residual is continuous across epochs and
/// batches. The shared first step of every DistSpmmAlgebra's
/// reduce_gradients.
void allreduce_gradient(Index layer, Matrix& y, CompressMode codec,
                        std::vector<CompressBuf>& residuals, Comm& comm,
                        Profiler& profiler);

/// Partial SUMMA Z = T W with W replicated: only T moves, broadcast along
/// `row_comm` (`parts` ranks; this rank is column `my_col` and contributes
/// `t`, its local feat_slice of T). Writes this rank's Z slice
/// (t.rows() x block_range(w.cols(), parts, my_col) width) into `z`
/// (storage reused). Charges t.rows() * f_in words (each of the `parts`
/// stage broadcasts charges every member, its root included) and `parts`
/// broadcast latencies. Algebra3D's "partial SUMMA" / "partial
/// Split-3D-SpMM" of layers l >= 2.
void partial_summa_times_weight(const Matrix& t, const Matrix& w, int parts,
                                int my_col, Comm& row_comm,
                                const MachineModel& machine,
                                EpochStats& stats, DistWorkspace& ws,
                                Matrix& z);

/// Z = T W with W replicated and T's feature dimension split across
/// `row_comm` as in partial_summa_times_weight, but nothing of T moves:
/// each rank multiplies its slice by the matching rows of W, and one
/// reduce-scatter over `row_comm` sums the f_out-wide terms, leaving this
/// rank's Z slice in `z` (storage reused; it keeps t.rows() x f_out
/// capacity). Charges t.rows() * f_out * (parts-1)/parts words and one
/// reduce-scatter latency: fewer words than partial SUMMA whenever
/// f_out * (parts-1)/parts < f_in, so always when f_out <= f_in.
/// Algebra3D's Z^1 = T^1 W^1 (the paper datasets and the benchmark
/// workloads have f_1 = 16 against f_0 of 128 to 602; DESIGN.md
/// "Substitutions") and a narrowing layer's H^(l-1) W^l.
void reduce_times_weight(const Matrix& t, const Matrix& w, int parts,
                         int my_col, Comm& row_comm,
                         const MachineModel& machine, EpochStats& stats,
                         DistWorkspace& ws, Matrix& z);

}  // namespace dist

}  // namespace cagnet
