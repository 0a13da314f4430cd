// Simulated message-passing runtime.
//
// This is the repo's stand-in for torch.distributed/NCCL on Summit (see
// DESIGN.md, "Substitutions"). A *world* of P ranks runs as P threads in one
// process. A Comm exposes MPI-flavoured collectives whose semantics match
// the operations the paper's algorithms are written in terms of: broadcast,
// all-reduce, reduce-scatter, all-gather(v), all-to-all(v), and a
// permutation route. Data is genuinely moved between rank-private buffers
// (so algorithm correctness is real), and every operation charges its
// textbook alpha-beta cost to the rank's CostMeter (so communication
// volumes are real too).
//
// Contract (same as MPI): a collective must be invoked by every member of
// the communicator, in the same program order. All spans must stay alive
// until the call returns.
//
// One transport carries every collective: a ring of lock-free channels.
// The i-prefixed forms (ibroadcast_from for the stage loops,
// ialltoallv_post for the halo drains, ialltoallv_into) post immediately
// and return a PendingOp whose wait() completes the data movement and the
// meter charge. Posts must follow the same program order on every rank;
// waits may be out of order. Between post and wait a rank may compute and
// may run other collectives on any communicator — this is what the SUMMA
// double-buffering in src/core/ exploits. A blocking form is the same op
// posted, waited, and held until every member has completed it, so it
// returns with every buffer free, exactly like torch's blocking call =
// async op + wait(); the overlap-region owners in src/core/ end the same
// way, with a quiesce(). See DESIGN.md, "Nonblocking runtime and overlap
// accounting".
#pragma once

#include <atomic>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "src/comm/compress.hpp"
#include "src/comm/contract_check.hpp"
#include "src/comm/costmeter.hpp"
#include "src/comm/fault.hpp"
#include "src/util/error.hpp"
#include "src/util/types.hpp"

namespace cagnet {

class Profiler;  // src/util/profiler.hpp; compressed collectives time
                 // their codec work under Phase::kCompressPack

/// ceil(log2(p)) with ceil_log2(1) == 0: the latency factor of a
/// tree-structured collective.
double ceil_log2(int p);

namespace detail {

/// Channels per communicator. A channel is reused only after every rank
/// finished its previous op, so a rank may hold at most this many posted
/// but unwaited ops per communicator; a post onto a channel that still
/// holds the poster's own unwaited op is a ContractViolation, not a hang.
inline constexpr int kAsyncChannels = 16;

/// Which collective a channel generation carries; published per rank so
/// mismatched program order is diagnosed at wait().
enum class OpKind : std::uint8_t {
  kNone = 0,
  kBcast,
  kReduceScatter,
  kAllgatherv,
  kAllreduce,
  kAllreduceMax,
  kAlltoallv,
  kRoute,
  kBarrier,
};

/// Identity of the operation a seam event or abort belongs to: the
/// observing rank, the traffic category, and the op's caller-facing name.
/// Built once per collective call and threaded through the publish/await/
/// charge hooks and every abort throw, so a CommAborted always names rank,
/// phase, and op no matter where the unwind started.
struct OpContext {
  int rank;
  CommCategory cat;
  const char* op;
};

/// Rendezvous state of one channel. Channels are recycled in generations:
/// the op with ticket T uses channel T % K at generation T / K. `posted`
/// and `finished` count cumulatively across generations; generation G's
/// payload is readable once posted reaches size*(G+1), and the channel is
/// recyclable for G+1 once finished reaches size*(G+1). Slot writes
/// happen-before the posting increment (release) and slot reads
/// happen-before the finishing increment, so recycling never races with a
/// straggling reader.
struct AsyncChannel {
  explicit AsyncChannel(int n)
      : posted_by(static_cast<std::size_t>(n)),
        ptr(static_cast<std::size_t>(n), nullptr),
        ptr2(static_cast<std::size_t>(n), nullptr),
        len(static_cast<std::size_t>(n), 0),
        kind(static_cast<std::size_t>(n), OpKind::kNone),
        op(static_cast<std::size_t>(n), nullptr),
        root(static_cast<std::size_t>(n), -1) {}

  std::atomic<std::uint64_t> posted{0};
  std::atomic<std::uint64_t> finished{0};
  /// Per-rank cumulative post counts (posted == sum of these). They give
  /// the per-source drain of an alltoallv something finer to await than
  /// "everyone has posted": rank r's slots for generation G are readable
  /// once posted_by[r] reaches G+1, so a drainer can consume source r's
  /// chunk while slower ranks are still computing toward their posts.
  std::vector<std::atomic<std::uint64_t>> posted_by;
  /// Parked-waiter count gating the notify syscalls: posters bump their
  /// counter (seq_cst) and notify only when this is nonzero; waiters
  /// advertise themselves (seq_cst) before parking. The seq_cst total
  /// order makes a missed wake a cycle, hence impossible.
  std::atomic<int> waiters{0};
  std::vector<const void*> ptr;  ///< per-rank published source
  std::vector<const void*> ptr2; ///< secondary publication (alltoallv: the
                                 ///< per-destination offsets array;
                                 ///< route: the destination rank)
  std::vector<std::size_t> len;  ///< per-rank published element count
  std::vector<OpKind> kind;      ///< per-rank op kind (order validation)
  std::vector<const char*> op;   ///< per-rank caller-facing op name
  std::vector<int> root;         ///< per-rank root (order validation)
};

struct CommState;

/// World-wide abort fan-out shared by a world and every communicator split
/// off it. A failing rank sets the flag and poisons every registered
/// state's channels (bump + notify), so waiters parked on futexes anywhere
/// in the communicator tree — including on split sub-communicators — wake,
/// observe the flag, and unwind.
struct AbortHub {
  std::atomic<bool> aborted{false};
  std::mutex mutex;
  std::vector<std::weak_ptr<CommState>> states;
  /// World-lifetime fault schedule captured from the process-global plan
  /// at run_world entry; null is the everything-disabled fast path.
  std::shared_ptr<FaultPlan> fault;
  /// Strong refs to every state carrying a contract checker, so run_world
  /// can audit split sub-communicators at teardown even after the rank
  /// threads dropped theirs. Empty when the checker is disabled; run_world
  /// moves them out after the join (each state holds the hub strongly, so
  /// leaving them here would leak the communicator tree).
  std::vector<std::shared_ptr<CommState>> checked_states;

  void register_state(const std::shared_ptr<CommState>& state);  // comm.cpp
  void poison();  // comm.cpp
};

/// Shared state of one communicator: the ring of channels every
/// collective runs on, plus per-rank bookkeeping that only the owning rank
/// touches. The channels carry their own ordering (see AsyncChannel).
struct CommState {
  CommState(int n, std::shared_ptr<AbortHub> abort_hub)
      : size(n),
        next_ticket(static_cast<std::size_t>(n), 0),
        unwaited(static_cast<std::size_t>(n), 0),
        stage(static_cast<std::size_t>(n)),
        in_collective(static_cast<std::size_t>(n)),
        hub(std::move(abort_hub)) {
    channels.reserve(kAsyncChannels);
    for (int c = 0; c < kAsyncChannels; ++c) {
      channels.push_back(std::make_unique<AsyncChannel>(n));
    }
    if (contract::enabled()) {
      checker = std::make_unique<contract::Checker>(n);
    }
  }

  const int size;
  /// Process-unique identity. A raw CommState pointer is NOT a safe
  /// identity across worlds: a rebuilt world's allocation can land on a
  /// freed predecessor's address, and anything keyed on the pointer (the
  /// compress-buffer binding) would silently adopt stale state from the
  /// dead world. The uid is never recycled, so a binding check against it
  /// always detects a new communicator.
  const std::uint64_t uid = next_uid();
  std::vector<std::unique_ptr<AsyncChannel>> channels;
  std::vector<std::uint64_t> next_ticket;  // per rank; owner-written only
  /// Per rank, bit c set while channel c holds this rank's own posted but
  /// unwaited op (owner-written only).
  std::vector<std::uint32_t> unwaited;
  static_assert(kAsyncChannels <= 32, "unwaited is a 32-bit channel mask");
  /// Per rank, where an in-place all-reduce lands its total: peers read
  /// the rank's data until every member completed the op, so the total is
  /// copied back only after the release (owner-written only).
  std::vector<std::vector<unsigned char>> stage;
  /// Per-rank count of open slot-reading regions (waits and per-source
  /// drains). On the abort path a dying rank drains these before its
  /// unwind frees the buffers it published — see CollectiveWindow.
  std::vector<std::atomic<int>> in_collective;
  /// Lifecycle auditor (null unless contract::enabled() held at
  /// construction); split sub-communicators build their own.
  std::unique_ptr<contract::Checker> checker;
  /// Transient rendezvous of an in-flight split(). Owned here (not by the
  /// splitting ranks) so a rank failure mid-split cannot leak it: it is
  /// released at the split's final barrier, by the next split, or with
  /// this state.
  std::shared_ptr<void> split_ctx;
  /// Shared with every communicator split off this one, so a rank failure
  /// anywhere in the world also unblocks waits on sub-communicators.
  std::shared_ptr<AbortHub> hub;

 private:
  static std::uint64_t next_uid() {
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
  }
};

/// Block until `counter` (cumulative across channel generations) reaches
/// `target`: a few yields for the near-miss case, then a futex park
/// (atomic wait) that burns no cycles — on an oversubscribed host the
/// rank being waited on needs them. Throws CommAborted (naming `ctx`'s
/// rank/op/category) as soon as `st`'s world aborts: AbortHub::poison
/// bumps and notifies every counter, so parked waiters wake. Outside a
/// CollectiveWindow the throw first waits until no region is open
/// anywhere in the world, since nothing else would hold this rank's
/// unwind until peers finished reading what it published. Posts precede
/// waits by a whole compute stage in the double-buffered loops, so the
/// fast path is a single load.
void await_counter(const std::atomic<std::uint64_t>& counter,
                   std::atomic<int>& waiters, std::uint64_t target,
                   const CommState& st, const OpContext& ctx);

/// Counter bump + conditional wake, the posting half of await_counter's
/// protocol.
// [[hot-path]]
inline void bump_counter(std::atomic<std::uint64_t>& counter,
                         const std::atomic<int>& waiters) {
  counter.fetch_add(1, std::memory_order_seq_cst);
  if (waiters.load(std::memory_order_seq_cst) != 0) counter.notify_all();
}

/// A fault fired at `rank`'s seam on `st`: poison the world at throw
/// time, not at run_world's catch — the dying rank's own stack unwind
/// completes in-flight ops, and those completions block on peers who in
/// turn block on this rank, a mutual wait that only resolves if the abort
/// flag is already up world-wide when the unwind's awaits run. Outside a
/// CollectiveWindow (a post, a skipped source, a notify_event) it then
/// waits until no region is open anywhere in the world; inside one, the
/// region's exit does. Out-of-line, abort path only.
void abort_at_seam(const CommState& st, int rank) noexcept;

/// The transport seam: every payload publication, completion await, and
/// meter charge in the runtime reports itself here. With no fault plan
/// installed this is a null-pointer test (no lock, no allocation, no
/// charge perturbation); with one armed it is where kills, delays, and
/// poisoned payloads are injected (src/comm/fault.hpp).
// [[hot-path]]
inline void seam_event(const CommState& st, const OpContext& ctx,
                       FaultSite site) {
  FaultPlan* plan = st.hub->fault.get();
  if (plan != nullptr) [[unlikely]] {
    try {
      plan->on_event(ctx.rank, ctx.cat, site, ctx.op);
    } catch (...) {
      abort_at_seam(st, ctx.rank);
      throw;
    }
  }
}

/// Program-order mismatch diagnostic naming this rank, the op it is
/// waiting on (name + category), the offending peer, and the op that peer
/// posted instead. Out-of-line (comm.cpp) — built only on the failure
/// path.
std::string order_mismatch(const OpContext& ctx, int peer, const char* got);

/// "<op> [<cat>]: <what>", the shape every channel-op diagnostic takes.
/// Out-of-line, failure path only (like the two below).
std::string op_error(const OpContext& ctx, const std::string& what);

/// Element-count mismatch diagnostic naming the op, its category, and
/// both ranks with the counts they passed.
std::string size_mismatch(const OpContext& ctx, int a, std::size_t len_a,
                          int b, std::size_t len_b);

/// Reduce-scatter diagnostic: this rank's contribution length is not the
/// sum of every rank's output length.
std::string scatter_mismatch(const OpContext& ctx, std::size_t contrib,
                             std::size_t outputs);

/// Diagnose `peer` having posted a different op (kind or root) than this
/// rank's on the channel: the ranks disagree on program order.
inline void check_same_op(const AsyncChannel& ch, int peer, OpKind kind,
                          int root, const OpContext& ctx) {
  const auto r = static_cast<std::size_t>(peer);
  CAGNET_CHECK(ch.kind[r] == kind && ch.root[r] == root,
               order_mismatch(ctx, peer, ch.op[r]));
}

/// RAII bracket around one region in which a rank reads peer slots (a
/// wait, a per-source drain) or may throw while its own sources are still
/// published (the compressed decode). Healthy worlds pay two uncontended
/// atomic RMWs. Its real job is the abort path: a rank that leaves the
/// region while an exception is in flight — one escaping the region, or
/// an unwind that completes a still-pending op in its handle's destructor
/// — poisons the world immediately (so no peer starts a new read of this
/// rank's published buffers) and then blocks until no region is open on
/// any communicator of the world, because a peer that passed its await
/// before the poison landed may still be mid-read — through any
/// communicator the two share — of a buffer this rank's unwind is about
/// to free. A runtime throw outside any region drains the same way first
/// (abort_at_seam, await_counter). Peers exit their regions in bounded
/// time — parked ones are poison-woken and throw, active ones throw at
/// their next await — and a dying rank drains only once its own region is
/// closed. Regions never nest, so it then has none open anywhere and
/// mutual aborts cannot cycle. ThreadSanitizer found the use-after-free
/// window this closes (a killed rank's teardown racing a straggling
/// reader); the acquire/release pair on the region counter is also the
/// happens-before edge that orders the reader's last load before the
/// dying rank's free.
class CollectiveWindow {
 public:
  CollectiveWindow(CommState& st, int rank) : st_(st), rank_(rank) {
    st_.in_collective[static_cast<std::size_t>(rank)].fetch_add(
        1, std::memory_order_seq_cst);
  }
  ~CollectiveWindow();  // comm.cpp

  CollectiveWindow(const CollectiveWindow&) = delete;
  CollectiveWindow& operator=(const CollectiveWindow&) = delete;

 private:
  CommState& st_;
  int rank_;
};

}  // namespace detail

/// Concatenation of per-rank variable-length contributions, with offsets.
template <typename T>
struct Gathered {
  std::vector<T> data;
  std::vector<std::size_t> offsets;  ///< size+1 entries; rank r owns
                                     ///< [offsets[r], offsets[r+1])
  std::span<const T> chunk(int r) const {
    return {data.data() + offsets[static_cast<std::size_t>(r)],
            offsets[static_cast<std::size_t>(r) + 1] -
                offsets[static_cast<std::size_t>(r)]};
  }
};

/// Reusable state of one compressed-collective stream: this rank's
/// encoded wire bytes, the gathered peers' bytes, a decode scratch, and
/// the optional error-feedback residual (see src/comm/compress.hpp).
/// A buf is bound to a (communicator, element count) pair on first use;
/// using it with a different communicator or length resets the residual,
/// because feedback accumulated against other peers or another buffer
/// shape would be meaningless noise (tests/comm_test.cpp asserts the
/// reset). Reuse the same buf across rounds of the same reduction — that
/// reuse is what carries the quantization error forward.
struct CompressBuf {
  std::vector<std::uint8_t> send;    ///< this rank's encoded wire bytes
  Gathered<std::uint8_t> recv;       ///< peers' wire bytes (gathered)
  std::vector<Real> residual;        ///< error-feedback carry
  std::vector<Real> scratch;         ///< decode workspace
  bool error_feedback = false;       ///< apply residual feedback on encode
  std::uint64_t bound_comm = 0;  ///< uid of the bound communicator (0 = none)
  std::size_t bound_n = 0;       ///< bound element count
};

/// Handle to a posted-but-possibly-incomplete collective. Move-only.
/// wait() blocks until every member has posted the matching op, performs
/// this rank's data movement, charges the meter, and releases the channel;
/// a second wait() is a no-op, diagnosed as a ContractViolation when the
/// contract checker is armed (gate repeat waits on pending()). A PendingOp
/// that is destroyed while still pending completes itself first (like a
/// blocking wait), swallowing abort errors so unwinding a failed world
/// never terminates. Destroyed by an unwind, it also aborts the world and
/// drains the peers' reads before the frame frees the op's sources (see
/// detail::CollectiveWindow): an exception escaping a pending op is fatal
/// to the world.
///
/// Caller contract: every span passed to the posting call must stay valid
/// and unmodified until *every* rank has waited the op (sources are read by
/// peers at their own wait), and output spans must not alias any rank's
/// contribution.
class PendingOp {
 public:
  PendingOp() = default;  ///< empty handle; pending() is false

  PendingOp(PendingOp&& other) noexcept { *this = std::move(other); }
  PendingOp& operator=(PendingOp&& other) noexcept {
    if (this != &other) {
      complete_for_destroy();
      state_ = std::move(other.state_);
      rank_ = other.rank_;
      meter_ = other.meter_;
      ticket_ = other.ticket_;
      cat_ = other.cat_;
      root_ = other.root_;
      charged_ = other.charged_;
      kind_ = other.kind_;
      op_ = other.op_;
      out_ = other.out_;
      out_len_ = other.out_len_;
      src_len_ = other.src_len_;
      gathered_ = other.gathered_;
      drained_mask_ = other.drained_mask_;
      waited_ = other.waited_;
      complete_ = other.complete_;
      other.state_.reset();
      other.complete_ = nullptr;
      other.waited_ = false;  // moved-from behaves like an empty handle
    }
    return *this;
  }

  PendingOp(const PendingOp&) = delete;
  PendingOp& operator=(const PendingOp&) = delete;

  ~PendingOp() { complete_for_destroy(); }

  /// True between post and wait.
  bool pending() const { return state_ != nullptr; }

  /// Complete the op: block for all posts, move this rank's data, charge
  /// the meter, release the channel. No-op when not pending — but a
  /// second wait() on an already-completed handle is diagnosed as a
  /// ContractViolation when the contract checker is armed (gate a
  /// maybe-completed wait on pending() instead of relying on the no-op).
  void wait();

  // ---- Per-source drain (alltoallv-post ops only; see
  // Comm::ialltoallv_post). ----

  /// Block until `src` alone has posted the matching alltoallv, then
  /// return a read-only view of the chunk it addressed to this rank —
  /// straight into src's send buffer, no staging copy. Charges 1 latency
  /// unit + the chunk's words (nothing for src == rank(), mirroring the
  /// blocking form's self-chunk exclusion), so draining every source sums
  /// bitwise to the blocking alltoallv_into charge. Call at most once per
  /// source; the view stays readable until this communicator's release
  /// point for the op (quiesce), exactly like any posted source. Worlds
  /// wider than 64 ranks are diagnosed (the drain ledger is a 64-bit
  /// mask).
  template <typename T>
  std::span<const T> await_source(int src) {
    CAGNET_CHECK(pending(), "await_source on a non-pending op");
    CAGNET_CHECK(kind_ == detail::OpKind::kAlltoallv && gathered_ == nullptr,
                 "await_source: op was not posted with ialltoallv_post");
    CAGNET_CHECK(src >= 0 && src < state_->size,
                 "await_source: source rank out of range");
    CAGNET_CHECK(src < 64, "await_source: drain supports at most 64 ranks");
    CAGNET_CHECK((drained_mask_ & (std::uint64_t{1} << src)) == 0,
                 "await_source: source already drained");
    const detail::OpContext ctx{rank_, cat_, "ialltoallv_post drain"};
    detail::CollectiveWindow window(*state_, rank_);
    detail::seam_event(*state_, ctx, FaultSite::kWait);
    auto& ch = *state_->channels[ticket_ %
                                 static_cast<std::uint64_t>(
                                     detail::kAsyncChannels)];
    const std::uint64_t gen =
        ticket_ / static_cast<std::uint64_t>(detail::kAsyncChannels);
    if (src != rank_) {
      detail::await_counter(ch.posted_by[static_cast<std::size_t>(src)],
                            ch.waiters, gen + 1, *state_, ctx);
    }
    detail::check_same_op(ch, src, kind_, root_, ctx);
    const auto* offs = static_cast<const std::size_t*>(
        ch.ptr2[static_cast<std::size_t>(src)]);
    const auto me = static_cast<std::size_t>(rank_);
    const std::size_t lo = offs[me];
    const std::size_t n = offs[me + 1] - lo;
    if (src != rank_) charge(1.0, n * sizeof(T));
    drained_mask_ |= std::uint64_t{1} << src;
    return {static_cast<const T*>(ch.ptr[static_cast<std::size_t>(src)]) + lo,
            n};
  }

  /// Caller-certified empty chunk: charge the per-source latency unit and
  /// mark `src` drained WITHOUT awaiting its post or reading its slots.
  /// Use when the exchange plan guarantees src addressed nothing to this
  /// rank (both sides derive chunk sizes from the same plan): there is
  /// nothing to read, so there is no reason to couple this rank's
  /// progress to that peer's schedule. Safe because publication slots are
  /// per-rank and the counters cumulative — the skipped peer's eventual
  /// post conflicts with nothing. Charges still telescope bitwise to the
  /// gathered form's (1 latency unit, zero words).
  void skip_source(int src) {
    CAGNET_CHECK(pending(), "skip_source on a non-pending op");
    CAGNET_CHECK(kind_ == detail::OpKind::kAlltoallv && gathered_ == nullptr,
                 "skip_source: op was not posted with ialltoallv_post");
    CAGNET_CHECK(src >= 0 && src < state_->size && src < 64,
                 "skip_source: source rank out of range");
    CAGNET_CHECK((drained_mask_ & (std::uint64_t{1} << src)) == 0,
                 "skip_source: source already drained");
    if (src != rank_) charge(1.0, 0);
    drained_mask_ |= std::uint64_t{1} << src;
  }

 private:
  friend class Comm;

  void complete_for_destroy() noexcept {
    if (!pending()) return;
    try {
      wait();
    } catch (...) {
      // Unwinding a failed world: peers were released by the abort flag;
      // there is nothing left to complete.
      state_.reset();
    }
  }

  detail::OpContext context() const { return {rank_, cat_, op_}; }

  // [[hot-path]]
  void charge(double latency_units, std::size_t bytes) {
    if (!charged_) return;
    detail::seam_event(*state_, context(), FaultSite::kCharge);
    if (auto* ck = state_->checker.get()) ck->on_charge(rank_, op_, cat_);
    meter_->add(cat_, latency_units,
                static_cast<double>(bytes) / sizeof(Real));
  }

  template <typename T>
  static void complete_impl(PendingOp& op);

  /// Completion of an ialltoallv_post op: await + charge whatever sources
  /// the caller did not drain (no data is copied — an undrained chunk was
  /// abandoned), then release the channel via the shared wait() epilogue.
  /// Makes wait()/destruction equivalent to a full drain charge-wise.
  template <typename T>
  static void complete_drain_impl(PendingOp& op) {
    const detail::OpContext ctx{op.rank_, op.cat_, "ialltoallv_post drain"};
    auto& ch = *op.state_->channels[op.ticket_ %
                                    static_cast<std::uint64_t>(
                                        detail::kAsyncChannels)];
    const std::uint64_t gen =
        op.ticket_ / static_cast<std::uint64_t>(detail::kAsyncChannels);
    const int p = op.state_->size;
    for (int r = 0; r < p; ++r) {
      if (r == op.rank_ ||
          (op.drained_mask_ & (std::uint64_t{1} << r)) != 0) {
        continue;
      }
      detail::await_counter(ch.posted_by[static_cast<std::size_t>(r)],
                            ch.waiters, gen + 1, *op.state_, ctx);
      detail::check_same_op(ch, r, op.kind_, op.root_, ctx);
      const auto* offs = static_cast<const std::size_t*>(
          ch.ptr2[static_cast<std::size_t>(r)]);
      const auto me = static_cast<std::size_t>(op.rank_);
      op.charge(1.0, (offs[me + 1] - offs[me]) * sizeof(T));
    }
  }

  std::shared_ptr<detail::CommState> state_;
  int rank_ = 0;
  CostMeter* meter_ = nullptr;
  std::uint64_t ticket_ = 0;
  CommCategory cat_ = CommCategory::kControl;
  int root_ = -1;
  bool charged_ = true;
  detail::OpKind kind_ = detail::OpKind::kNone;
  const char* op_ = nullptr;     ///< caller-facing name (seam, aborts, errors)
  void* out_ = nullptr;          ///< this rank's destination (kind-specific)
  std::size_t out_len_ = 0;      ///< destination element count
  std::size_t src_len_ = 0;      ///< this rank's contribution element count
  void* gathered_ = nullptr;     ///< Gathered<T>* (allgatherv, alltoallv) or
                                 ///< std::vector<T>* (route)
  std::uint64_t drained_mask_ = 0;  ///< await_source ledger (bit per rank)
  bool waited_ = false;  ///< completed by an explicit wait (double-wait check)
  void (*complete_)(PendingOp&) = nullptr;  ///< typed movement + charge
};

/// One rank's endpoint of a simulated communicator. Default-constructed
/// Comms are *invalid* (valid() is false); every collective, barrier, and
/// split on an invalid Comm fails with a diagnostic instead of crashing.
/// Obtain valid Comms from run_world or split(). Copies share the
/// communicator state and the rank's meter, so they are interchangeable.
class Comm {
 public:
  Comm() = default;  ///< invalid; assign from run_world / split

  /// This rank's index in [0, size()).
  int rank() const { return rank_; }
  /// Number of members; 0 for an invalid Comm.
  int size() const { return state_ ? state_->size : 0; }
  /// False for a default-constructed Comm (no collective may be called).
  bool valid() const { return state_ != nullptr; }

  /// The calling rank's cost meter (shared across split communicators).
  CostMeter& meter() const {
    check_valid("meter");
    return *meter_;
  }

  /// Synchronize all members: a channel op that completes once every
  /// member has posted it. Everything each member did before its call
  /// happens-before everything any member does after its return, so the
  /// sources of every op waited before it are released. Charges nothing;
  /// reports at the seam under kControl.
  void barrier();

  /// Report a named zero-cost protocol event at the transport seam
  /// (FaultSite::kCharge) without moving data or charging the meter. This
  /// gives fault plans a deterministic, nameable injection point for
  /// decisions that suppress communication — e.g. the bounded-staleness
  /// halo path reports "halo stale skip" when it replays cached rows
  /// instead of exchanging, so chaos drills can kill or delay a rank at
  /// exactly that seam. Purely local: no rendezvous, no ordering effect.
  void notify_event(CommCategory cat, const char* op) {
    check_valid("notify_event");
    detail::seam_event(*state_, {rank_, cat, op}, FaultSite::kCharge);
  }

  /// Block until every member has completed (waited) every op posted so
  /// far on this communicator — the release point after which the source
  /// buffers of those ops may be modified or freed. Unlike barrier() this
  /// posts nothing: it costs a handful of atomic loads when peers have
  /// already drained, it charges nothing and it reports nothing at the
  /// seam. The one release rule: each overlap-region owner (the stage
  /// loops, the halo sweeps) calls it after its last wait, so it returns
  /// with its sources released. CAUTION: quiescing while this rank still
  /// holds an op that peers wait *later* deadlocks; wait every op first.
  void quiesce() const;

  /// Collective split into disjoint sub-communicators by color; ranks are
  /// ordered by (key, parent rank) within each color. Every member of this
  /// communicator must call. The sub-communicator shares this rank's meter
  /// and the world's abort flag.
  Comm split(int color, int key) const;

  // ---- Collectives. `cat` selects the CostMeter category. Each blocking
  // form posts its channel op, waits it, and holds until every member has
  // completed it, so it returns with every buffer free; the i-prefixed
  // forms return the posted op, charged at its wait() exactly like the
  // blocking form. ----

  /// In-place broadcast from `root` to all members. Charges lg(P) latency
  /// units and data.size() words to every rank (nothing when P == 1).
  template <typename T>
  void broadcast(std::span<T> data, int root, CommCategory cat) {
    check_valid("broadcast");
    check_member(root);
    finish_blocking(post_bcast(std::span<const T>(data), data, root, cat,
                               true, "broadcast"));
  }

  /// Broadcast that reads directly from the root's existing buffer: the
  /// root passes its data as `src` (left untouched) and an empty `dst`;
  /// every other rank passes an empty `src` and receives into `dst`. This
  /// is the zero-staging-copy form the SUMMA loops use so roots never
  /// materialize a second copy of the block they already hold. Charged
  /// exactly like broadcast.
  template <typename T>
  void broadcast_from(std::span<const T> src, std::span<T> dst, int root,
                      CommCategory cat) {
    check_valid("broadcast_from");
    check_member(root);
    finish_blocking(post_bcast(src, dst, root, cat, true, "broadcast_from"));
  }

  /// Nonblocking broadcast_from: the root posts `src` (left untouched and
  /// readable by peers until every rank has waited); every other rank
  /// receives into `dst` at its own wait().
  template <typename T>
  PendingOp ibroadcast_from(std::span<const T> src, std::span<T> dst,
                            int root, CommCategory cat) {
    check_valid("ibroadcast_from");
    check_member(root);
    return post_bcast(src, dst, root, cat, true, "ibroadcast_from");
  }

  /// In-place elementwise sum over all members; every rank ends with the
  /// total. Cost: Rabenseifner (reduce-scatter + all-gather): 2 lg(P)
  /// latency units and 2 n (P-1)/P words.
  template <typename T>
  void allreduce_sum(std::span<T> data, CommCategory cat) {
    check_valid("allreduce_sum");
    allreduce_in_place(data, cat, detail::OpKind::kAllreduce,
                       "allreduce_sum");
  }

  /// In-place elementwise max over all members. Charged like
  /// allreduce_sum.
  template <typename T>
  void allreduce_max(std::span<T> data, CommCategory cat) {
    check_valid("allreduce_max");
    allreduce_in_place(data, cat, detail::OpKind::kAllreduceMax,
                       "allreduce_max");
  }

  /// Reduce-scatter with sum: `contrib` (same length on every rank) is the
  /// full-length vector of partial sums; rank r receives the reduced slice
  /// [chunk_offset(r), chunk_offset(r)+out.size()) into `out`, where chunk
  /// boundaries are the concatenation of every rank's out.size(). `out`
  /// must not alias any rank's `contrib`. Charges lg(P) latency units and
  /// total (P-1)/P words.
  template <typename T>
  void reduce_scatter_sum(std::span<const T> contrib, std::span<T> out,
                          CommCategory cat) {
    check_valid("reduce_scatter_sum");
    finish_blocking(post_reduce_scatter(contrib, out, cat, true,
                                        "reduce_scatter_sum"));
  }

  /// All-gather of equal-size chunks: every rank contributes `mine`, and
  /// receives the rank-ordered concatenation. Charged like allgatherv.
  template <typename T>
  std::vector<T> allgather(std::span<const T> mine, CommCategory cat) {
    check_valid("allgather");
    Gathered<T> all = allgatherv(mine, cat);
    for (int r = 0; r < size(); ++r) {
      CAGNET_CHECK(all.chunk(r).size() == mine.size(),
                   detail::size_mismatch({rank_, cat, "allgather"}, rank_,
                                         mine.size(), r,
                                         all.chunk(r).size()));
    }
    return std::move(all.data);
  }

  /// All-gather of variable-size chunks. Charges lg(P) latency units and
  /// the received words (everything but this rank's own chunk).
  template <typename T>
  Gathered<T> allgatherv(std::span<const T> mine, CommCategory cat) {
    Gathered<T> result;
    allgatherv_into(mine, result, cat);
    return result;
  }

  /// All-gather of variable-size chunks into a caller-owned Gathered whose
  /// storage is reused across calls (the allocation-free hot-path form).
  /// `mine` must not alias `out.data`. Charged like allgatherv.
  template <typename T>
  void allgatherv_into(std::span<const T> mine, Gathered<T>& out,
                       CommCategory cat) {
    check_valid("allgatherv_into");
    finish_blocking(
        post_allgatherv(mine, out, cat, true, "allgatherv_into"));
  }

  /// Permutation all-to-all: every rank sends one message to `dest`; the
  /// destinations across ranks must form a permutation (each rank receives
  /// exactly one message). This is the redistribution primitive of the
  /// distributed transposes; a pairwise swap is the involution case.
  /// dest == rank() is a local copy. Charges 1 latency unit and the
  /// received words (nothing for self-delivery).
  template <typename T>
  std::vector<T> route(std::span<const T> send, int dest, CommCategory cat) {
    check_valid("route");
    check_member(dest);
    std::vector<T> recv;
    // `dest` lives in this frame until every member completed the op.
    finish_blocking(post_async(detail::OpKind::kRoute, "route", send.data(),
                               send.size(), /*root=*/0, cat, true,
                               &PendingOp::complete_impl<T>, nullptr, 0,
                               send.size(), &recv, &dest));
    return recv;
  }

  /// Individualized all-to-all with variable chunk sizes: `send` holds this
  /// rank's outgoing data split per destination by `send_offsets` (size()+1
  /// monotone element offsets; destination d's chunk is
  /// [send_offsets[d], send_offsets[d+1])). Every rank receives the
  /// rank-ordered concatenation of the chunks addressed to it into `out`
  /// (storage reused). This is the request-and-send primitive of the
  /// sparsity-aware halo exchange (Section IV-A.8). Charges P-1 latency
  /// units and the received words (everything but the self chunk).
  template <typename T>
  void alltoallv_into(std::span<const T> send,
                      std::span<const std::size_t> send_offsets,
                      Gathered<T>& out, CommCategory cat) {
    check_valid("alltoallv_into");
    finish_blocking(post_alltoallv(send, send_offsets, out, cat, true,
                                   "alltoallv_into"));
  }

  /// Nonblocking alltoallv_into. `send` AND `send_offsets` must stay valid
  /// and unmodified until every rank has waited (peers read both at their
  /// own waits); `out` (resized at wait) must outlive the op and must not
  /// alias any rank's send buffer.
  template <typename T>
  PendingOp ialltoallv_into(std::span<const T> send,
                            std::span<const std::size_t> send_offsets,
                            Gathered<T>& out, CommCategory cat) {
    check_valid("ialltoallv_into");
    return post_alltoallv(send, send_offsets, out, cat, true,
                          "ialltoallv_into");
  }

  /// Nonblocking alltoallv without a gathered destination, made for
  /// per-source draining: the caller pulls each peer's chunk with
  /// PendingOp::await_source — zero-copy views into the peers' send
  /// buffers, available as soon as *that* peer has posted — and the final
  /// wait() awaits + charges any sources left undrained, so total charges
  /// are bitwise the gathered form's regardless of how many chunks the
  /// caller consumed. `send` and `send_offsets` obey the same lifetime
  /// contract as ialltoallv_into. This is the halo pipeline's primitive
  /// (remote rows are multiplied as they land; see dist_common.cpp). At
  /// most 64 ranks (the drain ledger is a bitmask).
  template <typename T>
  PendingOp ialltoallv_post(std::span<const T> send,
                            std::span<const std::size_t> send_offsets,
                            CommCategory cat) {
    check_valid("ialltoallv_post");
    check_offsets(send.size(), send_offsets, "ialltoallv_post");
    CAGNET_CHECK(size() <= 64,
                 "ialltoallv_post: per-source drain supports at most 64 "
                 "ranks; use ialltoallv_into");
    return post_async(detail::OpKind::kAlltoallv, "ialltoallv_post",
                      send.data(), send.size(), /*root=*/0, cat, true,
                      &PendingOp::complete_drain_impl<T>, nullptr, 0,
                      send.size(), nullptr, send_offsets.data());
  }

  // ---- Compressed collectives (the RunConfig::compress paths). All charge
  // CommCategory::kCompressed with the ACTUAL post-compression bytes
  // (converted to Real-sized words, hence fractional values appear), and
  // time codec work under Phase::kCompressPack when given a profiler —
  // call sites must NOT wrap these in their own ScopedPhase. The lossy
  // result is sum over ranks of decode(encode(contrib_r)), decoded in
  // ascending rank order on every rank, so it is identical across ranks
  // and bitwise reproducible for any thread count. P == 1 degenerates to
  // the exact copy (no codec round-trip) and charges nothing, like the
  // exact collectives. ----

  /// Blocking in-place lossy all-reduce sum. Implemented as an all-gather
  /// of encoded bytes plus a local decode-sum; returns after the release
  /// hold every blocking form ends with, so `buf` may be reused at once.
  /// Charges 2 lg(P) latency units and 2 E (P-1)/P bytes, E the encoded
  /// size.
  void allreduce_sum_compressed(std::span<Real> data, CompressMode mode,
                                CompressBuf& buf,
                                Profiler* profiler = nullptr);

  /// Blocking lossy reduce-scatter sum, same chunking contract as
  /// reduce_scatter_sum (chunk boundaries are the concatenation of every
  /// rank's out.size(), which may differ per rank — the 1.5D keeper-only
  /// form). Wire format per rank: [u64 out-length header][encoded full
  /// contribution]; every rank gathers all of them and decodes only its
  /// own slice. Charges lg(P) latency units and the gathered bytes'
  /// (P-1)/P (headers included — they are real wire bytes).
  void reduce_scatter_sum_compressed(std::span<const Real> contrib,
                                     std::span<Real> out, CompressMode mode,
                                     CompressBuf& buf,
                                     Profiler* profiler = nullptr);

 private:
  friend void run_world(int, const std::function<void(Comm&)>&,
                        std::vector<CostMeter>*);
  friend class PendingOp;

  Comm(std::shared_ptr<detail::CommState> state, int rank, CostMeter* meter)
      : state_(std::move(state)), rank_(rank), meter_(meter) {}

  void check_member(int r) const {
    CAGNET_CHECK(r >= 0 && r < size(), "rank out of range");
  }

  /// Diagnose use of a default-constructed (invalid) Comm.
  void check_valid(const char* what) const {
    CAGNET_CHECK(state_ != nullptr,
                 std::string(what) +
                     " on an invalid Comm (default-constructed; obtain one "
                     "from run_world or split)");
  }

  /// Purely local alltoallv offsets validation: size()+1 monotone entries
  /// spanning exactly the send buffer.
  void check_offsets(std::size_t send_len,
                     std::span<const std::size_t> offsets,
                     const char* what) const {
    CAGNET_CHECK(offsets.size() == static_cast<std::size_t>(size()) + 1,
                 std::string(what) + ": offsets must have size()+1 entries");
    CAGNET_CHECK(offsets.front() == 0 && offsets.back() == send_len,
                 std::string(what) + ": offsets must span the send buffer");
    for (std::size_t i = 0; i + 1 < offsets.size(); ++i) {
      CAGNET_CHECK(offsets[i] <= offsets[i + 1],
                   std::string(what) + ": offsets must be monotone");
    }
  }

  /// Bind `buf` to this communicator and element count; a change of
  /// either resets the error-feedback residual (feedback accumulated on
  /// another communicator or buffer shape must not leak into this one).
  void rebind_compress_buf(CompressBuf& buf, std::size_t n) const {
    if (buf.bound_comm != state_->uid || buf.bound_n != n) {
      buf.residual.clear();
      buf.bound_comm = state_->uid;
      buf.bound_n = n;
    }
  }

  /// Claim the next ticket, publish this rank's slot on its channel, and
  /// hand back the armed PendingOp. `op` is the caller-facing name the
  /// seam, aborts, and diagnostics report; `charged = false` suppresses
  /// the automatic charge (the barrier, and the compressed reductions'
  /// byte gather, which charges its actual wire bytes itself). Throws
  /// ContractViolation when the channel still holds this rank's own
  /// unwaited op (waiting for its recycling could never end).
  /// Out-of-line (comm.cpp).
  PendingOp post_async(detail::OpKind kind, const char* op,
                       const void* publish_ptr, std::size_t publish_len,
                       int root, CommCategory cat, bool charged,
                       void (*complete)(PendingOp&), void* out,
                       std::size_t out_len, std::size_t src_len,
                       void* gathered,
                       const void* publish_ptr2 = nullptr) const;

  /// The blocking tail: wait `op`, then hold until every member has
  /// completed it, so its sources — and those of every op this rank
  /// waited before it — are free on return.
  void finish_blocking(PendingOp op) const;

  /// Block until every member completed the op with `ticket`; aborts
  /// report `ctx`. A rank the poison wakes here is outside any region, so
  /// its throw first drains the world (see detail::await_counter): peers
  /// may still be copying the sources its unwind is about to free.
  void await_finished(std::uint64_t ticket,
                      const detail::OpContext& ctx) const;

  /// The body of both compressed reductions, under the caller-facing name
  /// `op`: encode `contrib` into buf.send, all-gather every rank's bytes,
  /// decode-sum into `out` (this rank's slice when `scatter`), then hold
  /// like finish_blocking, so buf.send may be rewritten on return. P == 1
  /// is the exact copy. Out-of-line (comm.cpp).
  void reduce_compressed(std::span<const Real> contrib, std::span<Real> out,
                         CompressMode mode, CompressBuf& buf,
                         Profiler* profiler, bool scatter, const char* op);

  /// barrier() under the caller-facing name `op` (split reports "split").
  void rendezvous(const char* op) const;

  template <typename T>
  PendingOp post_bcast(std::span<const T> src, std::span<T> dst, int root,
                       CommCategory cat, bool charged, const char* op) {
    const bool is_root = rank_ == root;
    return post_async(detail::OpKind::kBcast, op,
                      is_root ? static_cast<const void*>(src.data()) : nullptr,
                      is_root ? src.size() : dst.size(), root, cat, charged,
                      &PendingOp::complete_impl<T>, dst.data(), dst.size(),
                      src.size(), nullptr);
  }

  template <typename T>
  PendingOp post_reduce_scatter(std::span<const T> contrib, std::span<T> out,
                                CommCategory cat, bool charged,
                                const char* op) {
    return post_async(detail::OpKind::kReduceScatter, op, contrib.data(),
                      out.size(), /*root=*/0, cat, charged,
                      &PendingOp::complete_impl<T>, out.data(), out.size(),
                      contrib.size(), nullptr);
  }

  template <typename T>
  PendingOp post_allgatherv(std::span<const T> mine, Gathered<T>& out,
                            CommCategory cat, bool charged, const char* op) {
    return post_async(detail::OpKind::kAllgatherv, op, mine.data(),
                      mine.size(), /*root=*/0, cat, charged,
                      &PendingOp::complete_impl<T>, nullptr, 0, mine.size(),
                      &out);
  }

  template <typename T>
  PendingOp post_alltoallv(std::span<const T> send,
                           std::span<const std::size_t> send_offsets,
                           Gathered<T>& out, CommCategory cat, bool charged,
                           const char* op) {
    check_offsets(send.size(), send_offsets, op);
    return post_async(detail::OpKind::kAlltoallv, op, send.data(),
                      send.size(), /*root=*/0, cat, charged,
                      &PendingOp::complete_impl<T>, nullptr, 0, send.size(),
                      &out, send_offsets.data());
  }

  /// Peers read `data` until every member completed the op, so the total
  /// lands in this rank's stage and is copied back after the release.
  template <typename T>
  void allreduce_in_place(std::span<T> data, CommCategory cat,
                          detail::OpKind kind, const char* op) {
    auto& stage = state_->stage[static_cast<std::size_t>(rank_)];
    stage.resize(data.size() * sizeof(T));
    T* total = reinterpret_cast<T*>(stage.data());
    finish_blocking(post_async(kind, op, data.data(), data.size(),
                               /*root=*/0, cat, true,
                               &PendingOp::complete_impl<T>, total,
                               data.size(), data.size(), nullptr));
    if (!data.empty()) std::memcpy(data.data(), total, data.size() * sizeof(T));
  }

  std::shared_ptr<detail::CommState> state_;
  int rank_ = 0;
  CostMeter* meter_ = nullptr;
};

template <typename T>
void PendingOp::complete_impl(PendingOp& op) {
  auto& ch = *op.state_->channels[op.ticket_ %
                                  static_cast<std::uint64_t>(
                                      detail::kAsyncChannels)];
  const int p = op.state_->size;
  const auto slot = [&](int r) { return static_cast<std::size_t>(r); };
  if (op.kind_ == detail::OpKind::kBcast && op.rank_ == op.root_) {
    // Passive root completion: peers may not have posted yet (wait()
    // skipped the await), so validate nothing and charge from this
    // rank's own published length.
    if (p > 1) op.charge(ceil_log2(p), op.src_len_ * sizeof(T));
    return;
  }
  const detail::OpContext ctx = op.context();
  for (int r = 0; r < p; ++r) {
    detail::check_same_op(ch, r, op.kind_, op.root_, ctx);
  }
  switch (op.kind_) {
    case detail::OpKind::kBcast: {
      const std::size_t n = ch.len[slot(op.root_)];
      for (int r = 0; r < p; ++r) {
        CAGNET_CHECK(ch.len[slot(r)] == n,
                     detail::size_mismatch(ctx, r, ch.len[slot(r)],
                                           op.root_, n));
      }
      if (n > 0) std::memcpy(op.out_, ch.ptr[slot(op.root_)], n * sizeof(T));
      if (p > 1) op.charge(ceil_log2(p), n * sizeof(T));
      break;
    }
    case detail::OpKind::kReduceScatter: {
      std::size_t offset = 0;
      std::size_t total = 0;
      for (int r = 0; r < p; ++r) {
        if (r == op.rank_) offset = total;
        total += ch.len[slot(r)];
      }
      CAGNET_CHECK(op.src_len_ == total,
                   detail::scatter_mismatch(ctx, op.src_len_, total));
      // Zero, then ranks ascending: every element's add order is fixed.
      T* out = static_cast<T*>(op.out_);
      std::fill(out, out + op.out_len_, T{});
      for (int r = 0; r < p; ++r) {
        const T* src = static_cast<const T*>(ch.ptr[slot(r)]) + offset;
        for (std::size_t i = 0; i < op.out_len_; ++i) out[i] += src[i];
      }
      op.charge(ceil_log2(p),
                total * sizeof(T) * (p - 1) /
                    static_cast<std::size_t>(std::max(p, 1)));
      break;
    }
    case detail::OpKind::kAllgatherv: {
      auto& out = *static_cast<Gathered<T>*>(op.gathered_);
      out.offsets.resize(slot(p) + 1);
      out.offsets[0] = 0;
      for (int r = 0; r < p; ++r) {
        out.offsets[slot(r) + 1] = out.offsets[slot(r)] + ch.len[slot(r)];
      }
      out.data.resize(out.offsets.back());
      for (int r = 0; r < p; ++r) {
        if (ch.len[slot(r)] == 0) continue;
        std::memcpy(out.data.data() + out.offsets[slot(r)], ch.ptr[slot(r)],
                    ch.len[slot(r)] * sizeof(T));
      }
      op.charge(ceil_log2(p), (out.data.size() - op.src_len_) * sizeof(T));
      break;
    }
    case detail::OpKind::kAllreduce:
    case detail::OpKind::kAllreduceMax: {
      const std::size_t n = op.out_len_;
      for (int r = 0; r < p; ++r) {
        CAGNET_CHECK(ch.len[slot(r)] == n,
                     detail::size_mismatch(ctx, op.rank_, n, r,
                                           ch.len[slot(r)]));
      }
      // Ranks ascending per element, identically on every rank.
      T* out = static_cast<T*>(op.out_);
      const auto fold = [&](auto combine) {
        for (std::size_t i = 0; i < n; ++i) {
          T acc = static_cast<const T*>(ch.ptr[0])[i];
          for (int r = 1; r < p; ++r) {
            acc = combine(acc, static_cast<const T*>(ch.ptr[slot(r)])[i]);
          }
          out[i] = acc;
        }
      };
      if (op.kind_ == detail::OpKind::kAllreduce) {
        fold([](T acc, T v) { return acc + v; });
      } else {
        fold([](T acc, T v) { return v > acc ? v : acc; });
      }
      op.charge(2.0 * ceil_log2(p),
                2 * n * sizeof(T) * (p - 1) /
                    static_cast<std::size_t>(std::max(p, 1)));
      break;
    }
    case detail::OpKind::kAlltoallv: {
      // Rank r's chunk for this rank is [offs_r[me], offs_r[me + 1]) of its
      // send buffer; the self chunk moves but is not charged.
      auto& out = *static_cast<Gathered<T>*>(op.gathered_);
      const auto me = slot(op.rank_);
      const auto offs = [&](int r) {
        return static_cast<const std::size_t*>(ch.ptr2[slot(r)]);
      };
      out.offsets.resize(slot(p) + 1);
      out.offsets[0] = 0;
      for (int r = 0; r < p; ++r) {
        out.offsets[slot(r) + 1] =
            out.offsets[slot(r)] + offs(r)[me + 1] - offs(r)[me];
      }
      out.data.resize(out.offsets.back());
      for (int r = 0; r < p; ++r) {
        const std::size_t len = out.offsets[slot(r) + 1] - out.offsets[slot(r)];
        if (len == 0) continue;
        std::memcpy(out.data.data() + out.offsets[slot(r)],
                    static_cast<const T*>(ch.ptr[slot(r)]) + offs(r)[me],
                    len * sizeof(T));
      }
      const std::size_t self_chunk = out.offsets[me + 1] - out.offsets[me];
      op.charge(p > 1 ? static_cast<double>(p - 1) : 0.0,
                (out.data.size() - self_chunk) * sizeof(T));
      break;
    }
    case detail::OpKind::kRoute: {
      // ptr2 carries each rank's destination; exactly one names this rank.
      int src = -1;
      for (int r = 0; r < p && src < 0; ++r) {
        if (*static_cast<const int*>(ch.ptr2[slot(r)]) == op.rank_) src = r;
      }
      CAGNET_CHECK(src >= 0, detail::op_error(
                                 ctx,
                                 "destinations do not form a permutation "
                                 "(no rank sends to rank " +
                                     std::to_string(op.rank_) + ")"));
      auto& out = *static_cast<std::vector<T>*>(op.gathered_);
      out.resize(ch.len[slot(src)]);
      if (!out.empty()) {
        std::memcpy(out.data(), ch.ptr[slot(src)], out.size() * sizeof(T));
      }
      if (src != op.rank_) op.charge(1.0, out.size() * sizeof(T));
      break;
    }
    case detail::OpKind::kBarrier:
      break;
    case detail::OpKind::kNone:
      CAGNET_CHECK(false, "completing an unarmed PendingOp");
  }
}

/// Launch a world of `p` ranks, each running `fn(comm)` on its own thread.
/// Rethrows the first rank exception after joining all threads. Peers
/// blocked anywhere — waits, per-source drains, or release holds, on the
/// world or any split sub-communicator — are released by the abort
/// machinery (the channel counters are poison-wakeable) and unwind with a
/// typed CommAborted naming their rank, op, and category. The thread pool
/// and the process-wide knobs are untouched by an abort, so the caller may
/// immediately launch a fresh world (the recovery driver in
/// src/core/recovery.hpp does). The world consults the process-global
/// fault plan (src/comm/fault.hpp) at entry; with none installed the
/// transport seam is inert. If `meters_out` is non-null it receives each
/// rank's final CostMeter.
void run_world(int p, const std::function<void(Comm&)>& fn,
               std::vector<CostMeter>* meters_out = nullptr);

}  // namespace cagnet
