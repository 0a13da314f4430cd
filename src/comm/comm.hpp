// Simulated message-passing runtime.
//
// This is the repo's stand-in for torch.distributed/NCCL on Summit (see
// DESIGN.md, "Substitutions"). A *world* of P ranks runs as P threads in one
// process. A Comm exposes MPI-flavoured collectives whose semantics match
// the operations the paper's algorithms are written in terms of: broadcast,
// all-reduce, reduce-scatter, all-gather(v), and pairwise exchange. Data is
// genuinely moved between rank-private buffers (so algorithm correctness is
// real), and every operation charges its textbook alpha-beta cost to the
// rank's CostMeter (so communication volumes are real too).
//
// Contract (same as MPI): a collective must be invoked by every member of
// the communicator, in the same program order. All spans must stay alive
// until the call returns.
//
// Nonblocking layer: the i-prefixed collectives (ibroadcast_from,
// ireduce_scatter_sum, iallgatherv_into, iallreduce_sum) post immediately
// and return a PendingOp whose wait() completes the data movement and the
// meter charge. Posts must follow the same program order on every rank;
// waits may be out of order. Between post and wait a rank may compute and
// may run other collectives (blocking or nonblocking) on any communicator —
// this is what the SUMMA double-buffering in src/core/ exploits. See
// DESIGN.md, "Nonblocking runtime and overlap accounting".
#pragma once

#include <atomic>
#include <cstring>
#include <exception>
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

/// Channels per communicator for nonblocking collectives; also the cap on
/// posted-but-unwaited operations per rank (posting more is diagnosed, not
/// deadlocked).
inline constexpr int kAsyncChannels = 16;

/// Which nonblocking collective a channel generation carries; published
/// per rank so mismatched program order is diagnosed at wait().
enum class OpKind : std::uint8_t {
  kNone = 0,
  kBcast,
  kReduceScatter,
  kAllgatherv,
  kAllreduce,
  kAlltoallv,
};

/// Display name of a nonblocking op kind (diagnostics and CommAborted).
const char* op_kind_name(OpKind kind);

/// Identity of the operation a seam event or abort belongs to: the
/// observing rank, the traffic category, and the op's display name. Built
/// once per collective call and threaded through the publish/await/charge
/// hooks and every abort throw, so a CommAborted always names rank, phase,
/// and op kind no matter where the unwind started.
struct OpContext {
  int rank;
  CommCategory cat;
  const char* op;
};

/// Throw the peer-failure form of CommAborted: the world died under this
/// rank while it was inside `ctx`'s operation.
[[noreturn]] void throw_peer_aborted(const OpContext& ctx, FaultSite site);

/// Rendezvous state of one nonblocking-collective channel. Channels are
/// recycled in generations: the op with ticket T uses channel T % K at
/// generation T / K. `posted` and `finished` count cumulatively across
/// generations; generation G's payload is readable once posted reaches
/// size*(G+1), and the channel is recyclable for G+1 once finished reaches
/// size*(G+1). Slot writes happen-before the posting increment (release)
/// and slot reads happen-before the finishing increment, so recycling
/// never races with a straggling reader.
struct AsyncChannel {
  explicit AsyncChannel(int n)
      : posted_by(static_cast<std::size_t>(n)),
        ptr(static_cast<std::size_t>(n), nullptr),
        ptr2(static_cast<std::size_t>(n), nullptr),
        len(static_cast<std::size_t>(n), 0),
        kind(static_cast<std::size_t>(n), OpKind::kNone),
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
                                 ///< per-destination offsets array)
  std::vector<std::size_t> len;  ///< per-rank published element count
  std::vector<OpKind> kind;      ///< per-rank op kind (order validation)
  std::vector<int> root;         ///< per-rank root (order validation)
};

struct CommState;

/// World-wide abort fan-out shared by a world and every communicator split
/// off it. A failing rank sets the flag and poisons every registered
/// state's channels and phase gates (bump + notify), so waiters parked on
/// futexes anywhere in the communicator tree — nonblocking waits AND
/// blocking-collective rendezvous, including on split sub-communicators —
/// wake, observe the flag, and unwind.
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

/// Abortable phase barrier (replaces std::barrier, which only a
/// participant can drop: a rank that died elsewhere would leave peers
/// parked in a blocking collective forever). Arrivals are a cumulative
/// counter; the last arrival of a phase bumps `released` and wakes the
/// rest, who park on it futex-style. AbortHub::poison bumps `released`
/// too, so every parked arrival wakes, observes the flag, and unwinds —
/// the unwind guarantee now covers blocking collectives on split
/// sub-communicators as well.
struct PhaseGate {
  explicit PhaseGate(int n) : size(static_cast<std::uint64_t>(n)) {}

  const std::uint64_t size;
  std::atomic<std::uint64_t> arrived{0};
  std::atomic<std::uint64_t> released{0};  ///< completed phases
  std::atomic<int> waiters{0};
};

/// Shared state of one communicator: a phase barrier plus per-rank
/// publication slots for the blocking collectives, and a ring of
/// AsyncChannels for the nonblocking ones. All blocking slot accesses are
/// separated by barrier phases, which provide the necessary happens-before
/// edges; the channels carry their own ordering (see AsyncChannel).
struct CommState {
  CommState(int n, std::shared_ptr<AbortHub> abort_hub)
      : size(n), gate(n),
        slot_ptr(static_cast<std::size_t>(n), nullptr),
        slot_ptr2(static_cast<std::size_t>(n), nullptr),
        slot_len(static_cast<std::size_t>(n), 0),
        slot_dest(static_cast<std::size_t>(n), -1),
        next_ticket(static_cast<std::size_t>(n), 0),
        outstanding(static_cast<std::size_t>(n), 0),
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
  PhaseGate gate;
  std::vector<const void*> slot_ptr;
  std::vector<const void*> slot_ptr2; // alltoallv per-destination offsets
  std::vector<std::size_t> slot_len;  // element counts, payload-defined units
  std::vector<int> slot_dest;         // route() destination per rank
  std::vector<unsigned char> scratch; // reduction workspace (rank 0 resizes)
  std::vector<std::unique_ptr<AsyncChannel>> channels;
  std::vector<std::uint64_t> next_ticket;  // per rank; owner-written only
  std::vector<int> outstanding;            // per-rank posted-unwaited count
  /// Per-rank count of open slot-reading regions (blocking collective
  /// bodies, nonblocking waits, per-source drains). On the abort path a
  /// dying rank drains these before its unwind frees the buffers it
  /// published — see CollectiveWindow.
  std::vector<std::atomic<int>> in_collective;
  /// Lifecycle auditor (null unless contract::enabled() held at
  /// construction); split sub-communicators build their own.
  std::unique_ptr<contract::Checker> checker;
  std::mutex mutex;
  /// Transient rendezvous of an in-flight split(). Owned here (not by the
  /// splitting ranks) so a rank failure mid-split cannot leak it: it is
  /// released at the split's final phase, by the next split, or with this
  /// state.
  std::shared_ptr<void> split_ctx;
  /// Shared with every communicator split off this one, so a rank failure
  /// anywhere in the world also unblocks nonblocking waits on
  /// sub-communicators.
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
/// rank/op/category) as soon as the world aborts: AbortHub::poison bumps
/// and notifies every counter, so parked waiters wake. Posts precede
/// waits by a whole compute stage in the double-buffered loops, so the
/// fast path is a single load.
void await_counter(const std::atomic<std::uint64_t>& counter,
                   std::atomic<int>& waiters, std::uint64_t target,
                   const std::atomic<bool>& aborted, const OpContext& ctx);

/// Counter bump + conditional wake, the posting half of await_counter's
/// protocol.
// [[hot-path]]
inline void bump_counter(std::atomic<std::uint64_t>& counter,
                         const std::atomic<int>& waiters) {
  counter.fetch_add(1, std::memory_order_seq_cst);
  if (waiters.load(std::memory_order_seq_cst) != 0) counter.notify_all();
}

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
      // Poison at throw time, not at run_world's catch: the dying rank's
      // own stack unwind completes in-flight ops, and those completions
      // block on peers who in turn block on this rank — a mutual wait
      // that only resolves if the abort flag is already up world-wide
      // when the unwind's awaits run.
      st.hub->poison();
      throw;
    }
  }
}

/// Program-order mismatch diagnostic naming this rank, the op it is
/// waiting on (kind + category), the offending peer, and what that peer
/// posted instead. Out-of-line (comm.cpp) — built only on the failure
/// path.
std::string order_mismatch(const OpContext& ctx, OpKind want, int peer,
                           OpKind got);

/// RAII bracket around one slot-reading region (a blocking collective
/// body, a nonblocking wait, a per-source drain). Healthy worlds pay two
/// uncontended atomic RMWs. Its real job is the abort path: a rank whose
/// exception escapes the region poisons the world immediately (so no peer
/// starts a new read of this rank's published buffers) and then blocks
/// until every other rank's open regions drain, because a peer that
/// passed its await before the poison landed may still be mid-read of a
/// buffer this rank's unwind is about to free. Peers exit their regions
/// in bounded time — parked ones are poison-woken and throw, active ones
/// throw at their next await — and each dying rank closes its own region
/// before waiting on the others', so mutual aborts cannot cycle.
/// ThreadSanitizer found the use-after-free window this closes (a killed
/// rank's teardown racing a straggling reader); the acquire/release pair
/// on the region counter is also the happens-before edge that orders the
/// reader's last load before the dying rank's free.
class CollectiveWindow {
 public:
  CollectiveWindow(CommState& st, int rank)
      : st_(st),
        rank_(rank),
        entry_exceptions_(std::uncaught_exceptions()) {
    st_.in_collective[static_cast<std::size_t>(rank)].fetch_add(
        1, std::memory_order_seq_cst);
  }
  ~CollectiveWindow();  // comm.cpp

  CollectiveWindow(const CollectiveWindow&) = delete;
  CollectiveWindow& operator=(const CollectiveWindow&) = delete;

 private:
  CommState& st_;
  int rank_;
  int entry_exceptions_;  ///< uncaught count at entry; more at exit = unwind
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

namespace detail {

/// Shared unpack of the blocking and nonblocking alltoallv: computes the
/// per-source offsets from each rank's published (send, offsets) pair,
/// copies this rank's chunks into `out`, and returns the self-chunk
/// element count (which the charge excludes). One copy keeps the two
/// paths' movement and charge arithmetic in lockstep.
template <typename T>
std::size_t alltoallv_unpack(int p, int rank,
                             const std::vector<const void*>& ptr,
                             const std::vector<const void*>& ptr2,
                             Gathered<T>& out) {
  const auto me = static_cast<std::size_t>(rank);
  out.offsets.resize(static_cast<std::size_t>(p) + 1);
  out.offsets[0] = 0;
  std::size_t self_chunk = 0;
  for (int r = 0; r < p; ++r) {
    const auto* offs =
        static_cast<const std::size_t*>(ptr2[static_cast<std::size_t>(r)]);
    const std::size_t len = offs[me + 1] - offs[me];
    if (r == rank) self_chunk = len;
    out.offsets[static_cast<std::size_t>(r) + 1] =
        out.offsets[static_cast<std::size_t>(r)] + len;
  }
  out.data.resize(out.offsets.back());
  for (int r = 0; r < p; ++r) {
    const auto* offs =
        static_cast<const std::size_t*>(ptr2[static_cast<std::size_t>(r)]);
    const std::size_t len = offs[me + 1] - offs[me];
    if (len == 0) continue;
    std::memcpy(out.data.data() + out.offsets[static_cast<std::size_t>(r)],
                static_cast<const T*>(ptr[static_cast<std::size_t>(r)]) +
                    offs[me],
                len * sizeof(T));
  }
  return self_chunk;
}

}  // namespace detail

/// Handle to a posted-but-possibly-incomplete nonblocking collective.
/// Move-only. wait() blocks until every member has posted the matching op,
/// performs this rank's data movement, charges the meter exactly as the
/// blocking form would, and releases the channel; a second wait() is a
/// no-op, diagnosed as a ContractViolation when the contract checker is
/// armed (gate repeat waits on pending()). A
/// PendingOp that is destroyed while still pending completes itself first
/// (like a blocking wait), swallowing abort errors so unwinding a failed
/// world never terminates.
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

  /// Posting-order index of this op on its communicator (valid while
  /// pending). Record it before wait() to later release this op's
  /// sources with Comm::quiesce_op.
  std::uint64_t ticket() const { return ticket_; }

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
  /// point for the op (quiesce / quiesce_op), exactly like any posted
  /// source. Worlds wider than 64 ranks are diagnosed (the drain ledger
  /// is a 64-bit mask).
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
                            ch.waiters, gen + 1, state_->hub->aborted, ctx);
    }
    CAGNET_CHECK(ch.kind[static_cast<std::size_t>(src)] == kind_ &&
                     ch.root[static_cast<std::size_t>(src)] == root_,
                 detail::order_mismatch(
                     ctx, kind_, src, ch.kind[static_cast<std::size_t>(src)]));
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
  /// blocking form's (1 latency unit, zero words).
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

  // [[hot-path]]
  void charge(double latency_units, std::size_t bytes) {
    if (!charged_) return;
    detail::seam_event(
        *state_, {rank_, cat_, detail::op_kind_name(kind_)},
        FaultSite::kCharge);
    if (auto* ck = state_->checker.get()) {
      ck->on_charge(rank_, detail::op_kind_name(kind_), cat_);
    }
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
                            ch.waiters, gen + 1, op.state_->hub->aborted,
                            ctx);
      CAGNET_CHECK(ch.kind[static_cast<std::size_t>(r)] == op.kind_ &&
                       ch.root[static_cast<std::size_t>(r)] == op.root_,
                   detail::order_mismatch(
                       ctx, op.kind_, r,
                       ch.kind[static_cast<std::size_t>(r)]));
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
  void* out_ = nullptr;          ///< this rank's destination (kind-specific)
  std::size_t out_len_ = 0;      ///< destination element count
  std::size_t src_len_ = 0;      ///< this rank's contribution element count
  void* gathered_ = nullptr;     ///< Gathered<T>* for iallgatherv_into
  std::uint64_t drained_mask_ = 0;  ///< await_source ledger (bit per rank)
  bool waited_ = false;  ///< completed by an explicit wait (double-wait check)
  void (*complete_)(PendingOp&) = nullptr;  ///< typed movement + charge
};

/// Handle to a posted compressed reduction (iallreduce_sum_compressed /
/// ireduce_scatter_sum_compressed). Move-only. wait() completes the
/// underlying byte all-gather, decodes and sums this rank's result, and
/// charges CommCategory::kCompressed with the actual post-compression
/// bytes; codec time lands in Phase::kCompressPack when the posting call
/// was given a profiler. Like any nonblocking source, the CompressBuf's
/// send bytes stay readable by peers until the communicator's release
/// point — record ticket() before wait() and release with
/// Comm::quiesce_op (or a later Comm::quiesce). A handle destroyed while
/// still pending completes itself first, like PendingOp.
class PendingCompressedReduce {
 public:
  PendingCompressedReduce() = default;  ///< empty handle; pending() false

  PendingCompressedReduce(PendingCompressedReduce&& other) noexcept {
    *this = std::move(other);
  }
  PendingCompressedReduce& operator=(
      PendingCompressedReduce&& other) noexcept {
    if (this != &other) {
      complete_for_destroy();
      op_ = std::move(other.op_);
      state_ = std::move(other.state_);
      buf_ = other.buf_;
      meter_ = other.meter_;
      profiler_ = other.profiler_;
      mode_ = other.mode_;
      scatter_ = other.scatter_;
      out_ = other.out_;
      out_len_ = other.out_len_;
      n_ = other.n_;
      rank_ = other.rank_;
      size_ = other.size_;
      other.buf_ = nullptr;
    }
    return *this;
  }

  PendingCompressedReduce(const PendingCompressedReduce&) = delete;
  PendingCompressedReduce& operator=(const PendingCompressedReduce&) = delete;

  ~PendingCompressedReduce() { complete_for_destroy(); }

  /// True between post and wait (false for the exact P == 1 fast path,
  /// which completes at post time).
  bool pending() const { return buf_ != nullptr; }

  /// Posting-order ticket of the underlying byte gather (valid while
  /// pending); record it before wait() to release the send bytes with
  /// Comm::quiesce_op.
  std::uint64_t ticket() const { return op_.ticket(); }

  /// Complete: block for all posts, decode + sum, charge kCompressed.
  void wait();  // comm.cpp

 private:
  friend class Comm;

  void complete_for_destroy() noexcept {
    if (!pending()) return;
    try {
      wait();
    } catch (...) {
      buf_ = nullptr;  // unwinding a failed world; nothing left to finish
      state_.reset();
    }
  }

  PendingOp op_;
  /// Kept alongside op_ (which drops its own ref at wait) so the decode
  /// epilogue can reach the contract checker for charge attribution.
  std::shared_ptr<detail::CommState> state_;
  CompressBuf* buf_ = nullptr;
  CostMeter* meter_ = nullptr;
  Profiler* profiler_ = nullptr;
  CompressMode mode_ = CompressMode::kOff;
  bool scatter_ = false;
  Real* out_ = nullptr;
  std::size_t out_len_ = 0;
  std::size_t n_ = 0;  ///< full contribution element count
  int rank_ = 0;
  int size_ = 0;
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

  /// Synchronize all members (one barrier phase; charges nothing).
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

  /// Block until every member has completed (waited) every nonblocking op
  /// posted so far on this communicator — the release point after which
  /// the source buffers of those ops may be modified or freed. Unlike
  /// barrier() this is not a phase: it costs a handful of atomic loads
  /// when peers have already drained, and it charges nothing. The
  /// double-buffered loops call it before reusing a broadcast source.
  /// CAUTION: quiescing while an op that peers deliberately wait *later*
  /// (e.g. a deferred gradient reduction) is outstanding deadlocks; use
  /// quiesce_op to release one specific op instead.
  void quiesce() const;

  /// Block until every member has completed one specific op, identified
  /// by the PendingOp::ticket() recorded at post time — the single-op
  /// release form of quiesce. Waits only on that op's channel (channel
  /// generations complete in order), so deliberately-still-pending ops
  /// elsewhere cause no deadlock.
  void quiesce_op(std::uint64_t ticket) const;

  /// Collective split into disjoint sub-communicators by color; ranks are
  /// ordered by (key, parent rank) within each color. Every member of this
  /// communicator must call. The sub-communicator shares this rank's meter
  /// and the world's abort flag.
  Comm split(int color, int key) const;

  // ---- Collectives. `cat` selects the CostMeter category. ----

  /// In-place broadcast from `root` to all members. Charges lg(P) latency
  /// units and data.size() words to every rank (nothing when P == 1).
  template <typename T>
  void broadcast(std::span<T> data, int root, CommCategory cat) {
    check_valid("broadcast");
    check_member(root);
    const detail::OpContext ctx{rank_, cat, "broadcast"};
    detail::CollectiveWindow window(*state_, rank_);
    contract::BlockingScope contract_scope(state_->checker.get(),
                                           rank_, ctx.op, cat);
    sync_sizes(data.size(), ctx);
    detail::seam_event(*state_, ctx, FaultSite::kPost);
    state_->slot_ptr[static_cast<std::size_t>(rank_)] = data.data();
    phase(ctx);
    detail::seam_event(*state_, ctx, FaultSite::kWait);
    if (rank_ != root && !data.empty()) {
      std::memcpy(data.data(),
                  state_->slot_ptr[static_cast<std::size_t>(root)],
                  data.size() * sizeof(T));
    }
    phase(ctx);
    if (size() > 1) charge(ctx, ceil_log2(size()), data.size() * sizeof(T));
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
    const detail::OpContext ctx{rank_, cat, "broadcast_from"};
    detail::CollectiveWindow window(*state_, rank_);
    contract::BlockingScope contract_scope(state_->checker.get(),
                                           rank_, ctx.op, cat);
    const std::size_t n = rank_ == root ? src.size() : dst.size();
    sync_sizes(n, ctx);
    detail::seam_event(*state_, ctx, FaultSite::kPost);
    state_->slot_ptr[static_cast<std::size_t>(rank_)] =
        rank_ == root ? static_cast<const void*>(src.data()) : nullptr;
    phase(ctx);
    detail::seam_event(*state_, ctx, FaultSite::kWait);
    if (rank_ != root && n > 0) {
      std::memcpy(dst.data(),
                  state_->slot_ptr[static_cast<std::size_t>(root)],
                  n * sizeof(T));
    }
    phase(ctx);
    if (size() > 1) charge(ctx, ceil_log2(size()), n * sizeof(T));
  }

  /// In-place elementwise sum over all members; every rank ends with the
  /// total. Cost: Rabenseifner (reduce-scatter + all-gather): 2 lg(P)
  /// latency units and 2 n (P-1)/P words.
  template <typename T>
  void allreduce_sum(std::span<T> data, CommCategory cat) {
    check_valid("allreduce_sum");
    reduce_impl(data, cat, /*is_max=*/false, "allreduce_sum");
  }

  /// In-place elementwise max over all members. Charged like
  /// allreduce_sum.
  template <typename T>
  void allreduce_max(std::span<T> data, CommCategory cat) {
    check_valid("allreduce_max");
    reduce_impl(data, cat, /*is_max=*/true, "allreduce_max");
  }

  /// Reduce-scatter with sum: `contrib` (same length on every rank) is the
  /// full-length vector of partial sums; rank r receives the reduced slice
  /// [chunk_offset(r), chunk_offset(r)+out.size()) into `out`, where chunk
  /// boundaries are the concatenation of every rank's out.size(). Charges
  /// lg(P) latency units and total (P-1)/P words.
  template <typename T>
  void reduce_scatter_sum(std::span<const T> contrib, std::span<T> out,
                          CommCategory cat) {
    check_valid("reduce_scatter_sum");
    const detail::OpContext ctx{rank_, cat, "reduce_scatter_sum"};
    detail::CollectiveWindow window(*state_, rank_);
    contract::BlockingScope contract_scope(state_->checker.get(),
                                           rank_, ctx.op, cat);
    const int p = size();
    detail::seam_event(*state_, ctx, FaultSite::kPost);
    state_->slot_ptr[static_cast<std::size_t>(rank_)] = contrib.data();
    state_->slot_len[static_cast<std::size_t>(rank_)] = out.size();
    phase(ctx);
    detail::seam_event(*state_, ctx, FaultSite::kWait);
    std::size_t offset = 0;
    std::size_t total = 0;
    for (int r = 0; r < p; ++r) {
      if (r == rank_) offset = total;
      total += state_->slot_len[static_cast<std::size_t>(r)];
    }
    CAGNET_CHECK(contrib.size() == total,
                 "reduce_scatter: contribution length != sum of outputs");
    // Chunk-by-chunk with contiguous inner loops so the accumulation
    // vectorizes like the other collectives. The per-element order (zero,
    // then ranks ascending) matches the per-element form exactly, so the
    // result is bitwise identical.
    std::fill(out.begin(), out.end(), T{});
    for (int r = 0; r < p; ++r) {
      const T* src = static_cast<const T*>(
                         state_->slot_ptr[static_cast<std::size_t>(r)]) +
                     offset;
      for (std::size_t i = 0; i < out.size(); ++i) out[i] += src[i];
    }
    phase(ctx);
    charge(ctx, ceil_log2(p),
           total * sizeof(T) * (p - 1) / std::max(p, 1));
  }

  /// All-gather of equal-size chunks: every rank contributes `mine`, and
  /// receives the rank-ordered concatenation. Charged like allgatherv.
  template <typename T>
  std::vector<T> allgather(std::span<const T> mine, CommCategory cat) {
    check_valid("allgather");
    sync_sizes(mine.size(), {rank_, cat, "allgather"});
    return allgatherv(mine, cat).data;
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
    const detail::OpContext ctx{rank_, cat, "allgatherv_into"};
    detail::CollectiveWindow window(*state_, rank_);
    contract::BlockingScope contract_scope(state_->checker.get(),
                                           rank_, ctx.op, cat);
    const int p = size();
    detail::seam_event(*state_, ctx, FaultSite::kPost);
    state_->slot_ptr[static_cast<std::size_t>(rank_)] = mine.data();
    state_->slot_len[static_cast<std::size_t>(rank_)] = mine.size();
    phase(ctx);
    detail::seam_event(*state_, ctx, FaultSite::kWait);
    out.offsets.resize(static_cast<std::size_t>(p) + 1);
    out.offsets[0] = 0;
    for (int r = 0; r < p; ++r) {
      out.offsets[static_cast<std::size_t>(r) + 1] =
          out.offsets[static_cast<std::size_t>(r)] +
          state_->slot_len[static_cast<std::size_t>(r)];
    }
    out.data.resize(out.offsets.back());
    for (int r = 0; r < p; ++r) {
      const auto len = state_->slot_len[static_cast<std::size_t>(r)];
      if (len == 0) continue;
      std::memcpy(out.data.data() + out.offsets[static_cast<std::size_t>(r)],
                  state_->slot_ptr[static_cast<std::size_t>(r)],
                  len * sizeof(T));
    }
    phase(ctx);
    charge(ctx, ceil_log2(p), (out.data.size() - mine.size()) * sizeof(T));
  }

  /// Pairwise exchange: send `send` to `peer` and receive its message.
  /// Both sides must name each other; peer == rank() is a local copy.
  /// Charges 1 latency unit and the received words (nothing for self).
  template <typename T>
  std::vector<T> exchange(std::span<const T> send, int peer,
                          CommCategory cat) {
    check_valid("exchange");
    check_member(peer);
    const detail::OpContext ctx{rank_, cat, "exchange"};
    detail::CollectiveWindow window(*state_, rank_);
    contract::BlockingScope contract_scope(state_->checker.get(),
                                           rank_, ctx.op, cat);
    detail::seam_event(*state_, ctx, FaultSite::kPost);
    state_->slot_ptr[static_cast<std::size_t>(rank_)] = send.data();
    state_->slot_len[static_cast<std::size_t>(rank_)] = send.size();
    phase(ctx);
    detail::seam_event(*state_, ctx, FaultSite::kWait);
    const auto len = state_->slot_len[static_cast<std::size_t>(peer)];
    std::vector<T> recv(len);
    if (len > 0) {
      std::memcpy(recv.data(),
                  state_->slot_ptr[static_cast<std::size_t>(peer)],
                  len * sizeof(T));
    }
    phase(ctx);
    if (peer != rank_) charge(ctx, 1.0, len * sizeof(T));
    return recv;
  }

  /// Permutation all-to-all: every rank sends one message to `dest`; the
  /// destinations across ranks must form a permutation (each rank receives
  /// exactly one message). This is the redistribution primitive of the 3D
  /// distributed transpose. dest == rank() is a local copy. Charges 1
  /// latency unit and the received words (nothing for self-delivery).
  template <typename T>
  std::vector<T> route(std::span<const T> send, int dest, CommCategory cat) {
    check_valid("route");
    check_member(dest);
    const detail::OpContext ctx{rank_, cat, "route"};
    detail::CollectiveWindow window(*state_, rank_);
    contract::BlockingScope contract_scope(state_->checker.get(),
                                           rank_, ctx.op, cat);
    detail::seam_event(*state_, ctx, FaultSite::kPost);
    state_->slot_ptr[static_cast<std::size_t>(rank_)] = send.data();
    state_->slot_len[static_cast<std::size_t>(rank_)] = send.size();
    state_->slot_dest[static_cast<std::size_t>(rank_)] = dest;
    phase(ctx);
    detail::seam_event(*state_, ctx, FaultSite::kWait);
    int src = -1;
    for (int r = 0; r < size(); ++r) {
      if (state_->slot_dest[static_cast<std::size_t>(r)] == rank_) {
        src = r;
        break;
      }
    }
    CAGNET_CHECK(src >= 0, "route: destinations do not form a permutation");
    const auto len = state_->slot_len[static_cast<std::size_t>(src)];
    std::vector<T> recv(len);
    if (len > 0) {
      std::memcpy(recv.data(),
                  state_->slot_ptr[static_cast<std::size_t>(src)],
                  len * sizeof(T));
    }
    phase(ctx);
    if (src != rank_) charge(ctx, 1.0, len * sizeof(T));
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
    check_offsets(send.size(), send_offsets, "alltoallv_into");
    const detail::OpContext ctx{rank_, cat, "alltoallv_into"};
    detail::CollectiveWindow window(*state_, rank_);
    contract::BlockingScope contract_scope(state_->checker.get(),
                                           rank_, ctx.op, cat);
    const int p = size();
    detail::seam_event(*state_, ctx, FaultSite::kPost);
    state_->slot_ptr[static_cast<std::size_t>(rank_)] = send.data();
    state_->slot_ptr2[static_cast<std::size_t>(rank_)] = send_offsets.data();
    phase(ctx);
    detail::seam_event(*state_, ctx, FaultSite::kWait);
    const std::size_t self_chunk = detail::alltoallv_unpack<T>(
        p, rank_, state_->slot_ptr, state_->slot_ptr2, out);
    phase(ctx);
    charge(ctx, p > 1 ? static_cast<double>(p - 1) : 0.0,
           (out.data.size() - self_chunk) * sizeof(T));
  }

  /// Gather to root (rank-ordered concatenation at root; empty elsewhere).
  /// Charges lg(P) latency units; the root is charged the received words,
  /// everyone else their sent words.
  template <typename T>
  Gathered<T> gather(std::span<const T> mine, int root, CommCategory cat) {
    check_valid("gather");
    check_member(root);
    const detail::OpContext ctx{rank_, cat, "gather"};
    detail::CollectiveWindow window(*state_, rank_);
    contract::BlockingScope contract_scope(state_->checker.get(),
                                           rank_, ctx.op, cat);
    const int p = size();
    detail::seam_event(*state_, ctx, FaultSite::kPost);
    state_->slot_ptr[static_cast<std::size_t>(rank_)] = mine.data();
    state_->slot_len[static_cast<std::size_t>(rank_)] = mine.size();
    phase(ctx);
    detail::seam_event(*state_, ctx, FaultSite::kWait);
    Gathered<T> result;
    if (rank_ == root) {
      result.offsets.resize(static_cast<std::size_t>(p) + 1, 0);
      for (int r = 0; r < p; ++r) {
        result.offsets[static_cast<std::size_t>(r) + 1] =
            result.offsets[static_cast<std::size_t>(r)] +
            state_->slot_len[static_cast<std::size_t>(r)];
      }
      result.data.resize(result.offsets.back());
      for (int r = 0; r < p; ++r) {
        const auto len = state_->slot_len[static_cast<std::size_t>(r)];
        if (len == 0) continue;
        std::memcpy(
            result.data.data() + result.offsets[static_cast<std::size_t>(r)],
            state_->slot_ptr[static_cast<std::size_t>(r)], len * sizeof(T));
      }
    }
    phase(ctx);
    charge(ctx, ceil_log2(p),
           rank_ == root ? (result.data.size() - mine.size()) * sizeof(T)
                         : mine.size() * sizeof(T));
    return result;
  }

  // ---- Nonblocking collectives. Posts are nonblocking (no barrier
  // phase); data moves and the meter is charged at PendingOp::wait(),
  // with charges identical to the blocking forms. `charged = false`
  // suppresses the automatic charge for callers that account the traffic
  // themselves (e.g. an op split into chunks whose per-chunk integer
  // charges would not sum to the unsplit op's). ----

  /// Nonblocking broadcast_from: the root posts `src` (left untouched and
  /// readable by peers until every rank has waited); every other rank
  /// receives into `dst` at its own wait(). Charged like broadcast.
  template <typename T>
  PendingOp ibroadcast_from(std::span<const T> src, std::span<T> dst,
                            int root, CommCategory cat, bool charged = true) {
    check_valid("ibroadcast_from");
    check_member(root);
    const bool is_root = rank_ == root;
    return post_async(detail::OpKind::kBcast,
                      is_root ? static_cast<const void*>(src.data()) : nullptr,
                      is_root ? src.size() : dst.size(), root, cat, charged,
                      &PendingOp::complete_impl<T>, dst.data(), dst.size(),
                      src.size(), nullptr);
  }

  /// Nonblocking reduce_scatter_sum (same chunking contract as the
  /// blocking form). `out` must not alias any rank's `contrib`. Charged
  /// like reduce_scatter_sum.
  template <typename T>
  PendingOp ireduce_scatter_sum(std::span<const T> contrib, std::span<T> out,
                                CommCategory cat, bool charged = true) {
    check_valid("ireduce_scatter_sum");
    return post_async(detail::OpKind::kReduceScatter, contrib.data(),
                      out.size(), /*root=*/0, cat, charged,
                      &PendingOp::complete_impl<T>, out.data(), out.size(),
                      contrib.size(), nullptr);
  }

  /// Nonblocking allgatherv_into. `out` (resized at wait) must outlive the
  /// op and `mine` must not alias `out.data`. Charged like allgatherv.
  template <typename T>
  PendingOp iallgatherv_into(std::span<const T> mine, Gathered<T>& out,
                             CommCategory cat, bool charged = true) {
    check_valid("iallgatherv_into");
    return post_async(detail::OpKind::kAllgatherv, mine.data(), mine.size(),
                      /*root=*/0, cat, charged, &PendingOp::complete_impl<T>,
                      nullptr, 0, mine.size(), &out);
  }

  /// Nonblocking *out-of-place* all-reduce sum: every rank posts `contrib`
  /// (stable until all ranks waited) and receives the elementwise total
  /// into `out` (same length, must not alias any contribution). The
  /// out-of-place form is what allows peers to complete at different
  /// times without a trailing rendezvous. Charged like allreduce_sum.
  template <typename T>
  PendingOp iallreduce_sum(std::span<const T> contrib, std::span<T> out,
                           CommCategory cat, bool charged = true) {
    check_valid("iallreduce_sum");
    CAGNET_CHECK(contrib.size() == out.size(),
                 "iallreduce_sum: contrib/out length mismatch");
    return post_async(detail::OpKind::kAllreduce, contrib.data(),
                      contrib.size(), /*root=*/0, cat, charged,
                      &PendingOp::complete_impl<T>, out.data(), out.size(),
                      contrib.size(), nullptr);
  }

  /// Nonblocking alltoallv_into. `send` AND `send_offsets` must stay valid
  /// and unmodified until every rank has waited (peers read both at their
  /// own waits); `out` (resized at wait) must outlive the op and must not
  /// alias any rank's send buffer. Charged like alltoallv_into.
  template <typename T>
  PendingOp ialltoallv_into(std::span<const T> send,
                            std::span<const std::size_t> send_offsets,
                            Gathered<T>& out, CommCategory cat,
                            bool charged = true) {
    check_valid("ialltoallv_into");
    check_offsets(send.size(), send_offsets, "ialltoallv_into");
    return post_async(detail::OpKind::kAlltoallv, send.data(), send.size(),
                      /*root=*/0, cat, charged, &PendingOp::complete_impl<T>,
                      nullptr, 0, send.size(), &out, send_offsets.data());
  }

  /// Nonblocking alltoallv without a gathered destination, made for
  /// per-source draining: the caller pulls each peer's chunk with
  /// PendingOp::await_source — zero-copy views into the peers' send
  /// buffers, available as soon as *that* peer has posted — and the final
  /// wait() awaits + charges any sources left undrained, so total charges
  /// are bitwise the blocking alltoallv_into's regardless of how many
  /// chunks the caller consumed. `send` and `send_offsets` obey the same
  /// lifetime contract as ialltoallv_into. This is the halo pipeline's
  /// primitive (remote rows are multiplied as they land; see
  /// dist_common.cpp). At most 64 ranks (the drain ledger is a bitmask).
  template <typename T>
  PendingOp ialltoallv_post(std::span<const T> send,
                            std::span<const std::size_t> send_offsets,
                            CommCategory cat, bool charged = true) {
    check_valid("ialltoallv_post");
    check_offsets(send.size(), send_offsets, "ialltoallv_post");
    CAGNET_CHECK(size() <= 64,
                 "ialltoallv_post: per-source drain supports at most 64 "
                 "ranks; use ialltoallv_into");
    return post_async(detail::OpKind::kAlltoallv, send.data(), send.size(),
                      /*root=*/0, cat, charged,
                      &PendingOp::complete_drain_impl<T>, nullptr, 0,
                      send.size(), nullptr, send_offsets.data());
  }

  // ---- Compressed collectives (the CAGNET_COMPRESS paths). All charge
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
  /// of encoded bytes plus a local decode-sum; returns after a trailing
  /// release rendezvous, so `buf` may be reused immediately. Charges
  /// 2 lg(P) latency units and 2 E (P-1)/P bytes, E the encoded size.
  void allreduce_sum_compressed(std::span<Real> data, CompressMode mode,
                                CompressBuf& buf,
                                Profiler* profiler = nullptr);

  /// Nonblocking out-of-place lossy all-reduce sum: `out` (same length as
  /// `contrib`, or aliasing it exactly) receives the decoded total at
  /// wait(). `contrib` is consumed at post time (the encode is the
  /// staging copy); buf.send must stay unmodified until the op's release
  /// point (quiesce / quiesce_op on ticket()).
  PendingCompressedReduce iallreduce_sum_compressed(
      std::span<const Real> contrib, std::span<Real> out, CompressMode mode,
      CompressBuf& buf, Profiler* profiler = nullptr);

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

  /// Nonblocking form of reduce_scatter_sum_compressed; same contract as
  /// iallreduce_sum_compressed regarding buf.send's lifetime.
  PendingCompressedReduce ireduce_scatter_sum_compressed(
      std::span<const Real> contrib, std::span<Real> out, CompressMode mode,
      CompressBuf& buf, Profiler* profiler = nullptr);

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

  /// One barrier phase with abort propagation: unwinds with a CommAborted
  /// naming `ctx` as soon as the world dies, even while parked (the
  /// PhaseGate is poison-wakeable). Const because it only touches the
  /// shared state, never this rank's identity.
  void phase(const detail::OpContext& ctx) const;

  /// Debug-style guard: all ranks must pass matching sizes to size-uniform
  /// collectives (cheap, and catches the classic SUMMA off-by-one).
  void sync_sizes(std::size_t n, const detail::OpContext& ctx) const;

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

  void charge(const detail::OpContext& ctx, double latency_units,
              std::size_t bytes) {
    detail::seam_event(*state_, ctx, FaultSite::kCharge);
    if (auto* ck = state_->checker.get()) {
      ck->on_charge(ctx.rank, ctx.op, ctx.cat);
    }
    meter_->add(ctx.cat, latency_units,
                static_cast<double>(bytes) / sizeof(Real));
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
  /// hand back the armed PendingOp. Out-of-line (comm.cpp).
  PendingOp post_async(detail::OpKind kind, const void* publish_ptr,
                       std::size_t publish_len, int root, CommCategory cat,
                       bool charged, void (*complete)(PendingOp&), void* out,
                       std::size_t out_len, std::size_t src_len,
                       void* gathered, const void* publish_ptr2 = nullptr);

  template <typename T>
  void reduce_impl(std::span<T> data, CommCategory cat, bool is_max,
                   const char* op) {
    const detail::OpContext ctx{rank_, cat, op};
    detail::CollectiveWindow window(*state_, rank_);
    contract::BlockingScope contract_scope(state_->checker.get(),
                                           rank_, ctx.op, cat);
    const int p = size();
    detail::seam_event(*state_, ctx, FaultSite::kPost);
    state_->slot_ptr[static_cast<std::size_t>(rank_)] = data.data();
    phase(ctx);
    detail::seam_event(*state_, ctx, FaultSite::kWait);
    if (rank_ == 0) state_->scratch.resize(data.size() * sizeof(T));
    phase(ctx);
    T* scratch = reinterpret_cast<T*>(state_->scratch.data());
    // Rank r reduces its chunk across all publishers (reduce-scatter step).
    const std::size_t lo = data.size() * static_cast<std::size_t>(rank_) /
                           static_cast<std::size_t>(p);
    const std::size_t hi = data.size() *
                           (static_cast<std::size_t>(rank_) + 1) /
                           static_cast<std::size_t>(p);
    for (std::size_t i = lo; i < hi; ++i) {
      T acc = static_cast<const T*>(state_->slot_ptr[0])[i];
      for (int r = 1; r < p; ++r) {
        const T v =
            static_cast<const T*>(state_->slot_ptr[static_cast<std::size_t>(r)])[i];
        if (is_max) {
          if (v > acc) acc = v;
        } else {
          acc += v;
        }
      }
      scratch[i] = acc;
    }
    phase(ctx);
    // All-gather step: everyone copies the full reduced vector.
    if (!data.empty()) {
      std::memcpy(data.data(), scratch, data.size() * sizeof(T));
    }
    phase(ctx);
    charge(ctx, 2.0 * ceil_log2(p),
           2 * data.size() * sizeof(T) * (p - 1) / std::max(p, 1));
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
  if (op.kind_ == detail::OpKind::kBcast && op.rank_ == op.root_) {
    // Passive root completion: peers may not have posted yet (wait()
    // skipped the await), so validate nothing and charge from this
    // rank's own published length — identical to the blocking charge.
    if (p > 1) op.charge(ceil_log2(p), op.src_len_ * sizeof(T));
    return;
  }
  for (int r = 0; r < p; ++r) {
    CAGNET_CHECK(ch.kind[static_cast<std::size_t>(r)] == op.kind_ &&
                     ch.root[static_cast<std::size_t>(r)] == op.root_,
                 detail::order_mismatch(
                     {op.rank_, op.cat_, detail::op_kind_name(op.kind_)},
                     op.kind_, r, ch.kind[static_cast<std::size_t>(r)]));
  }
  switch (op.kind_) {
    case detail::OpKind::kBcast: {
      const std::size_t n = ch.len[static_cast<std::size_t>(op.root_)];
      for (int r = 0; r < p; ++r) {
        CAGNET_CHECK(ch.len[static_cast<std::size_t>(r)] == n,
                     "ibroadcast_from: ranks disagree on element count");
      }
      if (n > 0) {
        std::memcpy(op.out_, ch.ptr[static_cast<std::size_t>(op.root_)],
                    n * sizeof(T));
      }
      if (p > 1) op.charge(ceil_log2(p), n * sizeof(T));
      break;
    }
    case detail::OpKind::kReduceScatter: {
      std::size_t offset = 0;
      std::size_t total = 0;
      for (int r = 0; r < p; ++r) {
        if (r == op.rank_) offset = total;
        total += ch.len[static_cast<std::size_t>(r)];
      }
      CAGNET_CHECK(op.src_len_ == total,
                   "ireduce_scatter: contribution length != sum of outputs");
      T* out = static_cast<T*>(op.out_);
      std::fill(out, out + op.out_len_, T{});
      for (int r = 0; r < p; ++r) {
        const T* src =
            static_cast<const T*>(ch.ptr[static_cast<std::size_t>(r)]) +
            offset;
        for (std::size_t i = 0; i < op.out_len_; ++i) out[i] += src[i];
      }
      op.charge(ceil_log2(p),
                total * sizeof(T) * (p - 1) /
                    static_cast<std::size_t>(std::max(p, 1)));
      break;
    }
    case detail::OpKind::kAllgatherv: {
      auto& out = *static_cast<Gathered<T>*>(op.gathered_);
      out.offsets.resize(static_cast<std::size_t>(p) + 1);
      out.offsets[0] = 0;
      for (int r = 0; r < p; ++r) {
        out.offsets[static_cast<std::size_t>(r) + 1] =
            out.offsets[static_cast<std::size_t>(r)] +
            ch.len[static_cast<std::size_t>(r)];
      }
      out.data.resize(out.offsets.back());
      for (int r = 0; r < p; ++r) {
        const auto len = ch.len[static_cast<std::size_t>(r)];
        if (len == 0) continue;
        std::memcpy(out.data.data() +
                        out.offsets[static_cast<std::size_t>(r)],
                    ch.ptr[static_cast<std::size_t>(r)], len * sizeof(T));
      }
      op.charge(ceil_log2(p), (out.data.size() - op.src_len_) * sizeof(T));
      break;
    }
    case detail::OpKind::kAllreduce: {
      const std::size_t n = op.out_len_;
      for (int r = 0; r < p; ++r) {
        CAGNET_CHECK(ch.len[static_cast<std::size_t>(r)] == n,
                     "iallreduce_sum: ranks disagree on element count");
      }
      T* out = static_cast<T*>(op.out_);
      for (std::size_t i = 0; i < n; ++i) {
        T acc = static_cast<const T*>(ch.ptr[0])[i];
        for (int r = 1; r < p; ++r) {
          acc += static_cast<const T*>(ch.ptr[static_cast<std::size_t>(r)])[i];
        }
        out[i] = acc;
      }
      op.charge(2.0 * ceil_log2(p),
                2 * n * sizeof(T) * (p - 1) /
                    static_cast<std::size_t>(std::max(p, 1)));
      break;
    }
    case detail::OpKind::kAlltoallv: {
      auto& out = *static_cast<Gathered<T>*>(op.gathered_);
      const std::size_t self_chunk = detail::alltoallv_unpack<T>(
          p, op.rank_, ch.ptr, ch.ptr2, out);
      op.charge(p > 1 ? static_cast<double>(p - 1) : 0.0,
                (out.data.size() - self_chunk) * sizeof(T));
      break;
    }
    case detail::OpKind::kNone:
      CAGNET_CHECK(false, "completing an unarmed PendingOp");
  }
}

/// Launch a world of `p` ranks, each running `fn(comm)` on its own thread.
/// Rethrows the first rank exception after joining all threads. Peers
/// blocked anywhere — nonblocking waits, per-source drains, or blocking
/// collectives' barrier phases, on the world or any split
/// sub-communicator — are released by the abort machinery (the PhaseGate
/// and channel counters are poison-wakeable) and unwind with a typed
/// CommAborted naming their rank, op, and category. The thread pool and
/// the process-wide knobs are untouched by an abort, so the caller may
/// immediately launch a fresh world (the recovery driver in
/// src/core/recovery.hpp does). The world consults the process-global
/// fault plan (src/comm/fault.hpp) at entry; with none installed the
/// transport seam is inert. If `meters_out` is non-null it receives each
/// rank's final CostMeter.
void run_world(int p, const std::function<void(Comm&)>& fn,
               std::vector<CostMeter>* meters_out = nullptr);

}  // namespace cagnet
