#include "src/comm/comm.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <optional>
#include <thread>
#include <utility>

#include "src/util/parallel.hpp"
#include "src/util/profiler.hpp"

namespace cagnet {

namespace {

/// ScopedPhase over a nullable profiler: the compressed collectives time
/// their codec and wait work only when the caller supplied one.
class MaybePhase {
 public:
  MaybePhase(Profiler* profiler, Phase phase) {
    if (profiler != nullptr) scope_.emplace(*profiler, phase);
  }

 private:
  std::optional<ScopedPhase> scope_;
};

}  // namespace

double ceil_log2(int p) {
  CAGNET_CHECK(p >= 1, "ceil_log2 of non-positive value");
  double bits = 0;
  int v = 1;
  while (v < p) {
    v <<= 1;
    bits += 1;
  }
  return bits;
}

namespace detail {

std::string order_mismatch(const OpContext& ctx, int peer, const char* got) {
  return "ranks disagree on op order: rank " + std::to_string(ctx.rank) +
         " waiting on " + ctx.op + " [" + comm_category_name(ctx.cat) +
         "], rank " + std::to_string(peer) + " posted " + got;
}

std::string op_error(const OpContext& ctx, const std::string& what) {
  return std::string(ctx.op) + " [" + comm_category_name(ctx.cat) +
         "]: " + what;
}

std::string size_mismatch(const OpContext& ctx, int a, std::size_t len_a,
                          int b, std::size_t len_b) {
  return op_error(ctx, "ranks disagree on element count (rank " +
                           std::to_string(a) + " passed " +
                           std::to_string(len_a) + ", rank " +
                           std::to_string(b) + " passed " +
                           std::to_string(len_b) + ")");
}

std::string scatter_mismatch(const OpContext& ctx, std::size_t contrib,
                             std::size_t outputs) {
  return op_error(ctx, "contribution length != sum of outputs (rank " +
                           std::to_string(ctx.rank) + " passed " +
                           std::to_string(contrib) +
                           ", the ranks' outputs sum to " +
                           std::to_string(outputs) + ")");
}

void AbortHub::register_state(const std::shared_ptr<CommState>& state) {
  std::lock_guard<std::mutex> lock(mutex);
  states.push_back(state);
  // A checked state is also retained strongly: run_world audits every
  // communicator (world and splits) after the rank threads joined, by
  // which time the ranks' own refs to split states are gone.
  if (state->checker != nullptr) checked_states.push_back(state);
}

void AbortHub::poison() {
  aborted.store(true);
  std::lock_guard<std::mutex> lock(mutex);
  for (const auto& weak : states) {
    const auto state = weak.lock();
    if (!state) continue;
    // Any value change wakes parked waiters — on split sub-communicators
    // too; they observe the flag and unwind. The counters are meaningless
    // once the world is dead.
    for (const auto& channel : state->channels) {
      channel->posted.fetch_add(1, std::memory_order_release);
      channel->posted.notify_all();
      channel->finished.fetch_add(1, std::memory_order_release);
      channel->finished.notify_all();
      for (auto& by : channel->posted_by) {
        by.fetch_add(1, std::memory_order_release);
        by.notify_all();
      }
    }
  }
}

namespace {

/// Block until no region (see CollectiveWindow) is open on any
/// communicator of the world — the calling thread must have closed its
/// own. Abort path only; must not throw (it runs inside unwinds, so an
/// allocation failure here terminates like any failure mid-unwind).
/// World-wide because a rank's published buffers may be read through any
/// communicator it belongs to. Terminates because every open region exits
/// in bounded time once the world is poisoned: parked readers are woken by
/// the poison bumps and throw at their abort checks, active readers throw
/// at their next await, and each region exit under an aborted world
/// notifies this waiter.
void await_world_drain(AbortHub& hub) noexcept {
  std::vector<std::shared_ptr<CommState>> states;
  {
    std::lock_guard<std::mutex> lock(hub.mutex);
    for (const auto& weak : hub.states) {
      if (auto state = weak.lock()) states.push_back(std::move(state));
    }
  }
  for (const auto& state : states) {
    for (auto& depth : state->in_collective) {
      // The acquire load pairs with the region exit's release decrement:
      // everything the reader did inside the region happens-before this
      // rank's subsequent buffer frees.
      int cur = depth.load(std::memory_order_acquire);
      while (cur > 0) {
        depth.wait(cur, std::memory_order_acquire);
        cur = depth.load(std::memory_order_acquire);
      }
    }
  }
}

/// Regions never nest, so a rank with none open on `st` has none open
/// anywhere: nothing else will hold its unwind, so drain here.
void drain_if_outside_region(const CommState& st, int rank) noexcept {
  if (st.in_collective[static_cast<std::size_t>(rank)].load(
          std::memory_order_relaxed) == 0) {
    await_world_drain(*st.hub);
  }
}

[[noreturn]] void throw_peer_aborted(const CommState& st,
                                     const OpContext& ctx) {
  drain_if_outside_region(st, ctx.rank);
  throw CommAborted(ctx.rank, ctx.op, ctx.cat, FaultSite::kWait,
                    CommAborted::kPeerFailure);
}

}  // namespace

void abort_at_seam(const CommState& st, int rank) noexcept {
  st.hub->poison();
  drain_if_outside_region(st, rank);
}

// [[hot-path]]
void await_counter(const std::atomic<std::uint64_t>& counter,
                   std::atomic<int>& waiters, std::uint64_t target,
                   const CommState& st, const OpContext& ctx) {
  // Fast path: the double-buffered loops post a whole compute stage before
  // they wait, so the counter usually already covers the target. When it
  // does not, park on the counter's futex — on an oversubscribed host the
  // cycles a spinning waiter would burn are cycles the rank it waits on
  // needs, and a sleep loop pays its wake-up latency on every sync.
  const std::atomic<bool>& aborted = st.hub->aborted;
  std::uint64_t cur = counter.load(std::memory_order_acquire);
  int spins = 0;
  while (cur < target) {
    if (aborted.load(std::memory_order_relaxed)) {
      throw_peer_aborted(st, ctx);
    }
    if (++spins <= 4) {
      std::this_thread::yield();  // let the posting rank run first
    } else {
      waiters.fetch_add(1, std::memory_order_seq_cst);
      counter.wait(cur, std::memory_order_seq_cst);
      waiters.fetch_sub(1, std::memory_order_seq_cst);
    }
    cur = counter.load(std::memory_order_acquire);
  }
  if (aborted.load(std::memory_order_relaxed)) {
    throw_peer_aborted(st, ctx);
  }
}

CollectiveWindow::~CollectiveWindow() {
  // An exception in flight means this rank's frames are unwinding and
  // about to free the sources it published — whether the exception
  // escaped this region or an unwinding destructor opened it to complete
  // a still-pending op.
  if (std::uncaught_exceptions() > 0) {
    // Poison before closing the region: once the flag is up (seq_cst, as
    // is the region entry), no peer can pass an abort check and start a
    // new read of this rank's published buffers — any later region entry
    // is ordered after the poison in the seq_cst total order, so its
    // first await observes the flag and throws before touching a slot.
    st_.hub->poison();
  }
  auto& me = st_.in_collective[static_cast<std::size_t>(rank_)];
  me.fetch_sub(1, std::memory_order_release);
  if (st_.hub->aborted.load(std::memory_order_seq_cst)) {
    me.notify_all();  // a dying peer may be draining our region
    // Close-own-then-wait: this rank's region is already closed, so two
    // ranks dying at once drain each other without a cycle. Only after
    // every straggling reader left may the unwind free this rank's
    // published sources.
    await_world_drain(*st_.hub);
  }
}

}  // namespace detail

void Comm::barrier() {
  check_valid("barrier");
  rendezvous("barrier");
}

void Comm::rendezvous(const char* op) const {
  post_async(detail::OpKind::kBarrier, op, nullptr, 0, /*root=*/0,
             CommCategory::kControl, /*charged=*/false,
             &PendingOp::complete_impl<unsigned char>, nullptr, 0, 0,
             nullptr)
      .wait();
}

void Comm::finish_blocking(PendingOp op) const {
  const std::uint64_t ticket = op.ticket_;
  const detail::OpContext ctx = op.context();
  op.wait();
  await_finished(ticket, ctx);
}

void Comm::quiesce() const {
  check_valid("quiesce");
  const detail::OpContext ctx{rank_, CommCategory::kControl, "quiesce"};
  auto& st = *state_;
  // All ranks post in the same program order, so this rank's ticket count
  // is the communicator-wide count of posted ops. Channel C carried the
  // tickets congruent to C mod K; each must be finished by every rank.
  const std::uint64_t n = st.next_ticket[static_cast<std::size_t>(rank_)];
  for (std::uint64_t c = 0; c < detail::kAsyncChannels; ++c) {
    if (n <= c) break;
    const std::uint64_t ops_on_channel =
        (n - 1 - c) / static_cast<std::uint64_t>(detail::kAsyncChannels) + 1;
    detail::await_counter(
        st.channels[c]->finished, st.channels[c]->waiters,
        static_cast<std::uint64_t>(st.size) * ops_on_channel, st, ctx);
  }
}

void Comm::await_finished(std::uint64_t ticket,
                          const detail::OpContext& ctx) const {
  auto& st = *state_;
  if (auto* ck = st.checker.get()) ck->on_release(rank_, ticket, ctx.op);
  // Generations on a channel complete strictly in order (the recycle gate
  // serializes them), so finishing this op's generation implies the op —
  // and nothing on any other channel — is globally finished.
  auto& ch = *st.channels[ticket % static_cast<std::uint64_t>(
                                       detail::kAsyncChannels)];
  const std::uint64_t gen =
      ticket / static_cast<std::uint64_t>(detail::kAsyncChannels);
  detail::await_counter(ch.finished, ch.waiters,
                        static_cast<std::uint64_t>(st.size) * (gen + 1), st,
                        ctx);
}

PendingOp Comm::post_async(detail::OpKind kind, const char* op,
                           const void* publish_ptr, std::size_t publish_len,
                           int root, CommCategory cat, bool charged,
                           void (*complete)(PendingOp&), void* out,
                           std::size_t out_len, std::size_t src_len,
                           void* gathered, const void* publish_ptr2) const {
  auto& st = *state_;
  const auto rank = static_cast<std::size_t>(rank_);
  const detail::OpContext ctx{rank_, cat, op};
  const std::uint64_t ticket = st.next_ticket[rank];
  const std::uint64_t c =
      ticket % static_cast<std::uint64_t>(detail::kAsyncChannels);
  const std::uint32_t bit = std::uint32_t{1} << c;
  if ((st.unwaited[rank] & bit) != 0) {
    // The recycle gate below waits for every rank to finish the channel's
    // previous op — this rank's own, which it cannot wait while blocked
    // here. Nothing is claimed, so the communicator stays usable.
    throw ContractViolation(
        rank_, op, cat,
        "posting op ticket " + std::to_string(ticket) +
            " would wait forever: its channel " + std::to_string(c) +
            " still holds this rank's own unwaited op (ticket " +
            std::to_string(ticket - detail::kAsyncChannels) +
            "); wait() that op first (at most " +
            std::to_string(detail::kAsyncChannels) +
            " ops may be in flight per rank per communicator)");
  }
  detail::seam_event(st, ctx, FaultSite::kPost);
  st.next_ticket[rank]++;
  auto& ch = *st.channels[c];
  const std::uint64_t gen =
      ticket / static_cast<std::uint64_t>(detail::kAsyncChannels);
  // Recycle gate: every rank must have finished the channel's previous
  // generation before its slots may be overwritten.
  detail::await_counter(ch.finished, ch.waiters,
                        static_cast<std::uint64_t>(st.size) * gen, st, ctx);
  if (auto* ck = st.checker.get()) {
    // Re-assert the gate with the value this rank just observed, and audit
    // ticket issuance, before any slot is overwritten.
    ck->on_post(rank_, ticket, op, cat,
                ch.finished.load(std::memory_order_acquire),
                static_cast<std::uint64_t>(st.size) * gen);
  }
  ch.ptr[rank] = publish_ptr;
  ch.ptr2[rank] = publish_ptr2;
  ch.len[rank] = publish_len;
  ch.kind[rank] = kind;
  ch.op[rank] = op;
  ch.root[rank] = root;
  // Per-rank counter first: a per-source drainer that sees it also sees
  // the slot writes above (release/acquire through the counter).
  detail::bump_counter(ch.posted_by[rank], ch.waiters);
  detail::bump_counter(ch.posted, ch.waiters);
  st.unwaited[rank] |= bit;

  PendingOp handle;
  handle.state_ = state_;
  handle.rank_ = rank_;
  handle.meter_ = meter_;
  handle.ticket_ = ticket;
  handle.cat_ = cat;
  handle.root_ = root;
  handle.charged_ = charged;
  handle.kind_ = kind;
  handle.op_ = op;
  handle.out_ = out;
  handle.out_len_ = out_len;
  handle.src_len_ = src_len;
  handle.gathered_ = gathered;
  handle.complete_ = complete;
  return handle;
}

void PendingOp::wait() {
  if (!pending()) {
    // The no-op is the documented idempotent behaviour; under the
    // contract checker a repeated wait on a completed handle is a
    // diagnosed misuse (it usually means two owners think they complete
    // the same op).
    if (waited_) {
      contract::diagnose_double_wait(rank_, op_, cat_);
    }
    return;
  }
  // A handle can legally outlive its Comm (the teardown audit diagnoses
  // it, but diagnosing requires surviving it): hold the state so the
  // window and channel stay valid past the state_.reset() below even when
  // this handle carried the last reference.
  const std::shared_ptr<detail::CommState> keep = state_;
  auto& st = *keep;
  detail::CollectiveWindow window(st, rank_);
  const std::uint64_t c =
      ticket_ % static_cast<std::uint64_t>(detail::kAsyncChannels);
  auto& ch = *st.channels[c];
  const std::uint64_t gen =
      ticket_ / static_cast<std::uint64_t>(detail::kAsyncChannels);
  // A broadcast root moves no data and reads no peer slot at its own
  // wait: it completes passively (charge + bookkeeping) without awaiting
  // peers' posts, so stage roots never stall on stragglers. Its source —
  // like every op source — stays readable until the communicator's
  // release point (quiesce, or a later blocking collective's hold).
  // Per-source-drain alltoallvs likewise skip the aggregate await: their
  // completer awaits exactly the sources still undrained, so a rank that
  // drained or skipped every source never stalls on peers it needs
  // nothing from.
  const bool passive_root =
      kind_ == detail::OpKind::kBcast && rank_ == root_;
  const bool per_source_drain =
      kind_ == detail::OpKind::kAlltoallv && gathered_ == nullptr;
  const detail::OpContext ctx = context();
  detail::seam_event(st, ctx, FaultSite::kWait);
  if (!passive_root && !per_source_drain) {
    detail::await_counter(ch.posted, ch.waiters,
                          static_cast<std::uint64_t>(st.size) * (gen + 1), st,
                          ctx);
  }
  complete_(*this);
  detail::bump_counter(ch.finished, ch.waiters);
  st.unwaited[static_cast<std::size_t>(rank_)] &= ~(std::uint32_t{1} << c);
  if (auto* ck = st.checker.get()) ck->on_complete(rank_);
  waited_ = true;
  state_.reset();
  complete_ = nullptr;
}

namespace {

/// Transient rendezvous used by Comm::split.
struct SplitContext {
  std::mutex mutex;
  std::map<int, std::vector<std::pair<int, int>>> groups;  // color -> (key, rank)
  std::map<int, std::shared_ptr<detail::CommState>> states;
};

}  // namespace

Comm Comm::split(int color, int key) const {
  CAGNET_CHECK(valid(), "split on an invalid communicator");
  auto& st = *state_;

  if (rank_ == 0) st.split_ctx = std::make_shared<SplitContext>();
  rendezvous("split");
  auto* ctx = static_cast<SplitContext*>(st.split_ctx.get());
  {
    std::lock_guard<std::mutex> lock(ctx->mutex);
    ctx->groups[color].push_back({key, rank_});
  }
  rendezvous("split");

  // Membership is frozen now; reads below need no lock.
  std::vector<std::pair<int, int>> group = ctx->groups.at(color);
  std::sort(group.begin(), group.end());
  const auto it = std::find(group.begin(), group.end(),
                            std::make_pair(key, rank_));
  const int new_rank = static_cast<int>(it - group.begin());

  if (new_rank == 0) {
    // The sub-communicator registers with the world's abort hub so
    // failures anywhere wake its parked waiters too.
    auto new_state = std::make_shared<detail::CommState>(
        static_cast<int>(group.size()), st.hub);
    st.hub->register_state(new_state);
    std::lock_guard<std::mutex> lock(ctx->mutex);
    ctx->states[color] = new_state;
  }
  rendezvous("split");

  std::shared_ptr<detail::CommState> new_state;
  {
    std::lock_guard<std::mutex> lock(ctx->mutex);
    new_state = ctx->states.at(color);
  }
  rendezvous("split");
  if (rank_ == 0) st.split_ctx.reset();
  return Comm(std::move(new_state), new_rank, meter_);
}

void Comm::reduce_compressed(std::span<const Real> contrib,
                             std::span<Real> out, CompressMode mode,
                             CompressBuf& buf, Profiler* profiler,
                             bool scatter, const char* op) {
  check_valid(op);
  const detail::OpContext ctx{rank_, CommCategory::kCompressed, op};
  CAGNET_CHECK(mode != CompressMode::kOff,
               detail::op_error(ctx, "mode must be a lossy codec (use the "
                                     "uncompressed form for exact traffic)"));
  if (!scatter) {
    CAGNET_CHECK(contrib.size() == out.size(),
                 detail::op_error(ctx, "contrib/out length mismatch"));
  }
  const std::size_t n = contrib.size();
  rebind_compress_buf(buf, n);
  const int p = size();
  if (p == 1) {
    CAGNET_CHECK(out.size() == n, detail::scatter_mismatch(ctx, n, out.size()));
    if (!out.empty() && out.data() != contrib.data()) {
      std::memcpy(out.data(), contrib.data(), n * sizeof(Real));
    }
    return;  // exact self-reduction; nothing charged
  }
  // Reduce-scatter wire format per rank: [u64 out-length][encoded full
  // contribution]. The headers give every rank the chunk boundaries (the
  // out sizes may differ per rank); each rank decodes only its own slice
  // of every contribution.
  const std::size_t header = scatter ? sizeof(std::uint64_t) : 0;
  const std::size_t enc = encoded_size_bytes(mode, n);
  const std::size_t chunk_bytes = header + enc;
  {
    MaybePhase scope(profiler, Phase::kCompressPack);
    buf.send.resize(chunk_bytes);
    if (scatter) {
      const std::uint64_t out_len = out.size();
      std::memcpy(buf.send.data(), &out_len, sizeof(out_len));
    }
    compress_encode(mode, contrib, buf.send.data() + header,
                    buf.error_feedback ? &buf.residual : nullptr);
  }
  PendingOp gather = post_allgatherv(std::span<const std::uint8_t>(buf.send),
                                     buf.recv, CommCategory::kCompressed,
                                     /*charged=*/false, op);
  const std::uint64_t ticket = gather.ticket_;
  // Charged while the byte gather is still open, so the contract checker
  // attributes the charge to it. The bytes follow from p and the chunk
  // size alone: every gathered chunk is checked below to be exactly that.
  if (auto* ck = state_->checker.get()) {
    ck->on_charge(rank_, op, CommCategory::kCompressed);
  }
  if (scatter) {
    meter_->add(CommCategory::kCompressed, ceil_log2(p),
                static_cast<double>(static_cast<std::size_t>(p) *
                                    chunk_bytes) *
                    (p - 1) / p / sizeof(Real));
  } else {
    meter_->add(CommCategory::kCompressed, 2.0 * ceil_log2(p),
                2.0 * static_cast<double>(enc) * (p - 1) / p / sizeof(Real));
  }
  {
    MaybePhase scope(profiler, Phase::kDenseComm);
    gather.wait();
  }
  {
    // Peers may still be reading buf.send: a mismatch thrown below must
    // drain their reads before the unwind frees it.
    detail::CollectiveWindow window(*state_, rank_);
    MaybePhase scope(profiler, Phase::kCompressPack);
    for (int r = 0; r < p; ++r) {
      const std::size_t got = buf.recv.chunk(r).size();
      CAGNET_CHECK(got == chunk_bytes,
                   detail::op_error(
                       ctx, "ranks disagree on element count (rank " +
                                std::to_string(rank_) + " encoded " +
                                std::to_string(n) + " elements into " +
                                std::to_string(chunk_bytes) + " bytes, rank " +
                                std::to_string(r) + " sent " +
                                std::to_string(got) + ")"));
    }
    if (!scatter) {
      // Decode-sum in ascending rank order (matching the exact
      // all-reduce's per-element accumulation order), identically on
      // every rank.
      buf.scratch.resize(n);
      for (int r = 0; r < p; ++r) {
        const std::uint8_t* bytes = buf.recv.chunk(r).data();
        if (r == 0) {
          compress_decode(mode, bytes, n, out.data());
        } else {
          compress_decode(mode, bytes, n, buf.scratch.data());
          for (std::size_t i = 0; i < n; ++i) out[i] += buf.scratch[i];
        }
      }
    } else {
      std::size_t my_lo = 0;
      std::size_t total_out = 0;
      for (int r = 0; r < p; ++r) {
        std::uint64_t out_len = 0;
        std::memcpy(&out_len, buf.recv.chunk(r).data(), sizeof(out_len));
        if (r == rank_) my_lo = total_out;
        total_out += static_cast<std::size_t>(out_len);
      }
      CAGNET_CHECK(total_out == n, detail::scatter_mismatch(ctx, n, total_out));
      // Zero, then accumulate ranks ascending — the exact form's order.
      std::fill(out.begin(), out.end(), Real{0});
      buf.scratch.resize(out.size());
      for (int r = 0; r < p; ++r) {
        compress_decode_range(mode,
                              buf.recv.chunk(r).data() + sizeof(std::uint64_t),
                              n, my_lo, my_lo + out.size(),
                              buf.scratch.data());
        for (std::size_t i = 0; i < out.size(); ++i) out[i] += buf.scratch[i];
      }
    }
  }
  // Release hold: the blocking contract lets the caller rewrite buf.send
  // (e.g. the next layer's encode) immediately, so wait until every peer
  // has copied this one.
  MaybePhase scope(profiler, Phase::kDenseComm);
  await_finished(ticket, ctx);
}

void Comm::allreduce_sum_compressed(std::span<Real> data, CompressMode mode,
                                    CompressBuf& buf, Profiler* profiler) {
  reduce_compressed(std::span<const Real>(data.data(), data.size()), data,
                    mode, buf, profiler, /*scatter=*/false,
                    "allreduce_sum_compressed");
}

void Comm::reduce_scatter_sum_compressed(std::span<const Real> contrib,
                                         std::span<Real> out,
                                         CompressMode mode, CompressBuf& buf,
                                         Profiler* profiler) {
  reduce_compressed(contrib, out, mode, buf, profiler, /*scatter=*/true,
                    "reduce_scatter_sum_compressed");
}

namespace {

/// True for the peer-failure form of CommAborted: a casualty of
/// someone else's failure, not a root cause. Which rank wins the race to
/// run_world's error slot is timing-dependent (under TSan's scheduling a
/// casualty regularly beats the rank that actually died), so run_world
/// keeps the first *root-cause* error it sees and only reports a casualty
/// when nothing better ever arrives.
bool is_secondary_abort(const std::exception_ptr& error) noexcept {
  try {
    std::rethrow_exception(error);
  } catch (const CommAborted& e) {
    return e.peer_failure();
  } catch (...) {
    return false;
  }
}

}  // namespace

void run_world(int p, const std::function<void(Comm&)>& fn,
               std::vector<CostMeter>* meters_out) {
  CAGNET_CHECK(p >= 1, "world size must be at least 1");
  auto hub = std::make_shared<detail::AbortHub>();
  // Capture the process-global fault schedule for this world's lifetime
  // (null keeps the transport seam inert). The lazy CAGNET_FAULT parse
  // happens here, on the launching thread, so a malformed spec is a
  // catchable Error at the run_world call site.
  hub->fault = fault_plan();
  auto state = std::make_shared<detail::CommState>(p, hub);
  hub->register_state(state);
  std::vector<CostMeter> meters(static_cast<std::size_t>(p));
  // P rank threads run concurrently; split the kernel thread budget among
  // them so nested SpMM parallelism cannot oversubscribe the host.
  ScopedThreadBudgetShare budget_share(p);

  std::exception_ptr first_error = nullptr;
  bool first_error_secondary = false;
  std::mutex error_mutex;

  // The rank threads ARE the simulated machine, not pool work — the one
  // sanctioned raw-thread site. lint:allow(naked-thread)
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    threads.emplace_back([&, r] {
      Comm comm(state, r, &meters[static_cast<std::size_t>(r)]);
      try {
        fn(comm);
      } catch (...) {
        // Classify the exception on its OWN thread, before publishing:
        // each rank owns its in-flight exception object, so reading it
        // here is race-free, whereas rethrowing the stored first_error
        // would read another rank's exception object while that rank's
        // unwind may be freeing it. The flag travels with the pointer.
        const bool mine_secondary =
            is_secondary_abort(std::current_exception());
        {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error || (first_error_secondary && !mine_secondary)) {
            first_error = std::current_exception();
            first_error_secondary = mine_secondary;
          }
        }
        // Poison every registered communicator state: the abort flag goes
        // up, then every channel counter is bumped and notified, so peers
        // parked anywhere — waits, per-source drains, or release holds, on
        // the world or any split sub-communicator — wake, observe the
        // flag, and unwind with a typed CommAborted.
        hub->poison();
      }
    });
  }
  for (auto& t : threads) t.join();
  // Each checked state holds the hub strongly, so the hub's strong refs
  // to them form a cycle: move them out (on the abort path too) and the
  // whole communicator tree dies with this frame.
  std::vector<std::shared_ptr<detail::CommState>> checked;
  {
    std::lock_guard<std::mutex> lock(hub->mutex);
    checked.swap(hub->checked_states);
  }
  if (first_error) std::rethrow_exception(first_error);
  // Teardown audit (contract checker armed, non-abort path only — a
  // poisoned world tears down mid-op by design): every communicator this
  // world created, splits included, must have retired all its posted ops.
  for (const auto& st : checked) st->checker->verify_teardown();
  if (meters_out) *meters_out = std::move(meters);
}

}  // namespace cagnet
