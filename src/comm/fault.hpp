// Fault-injecting transport backend and the typed abort it surfaces.
//
// The simulated runtime's collectives all funnel through three narrow seam
// hooks — publish (a payload becomes visible), await (a rank blocks on
// peers), charge (the meter records the op) — declared in comm.hpp and
// consulted here. A FaultPlan armed behind that seam deterministically
// injects failures at chosen points of the communication schedule:
//
//   kill    throw CommAborted on the target rank at the N-th matching
//           event, modeling a rank crash. run_world's abort machinery
//           poisons the world; every peer unwinds with its own typed
//           CommAborted instead of hanging.
//   delay   sleep a few milliseconds before the N-th matching event,
//           stressing the overlap drains (results and meters must be
//           bitwise unchanged — pinned by tests/fault_test.cpp).
//   poison  throw CommAborted describing a corrupted payload at the N-th
//           matching event, modeling a receiver-side integrity check
//           (CRC) failure. Semantically a kill with a different diagnosis:
//           the world aborts before the poisoned data can reach a
//           checkpoint.
//
// Triggers count matching events per (rank, category, site) and fire when
// the count reaches N — exactly once per process, so a recovery driver
// that rebuilds the world after the abort resumes cleanly (the fault was
// transient). The N may also be derived deterministically from a seed
// (seeded_nth), giving chaos sweeps a reproducible source of varied
// injection points.
//
// With no plan installed the seam is a null-pointer test: no lock, no
// allocation, no charge perturbation — meters and results stay bitwise
// identical to a build without the seam.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/comm/costmeter.hpp"
#include "src/util/error.hpp"

namespace cagnet {

/// Where in an operation's lifecycle a seam event fires.
enum class FaultSite : std::uint8_t {
  kPost = 0,  ///< a payload publication (a collective's post)
  kWait,      ///< a completion await (wait, per-source drain)
  kCharge,    ///< a meter charge (the op's accounting point)
};

const char* fault_site_name(FaultSite site);

/// What an armed trigger does when it fires.
enum class FaultAction : std::uint8_t {
  kKill = 0,  ///< rank crash: throw CommAborted at the event
  kDelay,     ///< sleep before the event (timing stress, results unchanged)
  kPoison,    ///< corrupted payload detected: throw CommAborted
};

const char* fault_action_name(FaultAction action);

/// Typed abort surfaced by every collective, PendingOp drain, halo
/// pipeline stage, and compressed op when the world dies: names the
/// observing rank, the op kind it was executing, the traffic category,
/// and the lifecycle site, plus a cause ("injected rank kill", "poisoned
/// payload detected", "a peer rank failed"). Derives from Error so
/// existing catch sites and EXPECT_THROW(..., Error) contracts hold.
class CommAborted : public Error {
 public:
  CommAborted(int rank, const char* op, CommCategory cat, FaultSite site,
              const std::string& cause);

  /// The rank that observed (or caused) the abort.
  int rank() const { return rank_; }
  /// Op the rank was executing ("broadcast", "ialltoallv_into", ...).
  const std::string& op() const { return op_; }
  /// Traffic category of that op.
  CommCategory category() const { return cat_; }
  /// Lifecycle site ("post", "wait", "charge").
  FaultSite site() const { return site_; }
  /// Why: injected kill / poisoned payload / peer failure.
  const std::string& cause() const { return cause_; }
  /// True for the casualty form: this rank unwound because another rank
  /// failed, not because its own op did.
  bool peer_failure() const { return cause_ == kPeerFailure; }

  /// The cause of every casualty abort.
  static constexpr const char* kPeerFailure = "a peer rank failed";

 private:
  int rank_;
  std::string op_;
  CommCategory cat_;
  FaultSite site_;
  std::string cause_;
};

/// One armed injection point. `nth` counts matching events on `rank`
/// (1-based); `any_category` widens the match to every category. `rank`
/// is the rank *within the communicator performing the op* — the world
/// rank for world collectives, the group-local rank on splits (a split's
/// membership is data-dependent, so triggers name positions in a
/// schedule, not threads).
struct FaultTrigger {
  FaultAction action = FaultAction::kKill;
  int rank = 0;
  CommCategory category = CommCategory::kDense;
  bool any_category = false;
  FaultSite site = FaultSite::kPost;
  std::uint64_t nth = 1;
  int delay_millis = 2;  ///< kDelay only
};

/// Deterministic pick in [lo, hi] from a seed (splitmix64): the "seeded
/// schedule" form of a trigger's N. Same seed, same pick, any platform.
std::uint64_t seeded_nth(std::uint64_t seed, std::uint64_t lo,
                         std::uint64_t hi);

/// A deterministic fault schedule: an ordered set of triggers with
/// process-lifetime event counters. Thread-safe for concurrent on_event
/// calls (each trigger's counter is atomic; the trigger list is frozen
/// once installed).
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Builder forms (chainable). `nth` is 1-based.
  FaultPlan& kill(int rank, CommCategory cat, FaultSite site,
                  std::uint64_t nth);
  FaultPlan& kill_any(int rank, FaultSite site, std::uint64_t nth);
  FaultPlan& delay(int rank, CommCategory cat, FaultSite site,
                   std::uint64_t nth, int millis = 2);
  FaultPlan& poison(int rank, CommCategory cat, FaultSite site,
                    std::uint64_t nth);
  FaultPlan& add(const FaultTrigger& trigger);

  /// Parse a CAGNET_FAULT spec: `action:rank:category:site:nth[:millis]`
  /// entries separated by ';'. action in {kill, delay, poison}; category
  /// in {dense, sparse, trpose, transpose, halo, compressed, control,
  /// any}; site in {post, wait, charge}; nth a positive integer or
  /// `s<seed>` for a seeded pick in [1, 8]. Throws Error on a malformed
  /// spec (catchable — the lazy env parse surfaces it at first use).
  static FaultPlan parse(const std::string& spec);

  std::size_t trigger_count() const { return armed_.size(); }

  /// Seam callback: count this event against every matching trigger and
  /// act when one reaches its N. Throws CommAborted for kill/poison.
  void on_event(int rank, CommCategory cat, FaultSite site, const char* op);

 private:
  struct Armed {
    FaultTrigger trigger;
    std::atomic<std::uint64_t> count{0};

    Armed() = default;
    explicit Armed(const FaultTrigger& t) : trigger(t) {}
    Armed(const Armed& other)
        : trigger(other.trigger), count(other.count.load()) {}
  };

  std::vector<Armed> armed_;
};

/// Process-global fault plan (null = faults disabled; the fast path of
/// the transport seam). The CAGNET_FAULT env var, parsed once at first
/// use, can arm it; a malformed spec throws a catchable Error at that
/// first use. The plan is process-wide by design (not per-world state):
/// install or clear plans only between run_world invocations.
std::shared_ptr<FaultPlan> fault_plan();
void set_fault_plan(std::shared_ptr<FaultPlan> plan);
inline void clear_fault_plan() { set_fault_plan(nullptr); }

}  // namespace cagnet
