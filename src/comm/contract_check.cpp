#include "src/comm/contract_check.hpp"

#include <sstream>

#include "src/util/knob.hpp"

namespace cagnet {

namespace {

std::string violation_message(int rank, const char* op, CommCategory cat,
                              const std::string& detail) {
  std::ostringstream os;
  os << "contract violation: rank " << rank << ": " << op << " ["
     << comm_category_name(cat) << "]: " << detail;
  return os.str();
}

}  // namespace

ContractViolation::ContractViolation(int rank, const char* op,
                                     CommCategory cat,
                                     const std::string& detail)
    : Error(violation_message(rank, op, cat, detail)),
      rank_(rank),
      op_(op),
      cat_(cat) {}

namespace contract {

namespace {

/// In-process override installed by set_enabled_for_testing: -1 defers to
/// the env/build-type default, 0/1 force.
std::atomic<int> g_forced{-1};

bool env_default() {
  if (const std::optional<std::string> v = knob::env("CAGNET_CHECK")) {
    return knob::parse_flag("CAGNET_CHECK", *v);
  }
#ifdef NDEBUG
  return false;  // Release: opt in with CAGNET_CHECK=1
#else
  return true;   // Debug: on unless CAGNET_CHECK=0
#endif
}

}  // namespace

bool enabled() {
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced >= 0) return forced != 0;
  static const bool from_env = env_default();
  return from_env;
}

void set_enabled_for_testing(int value) {
  g_forced.store(value < 0 ? -1 : (value != 0 ? 1 : 0),
                 std::memory_order_relaxed);
}

void diagnose_double_wait(int rank, const char* op, CommCategory cat) {
  if (!enabled()) return;
  throw ContractViolation(
      rank, op, cat,
      "wait() called on an already-completed op (the handle was waited "
      "twice; drop the second wait or gate it on pending())");
}

Checker::Checker(int size)
    : size_(size), ranks_(new PerRank[static_cast<std::size_t>(size)]) {}

Checker::PerRank& Checker::at(int rank) {
  return ranks_[static_cast<std::size_t>(rank)];
}

const Checker::PerRank& Checker::at(int rank) const {
  return ranks_[static_cast<std::size_t>(rank)];
}

void Checker::on_post(int rank, std::uint64_t ticket, const char* op,
                      CommCategory cat, std::uint64_t finished_count,
                      std::uint64_t recycle_target) {
  PerRank& pr = at(rank);
  pr.last_op.store(op, std::memory_order_relaxed);
  pr.last_cat.store(static_cast<int>(cat), std::memory_order_relaxed);
  const std::uint64_t expected =
      pr.next_ticket.fetch_add(1, std::memory_order_relaxed);
  if (ticket != expected) {
    throw ContractViolation(
        rank, op, cat,
        "op ticket " + std::to_string(ticket) +
            " issued out of monotone posting order (expected " +
            std::to_string(expected) +
            "); a transport backend must hand out tickets in posting "
            "order or releases lose their meaning");
  }
  if (finished_count < recycle_target) {
    throw ContractViolation(
        rank, op, cat,
        "channel slot republished before every rank finished the "
        "previous generation (finished " + std::to_string(finished_count) +
            " < required " + std::to_string(recycle_target) +
            "); a parked waiter could still be reading the slot");
  }
  pr.posted.fetch_add(1, std::memory_order_relaxed);
}

void Checker::on_complete(int rank) {
  at(rank).completed.fetch_add(1, std::memory_order_relaxed);
}

void Checker::on_charge(int rank, const char* op, CommCategory cat) {
  const PerRank& pr = at(rank);
  if (pr.posted.load(std::memory_order_relaxed) >
      pr.completed.load(std::memory_order_relaxed)) {
    return;
  }
  throw ContractViolation(
      rank, op, cat,
      "meter charge issued with no open op (no posted-but-uncompleted op "
      "to attribute it to)");
}

void Checker::on_release(int rank, std::uint64_t ticket, const char* op) {
  PerRank& pr = at(rank);
  const std::uint64_t issued =
      pr.next_ticket.load(std::memory_order_relaxed);
  if (ticket >= issued) {
    throw ContractViolation(
        rank, op, CommCategory::kControl,
        "release ticket " + std::to_string(ticket) +
            " names an op that was never posted on this communicator (" +
            std::to_string(issued) + " posted so far)");
  }
}

void Checker::verify_teardown() const {
  for (int r = 0; r < size_; ++r) {
    const PerRank& pr = at(r);
    const char* op = pr.last_op.load(std::memory_order_relaxed);
    if (op == nullptr) op = "comm";
    const auto cat =
        static_cast<CommCategory>(pr.last_cat.load(std::memory_order_relaxed));
    const std::uint64_t posted = pr.posted.load(std::memory_order_relaxed);
    const std::uint64_t completed =
        pr.completed.load(std::memory_order_relaxed);
    if (posted != completed) {
      throw ContractViolation(
          r, op, cat,
          "communicator torn down with " +
              std::to_string(posted - completed) +
              " posted-but-unwaited op(s); wait() or quiesce "
              "them before the world ends");
    }
  }
}

}  // namespace contract
}  // namespace cagnet
