#include "src/comm/fault.hpp"

#include <charconv>
#include <chrono>
#include <limits>
#include <mutex>
#include <sstream>
#include <thread>

#include "src/util/knob.hpp"

namespace cagnet {

const char* fault_site_name(FaultSite site) {
  switch (site) {
    case FaultSite::kPost:
      return "post";
    case FaultSite::kWait:
      return "wait";
    case FaultSite::kCharge:
      return "charge";
  }
  return "?";
}

const char* fault_action_name(FaultAction action) {
  switch (action) {
    case FaultAction::kKill:
      return "kill";
    case FaultAction::kDelay:
      return "delay";
    case FaultAction::kPoison:
      return "poison";
  }
  return "?";
}

namespace {

std::string aborted_message(int rank, const char* op, CommCategory cat,
                            FaultSite site, const std::string& cause) {
  std::ostringstream os;
  os << "communicator aborted: rank " << rank << ": " << op << " ["
     << comm_category_name(cat) << ", " << fault_site_name(site)
     << "]: " << cause;
  return os.str();
}

}  // namespace

CommAborted::CommAborted(int rank, const char* op, CommCategory cat,
                         FaultSite site, const std::string& cause)
    : Error(aborted_message(rank, op, cat, site, cause)),
      rank_(rank),
      op_(op),
      cat_(cat),
      site_(site),
      cause_(cause) {}

std::uint64_t seeded_nth(std::uint64_t seed, std::uint64_t lo,
                         std::uint64_t hi) {
  CAGNET_CHECK(lo >= 1 && lo <= hi, "seeded_nth: need 1 <= lo <= hi");
  // splitmix64: a fixed, platform-independent mix so the same seed names
  // the same injection point everywhere.
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z = z ^ (z >> 31);
  return lo + z % (hi - lo + 1);
}

FaultPlan& FaultPlan::add(const FaultTrigger& trigger) {
  CAGNET_CHECK(trigger.nth >= 1, "fault trigger: nth must be 1-based");
  CAGNET_CHECK(trigger.rank >= 0, "fault trigger: rank must be non-negative");
  armed_.emplace_back(trigger);
  return *this;
}

FaultPlan& FaultPlan::kill(int rank, CommCategory cat, FaultSite site,
                           std::uint64_t nth) {
  return add({FaultAction::kKill, rank, cat, false, site, nth, 0});
}

FaultPlan& FaultPlan::kill_any(int rank, FaultSite site, std::uint64_t nth) {
  return add({FaultAction::kKill, rank, CommCategory::kDense, true, site,
              nth, 0});
}

FaultPlan& FaultPlan::delay(int rank, CommCategory cat, FaultSite site,
                            std::uint64_t nth, int millis) {
  CAGNET_CHECK(millis >= 0, "fault trigger: delay must be non-negative");
  return add({FaultAction::kDelay, rank, cat, false, site, nth, millis});
}

FaultPlan& FaultPlan::poison(int rank, CommCategory cat, FaultSite site,
                             std::uint64_t nth) {
  return add({FaultAction::kPoison, rank, cat, false, site, nth, 0});
}

namespace {

constexpr std::uint64_t kIntMax = std::numeric_limits<int>::max();
constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

[[noreturn]] void bad_spec(const std::string& spec, const std::string& why) {
  throw Error("CAGNET_FAULT: malformed spec \"" + spec + "\": " + why +
              " (grammar: action:rank:category:site:nth[:millis] entries "
              "joined by ';'; see src/comm/fault.hpp)");
}

FaultAction parse_action(const std::string& spec, const std::string& s) {
  if (s == "kill") return FaultAction::kKill;
  if (s == "delay") return FaultAction::kDelay;
  if (s == "poison") return FaultAction::kPoison;
  bad_spec(spec, "unknown action \"" + s + "\"");
}

bool parse_category(const std::string& spec, const std::string& s,
                    CommCategory& cat) {
  if (s == "any") return true;
  if (s == "dense") {
    cat = CommCategory::kDense;
  } else if (s == "sparse") {
    cat = CommCategory::kSparse;
  } else if (s == "trpose" || s == "transpose") {
    cat = CommCategory::kTranspose;
  } else if (s == "halo") {
    cat = CommCategory::kHalo;
  } else if (s == "compressed") {
    cat = CommCategory::kCompressed;
  } else if (s == "control") {
    cat = CommCategory::kControl;
  } else {
    bad_spec(spec, "unknown category \"" + s + "\"");
  }
  return false;
}

FaultSite parse_site(const std::string& spec, const std::string& s) {
  if (s == "post") return FaultSite::kPost;
  if (s == "wait") return FaultSite::kWait;
  if (s == "charge") return FaultSite::kCharge;
  bad_spec(spec, "unknown site \"" + s + "\"");
}

std::uint64_t parse_uint(const std::string& spec, const std::string& s,
                         const char* what, std::uint64_t max) {
  std::uint64_t value = 0;
  const char* last = s.data() + s.size();
  const auto [end, ec] = std::from_chars(s.data(), last, value);
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos ||
      ec != std::errc() || end != last || value > max) {
    bad_spec(spec, std::string(what) + " \"" + s +
                       "\" is not an integer from 0 to " +
                       std::to_string(max));
  }
  return value;
}

std::vector<std::string> split_on(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::string part;
  std::istringstream is(s);
  while (std::getline(is, part, sep)) parts.push_back(part);
  return parts;
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  for (const std::string& entry : split_on(spec, ';')) {
    if (entry.empty()) continue;
    const std::vector<std::string> f = split_on(entry, ':');
    if (f.size() < 5 || f.size() > 6) {
      bad_spec(spec, "entry \"" + entry + "\" needs 5 or 6 ':' fields");
    }
    FaultTrigger t;
    t.action = parse_action(spec, f[0]);
    t.rank = static_cast<int>(parse_uint(spec, f[1], "rank", kIntMax));
    t.any_category = parse_category(spec, f[2], t.category);
    t.site = parse_site(spec, f[3]);
    if (!f[4].empty() && f[4][0] == 's') {
      t.nth = seeded_nth(parse_uint(spec, f[4].substr(1), "seed", kU64Max),
                         1, 8);
    } else {
      t.nth = parse_uint(spec, f[4], "nth", kU64Max);
      if (t.nth == 0) bad_spec(spec, "nth must be 1-based");
    }
    if (f.size() == 6) {
      if (t.action != FaultAction::kDelay) {
        bad_spec(spec, "millis field is only valid for delay entries");
      }
      t.delay_millis =
          static_cast<int>(parse_uint(spec, f[5], "millis", kIntMax));
    }
    plan.add(t);
  }
  return plan;
}

void FaultPlan::on_event(int rank, CommCategory cat, FaultSite site,
                         const char* op) {
  for (Armed& armed : armed_) {
    const FaultTrigger& t = armed.trigger;
    if (t.rank != rank || t.site != site) continue;
    if (!t.any_category && t.category != cat) continue;
    // Counts are cumulative over the process, so a trigger fires exactly
    // once: after the abort a rebuilt world sails past it (the fault was
    // transient), which is what lets the recovery drills converge.
    const std::uint64_t n =
        armed.count.fetch_add(1, std::memory_order_relaxed) + 1;
    if (n != t.nth) continue;
    switch (t.action) {
      case FaultAction::kDelay:
        std::this_thread::sleep_for(
            std::chrono::milliseconds(t.delay_millis));
        break;
      case FaultAction::kKill:
        throw CommAborted(rank, op, cat, site, "injected rank kill");
      case FaultAction::kPoison:
        throw CommAborted(rank, op, cat, site, "poisoned payload detected");
    }
  }
}

namespace {

struct GlobalPlan {
  std::mutex mutex;
  bool initialized = false;
  std::shared_ptr<FaultPlan> plan;
};

GlobalPlan& global_plan() {
  static GlobalPlan g;
  return g;
}

}  // namespace

std::shared_ptr<FaultPlan> fault_plan() {
  GlobalPlan& g = global_plan();
  std::lock_guard<std::mutex> lock(g.mutex);
  if (!g.initialized) {
    // Lazy env read so a malformed CAGNET_FAULT surfaces as a catchable
    // Error at first use (the compress-knob idiom), not a startup crash.
    if (const std::optional<std::string> env = knob::env("CAGNET_FAULT")) {
      auto parsed = std::make_shared<FaultPlan>(FaultPlan::parse(*env));
      g.plan = parsed->trigger_count() > 0 ? parsed : nullptr;
    }
    g.initialized = true;
  }
  return g.plan;
}

void set_fault_plan(std::shared_ptr<FaultPlan> plan) {
  GlobalPlan& g = global_plan();
  std::lock_guard<std::mutex> lock(g.mutex);
  g.plan = std::move(plan);
  g.initialized = true;
}

}  // namespace cagnet
