#include "pil/util/fault.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "pil/util/strings.hpp"

namespace pil::util {
namespace {

// Active plan. Double-buffered into static storage so maybe_fault() never
// dereferences a plan that is being replaced mid-read: set_fault_plan
// writes the inactive slot, then swaps the pointer. (Arming while solves
// are in flight is documented as unsupported; the buffer just keeps the
// race benign.)
FaultPlan g_plans[2];
std::atomic<const FaultPlan*> g_active{nullptr};
int g_next_slot = 0;

// splitmix64: the same finalizer used by the Rng seeding path. Maps
// (seed, site, key) to a uniform 64-bit value without any shared state.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

FaultSite parse_site(std::string_view token, std::string_view spec) {
  for (int i = 0; i < kFaultSiteCount; ++i) {
    const auto site = static_cast<FaultSite>(i);
    if (token == to_string(site)) return site;
  }
  throw Error("fault spec '" + std::string(spec) + "': unknown site '" +
              std::string(token) +
              "' (expected tile_solve, lp_pivot, bb_node, session_edit, "
              "accept_drop, frame_truncate, frame_delay, conn_reset, or "
              "worker_throw)");
}

FaultAction parse_action(std::string_view token, std::string_view spec) {
  if (token == "throw") return FaultAction::kThrow;
  if (token == "delay") return FaultAction::kDelay;
  throw Error("fault spec '" + std::string(spec) + "': unknown action '" +
              std::string(token) + "' (expected throw or delay)");
}

}  // namespace

const char* to_string(FaultSite site) {
  switch (site) {
    case FaultSite::kTileSolve:
      return "tile_solve";
    case FaultSite::kLpPivot:
      return "lp_pivot";
    case FaultSite::kBbNode:
      return "bb_node";
    case FaultSite::kSessionEdit:
      return "session_edit";
    case FaultSite::kAcceptDrop:
      return "accept_drop";
    case FaultSite::kFrameTruncate:
      return "frame_truncate";
    case FaultSite::kFrameDelay:
      return "frame_delay";
    case FaultSite::kConnReset:
      return "conn_reset";
    case FaultSite::kWorkerThrow:
      return "worker_throw";
  }
  return "unknown";
}

const char* to_string(FaultAction action) {
  switch (action) {
    case FaultAction::kThrow:
      return "throw";
    case FaultAction::kDelay:
      return "delay";
  }
  return "unknown";
}

InjectedFault::InjectedFault(FaultSite site, std::uint64_t key)
    : Error([&] {
        std::ostringstream os;
        os << "injected fault at site " << to_string(site) << " (key " << key
           << ")";
        return os.str();
      }()),
      site_(site),
      key_(key) {}

FaultPlan FaultPlan::parse(std::string_view spec, std::uint64_t seed) {
  FaultPlan plan;
  plan.seed_ = seed;
  const std::string_view trimmed = trim(spec);
  if (trimmed.empty()) return plan;
  for (const std::string& clause_raw : split_on(trimmed, ',')) {
    const std::string_view clause = trim(clause_raw);
    if (clause.empty()) {
      throw Error("fault spec '" + std::string(spec) + "': empty clause");
    }
    const std::vector<std::string> parts = split_on(clause, ':');
    if (parts.size() < 3 || parts.size() > 4) {
      throw Error("fault spec '" + std::string(spec) + "': clause '" +
                  std::string(clause) +
                  "' must be site:action:probability[:delay_ms]");
    }
    const FaultSite site = parse_site(trim(parts[0]), spec);
    const FaultAction action = parse_action(trim(parts[1]), spec);
    const double prob = parse_double(trim(parts[2]), "fault probability");
    PIL_REQUIRE(prob >= 0.0 && prob <= 1.0,
                "fault probability must be in [0, 1]");
    double delay_s = 0.0;
    if (parts.size() == 4) {
      const double delay_ms = parse_double(trim(parts[3]), "fault delay_ms");
      PIL_REQUIRE(delay_ms >= 0.0, "fault delay_ms must be >= 0");
      delay_s = delay_ms / 1000.0;
    }
    PIL_REQUIRE(action == FaultAction::kDelay || parts.size() == 3,
                "delay_ms only applies to the delay action");
    plan.arm(site, action, prob, delay_s);
  }
  return plan;
}

FaultPlan& FaultPlan::arm(FaultSite site, FaultAction action,
                          double probability, double delay_seconds) {
  PIL_REQUIRE(probability >= 0.0 && probability <= 1.0,
              "fault probability must be in [0, 1]");
  PIL_REQUIRE(delay_seconds >= 0.0, "fault delay must be >= 0");
  FaultRule& rule = rules_[static_cast<int>(site)];
  rule.armed = probability > 0.0;
  rule.action = action;
  rule.probability = probability;
  rule.delay_seconds = delay_seconds;
  return *this;
}

bool FaultPlan::empty() const {
  for (const FaultRule& rule : rules_) {
    if (rule.armed) return false;
  }
  return true;
}

bool FaultPlan::fires(FaultSite site, std::uint64_t key) const {
  const FaultRule& rule = rules_[static_cast<int>(site)];
  if (!rule.armed) return false;
  if (rule.probability >= 1.0) return true;
  const std::uint64_t h = mix64(
      mix64(seed_ ^ 0xA076'1D64'78BD'642Full) ^
      mix64(static_cast<std::uint64_t>(site) * 0x2545'F491'4F6C'DD1Dull) ^
      mix64(key));
  // Top 53 bits -> uniform double in [0, 1).
  const double u =
      static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
  return u < rule.probability;
}

void set_fault_plan(const FaultPlan& plan) {
  if (plan.empty()) {
    clear_fault_plan();
    return;
  }
  g_plans[g_next_slot] = plan;
  g_active.store(&g_plans[g_next_slot], std::memory_order_release);
  g_next_slot ^= 1;
}

void clear_fault_plan() {
  g_active.store(nullptr, std::memory_order_release);
}

bool faults_armed() {
  return g_active.load(std::memory_order_relaxed) != nullptr;
}

void maybe_fault(FaultSite site, std::uint64_t key) {
  // Acquire pairs with set_fault_plan's release: the plan's contents are
  // visible before it is read.
  const FaultPlan* plan = g_active.load(std::memory_order_acquire);
  if (plan == nullptr) return;
  if (!plan->fires(site, key)) return;
  const FaultRule& rule = plan->rule(site);
  if (rule.action == FaultAction::kThrow) throw InjectedFault(site, key);
  std::this_thread::sleep_for(
      std::chrono::duration<double>(rule.delay_seconds));
}

bool arm_faults_from_env() {
  const char* spec = std::getenv("PIL_FAULT");
  if (spec == nullptr || *spec == '\0') return false;
  std::uint64_t seed = 0;
  if (const char* seed_env = std::getenv("PIL_FAULT_SEED")) {
    seed = static_cast<std::uint64_t>(
        parse_int(seed_env, "PIL_FAULT_SEED"));
  }
  set_fault_plan(FaultPlan::parse(spec, seed));
  return faults_armed();
}

}  // namespace pil::util
