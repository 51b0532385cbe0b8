#include "pil/obs/journal.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>

#include "pil/obs/trace.hpp"

namespace pil::obs {

const char* to_string(JournalEventKind kind) {
  switch (kind) {
    case JournalEventKind::kNone: return "none";
    case JournalEventKind::kSessionBegin: return "session_begin";
    case JournalEventKind::kFlowBegin: return "flow_begin";
    case JournalEventKind::kFlowEnd: return "flow_end";
    case JournalEventKind::kMethodBegin: return "method_begin";
    case JournalEventKind::kMethodEnd: return "method_end";
    case JournalEventKind::kTileBegin: return "tile_begin";
    case JournalEventKind::kTileEnd: return "tile_end";
    case JournalEventKind::kLadderStep: return "ladder_step";
    case JournalEventKind::kTileFailure: return "tile_failure";
    case JournalEventKind::kDeadlineExpired: return "deadline_expired";
    case JournalEventKind::kFaultInjected: return "fault_injected";
    case JournalEventKind::kSimplexMilestone: return "simplex_milestone";
    case JournalEventKind::kBbMilestone: return "bb_milestone";
    case JournalEventKind::kSessionEdit: return "session_edit";
    case JournalEventKind::kServiceRequest: return "service_request";
    case JournalEventKind::kServiceResponse: return "service_response";
    case JournalEventKind::kStuckWorker: return "stuck_worker";
  }
  return "unknown";
}

namespace {

static_assert((kJournalRingCapacity & (kJournalRingCapacity - 1)) == 0,
              "ring capacity must be a power of two");

/// One event ring. Nodes are pushed onto a global intrusive list at first
/// use and never freed, so the crash-dump path can walk the list without
/// synchronization; a thread leases one for its lifetime (`in_use`) and
/// later threads reuse released rings, bounding the node count by the
/// peak concurrent thread count. Only the leasing thread writes `head`
/// and slots; readers are best-effort by contract (journal_snapshot).
struct Ring {
  std::atomic<Ring*> next{nullptr};
  std::atomic<bool> in_use{false};
  std::atomic<std::uint64_t> head{0};
  JournalEvent slots[kJournalRingCapacity];
};

std::atomic<Ring*> g_rings{nullptr};
std::atomic<std::uint64_t> g_seq{0};
std::atomic<std::uint32_t> g_next_id{0};
std::atomic<bool> g_armed{true};
std::atomic<JournalNamer> g_namer{nullptr};

std::mutex g_names_mu;
std::map<std::uint32_t, std::string>& thread_name_map() {
  static std::map<std::uint32_t, std::string> names;
  return names;
}

/// Releases the thread's ring lease at thread exit.
struct RingLease {
  Ring* ring = nullptr;
  ~RingLease() {
    if (ring != nullptr) ring->in_use.store(false, std::memory_order_release);
  }
};

thread_local RingLease t_lease;
thread_local JournalCorrelation t_corr{};

Ring& ring() {
  Ring* r = t_lease.ring;
  if (r == nullptr) {
    // Prefer reusing a released ring (its retained events stay valid --
    // they carry their own tid); allocate only when none is free.
    for (Ring* cand = g_rings.load(std::memory_order_acquire);
         cand != nullptr; cand = cand->next.load(std::memory_order_acquire)) {
      bool expected = false;
      if (cand->in_use.compare_exchange_strong(expected, true,
                                               std::memory_order_acq_rel)) {
        t_lease.ring = cand;
        return *cand;
      }
    }
    r = new Ring();  // intentionally immortal; reachable via g_rings
    r->in_use.store(true, std::memory_order_relaxed);
    Ring* head = g_rings.load(std::memory_order_acquire);
    do {
      r->next.store(head, std::memory_order_relaxed);
    } while (!g_rings.compare_exchange_weak(head, r,
                                            std::memory_order_release,
                                            std::memory_order_acquire));
    t_lease.ring = r;
  }
  return *r;
}

std::uint64_t now_ns() noexcept {
  // One process-wide epoch so timestamps from different threads compare.
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

}  // namespace

bool journal_armed() noexcept {
  return g_armed.load(std::memory_order_relaxed);
}

void set_journal_armed(bool armed) noexcept {
  g_armed.store(armed, std::memory_order_relaxed);
}

std::uint32_t journal_new_id() noexcept {
  return g_next_id.fetch_add(1, std::memory_order_relaxed) + 1;
}

JournalCorrelation journal_correlation() noexcept { return t_corr; }

JournalScope::JournalScope(JournalCorrelation corr) noexcept
    : saved_(t_corr) {
  t_corr = corr;
}

JournalScope::~JournalScope() { t_corr = saved_; }

void journal_record_at(const JournalCorrelation& corr, JournalEventKind kind,
                       std::uint16_t a, std::uint32_t b, std::uint64_t c,
                       double v) noexcept {
  if (!g_armed.load(std::memory_order_relaxed)) return;
  Ring& r = ring();
  JournalEvent e;
  e.seq = g_seq.fetch_add(1, std::memory_order_relaxed) + 1;
  e.ts_ns = now_ns();
  e.session = corr.session;
  e.flow = corr.flow;
  e.tile = corr.tile;
  e.kind = kind;
  e.a = a;
  e.b = b;
  e.tid = trace_thread_id();
  e.c = c;
  e.v = v;
  const std::uint64_t h = r.head.load(std::memory_order_relaxed);
  r.slots[h & (kJournalRingCapacity - 1)] = e;
  // Release so a reader that observes the new head also observes the
  // slot contents (exact only at quiescent points; see journal_snapshot).
  r.head.store(h + 1, std::memory_order_release);
}

void journal_record(JournalEventKind kind, std::uint16_t a, std::uint32_t b,
                    std::uint64_t c, double v) noexcept {
  journal_record_at(t_corr, kind, a, b, c, v);
}

void journal_set_thread_name(std::string_view name) {
  const std::uint32_t tid = trace_thread_id();
  std::lock_guard<std::mutex> lock(g_names_mu);
  thread_name_map()[tid] = std::string(name);
}

JournalSnapshot journal_snapshot() {
  JournalSnapshot snap;
  for (Ring* r = g_rings.load(std::memory_order_acquire); r != nullptr;
       r = r->next.load(std::memory_order_acquire)) {
    const std::uint64_t head = r->head.load(std::memory_order_acquire);
    const std::uint64_t n =
        head < kJournalRingCapacity ? head : kJournalRingCapacity;
    snap.dropped += head - n;
    for (std::uint64_t i = head - n; i < head; ++i)
      snap.events.push_back(r->slots[i & (kJournalRingCapacity - 1)]);
  }
  return snap;
}

std::vector<std::pair<std::uint32_t, std::string>> journal_thread_names() {
  std::lock_guard<std::mutex> lock(g_names_mu);
  const auto& names = thread_name_map();
  return {names.begin(), names.end()};
}

void journal_visit_rings(JournalRingVisitor fn, void* ctx) noexcept {
  for (Ring* r = g_rings.load(std::memory_order_acquire); r != nullptr;
       r = r->next.load(std::memory_order_acquire))
    fn(ctx, r->head.load(std::memory_order_acquire), r->slots);
}

void journal_reset() noexcept {
  for (Ring* r = g_rings.load(std::memory_order_acquire); r != nullptr;
       r = r->next.load(std::memory_order_acquire))
    r->head.store(0, std::memory_order_release);
}

std::uint64_t journal_sequence() noexcept {
  return g_seq.load(std::memory_order_relaxed);
}

void set_journal_namer(JournalNamer namer) noexcept {
  g_namer.store(namer, std::memory_order_relaxed);
}

JournalNamer journal_namer() noexcept {
  return g_namer.load(std::memory_order_relaxed);
}

}  // namespace pil::obs
