#pragma once
/// \file journal.hpp
/// Always-on flight recorder: a lock-free, per-thread, fixed-size ring
/// buffer of sequence-numbered binary events. Unlike metrics (aggregates)
/// and traces (opt-in, unbounded), the journal keeps the *last N things
/// that happened* on every thread at negligible cost, so that a failure,
/// deadline expiry, or fatal signal can be explained after the fact.
///
/// Design rules (see docs/OBSERVABILITY.md):
///  - Record, never steer: recording an event must not change any result.
///  - The hot path is one relaxed flag load when disarmed, and one
///    relaxed fetch_add + a fixed-size slot write when armed. No locks,
///    no allocation after ring creation, no syscalls.
///  - Rings live in an intrusive lock-free list whose nodes are never
///    freed, so a crash handler can traverse them async-signal-safely.
///    A thread leases a ring on first use and releases it at thread
///    exit; later threads reuse released rings, so the ring count is
///    bounded by the peak concurrent thread count, not by how many
///    worker threads the process ever spawned. Events carry their own
///    thread id, so reuse never mis-attributes old events.
///
/// Correlation: every event carries (session, flow, tile) correlation
/// ids. Library layers that cannot know these ids (the LP simplex, the
/// B&B loop) inherit them from a thread-local scope installed by the
/// worker pool via JournalScope, so no solver signature changes.

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pil::obs {

/// What happened. Payload conventions (fields of JournalEvent):
///   `a` always holds a pilfill Method enum value when one applies;
///   `b` holds a secondary enum (FailureReason, FaultSite, deadline
///   scope); `c` holds a free count/id; `v` holds a measure (seconds,
///   objective). The `to_string` name is the `kind` key in pil.flight.v1.
enum class JournalEventKind : std::uint16_t {
  kNone = 0,
  kSessionBegin,      ///< c = tiles prepared, v = prep seconds
  kFlowBegin,         ///< c = instances with demand
  kFlowEnd,           ///< v = flow seconds
  kMethodBegin,       ///< a = method, c = tiles to solve
  kMethodEnd,         ///< a = method, c = tiles solved, v = solve seconds
  kTileBegin,         ///< a = method, c = required features
  kTileEnd,           ///< a = method, c = features placed, v = seconds
  kLadderStep,        ///< a = method stepped *to*, b = FailureReason
  kTileFailure,       ///< a = serving method, b = FailureReason,
                      ///< c = 1 when an unproven incumbent was kept
  kDeadlineExpired,   ///< b = 0 tile deadline, 1 flow deadline
  kFaultInjected,     ///< b = util::FaultSite, c = site-local key
  kSimplexMilestone,  ///< c = iterations so far in this solve
  kBbMilestone,       ///< c = nodes explored, v = incumbent objective
  kSessionEdit,       ///< c = edited segment id, v = edit seconds
  kServiceRequest,    ///< a = pil::service Op, b = low 32 bits of the
                      ///< client request id, c = trace id (dumped as a
                      ///< hex "trace" member; flow = request correlation)
  kServiceResponse,   ///< a = Op, b = bit0 ok, bit1 degraded, bit2 shed;
                      ///< c = trace id, v = handling seconds
  kStuckWorker,       ///< a = Op, b = low 32 bits of the client request
                      ///< id, c = trace id, v = seconds past the flow
                      ///< deadline when the watchdog fired
};

/// Stable lower_snake_case name used as the "kind" string in dumps.
const char* to_string(JournalEventKind kind);

/// One ring slot. Plain data, fixed size, trivially copyable.
struct JournalEvent {
  std::uint64_t seq = 0;    ///< global order; unique, gap-free while armed
  std::uint64_t ts_ns = 0;  ///< steady-clock ns since journal epoch
  std::uint32_t session = 0;  ///< 0 = outside any session
  std::uint32_t flow = 0;     ///< 0 = outside any flow / edit
  std::int32_t tile = -1;     ///< -1 = not tile-scoped
  JournalEventKind kind = JournalEventKind::kNone;
  std::uint16_t a = 0;
  std::uint32_t b = 0;
  std::uint32_t tid = 0;  ///< recording thread (obs::trace_thread_id)
  std::uint64_t c = 0;
  double v = 0.0;
};

/// Events kept per ring. Power of two; older events are overwritten.
inline constexpr std::size_t kJournalRingCapacity = 4096;

/// The journal is armed by default ("always-on"). Disarming drops events
/// at one relaxed load per call site; it never changes solver behaviour.
bool journal_armed() noexcept;
void set_journal_armed(bool armed) noexcept;

/// Fresh nonzero correlation id (shared counter for sessions and flows).
std::uint32_t journal_new_id() noexcept;

/// The (session, flow, tile) attribution applied to events recorded on
/// this thread. Installed with JournalScope; nested scopes restore the
/// previous value on destruction.
struct JournalCorrelation {
  std::uint32_t session = 0;
  std::uint32_t flow = 0;
  std::int32_t tile = -1;
};

JournalCorrelation journal_correlation() noexcept;

class JournalScope {
 public:
  explicit JournalScope(JournalCorrelation corr) noexcept;
  ~JournalScope();
  JournalScope(const JournalScope&) = delete;
  JournalScope& operator=(const JournalScope&) = delete;

 private:
  JournalCorrelation saved_;
};

/// Record one event attributed to the current thread scope. Safe to call
/// from any thread at any time; a no-op while disarmed.
void journal_record(JournalEventKind kind, std::uint16_t a = 0,
                    std::uint32_t b = 0, std::uint64_t c = 0,
                    double v = 0.0) noexcept;

/// Record with an explicit correlation (for events emitted outside the
/// scoped region that owns them, e.g. a flow-end after workers joined).
void journal_record_at(const JournalCorrelation& corr, JournalEventKind kind,
                       std::uint16_t a = 0, std::uint32_t b = 0,
                       std::uint64_t c = 0, double v = 0.0) noexcept;

/// Label the calling thread for dumps and Perfetto traces ("main",
/// "worker-3", ...). Names are kept per thread id in a small registry;
/// takes a (cold) mutex, so call it once at thread start, not per event.
void journal_set_thread_name(std::string_view name);

/// All events currently retained across every ring, plus how many were
/// lost to ring wraparound. Events are in no particular order (sort by
/// seq); each carries its recording thread id.
struct JournalSnapshot {
  std::uint64_t dropped = 0;
  std::vector<JournalEvent> events;
};

/// Copy every ring. Quiescent-point operation: rings owned by threads
/// that are still recording are copied best-effort (the crash path
/// accepts a torn slot over a lock); call it after joins for exact
/// results.
JournalSnapshot journal_snapshot();

/// (tid, name) for every thread that called journal_set_thread_name,
/// in tid order. Shared with the Perfetto trace writer, which emits
/// these as thread_name metadata records.
std::vector<std::pair<std::uint32_t, std::string>> journal_thread_names();

/// Async-signal-safe ring traversal: walks the immortal ring list with
/// atomic loads only -- no locks, no allocation. `head` is the number of
/// events ever recorded on that ring; the oldest retained slot is
/// slots[max(0, head - kJournalRingCapacity) % kJournalRingCapacity].
using JournalRingVisitor = void (*)(void* ctx, std::uint64_t head,
                                    const JournalEvent* slots);
void journal_visit_rings(JournalRingVisitor fn, void* ctx) noexcept;

/// Drop all buffered events and reset the drop counters (the global
/// sequence counter keeps rising so cross-reset ordering stays valid).
/// Quiescent-point operation, intended for tests.
void journal_reset() noexcept;

/// Total events recorded since process start (monotonic, survives reset).
std::uint64_t journal_sequence() noexcept;

/// Optional decoder turning enum payloads into stable names at dump
/// time. `field` is 'a' or 'b'; return nullptr when the value has no
/// name for this kind. Must return string literals (the crash-path dump
/// calls it from a signal handler). pil::pilfill registers one covering
/// Method / FailureReason / FaultSite.
using JournalNamer = const char* (*)(JournalEventKind kind, char field,
                                     std::uint64_t value);
void set_journal_namer(JournalNamer namer) noexcept;
JournalNamer journal_namer() noexcept;

}  // namespace pil::obs
