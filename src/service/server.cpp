#include "pil/service/server.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "pil/layout/pld_io.hpp"
#include "pil/layout/synthetic.hpp"
#include "pil/obs/journal.hpp"
#include "pil/obs/json.hpp"
#include "pil/obs/metrics.hpp"
#include "pil/obs/slo.hpp"
#include "pil/obs/trace.hpp"
#include "pil/pilfill/config_codec.hpp"
#include "pil/pilfill/session.hpp"
#include "pil/service/access_log.hpp"
#include "pil/service/protocol.hpp"
#include "pil/service/stats_http.hpp"
#include "pil/util/deadline.hpp"
#include "pil/util/error.hpp"
#include "pil/util/fault.hpp"
#include "pil/util/strings.hpp"
#include "socket.hpp"

namespace pil::service {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Downgrade target for ILP-class methods under load: Greedy keeps the
/// column-cost model (it reads the same cost table as ILP-II) at a tiny
/// fraction of the work, which is exactly the ladder's first step.
bool is_downgradable(pilfill::Method m) {
  return m == pilfill::Method::kIlp1 || m == pilfill::Method::kIlp2 ||
         m == pilfill::Method::kConvex;
}

double ms_since(Clock::time_point t0) { return seconds_since(t0) * 1e3; }

/// splitmix64 finalizer: turns a (seed + counter) sequence into
/// well-spread nonzero trace ids.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

struct Server::Impl {
  explicit Impl(const ServerConfig& cfg) : config(cfg) {}

  // ------------------------------------------------------------ sessions --
  struct SessionEntry {
    std::mutex mu;  ///< serializes edits/solves on the one FillSession
    std::unique_ptr<pilfill::FillSession> session;
    std::string id;
    std::string key;
    std::uint64_t layout_hash = 0;
    Clock::time_point last_used = Clock::now();
    /// Edits applied so far; echoed as edit_seq so clients can audit
    /// exactly-once ordering. Guarded by mu.
    long long edit_seq = 0;
    /// Idempotency window: recent request_id -> response, LRU-bounded at
    /// config.dedup_window. A retried apply_edit whose first attempt
    /// executed (response lost to a fault) is answered from here instead
    /// of re-applied. Guarded by mu -- a retry racing its original
    /// attempt serializes on the session lock and then hits the window.
    std::map<std::uint64_t, Response> dedup;
    std::deque<std::uint64_t> dedup_order;
  };

  // ---------------------------------------------------------------- jobs --
  struct Job {
    Request request;
    /// Anchored at admission. Also the watchdog's cancellation token:
    /// default-constructed it is unlimited but cancellable, and the
    /// session solve combines it with the flow budget, so cancel() from
    /// the watchdog degrades the solve like an expired deadline.
    util::Deadline deadline;
    bool has_deadline = false;
    Clock::time_point deadline_expires_at{};  ///< when has_deadline
    bool downgraded = false;  ///< admission downgraded ILP methods
    Clock::time_point admitted = Clock::now();  ///< decoded (job created)
    Clock::time_point enqueued;  ///< pushed into the queue
    /// Journal flow id for this request's events; set by execute() and
    /// passed into the session solve so solver tile events share it.
    std::uint32_t flow = 0;
    StageBreakdown stages;
    std::promise<Response> promise;
  };

  ServerConfig config;

  std::mutex mu;  // guards queue, sessions, stats, stopping
  std::condition_variable queue_cv;   ///< workers wait: job available
  std::condition_variable space_cv;   ///< producers wait: queue slot free
  std::condition_variable stop_cv;    ///< wait_for_shutdown
  std::deque<std::unique_ptr<Job>> queue;
  bool stopping = false;
  bool shutdown_requested = false;

  std::map<std::string, std::shared_ptr<SessionEntry>> sessions;  // by id
  std::map<std::string, std::string> key_index;  // pool key -> session id
  std::uint64_t next_session = 0;

  ServerStats counters;

  // -------------------------------------------------------- observability --
  const Clock::time_point started_at = Clock::now();
  /// Rolling per-second SLO windows; always on (recording is one mutexed
  /// bucket update per request -- noise against a solve).
  obs::SloRing slo{300};
  std::unique_ptr<AccessLog> access;
  std::unique_ptr<StatsHttpServer> http;
  /// Server-assigned trace ids: a mixed (entropy, counter) sequence so
  /// concurrent daemons produce disjoint traces.
  std::atomic<std::uint64_t> trace_seq{
      static_cast<std::uint64_t>(Clock::now().time_since_epoch().count())};

  std::uint64_t next_trace() {
    std::uint64_t t;
    do {
      t = mix64(trace_seq.fetch_add(1, std::memory_order_relaxed));
    } while (t == 0);
    return t;
  }

  // -------------------------------------------------------- chaos plumbing --
  /// Process-wide ordinals keying the service-plane fault sites: the n-th
  /// accept / received frame / written response / dispatched job. Which
  /// ordinal lands on which connection depends on scheduling, but the
  /// decision *sequence* for a (PIL_FAULT, seed) pair is fixed.
  std::atomic<std::uint64_t> accept_fault_key{0};
  std::atomic<std::uint64_t> frame_fault_key{0};
  std::atomic<std::uint64_t> write_fault_key{0};
  std::atomic<std::uint64_t> worker_fault_key{0};

  void note_fault(util::FaultSite site, std::uint64_t key) {
    obs::journal_record(obs::JournalEventKind::kFaultInjected, 0,
                        static_cast<std::uint32_t>(site), key);
    {
      std::lock_guard<std::mutex> lock(mu);
      counters.faults_injected += 1;
    }
    if (obs::metrics_enabled())
      obs::metrics().counter("pil.service.faults_injected").add();
  }

  /// Evaluate a throw-action service fault site in line: true = the site
  /// fired and the caller performs the site's disruption (the injected
  /// exception never escapes). A delay-action rule sleeps in place and
  /// returns false. Disarmed cost: one relaxed atomic load.
  bool service_fault(util::FaultSite site, std::uint64_t key) {
    if (!util::faults_armed()) return false;
    try {
      util::maybe_fault(site, key);
    } catch (const util::InjectedFault&) {
      note_fault(site, key);
      return true;
    }
    return false;
  }

  // ------------------------------------------------------------- watchdog --
  /// Solves currently executing under a request deadline, visible to the
  /// watchdog thread. Registered around the session solve call only --
  /// the one stage that can stall unboundedly.
  struct InFlight {
    util::Deadline deadline;  ///< shares the job's cancellation flag
    Clock::time_point deadline_at{};  ///< the flow deadline itself
    Clock::time_point overrun_at{};   ///< deadline + watchdog grace
    Op op = Op::kSolve;
    std::uint64_t req_id = 0;
    std::uint64_t trace_id = 0;
    bool fired = false;
  };
  std::mutex inflight_mu;
  std::map<std::uint64_t, InFlight> inflight;
  std::uint64_t inflight_seq = 0;

  std::uint64_t register_inflight(const Job& job) {
    if (!job.has_deadline || config.watchdog_grace_seconds <= 0) return 0;
    InFlight entry;
    entry.deadline = job.deadline;
    entry.deadline_at = job.deadline_expires_at;
    entry.overrun_at =
        job.deadline_expires_at +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(config.watchdog_grace_seconds));
    entry.op = job.request.op;
    entry.req_id = job.request.id;
    entry.trace_id = job.request.trace_id;
    std::lock_guard<std::mutex> lock(inflight_mu);
    const std::uint64_t id = ++inflight_seq;
    inflight.emplace(id, std::move(entry));
    return id;
  }

  void unregister_inflight(std::uint64_t id) {
    if (id == 0) return;
    std::lock_guard<std::mutex> lock(inflight_mu);
    inflight.erase(id);
  }

  /// Unregisters on scope exit, exception-safe (a faulted solve must not
  /// leave a stale entry for the watchdog to cancel forever after).
  struct InflightGuard {
    Impl* impl;
    std::uint64_t id;
    ~InflightGuard() { impl->unregister_inflight(id); }
  };

  void watchdog_loop() {
    obs::journal_set_thread_name("serve-watchdog");
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu);
        stop_cv.wait_for(
            lock,
            std::chrono::duration<double>(config.watchdog_poll_seconds),
            [&] { return stopping; });
        if (stopping) return;
      }
      const Clock::time_point now = Clock::now();
      int fired_now = 0;
      {
        std::lock_guard<std::mutex> lock(inflight_mu);
        for (auto& [id, entry] : inflight) {
          if (entry.fired || now < entry.overrun_at) continue;
          entry.fired = true;
          // Fire the cooperative cancellation token: the solve's combined
          // deadline shares this flag, so the ladder serves the remaining
          // tiles cheaply and the worker returns (degraded, not killed).
          entry.deadline.cancel();
          fired_now += 1;
          obs::journal_record(
              obs::JournalEventKind::kStuckWorker,
              static_cast<std::uint16_t>(entry.op),
              static_cast<std::uint32_t>(entry.req_id), entry.trace_id,
              std::chrono::duration<double>(now - entry.deadline_at)
                  .count());
        }
      }
      if (fired_now > 0) {
        {
          std::lock_guard<std::mutex> lock(mu);
          counters.stuck_workers += fired_now;
        }
        if (obs::metrics_enabled())
          obs::metrics().counter("pil.service.stuck_workers").add(fired_now);
      }
    }
  }

  // ------------------------------------------------------------- threads --
  std::vector<std::thread> workers;
  std::unique_ptr<sock::Listener> listener;
  std::thread acceptor;
  std::thread watchdog;
  bool started = false;

  struct Conn {
    int fd = -1;
    std::thread thread;
  };
  std::mutex conns_mu;
  std::vector<std::unique_ptr<Conn>> conns;

  // ---------------------------------------------------------------- metrics
  void count_request(Op op) {
    if (!obs::metrics_enabled()) return;
    obs::metrics()
        .counter(obs::labeled("pil.service.requests", {{"op", to_string(op)}}))
        .add();
  }

  void observe_handled(Op op, const Response& resp, double seconds) {
    if (!obs::metrics_enabled()) return;
    auto& m = obs::metrics();
    m.histogram(
         obs::labeled("pil.service.handle_seconds", {{"op", to_string(op)}}))
        .observe(seconds);
    if (resp.shed) m.counter("pil.service.shed").add();
    if (resp.degraded) m.counter("pil.service.degraded").add();
    if (!resp.ok) m.counter("pil.service.errors").add();
  }

  void publish_gauges() {
    if (!obs::metrics_enabled()) return;
    auto& m = obs::metrics();
    m.gauge("pil.service.queue_depth")
        .set(static_cast<double>(counters.queue_depth));
    m.gauge("pil.service.sessions")
        .set(static_cast<double>(counters.sessions_open));
  }

  /// One pil.access.v1 line (see access_log.hpp for the field reference).
  std::string access_line(const Response& resp,
                          const std::vector<pilfill::Method>& methods,
                          bool decoded, double total_seconds) {
    std::ostringstream os;
    obs::JsonWriter w(os, /*pretty=*/false);
    w.begin_object();
    w.kv("schema", "pil.access.v1");
    w.kv("ts_ms",
         static_cast<long long>(
             std::chrono::duration_cast<std::chrono::milliseconds>(
                 std::chrono::system_clock::now().time_since_epoch())
                 .count()));
    w.kv("trace_id", hex_u64(resp.trace_id));
    w.kv("op", decoded ? to_string(resp.op) : "invalid");
    w.kv("id", static_cast<unsigned long long>(resp.id));
    if (!resp.session.empty()) w.kv("session", resp.session);
    w.kv("ok", resp.ok);
    if (resp.shed) w.kv("shed", true);
    if (resp.degraded) w.kv("degraded", true);
    if (!resp.error.empty()) w.kv("error", resp.error);
    if (!methods.empty()) {
      w.key("methods");
      w.begin_array();
      for (pilfill::Method m : methods)
        w.value(pilfill::method_wire_name(m));
      w.end_array();
    }
    if (resp.stages.has_value()) {
      w.key("stages");
      write_stage_breakdown(w, *resp.stages);
    }
    w.kv("total_ms", total_seconds * 1e3);
    w.end_object();
    return os.str();
  }

  std::string slo_json() {
    std::ostringstream os;
    obs::JsonWriter w(os, /*pretty=*/false);
    w.begin_object();
    w.kv("schema", "pil.slo.v1");
    w.kv("uptime_seconds", seconds_since(started_at));
    {
      std::lock_guard<std::mutex> lock(mu);
      w.kv("queue_depth", counters.queue_depth);
      w.kv("queue_capacity", config.queue_capacity);
      w.kv("workers", config.workers);
      w.kv("sessions_open", static_cast<int>(sessions.size()));
      w.kv("requests_total", counters.requests);
      w.kv("executed_total", counters.executed);
      w.kv("shed_total", counters.shed);
      w.kv("rejected_total", counters.rejected);
      w.kv("errors_total", counters.errors);
    }
    obs::write_slo_windows(w, slo, {10, 60, 300});
    w.end_object();
    return os.str();
  }

  HttpContent handle_http(const std::string& path) {
    HttpContent content;
    if (path == "/healthz") {
      // Liveness, not readiness: the accept loops are running (this
      // response proves it) and the worker pool exists.
      content.body = "ok\n";
    } else if (path == "/metrics") {
      std::ostringstream os;
      obs::metrics().write_openmetrics(os);
      content.content_type =
          "application/openmetrics-text; version=1.0.0; charset=utf-8";
      content.body = os.str();
    } else if (path == "/slo") {
      content.content_type = "application/json";
      content.body = slo_json() + "\n";
    } else {
      content.status = 404;
      content.body = "unknown path " + path +
                     " (routes: /healthz /metrics /slo)\n";
    }
    return content;
  }

  // -------------------------------------------------------------- admission
  /// Admit one decoded request into the bounded queue, applying load
  /// shedding, and return the future carrying its response. Returns an
  /// immediate response instead when the request is rejected.
  std::future<Response> admit(Request&& request, Response& immediate,
                              bool& rejected) {
    auto job = std::make_unique<Job>();
    job->request = std::move(request);
    const double deadline_s =
        job->request.deadline_ms > 0 ? job->request.deadline_ms / 1000.0
                                     : config.default_deadline_seconds;
    if (deadline_s > 0) {
      job->deadline = util::Deadline::after(deadline_s);
      job->has_deadline = true;
      job->deadline_expires_at =
          Clock::now() + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(deadline_s));
    }

    std::unique_lock<std::mutex> lock(mu);
    counters.requests += 1;
    if (config.reject_when_full) {
      if (!stopping &&
          static_cast<int>(queue.size()) >= config.queue_capacity) {
        counters.shed += 1;
        counters.rejected += 1;
        immediate = make_rejection(job->request, "queue full", true);
        // Nothing executed; the same request (same request_id) can be
        // retried verbatim once the queue drains.
        immediate.retryable = true;
        rejected = true;
        return {};
      }
    } else {
      space_cv.wait(lock, [&] {
        return stopping ||
               static_cast<int>(queue.size()) < config.queue_capacity;
      });
    }
    if (stopping) {
      counters.rejected += 1;
      immediate = make_rejection(job->request, "server shutting down", false);
      rejected = true;
      return {};
    }
    // Load shedding: under queue pressure, serve ILP-class methods with
    // Greedy and say so. The request itself stays admitted -- shedding
    // trades solution quality for latency, not availability. The depth
    // counts the incoming request, so degrade_queue_depth=1 sheds every
    // solve (a deterministic overload drill).
    if (config.degrade_queue_depth > 0 &&
        static_cast<int>(queue.size()) + 1 >= config.degrade_queue_depth &&
        job->request.op == Op::kSolve) {
      for (pilfill::Method m : job->request.methods)
        if (is_downgradable(m)) {
          job->downgraded = true;
          break;
        }
      if (job->downgraded) counters.shed += 1;
    }
    rejected = false;
    job->stages.admission_ms = ms_since(job->admitted);
    job->enqueued = Clock::now();
    std::future<Response> future = job->promise.get_future();
    queue.push_back(std::move(job));
    counters.queue_depth = static_cast<int>(queue.size());
    counters.queue_peak = std::max(counters.queue_peak, counters.queue_depth);
    slo.sample_queue_depth(counters.queue_depth);
    publish_gauges();
    queue_cv.notify_one();
    return future;
  }

  static Response make_rejection(const Request& request,
                                 const std::string& why, bool shed) {
    Response resp;
    resp.id = request.id;
    resp.op = request.op;
    resp.trace_id = request.trace_id;
    resp.ok = false;
    resp.shed = shed;
    resp.error = why;
    return resp;
  }

  // ---------------------------------------------------------------- workers
  void worker_loop(int index) {
    obs::journal_set_thread_name("serve-" + std::to_string(index));
    for (;;) {
      std::unique_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lock(mu);
        queue_cv.wait(lock, [&] { return stopping || !queue.empty(); });
        // Drain the queue even while stopping: every admitted request has
        // a connection thread blocked on its future.
        if (queue.empty()) return;
        job = std::move(queue.front());
        queue.pop_front();
        counters.queue_depth = static_cast<int>(queue.size());
        slo.sample_queue_depth(counters.queue_depth);
        publish_gauges();
      }
      job->stages.queue_ms = ms_since(job->enqueued);
      space_cv.notify_one();
      Response resp = execute(*job);
      {
        std::lock_guard<std::mutex> lock(mu);
        counters.executed += 1;
        if (resp.degraded) counters.degraded += 1;
        if (!resp.ok) counters.errors += 1;
      }
      job->promise.set_value(std::move(resp));
    }
  }

  Response execute(Job& job) {
    const Request& req = job.request;
    const Clock::time_point t0 = Clock::now();
    // One journal flow id per request: the service events below carry it,
    // and do_solve hands it to the session so every solver event -- down
    // to the per-tile cause chains in a flight dump -- links back to this
    // request (and through the `trace` member, to the client's trace id).
    job.flow = obs::journal_new_id();
    obs::JournalScope journal_scope({0, job.flow, -1});
    // Perfetto-style span per executed request, tagged with the wire
    // trace id so a trace viewer shows the same key as the access log
    // and flight dumps. Args are only built when a session is attached.
    obs::TraceSpan span(to_string(req.op),
                        obs::trace_session() != nullptr
                            ? "{\"trace\":\"" + hex_u64(req.trace_id) + "\"}"
                            : std::string());
    obs::journal_record(obs::JournalEventKind::kServiceRequest,
                        static_cast<std::uint16_t>(req.op),
                        static_cast<std::uint32_t>(req.id), req.trace_id);
    Response resp;
    resp.id = req.id;
    resp.op = req.op;
    resp.trace_id = req.trace_id;
    try {
      // Chaos site: a worker that dies *before* dispatch. The op has not
      // executed, so the error response is marked retryable -- the retry
      // is safe with or without the dedup window.
      util::maybe_fault(
          util::FaultSite::kWorkerThrow,
          worker_fault_key.fetch_add(1, std::memory_order_relaxed));
      switch (req.op) {
        case Op::kOpenSession: do_open_session(job, resp); break;
        case Op::kApplyEdit: do_apply_edit(job, resp); break;
        case Op::kSolve: do_solve(job, resp); break;
        case Op::kStats: do_stats(resp); break;
        case Op::kShutdown: do_shutdown(resp); break;
      }
    } catch (const util::InjectedFault& e) {
      resp.ok = false;
      resp.error = e.what();
      if (e.site() == util::FaultSite::kWorkerThrow) {
        resp.retryable = true;
        note_fault(e.site(), e.key());
      }
    } catch (const Error& e) {
      resp.ok = false;
      resp.error = e.what();
      resp.error_field = pilfill::extract_config_field_path(e.what());
    } catch (const std::exception& e) {
      resp.ok = false;
      resp.error = e.what();
    }
    resp.stages = job.stages;
    const double seconds = seconds_since(t0);
    const std::uint32_t bits = (resp.ok ? 1u : 0u) |
                               (resp.degraded ? 2u : 0u) |
                               (resp.shed ? 4u : 0u);
    obs::journal_record(obs::JournalEventKind::kServiceResponse,
                        static_cast<std::uint16_t>(req.op), bits,
                        req.trace_id, seconds);
    observe_handled(req.op, resp, seconds);
    return resp;
  }

  // ------------------------------------------------------------ operations
  void do_open_session(Job& job, Response& resp) {
    const Request& req = job.request;
    const Clock::time_point t0 = Clock::now();
    const int sources = (!req.layout_pld.empty() ? 1 : 0) +
                        (!req.layout_path.empty() ? 1 : 0) +
                        (req.gen.has_value() ? 1 : 0);
    if (sources != 1)
      throw Error(
          "open_session needs exactly one of layout_pld, layout_path, gen");
    if (!req.layout_path.empty() && !config.allow_layout_path)
      throw Error("layout_path is disabled on this server");

    layout::Layout layout;
    if (!req.layout_pld.empty()) {
      std::istringstream is(req.layout_pld);
      layout = layout::read_pld(is);
    } else if (!req.layout_path.empty()) {
      layout = layout::read_pld_file(req.layout_path);
    } else {
      layout = layout::generate_synthetic_layout(req.gen->to_config());
    }

    const std::uint64_t layout_hash = layout_fingerprint(layout);
    const std::string key =
        !req.session_key.empty()
            ? req.session_key
            : hex_u64(layout_hash) +
                  hex_u64(pilfill::model_fingerprint(req.config.model()));

    // Fast path: an existing session under this key is reused untouched --
    // its layout may have drifted via apply_edit, which is the point of
    // sharing (collaborating editors see each other's edits).
    {
      std::lock_guard<std::mutex> lock(mu);
      if (answer_reused_locked(key, resp)) {
        job.stages.session_ms = ms_since(t0);
        return;
      }
    }

    // Build outside the pool lock (prep can take seconds), then publish;
    // a racing open of the same key keeps the first-published session.
    job.stages.session_ms = ms_since(t0);
    const Clock::time_point t_build = Clock::now();
    auto entry = std::make_shared<SessionEntry>();
    entry->key = key;
    entry->layout_hash = layout_hash;
    entry->session =
        std::make_unique<pilfill::FillSession>(layout, req.config);
    job.stages.solve_ms = ms_since(t_build);

    {
      std::lock_guard<std::mutex> lock(mu);
      if (answer_reused_locked(key, resp))
        return;  // entry (and its prep work) is discarded
      entry->id = "s" + std::to_string(++next_session);
      sessions.emplace(entry->id, entry);
      key_index.emplace(key, entry->id);
      counters.sessions_opened += 1;
      counters.sessions_open = static_cast<int>(sessions.size());
      evict_locked();
      publish_gauges();
      resp.ok = true;
      resp.session = entry->id;
      resp.reused = false;
      resp.layout_hash = layout_hash;
      resp.tiles = entry->session->tiles_total();
      resp.prep_seconds = entry->session->prep_seconds();
    }
  }

  /// Answers `resp` from the pooled session under `key`, if there is one.
  /// The caller holds `mu`.
  bool answer_reused_locked(const std::string& key, Response& resp) {
    const auto ki = key_index.find(key);
    if (ki == key_index.end()) return false;
    SessionEntry& entry = *sessions.at(ki->second);
    entry.last_used = Clock::now();
    resp.ok = true;
    resp.session = entry.id;
    resp.reused = true;
    resp.layout_hash = entry.layout_hash;
    resp.tiles = entry.session->tiles_total();
    resp.prep_seconds = entry.session->prep_seconds();
    counters.sessions_reused += 1;
    return true;
  }

  /// LRU eviction beyond max_sessions. try_lock: a session mid-solve is
  /// busy, not idle -- skip it rather than stall the pool.
  void evict_locked() {
    while (static_cast<int>(sessions.size()) >
           std::max(1, config.max_sessions)) {
      std::string victim;
      Clock::time_point oldest = Clock::time_point::max();
      for (const auto& [id, entry] : sessions)
        if (entry->last_used < oldest && entry->mu.try_lock()) {
          entry->mu.unlock();
          oldest = entry->last_used;
          victim = id;
        }
      if (victim.empty()) return;  // everything busy; try again next open
      key_index.erase(sessions.at(victim)->key);
      sessions.erase(victim);
      counters.sessions_evicted += 1;
      counters.sessions_open = static_cast<int>(sessions.size());
    }
  }

  std::shared_ptr<SessionEntry> find_session(const std::string& id) {
    std::lock_guard<std::mutex> lock(mu);
    auto it = sessions.find(id);
    if (it == sessions.end())
      throw Error("unknown session \"" + id + "\" (evicted or never opened)");
    it->second->last_used = Clock::now();
    return it->second;
  }

  void do_apply_edit(Job& job, Response& resp) {
    const Clock::time_point t0 = Clock::now();
    auto entry = find_session(job.request.session);
    std::lock_guard<std::mutex> lock(entry->mu);
    job.stages.session_ms = ms_since(t0);
    const std::uint64_t rid = job.request.request_id;
    const bool dedup_on = rid != 0 && config.dedup_window > 0;
    if (dedup_on) {
      const auto hit = entry->dedup.find(rid);
      if (hit != entry->dedup.end()) {
        // The first attempt executed; its response was lost in flight.
        // Acknowledge from the window -- nothing runs twice.
        resp = hit->second;
        resp.id = job.request.id;
        resp.trace_id = job.request.trace_id;
        resp.deduped = true;
        {
          std::lock_guard<std::mutex> slock(mu);
          counters.deduped += 1;
        }
        if (obs::metrics_enabled())
          obs::metrics().counter("pil.service.deduped").add();
        return;
      }
    }
    const Clock::time_point t_edit = Clock::now();
    const pilfill::EditStats stats =
        entry->session->apply_edit(job.request.edit);
    job.stages.solve_ms = ms_since(t_edit);
    entry->edit_seq += 1;
    resp.ok = true;
    resp.session = entry->id;
    resp.edit_seq = entry->edit_seq;
    EditSummary s;
    s.segment = stats.segment;
    s.columns_rescanned = stats.columns_rescanned;
    s.tiles_retargeted = stats.tiles_retargeted;
    s.tiles_dirty = stats.tiles_dirty;
    s.seconds = stats.seconds;
    resp.edit = s;
    if (dedup_on) {
      // A failed edit is never cached: apply_edit rolled the session
      // back, so the retry should re-attempt, not replay the error.
      entry->dedup.emplace(rid, resp);
      entry->dedup_order.push_back(rid);
      while (static_cast<int>(entry->dedup_order.size()) >
             config.dedup_window) {
        entry->dedup.erase(entry->dedup_order.front());
        entry->dedup_order.pop_front();
      }
    }
  }

  void do_solve(Job& job, Response& resp) {
    const Request& req = job.request;
    if (req.methods.empty()) throw Error("solve needs at least one method");
    const Clock::time_point t0 = Clock::now();
    auto entry = find_session(req.session);

    // Admission downgrade: ILP-class methods are served by Greedy.
    std::vector<pilfill::Method> served;
    served.reserve(req.methods.size());
    for (pilfill::Method m : req.methods)
      served.push_back(job.downgraded && is_downgradable(m)
                           ? pilfill::Method::kGreedy
                           : m);
    std::vector<pilfill::Method> unique_serve;
    for (pilfill::Method m : served)
      if (std::find(unique_serve.begin(), unique_serve.end(), m) ==
          unique_serve.end())
        unique_serve.push_back(m);

    std::lock_guard<std::mutex> lock(entry->mu);
    job.stages.session_ms = ms_since(t0);

    // Per-request policy on top of the session's base policy. The request
    // deadline was anchored at admission, so queue wait has already been
    // spent; an expired budget buys a near-zero one (0 means unlimited).
    pilfill::SolvePolicy policy = entry->session->config().policy();
    if (job.has_deadline) {
      const double remaining = job.deadline.remaining_seconds();
      policy.flow_deadline_seconds = std::max(remaining, 1e-9);
    }
    if (req.tile_deadline_ms > 0)
      policy.tile_deadline_seconds = req.tile_deadline_ms / 1000.0;
    if (req.no_degrade) policy.degrade_on_failure = false;

    const Clock::time_point t_solve = Clock::now();
    const std::uint64_t watch_id = register_inflight(job);
    InflightGuard watch_guard{this, watch_id};
    const pilfill::FlowResult result =
        entry->session->solve(unique_serve, policy, job.flow, &job.deadline);
    job.stages.solve_ms = ms_since(t_solve);

    const Clock::time_point t_write = Clock::now();
    resp.ok = true;
    resp.session = entry->id;
    resp.edit_seq = entry->edit_seq;
    resp.shed = job.downgraded;
    for (std::size_t i = 0; i < req.methods.size(); ++i) {
      const auto it = std::find_if(
          result.methods.begin(), result.methods.end(),
          [&](const pilfill::MethodResult& mr) {
            return mr.method == served[i];
          });
      PIL_ASSERT(it != result.methods.end(), "served method missing");
      MethodSummary s =
          summarize_method(*it, req.methods[i], req.include_placement);
      resp.methods.push_back(std::move(s));
      if (req.methods[i] != served[i] || it->tiles_degraded > 0 ||
          it->tiles_failed > 0)
        resp.degraded = true;
    }
    job.stages.write_ms = ms_since(t_write);
  }

  void do_stats(Response& resp) {
    ServerStats snap;
    int open_sessions;
    {
      std::lock_guard<std::mutex> lock(mu);
      snap = counters;
      open_sessions = static_cast<int>(sessions.size());
    }
    std::ostringstream os;
    obs::JsonWriter w(os, /*pretty=*/false);
    w.begin_object();
    w.kv("requests", snap.requests);
    w.kv("executed", snap.executed);
    w.kv("shed", snap.shed);
    w.kv("degraded", snap.degraded);
    w.kv("rejected", snap.rejected);
    w.kv("errors", snap.errors);
    w.kv("sessions_open", open_sessions);
    w.kv("sessions_opened", snap.sessions_opened);
    w.kv("sessions_reused", snap.sessions_reused);
    w.kv("sessions_evicted", snap.sessions_evicted);
    w.kv("accept_errors", snap.accept_errors);
    w.kv("read_timeouts", snap.read_timeouts);
    w.kv("deduped", snap.deduped);
    w.kv("stuck_workers", snap.stuck_workers);
    w.kv("faults_injected", snap.faults_injected);
    w.kv("queue_depth", snap.queue_depth);
    w.kv("queue_peak", snap.queue_peak);
    w.kv("workers", config.workers);
    w.kv("queue_capacity", config.queue_capacity);
    w.kv("degrade_queue_depth", config.degrade_queue_depth);
    w.end_object();
    resp.ok = true;
    resp.stats_json = os.str();
  }

  void do_shutdown(Response& resp) {
    // Only acknowledge here. The connection thread signals the actual
    // shutdown after this response has been written back -- signaling now
    // would race stop() against the response frame and the client could
    // see the connection drop instead of its acknowledgement.
    resp.ok = true;
  }

  void signal_shutdown() {
    std::lock_guard<std::mutex> lock(mu);
    shutdown_requested = true;
    stop_cv.notify_all();
  }

  // ------------------------------------------------------------ transport
  void accept_loop() {
    obs::journal_set_thread_name("serve-accept");
    while (true) {
      const int fd = listener->accept();
      if (fd < 0) {
        const int err = errno;
        {
          std::lock_guard<std::mutex> lock(mu);
          if (stopping) return;
        }
        if (err == EINTR || err == ECONNABORTED) continue;
        if (err == EMFILE || err == ENFILE || err == ENOBUFS ||
            err == ENOMEM) {
          // Fd/buffer exhaustion is a load condition, not a listener
          // failure: count it, back off briefly (connections finishing
          // release fds), keep accepting.
          {
            std::lock_guard<std::mutex> lock(mu);
            counters.accept_errors += 1;
          }
          if (obs::metrics_enabled())
            obs::metrics().counter("pil.service.accept_errors").add();
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
          continue;
        }
        return;  // listener closed
      }
      // Chaos site: the connection dies between accept and first frame
      // (a client crash, a dropped NAT mapping). Nothing was read, so
      // nothing needs answering.
      if (service_fault(
              util::FaultSite::kAcceptDrop,
              accept_fault_key.fetch_add(1, std::memory_order_relaxed))) {
        ::close(fd);
        continue;
      }
      auto conn = std::make_unique<Conn>();
      conn->fd = fd;
      Conn* raw = conn.get();
      conn->thread = std::thread([this, raw] { serve_connection(raw->fd); });
      std::lock_guard<std::mutex> lock(conns_mu);
      conns.push_back(std::move(conn));
    }
  }

  void serve_connection(int fd) {
    obs::journal_set_thread_name("serve-conn");
    std::string payload;
    for (;;) {
      const FrameReadStatus status = read_frame(
          fd, payload, config.max_frame_bytes, config.read_timeout_seconds);
      if (status == FrameReadStatus::kClosed) break;
      if (status == FrameReadStatus::kTimeout) {
        // Slow-loris defense: a peer that cannot deliver one frame within
        // the budget loses the connection, not a worker.
        {
          std::lock_guard<std::mutex> lock(mu);
          counters.read_timeouts += 1;
        }
        if (obs::metrics_enabled())
          obs::metrics().counter("pil.service.read_timeouts").add();
        break;
      }
      if (status == FrameReadStatus::kOversize) {
        // One parting diagnostic, then hang up: the stream position after
        // an oversize announcement cannot be trusted.
        Response resp;
        resp.ok = false;
        resp.error = "frame of " + payload + " bytes exceeds limit of " +
                     std::to_string(config.max_frame_bytes);
        try {
          write_frame(fd, encode_response(resp));
        } catch (const Error&) {
        }
        break;
      }
      if (status != FrameReadStatus::kOk) break;  // truncated / error

      // Chaos site: stall (delay action) or drop (throw action) a
      // received frame before any of it is handled.
      if (service_fault(
              util::FaultSite::kFrameDelay,
              frame_fault_key.fetch_add(1, std::memory_order_relaxed)))
        break;

      const Clock::time_point received = Clock::now();
      Response resp;
      bool have_resp = false;
      bool decoded = false;
      std::vector<pilfill::Method> methods;
      std::future<Response> future;
      try {
        Request req = decode_request(payload);
        decoded = true;
        // Every request gets a nonzero trace id -- the client's, or one
        // assigned here so rejections and failures are greppable too.
        if (req.trace_id == 0) req.trace_id = next_trace();
        methods = req.methods;
        count_request(req.op);
        bool rejected = false;
        future = admit(std::move(req), resp, rejected);
        have_resp = rejected;
      } catch (const Error& e) {
        resp.ok = false;
        resp.trace_id = next_trace();
        resp.error = e.what();
        resp.error_field = pilfill::extract_config_field_path(e.what());
        have_resp = true;
        std::lock_guard<std::mutex> lock(mu);
        counters.requests += 1;
        counters.errors += 1;
      }
      if (!have_resp) resp = future.get();
      const bool shutdown_after = resp.op == Op::kShutdown && resp.ok;
      bool peer_gone = false;
      // Chaos sites on the response path. Both fire *after* the request
      // executed -- the executed-but-unacknowledged case idempotent
      // retries exist for. conn_reset tears the connection down without
      // a byte (RST on TCP via zero-linger); frame_truncate announces
      // the full frame but stops half way through the payload.
      const std::uint64_t wkey =
          write_fault_key.fetch_add(1, std::memory_order_relaxed);
      if (service_fault(util::FaultSite::kConnReset, wkey)) {
        struct linger lg;
        lg.l_onoff = 1;
        lg.l_linger = 0;
        ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
        peer_gone = true;
      } else if (service_fault(util::FaultSite::kFrameTruncate, wkey)) {
        try {
          const std::string encoded = encode_response(resp);
          write_frame_truncated(fd, encoded, encoded.size() / 2);
        } catch (const Error&) {
        }
        peer_gone = true;
      } else {
        try {
          write_frame(fd, encode_response(resp));
        } catch (const Error&) {
          peer_gone = true;  // peer went away mid-response
        }
      }
      const double total_seconds = seconds_since(received);
      slo.record(total_seconds, !resp.ok, resp.shed, resp.degraded);
      if (access != nullptr)
        access->write(access_line(resp, methods, decoded, total_seconds));
      if (shutdown_after) {
        // Acknowledgement flushed; now wake the owner to stop the server.
        signal_shutdown();
        break;
      }
      if (peer_gone) break;
    }
    ::shutdown(fd, SHUT_RDWR);
    // The fd itself is closed by stop() (or here if already stopping is
    // irrelevant -- closing twice is avoided by marking it).
    {
      std::lock_guard<std::mutex> lock(conns_mu);
      for (auto& c : conns)
        if (c->fd == fd) {
          ::close(fd);
          c->fd = -1;
          break;
        }
    }
  }
};

Server::Server(const ServerConfig& config) : impl_(new Impl(config)) {
  PIL_REQUIRE(!config.unix_socket.empty() || config.tcp_port >= 0,
              "server needs a unix socket path or a tcp port");
  PIL_REQUIRE(config.workers >= 1, "server needs at least one worker");
  PIL_REQUIRE(config.queue_capacity >= 1, "queue capacity must be >= 1");
  PIL_REQUIRE(config.max_sessions >= 1, "max_sessions must be >= 1");
}

Server::~Server() { stop(); }

void Server::start() {
  Impl& im = *impl_;
  PIL_REQUIRE(!im.started, "server already started");
  if (!im.config.access_log.empty())
    im.access = std::make_unique<AccessLog>(im.config.access_log,
                                            im.config.access_log_max_bytes);
  im.listener = std::make_unique<sock::Listener>(im.config.unix_socket,
                                                 im.config.tcp_port, 64);
  if (im.config.http_port >= 0 || !im.config.http_socket.empty()) {
    StatsHttpServer::Config http_cfg;
    http_cfg.tcp_port = im.config.http_port;
    http_cfg.unix_socket = im.config.http_socket;
    im.http = std::make_unique<StatsHttpServer>(
        http_cfg,
        [&im](const std::string& path) { return im.handle_http(path); });
    im.http->start();
  }
  im.started = true;
  for (int i = 0; i < im.config.workers; ++i)
    im.workers.emplace_back([&im, i] { im.worker_loop(i); });
  im.acceptor = std::thread([&im] { im.accept_loop(); });
  if (im.config.watchdog_grace_seconds > 0 &&
      im.config.watchdog_poll_seconds > 0)
    im.watchdog = std::thread([&im] { im.watchdog_loop(); });
}

void Server::request_shutdown() {
  Impl& im = *impl_;
  std::lock_guard<std::mutex> lock(im.mu);
  im.shutdown_requested = true;
  im.stop_cv.notify_all();
}

void Server::wait_for_shutdown() {
  Impl& im = *impl_;
  std::unique_lock<std::mutex> lock(im.mu);
  im.stop_cv.wait(lock,
                  [&] { return im.shutdown_requested || im.stopping; });
}

void Server::stop() {
  Impl& im = *impl_;
  {
    std::lock_guard<std::mutex> lock(im.mu);
    if (im.stopping) {
      // Best effort double-stop protection; joins below are idempotent
      // because the first stop() cleared the thread objects.
      return;
    }
    im.stopping = true;
    im.stop_cv.notify_all();
    im.queue_cv.notify_all();
    im.space_cv.notify_all();
  }
  // The stats endpoint goes first -- scrapes of a stopping server would
  // only observe teardown.
  if (im.http != nullptr) im.http->stop();
  // Unblock the acceptor, then the connection readers.
  if (im.listener != nullptr) im.listener->shutdown();
  if (im.acceptor.joinable()) im.acceptor.join();
  im.listener.reset();
  if (im.watchdog.joinable()) im.watchdog.join();
  {
    std::lock_guard<std::mutex> lock(im.conns_mu);
    for (auto& c : im.conns)
      if (c->fd >= 0) ::shutdown(c->fd, SHUT_RDWR);
  }
  // Workers drain whatever is queued (each queued job has a connection
  // thread waiting on its future), then exit on empty queue + stopping.
  im.queue_cv.notify_all();
  for (std::thread& t : im.workers)
    if (t.joinable()) t.join();
  im.workers.clear();
  for (;;) {
    std::unique_ptr<Impl::Conn> conn;
    {
      std::lock_guard<std::mutex> lock(im.conns_mu);
      if (im.conns.empty()) break;
      conn = std::move(im.conns.back());
      im.conns.pop_back();
    }
    if (conn->thread.joinable()) conn->thread.join();
    if (conn->fd >= 0) ::close(conn->fd);
  }
}

int Server::tcp_port() const {
  return impl_->listener != nullptr ? impl_->listener->tcp_port() : -1;
}

int Server::http_port() const {
  return impl_->http != nullptr ? impl_->http->tcp_port() : -1;
}

std::string Server::slo_json() const { return impl_->slo_json(); }

const ServerConfig& Server::config() const { return impl_->config; }

ServerStats Server::stats() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  ServerStats snap = impl_->counters;
  snap.sessions_open = static_cast<int>(impl_->sessions.size());
  snap.queue_depth = static_cast<int>(impl_->queue.size());
  return snap;
}

}  // namespace pil::service
