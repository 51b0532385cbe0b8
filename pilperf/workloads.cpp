/// \file workloads.cpp
/// The four pilperf workloads:
///
///   oneshot_ilp2    one-shot flows (FillSession, solve ILP-II, check_fill)
///   oneshot_greedy  the same flows with Greedy
///   eco_ilp2        add-stub / remove-stub edits on warm sessions, each
///                   followed by an ILP-II re-solve
///   service_eco     the same edit loop from three closed-loop editors
///                   against an in-process pilserve over loopback TCP
///
/// One layout's cost differs from another's by more than host noise, so a
/// run averages over many of them. The one-shot and eco_ilp2 layouts are a
/// fixed corpus, the same at every seed, so the seed-to-seed spread does
/// not measure which layouts were drawn; the seed picks the one-shot
/// visiting order and the eco_ilp2 edits (see run_oneshot, run_eco), and
/// service_eco draws its layouts. Input 0 of every workload is a fixed
/// reference (testcase T1, or a fixed service layout); tau is reported on
/// it alone, so that the quality metric repeats exactly and any change to
/// it shows.
///
/// The timed loop runs a fixed number of whole passes over a run's inputs:
/// --seconds over the workload's pass time at the reference host speed.
/// So every commit times the same operations, each input equally often,
/// however fast it is. Between operations the host speed is measured
/// (calibrate.hpp), outside the timed span.

#include "workloads.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <latch>
#include <memory>
#include <numeric>
#include <thread>
#include <tuple>

#include "bench/workloads.hpp"
#include "calibrate.hpp"
#include "pil/pil.hpp"

namespace pilperf {

namespace {

using pil::layout::Layout;
using pil::pilfill::EditStats;
using pil::pilfill::FillSession;
using pil::pilfill::FlowConfig;
using pil::pilfill::FlowResult;
using pil::pilfill::Method;
using pil::pilfill::MethodResult;
using pil::pilfill::SessionStats;
using pil::pilfill::WireEdit;

constexpr int kOneshotLayouts = 34;
// One design's op time differs from another's by up to ~25% (layout
// size), so eco_ilp2 averages over many designs.
constexpr int kEcoSessions = 16;
constexpr int kEcoEdits = 6;
constexpr int kEditors = 3;
constexpr int kSessionsPerEditor = 4;
constexpr int kServiceEdits = 5;
/// eco_ilp2 post-add states re-checked against a from-scratch flow.
constexpr int kVerifiedStates = 5;
/// Seed of every workload's reference input: testcase T1's own seed.
constexpr std::uint64_t kReferenceSeed = 20030601;

// One pass's time at the reference host speed (scaled, from the A/A runs
// in README.md). At --seconds 20: 2 passes of oneshot_ilp2 (68 flows), 5
// of oneshot_greedy (170 flows), 4 of eco_ilp2 (768 operations), 3 of
// service_eco (720 requests).
constexpr double kOneshotIlp2PassS = 12.0;
constexpr double kOneshotGreedyPassS = 4.2;
constexpr double kEcoPassS = 4.5;
constexpr double kServicePassS = 7.2;
/// A run stops early, at a pass boundary, once its passes have taken this
/// many times --seconds of wall time: a guard for a host far slower than
/// the reference, where the run would otherwise outlast its time limit.
constexpr double kMaxRunFactor = 3.0;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Seed of a run's j-th input: the fixed reference for j = 0, derived from
/// the run seed otherwise. Masked to 53 bits, because the service wire
/// carries a seed as a JSON number, exact below 2^53 only.
std::uint64_t input_seed(std::uint64_t seed, int j) {
  const std::uint64_t s =
      j == 0 ? kReferenceSeed
             : splitmix64(seed ^ (static_cast<std::uint64_t>(j) *
                                  0x632be59bd9b4e019ull));
  return s & ((std::uint64_t{1} << 53) - 1);
}

double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

FlowConfig flow_config() {
  FlowConfig config;
  config.window_um = 32.0;
  config.r = 2;
  config.threads = 1;
  return config;
}

/// `cfg` with the fill spec pinned from a probe run on `l`, as a foundry
/// replay would: an edit's dirty set is then purely geometric.
FlowConfig pinned(const Layout& l, FlowConfig cfg) {
  cfg.required_per_tile =
      pil::pilfill::run_pil_fill_flow(l, cfg, {}).target.features_per_tile;
  return cfg;
}

/// Passes a run times: --seconds over one pass's time `pass_s` at the
/// reference speed, rounded, at least one.
int pass_count(const Options& opt, double pass_s) {
  return std::max(1, static_cast<int>(std::lround(opt.seconds / pass_s)));
}

/// Whether pass `p` runs, of a run that started at `start`.
bool more_passes(const Options& opt, double pass_s, int p,
                 Clock::time_point start) {
  return p < pass_count(opt, pass_s) &&
         (p == 0 || seconds_since(start) < kMaxRunFactor * opt.seconds);
}

/// Runs pass(p) for every pass of the run. Returns their wall time.
template <class Pass>
double run_passes(const Options& opt, double pass_s, Pass&& pass) {
  const Clock::time_point start = Clock::now();
  for (int p = 0; more_passes(opt, pass_s, p, start); ++p) pass(p);
  return seconds_since(start);
}

/// The traced run turns spans on for even passes and off for odd ones; the
/// two halves give bench.trace_overhead_ratio.
bool spans_on(const Options& opt, int pass) {
  return opt.trace && pass % 2 == 0;
}

/// What a solved state must reproduce on every later visit.
struct Reference {
  std::uint64_t fingerprint = 0;
  double tau_ps = 0.0;
  bool operator==(const Reference&) const = default;
};

Reference reference_of(const MethodResult& mr) {
  return {pil::service::placement_fingerprint(mr.placement.features),
          mr.impact.delay_ps};
}

bool degraded(const MethodResult& mr) {
  return mr.tiles_degraded > 0 || mr.tiles_node_limit > 0;
}

/// An operation or set-up unit that computed throughout its `wall_s`
/// seconds, with the host speed measured right after it.
Sample computed(double wall_s, bool spans = false) {
  return {wall_s, wall_s, host_speed(), spans};
}

/// `n` seeded stub edits (bench::make_stub_edit), each on a random
/// horizontal trunk (>= 6 um) of the fill layer at a random fraction of
/// its length.
std::vector<WireEdit> stub_edits(const Layout& l, pil::layout::LayerId layer,
                                 std::uint64_t seed, int n) {
  std::vector<const pil::layout::WireSegment*> trunks;
  for (const pil::layout::WireSegment& seg : l.segments())
    if (!seg.removed() && seg.layer == layer &&
        seg.orientation() == pil::layout::Orientation::kHorizontal &&
        seg.length() >= 6.0)
      trunks.push_back(&seg);
  PIL_REQUIRE(!trunks.empty(), "layout has no horizontal trunk to edit");
  pil::Rng rng(seed);
  std::vector<WireEdit> edits;
  for (int i = 0; i < n; ++i) {
    const pil::layout::WireSegment& p = *trunks[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(trunks.size()) - 1))];
    edits.push_back(
        pil::bench::make_stub_edit(l, p.net, p, rng.uniform_real(0.1, 0.9)));
  }
  return edits;
}

// ---- layer recording (null recorder = not recorded) -----------------------

/// FillSession construction, with the prep-stage split it reports.
std::unique_ptr<FillSession> make_session(Recorder* rec, const Layout& l,
                                          const FlowConfig& cfg) {
  Span span(rec, "pilfill.session.prep");
  auto session = std::make_unique<FillSession>(l, cfg);
  const double prep_s = span.stop();
  if (rec != nullptr) {
    const pil::pilfill::StageSeconds& st = session->prep_stages();
    rec->add("grid.dissection", st.dissection);
    rec->add("grid.density_map", st.density_map);
    rec->add("rctree.extraction", st.rc_extraction);
    rec->add("fill.slack_scan", st.slack_extraction);
    rec->add("density.targeting", st.targeting);
    rec->add("pilfill.instance.build", st.instances);
    rec->add("pilfill.session.prep_other", prep_s - st.total());
  }
  return session;
}

/// FillSession::solve for one method, split into tile solves, evaluation
/// and the rest (re-assembly of the whole-layout result).
FlowResult solve(Recorder* rec, FillSession& session, Method method) {
  Span span(rec, "pilfill.solve");
  FlowResult result = session.solve({method});
  const double solve_s = span.stop();
  if (rec != nullptr) {
    const MethodResult& mr = result.methods[0];
    rec->add("pilfill.solve.tiles", mr.solve_seconds);
    rec->add("pilfill.evaluate", mr.eval_seconds);
    rec->add("pilfill.assemble", solve_s - mr.solve_seconds - mr.eval_seconds);
  }
  return result;
}

EditStats apply_edit(Recorder* rec, FillSession& session,
                     const WireEdit& edit) {
  Span span(rec, "pilfill.session.apply_edit");
  return session.apply_edit(edit);
}

bool fill_clean(Recorder* rec, const Layout& l, const MethodResult& mr,
                const FlowConfig& cfg) {
  pil::fill::CheckOptions options;
  options.rules = cfg.rules;
  options.layer = cfg.layer;
  Span span(rec, "fill.check");
  const pil::fill::CheckReport report =
      pil::fill::check_fill(l, mr.placement.features, options);
  span.stop();
  if (rec != nullptr)
    rec->add("fill.check_features",
             static_cast<double>(report.features_checked));
  return report.clean();
}

// Counts are recorded once per distinct solved state (its first visit), so
// they repeat exactly at threads = 1 whatever the run length.

/// Solver work of a solve that solved every tile (a fresh session). On an
/// incremental solve MethodResult also sums the counters of the tiles it
/// served from cache, so there it does not measure the work done.
void record_solver_work(Recorder& rec, const MethodResult& mr,
                        long long tiles_solved) {
  rec.add("work.lp_solves", static_cast<double>(mr.lp_solves));
  rec.add("work.lp_iterations", static_cast<double>(mr.simplex_iterations));
  rec.add("work.lp_dual_iterations", static_cast<double>(mr.dual_iterations));
  rec.add("work.lp_warm_starts", static_cast<double>(mr.warm_starts));
  rec.add("work.ilp_bb_nodes", static_cast<double>(mr.bb_nodes));
  rec.add("work.ilp_node_limit_tiles",
          static_cast<double>(mr.tiles_node_limit));
  rec.add("work.tiles", static_cast<double>(tiles_solved));
  rec.add("work.tiles_s", mr.solve_seconds);
}

/// Tiles one solve re-solved or served from the session's cache.
void record_session_work(Recorder& rec, const SessionStats& before,
                         const SessionStats& after) {
  rec.add("state.tiles_resolved",
          static_cast<double>(after.tiles_resolved - before.tiles_resolved));
  rec.add("state.tiles_reused",
          static_cast<double>(after.tiles_reused - before.tiles_reused));
  rec.add("state.basis_hits",
          static_cast<double>(after.basis_hits - before.basis_hits));
  rec.add("state.basis_misses",
          static_cast<double>(after.basis_misses - before.basis_misses));
}

void record_edit(Recorder& rec, const EditStats& es) {
  rec.add("state.columns_rescanned", es.columns_rescanned);
  rec.add("state.tiles_dirty", es.tiles_dirty);
  rec.add("state.tiles_retargeted", es.tiles_retargeted);
}

/// Re-solve every tile instance of `session` with the public solve_tile,
/// one span per tile. The placed counts must equal `features_per_tile`
/// from the session's own solve of the same state.
void replay_tiles(Outcome& out, const FillSession& session, Method method,
                  const std::vector<int>& features_per_tile) {
  const FlowConfig& cfg = session.config();
  const pil::layout::Layer& layer = session.layout().layer(cfg.layer);
  const pil::cap::CouplingModel model(layer.eps_r, layer.thickness_um);
  pil::cap::ColumnCapLut lut(model, cfg.rules.feature_um);
  pil::pilfill::SolverContext ctx;
  ctx.model = &model;
  ctx.lut = &lut;
  ctx.rules = cfg.rules;
  ctx.objective = cfg.objective;
  ctx.ilp = cfg.ilp;
  ctx.style = cfg.style;
  ctx.switch_factor = cfg.switch_factor;
  pil::Rng rng(cfg.seed);  // only Normal draws from it
  bool same = true;
  for (const pil::pilfill::TileInstance& inst : session.instances_snapshot()) {
    Span span(&out.layers, "pilfill.solve_tile",
              "{\"tile\":" + std::to_string(inst.tile_flat) + "}");
    const pil::pilfill::TileSolveResult r =
        pil::pilfill::solve_tile(method, inst, ctx, rng);
    span.stop();
    same = same && r.placed == features_per_tile[static_cast<std::size_t>(
                                   inst.tile_flat)];
  }
  out.check(same,
            "solve_tile replay: placed counts differ from the session's "
            "features_per_tile");
}

void check_expected(Outcome& out, const Options& opt,
                    std::uint64_t fingerprint) {
  if (opt.expect_fingerprint)
    out.check(fingerprint == *opt.expect_fingerprint,
              "first reference fingerprint differs from "
              "--expect-fingerprint");
}

// ---- oneshot_ilp2 / oneshot_greedy -----------------------------------------

void run_oneshot(const Options& opt, Method method, Outcome& out) {
  Recorder* const trace = opt.trace ? &out.layers : nullptr;
  const FlowConfig cfg = flow_config();

  // Set-up unit: generate one T1-recipe layout. The layouts are the same
  // at every seed; the seed picks the order each pass visits them in. One
  // layout's flow costs up to ~20% more than another's, so with seeded
  // layouts the run-to-run spread measured which layouts were drawn.
  std::vector<Layout> layouts;
  for (int j = 0; j < kOneshotLayouts; ++j) {
    pil::layout::SyntheticLayoutConfig lc = pil::layout::testcase_t1_config();
    lc.seed = input_seed(kReferenceSeed, j);
    const Clock::time_point t0 = Clock::now();
    Span span(trace, "layout.generate");
    layouts.push_back(pil::layout::generate_synthetic_layout(lc));
    span.stop();
    out.setup.push_back(computed(seconds_since(t0)));
  }

  // One flow: FillSession construction, solve, check_fill, then the
  // session is discarded, as run_pil_fill_flow does. The first flow on a
  // layout is its reference; every later one must reproduce it.
  std::vector<std::optional<Reference>> refs(layouts.size());
  auto flow = [&](std::size_t j, Recorder* rec) {
    FlowResult result;
    bool clean = false;
    SessionStats stats;
    const Clock::time_point t0 = Clock::now();
    {
      Span op(rec, "op");
      const std::unique_ptr<FillSession> session =
          make_session(rec, layouts[j], cfg);
      result = solve(rec, *session, method);
      clean = fill_clean(rec, layouts[j], result.methods[0], cfg);
      stats = session->stats();
    }
    const double seconds = seconds_since(t0);
    const MethodResult& mr = result.methods[0];
    out.check(clean, "check_fill found violations in a flow's placement");
    const Reference got = reference_of(mr);
    if (!refs[j]) {
      refs[j] = got;
      if (opt.trace) {
        record_solver_work(out.layers, mr, stats.tiles_resolved);
        record_session_work(out.layers, {}, stats);
      }
    } else {
      out.check(got == *refs[j],
                "a flow's placement or tau differs from the layout's "
                "reference flow");
    }
    return std::tuple{seconds, mr.tiles_failed > 0, degraded(mr)};
  };

  flow(0, nullptr);  // warm-up, and layout 0's reference (set-up time run)
  const double pass_s =
      method == Method::kIlp2 ? kOneshotIlp2PassS : kOneshotGreedyPassS;
  std::vector<std::size_t> order(layouts.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  pil::Rng order_rng(opt.seed);
  out.loop_s = run_passes(opt, pass_s, [&](int pass) {
    Recorder* rec = spans_on(opt, pass) ? trace : nullptr;
    std::shuffle(order.begin(), order.end(), order_rng);
    for (const std::size_t j : order) {
      ++out.attempted;
      try {
        const auto [seconds, failed_tiles, degraded_tiles] = flow(j, rec);
        out.ops.push_back(computed(seconds, rec != nullptr));
        out.failed += failed_tiles ? 1 : 0;
        out.degraded += degraded_tiles ? 1 : 0;
      } catch (const std::exception& e) {
        ++out.failed;
        out.check(false, e.what());
      }
    }
  });
  out.peak_rss_mb = peak_rss_mb();

  out.tau_ps.push_back(refs[0]->tau_ps);
  check_expected(out, opt, refs[0]->fingerprint);
  if (opt.trace) {
    FillSession session(layouts[0], cfg);
    replay_tiles(
        out, session, method,
        session.solve({method}).methods[0].placement.features_per_tile);
  }
}

// ---- eco_ilp2 ---------------------------------------------------------------

struct EcoSession {
  std::unique_ptr<FillSession> session;
  Reference base;
  std::vector<int> base_features_per_tile;
  std::vector<WireEdit> edits;
  std::vector<std::optional<Reference>> added;  ///< per edit, first visit
};

void run_eco(const Options& opt, Outcome& out) {
  Recorder* const trace = opt.trace ? &out.layers : nullptr;

  // Set-up unit: generate a T1-recipe layout, pin its fill spec from a
  // probe run, build the session and solve it once. The designs are the
  // same at every seed, as a designer edits the same designs day to day;
  // the seed picks the edits (session 0's are the fixed reference). An
  // operation re-evaluates its whole design, so its cost follows the
  // design far more than the edit: with seeded designs the run-to-run
  // spread measured which designs were drawn.
  std::vector<EcoSession> sessions(kEcoSessions);
  for (int j = 0; j < kEcoSessions; ++j) {
    const Clock::time_point t0 = Clock::now();
    pil::layout::SyntheticLayoutConfig lc = pil::layout::testcase_t1_config();
    lc.seed = input_seed(kReferenceSeed, j);
    Span gen(trace, "layout.generate");
    const Layout l = pil::layout::generate_synthetic_layout(lc);
    gen.stop();
    const FlowConfig cfg = pinned(l, flow_config());
    EcoSession& s = sessions[static_cast<std::size_t>(j)];
    s.session = make_session(trace, l, cfg);
    const FlowResult base = s.session->solve({Method::kIlp2});
    if (opt.trace)
      record_solver_work(out.layers, base.methods[0],
                         s.session->stats().tiles_resolved);
    s.base = reference_of(base.methods[0]);
    s.base_features_per_tile = base.methods[0].placement.features_per_tile;
    s.edits = stub_edits(l, cfg.layer, splitmix64(input_seed(opt.seed, j)),
                         kEcoEdits);
    s.added.resize(s.edits.size());
    out.setup.push_back(computed(seconds_since(t0)));
  }

  // One operation: apply_edit, then an ILP-II re-solve.
  auto edit_and_solve = [&](EcoSession& s, const WireEdit& edit,
                            Recorder* rec, bool first_visit) {
    const SessionStats before = s.session->stats();
    const Clock::time_point t0 = Clock::now();
    Span op(rec, "op");
    const EditStats es = apply_edit(rec, *s.session, edit);
    const FlowResult result = solve(rec, *s.session, Method::kIlp2);
    const double seconds = seconds_since(t0);
    op.stop();
    out.ops.push_back(computed(seconds, rec != nullptr));
    const MethodResult& mr = result.methods[0];
    out.failed += mr.tiles_failed > 0 ? 1 : 0;
    out.degraded += degraded(mr) ? 1 : 0;
    if (opt.trace && first_visit) {
      record_edit(out.layers, es);
      record_session_work(out.layers, before, s.session->stats());
    }
    return std::pair{es.segment, reference_of(mr)};
  };

  // A pass: every edit of every session, added then removed. A designer
  // makes consecutive edits on one design, so a session's edits run
  // back to back, with its data warm in the caches.
  out.loop_s = run_passes(opt, kEcoPassS, [&](int pass) {
    Recorder* rec = spans_on(opt, pass) ? trace : nullptr;
    for (EcoSession& s : sessions)
      for (std::size_t e = 0; e < s.edits.size(); ++e) {
        try {
          ++out.attempted;
          const auto [stub, added] =
              edit_and_solve(s, s.edits[e], rec, pass == 0);
          if (!s.added[e])
            s.added[e] = added;
          else
            out.check(added == *s.added[e],
                      "a post-add placement differs from the edit's first "
                      "visit");
          ++out.attempted;
          const Reference removed =
              edit_and_solve(s, WireEdit::remove_segment(stub), rec,
                             pass == 0)
                  .second;
          out.check(removed.fingerprint == s.base.fingerprint,
                    "a post-remove placement differs from the base ILP-II "
                    "placement");
        } catch (const std::exception& ex) {
          ++out.failed;
          out.check(false, ex.what());
        }
      }
  });
  out.peak_rss_mb = peak_rss_mb();

  // Every post-add state again, untimed; a seeded sample of them against
  // a from-scratch flow on a copy of the edited layout.
  std::vector<std::pair<std::size_t, std::size_t>> states;
  for (std::size_t j = 0; j < sessions.size(); ++j)
    for (std::size_t e = 0; e < sessions[j].added.size(); ++e)
      if (sessions[j].added[e]) states.emplace_back(j, e);
  std::vector<std::pair<std::size_t, std::size_t>> sample = states;
  pil::Rng rng(opt.seed);
  std::shuffle(sample.begin(), sample.end(), rng);
  sample.resize(std::min<std::size_t>(sample.size(), kVerifiedStates));
  for (const auto& [j, e] : states) {
    EcoSession& s = sessions[j];
    const EditStats es = s.session->apply_edit(s.edits[e]);
    const FlowResult ilp2 = s.session->solve({Method::kIlp2});
    out.check(reference_of(ilp2.methods[0]) == *s.added[e],
              "a re-applied edit does not reproduce its post-add state");
    if (j == 0) out.tau_ps.push_back(s.added[e]->tau_ps);
    if (std::find(sample.begin(), sample.end(), std::pair{j, e}) !=
        sample.end()) {
      const Layout edited = s.session->layout();
      const FlowResult fresh = pil::pilfill::run_pil_fill_flow(
          edited, s.session->config(), {Method::kIlp2});
      out.check(reference_of(fresh.methods[0]) == *s.added[e],
                "an incremental post-add state differs from a from-scratch "
                "flow on the edited layout");
      out.check(fill_clean(trace, edited, ilp2.methods[0],
                           s.session->config()),
                "check_fill found violations in a post-add placement");
    }
    s.session->apply_edit(WireEdit::remove_segment(es.segment));
  }
  check_expected(out, opt, sessions[0].base.fingerprint);
  if (opt.trace)
    replay_tiles(out, *sessions[0].session, Method::kIlp2,
                 sessions[0].base_features_per_tile);
}

// ---- service_eco ------------------------------------------------------------

struct RemoteSession {
  Layout layout;  ///< in-process copy: edit pool and reference replay
  pil::service::GenSpec gen;
  FlowConfig config;  ///< fill spec pinned, sent with open_session
  std::vector<WireEdit> edits;
  std::string id;
  std::uint64_t base_greedy_hash = 0;
  std::vector<std::optional<Reference>> added;  ///< ilp2 response per edit
};

struct Editor {
  std::vector<RemoteSession> sessions;
  Outcome part;  ///< this editor's share, merged after the run
};

pil::service::Request request(pil::service::Op op, const std::string& id) {
  pil::service::Request req;
  req.op = op;
  req.session = id;
  return req;
}

void run_service(const Options& opt, Outcome& out) {
  using pil::service::Op;
  Recorder* const trace = opt.trace ? &out.layers : nullptr;
  // The server and the editors share this process. With glibc's default
  // per-thread arenas the peak RSS depends on which thread happened to
  // allocate what, and differs between runs of one seed; with one arena
  // it repeats (see README.md).
  mallopt(M_ARENA_MAX, 1);

  // Editor 0's session 0 is the reference input.
  std::array<Editor, kEditors> editors;
  for (int i = 0; i < kEditors; ++i)
    for (int m = 0; m < kSessionsPerEditor; ++m) {
      RemoteSession s;
      s.gen.die_um = 256.0;
      s.gen.num_nets = 400;
      s.gen.seed = input_seed(opt.seed, i * kSessionsPerEditor + m);
      Span gen(trace, "layout.generate");
      s.layout = pil::layout::generate_synthetic_layout(s.gen.to_config());
      gen.stop();
      s.config = pinned(s.layout, flow_config());
      s.edits = stub_edits(s.layout, 0, splitmix64(s.gen.seed), kServiceEdits);
      s.added.resize(s.edits.size());
      editors[static_cast<std::size_t>(i)].sessions.push_back(std::move(s));
    }

  pil::service::ServerConfig server_config;
  server_config.tcp_port = 0;
  server_config.workers = 2;
  pil::service::Server server(server_config);
  server.start();
  const int port = server.tcp_port();

  // One timed request. Every response carries the server's stage split;
  // transport is what the client saw beyond it. The server computes in
  // its solve stage; the host speed for it is filled in after the run.
  auto call = [&](Outcome& part, pil::service::Client& client,
                  const pil::service::Request& req, Recorder* rec) {
    ++part.attempted;
    const Clock::time_point t0 = Clock::now();
    Span span(rec, "service.request");
    const pil::service::Response resp = client.call(req);
    span.stop();
    const double seconds = seconds_since(t0);
    part.ops.push_back({seconds, resp.stages ? resp.stages->solve_ms / 1e3 : 0.0,
                        1.0, rec != nullptr});
    bool failed = !resp.ok, was_degraded = resp.shed || resp.degraded;
    for (const pil::service::MethodSummary& m : resp.methods) {
      failed = failed || m.tiles_failed > 0;
      was_degraded = was_degraded || m.tiles_degraded > 0 ||
                     m.tiles_node_limit > 0;
    }
    part.failed += failed ? 1 : 0;
    part.degraded += was_degraded ? 1 : 0;
    part.check(resp.ok, "a request failed: " + resp.error);
    if (rec != nullptr && resp.stages) {
      const pil::service::StageBreakdown& st = *resp.stages;
      rec->add("service.transport", seconds * 1e3 - st.total_ms());
      rec->add("service.admission", st.admission_ms);
      rec->add("service.queue", st.queue_ms);
      rec->add("service.session", st.session_ms);
      rec->add("service.solve", st.solve_ms);
      rec->add("service.write", st.write_ms);
    }
    return resp;
  };

  std::latch start_line(kEditors + 1);
  std::atomic<int> running{kEditors};
  auto editor_main = [&](Editor& ed, std::uint64_t editor_id) {
    struct Done {
      std::atomic<int>& running;
      ~Done() { --running; }
    } done{running};
    Outcome& part = ed.part;
    bool started = false;
    try {
      pil::service::Client client = pil::service::Client::connect_tcp(port);
      // Set-up unit: open one session and warm both methods' caches.
      for (RemoteSession& s : ed.sessions) {
        const Clock::time_point t0 = Clock::now();
        double compute_s = 0.0;
        auto setup_call = [&](const pil::service::Request& req,
                              const char* what) {
          pil::service::Response resp = client.call(req);
          PIL_REQUIRE(resp.ok, std::string(what) + " failed: " + resp.error);
          if (resp.stages) compute_s += resp.stages->solve_ms / 1e3;
          return resp;
        };
        pil::service::Request open = request(Op::kOpenSession, "");
        open.gen = s.gen;
        open.config = s.config;
        s.id = setup_call(open, "open_session").session;
        pil::service::Request warm = request(Op::kSolve, s.id);
        warm.methods = {Method::kIlp2};
        setup_call(warm, "warm-up ilp2 solve");
        warm.methods = {Method::kGreedy};
        s.base_greedy_hash =
            setup_call(warm, "warm-up greedy solve").methods[0].placement_hash;
        part.setup.push_back({seconds_since(t0), compute_s, 1.0, false});
      }
      started = true;
      start_line.arrive_and_wait();
      // Closed loop, no think time: add stub -> solve ilp2 -> remove stub
      // -> solve greedy. A pass covers every edit of every session.
      std::uint64_t k = 0;
      const Clock::time_point editor_start = Clock::now();
      for (int pass = 0; more_passes(opt, kServicePassS, pass, editor_start);
           ++pass) {
        Recorder* rec = spans_on(opt, pass) ? trace : nullptr;
        for (std::size_t e = 0; e < static_cast<std::size_t>(kServiceEdits);
             ++e)
          for (RemoteSession& s : ed.sessions) {
            ++k;
            pil::service::Request add = request(Op::kApplyEdit, s.id);
            add.edit = s.edits[e];
            add.request_id = (editor_id << 48) | (k << 1);
            const pil::service::Response added = call(part, client, add, rec);
            if (!added.ok || !added.edit) return;  // session state unknown
            pil::service::Request solve = request(Op::kSolve, s.id);
            solve.methods = {Method::kIlp2};
            const pil::service::Response ilp2 =
                call(part, client, solve, rec);
            if (ilp2.ok) {
              const Reference got{ilp2.methods[0].placement_hash,
                                  ilp2.methods[0].delay_ps};
              if (!s.added[e])
                s.added[e] = got;
              else
                part.check(got == *s.added[e],
                           "an ilp2 response differs from the edit's first "
                           "visit");
            }
            pil::service::Request remove = request(Op::kApplyEdit, s.id);
            remove.edit = WireEdit::remove_segment(
                static_cast<pil::layout::SegmentId>(added.edit->segment));
            remove.request_id = (editor_id << 48) | (k << 1) | 1;
            if (!call(part, client, remove, rec).ok) return;
            solve.methods = {Method::kGreedy};
            const pil::service::Response greedy =
                call(part, client, solve, rec);
            part.check(
                greedy.ok &&
                    greedy.methods[0].placement_hash == s.base_greedy_hash,
                "a greedy response differs from the base greedy placement");
          }
      }
    } catch (const std::exception& ex) {
      ++part.failed;
      part.check(false, ex.what());
      if (!started) start_line.arrive_and_wait();
    }
  };

  Clock::time_point start;
  std::vector<double> speeds;
  {
    std::vector<std::jthread> threads;
    for (int i = 0; i < kEditors; ++i)
      threads.emplace_back(editor_main,
                           std::ref(editors[static_cast<std::size_t>(i)]),
                           static_cast<std::uint64_t>(i + 1));
    start_line.arrive_and_wait();
    start = Clock::now();
    // The editors mostly wait on the network; meanwhile this thread
    // measures the host speed every 50 ms.
    do {
      speeds.push_back(host_speed());
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    } while (running.load() > 0);
  }  // joins the editors
  out.loop_s = seconds_since(start);
  out.peak_rss_mb = peak_rss_mb();
  const pil::service::ServerStats stats = server.stats();
  server.stop();
  if (opt.trace) {
    out.layers.add("service.queue_peak", stats.queue_peak);
    out.layers.add("service.shed", static_cast<double>(stats.shed));
  }

  for (Editor& ed : editors) {
    Outcome& part = ed.part;
    out.attempted += part.attempted;
    out.failed += part.failed;
    out.degraded += part.degraded;
    out.check_misses += part.check_misses;
    auto append = [](auto& to, const auto& v) {
      to.insert(to.end(), v.begin(), v.end());
    };
    append(out.check_failures, part.check_failures);
    append(out.setup, part.setup);
    append(out.ops, part.ops);
  }
  const double speed = percentile(speeds, 0.5);
  for (Sample& x : out.setup) x.speed = speed;
  for (Sample& x : out.ops) x.speed = speed;

  // Untimed in-process replay of every editor's edit sequence: the layer
  // split the responses do not expose, and the expected results.
  for (std::size_t i = 0; i < editors.size(); ++i)
    for (std::size_t m = 0; m < editors[i].sessions.size(); ++m) {
      const RemoteSession& s = editors[i].sessions[m];
      const bool reference = i == 0 && m == 0;
      const std::unique_ptr<FillSession> ref =
          make_session(trace, s.layout, s.config);
      const FlowResult base_ilp2 = ref->solve({Method::kIlp2});
      if (opt.trace)
        record_solver_work(out.layers, base_ilp2.methods[0],
                           ref->stats().tiles_resolved);
      const FlowResult greedy = ref->solve({Method::kGreedy});
      out.check(reference_of(greedy.methods[0]).fingerprint ==
                    s.base_greedy_hash,
                "greedy responses differ from an in-process greedy solve");
      bool checked = false;
      for (std::size_t e = 0; e < s.edits.size(); ++e) {
        if (!s.added[e]) continue;
        const SessionStats before = ref->stats();
        const EditStats es = apply_edit(trace, *ref, s.edits[e]);
        const FlowResult ilp2 = solve(trace, *ref, Method::kIlp2);
        if (opt.trace) {
          record_edit(out.layers, es);
          record_session_work(out.layers, before, ref->stats());
        }
        out.check(reference_of(ilp2.methods[0]) == *s.added[e],
                  "ilp2 responses differ from an in-process replay of the "
                  "editor's edits");
        if (reference) out.tau_ps.push_back(s.added[e]->tau_ps);
        if (!checked)
          out.check(fill_clean(trace, ref->layout(), ilp2.methods[0],
                               ref->config()),
                    "check_fill found violations in an ilp2 placement");
        checked = true;
        ref->apply_edit(WireEdit::remove_segment(es.segment));
      }
      if (reference) {
        check_expected(out, opt, s.base_greedy_hash);
        if (opt.trace)
          replay_tiles(out, *ref, Method::kIlp2,
                       base_ilp2.methods[0].placement.features_per_tile);
      }
    }
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "oneshot_ilp2", "oneshot_greedy", "eco_ilp2", "service_eco"};
  return names;
}

void run_workload(const Options& options, Outcome& out) {
  if (options.workload == "oneshot_ilp2")
    run_oneshot(options, Method::kIlp2, out);
  else if (options.workload == "oneshot_greedy")
    run_oneshot(options, Method::kGreedy, out);
  else if (options.workload == "eco_ilp2")
    run_eco(options, out);
  else if (options.workload == "service_eco")
    run_service(options, out);
  else
    throw pil::Error("unknown workload '" + options.workload + "'");
}

}  // namespace pilperf
