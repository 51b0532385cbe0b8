// Tests for the robustness layer: wall-clock deadlines and cancellation
// (util::Deadline) threaded through simplex / branch-and-bound / the
// per-tile flow, deterministic fault injection (util::FaultPlan), the
// per-tile degradation ladder with its TileFailure taxonomy, fail-fast
// containment, and the FillSession strong exception guarantee under an
// injected mid-edit fault.

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "pil/pil.hpp"

namespace pil::pilfill {
namespace {

using layout::Layout;

// Clears the process-global fault plan on scope exit, so a test that arms
// faults (directly or via FlowConfig::fault_spec) cannot leak them into
// the next test.
struct FaultGuard {
  ~FaultGuard() { util::clear_fault_plan(); }
};

Layout small_layout() {
  layout::SyntheticLayoutConfig cfg;
  cfg.die_um = 96;
  cfg.num_nets = 40;
  cfg.seed = 5;
  return layout::generate_synthetic_layout(cfg);
}

FlowConfig small_config(int threads = 1) {
  FlowConfig config;
  config.window_um = 32;
  config.r = 2;
  config.threads = threads;
  return config;
}

/// The knapsack LP relaxation: needs several simplex pivots, so a
/// one-iteration budget or an expired deadline reliably truncates it.
lp::LpProblem knapsack_problem() {
  lp::LpProblem p;
  const double val[4] = {8, 11, 6, 4};
  const double wt[4] = {5, 7, 4, 3};
  std::vector<lp::RowEntry> row;
  for (int j = 0; j < 4; ++j) {
    p.add_var(0, 1, -val[j]);
    row.push_back({j, wt[j]});
  }
  p.add_row(lp::Sense::kLe, 14, std::move(row));
  return p;
}

/// A valid perpendicular stub tapping the centerline of the first long
/// enough preferred-direction segment on `layer` (same construction as the
/// session edit tests).
WireEdit first_stub_edit(const Layout& l, layout::LayerId layer) {
  const bool vertical =
      l.layer(layer).preferred_direction == layout::Orientation::kVertical;
  for (const auto& seg : l.segments()) {
    if (seg.layer != layer || seg.removed()) continue;
    const bool seg_vertical =
        seg.orientation() == layout::Orientation::kVertical;
    if (seg_vertical != vertical || seg.length() < 6.0) continue;
    const bool along_x =
        seg.orientation() == layout::Orientation::kHorizontal;
    const double tap =
        0.5 * ((along_x ? seg.a.x : seg.a.y) + (along_x ? seg.b.x : seg.b.y));
    const double cross = along_x ? seg.a.y : seg.a.x;
    const double lim = along_x ? l.die().yhi : l.die().xhi;
    const double len = 2.5;
    const double tip = cross + len + 1.0 < lim ? cross + len : cross - len;
    const geom::Point a =
        along_x ? geom::Point{tap, cross} : geom::Point{cross, tap};
    const geom::Point b =
        along_x ? geom::Point{tap, tip} : geom::Point{tip, tap};
    return WireEdit::add_segment(seg.net, a, b, 0.4);
  }
  ADD_FAILURE() << "no editable segment on layer " << layer;
  return {};
}

// ------------------------------------------------------------- deadline ----

TEST(Deadline, DefaultIsUnlimited) {
  const util::Deadline d;
  EXPECT_FALSE(d.has_time_limit());
  EXPECT_FALSE(d.expired());
  EXPECT_FALSE(d.cancelled());
  EXPECT_TRUE(std::isinf(d.remaining_seconds()));
}

TEST(Deadline, ZeroOrNegativeBudgetIsAlreadyExpired) {
  EXPECT_TRUE(util::Deadline::after(0).expired());
  EXPECT_TRUE(util::Deadline::after(-5).expired());
  EXPECT_EQ(util::Deadline::after(0).remaining_seconds(), 0.0);
}

TEST(Deadline, GenerousBudgetIsNotExpired) {
  const util::Deadline d = util::Deadline::after(3600);
  EXPECT_TRUE(d.has_time_limit());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_seconds(), 3500.0);
  EXPECT_LE(d.remaining_seconds(), 3600.0);
}

TEST(Deadline, CopiesShareTheCancellationFlag) {
  const util::Deadline original;
  const util::Deadline copy = original;
  EXPECT_FALSE(copy.expired());
  original.cancel();
  EXPECT_TRUE(copy.cancelled());
  EXPECT_TRUE(copy.expired());
  EXPECT_EQ(copy.remaining_seconds(), 0.0);
}

TEST(Deadline, SoonerPicksTheEarlierLimit) {
  const util::Deadline unlimited;
  const util::Deadline tight = util::Deadline::after(0);
  const util::Deadline loose = util::Deadline::after(3600);
  EXPECT_TRUE(util::Deadline::sooner(unlimited, tight).expired());
  EXPECT_TRUE(util::Deadline::sooner(tight, unlimited).expired());
  EXPECT_FALSE(util::Deadline::sooner(unlimited, loose).expired());
  EXPECT_LE(util::Deadline::sooner(loose, tight).remaining_seconds(), 0.0);
}

TEST(Deadline, SoonerSharesFirstArgumentsCancellation) {
  const util::Deadline a;
  const util::Deadline s = util::Deadline::sooner(a, util::Deadline::after(3600));
  EXPECT_FALSE(s.expired());
  a.cancel();
  EXPECT_TRUE(s.expired());
}

TEST(Deadline, SoonerAbsorbsSecondArgumentsCancellation) {
  const util::Deadline a;
  const util::Deadline b;
  b.cancel();
  EXPECT_TRUE(util::Deadline::sooner(a, b).expired());
  EXPECT_FALSE(a.expired());  // a's own flag is untouched
}

TEST(DeadlinePoller, NullDeadlineNeverExpires) {
  util::DeadlinePoller poller(nullptr);
  for (int i = 0; i < 500; ++i) EXPECT_FALSE(poller.expired());
}

TEST(DeadlinePoller, ChecksTheClockOnTheFirstCall) {
  const util::Deadline expired = util::Deadline::after(0);
  util::DeadlinePoller poller(&expired);
  EXPECT_TRUE(poller.expired());
  util::DeadlinePoller fresh(&expired);
  const util::Deadline unlimited;
  util::DeadlinePoller never(&unlimited);
  EXPECT_FALSE(never.expired());
  EXPECT_TRUE(fresh.expired());
}

// ----------------------------------------------------------- fault plan ----

TEST(FaultPlan, ParsesMultiSiteSpecs) {
  const util::FaultPlan plan =
      util::FaultPlan::parse("tile_solve:throw:0.25,lp_pivot:delay:1:5", 42);
  EXPECT_FALSE(plan.empty());
  EXPECT_EQ(plan.seed(), 42u);
  const util::FaultRule& ts = plan.rule(util::FaultSite::kTileSolve);
  EXPECT_TRUE(ts.armed);
  EXPECT_EQ(ts.action, util::FaultAction::kThrow);
  EXPECT_DOUBLE_EQ(ts.probability, 0.25);
  const util::FaultRule& lp = plan.rule(util::FaultSite::kLpPivot);
  EXPECT_TRUE(lp.armed);
  EXPECT_EQ(lp.action, util::FaultAction::kDelay);
  EXPECT_DOUBLE_EQ(lp.probability, 1.0);
  EXPECT_DOUBLE_EQ(lp.delay_seconds, 0.005);
  EXPECT_FALSE(plan.rule(util::FaultSite::kBbNode).armed);
}

TEST(FaultPlan, EmptySpecIsDisarmed) {
  EXPECT_TRUE(util::FaultPlan::parse("").empty());
  EXPECT_TRUE(util::FaultPlan().empty());
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(util::FaultPlan::parse("bogus:throw:1"), Error);
  EXPECT_THROW(util::FaultPlan::parse("tile_solve:bogus:1"), Error);
  EXPECT_THROW(util::FaultPlan::parse("tile_solve:throw:1.5"), Error);
  EXPECT_THROW(util::FaultPlan::parse("tile_solve:throw:-0.1"), Error);
  EXPECT_THROW(util::FaultPlan::parse("tile_solve:throw:nope"), Error);
  EXPECT_THROW(util::FaultPlan::parse("tile_solve:throw:1:5"), Error);
  EXPECT_THROW(util::FaultPlan::parse("tile_solve:delay:1:-3"), Error);
  EXPECT_THROW(util::FaultPlan::parse("tile_solve"), Error);
  EXPECT_THROW(util::FaultPlan::parse(","), Error);
}

TEST(FaultPlan, DecisionsAreDeterministicAndSeedDependent) {
  util::FaultPlan a, b, other_seed;
  a.arm(util::FaultSite::kBbNode, util::FaultAction::kThrow, 0.3);
  b.arm(util::FaultSite::kBbNode, util::FaultAction::kThrow, 0.3);
  other_seed.arm(util::FaultSite::kBbNode, util::FaultAction::kThrow, 0.3);
  // parse() and arm() agree; only the seed changes the decision set.
  const util::FaultPlan parsed =
      util::FaultPlan::parse("bb_node:throw:0.3", 0);
  int fired = 0, differs = 0;
  for (std::uint64_t key = 0; key < 10000; ++key) {
    const bool f = a.fires(util::FaultSite::kBbNode, key);
    EXPECT_EQ(f, b.fires(util::FaultSite::kBbNode, key));
    EXPECT_EQ(f, parsed.fires(util::FaultSite::kBbNode, key));
    fired += f ? 1 : 0;
  }
  // "Probability" is a hash threshold: the firing rate tracks it loosely.
  EXPECT_GT(fired, 2000);
  EXPECT_LT(fired, 4000);
  const util::FaultPlan seeded = util::FaultPlan::parse("bb_node:throw:0.3", 7);
  for (std::uint64_t key = 0; key < 1000; ++key)
    differs += a.fires(util::FaultSite::kBbNode, key) !=
                       seeded.fires(util::FaultSite::kBbNode, key)
                   ? 1
                   : 0;
  EXPECT_GT(differs, 0);
}

TEST(FaultPlan, ProbabilityEndpoints) {
  util::FaultPlan plan;
  plan.arm(util::FaultSite::kLpPivot, util::FaultAction::kThrow, 1.0);
  plan.arm(util::FaultSite::kBbNode, util::FaultAction::kThrow, 0.0);
  for (std::uint64_t key = 0; key < 100; ++key) {
    EXPECT_TRUE(plan.fires(util::FaultSite::kLpPivot, key));
    EXPECT_FALSE(plan.fires(util::FaultSite::kBbNode, key));
  }
}

TEST(FaultPlan, MaybeFaultThrowsInjectedFaultWhenArmed) {
  FaultGuard guard;
  util::FaultPlan plan;
  plan.arm(util::FaultSite::kTileSolve, util::FaultAction::kThrow, 1.0);
  util::set_fault_plan(plan);
  EXPECT_TRUE(util::faults_armed());
  try {
    util::maybe_fault(util::FaultSite::kTileSolve, 3);
    FAIL() << "maybe_fault did not throw";
  } catch (const util::InjectedFault& e) {
    EXPECT_EQ(e.site(), util::FaultSite::kTileSolve);
    EXPECT_EQ(e.key(), 3u);
    EXPECT_NE(std::string(e.what()).find("tile_solve"), std::string::npos);
  }
  // InjectedFault is a pil::Error, so generic containment paths catch it.
  EXPECT_THROW(util::maybe_fault(util::FaultSite::kTileSolve, 4), Error);
  // Unarmed sites are untouched.
  EXPECT_NO_THROW(util::maybe_fault(util::FaultSite::kSessionEdit, 3));
  util::clear_fault_plan();
  EXPECT_FALSE(util::faults_armed());
  EXPECT_NO_THROW(util::maybe_fault(util::FaultSite::kTileSolve, 3));
}

TEST(FaultPlan, ArmsFromTheEnvironment) {
  FaultGuard guard;
  ASSERT_EQ(setenv("PIL_FAULT", "bb_node:throw:0.5", 1), 0);
  ASSERT_EQ(setenv("PIL_FAULT_SEED", "9", 1), 0);
  EXPECT_TRUE(util::arm_faults_from_env());
  EXPECT_TRUE(util::faults_armed());
  ASSERT_EQ(setenv("PIL_FAULT", "not-a-spec", 1), 0);
  EXPECT_THROW(util::arm_faults_from_env(), Error);
  unsetenv("PIL_FAULT");
  unsetenv("PIL_FAULT_SEED");
  util::clear_fault_plan();
  EXPECT_FALSE(util::arm_faults_from_env());  // no env -> plan untouched
  EXPECT_FALSE(util::faults_armed());
}

TEST(Robustness, EnumToStringCoverage) {
  EXPECT_STREQ(util::to_string(util::FaultSite::kTileSolve), "tile_solve");
  EXPECT_STREQ(util::to_string(util::FaultSite::kLpPivot), "lp_pivot");
  EXPECT_STREQ(util::to_string(util::FaultSite::kBbNode), "bb_node");
  EXPECT_STREQ(util::to_string(util::FaultSite::kSessionEdit),
               "session_edit");
  EXPECT_STREQ(util::to_string(util::FaultAction::kThrow), "throw");
  EXPECT_STREQ(util::to_string(util::FaultAction::kDelay), "delay");
  EXPECT_STREQ(to_string(FailureReason::kTileDeadline), "tile_deadline");
  EXPECT_STREQ(to_string(FailureReason::kFlowDeadline), "flow_deadline");
  EXPECT_STREQ(to_string(FailureReason::kNodeLimit), "node_limit");
  EXPECT_STREQ(to_string(FailureReason::kIlpError), "ilp_error");
  EXPECT_STREQ(to_string(FailureReason::kInjectedFault), "injected_fault");
  EXPECT_STREQ(to_string(FailureReason::kException), "exception");
  EXPECT_STREQ(lp::to_string(lp::SolveStatus::kDeadline), "deadline");
  EXPECT_STREQ(ilp::to_string(ilp::IlpStatus::kDeadline), "deadline");
}

// ------------------------------------------------- solver deadline paths ----

TEST(SimplexDeadline, ExpiredDeadlineStopsTheSolve) {
  const lp::LpProblem p = knapsack_problem();
  const util::Deadline expired = util::Deadline::after(0);
  lp::SimplexOptions options;
  options.deadline = &expired;
  EXPECT_EQ(lp::solve_lp(p, options).status, lp::SolveStatus::kDeadline);
}

TEST(SimplexDeadline, CancellationActsAsADeadline) {
  const lp::LpProblem p = knapsack_problem();
  const util::Deadline token;  // unlimited, but cancellable
  token.cancel();
  lp::SimplexOptions options;
  options.deadline = &token;
  EXPECT_EQ(lp::solve_lp(p, options).status, lp::SolveStatus::kDeadline);
}

TEST(SimplexDeadline, GenerousDeadlineChangesNothing) {
  const lp::LpProblem p = knapsack_problem();
  const lp::LpSolution plain = lp::solve_lp(p);
  const util::Deadline loose = util::Deadline::after(3600);
  lp::SimplexOptions options;
  options.deadline = &loose;
  const lp::LpSolution guarded = lp::solve_lp(p, options);
  ASSERT_EQ(plain.status, lp::SolveStatus::kOptimal);
  ASSERT_EQ(guarded.status, lp::SolveStatus::kOptimal);
  EXPECT_EQ(guarded.objective, plain.objective);
  EXPECT_EQ(guarded.x, plain.x);
  EXPECT_EQ(guarded.iterations, plain.iterations);
}

TEST(IlpDeadline, ExpiredDeadlineReportsDeadlineStatus) {
  const lp::LpProblem p = knapsack_problem();
  ilp::IlpOptions options;
  const util::Deadline expired = util::Deadline::after(0);
  options.deadline = &expired;
  const ilp::IlpSolution s =
      ilp::solve_ilp(p, std::vector<bool>(4, true), options);
  EXPECT_EQ(s.status, ilp::IlpStatus::kDeadline);
}

TEST(IlpDeadline, GenerousDeadlineChangesNothing) {
  const lp::LpProblem p = knapsack_problem();
  ilp::IlpOptions options;
  const util::Deadline loose = util::Deadline::after(3600);
  options.deadline = &loose;
  const ilp::IlpSolution guarded =
      ilp::solve_ilp(p, std::vector<bool>(4, true), options);
  const ilp::IlpSolution plain = ilp::solve_ilp(p, std::vector<bool>(4, true));
  ASSERT_EQ(plain.status, ilp::IlpStatus::kOptimal);
  ASSERT_EQ(guarded.status, ilp::IlpStatus::kOptimal);
  EXPECT_EQ(guarded.objective, plain.objective);
  EXPECT_EQ(guarded.x, plain.x);
}

TEST(IlpError, SurfacesTheUnderlyingSimplexStatus) {
  // A one-iteration LP budget truncates the root relaxation: the ILP must
  // report kError and name the simplex failure instead of hiding it.
  const lp::LpProblem p = knapsack_problem();
  ilp::IlpOptions options;
  options.lp.max_iterations = 1;
  const ilp::IlpSolution s =
      ilp::solve_ilp(p, std::vector<bool>(4, true), options);
  EXPECT_EQ(s.status, ilp::IlpStatus::kError);
  EXPECT_EQ(s.lp_status, lp::SolveStatus::kIterLimit);
}

// ------------------------------------------------- flow-level degradation ----

TEST(Degradation, CrippledLpFallsDownTheLadder) {
  const Layout l = small_layout();
  FlowConfig config = small_config(1);
  config.ilp.lp.max_iterations = 1;  // every real LP relaxation truncates
  const FlowResult res = run_pil_fill_flow(l, config, {Method::kIlp2});
  const MethodResult& mr = res.methods[0];
  EXPECT_GT(mr.tiles_degraded, 0);
  EXPECT_GT(mr.placed, 0);  // the ladder still served the tiles
  ASSERT_FALSE(mr.failures.empty());
  EXPECT_EQ(mr.tiles_degraded + mr.tiles_failed,
            static_cast<long long>(mr.failures.size()));
  for (const TileFailure& f : mr.failures) {
    EXPECT_EQ(f.method, Method::kIlp2);
    EXPECT_EQ(f.reason, FailureReason::kIlpError);
    EXPECT_EQ(f.ilp_status, ilp::IlpStatus::kError);
    EXPECT_EQ(f.lp_status, lp::SolveStatus::kIterLimit);
    EXPECT_EQ(f.served_by, Method::kGreedy);
    EXPECT_FALSE(f.used_incumbent);
    EXPECT_FALSE(f.detail.empty());
  }
}

TEST(Degradation, DisabledLadderLeavesFailedTilesEmpty) {
  const Layout l = small_layout();
  FlowConfig config = small_config(1);
  config.ilp.lp.max_iterations = 1;
  config.degrade_on_failure = false;
  const FlowResult res = run_pil_fill_flow(l, config, {Method::kIlp2});
  const MethodResult& mr = res.methods[0];
  EXPECT_GT(mr.tiles_failed, 0);
  EXPECT_GT(mr.shortfall, 0);  // the unmet requirement is visible, not silent
  for (const TileFailure& f : mr.failures)
    EXPECT_EQ(f.reason, FailureReason::kIlpError);
}

TEST(Degradation, TinyTileBudgetDegradesButCompletes) {
  const Layout l = small_layout();
  FlowConfig config = small_config(2);
  config.tile_deadline_seconds = 1e-9;
  const FlowResult res = run_pil_fill_flow(l, config, {Method::kIlp2});
  const MethodResult& mr = res.methods[0];
  EXPECT_GT(mr.tiles_degraded, 0);
  EXPECT_GT(mr.placed, 0);
  for (const TileFailure& f : mr.failures) {
    EXPECT_EQ(f.reason, FailureReason::kTileDeadline);
    EXPECT_EQ(f.ilp_status, ilp::IlpStatus::kDeadline);
  }
}

TEST(Degradation, ExpiredFlowBudgetServesRemainingTilesFromTheLadder) {
  const Layout l = small_layout();
  FlowConfig config = small_config(1);
  config.flow_deadline_seconds = 1e-9;
  const FlowResult res = run_pil_fill_flow(l, config, {Method::kIlp2});
  const MethodResult& mr = res.methods[0];
  EXPECT_GT(mr.tiles_degraded, 0);
  for (const TileFailure& f : mr.failures)
    EXPECT_EQ(f.reason, FailureReason::kFlowDeadline);
}

TEST(Degradation, NormalMethodIgnoresTheFlowDeadline) {
  // kNormal is the ladder's floor: it always runs, so an expired flow
  // budget leaves its results bit-identical to an unbudgeted run.
  const Layout l = small_layout();
  FlowConfig budgeted = small_config(1);
  budgeted.flow_deadline_seconds = 1e-9;
  const FlowResult a = run_pil_fill_flow(l, budgeted, {Method::kNormal});
  const FlowResult b = run_pil_fill_flow(l, small_config(1), {Method::kNormal});
  EXPECT_TRUE(flow_results_equivalent(a, b));
  EXPECT_TRUE(a.methods[0].failures.empty());
}

TEST(Degradation, GenerousBudgetsAreInvisible) {
  const Layout l = small_layout();
  FlowConfig budgeted = small_config(1);
  budgeted.tile_deadline_seconds = 3600;
  budgeted.flow_deadline_seconds = 3600;
  const FlowResult a = run_pil_fill_flow(l, budgeted, {Method::kIlp2});
  const FlowResult b = run_pil_fill_flow(l, small_config(1), {Method::kIlp2});
  EXPECT_TRUE(flow_results_equivalent(a, b));
  EXPECT_TRUE(a.methods[0].failures.empty());
}

// --------------------------------------------- fault-injected flow runs ----

TEST(FaultInjection, TileFaultsAreContainedAndThreadInvariant) {
  // A whole-tile fault and a fault deep inside the simplex pivot loop.
  for (const char* spec : {"tile_solve:throw:0.5", "lp_pivot:throw:0.01"}) {
    SCOPED_TRACE(spec);
    FaultGuard guard;
    const Layout l = small_layout();
    FlowConfig config = small_config(1);
    config.fault_spec = spec;
    const FlowResult serial = run_pil_fill_flow(l, config, {Method::kIlp2});
    config.threads = 4;
    const FlowResult parallel = run_pil_fill_flow(l, config, {Method::kIlp2});
    const FlowResult again = run_pil_fill_flow(l, config, {Method::kIlp2});
    // The fault decision hashes (seed, site, key), the key being the tile
    // id or the pivot index, so the same tiles fault regardless of thread
    // count or run order.
    EXPECT_TRUE(flow_results_equivalent(serial, parallel));
    EXPECT_TRUE(flow_results_equivalent(parallel, again));
    const MethodResult& mr = serial.methods[0];
    ASSERT_FALSE(mr.failures.empty());
    for (const TileFailure& f : mr.failures)
      EXPECT_EQ(f.reason, FailureReason::kInjectedFault);
    // The ladder serves every faulted tile: none is left empty.
    EXPECT_EQ(mr.tiles_failed, 0);
    EXPECT_EQ(mr.tiles_degraded, static_cast<long long>(mr.failures.size()));
  }
}

TEST(FaultInjection, EveryTileFaultingStillCompletesViaTheLadder) {
  FaultGuard guard;
  const Layout l = small_layout();
  FlowConfig config = small_config(2);
  config.fault_spec = "tile_solve:throw:1";
  const FlowResult res = run_pil_fill_flow(l, config, {Method::kIlp2});
  const MethodResult& mr = res.methods[0];
  EXPECT_GT(mr.tiles_degraded, 0);
  EXPECT_GT(mr.placed, 0);
  EXPECT_EQ(mr.tiles_degraded + mr.tiles_failed,
            static_cast<long long>(mr.failures.size()));
  for (const TileFailure& f : mr.failures) {
    EXPECT_EQ(f.reason, FailureReason::kInjectedFault);
    EXPECT_EQ(f.served_by, Method::kGreedy);
  }
}

TEST(FaultInjection, FailFastAbortsTheSolve) {
  FaultGuard guard;
  const Layout l = small_layout();
  FlowConfig config = small_config(2);
  config.fault_spec = "tile_solve:throw:1";
  config.fail_fast = true;
  EXPECT_THROW(run_pil_fill_flow(l, config, {Method::kIlp2}), Error);
}

TEST(FaultInjection, DelayActionDoesNotChangeResults) {
  FaultGuard guard;
  const Layout l = small_layout();
  FlowConfig delayed = small_config(1);
  delayed.fault_spec = "tile_solve:delay:1:1";
  const FlowResult a = run_pil_fill_flow(l, delayed, {Method::kIlp2});
  util::clear_fault_plan();
  const FlowResult b = run_pil_fill_flow(l, small_config(1), {Method::kIlp2});
  EXPECT_TRUE(flow_results_equivalent(a, b));
  EXPECT_TRUE(a.methods[0].failures.empty());
}

TEST(FaultInjection, SessionEditKeepsTheStrongGuarantee) {
  FaultGuard guard;
  const Layout l = small_layout();
  const FlowConfig config = small_config(1);
  FillSession session(l, config);
  const FlowResult before = session.solve({Method::kIlp2});

  util::FaultPlan plan;
  plan.arm(util::FaultSite::kSessionEdit, util::FaultAction::kThrow, 1.0);
  util::set_fault_plan(plan);
  const WireEdit edit = first_stub_edit(session.layout(), config.layer);
  EXPECT_THROW(session.apply_edit(edit), util::InjectedFault);
  util::clear_fault_plan();

  // The failed edit rolled back: the session still answers bit-identically
  // to its pre-edit self and to a fresh flow on its (unchanged) geometry.
  const FlowResult after = session.solve({Method::kIlp2});
  EXPECT_TRUE(flow_results_equivalent(before, after));
  const FlowResult fresh =
      run_pil_fill_flow(session.layout(), config, {Method::kIlp2});
  EXPECT_TRUE(flow_results_equivalent(after, fresh));

  // Disarmed, the same edit goes through.
  EXPECT_NO_THROW(session.apply_edit(edit));
}

TEST(FlowConfigValidate, ChecksRobustnessFields) {
  {
    FlowConfig c = small_config();
    c.tile_deadline_seconds = -1;
    EXPECT_THROW(c.validate(), Error);
  }
  {
    FlowConfig c = small_config();
    c.flow_deadline_seconds = -0.5;
    EXPECT_THROW(c.validate(), Error);
  }
  {
    FlowConfig c = small_config();
    c.fault_spec = "bogus:throw:1";
    EXPECT_THROW(c.validate(), Error);
  }
  {
    FlowConfig c = small_config();
    c.tile_deadline_seconds = 10;
    c.flow_deadline_seconds = 100;
    c.fault_spec = "tile_solve:throw:0.1";
    EXPECT_NO_THROW(c.validate());
  }
}

}  // namespace
}  // namespace pil::pilfill
