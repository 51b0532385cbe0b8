#include "pil/pilfill/solvers.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <queue>

#include "pil/obs/journal.hpp"
#include "pil/util/fault.hpp"
#include "pil/util/log.hpp"

namespace pil::pilfill {

namespace {

double res_factor(const InstanceColumn& c, Objective obj) {
  return obj == Objective::kWeighted ? c.res_weighted : c.res_nonweighted;
}

TileSolveResult make_result(const TileInstance& inst) {
  TileSolveResult r;
  r.counts.assign(inst.cols.size(), 0);
  return r;
}

void finish(const TileInstance& inst, TileSolveResult& r) {
  r.placed = std::accumulate(r.counts.begin(), r.counts.end(), 0);
  r.shortfall = inst.required - r.placed;
  PIL_ASSERT(r.shortfall >= 0, "placed more features than required");
  for (std::size_t k = 0; k < r.counts.size(); ++k)
    PIL_ASSERT(r.counts[k] >= 0 && r.counts[k] <= inst.cols[k].num_sites,
               "column capacity violated");
}

/// Feasible feature budget for this tile.
int budget(const TileInstance& inst) {
  return std::min(inst.required, inst.capacity());
}

/// An incumbent exists for kOptimal, and for kNodeLimit/kDeadline when the
/// search found one before the budget ran out (x left empty otherwise).
bool has_usable_solution(const ilp::IlpSolution& sol) {
  return sol.status == ilp::IlpStatus::kOptimal ||
         ((sol.status == ilp::IlpStatus::kNodeLimit ||
           sol.status == ilp::IlpStatus::kDeadline) &&
          !sol.x.empty());
}

void record_ilp_stats(const ilp::IlpSolution& sol, TileSolveResult& r) {
  r.bb_nodes = sol.nodes_explored;
  r.lp_solves = sol.lp_solves;
  r.simplex_iterations = sol.lp_iterations;
  r.ilp_status = sol.status;
  r.lp_status = sol.lp_status;
  if (has_usable_solution(sol) && sol.status != ilp::IlpStatus::kOptimal)
    r.ilp_gap = sol.gap();
}

}  // namespace

std::vector<double> column_cost_table(const SolverContext& ctx, double d_um,
                                      int capacity) {
  PIL_REQUIRE(ctx.model != nullptr, "cost table needs a coupling model");
  std::vector<double> t(static_cast<std::size_t>(capacity) + 1, 0.0);
  if (ctx.style == cap::FillStyle::kFloating) {
    PIL_REQUIRE(ctx.lut != nullptr, "floating cost table needs the LUT");
    const auto& lut = ctx.lut->table(d_um, capacity);
    for (int n = 1; n <= capacity; ++n) t[n] = lut[n] * ctx.switch_factor;
  } else {
    for (int n = 1; n <= capacity; ++n)
      t[n] = ctx.model->grounded_column_delta_line_cap_ff(
                 n, ctx.rules.feature_um, ctx.rules.buffer_um, d_um) *
             ctx.switch_factor;
  }
  return t;
}

const char* to_string(Method m) {
  switch (m) {
    case Method::kNormal: return "Normal";
    case Method::kIlp1: return "ILP-I";
    case Method::kIlp2: return "ILP-II";
    case Method::kGreedy: return "Greedy";
    case Method::kConvex: return "Convex";
  }
  return "?";
}

TileSolveResult solve_tile_normal(const TileInstance& inst, Rng& rng) {
  TileSolveResult r = make_result(inst);
  int remaining_total = inst.capacity();
  std::vector<int> remaining(inst.cols.size());
  for (std::size_t k = 0; k < inst.cols.size(); ++k)
    remaining[k] = inst.cols[k].num_sites;

  // Uniform sampling of slack sites without replacement: each placement
  // picks a site uniformly among the still-free ones.
  for (int placed = budget(inst); placed > 0; --placed) {
    std::int64_t pick = rng.uniform_int(0, remaining_total - 1);
    std::size_t k = 0;
    while (pick >= remaining[k]) {
      pick -= remaining[k];
      ++k;
    }
    r.counts[k] += 1;
    remaining[k] -= 1;
    remaining_total -= 1;
  }
  finish(inst, r);
  return r;
}

TileSolveResult solve_tile_greedy(const TileInstance& inst,
                                  const SolverContext& ctx) {
  PIL_REQUIRE(ctx.model != nullptr, "greedy needs a coupling model");
  TileSolveResult r = make_result(inst);

  // Figure 8, steps 11-13: key each column by the delay it would add if
  // filled to capacity, then fill the cheapest columns completely. The
  // key is column_cost_table(...).back() times the resistance factor, read
  // without building the table.
  std::vector<std::pair<double, int>> order;
  order.reserve(inst.cols.size());
  for (std::size_t k = 0; k < inst.cols.size(); ++k) {
    const InstanceColumn& c = inst.cols[k];
    double key = 0.0;
    if (c.two_sided && c.num_sites > 0) {
      double dcap;
      if (ctx.style == cap::FillStyle::kFloating) {
        PIL_REQUIRE(ctx.lut != nullptr, "greedy floating fill needs the LUT");
        dcap = ctx.lut->table(c.d, c.num_sites)[c.num_sites];
      } else {
        dcap = ctx.model->grounded_column_delta_line_cap_ff(
            c.num_sites, ctx.rules.feature_um, ctx.rules.buffer_um, c.d);
      }
      key = dcap * ctx.switch_factor * res_factor(c, ctx.objective);
    }
    order.emplace_back(key, static_cast<int>(k));
  }
  std::sort(order.begin(), order.end());

  int todo = budget(inst);
  for (const auto& [key, k] : order) {
    if (todo == 0) break;
    const int take = std::min(todo, inst.cols[k].num_sites);
    r.counts[k] = take;
    todo -= take;
  }
  finish(inst, r);
  return r;
}

TileSolveResult solve_tile_ilp1(const TileInstance& inst,
                                const SolverContext& ctx) {
  PIL_REQUIRE(ctx.model != nullptr, "ILP-I needs a coupling model");
  PIL_REQUIRE(ctx.style == cap::FillStyle::kFloating,
              "ILP-I's linear model only applies to floating fill");
  TileSolveResult r = make_result(inst);
  const int f = budget(inst);
  if (f == 0) {
    finish(inst, r);
    return r;
  }
  if (f == inst.capacity()) {  // trivially full
    for (std::size_t k = 0; k < inst.cols.size(); ++k)
      r.counts[k] = inst.cols[k].num_sites;
    finish(inst, r);
    return r;
  }

  // min sum slope_k * m_k  s.t.  sum m_k = F, 0 <= m_k <= C_k integer,
  // where slope_k is the per-feature *linear-model* delay (Eq. 6 x Eq. 13).
  std::vector<double> slope(inst.cols.size(), 0.0);
  double max_slope = 0.0;
  for (std::size_t k = 0; k < inst.cols.size(); ++k) {
    const InstanceColumn& c = inst.cols[k];
    if (c.two_sided) {
      slope[k] = ctx.model->column_delta_cap_linear_ff(1, ctx.rules.feature_um,
                                                       c.d) *
                 res_factor(c, ctx.objective);
      max_slope = std::max(max_slope, slope[k]);
    }
  }
  const double scale = max_slope > 0 ? 1.0 / max_slope : 1.0;

  lp::LpProblem prob;
  std::vector<lp::RowEntry> sum_row;
  for (std::size_t k = 0; k < inst.cols.size(); ++k) {
    const int var = prob.add_var(0.0, inst.cols[k].num_sites,
                                 slope[k] * scale);
    sum_row.push_back({var, 1.0});
  }
  prob.add_row(lp::Sense::kEq, f, std::move(sum_row));

  const std::vector<bool> integer(inst.cols.size(), true);
  const ilp::IlpSolution sol = ilp::solve_ilp(prob, integer, ctx.ilp);
  record_ilp_stats(sol, r);
  if (has_usable_solution(sol)) {
    for (std::size_t k = 0; k < inst.cols.size(); ++k)
      r.counts[k] = static_cast<int>(std::lround(sol.x[k]));
  } else {
    PIL_WARN("ILP-I tile " << inst.tile_flat << " unsolved ("
             << to_string(sol.status) << "); requirement becomes shortfall");
  }
  finish(inst, r);
  return r;
}

TileSolveResult solve_tile_ilp2(const TileInstance& inst,
                                const SolverContext& ctx) {
  PIL_REQUIRE(ctx.lut != nullptr, "ILP-II needs a capacitance LUT");
  // Grounded fill has a step cost (all counts >= 1 cost the same), which
  // turns MDFC into a set-cover-like problem whose binary-expansion LP
  // relaxation is weak -- branch-and-bound degenerates. Use Greedy for
  // grounded fill; ILP-II is defined on the convex floating model.
  PIL_REQUIRE(ctx.style == cap::FillStyle::kFloating,
              "ILP-II requires the floating-fill model");
  TileSolveResult r = make_result(inst);
  const int f = budget(inst);
  if (f == 0) {
    finish(inst, r);
    return r;
  }
  if (f == inst.capacity()) {
    for (std::size_t k = 0; k < inst.cols.size(); ++k)
      r.counts[k] = inst.cols[k].num_sites;
    finish(inst, r);
    return r;
  }

  // Binary expansion (Eqs. 16-23): y_{k,n} = 1 iff column k holds exactly n
  // features. Costs come from the pre-built lookup table f(n, d_k), read in
  // place. First pass: the costs, flat in variable order, and the
  // normalization scale.
  std::vector<double> cost;
  cost.reserve(inst.capacity());
  double max_cost = 0.0;
  for (const InstanceColumn& c : inst.cols) {
    if (c.num_sites == 0) continue;
    if (!c.two_sided) {
      cost.insert(cost.end(), c.num_sites, 0.0);
      continue;
    }
    const std::vector<double>& lut = ctx.lut->table(c.d, c.num_sites);
    const double rf = res_factor(c, ctx.objective);
    for (int n = 1; n <= c.num_sites; ++n) {
      cost.push_back(lut[n] * ctx.switch_factor * rf);
      max_cost = std::max(max_cost, cost.back());
    }
  }
  const double scale = max_cost > 0 ? 1.0 / max_cost : 1.0;

  lp::LpProblem prob;
  std::vector<int> first_var(inst.cols.size(), -1);  // y_{k,1}; y_{k,n} follow
  std::vector<lp::RowEntry> sum_row;
  for (std::size_t k = 0; k < inst.cols.size(); ++k) {
    const InstanceColumn& c = inst.cols[k];
    if (c.num_sites == 0) continue;
    std::vector<lp::RowEntry> sos_row;
    first_var[k] = prob.num_vars();
    for (int n = 1; n <= c.num_sites; ++n) {
      const int var = prob.num_vars();
      prob.add_var(0.0, 1.0, cost[var] * scale);
      sum_row.push_back({var, static_cast<double>(n)});
      sos_row.push_back({var, 1.0});
    }
    // At most one count level selected per column (none = zero features).
    prob.add_row(lp::Sense::kLe, 1.0, std::move(sos_row));
  }
  prob.add_row(lp::Sense::kEq, f, std::move(sum_row));

  const std::vector<bool> integer(prob.num_vars(), true);
  const ilp::IlpSolution sol = ilp::solve_ilp(prob, integer, ctx.ilp);
  record_ilp_stats(sol, r);
  if (has_usable_solution(sol)) {
    for (std::size_t k = 0; k < inst.cols.size(); ++k) {
      if (first_var[k] < 0) continue;
      for (int n = 1; n <= inst.cols[k].num_sites; ++n)
        if (sol.x[first_var[k] + n - 1] > 0.5) r.counts[k] = n;
    }
  } else {
    PIL_WARN("ILP-II tile " << inst.tile_flat << " unsolved ("
             << to_string(sol.status) << "); requirement becomes shortfall");
  }
  finish(inst, r);
  return r;
}

TileSolveResult solve_tile_convex(const TileInstance& inst,
                                  const SolverContext& ctx) {
  PIL_REQUIRE(ctx.lut != nullptr, "convex allocation needs a capacitance LUT");
  PIL_REQUIRE(ctx.style == cap::FillStyle::kFloating,
              "marginal-cost allocation requires the convex floating model");
  TileSolveResult r = make_result(inst);

  // Marginal cost of the (n+1)-th feature in column k is
  // cost_k(n+1) - cost_k(n), nondecreasing in n (the plate model is convex
  // in the feature count), so repeatedly taking the globally cheapest
  // marginal is exact.
  using Entry = std::pair<double, int>;  // (marginal cost, column)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  auto marginal = [&](std::size_t k, int n_next) {
    const InstanceColumn& c = inst.cols[k];
    if (!c.two_sided) return 0.0;
    const auto& lut = ctx.lut->table(c.d, c.num_sites);
    return (lut[n_next] - lut[n_next - 1]) * ctx.switch_factor *
           res_factor(c, ctx.objective);
  };
  for (std::size_t k = 0; k < inst.cols.size(); ++k)
    if (inst.cols[k].num_sites > 0)
      heap.emplace(marginal(k, 1), static_cast<int>(k));

  for (int todo = budget(inst); todo > 0; --todo) {
    PIL_ASSERT(!heap.empty(), "capacity accounting mismatch");
    const auto [cost, k] = heap.top();
    heap.pop();
    r.counts[k] += 1;
    if (r.counts[k] < inst.cols[k].num_sites)
      heap.emplace(marginal(k, r.counts[k] + 1), k);
  }
  finish(inst, r);
  return r;
}

TileSolveResult solve_tile(Method method, const TileInstance& inst,
                           const SolverContext& ctx, Rng& rng) {
  switch (method) {
    case Method::kNormal: return solve_tile_normal(inst, rng);
    case Method::kIlp1: return solve_tile_ilp1(inst, ctx);
    case Method::kIlp2: return solve_tile_ilp2(inst, ctx);
    case Method::kGreedy: return solve_tile_greedy(inst, ctx);
    case Method::kConvex: return solve_tile_convex(inst, ctx);
  }
  throw Error("unknown method");
}

const char* to_string(FailureReason r) {
  switch (r) {
    case FailureReason::kTileDeadline: return "tile_deadline";
    case FailureReason::kFlowDeadline: return "flow_deadline";
    case FailureReason::kNodeLimit: return "node_limit";
    case FailureReason::kIlpError: return "ilp_error";
    case FailureReason::kInjectedFault: return "injected_fault";
    case FailureReason::kException: return "exception";
  }
  return "?";
}

namespace {

/// The degradation ladder: strictly cheaper methods that still meet the
/// density constraint (the paper's own fallback ordering -- ILP blows its
/// budget, Greedy fills the cheapest columns, Normal fills at random).
/// kNormal is the floor and maps to itself.
Method next_ladder_step(Method m) {
  switch (m) {
    case Method::kIlp1:
    case Method::kIlp2:
    case Method::kConvex:
      return Method::kGreedy;
    case Method::kGreedy:
    case Method::kNormal:
      return Method::kNormal;
  }
  return Method::kNormal;
}

/// Zero out a (possibly default-constructed) result so it reports an empty
/// placement for `inst` while keeping any solver stats already recorded.
void reset_placement(const TileInstance& inst, TileSolveResult& r) {
  r.counts.assign(inst.cols.size(), 0);
  r.placed = 0;
  r.shortfall = inst.required;
  r.ilp_gap = 0.0;
}

/// Journal payload decoder covering the pilfill enums (see JournalNamer).
/// Field 'a' always carries a Method; field 'b' a per-kind secondary enum.
const char* journal_field_name(obs::JournalEventKind kind, char field,
                               std::uint64_t value) {
  using K = obs::JournalEventKind;
  if (field == 'a') {
    switch (kind) {
      case K::kMethodBegin:
      case K::kMethodEnd:
      case K::kTileBegin:
      case K::kTileEnd:
      case K::kLadderStep:
      case K::kTileFailure:
        return value <= static_cast<std::uint64_t>(Method::kConvex)
                   ? to_string(static_cast<Method>(value))
                   : nullptr;
      default:
        return nullptr;
    }
  }
  if (field == 'b') {
    switch (kind) {
      case K::kLadderStep:
      case K::kTileFailure:
        return value <= static_cast<std::uint64_t>(FailureReason::kException)
                   ? to_string(static_cast<FailureReason>(value))
                   : nullptr;
      case K::kDeadlineExpired:
        return value != 0 ? "flow_deadline" : "tile_deadline";
      case K::kFaultInjected:
        return value < static_cast<std::uint64_t>(util::kFaultSiteCount)
                   ? util::to_string(static_cast<util::FaultSite>(value))
                   : nullptr;
      default:
        return nullptr;
    }
  }
  return nullptr;
}

/// Journal one tile-failure record (kind payloads per journal.hpp).
void journal_failure(const TileFailure& f) {
  obs::journal_record(obs::JournalEventKind::kTileFailure,
                      static_cast<std::uint16_t>(f.served_by),
                      static_cast<std::uint32_t>(f.reason),
                      f.used_incumbent ? 1 : 0);
}

}  // namespace

void register_journal_namer() {
  obs::set_journal_namer(&journal_field_name);
}

TileSolveResult solve_tile_guarded(Method method, const TileInstance& inst,
                                   const SolverContext& ctx, Rng& rng) {
  const util::Deadline* flow = ctx.flow_deadline;

  // Attribute every event below (including simplex / B&B milestones deep
  // in the solvers) to this tile, inheriting the session/flow ids the
  // worker pool installed.
  obs::JournalCorrelation corr = obs::journal_correlation();
  corr.tile = inst.tile_flat;
  obs::JournalScope journal_scope(corr);

  TileFailure fail;
  fail.tile = inst.tile_flat;
  fail.method = method;
  fail.served_by = method;

  TileSolveResult primary;
  bool failed = false;
  if (flow != nullptr && flow->expired() && ctx.degrade_on_failure &&
      method != Method::kNormal) {
    // The whole-flow budget is already gone: don't even start the primary
    // solve; serve the tile from the ladder right away.
    failed = true;
    fail.reason = FailureReason::kFlowDeadline;
    fail.detail = "flow deadline expired before tile solve";
    obs::journal_record(obs::JournalEventKind::kDeadlineExpired, 0, 1);
  } else {
    // Per-tile budget, clipped by the flow deadline. Only ILP methods read
    // it (through the B&B/simplex deadline hooks); when neither budget is
    // configured local.ilp.deadline stays null and the solvers skip every
    // clock read.
    std::optional<util::Deadline> tile_deadline;
    SolverContext local = ctx;
    if (local.ilp.deadline == nullptr) {
      if (ctx.tile_deadline_seconds > 0.0) {
        tile_deadline = util::Deadline::after(ctx.tile_deadline_seconds);
        if (flow != nullptr)
          tile_deadline = util::Deadline::sooner(*tile_deadline, *flow);
        local.ilp.deadline = &*tile_deadline;
      } else if (flow != nullptr) {
        local.ilp.deadline = flow;
      }
    }

    try {
      if (util::faults_armed())
        util::maybe_fault(util::FaultSite::kTileSolve,
                          static_cast<std::uint64_t>(inst.tile_flat));
      primary = solve_tile(method, inst, local, rng);
      switch (primary.ilp_status) {
        case ilp::IlpStatus::kOptimal:
          return primary;  // the common case: served directly
        case ilp::IlpStatus::kNodeLimit:
          // An unproven incumbent is still the tile's own method solving
          // it; counted as tiles_node_limit, not a failure (ladder only
          // when the search found nothing at all -- the sum constraint
          // forces placed == budget > 0 for any incumbent).
          if (primary.placed > 0) return primary;
          failed = true;
          fail.reason = FailureReason::kNodeLimit;
          fail.ilp_status = primary.ilp_status;
          fail.lp_status = primary.lp_status;
          fail.detail = "node budget exhausted without an incumbent";
          break;
        case ilp::IlpStatus::kDeadline: {
          const bool flow_expired = flow != nullptr && flow->expired();
          fail.reason = flow_expired ? FailureReason::kFlowDeadline
                                     : FailureReason::kTileDeadline;
          fail.ilp_status = primary.ilp_status;
          fail.lp_status = primary.lp_status;
          obs::journal_record(obs::JournalEventKind::kDeadlineExpired, 0,
                              flow_expired ? 1 : 0);
          if (primary.placed > 0) {
            // Budget ran out but the search had an incumbent: keep it.
            fail.used_incumbent = true;
            fail.detail = "deadline expired; unproven incumbent kept";
            primary.failure = fail;
            journal_failure(fail);
            return primary;
          }
          failed = true;
          fail.detail = "deadline expired without an incumbent";
          break;
        }
        default:  // kError / kInfeasible / kUnbounded
          failed = true;
          fail.reason = FailureReason::kIlpError;
          fail.ilp_status = primary.ilp_status;
          fail.lp_status = primary.lp_status;
          fail.detail = std::string("ILP ended ") +
                        ilp::to_string(primary.ilp_status) + " (LP " +
                        lp::to_string(primary.lp_status) + ")";
          break;
      }
    } catch (const util::InjectedFault& e) {
      failed = true;
      fail.reason = FailureReason::kInjectedFault;
      fail.detail = e.what();
      obs::journal_record(obs::JournalEventKind::kFaultInjected, 0,
                          static_cast<std::uint32_t>(e.site()), e.key());
    } catch (const std::exception& e) {
      failed = true;
      fail.reason = FailureReason::kException;
      fail.detail = e.what();
    }
  }
  PIL_ASSERT(failed, "guarded solve fell through without an outcome");

  // The primary attempt may have died before sizing its result (an
  // exception mid-solve); normalize to an empty placement either way, but
  // keep whatever search stats it accumulated.
  reset_placement(inst, primary);

  if (!ctx.degrade_on_failure) {
    primary.failure = fail;
    journal_failure(fail);
    return primary;
  }

  // Walk the ladder. Each step is strictly cheaper; Normal needs nothing
  // but the instance, so the chain effectively cannot end empty-handed.
  Method step = method;
  while (step != Method::kNormal) {
    step = next_ladder_step(step);
    obs::journal_record(obs::JournalEventKind::kLadderStep,
                        static_cast<std::uint16_t>(step),
                        static_cast<std::uint32_t>(fail.reason));
    try {
      TileSolveResult fb = solve_tile(step, inst, ctx, rng);
      fb.bb_nodes += primary.bb_nodes;
      fb.lp_solves += primary.lp_solves;
      fb.simplex_iterations += primary.simplex_iterations;
      fb.ilp_status = primary.ilp_status;
      fb.lp_status = primary.lp_status;
      fail.served_by = step;
      fb.failure = fail;
      journal_failure(fail);
      return fb;
    } catch (const std::exception& e) {
      fail.detail += std::string("; ") + to_string(step) +
                     " fallback failed: " + e.what();
    }
  }

  // Ladder exhausted (primary was Normal, or every step threw): the tile
  // places nothing and its requirement shows up as shortfall.
  fail.served_by = step;
  primary.failure = fail;
  journal_failure(fail);
  return primary;
}

}  // namespace pil::pilfill
