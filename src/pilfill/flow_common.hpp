#pragma once
/// \file flow_common.hpp
/// Internal helpers shared by the FillSession engine (session.cpp) and the
/// extension flows that run on a session (budgeted in driver.cpp, mvdc.cpp,
/// anneal.cpp): solver-context construction, placement assembly, metric
/// publication, and the deterministic worker pool that runs per-tile
/// solves. Not installed; include with a quoted path only.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "pil/obs/journal.hpp"
#include "pil/obs/metrics.hpp"
#include "pil/obs/stage.hpp"
#include "pil/pilfill/driver.hpp"
#include "pil/util/deadline.hpp"
#include "pil/util/fault.hpp"
#include "pil/util/rng.hpp"

namespace pil::pilfill::flow_detail {

/// Reject method/style combinations the solvers cannot model: ILP-I,
/// ILP-II, and Convex price fill through the convex floating-fill charge
/// model, so grounded fill is limited to Normal and Greedy.
inline void require_methods_supported(const ModelConfig& config,
                                      const std::vector<Method>& methods) {
  if (config.style != cap::FillStyle::kGrounded) return;
  for (const Method m : methods)
    PIL_REQUIRE(
        m != Method::kIlp1 && m != Method::kIlp2 && m != Method::kConvex,
        std::string("grounded fill supports the Normal and Greedy methods "
                    "only; ") +
            to_string(m) + " requires the floating-fill model");
}

inline SolverContext make_context(const FlowConfig& config,
                                  const cap::CouplingModel& model,
                                  cap::ColumnCapLut& lut,
                                  const util::Deadline* flow_deadline =
                                      nullptr) {
  SolverContext ctx;
  ctx.model = &model;
  ctx.lut = &lut;
  ctx.rules = config.rules;
  ctx.objective = config.objective;
  ctx.ilp = config.ilp;
  ctx.style = config.style;
  ctx.switch_factor = config.switch_factor;
  ctx.flow_deadline = flow_deadline;
  ctx.tile_deadline_seconds = config.tile_deadline_seconds;
  ctx.degrade_on_failure = config.degrade_on_failure;
  return ctx;
}

/// Turn per-instance-column counts into feature rectangles. All methods
/// stack deterministically from the bottom of each part; Normal's random
/// *site choice within a column* is electrically irrelevant (the
/// series-plate model sees only the count), so bottom-stacking keeps the
/// geometry simple without biasing any metric.
inline void append_rects(const TileInstance& inst,
                         const std::vector<int>& counts,
                         const fill::SlackColumns& slack,
                         const fill::FillRules& rules,
                         std::vector<geom::Rect>& out) {
  for (std::size_t k = 0; k < inst.cols.size(); ++k) {
    const int m = counts[k];
    if (m == 0) continue;
    const InstanceColumn& ic = inst.cols[k];
    const fill::SlackColumn& col = slack.columns()[ic.column];
    for (int i = 0; i < m; ++i)
      out.push_back(slack.site_rect(col, ic.first_site + i, rules));
  }
}

/// Fold one tile's solver internals into the method aggregate. A tile
/// carrying a failure record went through the degradation ladder (or kept
/// an unproven incumbent past a deadline): it counts as degraded when it
/// still produced a placement and failed when it placed nothing while
/// something was required.
inline void accumulate_tile_stats(const TileSolveResult& tile,
                                  MethodResult& mr) {
  mr.placed += tile.placed;
  mr.shortfall += tile.shortfall;
  mr.bb_nodes += tile.bb_nodes;
  mr.lp_solves += tile.lp_solves;
  mr.simplex_iterations += tile.simplex_iterations;
  if (tile.failure.has_value()) {
    if (tile.placed > 0 || tile.shortfall == 0)
      ++mr.tiles_degraded;
    else
      ++mr.tiles_failed;
    mr.failures.push_back(*tile.failure);
    return;
  }
  switch (tile.ilp_status) {
    case ilp::IlpStatus::kOptimal:
      break;
    case ilp::IlpStatus::kNodeLimit:
      ++mr.tiles_node_limit;
      mr.max_ilp_gap = std::max(mr.max_ilp_gap, tile.ilp_gap);
      break;
    default:
      // solve_tile_guarded converts abnormal exits into failure records;
      // a bare abnormal status can only come from a direct solve_tile
      // call. Count it as a failed tile without a structured record.
      ++mr.tiles_failed;
      break;
  }
}

/// Publish one solved method's aggregates into the global registry.
/// `tiles_solved` is the number of per-tile solves actually executed (in a
/// one-shot run: every instance; in an incremental re-solve: the dirty set).
inline void publish_method_metrics(const MethodResult& mr,
                                   std::size_t tiles_solved) {
  if (!obs::metrics_enabled()) return;
  auto& reg = obs::metrics();
  const char* m = to_string(mr.method);
  auto name = [&](const char* base) {
    return obs::labeled(base, {{"method", m}});
  };
  reg.counter(name("pilfill.tiles_solved"))
      .add(static_cast<long long>(tiles_solved));
  reg.counter(name("pilfill.features_placed")).add(mr.placed);
  reg.counter(name("pilfill.shortfall")).add(mr.shortfall);
  reg.counter(name("pil.ilp.bb_nodes")).add(mr.bb_nodes);
  reg.counter(name("pil.ilp.lp_solves")).add(mr.lp_solves);
  reg.counter(name("pil.lp.simplex_iterations")).add(mr.simplex_iterations);
  reg.counter(name("pilfill.tiles_node_limit")).add(mr.tiles_node_limit);
  reg.counter(name("pilfill.tiles_degraded")).add(mr.tiles_degraded);
  reg.counter(name("pilfill.tiles_failed")).add(mr.tiles_failed);
  for (const TileFailure& f : mr.failures)
    reg.counter(obs::labeled("pilfill.tile_failures",
                             {{"method", m}, {"reason", to_string(f.reason)}}))
        .add(1);
}

/// Solve `todo` tiles with `method` on the shared worker pool. Per-tile RNG
/// streams depend only on (config.seed, method, tile id), so results are
/// deterministic regardless of the thread count and of which tiles are in
/// `todo`. The thread count is clamped to the work size; with more than one
/// worker each owns a private ColumnCapLut (the cache is not thread-safe),
/// while the single-thread path reuses the caller's shared LUT via `ctx`.
///
/// Fault containment: every tile runs through solve_tile_guarded, and the
/// worker body adds a belt-and-braces catch so no exception can escape a
/// pool thread (which would std::terminate the process). With
/// `config.fail_fast` set, the first tile failure cancels the remaining
/// work and the pool rethrows it as pil::Error after joining --
/// deterministically reporting the lowest-indexed failed tile, regardless
/// of which worker hit a failure first.
inline std::vector<TileSolveResult> solve_instances_parallel(
    Method method, const std::vector<const TileInstance*>& todo,
    const SolverContext& ctx, const cap::CouplingModel& model,
    const FlowConfig& config) {
  // Per-tile RNG streams keep Normal's placement identical no matter how
  // tiles are distributed over threads.
  const std::uint64_t method_salt =
      config.seed ^ (0x9e37u + static_cast<unsigned>(method) * 0x85ebu);
  std::vector<TileSolveResult> solved(todo.size());
  const int threads = std::clamp(
      config.threads, 1, std::max(1, static_cast<int>(todo.size())));
  std::atomic<bool> abort{false};
  // Workers inherit the caller's (session, flow) attribution -- fresh
  // threads start with an empty thread-local scope.
  const obs::JournalCorrelation flow_corr = obs::journal_correlation();
  auto solve_range = [&](SolverContext local_ctx, std::atomic<size_t>& next,
                         int worker) {
    // Resolved once per worker: recording a tile's solve time is then one
    // lock-free histogram update.
    obs::Histogram* const hist =
        obs::stage_histogram("pilfill.solve.tile", to_string(method), worker);
    for (std::size_t i = next.fetch_add(1); i < todo.size();
         i = next.fetch_add(1)) {
      if (config.fail_fast && abort.load(std::memory_order_relaxed)) break;
      Rng rng(method_salt ^
              (static_cast<std::uint64_t>(todo[i]->tile_flat) *
               0x9E3779B97F4A7C15ull));
      obs::JournalCorrelation tile_corr = flow_corr;
      tile_corr.tile = todo[i]->tile_flat;
      obs::JournalScope journal_scope(tile_corr);
      try {
        obs::journal_record(obs::JournalEventKind::kTileBegin,
                            static_cast<std::uint16_t>(method), 0,
                            static_cast<std::uint64_t>(todo[i]->required));
        double tile_seconds = 0.0;
        {
          obs::Stage stage("pilfill.solve.tile", &tile_seconds, hist,
                           to_string(method), todo[i]->tile_flat);
          solved[i] = solve_tile_guarded(method, *todo[i], local_ctx, rng);
        }
        obs::journal_record(obs::JournalEventKind::kTileEnd,
                            static_cast<std::uint16_t>(method), 0,
                            static_cast<std::uint64_t>(solved[i].placed),
                            tile_seconds);
      } catch (const std::exception& e) {
        // solve_tile_guarded is documented not to throw; this is the last
        // line of defense keeping a pool thread from std::terminate.
        TileSolveResult& r = solved[i];
        r.counts.assign(todo[i]->cols.size(), 0);
        r.placed = 0;
        r.shortfall = todo[i]->required;
        TileFailure f;
        f.tile = todo[i]->tile_flat;
        f.method = method;
        f.served_by = method;
        f.reason = FailureReason::kException;
        f.detail = e.what();
        r.failure = f;
      }
      if (config.fail_fast && solved[i].failure.has_value())
        abort.store(true, std::memory_order_relaxed);
    }
  };
  if (threads <= 1) {
    std::atomic<size_t> next{0};
    solve_range(ctx, next, 0);
  } else {
    // The LUT cache is not thread-safe; each worker owns one.
    std::atomic<size_t> next{0};
    std::vector<cap::ColumnCapLut> luts(
        threads, cap::ColumnCapLut(model, config.rules.feature_um));
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (int w = 0; w < threads; ++w) {
      SolverContext local_ctx = ctx;
      local_ctx.lut = &luts[w];
      pool.emplace_back([&solve_range, local_ctx, &next, w] {
        obs::journal_set_thread_name("worker-" + std::to_string(w));
        solve_range(local_ctx, next, w);
      });
    }
    for (auto& t : pool) t.join();
  }
  if (config.fail_fast) {
    for (const TileSolveResult& r : solved) {
      if (!r.failure.has_value()) continue;
      const TileFailure& f = *r.failure;
      throw Error(std::string("fail-fast: tile ") + std::to_string(f.tile) +
                  " (" + to_string(f.method) + ") failed with " +
                  to_string(f.reason) +
                  (f.detail.empty() ? std::string() : " -- " + f.detail));
    }
  }
  return solved;
}

}  // namespace pil::pilfill::flow_detail
