#pragma once
/// \file driver.hpp
/// Whole-layout PIL-Fill flow (the pipeline behind Tables 1 and 2):
///
///   1. fixed r-dissection + wire density map,
///   2. RC trees -> active-line pieces with weights / entry resistances,
///   3. global SlackColumn-III extraction (capacity inventory),
///   4. per-tile fill requirements (Monte-Carlo min-var targeter),
///   5. per-tile MDFC solve with each requested method,
///   6. uniform scoring with the exact evaluator + density verification.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "pil/density/fill_target.hpp"
#include "pil/grid/density_map.hpp"
#include "pil/layout/layout.hpp"
#include "pil/pilfill/evaluate.hpp"
#include "pil/pilfill/solvers.hpp"

namespace pil::pilfill {

/// Which engine computes the per-tile fill requirements (Fig. 8, step 2).
/// All three end in the same top-up loop, so none passes the cap U; the
/// two LPs refuse dissections of more than 1024 windows.
enum class TargetEngine {
  kMonteCarlo,  ///< greedy randomized min-var (scalable; the default)
  kMinVarLp,    ///< min-variation LP, rounded down, then topped up
  kMinFillLp,   ///< minimum-total-fill LP, rounded down, then topped up
};

/// "mc", "minvar_lp" or "minfill_lp": the config codec's spelling.
const char* to_string(TargetEngine e);

/// What problem to solve: everything that determines the *fill result* --
/// the dissection geometry, rules, objective, solver selection, and seeds.
/// Two runs with equal ModelConfigs on the same layout produce bit-identical
/// placements, whatever the SolvePolicy in force (a policy can only replace
/// a failing solve with a ladder fallback, and then says so).
///
/// Validation errors name the offending field as `model.<field>` so callers
/// (notably pil::service responses) can echo machine-usable field paths.
struct ModelConfig {
  layout::LayerId layer = 0;
  double window_um = 32.0;
  int r = 2;
  fill::FillRules rules;
  TargetEngine target_engine = TargetEngine::kMonteCarlo;
  /// Slack-column definition the *solvers* see (the evaluator always uses
  /// SlackColumn-III). kIII is the paper's main configuration.
  fill::SlackMode solver_mode = fill::SlackMode::kIII;
  density::FillTargetConfig target;
  Objective objective = Objective::kNonWeighted;
  std::uint64_t seed = 11;
  ilp::IlpOptions ilp;
  /// Fill electrical style (floating = the paper's assumption). Grounded
  /// fill is supported by Normal/Greedy only; ILP-I/ILP-II/Convex require
  /// the convex floating model (validate() rejects the combination).
  cap::FillStyle style = cap::FillStyle::kFloating;
  /// Miller switch factor applied to all coupling increments.
  double switch_factor = 1.0;
  /// When non-empty, skip the density targeter and use these per-tile fill
  /// requirements verbatim (size must be the dissection's tile count,
  /// row-major). Lets a caller replay a foundry-prescribed fill spec.
  std::vector<int> required_per_tile;
  /// Optional per-net criticality (indexed by NetId) scaling the weighted
  /// objective: W_l = criticality * downstream_sinks. The hook for
  /// slack-driven weights from an STA engine; empty = all 1.
  std::vector<double> net_criticality;

  /// Check the layout-independent model fields (positive window, r >= 1,
  /// fill rules, switch factor, criticality range, non-negative
  /// requirements); throws pil::Error naming the first offending
  /// `model.<field>`.
  void validate() const;

  /// Full check against a layout and the methods about to run: everything
  /// above plus layer range, required_per_tile size vs the dissection, and
  /// the grounded-fill + ILP-I/ILP-II/Convex combination.
  void validate(const layout::Layout& layout,
                const std::vector<Method>& methods = {}) const;
};

/// How to execute a solve: resource and failure policy that never changes a
/// successful tile's answer -- deadlines, the degradation ladder, worker
/// threads, fault injection (see docs/ROBUSTNESS.md). Separated from
/// ModelConfig so a long-running service can apply per-request policy
/// without re-validating (or re-hashing) the model.
///
/// Validation errors name the offending field as `policy.<field>`.
struct SolvePolicy {
  /// Worker threads for the per-tile solves (tiles are independent);
  /// results are deterministic regardless of the thread count.
  int threads = 1;
  /// Wall-clock budget per tile solve in seconds; 0 = unlimited. ILP tiles
  /// that blow the budget keep their incumbent or fall down the
  /// degradation ladder (ILP -> Greedy -> Normal).
  double tile_deadline_seconds = 0.0;
  /// Wall-clock budget for a whole solve in seconds; 0 = unlimited. For a
  /// FillSession the clock starts at each solve() call. Once expired,
  /// remaining tiles are served by the ladder's cheap end.
  double flow_deadline_seconds = 0.0;
  /// Serve tiles whose primary method failed (deadline, node limit, ILP
  /// error, exception) from the degradation ladder instead of leaving them
  /// empty. Disable to surface failures as empty tiles (tiles_failed).
  bool degrade_on_failure = true;
  /// Abort the whole solve with pil::Error at the first tile failure
  /// instead of recording it and continuing.
  bool fail_fast = false;
  /// Fault-injection plan armed for the run (util::FaultPlan::parse
  /// syntax, e.g. "tile_solve:throw:0.1"); empty = none. Test/CI hook.
  std::string fault_spec;

  /// Check every policy field; throws pil::Error naming the first
  /// offending `policy.<field>`.
  void validate() const;
};

/// The historical flat flow configuration: a ModelConfig plus a
/// SolvePolicy. Derivation (rather than aggregation) keeps every existing
/// flat access -- `config.window_um`, `config.fail_fast` -- compiling
/// unchanged, while model()/policy() expose the two halves as slices for
/// code that wants exactly one of them (docs/API.md maps every field).
struct FlowConfig : ModelConfig, SolvePolicy {
  ModelConfig& model() { return *this; }
  const ModelConfig& model() const { return *this; }
  SolvePolicy& policy() { return *this; }
  const SolvePolicy& policy() const { return *this; }

  /// model().validate() + policy().validate().
  void validate() const;

  /// Layout-aware model validation plus the policy check.
  void validate(const layout::Layout& layout,
                const std::vector<Method>& methods = {}) const;
};

/// The "model.<field>" / "policy.<field>" path named by a validation error
/// thrown from ModelConfig/SolvePolicy::validate (messages follow the
/// "config field <path>: <why>" format), or "" when the message carries
/// none. Lets pil::service echo machine-usable validation errors.
std::string extract_config_field_path(std::string_view error_message);

/// One fill placement: feature rectangles plus per-tile counts.
struct FillPlacement {
  std::vector<geom::Rect> features;
  std::vector<int> features_per_tile;
  long long total() const { return static_cast<long long>(features.size()); }
};

/// Where the shared (method-independent) preparation time went, in
/// seconds. Each field is timed by one obs::Stage, named before the colon
/// below; that name is its trace span, its pil.stage_seconds series and
/// its run-report key.
struct StageSeconds {
  double dissection = 0.0;        ///< grid.dissection: fixed r-dissection
  double density_map = 0.0;       ///< grid.density_map: wire + blockage area
  double rc_extraction = 0.0;     ///< rctree.extraction: trees + pieces
  double slack_extraction = 0.0;  ///< fill.slack_scan: slack columns
  double targeting = 0.0;         ///< density.targeting: fill requirements
  double instances = 0.0;         ///< pilfill.instance.build: MDFC instances
  /// The whole prep time.
  double total() const {
    return dissection + density_map + rc_extraction + slack_extraction +
           targeting + instances;
  }
};

struct MethodResult {
  Method method = Method::kNormal;
  DelayImpact impact;
  /// Stage pilfill.solve.tiles: per-tile solve time only (paper's CPU).
  double solve_seconds = 0.0;
  double eval_seconds = 0.0;  ///< stage pilfill.evaluate: exact scoring
  long long placed = 0;
  long long shortfall = 0;     ///< unmet fill requirement (capacity misses)
  long long bb_nodes = 0;
  // Solver internals aggregated over the tiles (observability).
  long long lp_solves = 0;           ///< LP relaxations solved (ILP methods)
  /// Simplex iterations over those solves. Every relaxation is solved from
  /// the same starting basis, so this, bb_nodes and lp_solves follow from
  /// the instances, and flow_results_equivalent compares them.
  long long simplex_iterations = 0;
  /// Always 0; dropped with pilperf's next change (ROADMAP item 6).
  long long dual_iterations = 0;
  /// Always 0; dropped with pilperf's next change (ROADMAP item 6).
  long long warm_starts = 0;
  /// Tiles whose integer program hit the node budget; their (unproven)
  /// incumbents were used. Distinct from shortfall: the requirement was met.
  long long tiles_node_limit = 0;
  /// Tiles the primary method could not serve directly but that still got
  /// a placement -- from a degradation-ladder step or the primary's
  /// unproven incumbent after a deadline. Each has an entry in `failures`.
  long long tiles_degraded = 0;
  /// Tiles that ended with no placement at all (ladder disabled or
  /// exhausted); their requirement *is* part of the shortfall -- but no
  /// longer silently. Each has an entry in `failures`.
  long long tiles_failed = 0;
  /// Structured record of every tile behind tiles_degraded/tiles_failed
  /// (reason, ladder step that served it, underlying ILP/LP statuses).
  std::vector<TileFailure> failures;
  /// Worst residual optimality gap among node-limited tiles.
  double max_ilp_gap = 0.0;
  grid::DensityStats density_after;
  FillPlacement placement;
};

struct FlowResult {
  grid::DensityStats density_before;
  density::FillTargetResult target;
  long long total_capacity = 0;
  std::vector<MethodResult> methods;
  StageSeconds prep_stages;  ///< prep time, shared by the methods
};

/// Run the flow for each method in `methods`; `config.layer` selects the
/// fill layer (either routing direction works).
FlowResult run_pil_fill_flow(const layout::Layout& layout,
                             const FlowConfig& config,
                             const std::vector<Method>& methods);

/// Run the flow on every layer of the layout (config.layer is ignored);
/// results are returned per layer in layer-id order. Each layer is filled
/// independently -- fill on one layer does not block another (different
/// planes), matching how fabs apply per-layer density rules.
std::vector<FlowResult> run_multi_layer_pil_fill_flow(
    const layout::Layout& layout, const FlowConfig& config,
    const std::vector<Method>& methods);

}  // namespace pil::pilfill
