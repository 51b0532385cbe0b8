#include "pil/pilfill/driver.hpp"

#include <cmath>

#include "flow_common.hpp"
#include "pil/obs/stage.hpp"
#include "pil/pilfill/budgeted.hpp"
#include "pil/pilfill/session.hpp"

namespace pil::pilfill {

const char* to_string(TargetEngine e) {
  switch (e) {
    case TargetEngine::kMonteCarlo: return "mc";
    case TargetEngine::kMinVarLp: return "minvar_lp";
    case TargetEngine::kMinFillLp: return "minfill_lp";
  }
  return "mc";
}

namespace {

/// Validation failures carry a machine-usable field path ("config field
/// <path>: <why>") so a service response can echo which knob was wrong.
/// extract_config_field_path() below is the matching reader.
[[noreturn]] void bad_field(const char* path, const std::string& why) {
  throw Error(std::string("config field ") + path + ": " + why);
}

void check_field(bool ok, const char* path, const char* why) {
  if (!ok) bad_field(path, why);
}

}  // namespace

std::string extract_config_field_path(std::string_view error_message) {
  constexpr std::string_view kMarker = "config field ";
  const std::size_t at = error_message.find(kMarker);
  if (at == std::string_view::npos) return {};
  const std::size_t start = at + kMarker.size();
  const std::size_t colon = error_message.find(':', start);
  if (colon == std::string_view::npos) return {};
  return std::string(error_message.substr(start, colon - start));
}

void ModelConfig::validate() const {
  check_field(std::isfinite(window_um) && window_um > 0, "model.window_um",
              "must be positive and finite");
  check_field(r >= 1, "model.r", "dissection factor must be >= 1");
  check_field(rules.feature_um > 0, "model.rules.feature_um",
              "must be positive");
  check_field(rules.gap_um > 0, "model.rules.gap_um", "must be positive");
  check_field(rules.buffer_um >= 0, "model.rules.buffer_um",
              "must be non-negative");
  check_field(std::isfinite(switch_factor) && switch_factor > 0,
              "model.switch_factor", "must be positive and finite");
  for (const double c : net_criticality)
    check_field(std::isfinite(c) && c >= 0, "model.net_criticality",
                "values must be finite and non-negative");
  for (const int f : required_per_tile)
    check_field(f >= 0, "model.required_per_tile",
                "fill requirements must be non-negative");
}

void ModelConfig::validate(const layout::Layout& layout,
                           const std::vector<Method>& methods) const {
  validate();
  check_field(layer != layout::kInvalidLayer && layer >= 0 &&
                  static_cast<std::size_t>(layer) < layout.num_layers(),
              "model.layer", "is not a layer of the layout");
  if (!required_per_tile.empty()) {
    const grid::Dissection dis(layout.die(), window_um, r);
    check_field(static_cast<int>(required_per_tile.size()) ==
                    dis.num_tiles(),
                "model.required_per_tile",
                "size must match the dissection");
  }
  flow_detail::require_methods_supported(*this, methods);
}

void SolvePolicy::validate() const {
  check_field(threads >= 0, "policy.threads", "must be non-negative");
  check_field(std::isfinite(tile_deadline_seconds) &&
                  tile_deadline_seconds >= 0,
              "policy.tile_deadline_seconds",
              "must be finite and non-negative");
  check_field(std::isfinite(flow_deadline_seconds) &&
                  flow_deadline_seconds >= 0,
              "policy.flow_deadline_seconds",
              "must be finite and non-negative");
  if (!fault_spec.empty()) {
    try {
      util::FaultPlan::parse(fault_spec);
    } catch (const Error& e) {
      bad_field("policy.fault_spec", e.what());
    }
  }
}

void FlowConfig::validate() const {
  model().validate();
  policy().validate();
}

void FlowConfig::validate(const layout::Layout& layout,
                          const std::vector<Method>& methods) const {
  model().validate(layout, methods);
  policy().validate();
}

FlowResult run_pil_fill_flow(const layout::Layout& layout,
                             const FlowConfig& config,
                             const std::vector<Method>& methods) {
  // A one-shot run is a fresh session solved once and discarded: every
  // instance is solved (the cache starts empty), so results and metrics
  // match the historical monolithic driver exactly.
  FillSession session(layout, config);
  return session.solve(methods);
}

std::vector<FlowResult> run_multi_layer_pil_fill_flow(
    const layout::Layout& layout, const FlowConfig& config,
    const std::vector<Method>& methods) {
  std::vector<FlowResult> results;
  results.reserve(layout.num_layers());
  for (std::size_t i = 0; i < layout.num_layers(); ++i) {
    FlowConfig per_layer = config;
    per_layer.layer = static_cast<layout::LayerId>(i);
    // required_per_tile/criticality are layer-agnostic inputs; the per-tile
    // spec cannot be shared across layers.
    per_layer.required_per_tile.clear();
    results.push_back(run_pil_fill_flow(layout, per_layer, methods));
  }
  return results;
}

BudgetedFlowResult run_budgeted_pil_fill_flow(const FillSession& session,
                                              const BudgetedConfig& budgets) {
  const FlowConfig& config = session.config();
  const layout::Layer& layer = session.layout().layer(config.layer);
  const cap::CouplingModel model(layer.eps_r, layer.thickness_um);
  cap::ColumnCapLut lut(model, config.rules.feature_um);
  const SolverContext ctx = flow_detail::make_context(config, model, lut);
  const std::vector<TileInstance> instances = session.instances_snapshot();

  BudgetedFlowResult result;
  {
    obs::Stage stage("pilfill.budgeted.solve", &result.solve_seconds);
    result.allocation =
        solve_budgeted(instances, ctx, budgets,
                       static_cast<int>(session.layout().num_nets()));
  }

  for (std::size_t i = 0; i < instances.size(); ++i)
    flow_detail::append_rects(instances[i], result.allocation.counts[i],
                              session.solver_slack(), config.rules,
                              result.features);
  result.impact = session.evaluator().evaluate_rects(result.features);
  return result;
}

}  // namespace pil::pilfill
