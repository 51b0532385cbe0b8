#include "pil/pilfill/report.hpp"

#include <fstream>
#include <ostream>

#include "pil/obs/json.hpp"
#include "pil/pilfill/config_codec.hpp"
#include "pil/util/error.hpp"
#include "pil/util/strings.hpp"
#include "pil/version.hpp"

namespace pil::pilfill {

namespace {

void write_density_stats(obs::JsonWriter& w, const grid::DensityStats& s) {
  w.begin_object();
  w.kv("min", s.min_density);
  w.kv("max", s.max_density);
  w.kv("mean", s.mean_density);
  w.kv("variation", s.variation());
  w.end_object();
}

}  // namespace

void write_method_result_json(obs::JsonWriter& w, const MethodResult& mr) {
  w.begin_object();
  w.kv("method", to_string(mr.method));
  w.kv("delay_ps", mr.impact.delay_ps);
  w.kv("weighted_delay_ps", mr.impact.weighted_delay_ps);
  w.kv("exact_sink_delay_ps", mr.impact.exact_sink_delay_ps);
  w.kv("solve_seconds", mr.solve_seconds);
  w.kv("eval_seconds", mr.eval_seconds);
  w.kv("placed", mr.placed);
  w.kv("shortfall", mr.shortfall);
  w.kv("features_unmapped", mr.impact.unmapped);
  w.kv("bb_nodes", mr.bb_nodes);
  w.kv("lp_solves", mr.lp_solves);
  w.kv("simplex_iterations", mr.simplex_iterations);
  w.kv("tiles_node_limit", mr.tiles_node_limit);
  w.kv("tiles_degraded", mr.tiles_degraded);
  w.kv("tiles_failed", mr.tiles_failed);
  w.kv("max_ilp_gap", mr.max_ilp_gap);
  if (!mr.failures.empty()) {
    w.key("failures");
    w.begin_array();
    for (const TileFailure& f : mr.failures) {
      w.begin_object();
      w.kv("tile", f.tile);
      w.kv("method", to_string(f.method));
      w.kv("served_by", to_string(f.served_by));
      w.kv("reason", to_string(f.reason));
      w.kv("ilp_status", ilp::to_string(f.ilp_status));
      w.kv("lp_status", lp::to_string(f.lp_status));
      w.kv("used_incumbent", f.used_incumbent);
      if (!f.detail.empty()) w.kv("detail", f.detail);
      w.end_object();
    }
    w.end_array();
  }
  w.key("density_after");
  write_density_stats(w, mr.density_after);
  w.end_object();
}

void write_run_report(std::ostream& os, const FlowConfig& config,
                      const FlowResult& result,
                      const RunReportOptions& options) {
  obs::JsonWriter w(os);
  w.begin_object();
  w.kv("schema", "pil.run_report.v3");
  w.kv("tool", options.tool);
  w.kv("version", kVersionString);
  if (!options.input.empty()) w.kv("input", options.input);

  // The wire's config object: read_config_json turns it back into the
  // FlowConfig that produced this report.
  w.key("config");
  w.begin_object();
  write_model_json(w, config.model());
  write_policy_json(w, config.policy());
  w.end_object();
  w.kv("model_fingerprint", hex_u64(model_fingerprint(config.model())));

  w.key("prep");
  w.begin_object();
  const StageSeconds& st = result.prep_stages;
  w.kv("seconds", st.total());
  w.key("stages");  // keyed by the obs::Stage names that timed them
  w.begin_object();
  w.kv("grid.dissection", st.dissection);
  w.kv("grid.density_map", st.density_map);
  w.kv("rctree.extraction", st.rc_extraction);
  w.kv("fill.slack_scan", st.slack_extraction);
  w.kv("density.targeting", st.targeting);
  w.kv("pilfill.instance.build", st.instances);
  w.end_object();
  w.end_object();

  w.key("density_before");
  write_density_stats(w, result.density_before);
  w.kv("total_capacity", result.total_capacity);

  w.key("target");
  w.begin_object();
  w.kv("total_features", result.target.total_features);
  w.kv("lower_target_used", result.target.lower_target_used);
  w.kv("upper_bound_used", result.target.upper_bound_used);
  w.key("density_after_target");
  write_density_stats(w, result.target.after);
  w.end_object();

  w.key("methods");
  w.begin_array();
  for (const MethodResult& mr : result.methods)
    write_method_result_json(w, mr);
  w.end_array();

  if (options.include_metrics) {
    const obs::MetricsSnapshot snap = obs::metrics().snapshot();
    if (!snap.empty()) {
      w.key("metrics");
      snap.write_json(w);
    }
  }
  w.end_object();
  os << '\n';
}

void write_run_report_file(const std::string& path, const FlowConfig& config,
                           const FlowResult& result,
                           const RunReportOptions& options) {
  std::ofstream os(path);
  PIL_REQUIRE(os.good(), "cannot open report file '" + path + "'");
  write_run_report(os, config, result, options);
  os.flush();
  PIL_REQUIRE(os.good(), "failed writing report file '" + path + "'");
}

}  // namespace pil::pilfill
