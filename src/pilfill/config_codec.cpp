#include "pil/pilfill/config_codec.hpp"

#include <initializer_list>
#include <sstream>
#include <string>

#include "pil/util/error.hpp"
#include "pil/util/strings.hpp"

namespace pil::pilfill {

namespace {

using obs::JsonValue;
using obs::JsonWriter;

/// The value in `values` that `name` spells as `s`; throws naming `field`.
template <typename E>
E from_name(std::initializer_list<E> values, const char* (*name)(E),
            std::string_view s, std::string_view field) {
  for (const E e : values)
    if (s == name(e)) return e;
  throw Error(std::string(field) + ": unknown value \"" + std::string(s) +
              "\"");
}

const char* slack_mode_wire_name(fill::SlackMode m) {
  switch (m) {
    case fill::SlackMode::kI: return "i";
    case fill::SlackMode::kII: return "ii";
    case fill::SlackMode::kIII: return "iii";
  }
  return "iii";
}

const char* objective_wire_name(Objective o) {
  return o == Objective::kWeighted ? "weighted" : "non_weighted";
}

}  // namespace

const char* method_wire_name(Method m) {
  switch (m) {
    case Method::kNormal: return "normal";
    case Method::kIlp1: return "ilp1";
    case Method::kIlp2: return "ilp2";
    case Method::kGreedy: return "greedy";
    case Method::kConvex: return "convex";
  }
  return "normal";
}

Method method_from_wire(std::string_view name) {
  return from_name({Method::kNormal, Method::kIlp1, Method::kIlp2,
                    Method::kGreedy, Method::kConvex},
                   method_wire_name, name, "method");
}

fill::SlackMode slack_mode_from_wire(std::string_view name,
                                     std::string_view field) {
  return from_name({fill::SlackMode::kI, fill::SlackMode::kII,
                    fill::SlackMode::kIII},
                   slack_mode_wire_name, name, field);
}

void write_model_json(JsonWriter& w, const ModelConfig& m) {
  w.kv("layer", static_cast<long long>(m.layer));
  w.kv("window_um", m.window_um);
  w.kv("r", m.r);
  w.kv("feature_um", m.rules.feature_um);
  w.kv("gap_um", m.rules.gap_um);
  w.kv("buffer_um", m.rules.buffer_um);
  w.kv("target_engine", to_string(m.target_engine));
  w.kv("solver_mode", slack_mode_wire_name(m.solver_mode));
  w.kv("lower_target", m.target.lower_target);
  w.kv("upper_bound", m.target.upper_bound);
  w.kv("target_seed", static_cast<unsigned long long>(m.target.seed));
  w.kv("objective", objective_wire_name(m.objective));
  w.kv("seed", static_cast<unsigned long long>(m.seed));
  w.kv("ilp_max_nodes", m.ilp.max_nodes);
  w.kv("style", cap::to_string(m.style));
  w.kv("switch_factor", m.switch_factor);
  if (!m.required_per_tile.empty()) {
    w.key("required_per_tile");
    w.begin_array();
    for (int n : m.required_per_tile) w.value(n);
    w.end_array();
  }
  if (!m.net_criticality.empty()) {
    w.key("net_criticality");
    w.begin_array();
    for (double c : m.net_criticality) w.value(c);
    w.end_array();
  }
}

void write_policy_json(JsonWriter& w, const SolvePolicy& p) {
  w.kv("threads", p.threads);
  w.kv("tile_deadline_seconds", p.tile_deadline_seconds);
  w.kv("flow_deadline_seconds", p.flow_deadline_seconds);
  w.kv("degrade_on_failure", p.degrade_on_failure);
  w.kv("fail_fast", p.fail_fast);
  if (!p.fault_spec.empty()) w.kv("fault_spec", p.fault_spec);
}

FlowConfig read_config_json(const JsonValue& obj) {
  if (!obj.is_object()) throw Error("config: expected an object");
  FlowConfig cfg;
  for (const auto& [key, val] : obj.members) {
    const std::string field = "config." + key;
    const auto num = [&] { return obs::json_num(val, field); };
    const auto flag = [&] { return obs::json_bool(val, field); };
    const auto str = [&] { return obs::json_str(val, field); };
    if (key == "layer") {
      cfg.layer = obs::json_int<layout::LayerId>(val, field);
    } else if (key == "window_um") {
      cfg.window_um = num();
    } else if (key == "r") {
      cfg.r = obs::json_int<int>(val, field);
    } else if (key == "feature_um") {
      cfg.rules.feature_um = num();
    } else if (key == "gap_um") {
      cfg.rules.gap_um = num();
    } else if (key == "buffer_um") {
      cfg.rules.buffer_um = num();
    } else if (key == "target_engine") {
      cfg.target_engine = from_name({TargetEngine::kMonteCarlo,
                                     TargetEngine::kMinVarLp,
                                     TargetEngine::kMinFillLp},
                                    to_string, str(), field);
    } else if (key == "solver_mode") {
      cfg.solver_mode = slack_mode_from_wire(str(), field);
    } else if (key == "lower_target") {
      cfg.target.lower_target = num();
    } else if (key == "upper_bound") {
      cfg.target.upper_bound = num();
    } else if (key == "target_seed") {
      cfg.target.seed = obs::json_int<std::uint64_t>(val, field);
    } else if (key == "objective") {
      cfg.objective = from_name({Objective::kWeighted, Objective::kNonWeighted},
                                objective_wire_name, str(), field);
    } else if (key == "seed") {
      cfg.seed = obs::json_int<std::uint64_t>(val, field);
    } else if (key == "ilp_max_nodes") {
      cfg.ilp.max_nodes = obs::json_int<int>(val, field);
    } else if (key == "style") {
      cfg.style = from_name({cap::FillStyle::kFloating,
                             cap::FillStyle::kGrounded},
                            cap::to_string, str(), field);
    } else if (key == "switch_factor") {
      cfg.switch_factor = num();
    } else if (key == "required_per_tile") {
      cfg.required_per_tile.clear();
      for (const JsonValue& item : obs::json_array(val, field))
        cfg.required_per_tile.push_back(obs::json_int<int>(item, field));
    } else if (key == "net_criticality") {
      cfg.net_criticality.clear();
      for (const JsonValue& item : obs::json_array(val, field))
        cfg.net_criticality.push_back(obs::json_num(item, field));
    } else if (key == "threads") {
      cfg.threads = obs::json_int<int>(val, field);
    } else if (key == "tile_deadline_seconds") {
      cfg.tile_deadline_seconds = num();
    } else if (key == "flow_deadline_seconds") {
      cfg.flow_deadline_seconds = num();
    } else if (key == "degrade_on_failure") {
      cfg.degrade_on_failure = flag();
    } else if (key == "fail_fast") {
      cfg.fail_fast = flag();
    } else if (key == "fault_spec") {
      cfg.fault_spec = str();
    } else {
      throw Error("unknown config key \"" + key + "\"");
    }
  }
  return cfg;
}

std::uint64_t model_fingerprint(const ModelConfig& model) {
  std::ostringstream os;
  JsonWriter w(os, /*pretty=*/false);
  w.begin_object();
  write_model_json(w, model);
  w.end_object();
  return fnv1a64(os.str());
}

}  // namespace pil::pilfill
