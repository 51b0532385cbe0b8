#include "pil/service/protocol.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <sstream>

#include "pil/layout/pld_io.hpp"
#include "pil/obs/json.hpp"
#include "pil/util/error.hpp"

namespace pil::service {

namespace {

using obs::JsonValue;
using obs::JsonWriter;

// --------------------------------------------------------------- hashing ----

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a64(std::string_view bytes,
                      std::uint64_t h = kFnvOffset) noexcept {
  for (unsigned char ch : bytes) {
    h ^= ch;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t fnv1a64_double(double v, std::uint64_t h) noexcept {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    h ^= (bits >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

std::string hex_u64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t parse_hex_u64(std::string_view s, const char* what) {
  PIL_REQUIRE(!s.empty() && s.size() <= 16, std::string(what) +
                                                ": expected a hex u64");
  std::uint64_t v = 0;
  for (char c : s) {
    int d;
    if (c >= '0' && c <= '9') d = c - '0';
    else if (c >= 'a' && c <= 'f') d = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') d = c - 'A' + 10;
    else throw Error(std::string(what) + ": expected a hex u64");
    v = (v << 4) | static_cast<std::uint64_t>(d);
  }
  return v;
}

// ----------------------------------------------------------- JSON lookup ----

double get_num(const JsonValue& obj, std::string_view key, double def) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return def;
  PIL_REQUIRE(v->is_number(), std::string(key) + ": expected a number");
  return v->num_v;
}

/// Integers travel as JSON numbers, which the parser reads as doubles, so
/// one is exact only within +-(2^53 - 1), RFC 8259's interoperable range:
/// 2^53 + 1 arrives as 2^53, indistinguishable from a real 2^53.
constexpr std::uint64_t kMaxWireInt = (std::uint64_t{1} << 53) - 1;

/// `v` as an integer of type T. Throws pil::Error naming `field` unless it
/// is an integral number within both T and +-kMaxWireInt -- anything else
/// was rounded in transit or would be cast out of range.
template <typename T>
T as_int(const JsonValue& v, std::string_view field) {
  using Limits = std::numeric_limits<T>;
  const double lo = std::max(-static_cast<double>(kMaxWireInt),
                             static_cast<double>(Limits::min()));
  const double hi = std::min(static_cast<double>(kMaxWireInt),
                             static_cast<double>(Limits::max()));
  if (!v.is_number() || !(v.num_v >= lo && v.num_v <= hi) ||
      v.num_v != std::trunc(v.num_v))
    throw Error(std::string(field) + ": expected an integer in [" +
                std::to_string(static_cast<long long>(lo)) + ", " +
                std::to_string(static_cast<long long>(hi)) + "]");
  return static_cast<T>(v.num_v);
}

/// The integer member named by the last component of `field`, a dotted
/// wire path ("gen.seed") that errors quote; `def` when absent.
template <typename T>
T get_int(const JsonValue& obj, std::string_view field, T def) {
  const JsonValue* v = obj.find(field.substr(field.rfind('.') + 1));
  return v == nullptr ? def : as_int<T>(*v, field);
}

/// encode_request's guard for a u64 the wire cannot carry exactly.
void require_wire_int(std::uint64_t v, const char* field) {
  PIL_REQUIRE(v <= kMaxWireInt,
              std::string(field) + ": " + std::to_string(v) +
                  " exceeds 2^53 - 1, the largest integer the wire "
                  "carries exactly");
}

bool get_bool(const JsonValue& obj, std::string_view key, bool def) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return def;
  PIL_REQUIRE(v->type == JsonValue::Type::kBool,
              std::string(key) + ": expected a bool");
  return v->bool_v;
}

std::string get_str(const JsonValue& obj, std::string_view key,
                    std::string def = {}) {
  const JsonValue* v = obj.find(key);
  if (v == nullptr) return def;
  PIL_REQUIRE(v->is_string(), std::string(key) + ": expected a string");
  return v->str_v;
}

// ------------------------------------------------------------ enum wires ----

const char* target_engine_wire(pilfill::TargetEngine e) {
  switch (e) {
    case pilfill::TargetEngine::kMonteCarlo: return "mc";
    case pilfill::TargetEngine::kMinVarLp: return "minvar_lp";
    case pilfill::TargetEngine::kMinFillLp: return "minfill_lp";
  }
  return "mc";
}

pilfill::TargetEngine target_engine_from_wire(std::string_view s) {
  if (s == "mc") return pilfill::TargetEngine::kMonteCarlo;
  if (s == "minvar_lp") return pilfill::TargetEngine::kMinVarLp;
  if (s == "minfill_lp") return pilfill::TargetEngine::kMinFillLp;
  throw Error("unknown target_engine \"" + std::string(s) + "\"");
}

const char* slack_mode_wire(fill::SlackMode m) {
  switch (m) {
    case fill::SlackMode::kI: return "i";
    case fill::SlackMode::kII: return "ii";
    case fill::SlackMode::kIII: return "iii";
  }
  return "iii";
}

fill::SlackMode slack_mode_from_wire(std::string_view s) {
  if (s == "i") return fill::SlackMode::kI;
  if (s == "ii") return fill::SlackMode::kII;
  if (s == "iii") return fill::SlackMode::kIII;
  throw Error("unknown solver_mode \"" + std::string(s) + "\"");
}

const char* objective_wire(pilfill::Objective o) {
  return o == pilfill::Objective::kWeighted ? "weighted" : "non_weighted";
}

pilfill::Objective objective_from_wire(std::string_view s) {
  if (s == "non_weighted") return pilfill::Objective::kNonWeighted;
  if (s == "weighted") return pilfill::Objective::kWeighted;
  throw Error("unknown objective \"" + std::string(s) + "\"");
}

const char* style_wire(cap::FillStyle s) {
  return s == cap::FillStyle::kGrounded ? "grounded" : "floating";
}

cap::FillStyle style_from_wire(std::string_view s) {
  if (s == "floating") return cap::FillStyle::kFloating;
  if (s == "grounded") return cap::FillStyle::kGrounded;
  throw Error("unknown style \"" + std::string(s) + "\"");
}

const char* edit_kind_wire(pilfill::WireEdit::Kind k) {
  switch (k) {
    case pilfill::WireEdit::Kind::kAddSegment: return "add_segment";
    case pilfill::WireEdit::Kind::kRemoveSegment: return "remove_segment";
    case pilfill::WireEdit::Kind::kMoveSegment: return "move_segment";
  }
  return "add_segment";
}

pilfill::WireEdit::Kind edit_kind_from_wire(std::string_view s) {
  if (s == "add_segment") return pilfill::WireEdit::Kind::kAddSegment;
  if (s == "remove_segment") return pilfill::WireEdit::Kind::kRemoveSegment;
  if (s == "move_segment") return pilfill::WireEdit::Kind::kMoveSegment;
  throw Error("unknown edit kind \"" + std::string(s) + "\"");
}

// --------------------------------------------------------- config encode ----

/// The model half, in a fixed key order -- this exact byte sequence (as
/// produced by encode, compact mode) is what model_fingerprint hashes, so
/// key order is part of the fingerprint's definition.
void encode_model(JsonWriter& w, const pilfill::ModelConfig& m) {
  w.kv("layer", static_cast<long long>(m.layer));
  w.kv("window_um", m.window_um);
  w.kv("r", m.r);
  w.kv("feature_um", m.rules.feature_um);
  w.kv("gap_um", m.rules.gap_um);
  w.kv("buffer_um", m.rules.buffer_um);
  w.kv("target_engine", target_engine_wire(m.target_engine));
  w.kv("solver_mode", slack_mode_wire(m.solver_mode));
  w.kv("lower_target", m.target.lower_target);
  w.kv("upper_bound", m.target.upper_bound);
  w.kv("target_seed", static_cast<unsigned long long>(m.target.seed));
  w.kv("objective", objective_wire(m.objective));
  w.kv("seed", static_cast<unsigned long long>(m.seed));
  w.kv("ilp_max_nodes", m.ilp.max_nodes);
  w.kv("style", style_wire(m.style));
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

void encode_policy(JsonWriter& w, const pilfill::SolvePolicy& p) {
  w.kv("threads", p.threads);
  w.kv("tile_deadline_seconds", p.tile_deadline_seconds);
  w.kv("flow_deadline_seconds", p.flow_deadline_seconds);
  w.kv("degrade_on_failure", p.degrade_on_failure);
  w.kv("fail_fast", p.fail_fast);
  if (!p.fault_spec.empty()) w.kv("fault_spec", p.fault_spec);
}

/// Config decoding rejects unknown keys: a config field the server does not
/// understand would silently change what problem gets solved, which is the
/// one place "ignore unknown fields" is the wrong default.
void decode_config_into(const JsonValue& obj, pilfill::FlowConfig& cfg) {
  PIL_REQUIRE(obj.is_object(), "config: expected an object");
  for (const auto& [key, val] : obj.members) {
    const std::string field = "config." + key;
    if (key == "layer") {
      cfg.layer = as_int<layout::LayerId>(val, field);
    } else if (key == "window_um") {
      cfg.window_um = val.num_v;
    } else if (key == "r") {
      cfg.r = as_int<int>(val, field);
    } else if (key == "feature_um") {
      cfg.rules.feature_um = val.num_v;
    } else if (key == "gap_um") {
      cfg.rules.gap_um = val.num_v;
    } else if (key == "buffer_um") {
      cfg.rules.buffer_um = val.num_v;
    } else if (key == "target_engine") {
      cfg.target_engine = target_engine_from_wire(val.str_v);
    } else if (key == "solver_mode") {
      cfg.solver_mode = slack_mode_from_wire(val.str_v);
    } else if (key == "lower_target") {
      cfg.target.lower_target = val.num_v;
    } else if (key == "upper_bound") {
      cfg.target.upper_bound = val.num_v;
    } else if (key == "target_seed") {
      cfg.target.seed = as_int<std::uint64_t>(val, field);
    } else if (key == "objective") {
      cfg.objective = objective_from_wire(val.str_v);
    } else if (key == "seed") {
      cfg.seed = as_int<std::uint64_t>(val, field);
    } else if (key == "ilp_max_nodes") {
      cfg.ilp.max_nodes = as_int<int>(val, field);
    } else if (key == "style") {
      cfg.style = style_from_wire(val.str_v);
    } else if (key == "switch_factor") {
      cfg.switch_factor = val.num_v;
    } else if (key == "required_per_tile") {
      PIL_REQUIRE(val.is_array(), "config.required_per_tile: expected array");
      cfg.required_per_tile.clear();
      for (const auto& item : val.items)
        cfg.required_per_tile.push_back(as_int<int>(item, field));
    } else if (key == "net_criticality") {
      PIL_REQUIRE(val.is_array(), "config.net_criticality: expected array");
      cfg.net_criticality.clear();
      for (const auto& item : val.items)
        cfg.net_criticality.push_back(item.num_v);
    } else if (key == "threads") {
      cfg.threads = as_int<int>(val, field);
    } else if (key == "tile_deadline_seconds") {
      cfg.tile_deadline_seconds = val.num_v;
    } else if (key == "flow_deadline_seconds") {
      cfg.flow_deadline_seconds = val.num_v;
    } else if (key == "degrade_on_failure") {
      cfg.degrade_on_failure = val.bool_v;
    } else if (key == "fail_fast") {
      cfg.fail_fast = val.bool_v;
    } else if (key == "fault_spec") {
      cfg.fault_spec = val.str_v;
    } else {
      throw Error("unknown config key \"" + key + "\"");
    }
  }
}

// ------------------------------------------------------------ edit codec ----

void encode_edit(JsonWriter& w, const pilfill::WireEdit& e) {
  w.begin_object();
  w.kv("kind", edit_kind_wire(e.kind));
  switch (e.kind) {
    case pilfill::WireEdit::Kind::kAddSegment:
      w.kv("net", static_cast<long long>(e.net));
      w.kv("ax", e.a.x);
      w.kv("ay", e.a.y);
      w.kv("bx", e.b.x);
      w.kv("by", e.b.y);
      w.kv("width_um", e.width_um);
      break;
    case pilfill::WireEdit::Kind::kRemoveSegment:
      w.kv("segment", static_cast<long long>(e.segment));
      break;
    case pilfill::WireEdit::Kind::kMoveSegment:
      w.kv("segment", static_cast<long long>(e.segment));
      w.kv("dx", e.dx);
      w.kv("dy", e.dy);
      break;
  }
  w.end_object();
}

pilfill::WireEdit decode_edit(const JsonValue& obj) {
  PIL_REQUIRE(obj.is_object(), "edit: expected an object");
  pilfill::WireEdit e;
  e.kind = edit_kind_from_wire(get_str(obj, "kind", "add_segment"));
  e.net = get_int<layout::NetId>(obj, "edit.net", layout::kInvalidNet);
  e.a.x = get_num(obj, "ax", 0.0);
  e.a.y = get_num(obj, "ay", 0.0);
  e.b.x = get_num(obj, "bx", 0.0);
  e.b.y = get_num(obj, "by", 0.0);
  e.width_um = get_num(obj, "width_um", 0.0);
  e.segment = get_int<layout::SegmentId>(obj, "edit.segment",
                                         layout::kInvalidSegment);
  e.dx = get_num(obj, "dx", 0.0);
  e.dy = get_num(obj, "dy", 0.0);
  return e;
}

// --------------------------------------------------------- method summary ----

void encode_method_summary(JsonWriter& w, const MethodSummary& s) {
  w.begin_object();
  w.kv("requested", method_wire_name(s.requested));
  w.kv("served", method_wire_name(s.served));
  w.kv("placed", s.placed);
  w.kv("shortfall", s.shortfall);
  w.kv("features", s.features);
  w.kv("delay_ps", s.delay_ps);
  w.kv("weighted_delay_ps", s.weighted_delay_ps);
  w.kv("exact_sink_delay_ps", s.exact_sink_delay_ps);
  w.kv("tiles_node_limit", s.tiles_node_limit);
  w.kv("tiles_degraded", s.tiles_degraded);
  w.kv("tiles_failed", s.tiles_failed);
  w.kv("solve_seconds", s.solve_seconds);
  w.kv("density_min", s.density_min);
  w.kv("density_max", s.density_max);
  w.kv("density_mean", s.density_mean);
  w.kv("placement_hash", hex_u64(s.placement_hash));
  if (!s.placement.empty()) {
    w.key("placement");
    w.begin_array();
    for (const geom::Rect& r : s.placement) {
      w.begin_array();
      w.value(r.xlo);
      w.value(r.ylo);
      w.value(r.xhi);
      w.value(r.yhi);
      w.end_array();
    }
    w.end_array();
  }
  w.end_object();
}

MethodSummary decode_method_summary(const JsonValue& obj) {
  PIL_REQUIRE(obj.is_object(), "methods[]: expected an object");
  MethodSummary s;
  s.requested = method_from_wire(get_str(obj, "requested", "normal"));
  s.served = method_from_wire(get_str(obj, "served", "normal"));
  s.placed = get_int<long long>(obj, "methods[].placed", 0);
  s.shortfall = get_int<long long>(obj, "methods[].shortfall", 0);
  s.features = get_int<long long>(obj, "methods[].features", 0);
  s.delay_ps = get_num(obj, "delay_ps", 0.0);
  s.weighted_delay_ps = get_num(obj, "weighted_delay_ps", 0.0);
  s.exact_sink_delay_ps = get_num(obj, "exact_sink_delay_ps", 0.0);
  s.tiles_node_limit =
      get_int<long long>(obj, "methods[].tiles_node_limit", 0);
  s.tiles_degraded = get_int<long long>(obj, "methods[].tiles_degraded", 0);
  s.tiles_failed = get_int<long long>(obj, "methods[].tiles_failed", 0);
  s.solve_seconds = get_num(obj, "solve_seconds", 0.0);
  s.density_min = get_num(obj, "density_min", 0.0);
  s.density_max = get_num(obj, "density_max", 0.0);
  s.density_mean = get_num(obj, "density_mean", 0.0);
  s.placement_hash =
      parse_hex_u64(get_str(obj, "placement_hash", "0"), "placement_hash");
  if (const JsonValue* arr = obj.find("placement"); arr != nullptr) {
    PIL_REQUIRE(arr->is_array(), "placement: expected an array");
    s.placement.reserve(arr->items.size());
    for (const JsonValue& item : arr->items) {
      PIL_REQUIRE(item.is_array() && item.items.size() == 4,
                  "placement[]: expected [xlo,ylo,xhi,yhi]");
      s.placement.emplace_back(item.items[0].num_v, item.items[1].num_v,
                               item.items[2].num_v, item.items[3].num_v);
    }
  }
  return s;
}

}  // namespace

// ------------------------------------------------------------ operations ----

const char* to_string(Op op) {
  switch (op) {
    case Op::kOpenSession: return "open_session";
    case Op::kApplyEdit: return "apply_edit";
    case Op::kSolve: return "solve";
    case Op::kStats: return "stats";
    case Op::kShutdown: return "shutdown";
  }
  return "stats";
}

Op op_from_name(std::string_view name) {
  if (name == "open_session") return Op::kOpenSession;
  if (name == "apply_edit") return Op::kApplyEdit;
  if (name == "solve") return Op::kSolve;
  if (name == "stats") return Op::kStats;
  if (name == "shutdown") return Op::kShutdown;
  throw Error("unknown op \"" + std::string(name) + "\"");
}

const char* method_wire_name(pilfill::Method m) {
  switch (m) {
    case pilfill::Method::kNormal: return "normal";
    case pilfill::Method::kIlp1: return "ilp1";
    case pilfill::Method::kIlp2: return "ilp2";
    case pilfill::Method::kGreedy: return "greedy";
    case pilfill::Method::kConvex: return "convex";
  }
  return "normal";
}

pilfill::Method method_from_wire(std::string_view name) {
  if (name == "normal") return pilfill::Method::kNormal;
  if (name == "ilp1") return pilfill::Method::kIlp1;
  if (name == "ilp2") return pilfill::Method::kIlp2;
  if (name == "greedy") return pilfill::Method::kGreedy;
  if (name == "convex") return pilfill::Method::kConvex;
  throw Error("unknown method \"" + std::string(name) + "\"");
}

layout::SyntheticLayoutConfig GenSpec::to_config() const {
  layout::SyntheticLayoutConfig cfg;
  cfg.die_um = die_um;
  cfg.num_nets = num_nets;
  cfg.seed = seed;
  cfg.num_macros = num_macros;
  return cfg;
}

// -------------------------------------------------------------- requests ----

std::string encode_request(const Request& request) {
  require_wire_int(request.id, "id");
  if (request.gen.has_value()) require_wire_int(request.gen->seed, "gen.seed");
  if (request.op == Op::kOpenSession) {
    require_wire_int(request.config.seed, "config.seed");
    require_wire_int(request.config.target.seed, "config.target_seed");
  }
  std::ostringstream os;
  JsonWriter w(os, /*pretty=*/false);
  w.begin_object();
  w.kv("schema", kRequestSchema);
  w.kv("op", to_string(request.op));
  w.kv("id", static_cast<unsigned long long>(request.id));
  if (request.trace_id != 0) w.kv("trace_id", hex_u64(request.trace_id));
  if (request.request_id != 0)
    w.kv("request_id", hex_u64(request.request_id));
  if (!request.layout_pld.empty()) w.kv("layout_pld", request.layout_pld);
  if (!request.layout_path.empty()) w.kv("layout_path", request.layout_path);
  if (request.gen.has_value()) {
    w.key("gen");
    w.begin_object();
    w.kv("die_um", request.gen->die_um);
    w.kv("num_nets", request.gen->num_nets);
    w.kv("seed", static_cast<unsigned long long>(request.gen->seed));
    w.kv("num_macros", request.gen->num_macros);
    w.end_object();
  }
  if (request.op == Op::kOpenSession) {
    w.key("config");
    w.begin_object();
    encode_model(w, request.config.model());
    encode_policy(w, request.config.policy());
    w.end_object();
  }
  if (!request.session_key.empty()) w.kv("session_key", request.session_key);
  if (!request.session.empty()) w.kv("session", request.session);
  if (request.op == Op::kApplyEdit) {
    w.key("edit");
    encode_edit(w, request.edit);
  }
  if (!request.methods.empty()) {
    w.key("methods");
    w.begin_array();
    for (pilfill::Method m : request.methods) w.value(method_wire_name(m));
    w.end_array();
  }
  if (request.deadline_ms > 0) w.kv("deadline_ms", request.deadline_ms);
  if (request.tile_deadline_ms > 0)
    w.kv("tile_deadline_ms", request.tile_deadline_ms);
  if (request.no_degrade) w.kv("no_degrade", true);
  if (request.include_placement) w.kv("include_placement", true);
  w.end_object();
  return os.str();
}

Request decode_request(std::string_view json) {
  const JsonValue doc = obs::parse_json(json);
  PIL_REQUIRE(doc.is_object(), "request: expected a JSON object");
  const std::string schema = get_str(doc, "schema");
  PIL_REQUIRE(schema == kRequestSchema,
              "unsupported request schema \"" + schema + "\" (this endpoint "
              "speaks " + std::string(kRequestSchema) + ")");
  Request r;
  r.op = op_from_name(get_str(doc, "op"));
  r.id = get_int<std::uint64_t>(doc, "id", 0);
  r.trace_id = parse_hex_u64(get_str(doc, "trace_id", "0"), "trace_id");
  r.request_id =
      parse_hex_u64(get_str(doc, "request_id", "0"), "request_id");
  r.layout_pld = get_str(doc, "layout_pld");
  r.layout_path = get_str(doc, "layout_path");
  if (const JsonValue* gen = doc.find("gen"); gen != nullptr) {
    PIL_REQUIRE(gen->is_object(), "gen: expected an object");
    GenSpec spec;
    spec.die_um = get_num(*gen, "die_um", spec.die_um);
    spec.num_nets = get_int(*gen, "gen.num_nets", spec.num_nets);
    spec.seed = get_int(*gen, "gen.seed", spec.seed);
    spec.num_macros = get_int(*gen, "gen.num_macros", spec.num_macros);
    r.gen = spec;
  }
  if (const JsonValue* cfg = doc.find("config"); cfg != nullptr)
    decode_config_into(*cfg, r.config);
  r.session_key = get_str(doc, "session_key");
  r.session = get_str(doc, "session");
  if (const JsonValue* edit = doc.find("edit"); edit != nullptr)
    r.edit = decode_edit(*edit);
  if (const JsonValue* methods = doc.find("methods"); methods != nullptr) {
    PIL_REQUIRE(methods->is_array(), "methods: expected an array");
    for (const JsonValue& item : methods->items) {
      PIL_REQUIRE(item.is_string(), "methods[]: expected a string");
      r.methods.push_back(method_from_wire(item.str_v));
    }
  }
  r.deadline_ms = get_num(doc, "deadline_ms", 0.0);
  r.tile_deadline_ms = get_num(doc, "tile_deadline_ms", 0.0);
  r.no_degrade = get_bool(doc, "no_degrade", false);
  r.include_placement = get_bool(doc, "include_placement", false);
  return r;
}

// ------------------------------------------------------------- responses ----

std::string encode_response(const Response& response) {
  std::ostringstream os;
  JsonWriter w(os, /*pretty=*/false);
  w.begin_object();
  w.kv("schema", kResponseSchema);
  w.kv("op", to_string(response.op));
  w.kv("id", static_cast<unsigned long long>(response.id));
  w.kv("ok", response.ok);
  if (response.trace_id != 0) w.kv("trace_id", hex_u64(response.trace_id));
  if (response.shed) w.kv("shed", true);
  if (response.degraded) w.kv("degraded", true);
  if (response.edit_seq > 0) w.kv("edit_seq", response.edit_seq);
  if (response.deduped) w.kv("deduped", true);
  if (response.retryable) w.kv("retryable", true);
  if (!response.error.empty()) w.kv("error", response.error);
  if (!response.error_field.empty())
    w.kv("error_field", response.error_field);
  if (!response.session.empty()) w.kv("session", response.session);
  if (response.op == Op::kOpenSession && response.ok) {
    w.kv("reused", response.reused);
    w.kv("layout_hash", hex_u64(response.layout_hash));
    w.kv("tiles", response.tiles);
    w.kv("prep_seconds", response.prep_seconds);
  }
  if (response.edit.has_value()) {
    w.key("edit");
    w.begin_object();
    w.kv("segment", response.edit->segment);
    w.kv("columns_rescanned", response.edit->columns_rescanned);
    w.kv("tiles_retargeted", response.edit->tiles_retargeted);
    w.kv("tiles_dirty", response.edit->tiles_dirty);
    w.kv("seconds", response.edit->seconds);
    w.end_object();
  }
  if (!response.methods.empty()) {
    w.key("methods");
    w.begin_array();
    for (const MethodSummary& s : response.methods)
      encode_method_summary(w, s);
    w.end_array();
  }
  if (response.stages.has_value()) {
    w.key("stages");
    w.begin_object();
    w.kv("queue_ms", response.stages->queue_ms);
    w.kv("admission_ms", response.stages->admission_ms);
    w.kv("session_ms", response.stages->session_ms);
    w.kv("solve_ms", response.stages->solve_ms);
    w.kv("write_ms", response.stages->write_ms);
    w.end_object();
  }
  if (!response.stats_json.empty()) {
    w.key("stats");
    w.raw(response.stats_json);
  }
  w.end_object();
  return os.str();
}

Response decode_response(std::string_view json) {
  const JsonValue doc = obs::parse_json(json);
  PIL_REQUIRE(doc.is_object(), "response: expected a JSON object");
  const std::string schema = get_str(doc, "schema");
  PIL_REQUIRE(schema == kResponseSchema,
              "unsupported response schema \"" + schema + "\"");
  Response r;
  r.op = op_from_name(get_str(doc, "op", "stats"));
  r.id = get_int<std::uint64_t>(doc, "id", 0);
  r.ok = get_bool(doc, "ok", false);
  r.trace_id = parse_hex_u64(get_str(doc, "trace_id", "0"), "trace_id");
  r.shed = get_bool(doc, "shed", false);
  r.degraded = get_bool(doc, "degraded", false);
  r.edit_seq = get_int<long long>(doc, "edit_seq", 0);
  r.deduped = get_bool(doc, "deduped", false);
  r.retryable = get_bool(doc, "retryable", false);
  r.error = get_str(doc, "error");
  r.error_field = get_str(doc, "error_field");
  r.session = get_str(doc, "session");
  r.reused = get_bool(doc, "reused", false);
  r.layout_hash = parse_hex_u64(get_str(doc, "layout_hash", "0"),
                                "layout_hash");
  r.tiles = get_int(doc, "tiles", 0);
  r.prep_seconds = get_num(doc, "prep_seconds", 0.0);
  if (const JsonValue* edit = doc.find("edit"); edit != nullptr) {
    PIL_REQUIRE(edit->is_object(), "edit: expected an object");
    EditSummary s;
    s.segment = get_int<long long>(*edit, "edit.segment", -1);
    s.columns_rescanned = get_int(*edit, "edit.columns_rescanned", 0);
    s.tiles_retargeted = get_int(*edit, "edit.tiles_retargeted", 0);
    s.tiles_dirty = get_int(*edit, "edit.tiles_dirty", 0);
    s.seconds = get_num(*edit, "seconds", 0.0);
    r.edit = s;
  }
  if (const JsonValue* methods = doc.find("methods"); methods != nullptr) {
    PIL_REQUIRE(methods->is_array(), "methods: expected an array");
    for (const JsonValue& item : methods->items)
      r.methods.push_back(decode_method_summary(item));
  }
  if (const JsonValue* stages = doc.find("stages"); stages != nullptr) {
    PIL_REQUIRE(stages->is_object(), "stages: expected an object");
    StageBreakdown b;
    b.queue_ms = get_num(*stages, "queue_ms", 0.0);
    b.admission_ms = get_num(*stages, "admission_ms", 0.0);
    b.session_ms = get_num(*stages, "session_ms", 0.0);
    b.solve_ms = get_num(*stages, "solve_ms", 0.0);
    b.write_ms = get_num(*stages, "write_ms", 0.0);
    r.stages = b;
  }
  if (const JsonValue* stats = doc.find("stats"); stats != nullptr) {
    // Re-serialize verbatim-ish: keep the raw object for the caller.
    std::ostringstream os;
    JsonWriter w(os, /*pretty=*/false);
    std::function<void(const JsonValue&)> emit = [&](const JsonValue& v) {
      switch (v.type) {
        case JsonValue::Type::kNull: w.null(); break;
        case JsonValue::Type::kBool: w.value(v.bool_v); break;
        case JsonValue::Type::kNumber: w.value(v.num_v); break;
        case JsonValue::Type::kString: w.value(std::string_view(v.str_v));
          break;
        case JsonValue::Type::kArray:
          w.begin_array();
          for (const auto& item : v.items) emit(item);
          w.end_array();
          break;
        case JsonValue::Type::kObject:
          w.begin_object();
          for (const auto& [k, val] : v.members) {
            w.key(k);
            emit(val);
          }
          w.end_object();
          break;
      }
    };
    emit(*stats);
    r.stats_json = os.str();
  }
  return r;
}

// ----------------------------------------------------------- fingerprints ----

std::uint64_t layout_fingerprint(const layout::Layout& layout) {
  std::ostringstream os;
  layout::write_pld(layout, os);
  return fnv1a64(os.str());
}

std::uint64_t model_fingerprint(const pilfill::ModelConfig& model) {
  std::ostringstream os;
  JsonWriter w(os, /*pretty=*/false);
  w.begin_object();
  encode_model(w, model);
  w.end_object();
  return fnv1a64(os.str());
}

std::uint64_t placement_fingerprint(const std::vector<geom::Rect>& rects) {
  std::uint64_t h = kFnvOffset;
  for (const geom::Rect& r : rects) {
    h = fnv1a64_double(r.xlo, h);
    h = fnv1a64_double(r.ylo, h);
    h = fnv1a64_double(r.xhi, h);
    h = fnv1a64_double(r.yhi, h);
  }
  return h;
}

MethodSummary summarize_method(const pilfill::MethodResult& mr,
                               pilfill::Method requested,
                               bool include_placement) {
  MethodSummary s;
  s.requested = requested;
  s.served = mr.method;
  s.placed = mr.placed;
  s.shortfall = mr.shortfall;
  s.features = mr.impact.features;
  s.delay_ps = mr.impact.delay_ps;
  s.weighted_delay_ps = mr.impact.weighted_delay_ps;
  s.exact_sink_delay_ps = mr.impact.exact_sink_delay_ps;
  s.tiles_node_limit = mr.tiles_node_limit;
  s.tiles_degraded = mr.tiles_degraded;
  s.tiles_failed = mr.tiles_failed;
  s.solve_seconds = mr.solve_seconds;
  s.density_min = mr.density_after.min_density;
  s.density_max = mr.density_after.max_density;
  s.density_mean = mr.density_after.mean_density;
  s.placement_hash = placement_fingerprint(mr.placement.features);
  if (include_placement) s.placement = mr.placement.features;
  return s;
}

}  // namespace pil::service
