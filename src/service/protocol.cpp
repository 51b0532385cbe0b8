#include "pil/service/protocol.hpp"

#include <cstring>
#include <functional>
#include <sstream>

#include "pil/layout/pld_io.hpp"
#include "pil/obs/json.hpp"
#include "pil/pilfill/config_codec.hpp"
#include "pil/util/error.hpp"
#include "pil/util/strings.hpp"

namespace pil::service {

namespace {

using obs::JsonValue;
using obs::JsonWriter;

// ----------------------------------------------------------- JSON lookup ----

double get_num(const JsonValue& obj, std::string_view key, double def) {
  const JsonValue* v = obj.find(key);
  return v == nullptr ? def : obs::json_num(*v, key);
}

/// The integer member named by the last component of `field`, a dotted
/// wire path ("gen.seed") that errors quote; `def` when absent.
template <typename T>
T get_int(const JsonValue& obj, std::string_view field, T def) {
  const JsonValue* v = obj.find(field.substr(field.rfind('.') + 1));
  return v == nullptr ? def : obs::json_int<T>(*v, field);
}

/// encode_request's guard for a u64 the wire cannot carry exactly.
void require_wire_int(std::uint64_t v, const char* field) {
  PIL_REQUIRE(v <= obs::kMaxJsonInt,
              std::string(field) + ": " + std::to_string(v) +
                  " exceeds 2^53 - 1, the largest integer the wire "
                  "carries exactly");
}

bool get_bool(const JsonValue& obj, std::string_view key, bool def) {
  const JsonValue* v = obj.find(key);
  return v == nullptr ? def : obs::json_bool(*v, key);
}

std::string get_str(const JsonValue& obj, std::string_view key,
                    std::string def = {}) {
  const JsonValue* v = obj.find(key);
  return v == nullptr ? def : obs::json_str(*v, key);
}

// ------------------------------------------------------------ enum wires ----

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
  obs::json_object(obj, "edit");
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
  w.kv("requested", pilfill::method_wire_name(s.requested));
  w.kv("served", pilfill::method_wire_name(s.served));
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
  obs::json_object(obj, "methods[]");
  MethodSummary s;
  s.requested = pilfill::method_from_wire(get_str(obj, "requested", "normal"));
  s.served = pilfill::method_from_wire(get_str(obj, "served", "normal"));
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
    const std::vector<JsonValue>& items = obs::json_array(*arr, "placement");
    s.placement.reserve(items.size());
    for (const JsonValue& item : items) {
      const std::vector<JsonValue>& c = obs::json_array(item, "placement[]");
      if (c.size() != 4)
        throw Error("placement[]: expected [xlo,ylo,xhi,yhi]");
      const auto coord = [&](int k) {
        return obs::json_num(c[k], "placement[]");
      };
      s.placement.emplace_back(coord(0), coord(1), coord(2), coord(3));
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
    pilfill::write_model_json(w, request.config.model());
    pilfill::write_policy_json(w, request.config.policy());
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
    for (pilfill::Method m : request.methods)
      w.value(pilfill::method_wire_name(m));
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
  obs::json_object(doc, "request");
  const std::string schema = get_str(doc, "schema");
  if (schema != kRequestSchema)
    throw Error("unsupported request schema \"" + schema + "\" (this "
                "endpoint speaks " + std::string(kRequestSchema) + ")");
  Request r;
  r.op = op_from_name(get_str(doc, "op"));
  r.id = get_int<std::uint64_t>(doc, "id", 0);
  r.trace_id = parse_hex_u64(get_str(doc, "trace_id", "0"), "trace_id");
  r.request_id =
      parse_hex_u64(get_str(doc, "request_id", "0"), "request_id");
  r.layout_pld = get_str(doc, "layout_pld");
  r.layout_path = get_str(doc, "layout_path");
  if (const JsonValue* gen = doc.find("gen"); gen != nullptr) {
    obs::json_object(*gen, "gen");
    GenSpec spec;
    spec.die_um = get_num(*gen, "die_um", spec.die_um);
    spec.num_nets = get_int(*gen, "gen.num_nets", spec.num_nets);
    spec.seed = get_int(*gen, "gen.seed", spec.seed);
    spec.num_macros = get_int(*gen, "gen.num_macros", spec.num_macros);
    r.gen = spec;
  }
  if (const JsonValue* cfg = doc.find("config"); cfg != nullptr)
    r.config = pilfill::read_config_json(*cfg);
  r.session_key = get_str(doc, "session_key");
  r.session = get_str(doc, "session");
  if (const JsonValue* edit = doc.find("edit"); edit != nullptr)
    r.edit = decode_edit(*edit);
  if (const JsonValue* methods = doc.find("methods"); methods != nullptr)
    for (const JsonValue& item : obs::json_array(*methods, "methods"))
      r.methods.push_back(
          pilfill::method_from_wire(obs::json_str(item, "methods[]")));
  r.deadline_ms = get_num(doc, "deadline_ms", 0.0);
  r.tile_deadline_ms = get_num(doc, "tile_deadline_ms", 0.0);
  r.no_degrade = get_bool(doc, "no_degrade", false);
  r.include_placement = get_bool(doc, "include_placement", false);
  return r;
}

// ------------------------------------------------------------- responses ----

void write_stage_breakdown(JsonWriter& w, const StageBreakdown& stages) {
  w.begin_object();
  w.kv("queue_ms", stages.queue_ms);
  w.kv("admission_ms", stages.admission_ms);
  w.kv("session_ms", stages.session_ms);
  w.kv("solve_ms", stages.solve_ms);
  w.kv("write_ms", stages.write_ms);
  w.end_object();
}

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
    write_stage_breakdown(w, *response.stages);
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
  obs::json_object(doc, "response");
  const std::string schema = get_str(doc, "schema");
  if (schema != kResponseSchema)
    throw Error("unsupported response schema \"" + schema + "\"");
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
    obs::json_object(*edit, "edit");
    EditSummary s;
    s.segment = get_int<long long>(*edit, "edit.segment", -1);
    s.columns_rescanned = get_int(*edit, "edit.columns_rescanned", 0);
    s.tiles_retargeted = get_int(*edit, "edit.tiles_retargeted", 0);
    s.tiles_dirty = get_int(*edit, "edit.tiles_dirty", 0);
    s.seconds = get_num(*edit, "seconds", 0.0);
    r.edit = s;
  }
  if (const JsonValue* methods = doc.find("methods"); methods != nullptr)
    for (const JsonValue& item : obs::json_array(*methods, "methods"))
      r.methods.push_back(decode_method_summary(item));
  if (const JsonValue* stages = doc.find("stages"); stages != nullptr) {
    obs::json_object(*stages, "stages");
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

std::uint64_t placement_fingerprint(const std::vector<geom::Rect>& rects) {
  std::uint64_t h = kFnv1a64Offset;
  for (const geom::Rect& r : rects) {
    for (const double v : {r.xlo, r.ylo, r.xhi, r.yhi}) {
      std::uint64_t bits = 0;
      static_assert(sizeof(bits) == sizeof(v));
      std::memcpy(&bits, &v, sizeof(bits));
      char le[8];  // little-endian, so the hash is host-independent
      for (int i = 0; i < 8; ++i) le[i] = static_cast<char>(bits >> (8 * i));
      h = fnv1a64(std::string_view(le, sizeof(le)), h);
    }
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
