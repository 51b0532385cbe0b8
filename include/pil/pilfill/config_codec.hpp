#pragma once
/// \file config_codec.hpp
/// The one spelling of a FlowConfig: the JSON object the service wire
/// carries as `config`, a run report embeds, and model_fingerprint hashes.
/// The CLIs parse method and slack-mode names through the same tables, so
/// a config written anywhere reads back everywhere.
///
/// Enum spellings: Method "normal"/"ilp1"/"ilp2"/"greedy"/"convex";
/// TargetEngine as to_string ("mc"/"minvar_lp"/"minfill_lp"); SlackMode
/// "i"/"ii"/"iii"; Objective "weighted"/"non_weighted"; FillStyle as
/// cap::to_string ("floating"/"grounded"). See docs/API.md for the
/// ModelConfig fields the codec does not carry.

#include <cstdint>
#include <string_view>

#include "pil/obs/json.hpp"
#include "pil/pilfill/driver.hpp"

namespace pil::pilfill {

/// Lowercase wire spelling of a fill method -- distinct from to_string's
/// display names ("ILP-II").
const char* method_wire_name(Method m);
/// Inverse of method_wire_name; throws pil::Error on an unknown name.
Method method_from_wire(std::string_view name);

/// "i", "ii" or "iii" (case-sensitive); throws pil::Error naming `field`.
fill::SlackMode slack_mode_from_wire(std::string_view name,
                                     std::string_view field = "solver_mode");

/// The model half as object members, in a fixed key order: these exact
/// bytes (compact mode) are what model_fingerprint hashes, so key order is
/// part of the fingerprint's definition.
void write_model_json(obs::JsonWriter& w, const ModelConfig& m);
/// The policy half as object members.
void write_policy_json(obs::JsonWriter& w, const SolvePolicy& p);

/// A FlowConfig from a config object: absent keys keep their defaults.
/// Throws pil::Error naming `config.<key>` on an unknown key, a value of
/// the wrong JSON type, an integer the wire cannot carry exactly, or an
/// unknown enum spelling. An unknown key would silently change the problem
/// solved, so it is never ignored.
FlowConfig read_config_json(const obs::JsonValue& obj);

/// FNV-1a 64 over the compact write_model_json object (policy excluded: it
/// never changes results, so it must not split the service's session pool).
std::uint64_t model_fingerprint(const ModelConfig& model);

}  // namespace pil::pilfill
