#pragma once
/// \file report.hpp
/// Structured run reports: serialize a FlowResult (with the FlowConfig that
/// produced it, the per-stage prep timings, per-method solver internals,
/// and an optional metrics-registry snapshot) as JSON. This is the
/// machine-readable counterpart of the CLI's human tables -- schema
/// "pil.run_report.v3", documented in docs/OBSERVABILITY.md. Its `config`
/// is the service wire's config object (config_codec.hpp), so
/// read_config_json replays the run.

#include <iosfwd>
#include <string>

#include "pil/obs/metrics.hpp"
#include "pil/pilfill/driver.hpp"

namespace pil::pilfill {

struct RunReportOptions {
  std::string tool = "pilfill";
  /// Free-form label for the input (layout path, testcase name, ...).
  std::string input;
  /// Append a snapshot of the global metrics registry under "metrics".
  bool include_metrics = true;
};

/// Write the full report document to `os` (pretty-printed JSON object).
void write_run_report(std::ostream& os, const FlowConfig& config,
                      const FlowResult& result,
                      const RunReportOptions& options = {});

/// Same, to a file; throws pil::Error when the file cannot be written.
void write_run_report_file(const std::string& path, const FlowConfig& config,
                           const FlowResult& result,
                           const RunReportOptions& options = {});

/// Serialize one MethodResult as a JSON object into an open writer (value
/// position). Exposed for the bench harness, which assembles documents of
/// many flow runs.
void write_method_result_json(obs::JsonWriter& w, const MethodResult& mr);

}  // namespace pil::pilfill
