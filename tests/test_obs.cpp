// Tests for pil/obs (JSON writer/parser, metrics registry, trace spans) and
// their integration: run-report round-trips and bit-identical flow results
// with instrumentation on/off and across thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <sstream>
#include <thread>
#include <vector>

#include "pil/layout/synthetic.hpp"
#include "pil/obs/journal.hpp"
#include "pil/obs/json.hpp"
#include "pil/obs/metrics.hpp"
#include "pil/obs/trace.hpp"
#include "pil/pilfill/driver.hpp"
#include "pil/pilfill/report.hpp"
#include "pil/util/error.hpp"
#include "pil/util/log.hpp"
#include "pil/util/stopwatch.hpp"

namespace pil {
namespace {

using obs::JsonValue;
using obs::JsonWriter;
using obs::parse_json;

// ----------------------------------------------------------------- json ----

TEST(Json, EscapeRoundTrip) {
  const std::string nasty = "a\"b\\c\n\t\r\x01 \xE2\x82\xAC end";
  const JsonValue v = parse_json(obs::json_escape(nasty));
  ASSERT_TRUE(v.is_string());
  EXPECT_EQ(v.str_v, nasty);
}

TEST(Json, NumberFormatting) {
  EXPECT_EQ(obs::json_number(0.0), "0");
  EXPECT_EQ(obs::json_number(-3.0), "-3");
  EXPECT_EQ(obs::json_number(std::nan("")), "null");
  EXPECT_EQ(obs::json_number(HUGE_VAL), "null");
  // Doubles must round-trip through the printed token.
  for (const double d : {0.1, 1.0 / 3.0, 1e-300, 6.02214076e23}) {
    EXPECT_EQ(std::stod(obs::json_number(d)), d);
  }
}

TEST(Json, WriterParserRoundTrip) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("s", "hi \"there\"");
  w.kv("i", 42);
  w.kv("d", 2.5);
  w.kv("t", true);
  w.key("n");
  w.null();
  w.key("a");
  w.begin_array();
  w.value(1);
  w.value("two");
  w.begin_object();
  w.kv("nested", 3);
  w.end_object();
  w.end_array();
  w.key("raw");
  w.raw("[1,2]");
  w.end_object();

  const JsonValue v = parse_json(os.str());
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(v.at("s").str_v, "hi \"there\"");
  EXPECT_EQ(v.at("i").num_v, 42);
  EXPECT_EQ(v.at("d").num_v, 2.5);
  EXPECT_TRUE(v.at("t").bool_v);
  EXPECT_TRUE(v.at("n").is_null());
  ASSERT_TRUE(v.at("a").is_array());
  ASSERT_EQ(v.at("a").items.size(), 3u);
  EXPECT_EQ(v.at("a").items[2].at("nested").num_v, 3);
  ASSERT_EQ(v.at("raw").items.size(), 2u);
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(v.at("missing"), Error);
}

// Satellite regression: every C0 control character must leave json_escape
// as an escape sequence (`\n`-style or `\u00XX`), never as a raw byte that
// would make the document invalid JSON.
TEST(Json, C0ControlCharactersEscape) {
  std::string all(1, '\0');
  for (char c = 1; c < 0x20; ++c) all.push_back(c);
  const std::string escaped = obs::json_escape(all);
  for (const char c : escaped)
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  EXPECT_NE(escaped.find("\\u0000"), std::string::npos);
  EXPECT_NE(escaped.find("\\u0001"), std::string::npos);
  EXPECT_NE(escaped.find("\\u001f"), std::string::npos);
  EXPECT_NE(escaped.find("\\n"), std::string::npos);
  const JsonValue v = parse_json(escaped);
  ASSERT_TRUE(v.is_string());
  EXPECT_EQ(v.str_v, all);  // round-trips, embedded NUL included
}

// Satellite regression: non-finite doubles go through the writer as null
// (valid JSON), not as "nan"/"inf" tokens.
TEST(Json, WriterEmitsNullForNonFiniteDoubles) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.kv("nan", std::nan(""));
  w.kv("inf", HUGE_VAL);
  w.kv("ninf", -HUGE_VAL);
  w.kv("fine", 1.5);
  w.end_object();
  const JsonValue v = parse_json(os.str());
  EXPECT_TRUE(v.at("nan").is_null());
  EXPECT_TRUE(v.at("inf").is_null());
  EXPECT_TRUE(v.at("ninf").is_null());
  EXPECT_DOUBLE_EQ(v.at("fine").num_v, 1.5);
  EXPECT_EQ(obs::json_number(-HUGE_VAL), "null");
}

TEST(Json, ParserRejectsGarbage) {
  EXPECT_THROW(parse_json(""), Error);
  EXPECT_THROW(parse_json("{"), Error);
  EXPECT_THROW(parse_json("[1,]"), Error);
  EXPECT_THROW(parse_json("{\"a\":1} trailing"), Error);
  EXPECT_THROW(parse_json("'single'"), Error);
}

TEST(Json, ParserHandlesUnicodeEscapes) {
  const JsonValue v = parse_json("\"a\\u0041\\u20ac\"");
  EXPECT_EQ(v.str_v, "aA\xE2\x82\xAC");
}

TEST(Json, ParserPairsSurrogates) {
  // U+1F600 arrives as the surrogate pair D83D DE00 and must decode to one
  // 4-byte UTF-8 sequence, not two 3-byte surrogate encodings.
  const JsonValue v = parse_json("\"\\ud83d\\ude00\"");
  EXPECT_EQ(v.str_v, "\xF0\x9F\x98\x80");
  // Upper-case hex digits and a BMP neighbor round the same path.
  EXPECT_EQ(parse_json("\"\\uD83D\\uDE00!\"").str_v, "\xF0\x9F\x98\x80!");
  // The decoded UTF-8 passes through json_escape untouched, so
  // escape -> parse round-trips astral code points.
  const std::string astral = "mix \xF0\x9F\x98\x80 end";
  EXPECT_EQ(parse_json(obs::json_escape(astral)).str_v, astral);
}

TEST(Json, ParserRejectsBrokenSurrogates) {
  EXPECT_THROW(parse_json("\"\\ud83d\""), Error);        // unpaired high
  EXPECT_THROW(parse_json("\"\\ud83d x\""), Error);      // high + literal
  EXPECT_THROW(parse_json("\"\\ud83d\\u0041\""), Error); // high + non-low
  EXPECT_THROW(parse_json("\"\\ude00\""), Error);        // lone low
  EXPECT_THROW(parse_json("\"\\ud83d\\u12g4\""), Error); // bad hex digit
}

// -------------------------------------------------------------- metrics ----

TEST(Metrics, CounterGaugeBasics) {
  obs::Counter c;
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5);
  c.reset();
  EXPECT_EQ(c.value(), 0);

  obs::Gauge g;
  g.set(2.5);
  g.add(0.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
}

TEST(Metrics, HistogramBucketsAndQuantiles) {
  obs::Histogram h;
  for (int i = 0; i < 100; ++i) h.observe(1.0);  // bucket covering [1, 2)
  h.observe(0.0);                                // underflow bucket 0
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 101);
  EXPECT_DOUBLE_EQ(s.sum, 100.0);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 1.0);
  // The bucket containing 1.0 has lower edge exactly 1.
  const int b = obs::Histogram::bucket_index(1.0);
  EXPECT_DOUBLE_EQ(obs::Histogram::bucket_lower(b), 1.0);
  EXPECT_EQ(s.buckets[b], 100);
  EXPECT_EQ(s.buckets[0], 1);
  // Median within the sqrt(2) geometric-midpoint tolerance of 1.0.
  EXPECT_GE(s.quantile(0.5), 1.0);
  EXPECT_LE(s.quantile(0.5), std::sqrt(2.0));
}

TEST(Metrics, HistogramBucketEdges) {
  // b >= 1 covers [2^(b-32), 2^(b-31)).
  for (const double v : {1e-6, 0.001, 0.5, 1.0, 3.0, 1024.0}) {
    const int b = obs::Histogram::bucket_index(v);
    ASSERT_GE(b, 1);
    EXPECT_GE(v, obs::Histogram::bucket_lower(b));
    EXPECT_LT(v, obs::Histogram::bucket_lower(b + 1));
  }
  EXPECT_EQ(obs::Histogram::bucket_index(0.0), 0);
  EXPECT_EQ(obs::Histogram::bucket_index(-1.0), 0);
}

TEST(Metrics, RegistryHandlesAreStable) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("a");
  reg.counter("b");
  reg.counter("c");
  EXPECT_EQ(&a, &reg.counter("a"));  // same handle after more insertions
  a.add(7);
  reg.reset();  // zeroes but keeps registrations
  EXPECT_EQ(&a, &reg.counter("a"));
  EXPECT_EQ(a.value(), 0);
}

TEST(Metrics, SnapshotIsSortedByName) {
  obs::MetricsRegistry reg;
  reg.counter("zzz").add(1);
  reg.counter("aaa").add(2);
  reg.gauge("mid").set(3.0);
  const obs::MetricsSnapshot s = reg.snapshot();
  ASSERT_EQ(s.counters.size(), 2u);
  EXPECT_EQ(s.counters[0].first, "aaa");
  EXPECT_EQ(s.counters[1].first, "zzz");
  ASSERT_EQ(s.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(s.gauges[0].second, 3.0);
}

TEST(Metrics, ConcurrentRecordingLosesNothing) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("hits");
  obs::Gauge& g = reg.gauge("sum");
  obs::Histogram& h = reg.histogram("lat");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add();
        g.add(1.0);
        h.observe(0.5);
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(g.value(), kThreads * kPerThread);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, kThreads * kPerThread);
  EXPECT_DOUBLE_EQ(s.sum, kThreads * kPerThread * 0.5);
  EXPECT_DOUBLE_EQ(s.min, 0.5);
  EXPECT_DOUBLE_EQ(s.max, 0.5);
}

// Satellite: percentile extraction on the degenerate histograms -- empty
// (no observations at all) and a single sample.
TEST(Metrics, EmptyHistogramPercentiles) {
  obs::Histogram h;
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 0);
  EXPECT_DOUBLE_EQ(s.sum, 0.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
  const obs::Histogram::Percentiles p = s.percentiles();
  EXPECT_DOUBLE_EQ(p.p50, 0.0);
  EXPECT_DOUBLE_EQ(p.p90, 0.0);
  EXPECT_DOUBLE_EQ(p.p99, 0.0);
}

TEST(Metrics, SingleSampleHistogramPercentiles) {
  obs::Histogram h;
  h.observe(0.25);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 1);
  EXPECT_DOUBLE_EQ(s.min, 0.25);
  EXPECT_DOUBLE_EQ(s.max, 0.25);
  const obs::Histogram::Percentiles p = s.percentiles();
  // One sample: every percentile lands in its bucket, clamped by min/max
  // to the sample itself.
  EXPECT_DOUBLE_EQ(p.p50, 0.25);
  EXPECT_DOUBLE_EQ(p.p90, 0.25);
  EXPECT_DOUBLE_EQ(p.p99, 0.25);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 0.25);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 0.25);
}

// Satellite: exact counter/gauge totals under 1 and 4 incrementing
// threads (the 4-thread case exercises the relaxed-atomic accumulators).
TEST(Metrics, CounterGaugeExactTotalsAcrossThreadCounts) {
  for (const int threads : {1, 4}) {
    obs::Counter c;
    obs::Gauge g;
    constexpr int kPerThread = 25000;
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&] {
        for (int i = 0; i < kPerThread; ++i) {
          c.add(2);
          g.add(0.5);
        }
      });
    }
    for (auto& w : workers) w.join();
    EXPECT_EQ(c.value(), 2LL * threads * kPerThread);
    EXPECT_DOUBLE_EQ(g.value(), 0.5 * threads * kPerThread);
  }
}

TEST(Metrics, LabeledNameFormat) {
  EXPECT_EQ(obs::labeled("base", {{"method", "ILP-II"}, {"thread", "0"}}),
            "base{method=ILP-II,thread=0}");
  EXPECT_EQ(obs::labeled("base", {}), "base");
}

TEST(Metrics, LabeledEscapesSeparatorBytes) {
  // Values containing the composite-name separators must be backslash-
  // escaped so the OpenMetrics writer can split them back losslessly.
  EXPECT_EQ(obs::labeled("base", {{"spec", "a,b=c}d\\e"}}),
            "base{spec=a\\,b\\=c\\}d\\\\e}");
}

TEST(Metrics, OpenMetricsLabelValueEscapeRoundTrip) {
  // A hostile label value -- fault specs, file paths, free-text -- must
  // survive labeled() and land as one correctly escaped OpenMetrics label,
  // not split into phantom dimensions or break the exposition line.
  obs::MetricsRegistry reg;
  const std::string nasty = "tile_solve:throw:1,path=/a\\b\"c}d\ne";
  reg.counter(obs::labeled("pil.faults.injected", {{"spec", nasty}})).add(1);
  std::ostringstream os;
  reg.write_openmetrics(os);
  const std::string text = os.str();
  // Exposition-format escapes: backslash, double quote, newline. The
  // separator bytes (',', '=', '}') are legal inside a quoted value.
  EXPECT_NE(
      text.find("pil_faults_injected_total{spec=\""
                "tile_solve:throw:1,path=/a\\\\b\\\"c}d\\ne\"} 1\n"),
      std::string::npos)
      << text;
  // Exactly one label: the commas/equals inside the value never became
  // extra `k="v"` pairs.
  const std::size_t line = text.find("pil_faults_injected_total{");
  ASSERT_NE(line, std::string::npos);
  const std::string label_block = text.substr(
      line, text.find(' ', line) - line);
  int unescaped_quotes = 0;
  for (std::size_t i = 0; i < label_block.size(); ++i)
    if (label_block[i] == '"' && (i == 0 || label_block[i - 1] != '\\'))
      ++unescaped_quotes;
  EXPECT_EQ(unescaped_quotes, 2);
}

TEST(Metrics, HistogramPercentilesExtraction) {
  obs::Histogram h;
  // 90 fast observations around 1ms, 10 slow around 1s: p50 must sit in
  // the fast bucket, p99 in the slow one (within the sqrt(2) tolerance).
  for (int i = 0; i < 90; ++i) h.observe(1e-3);
  for (int i = 0; i < 10; ++i) h.observe(1.0);
  const obs::Histogram::Percentiles p = h.snapshot().percentiles();
  EXPECT_GT(p.p50, 1e-3 / std::sqrt(2.0));
  EXPECT_LT(p.p50, 1e-3 * std::sqrt(2.0));
  EXPECT_GT(p.p99, 1.0 / std::sqrt(2.0));
  EXPECT_LE(p.p99, 1.0 * std::sqrt(2.0));
  EXPECT_LE(p.p50, p.p90);
  EXPECT_LE(p.p90, p.p99);
}

TEST(Metrics, SnapshotJsonParsesBack) {
  obs::MetricsRegistry reg;
  reg.counter("pil.test.count").add(3);
  reg.gauge("pil.test.gauge").set(1.25);
  reg.histogram("pil.test.hist").observe(0.25);
  std::ostringstream os;
  JsonWriter w(os);
  reg.snapshot().write_json(w);
  const JsonValue v = parse_json(os.str());
  EXPECT_EQ(v.at("counters").at("pil.test.count").num_v, 3);
  EXPECT_DOUBLE_EQ(v.at("gauges").at("pil.test.gauge").num_v, 1.25);
  const JsonValue& hist = v.at("histograms").at("pil.test.hist");
  EXPECT_EQ(hist.at("count").num_v, 1);
  EXPECT_DOUBLE_EQ(hist.at("sum").num_v, 0.25);
  EXPECT_GT(hist.at("p50").num_v, 0.0);
  // Percentiles replaced the raw bucket dump in the default emission ...
  EXPECT_EQ(hist.find("buckets"), nullptr);

  // ... but the buckets are still available on request.
  std::ostringstream os2;
  JsonWriter w2(os2);
  reg.snapshot().write_json(w2, /*include_buckets=*/true);
  const JsonValue v2 = parse_json(os2.str());
  const JsonValue& buckets =
      v2.at("histograms").at("pil.test.hist").at("buckets");
  ASSERT_EQ(buckets.items.size(), 1u);  // nonzero buckets only
  EXPECT_DOUBLE_EQ(buckets.items[0].items[0].num_v, 0.25);
}

// Tentpole: OpenMetrics text exposition. Internal `base{k=v}` composite
// names split back into real label dimensions, counters gain `_total`,
// histograms emit cumulative buckets closed by `+Inf`, and the document
// terminates with `# EOF`.
TEST(Metrics, OpenMetricsExposition) {
  obs::MetricsRegistry reg;
  reg.counter("pil.tiles.solved").add(3);
  reg.counter(obs::labeled("pil.tiles.solved", {{"method", "ILP-II"}}))
      .add(2);
  reg.gauge("pil.queue.depth").set(1.5);
  reg.gauge("pil.weird.gauge").set(std::nan(""));
  obs::Histogram& h = reg.histogram("pil.solve.seconds");
  h.observe(0.25);
  h.observe(0.25);
  h.observe(4.0);

  std::ostringstream os;
  reg.write_openmetrics(os);
  const std::string text = os.str();

  EXPECT_NE(text.find("# TYPE pil_tiles_solved counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("pil_tiles_solved_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("pil_tiles_solved_total{method=\"ILP-II\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE pil_queue_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("pil_queue_depth 1.5\n"), std::string::npos);
  EXPECT_NE(text.find("pil_weird_gauge NaN\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE pil_solve_seconds histogram\n"),
            std::string::npos);
  // Cumulative buckets: the 0.25 pair is counted again by every later
  // bucket line, and +Inf always equals the total count.
  EXPECT_NE(text.find("pil_solve_seconds_bucket{le=\"0.5\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("pil_solve_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("pil_solve_seconds_sum 4.5\n"), std::string::npos);
  EXPECT_NE(text.find("pil_solve_seconds_count 3\n"), std::string::npos);
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.substr(text.size() - 6), "# EOF\n");

  // Sanitized names stay within the OpenMetrics charset.
  for (const char c : std::string("pil_tiles_solved"))
    EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_');
}

TEST(Metrics, GlobalEnableSwitch) {
  EXPECT_FALSE(obs::metrics_enabled());  // off by default
  obs::set_metrics_enabled(true);
  EXPECT_TRUE(obs::metrics_enabled());
  obs::set_metrics_enabled(false);
  EXPECT_FALSE(obs::metrics_enabled());
}

// ---------------------------------------------------------------- trace ----

TEST(Trace, SpansAreNoOpsWithoutSession) {
  ASSERT_EQ(obs::trace_session(), nullptr);
  { obs::TraceSpan span("orphan"); }  // must not crash or allocate a session
  EXPECT_EQ(obs::trace_session(), nullptr);
}

TEST(Trace, SessionCollectsAndSerializes) {
  obs::TraceSession session;
  obs::set_trace_session(&session);
  {
    obs::TraceSpan outer("outer");
    obs::TraceSpan inner("inner", "{\"tile\":7}");
  }
  std::thread([] { obs::TraceSpan span("worker"); }).join();
  obs::set_trace_session(nullptr);
  EXPECT_EQ(session.num_events(), 3u);

  std::ostringstream os;
  session.write_json(os);
  const JsonValue v = parse_json(os.str());
  ASSERT_TRUE(v.is_array());
  // Metadata records ("M") precede the three duration spans ("X").
  std::size_t spans = 0;
  bool saw_inner = false;
  for (const JsonValue& e : v.items) {
    EXPECT_EQ(e.at("pid").num_v, 1);
    if (e.at("ph").str_v == "M") continue;
    ++spans;
    EXPECT_EQ(e.at("ph").str_v, "X");
    EXPECT_EQ(e.at("cat").str_v, "pil");
    EXPECT_GE(e.at("ts").num_v, 0.0);
    EXPECT_GE(e.at("dur").num_v, 0.0);
    if (e.at("name").str_v == "inner") {
      saw_inner = true;
      EXPECT_EQ(e.at("args").at("tile").num_v, 7);
    }
  }
  EXPECT_EQ(spans, 3u);
  EXPECT_TRUE(saw_inner);
}

// Satellite: worker threads must be labeled in the trace UI, so the writer
// emits process_name / thread_name metadata records ahead of the spans.
TEST(Trace, EmitsProcessAndThreadMetadata) {
  obs::set_trace_process_name("pil-test");
  obs::journal_set_thread_name("metadata-main");
  obs::TraceSession session;
  obs::set_trace_session(&session);
  { obs::TraceSpan span("work"); }
  obs::set_trace_session(nullptr);

  std::ostringstream os;
  session.write_json(os);
  const JsonValue v = parse_json(os.str());
  ASSERT_TRUE(v.is_array());
  bool saw_process = false, saw_thread = false;
  for (const JsonValue& e : v.items) {
    if (e.at("ph").str_v != "M") continue;
    if (e.at("name").str_v == "process_name" &&
        e.at("args").at("name").str_v == "pil-test")
      saw_process = true;
    if (e.at("name").str_v == "thread_name" &&
        e.at("args").at("name").str_v == "metadata-main")
      saw_thread = true;
  }
  EXPECT_TRUE(saw_process);
  EXPECT_TRUE(saw_thread);
  EXPECT_EQ(obs::trace_process_name(), "pil-test");
}

// ------------------------------------------------------- stopwatch / log ----

TEST(Stopwatch, PauseFreezesElapsedTime) {
  Stopwatch sw;
  sw.pause();
  EXPECT_TRUE(sw.paused());
  const double frozen = sw.seconds();
  // Burn a little wall clock; the paused reading must not move.
  double sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  EXPECT_GT(sink, 0.0);
  EXPECT_DOUBLE_EQ(sw.seconds(), frozen);
  sw.pause();  // idempotent
  sw.resume();
  EXPECT_FALSE(sw.paused());
  EXPECT_GE(sw.seconds(), frozen);
  sw.resume();  // idempotent
}

TEST(Stopwatch, ScopedTimerAccumulates) {
  double total = 0.0;
  {
    ScopedTimer t(total);
    EXPECT_GE(t.seconds(), 0.0);
  }
  const double first = total;
  EXPECT_GE(first, 0.0);
  { ScopedTimer t(total); }
  EXPECT_GE(total, first);  // += semantics, not overwrite
}

TEST(Log, ParseLogLevel) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("INFO"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("Warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("warning"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("none"), LogLevel::kOff);
  EXPECT_THROW(parse_log_level("loud"), Error);
}

// ---------------------------------------------------- flow integration ----

layout::Layout small_layout() {
  layout::SyntheticLayoutConfig cfg;
  cfg.die_um = 96;
  cfg.num_nets = 40;
  cfg.seed = 5;
  return layout::generate_synthetic_layout(cfg);
}

pilfill::FlowConfig small_config(int threads = 1) {
  pilfill::FlowConfig config;
  config.window_um = 32;
  config.r = 2;
  config.threads = threads;
  return config;
}

TEST(RunReport, RoundTripsThroughParser) {
  const layout::Layout l = small_layout();
  obs::metrics().clear();
  obs::set_metrics_enabled(true);
  const pilfill::FlowResult res = pilfill::run_pil_fill_flow(
      l, small_config(), {pilfill::Method::kNormal, pilfill::Method::kIlp2});
  obs::set_metrics_enabled(false);

  std::ostringstream os;
  pilfill::RunReportOptions options;
  options.input = "synthetic:small";
  write_run_report(os, small_config(), res, options);
  const JsonValue v = parse_json(os.str());

  EXPECT_EQ(v.at("schema").str_v, "pil.run_report.v1");
  EXPECT_EQ(v.at("input").str_v, "synthetic:small");
  EXPECT_EQ(v.at("config").at("threads").num_v, 1);
  // Stage breakdown sums to the reported prep time.
  const JsonValue& stages = v.at("prep").at("stages");
  double stage_sum = 0;
  for (const auto& [name, val] : stages.members) stage_sum += val.num_v;
  EXPECT_NEAR(stage_sum, v.at("prep").at("seconds").num_v, 1e-9);

  ASSERT_EQ(v.at("methods").items.size(), 2u);
  const JsonValue& ilp2 = v.at("methods").items[1];
  EXPECT_EQ(ilp2.at("method").str_v, "ILP-II");
  EXPECT_EQ(ilp2.at("placed").num_v, res.methods[1].placed);
  EXPECT_DOUBLE_EQ(ilp2.at("delay_ps").num_v, res.methods[1].impact.delay_ps);
  EXPECT_GE(ilp2.at("bb_nodes").num_v, 0.0);
  EXPECT_GE(ilp2.at("lp_solves").num_v, 0.0);
  EXPECT_EQ(ilp2.at("tiles_degraded").num_v, res.methods[1].tiles_degraded);
  EXPECT_EQ(ilp2.at("tiles_failed").num_v, res.methods[1].tiles_failed);

  // The metrics snapshot rode along and has the per-method counters.
  const JsonValue& counters = v.at("metrics").at("counters");
  EXPECT_NE(counters.find("pilfill.tiles_solved{method=ILP-II}"), nullptr);
  obs::metrics().clear();
}

TEST(RunReport, SolverCountersMatchAggregates) {
  const layout::Layout l = small_layout();
  const pilfill::FlowResult res = pilfill::run_pil_fill_flow(
      l, small_config(), {pilfill::Method::kIlp2});
  const pilfill::MethodResult& mr = res.methods[0];
  // ILP-II solves at least one LP relaxation per B&B node visited.
  EXPECT_GT(mr.bb_nodes, 0);
  EXPECT_GE(mr.lp_solves, mr.bb_nodes);
  EXPECT_GT(mr.simplex_iterations, 0);
  EXPECT_EQ(mr.tiles_degraded, 0);
  EXPECT_EQ(mr.tiles_failed, 0);
  EXPECT_EQ(mr.tiles_node_limit, 0);
  EXPECT_TRUE(mr.failures.empty());
}

// The acceptance bar for the whole subsystem: instrumentation must never
// change results -- metrics/trace on vs off, 1 thread vs 4.
TEST(FlowDeterminism, IdenticalWithInstrumentationAndThreads) {
  const layout::Layout l = small_layout();
  const std::vector<pilfill::Method> methods = {pilfill::Method::kNormal,
                                                pilfill::Method::kIlp2,
                                                pilfill::Method::kGreedy};

  const pilfill::FlowResult base =
      pilfill::run_pil_fill_flow(l, small_config(1), methods);

  obs::metrics().clear();
  obs::set_metrics_enabled(true);
  obs::TraceSession session;
  obs::set_trace_session(&session);
  const pilfill::FlowResult instrumented =
      pilfill::run_pil_fill_flow(l, small_config(4), methods);
  obs::set_trace_session(nullptr);
  obs::set_metrics_enabled(false);
  EXPECT_GT(session.num_events(), 0u);

  ASSERT_EQ(base.methods.size(), instrumented.methods.size());
  for (std::size_t i = 0; i < base.methods.size(); ++i) {
    const pilfill::MethodResult& a = base.methods[i];
    const pilfill::MethodResult& b = instrumented.methods[i];
    EXPECT_EQ(a.placed, b.placed);
    EXPECT_EQ(a.shortfall, b.shortfall);
    EXPECT_EQ(a.bb_nodes, b.bb_nodes);
    EXPECT_EQ(a.lp_solves, b.lp_solves);
    EXPECT_EQ(a.simplex_iterations, b.simplex_iterations);
    EXPECT_EQ(a.impact.delay_ps, b.impact.delay_ps);  // bit-identical
    EXPECT_EQ(a.impact.weighted_delay_ps, b.impact.weighted_delay_ps);
    ASSERT_EQ(a.placement.features.size(), b.placement.features.size());
    for (std::size_t f = 0; f < a.placement.features.size(); ++f) {
      EXPECT_EQ(a.placement.features[f].xlo, b.placement.features[f].xlo);
      EXPECT_EQ(a.placement.features[f].ylo, b.placement.features[f].ylo);
    }
  }
  obs::metrics().clear();
}

}  // namespace
}  // namespace pil
