// Tests for the always-on flight recorder: journal ring mechanics,
// correlation scopes, pil.flight.v1 dump round-trips (including the
// async-signal-safe writer), tile cause-chain analysis, and the
// postmortems the acceptance criteria name: a deadline-failed run and a
// fault-injected run must each leave a parseable dump with the failing
// tile's full event chain in sequence order -- while armed-vs-disarmed
// results stay bit-identical (the journal records, it never steers).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "pil/layout/synthetic.hpp"
#include "pil/obs/flight.hpp"
#include "pil/obs/journal.hpp"
#include "pil/pilfill/driver.hpp"
#include "pil/pilfill/session.hpp"
#include "pil/util/error.hpp"
#include "pil/util/fault.hpp"

namespace pil {
namespace {

using obs::JournalEventKind;

/// Each test starts from an empty journal and leaves it armed.
struct JournalResetGuard {
  JournalResetGuard() {
    obs::set_journal_armed(true);
    obs::journal_reset();
  }
  ~JournalResetGuard() {
    obs::journal_reset();
    obs::set_journal_armed(true);
  }
};

std::vector<obs::JournalEvent> sorted_events() {
  obs::JournalSnapshot snap = obs::journal_snapshot();
  std::sort(snap.events.begin(), snap.events.end(),
            [](const obs::JournalEvent& a, const obs::JournalEvent& b) {
              return a.seq < b.seq;
            });
  return std::move(snap.events);
}

// ------------------------------------------------------ ring mechanics ----

TEST(Journal, RecordsSequencedEvents) {
  JournalResetGuard guard;
  const std::uint64_t seq0 = obs::journal_sequence();
  obs::journal_record(JournalEventKind::kFlowBegin, 0, 0, 7);
  obs::journal_record(JournalEventKind::kFlowEnd, 0, 0, 0, 1.5);
  const auto events = sorted_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, JournalEventKind::kFlowBegin);
  EXPECT_EQ(events[0].c, 7u);
  EXPECT_EQ(events[1].kind, JournalEventKind::kFlowEnd);
  EXPECT_DOUBLE_EQ(events[1].v, 1.5);
  EXPECT_GT(events[0].seq, seq0);
  EXPECT_LT(events[0].seq, events[1].seq);
  EXPECT_EQ(obs::journal_snapshot().dropped, 0u);
}

TEST(Journal, DisarmedDropsEverything) {
  JournalResetGuard guard;
  obs::set_journal_armed(false);
  EXPECT_FALSE(obs::journal_armed());
  const std::uint64_t seq0 = obs::journal_sequence();
  obs::journal_record(JournalEventKind::kFlowBegin);
  obs::set_journal_armed(true);
  EXPECT_TRUE(obs::journal_armed());
  EXPECT_TRUE(obs::journal_snapshot().events.empty());
  EXPECT_EQ(obs::journal_sequence(), seq0);  // disarmed burns no sequence
}

TEST(Journal, ScopesNestAndRestore) {
  JournalResetGuard guard;
  EXPECT_EQ(obs::journal_correlation().session, 0u);
  {
    obs::JournalScope outer({11, 22, -1});
    EXPECT_EQ(obs::journal_correlation().flow, 22u);
    {
      obs::JournalScope inner({11, 22, 5});
      obs::journal_record(JournalEventKind::kTileBegin);
    }
    EXPECT_EQ(obs::journal_correlation().tile, -1);
  }
  EXPECT_EQ(obs::journal_correlation().session, 0u);
  const auto events = sorted_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].session, 11u);
  EXPECT_EQ(events[0].flow, 22u);
  EXPECT_EQ(events[0].tile, 5);
}

TEST(Journal, WorkerThreadsStartUncorrelated) {
  JournalResetGuard guard;
  obs::JournalScope scope({9, 9, 9});
  std::uint32_t worker_session = 99;
  std::thread([&worker_session] {
    worker_session = obs::journal_correlation().session;
    obs::journal_record(JournalEventKind::kSimplexMilestone);
  }).join();
  EXPECT_EQ(worker_session, 0u);  // scopes are thread-local
  const auto events = sorted_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].session, 0u);
}

TEST(Journal, WraparoundKeepsNewestAndCountsDropped) {
  JournalResetGuard guard;
  const std::size_t extra = 100;
  for (std::size_t i = 0; i < obs::kJournalRingCapacity + extra; ++i)
    obs::journal_record(JournalEventKind::kSimplexMilestone, 0, 0, i);
  const obs::JournalSnapshot snap = obs::journal_snapshot();
  EXPECT_EQ(snap.events.size(), obs::kJournalRingCapacity);
  EXPECT_EQ(snap.dropped, extra);
  std::uint64_t min_c = ~0ull, max_c = 0;
  for (const auto& e : snap.events) {
    min_c = std::min(min_c, e.c);
    max_c = std::max(max_c, e.c);
  }
  EXPECT_EQ(min_c, extra);  // the oldest `extra` events were overwritten
  EXPECT_EQ(max_c, obs::kJournalRingCapacity + extra - 1);
}

TEST(Journal, SequenceSurvivesReset) {
  JournalResetGuard guard;
  obs::journal_record(JournalEventKind::kFlowBegin);
  const std::uint64_t seq1 = obs::journal_sequence();
  obs::journal_reset();
  EXPECT_EQ(obs::journal_sequence(), seq1);  // monotonic across resets
  obs::journal_record(JournalEventKind::kFlowEnd);
  const auto events = sorted_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_GT(events[0].seq, seq1);
}

TEST(Journal, ThreadNamesAreRegistered) {
  obs::journal_set_thread_name("journal-test-main");
  bool found = false;
  for (const auto& [tid, name] : obs::journal_thread_names())
    if (name == "journal-test-main") found = true;
  EXPECT_TRUE(found);
}

// ------------------------------------------------------- dump round-trip ----

TEST(Flight, DumpRoundTripsThroughParser) {
  JournalResetGuard guard;
  obs::journal_set_thread_name("flight-main");
  {
    obs::JournalScope scope({3, 4, 17});
    obs::journal_record(JournalEventKind::kTileBegin, 2, 0, 12);
    obs::journal_record(JournalEventKind::kTileEnd, 2, 0, 12, 0.25);
  }
  std::ostringstream os;
  obs::FlightWriteOptions options;
  options.cause = "requested";
  options.detail = "unit test";
  obs::write_flight_json(os, options);

  const obs::FlightDump dump = obs::parse_flight_json(os.str());
  EXPECT_EQ(dump.cause, "requested");
  EXPECT_EQ(dump.detail, "unit test");
  ASSERT_EQ(dump.events.size(), 2u);
  EXPECT_LT(dump.events[0].seq, dump.events[1].seq);
  EXPECT_EQ(dump.events[0].kind, "tile_begin");
  EXPECT_EQ(dump.events[0].session, 3u);
  EXPECT_EQ(dump.events[0].flow, 4u);
  EXPECT_EQ(dump.events[0].tile, 17);
  EXPECT_EQ(dump.events[1].kind, "tile_end");
  EXPECT_DOUBLE_EQ(dump.events[1].v, 0.25);
  bool named = false;
  for (const auto& t : dump.threads)
    if (t.name == "flight-main") named = true;
  EXPECT_TRUE(named);

  // A parsed dump re-serializes into the same schema (pilstat merge path).
  std::ostringstream os2;
  obs::write_flight_json(os2, dump);
  const obs::FlightDump again = obs::parse_flight_json(os2.str());
  EXPECT_EQ(again.events.size(), dump.events.size());
  EXPECT_EQ(again.cause, dump.cause);
  EXPECT_EQ(again.events[1].kind, "tile_end");
}

TEST(Flight, ParserRejectsWrongSchema) {
  EXPECT_THROW(obs::parse_flight_json("{\"schema\":\"other.v1\"}"), Error);
  EXPECT_THROW(obs::parse_flight_json("not json"), Error);
}

#ifndef _WIN32
TEST(Flight, SignalSafeDumpParses) {
  JournalResetGuard guard;
  {
    obs::JournalScope scope({1, 2, 3});
    obs::journal_record(JournalEventKind::kTileBegin, 2, 0, 9);
    obs::journal_record(JournalEventKind::kDeadlineExpired, 0, 1);
  }
  char path[] = "/tmp/pil_flight_sig_XXXXXX";
  const int fd = ::mkstemp(path);
  ASSERT_GE(fd, 0);
  obs::write_flight_signal_safe(fd, "signal");
  ::close(fd);

  const obs::FlightDump dump = obs::read_flight_file(path);
  ::unlink(path);
  EXPECT_EQ(dump.cause, "signal");
  ASSERT_EQ(dump.events.size(), 2u);
  EXPECT_EQ(dump.events[0].kind, "tile_begin");
  EXPECT_EQ(dump.events[0].tile, 3);
  EXPECT_EQ(dump.events[1].kind, "deadline_expired");
  EXPECT_EQ(dump.events[1].b, 1u);
}
#endif

TEST(Flight, MergeInterleavesBySequence) {
  obs::FlightDump a, b;
  a.cause = "deadline";
  obs::FlightEvent e;
  e.kind = "flow_begin";
  e.seq = 1;
  a.events.push_back(e);
  e.seq = 3;
  e.kind = "flow_end";
  a.events.push_back(e);
  e.seq = 2;
  e.kind = "tile_begin";
  b.events.push_back(e);
  const obs::FlightDump merged = obs::merge_flight_dumps({a, b});
  EXPECT_EQ(merged.cause, "deadline");
  ASSERT_EQ(merged.events.size(), 3u);
  EXPECT_EQ(merged.events[0].kind, "flow_begin");
  EXPECT_EQ(merged.events[1].kind, "tile_begin");
  EXPECT_EQ(merged.events[2].kind, "flow_end");
}

TEST(Flight, TileChainsAttributeCauses) {
  obs::FlightDump dump;
  auto push = [&dump](std::uint64_t seq, std::string kind, std::int32_t tile,
                      std::uint64_t c, double v, std::string detail) {
    obs::FlightEvent e;
    e.seq = seq;
    e.kind = std::move(kind);
    e.flow = 1;
    e.tile = tile;
    e.c = c;
    e.v = v;
    e.detail = std::move(detail);
    dump.events.push_back(std::move(e));
  };
  // Tile 5 degrades (ladder) but still places; tile 6 fails outright.
  push(1, "tile_begin", 5, 10, 0.0, "");
  push(2, "ladder_step", 5, 0, 0.0, "ilp_error");
  push(3, "tile_end", 5, 4, 0.5, "");
  push(4, "tile_begin", 6, 8, 0.0, "");
  push(5, "tile_failure", 6, 0, 0.0, "node_limit");
  push(6, "tile_end", 6, 0, 0.1, "");

  const auto chains = obs::tile_chains(dump);
  ASSERT_EQ(chains.size(), 2u);
  EXPECT_EQ(chains[0].tile, 5);
  EXPECT_TRUE(chains[0].degraded);
  EXPECT_FALSE(chains[0].failed);
  EXPECT_EQ(chains[0].cause, "ilp_error");
  EXPECT_EQ(chains[0].placed, 4);
  EXPECT_EQ(chains[0].required, 10);
  EXPECT_DOUBLE_EQ(chains[0].seconds, 0.5);
  EXPECT_EQ(chains[1].tile, 6);
  EXPECT_TRUE(chains[1].failed);
  EXPECT_FALSE(chains[1].degraded);  // failed outranks degraded
  EXPECT_EQ(chains[1].cause, "node_limit");
  ASSERT_EQ(chains[1].events.size(), 3u);
}

// --------------------------------------------------- flow postmortems ----

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

obs::FlightDump dump_current(const std::string& cause) {
  std::ostringstream os;
  obs::FlightWriteOptions options;
  options.cause = cause;
  obs::write_flight_json(os, options);
  return obs::parse_flight_json(os.str());
}

/// The failing tile's chain must be complete (begin ... end), in strict
/// sequence order, and carry a decoded cause.
void expect_ordered_cause_chain(const obs::FlightDump& dump,
                                const obs::TileChain& chain) {
  ASSERT_GE(chain.events.size(), 2u);
  std::uint64_t last_seq = 0;
  for (const std::size_t i : chain.events) {
    const obs::FlightEvent& e = dump.events[i];
    EXPECT_GT(e.seq, last_seq);
    last_seq = e.seq;
    EXPECT_EQ(e.tile, chain.tile);
  }
  EXPECT_EQ(dump.events[chain.events.front()].kind, "tile_begin");
  EXPECT_EQ(dump.events[chain.events.back()].kind, "tile_end");
  EXPECT_FALSE(chain.cause.empty());
}

TEST(FlightIntegration, DeadlineFailedRunProducesCauseChain) {
  JournalResetGuard guard;
  const layout::Layout l = small_layout();
  pilfill::FlowConfig config = small_config();
  config.flow_deadline_seconds = 1e-9;  // expires before the first tile
  const pilfill::FlowResult res =
      pilfill::run_pil_fill_flow(l, config, {pilfill::Method::kIlp2});
  ASSERT_FALSE(res.methods[0].failures.empty());

  const obs::FlightDump dump = dump_current("deadline");
  EXPECT_EQ(dump.cause, "deadline");
  for (std::size_t i = 1; i < dump.events.size(); ++i)
    EXPECT_GT(dump.events[i].seq, dump.events[i - 1].seq);

  bool saw_expiry = false;
  for (const auto& e : dump.events)
    if (e.kind == "deadline_expired") saw_expiry = true;
  EXPECT_TRUE(saw_expiry);

  const int failing = res.methods[0].failures.front().tile;
  bool found = false;
  for (const obs::TileChain& chain : obs::tile_chains(dump)) {
    if (chain.tile != failing) continue;
    found = true;
    expect_ordered_cause_chain(dump, chain);
    EXPECT_NE(chain.cause.find("deadline"), std::string::npos);
  }
  EXPECT_TRUE(found);
}

TEST(FlightIntegration, FaultInjectedRunProducesCauseChain) {
  JournalResetGuard guard;
  const layout::Layout l = small_layout();
  pilfill::FlowConfig config = small_config();
  config.fault_spec = "tile_solve:throw:1";  // every primary solve throws
  const pilfill::FlowResult res =
      pilfill::run_pil_fill_flow(l, config, {pilfill::Method::kIlp2});
  util::clear_fault_plan();  // config-armed plans are process-global
  ASSERT_FALSE(res.methods[0].failures.empty());

  const obs::FlightDump dump = dump_current("fault");
  bool saw_fault = false, saw_ladder = false;
  for (const auto& e : dump.events) {
    if (e.kind == "fault_injected") {
      saw_fault = true;
      EXPECT_EQ(e.detail, "tile_solve");
    }
    if (e.kind == "ladder_step" && e.detail == "injected_fault")
      saw_ladder = true;
  }
  EXPECT_TRUE(saw_fault);
  EXPECT_TRUE(saw_ladder);

  const int failing = res.methods[0].failures.front().tile;
  bool found = false;
  for (const obs::TileChain& chain : obs::tile_chains(dump)) {
    if (chain.tile != failing) continue;
    found = true;
    expect_ordered_cause_chain(dump, chain);
  }
  EXPECT_TRUE(found);
}

TEST(FlightIntegration, SessionLifecycleIsJournaled) {
  JournalResetGuard guard;
  const layout::Layout l = small_layout();
  pilfill::FillSession session(l, small_config(2));
  session.solve({pilfill::Method::kIlp2});

  std::set<std::string> kinds;
  std::uint32_t flow_id = 0, session_id = 0;
  const obs::FlightDump dump = dump_current("requested");
  for (const auto& e : dump.events) {
    kinds.insert(e.kind);
    if (e.kind == "tile_begin") {
      EXPECT_GT(e.session, 0u);
      EXPECT_GT(e.flow, 0u);
      EXPECT_GE(e.tile, 0);
      if (flow_id == 0) {
        flow_id = e.flow;
        session_id = e.session;
      }
      // Every tile of one solve belongs to the same flow and session.
      EXPECT_EQ(e.flow, flow_id);
      EXPECT_EQ(e.session, session_id);
    }
  }
  for (const char* expected :
       {"session_begin", "flow_begin", "method_begin", "tile_begin",
        "tile_end", "method_end", "flow_end"})
    EXPECT_TRUE(kinds.count(expected)) << "missing kind " << expected;
}

// The acceptance bar: the journal records, it never steers. Armed vs
// disarmed runs must produce bit-identical fill results.
TEST(FlightIntegration, ArmedVsDisarmedResultsBitIdentical) {
  const layout::Layout l = small_layout();
  const std::vector<pilfill::Method> methods = {pilfill::Method::kIlp2,
                                                pilfill::Method::kGreedy};
  obs::set_journal_armed(true);
  const pilfill::FlowResult armed =
      pilfill::run_pil_fill_flow(l, small_config(2), methods);
  obs::set_journal_armed(false);
  const pilfill::FlowResult disarmed =
      pilfill::run_pil_fill_flow(l, small_config(2), methods);
  obs::set_journal_armed(true);
  EXPECT_TRUE(pilfill::flow_results_equivalent(armed, disarmed));
}

}  // namespace
}  // namespace pil
