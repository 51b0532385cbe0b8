/// \file scenarios.cpp
/// Built-in pilbench scenarios: the timing-sensitive workloads every perf
/// PR is judged against. Each scenario's setup builds its inputs untimed
/// and returns the body `pilbench run` times per repetition; bodies are
/// single-threaded so wall time tracks CPU work, and every workload is
/// deterministic (fixed seeds, fixed testcases).

#include <memory>

#include "bench/harness.hpp"
#include "bench/workloads.hpp"
#include "pil/pil.hpp"

namespace pil::bench {

namespace {

using pilfill::FillSession;
using pilfill::FlowConfig;
using pilfill::Method;

FlowConfig flow_config(double window_um, int r,
                       pilfill::Objective objective =
                           pilfill::Objective::kNonWeighted) {
  FlowConfig config;
  config.window_um = window_um;
  config.r = r;
  config.objective = objective;
  config.threads = 1;
  return config;
}

/// Whole-flow scenario (prep + one method's per-tile solves + scoring) on
/// a shared pre-built testcase layout.
Scenario flow_scenario(std::string name, std::string description,
                       std::shared_ptr<const layout::Layout> chip,
                       FlowConfig config, Method method) {
  return {std::move(name), std::move(description),
          [chip, config, method] {
            return [chip, config, method] {
              pilfill::run_pil_fill_flow(*chip, config, {method});
            };
          }};
}

}  // namespace

// service_scenarios.cpp -- closed-loop editor fleets against an
// in-process pil::service::Server.
void register_service_scenarios(Registry& r);

void register_builtin_scenarios(Registry& r) {
  const auto t1 =
      std::make_shared<const layout::Layout>(layout::make_testcase_t1());
  const auto t2 =
      std::make_shared<const layout::Layout>(layout::make_testcase_t2());

  r.add({"gen.synthetic.n60",
         "synthetic layout generation (die 96 um, 60 nets)", [] {
           return [] {
             layout::SyntheticLayoutConfig cfg;
             cfg.die_um = 96;
             cfg.num_nets = 60;
             cfg.seed = 4;
             layout::generate_synthetic_layout(cfg);
           };
         }});

  r.add({"prep.t1.w32.r2",
         "shared prep only: dissection, density, RC, slack, targeting (T1)",
         [t1] {
           const FlowConfig config = flow_config(32, 2);
           return [t1, config] { FillSession(*t1, config); };
         }});

  r.add(flow_scenario("flow.t1.w32.r2.normal",
                      "full flow, Normal fill, T1 W=32 r=2", t1,
                      flow_config(32, 2), Method::kNormal));
  r.add(flow_scenario("flow.t1.w32.r2.ilp1",
                      "full flow, ILP-I, T1 W=32 r=2", t1, flow_config(32, 2),
                      Method::kIlp1));
  r.add(flow_scenario("flow.t1.w32.r2.ilp2",
                      "full flow, ILP-II, T1 W=32 r=2", t1, flow_config(32, 2),
                      Method::kIlp2));
  r.add(flow_scenario("flow.t1.w32.r2.greedy",
                      "full flow, Greedy, T1 W=32 r=2", t1, flow_config(32, 2),
                      Method::kGreedy));
  r.add(flow_scenario("flow.t1.w20.r4.ilp2",
                      "full flow, ILP-II, T1 W=20 r=4 (fine dissection)", t1,
                      flow_config(20, 4), Method::kIlp2));
  r.add(flow_scenario("flow.t2.w32.r2.ilp2",
                      "full flow, ILP-II, T2 W=32 r=2", t2, flow_config(32, 2),
                      Method::kIlp2));
  {
    // Same T2 workload with deadlines armed but never firing (1 h budgets):
    // compare against flow.t2.w32.r2.ilp2 to measure the cost of deadline
    // polling in the simplex/B&B hot loops. Expected to be in the noise.
    FlowConfig config = flow_config(32, 2);
    config.tile_deadline_seconds = 3600;
    config.flow_deadline_seconds = 3600;
    r.add(flow_scenario("flow.t2.w32.r2.ilp2.deadline",
                        "full flow, ILP-II, T2 W=32 r=2, 1h deadlines armed "
                        "(polling overhead probe)",
                        t2, config, Method::kIlp2));
  }
  r.add(flow_scenario(
      "flow.t1.w32.r2.ilp2.weighted",
      "full flow, ILP-II, T1 W=32 r=2, sink-weighted objective", t1,
      flow_config(32, 2, pilfill::Objective::kWeighted), Method::kIlp2));

  {
    // Disarmed twin of flow.t1.w32.r2.ilp2: the identical workload with the
    // flight-recorder journal off. Compare the pair to hold the armed
    // journal to its <= 2% overhead budget (results are bit-identical either
    // way -- the journal records, it never steers).
    FlowConfig config = flow_config(32, 2);
    r.add({"flow.t1.w32.r2.ilp2.nojournal",
           "full flow, ILP-II, T1 W=32 r=2, event journal disarmed "
           "(overhead twin of flow.t1.w32.r2.ilp2)",
           [t1, config] {
             return [t1, config] {
               obs::set_journal_armed(false);
               pilfill::run_pil_fill_flow(*t1, config, {Method::kIlp2});
               obs::set_journal_armed(true);
             };
           }});
  }

  r.add({"solve.cached.t1.w32.r2.ilp2",
         "warm FillSession solve: every per-tile result served from cache",
         [t1] {
           FlowConfig config = flow_config(32, 2);
           auto session = std::make_shared<FillSession>(*t1, config);
           session->solve({Method::kIlp2});  // warm the per-tile cache
           return [session] { session->solve({Method::kIlp2}); };
         }});

  // Warm/cold twins for the dual-simplex basis-reuse path (ISSUE 5): the
  // same edit/re-solve workload, once with per-tile root-basis reuse (the
  // default) and once solving every B&B node from scratch. The dirty-tile
  // re-solves are where warm starting pays: each re-solved root starts
  // from the cached basis of the previous solve and re-optimizes dually
  // in a handful of pivots, cutting summed lp_iterations per B&B solve by
  // well over 2x on T1/ILP-II (wall clock follows).
  for (const bool warm : {true, false}) {
    FlowConfig config = flow_config(32, 2);
    config.ilp.warm_start = warm;
    r.add({warm ? "flow.t1.ilp2.warmstart" : "flow.t1.ilp2.coldstart",
           warm ? "incremental edit/re-solve, ILP-II, T1 W=32 r=2, "
                  "dual-simplex warm starts from cached tile bases"
                : "incremental edit/re-solve, ILP-II, T1 W=32 r=2, "
                  "warm starts disabled (every node LP from scratch)",
           [t1, config] {
             auto session = std::make_shared<FillSession>(*t1, config);
             session->solve({Method::kIlp2});  // prime result + basis caches
             const layout::NetId net =
                 smallest_editable_net(session->layout(), config.layer);
             const layout::WireSegment parent = longest_horizontal_segment(
                 session->layout(), net, config.layer);
             return [session, net, parent] {
               const pilfill::EditStats es = session->apply_edit(
                   make_stub_edit(session->layout(), net, parent, 0.4));
               session->solve({Method::kIlp2});
               session->apply_edit(
                   pilfill::WireEdit::remove_segment(es.segment));
               session->solve({Method::kIlp2});
             };
           }});
  }

  r.add({"incremental.t1.stub_edit",
         "steady-state incremental edit: add stub, re-solve, remove, "
         "re-solve (T1, ILP-II, pinned fill spec)",
         [t1] {
           FlowConfig config = flow_config(32, 2);
           // Pin the fill spec from a probe run, as a foundry replay
           // would: the dirty set is then purely geometric.
           const pilfill::FlowResult probe =
               pilfill::run_pil_fill_flow(*t1, config, {});
           config.required_per_tile = probe.target.features_per_tile;
           auto session = std::make_shared<FillSession>(*t1, config);
           session->solve({Method::kIlp2});
           const layout::NetId net =
               smallest_editable_net(session->layout(), config.layer);
           const layout::WireSegment parent =
               longest_horizontal_segment(session->layout(), net,
                                          config.layer);
           return [session, net, parent] {
             const pilfill::EditStats es = session->apply_edit(
                 make_stub_edit(session->layout(), net, parent, 0.4));
             session->solve({Method::kIlp2});
             session->apply_edit(
                 pilfill::WireEdit::remove_segment(es.segment));
             session->solve({Method::kIlp2});
           };
         }});

  register_service_scenarios(r);
}

}  // namespace pil::bench
