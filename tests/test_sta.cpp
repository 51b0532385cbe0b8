// Tests for the net-level STA module and its slack-to-weight translations.

#include <gtest/gtest.h>

#include "pil/pil.hpp"

namespace pil::sta {
namespace {

using layout::Layout;
using layout::Net;
using layout::NetId;

Layout two_net_layout() {
  Layout l(geom::Rect{0, 0, 200, 200});
  layout::Layer m;
  m.name = "m3";
  m.sheet_res_ohm_sq = 0.1;  // 0.2 ohm/um at 0.5 um width
  l.add_layer(m);
  // Net 0: short and fast. Net 1: long and slow.
  for (const double len : {20.0, 180.0}) {
    Net n;
    n.name = "n" + std::to_string(l.num_nets());
    n.source = geom::Point{0, 50.0 + 50 * l.num_nets()};
    n.driver_res_ohm = 100;
    n.sinks.push_back({geom::Point{len, n.source.y}, 10.0});
    const NetId nid = l.add_net(n);
    l.add_segment(nid, 0, n.source, n.sinks[0].location, 0.5);
  }
  return l;
}

TEST(Sta, ArrivalAndSlackArithmetic) {
  const Layout l = two_net_layout();
  TimingConstraints c;
  c.default_required_ps = 10.0;
  const TimingReport r = analyze_timing(l, c);
  ASSERT_EQ(r.nets.size(), 2u);
  // Elmore with default wire cap 0.03 fF/um:
  // net 0: 100*(0.3) + 104*(10+0.3) ohm*fF... just check ordering + slack math.
  EXPECT_GT(r.nets[1].worst_sink_delay_ps, r.nets[0].worst_sink_delay_ps);
  for (const auto& nt : r.nets) {
    EXPECT_DOUBLE_EQ(nt.worst_arrival_ps, nt.arrival_ps + nt.worst_sink_delay_ps);
    EXPECT_DOUBLE_EQ(nt.slack_ps, nt.required_ps - nt.worst_arrival_ps);
  }
  EXPECT_DOUBLE_EQ(r.worst_slack_ps,
                   std::min(r.nets[0].slack_ps, r.nets[1].slack_ps));
}

TEST(Sta, PerNetConstraints) {
  const Layout l = two_net_layout();
  TimingConstraints c;
  c.default_required_ps = 100.0;
  c.net_arrival_ps = {5.0};        // net 0 starts late
  c.net_required_ps = {20.0};      // and must finish early
  const TimingReport r = analyze_timing(l, c);
  EXPECT_DOUBLE_EQ(r.nets[0].arrival_ps, 5.0);
  EXPECT_DOUBLE_EQ(r.nets[0].required_ps, 20.0);
  EXPECT_DOUBLE_EQ(r.nets[1].arrival_ps, 0.0);
  EXPECT_DOUBLE_EQ(r.nets[1].required_ps, 100.0);
}

TEST(Sta, NegativeSlackAccounting) {
  const Layout l = two_net_layout();
  TimingConstraints c;
  c.default_required_ps = 0.5;  // everything fails
  const TimingReport r = analyze_timing(l, c);
  EXPECT_EQ(r.failing_nets, 2);
  EXPECT_LT(r.total_negative_slack_ps, 0.0);
  EXPECT_NEAR(r.total_negative_slack_ps,
              r.nets[0].slack_ps + r.nets[1].slack_ps, 1e-12);
}

TEST(Sta, CriticalityRamp) {
  TimingReport r;
  for (const double slack : {-1.0, 0.0, 5.0, 10.0, 20.0}) {
    NetTiming nt;
    nt.slack_ps = slack;
    r.nets.push_back(nt);
  }
  const auto w = criticality_from_slack(r, 10.0, 10.0);
  EXPECT_DOUBLE_EQ(w[0], 10.0);  // negative slack: max weight
  EXPECT_DOUBLE_EQ(w[1], 10.0);  // zero slack: max weight
  EXPECT_NEAR(w[2], 5.5, 1e-12); // halfway up the ramp
  EXPECT_DOUBLE_EQ(w[3], 1.0);   // at the ceiling
  EXPECT_DOUBLE_EQ(w[4], 1.0);   // beyond the ceiling
  EXPECT_THROW(criticality_from_slack(r, 0.0), Error);
  EXPECT_THROW(criticality_from_slack(r, 1.0, 0.5), Error);
}

TEST(Sta, DelayAllowance) {
  TimingReport r;
  for (const double slack : {-2.0, 0.0, 8.0}) {
    NetTiming nt;
    nt.slack_ps = slack;
    r.nets.push_back(nt);
  }
  const auto a = delay_allowance_from_slack(r, 0.25);
  EXPECT_DOUBLE_EQ(a[0], 0.0);
  EXPECT_DOUBLE_EQ(a[1], 0.0);
  EXPECT_DOUBLE_EQ(a[2], 2.0);
  EXPECT_THROW(delay_allowance_from_slack(r, 1.5), Error);
}

TEST(Sta, SlackDrivenBudgetedFlowEndToEnd) {
  // The conclusion's flow: STA -> slack allowances -> capacitance budgets ->
  // budgeted fill. Nets with no slack must receive no coupling.
  const Layout l = layout::make_testcase_t2();
  pilfill::FlowConfig flow;
  flow.window_um = 32;
  flow.r = 4;
  const pilfill::FillSession session(l, flow);  // its trees feed the STA

  TimingConstraints c;
  c.default_required_ps = 6.0;  // tight: slower nets have little/no slack
  const TimingReport report = analyze_timing(session.trees(), c);
  ASSERT_GT(report.failing_nets, 0);  // some nets are critical
  ASSERT_LT(report.failing_nets, static_cast<int>(l.num_nets()));

  pilfill::BudgetedConfig budgets;
  budgets.net_cap_budget_ff = pilfill::budgets_from_per_net_delay_ps(
      session.pieces(), static_cast<int>(l.num_nets()),
      delay_allowance_from_slack(report, 0.5));

  const pilfill::BudgetedFlowResult res =
      pilfill::run_budgeted_pil_fill_flow(session, budgets);

  for (std::size_t n = 0; n < l.num_nets(); ++n) {
    EXPECT_LE(res.allocation.net_cap_used_ff[n],
              budgets.net_cap_budget_ff[n] + 1e-9);
    if (report.nets[n].slack_ps <= 0)
      EXPECT_DOUBLE_EQ(res.allocation.net_cap_used_ff[n], 0.0)
          << "critical net " << n << " was loaded";
  }
  EXPECT_GT(res.allocation.placed, 0);
}

TEST(Sta, CriticalityWeightsPlugIntoTheFlow) {
  const Layout l = layout::make_testcase_t2();
  const TimingReport report = analyze_timing(l, TimingConstraints{});
  pilfill::FlowConfig flow;
  flow.window_um = 32;
  flow.r = 4;
  flow.objective = pilfill::Objective::kWeighted;
  flow.net_criticality = criticality_from_slack(report, 20.0);
  const pilfill::FlowResult res =
      pilfill::run_pil_fill_flow(l, flow, {pilfill::Method::kIlp2});
  EXPECT_EQ(res.methods[0].shortfall, 0);
  EXPECT_GT(res.methods[0].impact.delay_ps, 0.0);
}

}  // namespace
}  // namespace pil::sta
