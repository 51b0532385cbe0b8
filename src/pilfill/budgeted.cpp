#include "pil/pilfill/budgeted.hpp"

#include <algorithm>
#include <cmath>
#include <queue>

#include "pil/util/log.hpp"

namespace pil::pilfill {

BudgetedResult solve_budgeted(const std::vector<TileInstance>& instances,
                              const SolverContext& ctx,
                              const BudgetedConfig& config, int num_nets) {
  PIL_REQUIRE(ctx.style == cap::FillStyle::kFloating,
              "budgeted allocation requires the convex floating model");
  PIL_REQUIRE(ctx.lut != nullptr && ctx.model != nullptr,
              "budgeted allocation needs the capacitance models");
  PIL_REQUIRE(num_nets >= 0, "negative net count");

  BudgetedResult result;
  result.counts.resize(instances.size());
  result.net_cap_used_ff.assign(num_nets, 0.0);

  auto budget_of = [&](layout::NetId n) {
    if (n < 0) return std::numeric_limits<double>::infinity();
    if (static_cast<std::size_t>(n) < config.net_cap_budget_ff.size())
      return config.net_cap_budget_ff[n];
    return config.default_budget_ff;
  };
  auto remaining_budget = [&](layout::NetId n) {
    if (n < 0) return std::numeric_limits<double>::infinity();
    return budget_of(n) - result.net_cap_used_ff[n];
  };

  std::vector<int> todo(instances.size());
  long long total_required = 0;
  for (std::size_t i = 0; i < instances.size(); ++i) {
    result.counts[i].assign(instances[i].cols.size(), 0);
    todo[i] = instances[i].required;
    total_required += instances[i].required;
  }

  // Global heap of next-feature marginals: (cost, instance, column).
  struct Entry {
    double cost;
    int inst;
    int col;
  };
  auto cmp = [](const Entry& a, const Entry& b) { return a.cost > b.cost; };
  std::priority_queue<Entry, std::vector<Entry>, decltype(cmp)> heap(cmp);

  // Queue the delay cost of the n-th feature (1-based) in a column.
  auto push = [&](int i, int k, int n) {
    const InstanceColumn& c = instances[i].cols[k];
    heap.push(Entry{marginal_cap_ff(ctx, c, n) * res_factor(c, ctx.objective),
                    i, k});
  };
  for (std::size_t i = 0; i < instances.size(); ++i) {
    if (todo[i] <= 0) continue;
    for (std::size_t k = 0; k < instances[i].cols.size(); ++k)
      if (instances[i].cols[k].num_sites > 0)
        push(static_cast<int>(i), static_cast<int>(k), 1);
  }

  while (!heap.empty()) {
    const Entry e = heap.top();
    heap.pop();
    if (todo[e.inst] <= 0) continue;  // tile already satisfied
    const InstanceColumn& c = instances[e.inst].cols[e.col];
    int& count = result.counts[e.inst][e.col];
    PIL_ASSERT(count < c.num_sites, "column overflow in budgeted heap");

    const double dcap = marginal_cap_ff(ctx, c, count + 1);
    // Budgets are hard: the increment must fit both facing nets (a column
    // between two pieces of the SAME net charges it twice). Marginals only
    // grow with the count, and budgets only shrink, so a blocked column can
    // be dropped outright.
    const bool same_net = c.below_net == c.above_net;
    const double below_need = same_net ? 2 * dcap : dcap;
    if (below_need > remaining_budget(c.below_net) + 1e-15) continue;
    if (!same_net && dcap > remaining_budget(c.above_net) + 1e-15) continue;

    ++count;
    --todo[e.inst];
    ++result.placed;
    if (c.two_sided) {
      // The coupling increment loads both facing nets.
      result.net_cap_used_ff[c.below_net] += dcap;
      result.net_cap_used_ff[c.above_net] += dcap;
    }
    if (count < c.num_sites && todo[e.inst] > 0)
      push(e.inst, e.col, count + 1);
  }

  result.shortfall = total_required - result.placed;
  for (int n = 0; n < num_nets; ++n) {
    const double b = budget_of(n);
    if (std::isfinite(b) && b > 0)
      result.max_budget_utilization = std::max(
          result.max_budget_utilization, result.net_cap_used_ff[n] / b);
  }
  PIL_INFO("budgeted fill: placed " << result.placed << " (shortfall "
                                    << result.shortfall
                                    << "), max budget utilization "
                                    << result.max_budget_utilization);
  return result;
}

namespace {

/// Worst-case source resistance per net: any added fF costs at most
/// R_max * 1e-3 ps on that net, so dC <= budget_ps * 1e3 / R_max.
std::vector<double> worst_case_res(const std::vector<rctree::WirePiece>& pieces,
                                   int num_nets) {
  std::vector<double> rmax(num_nets, 0.0);
  for (const auto& p : pieces) {
    PIL_REQUIRE(p.net >= 0 && p.net < num_nets, "piece with bad net id");
    rmax[p.net] =
        std::max(rmax[p.net], p.upstream_res + p.res_per_um * p.length());
  }
  return rmax;
}

}  // namespace

std::vector<double> budgets_from_delay_ps(
    const std::vector<rctree::WirePiece>& pieces, int num_nets,
    double delay_budget_ps) {
  PIL_REQUIRE(delay_budget_ps >= 0, "negative delay budget");
  const std::vector<double> rmax = worst_case_res(pieces, num_nets);
  std::vector<double> budgets(num_nets,
                              std::numeric_limits<double>::infinity());
  for (int n = 0; n < num_nets; ++n)
    if (rmax[n] > 0) budgets[n] = delay_budget_ps * 1e3 / rmax[n];
  return budgets;
}

std::vector<double> budgets_from_per_net_delay_ps(
    const std::vector<rctree::WirePiece>& pieces, int num_nets,
    const std::vector<double>& delay_allowance_ps) {
  PIL_REQUIRE(static_cast<int>(delay_allowance_ps.size()) == num_nets,
              "allowance vector size mismatch");
  const std::vector<double> rmax = worst_case_res(pieces, num_nets);
  std::vector<double> budgets(num_nets,
                              std::numeric_limits<double>::infinity());
  for (int n = 0; n < num_nets; ++n) {
    PIL_REQUIRE(delay_allowance_ps[n] >= 0, "negative delay allowance");
    if (rmax[n] > 0) budgets[n] = delay_allowance_ps[n] * 1e3 / rmax[n];
  }
  return budgets;
}

}  // namespace pil::pilfill
