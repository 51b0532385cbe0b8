/// \file bench_scanline_micro.cpp
/// Micro-benchmarks for the geometry pipeline: RC-tree extraction, the
/// scan-line slack-column algorithm (Figure 7), and the density map.

#include <benchmark/benchmark.h>

#include "pil/fill/slack.hpp"
#include "pil/grid/density_map.hpp"
#include "pil/layout/synthetic.hpp"
#include "pil/rctree/rctree.hpp"

namespace {

using namespace pil;

const layout::Layout& t2() {
  static const layout::Layout chip = layout::make_testcase_t2();
  return chip;
}

const std::vector<rctree::WirePiece>& t2_pieces() {
  static const auto pieces =
      fill::flatten_pieces(rctree::build_all_trees(t2()));
  return pieces;
}

void BM_RcTreeExtraction(benchmark::State& state) {
  const layout::Layout& chip = t2();
  for (auto _ : state) {
    const auto trees = rctree::build_all_trees(chip);
    benchmark::DoNotOptimize(trees.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long long>(chip.num_nets()));
}
BENCHMARK(BM_RcTreeExtraction);

void BM_ScanlineGlobal(benchmark::State& state) {
  const layout::Layout& chip = t2();
  const grid::Dissection dis(chip.die(), 32.0, static_cast<int>(state.range(0)));
  const fill::FillRules rules;
  for (auto _ : state) {
    const auto slack = fill::extract_slack_columns(
        chip, dis, t2_pieces(), 0, rules, fill::SlackMode::kIII);
    benchmark::DoNotOptimize(slack.total_capacity());
  }
}
BENCHMARK(BM_ScanlineGlobal)->Arg(2)->Arg(8);

void BM_ScanlinePerTile(benchmark::State& state) {
  const layout::Layout& chip = t2();
  const grid::Dissection dis(chip.die(), 32.0, static_cast<int>(state.range(0)));
  const fill::FillRules rules;
  for (auto _ : state) {
    const auto slack = fill::extract_slack_columns(
        chip, dis, t2_pieces(), 0, rules, fill::SlackMode::kII);
    benchmark::DoNotOptimize(slack.total_capacity());
  }
}
BENCHMARK(BM_ScanlinePerTile)->Arg(2)->Arg(8);

void BM_DensityMap(benchmark::State& state) {
  const layout::Layout& chip = t2();
  const grid::Dissection dis(chip.die(), 32.0, 4);
  for (auto _ : state) {
    grid::DensityMap m(dis);
    m.add_layer_metal(chip, 0);
    benchmark::DoNotOptimize(m.stats().max_density);
  }
}
BENCHMARK(BM_DensityMap);

}  // namespace
