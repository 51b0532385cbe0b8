// Robustness fuzzing of every reader: arbitrary bytes, token soup, and
// mutations of valid inputs must either parse or throw pil::Error --
// never crash, hang, or corrupt memory (run under sanitizers in CI).
// Also fuzzes the simplex against degenerate and cycling-prone LPs
// (ratio-test ties, zero-length steps) to exercise the Bland fallback.

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "lp_corpus.hpp"
#include "pil/layout/def_io.hpp"
#include "pil/layout/gds_io.hpp"
#include "pil/layout/lef_io.hpp"
#include "pil/layout/pld_io.hpp"
#include "pil/layout/synthetic.hpp"
#include "pil/lp/problem.hpp"
#include "pil/lp/simplex.hpp"
#include "pil/util/rng.hpp"

namespace pil::layout {
namespace {

std::string random_bytes(Rng& rng, int len) {
  std::string s(len, '\0');
  for (auto& c : s) c = static_cast<char>(rng.uniform_int(0, 255));
  return s;
}

std::string random_tokens(Rng& rng, int count) {
  static const char* kWords[] = {"PLD",    "1",     "DIE",   "LAYER", "NET",
                                 "SEG",    "SINK",  "END",   "(",     ")",
                                 ";",      "+",     "-",     "ROUTED","NEW",
                                 "0",      "12.5",  "-3",    "m3",    "*",
                                 "DESIGN", "UNITS", "NETS",  "DIEAREA", "x"};
  std::string s;
  for (int i = 0; i < count; ++i) {
    s += kWords[rng.uniform_int(0, std::size(kWords) - 1)];
    s += rng.bernoulli(0.2) ? '\n' : ' ';
  }
  return s;
}

template <typename Parse>
void expect_no_crash(const std::string& input, Parse&& parse) {
  try {
    parse(input);
  } catch (const Error&) {
    // Rejected cleanly: fine.
  }
}

TEST(Fuzz, PldReaderSurvivesGarbage) {
  Rng rng(101);
  auto parse = [](const std::string& s) {
    std::istringstream is(s);
    read_pld(is);
  };
  for (int i = 0; i < 150; ++i) expect_no_crash(random_bytes(rng, 200), parse);
  for (int i = 0; i < 150; ++i) expect_no_crash(random_tokens(rng, 60), parse);
}

TEST(Fuzz, PldReaderSurvivesMutationsOfValidInput) {
  SyntheticLayoutConfig cfg;
  cfg.die_um = 48;
  cfg.num_nets = 10;
  cfg.seed = 5;
  std::ostringstream os;
  write_pld(generate_synthetic_layout(cfg), os);
  const std::string valid = os.str();
  Rng rng(102);
  auto parse = [](const std::string& s) {
    std::istringstream is(s);
    read_pld(is);
  };
  for (int i = 0; i < 200; ++i) {
    std::string mutated = valid;
    const int kind = static_cast<int>(rng.uniform_int(0, 2));
    if (kind == 0) {
      mutated.resize(rng.uniform_int(0, static_cast<int>(valid.size())));
    } else if (kind == 1) {
      const std::size_t at = rng.uniform_int(0, valid.size() - 1);
      mutated[at] = static_cast<char>(rng.uniform_int(0, 255));
    } else {
      const std::size_t at = rng.uniform_int(0, valid.size() - 1);
      mutated.insert(at, "XYZZY");
    }
    expect_no_crash(mutated, parse);
  }
}

TEST(Fuzz, DefReaderSurvivesGarbage) {
  Rng rng(103);
  DefReadOptions options;
  Layer m3;
  m3.name = "m3";
  options.layers.push_back(m3);
  auto parse = [&](const std::string& s) {
    std::istringstream is(s);
    read_def(is, options);
  };
  for (int i = 0; i < 150; ++i) expect_no_crash(random_bytes(rng, 200), parse);
  for (int i = 0; i < 150; ++i) expect_no_crash(random_tokens(rng, 60), parse);
}

TEST(Fuzz, LefReaderSurvivesGarbage) {
  Rng rng(104);
  auto parse = [](const std::string& s) {
    std::istringstream is(s);
    read_lef(is);
  };
  for (int i = 0; i < 150; ++i) expect_no_crash(random_bytes(rng, 200), parse);
  for (int i = 0; i < 150; ++i) expect_no_crash(random_tokens(rng, 60), parse);
}

TEST(Fuzz, GdsReaderSurvivesGarbage) {
  Rng rng(105);
  auto parse = [](const std::string& s) {
    std::istringstream is(s, std::ios::binary);
    read_gds(is);
  };
  for (int i = 0; i < 300; ++i)
    expect_no_crash(random_bytes(rng, static_cast<int>(rng.uniform_int(0, 300))),
                    parse);
}

TEST(Fuzz, GdsReaderSurvivesMutatedStreams) {
  Layout l(geom::Rect{0, 0, 20, 20});
  Layer m;
  m.name = "m3";
  l.add_layer(m);
  Net n;
  n.name = "n0";
  n.source = geom::Point{1, 10};
  n.sinks.push_back({geom::Point{19, 10}, 1.0});
  const NetId nid = l.add_net(n);
  l.add_segment(nid, 0, {1, 10}, {19, 10}, 0.5);

  std::stringstream ss(std::ios::in | std::ios::out | std::ios::binary);
  write_gds(l, {{2, 2, 2.5, 2.5}}, ss);
  const std::string valid = ss.str();

  Rng rng(106);
  auto parse = [](const std::string& s) {
    std::istringstream is(s, std::ios::binary);
    read_gds(is);
  };
  for (int i = 0; i < 300; ++i) {
    std::string mutated = valid;
    if (rng.bernoulli(0.5)) {
      mutated.resize(rng.uniform_int(0, static_cast<int>(valid.size())));
    } else {
      const std::size_t at = rng.uniform_int(0, valid.size() - 1);
      mutated[at] = static_cast<char>(rng.uniform_int(0, 255));
    }
    expect_no_crash(mutated, parse);
  }
}

}  // namespace
}  // namespace pil::layout

// --------------------------------------------- degenerate / cycling LPs ----

namespace pil::lp {
namespace {

using corpus::beale_lp;
using corpus::random_degenerate_lp;

TEST(Fuzz, BealeCyclingLpTerminates) {
  // With the Bland switch forced on from the first pivot, and with the
  // default automatic switch, the cycling-prone instance must terminate at
  // the true optimum rather than spin to the iteration limit.
  for (const int degenerate_switch : {0, 40}) {
    SimplexOptions opt;
    opt.degenerate_switch = degenerate_switch;
    const LpSolution s = solve_lp(beale_lp(), opt);
    ASSERT_EQ(s.status, SolveStatus::kOptimal)
        << "degenerate_switch=" << degenerate_switch;
    EXPECT_NEAR(s.objective, -0.05, 1e-9);
    EXPECT_LT(s.iterations, 100);
  }
}

TEST(Fuzz, PrimalDegenerateLpsTerminate) {
  // Zero-length steps and exact ratio ties everywhere; Bland forced from
  // the first pivot must still terminate with a clean verdict, and the
  // default pricing must agree with it on status and objective.
  Rng rng(201);
  for (int trial = 0; trial < 250; ++trial) {
    const LpProblem p = random_degenerate_lp(rng);
    SimplexOptions bland;
    bland.degenerate_switch = 0;
    const LpSolution b = solve_lp(p, bland);
    ASSERT_NE(b.status, SolveStatus::kIterLimit) << "trial " << trial;
    const LpSolution d = solve_lp(p, {});
    ASSERT_NE(d.status, SolveStatus::kIterLimit) << "trial " << trial;
    ASSERT_EQ(b.status, d.status) << "trial " << trial;
    if (b.status == SolveStatus::kOptimal) {
      EXPECT_NEAR(b.objective, d.objective, 1e-6) << "trial " << trial;
      EXPECT_LE(p.max_violation(b.x), 1e-6) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace pil::lp
