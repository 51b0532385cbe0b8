#include "pil/pilfill/instance.hpp"

#include "pil/util/kernels.hpp"

namespace pil::pilfill {

double piece_res_at_x(const rctree::WirePiece& piece, double x) {
  // Horizontal pieces: distance along the line from the upstream endpoint.
  return piece.upstream_res + piece.res_per_um * std::fabs(x - piece.up.x);
}

void PrepColumns::clear() {
  idx.clear();
  base_b.clear(); slope_b.clear(); uxb.clear(); uyb.clear();
  qxb.clear(); qyb.clear();
  base_a.clear(); slope_a.clear(); uxa.clear(); uya.clear();
  qxa.clear(); qya.clear();
  wb.clear(); wa.clear();
  sb.clear(); sa.clear();
  ob.clear(); oa.clear();
}

void PrepColumns::resize_outputs() {
  rb.resize(idx.size());
  ra.resize(idx.size());
  res_nw.resize(idx.size());
  res_w.resize(idx.size());
  res_ex.resize(idx.size());
}

TileInstance build_tile_instance(int tile_flat, int required,
                                 const fill::SlackColumns& slack,
                                 const std::vector<rctree::WirePiece>& pieces,
                                 const std::vector<double>& net_criticality,
                                 PrepColumns* scratch) {
  auto crit = [&](layout::NetId n) {
    if (n < 0 || static_cast<std::size_t>(n) >= net_criticality.size())
      return 1.0;
    PIL_REQUIRE(net_criticality[n] >= 0, "negative net criticality");
    return net_criticality[n];
  };
  TileInstance inst;
  inst.tile_flat = tile_flat;
  inst.required = required;
  const auto& parts = slack.tile_parts(tile_flat);
  inst.cols.reserve(parts.size());

  // Gather pass: fixed per-column fields into the instance, the two-sided
  // columns' entry-resistance and weighting inputs into SoA columns.
  PrepColumns local;
  PrepColumns& p = scratch != nullptr ? *scratch : local;
  p.clear();
  for (const auto& part : parts) {
    const fill::SlackColumn& col = slack.columns()[part.column];
    InstanceColumn ic;
    ic.column = part.column;
    ic.first_site = part.first_site;
    ic.num_sites = part.num_sites;
    ic.x = col.x_center;
    ic.d = col.gap_um;
    ic.two_sided = col.two_sided();
    if (ic.two_sided) {
      const rctree::WirePiece& below = pieces[col.below_piece];
      const rctree::WirePiece& above = pieces[col.above_piece];
      ic.below_net = below.net;
      ic.above_net = above.net;
      const geom::Point qb = slack.column_cross_point(col, below);
      const geom::Point qa = slack.column_cross_point(col, above);
      p.idx.push_back(static_cast<int>(inst.cols.size()));
      p.base_b.push_back(below.upstream_res);
      p.slope_b.push_back(below.res_per_um);
      p.uxb.push_back(below.up.x);
      p.uyb.push_back(below.up.y);
      p.qxb.push_back(qb.x);
      p.qyb.push_back(qb.y);
      p.base_a.push_back(above.upstream_res);
      p.slope_a.push_back(above.res_per_um);
      p.uxa.push_back(above.up.x);
      p.uya.push_back(above.up.y);
      p.qxa.push_back(qa.x);
      p.qya.push_back(qa.y);
      p.wb.push_back(crit(below.net) * below.downstream_sinks);
      p.wa.push_back(crit(above.net) * above.downstream_sinks);
      p.sb.push_back(static_cast<double>(below.downstream_sinks));
      p.sa.push_back(static_cast<double>(above.downstream_sinks));
      p.ob.push_back(below.offpath_res_sum);
      p.oa.push_back(above.offpath_res_sum);
    }
    inst.cols.push_back(ic);
  }

  // Kernel pass: entry resistances rb/ra = WirePiece::res_at(cross point),
  // then the three resistance factors, each with the operation order of
  // the corresponding scalar expression (Eq. 13 / Eq. 21 / exact delay).
  const std::size_t n = p.size();
  if (n > 0) {
    p.resize_outputs();
    util::entry_res(p.base_b.data(), p.slope_b.data(), p.uxb.data(),
                    p.uyb.data(), p.qxb.data(), p.qyb.data(), n, p.rb.data());
    util::entry_res(p.base_a.data(), p.slope_a.data(), p.uxa.data(),
                    p.uya.data(), p.qxa.data(), p.qya.data(), n, p.ra.data());
    util::add2(p.rb.data(), p.ra.data(), n, p.res_nw.data());
    util::weighted_pair(p.wb.data(), p.rb.data(), p.wa.data(), p.ra.data(), n,
                        p.res_w.data());
    // The exact-delay factor is physical: criticality never scales it.
    util::exact_pair(p.sb.data(), p.rb.data(), p.sa.data(), p.ra.data(),
                     p.ob.data(), p.oa.data(), n, p.res_ex.data());
    for (std::size_t j = 0; j < n; ++j) {
      InstanceColumn& ic = inst.cols[static_cast<std::size_t>(p.idx[j])];
      ic.res_nonweighted = p.res_nw[j];
      ic.res_weighted = p.res_w[j];
      ic.res_exact = p.res_ex[j];
    }
  }
  return inst;
}

}  // namespace pil::pilfill
