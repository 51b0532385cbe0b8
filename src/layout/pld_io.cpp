#include "pil/layout/pld_io.hpp"

#include <fstream>
#include <iomanip>
#include <istream>
#include <ostream>

#include "pil/util/strings.hpp"

namespace pil::layout {

Layout read_pld(std::istream& in) {
  Layout layout;
  bool saw_magic = false;
  bool saw_die = false;
  NetId current_net = kInvalidNet;

  // Reads one line; the loop below prefixes its errors with the line.
  auto read_line = [&](std::string line) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    const auto tokens = split_ws(line);
    if (tokens.empty()) return;
    const std::string& kw = tokens[0];

    if (kw == "PLD") {
      if (tokens.size() != 2 || parse_int(tokens[1], "PLD version") != 1)
        throw Error("expected 'PLD 1'");
      saw_magic = true;
    } else if (!saw_magic) {
      throw Error("file must start with 'PLD 1'");
    } else if (kw == "DIE") {
      if (tokens.size() != 5) throw Error("DIE needs 4 coordinates");
      layout.set_die(geom::Rect{
          parse_double(tokens[1], "DIE"), parse_double(tokens[2], "DIE"),
          parse_double(tokens[3], "DIE"), parse_double(tokens[4], "DIE")});
      saw_die = true;
    } else if (kw == "LAYER") {
      if (tokens.size() != 11 || tokens[3] != "WIDTH" ||
          tokens[5] != "SHEETRES" || tokens[7] != "THICKNESS" ||
          tokens[9] != "EPSR")
        throw Error(
            "expected LAYER <name> <H|V> WIDTH w SHEETRES r THICKNESS t "
            "EPSR e");
      Layer layer;
      layer.name = tokens[1];
      if (tokens[2] == "H")
        layer.preferred_direction = Orientation::kHorizontal;
      else if (tokens[2] == "V")
        layer.preferred_direction = Orientation::kVertical;
      else
        throw Error("layer direction must be H or V");
      layer.default_wire_width_um = parse_double(tokens[4], "LAYER WIDTH");
      layer.sheet_res_ohm_sq = parse_double(tokens[6], "LAYER SHEETRES");
      layer.thickness_um = parse_double(tokens[8], "LAYER THICKNESS");
      layer.eps_r = parse_double(tokens[10], "LAYER EPSR");
      layout.add_layer(std::move(layer));
    } else if (kw == "BLOCKAGE") {
      if (!saw_die) throw Error("BLOCKAGE before DIE");
      if (tokens.size() != 6 && !(tokens.size() == 7 && tokens[6] == "METAL"))
        throw Error("expected BLOCKAGE <layer> x0 y0 x1 y1 [METAL]");
      const LayerId lid = layout.find_layer(tokens[1]);
      if (lid == kInvalidLayer) throw Error("BLOCKAGE on unknown layer");
      layout.add_blockage(
          lid,
          geom::Rect{parse_double(tokens[2], "BLOCKAGE"),
                     parse_double(tokens[3], "BLOCKAGE"),
                     parse_double(tokens[4], "BLOCKAGE"),
                     parse_double(tokens[5], "BLOCKAGE")},
          tokens.size() == 7);
    } else if (kw == "NET") {
      if (!saw_die) throw Error("NET before DIE");
      if (current_net != kInvalidNet) throw Error("nested NET (missing END)");
      if (tokens.size() != 7 || tokens[2] != "SOURCE" || tokens[5] != "RDRV")
        throw Error("expected NET <name> SOURCE x y RDRV r");
      Net net;
      net.name = tokens[1];
      net.source = geom::Point{parse_double(tokens[3], "NET SOURCE"),
                               parse_double(tokens[4], "NET SOURCE")};
      net.driver_res_ohm = parse_double(tokens[6], "NET RDRV");
      current_net = layout.add_net(std::move(net));
    } else if (kw == "SEG") {
      if (current_net == kInvalidNet) throw Error("SEG outside NET");
      if (tokens.size() != 7) throw Error("expected SEG layer x0 y0 x1 y1 w");
      const LayerId lid = layout.find_layer(tokens[1]);
      if (lid == kInvalidLayer) throw Error("SEG on unknown layer");
      layout.add_segment(
          current_net, lid,
          geom::Point{parse_double(tokens[2], "SEG"), parse_double(tokens[3], "SEG")},
          geom::Point{parse_double(tokens[4], "SEG"), parse_double(tokens[5], "SEG")},
          parse_double(tokens[6], "SEG width"));
    } else if (kw == "SINK") {
      if (current_net == kInvalidNet) throw Error("SINK outside NET");
      if (tokens.size() != 5 || tokens[3] != "CLOAD")
        throw Error("expected SINK x y CLOAD c");
      SinkPin sink;
      sink.location = geom::Point{parse_double(tokens[1], "SINK"),
                                  parse_double(tokens[2], "SINK")};
      sink.load_cap_ff = parse_double(tokens[4], "SINK CLOAD");
      layout.mutable_net(current_net).sinks.push_back(sink);
    } else if (kw == "END") {
      if (current_net == kInvalidNet) throw Error("END outside NET");
      current_net = kInvalidNet;
    } else {
      throw Error("unknown keyword '" + kw + "'");
    }
  };

  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    // Every error on a line -- a keyword check, a malformed number, a
    // layer, net, blockage or segment the Layout rejects -- names the line.
    try {
      read_line(line);
    } catch (const Error& e) {
      throw Error("pld parse error at line " + std::to_string(lineno) + ": " +
                  e.what());
    }
  }
  if (current_net != kInvalidNet) throw Error("pld: unterminated NET at EOF");
  if (!saw_die) throw Error("pld: missing DIE statement");
  layout.validate();
  return layout;
}

Layout read_pld_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open pld file: " + path);
  return read_pld(in);
}

void write_pld(const Layout& layout, std::ostream& out) {
  // Coordinates print via the shortest exact decimal representation so a
  // write/read cycle reproduces the layout bit-for-bit -- the fill service
  // ships layouts as .pld text and promises solves identical to an
  // in-process session on the original.
  const auto d = [](double v) { return format_double_exact(v); };
  out << "PLD 1\n";
  const auto& die = layout.die();
  out << "DIE " << d(die.xlo) << ' ' << d(die.ylo) << ' ' << d(die.xhi) << ' '
      << d(die.yhi) << '\n';
  for (std::size_t i = 0; i < layout.num_layers(); ++i) {
    const Layer& l = layout.layer(static_cast<LayerId>(i));
    out << "LAYER " << l.name << ' '
        << (l.preferred_direction == Orientation::kHorizontal ? 'H' : 'V')
        << " WIDTH " << d(l.default_wire_width_um) << " SHEETRES "
        << d(l.sheet_res_ohm_sq) << " THICKNESS " << d(l.thickness_um)
        << " EPSR " << d(l.eps_r) << '\n';
  }
  for (const Blockage& b : layout.blockages()) {
    out << "BLOCKAGE " << layout.layer(b.layer).name << ' ' << d(b.rect.xlo)
        << ' ' << d(b.rect.ylo) << ' ' << d(b.rect.xhi) << ' ' << d(b.rect.yhi)
        << (b.is_metal ? " METAL" : "") << '\n';
  }
  for (std::size_t i = 0; i < layout.num_nets(); ++i) {
    const Net& n = layout.net(static_cast<NetId>(i));
    out << "NET " << n.name << " SOURCE " << d(n.source.x) << ' '
        << d(n.source.y) << " RDRV " << d(n.driver_res_ohm) << '\n';
    for (const SegmentId sid : n.segments) {
      const WireSegment& s = layout.segment(sid);
      out << "  SEG " << layout.layer(s.layer).name << ' ' << d(s.a.x) << ' '
          << d(s.a.y) << ' ' << d(s.b.x) << ' ' << d(s.b.y) << ' '
          << d(s.width_um) << '\n';
    }
    for (const SinkPin& s : n.sinks) {
      out << "  SINK " << d(s.location.x) << ' ' << d(s.location.y)
          << " CLOAD " << d(s.load_cap_ff) << '\n';
    }
    out << "END\n";
  }
}

void write_pld_file(const Layout& layout, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw Error("cannot open pld file for writing: " + path);
  write_pld(layout, out);
}

}  // namespace pil::layout
