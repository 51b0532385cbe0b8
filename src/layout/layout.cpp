#include "pil/layout/layout.hpp"

#include <algorithm>

namespace pil::layout {

LayerId Layout::add_layer(Layer layer) {
  // Layers, nets and blockages arrive from client-supplied files and
  // generator specs: plain errors, no source locations.
  if (layer.name.empty()) throw Error("layer needs a name");
  if (find_layer(layer.name) != kInvalidLayer)
    throw Error("duplicate layer name");
  if (!(layer.default_wire_width_um > 0 && layer.sheet_res_ohm_sq > 0 &&
        layer.thickness_um > 0 && layer.eps_r > 0))
    throw Error("layer parameters must be positive");
  layers_.push_back(std::move(layer));
  return static_cast<LayerId>(layers_.size() - 1);
}

const Layer& Layout::layer(LayerId id) const {
  PIL_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < layers_.size(),
              "layer id out of range");
  return layers_[id];
}

LayerId Layout::find_layer(const std::string& name) const {
  for (std::size_t i = 0; i < layers_.size(); ++i)
    if (layers_[i].name == name) return static_cast<LayerId>(i);
  return kInvalidLayer;
}

NetId Layout::add_net(Net net) {
  if (!(net.driver_res_ohm > 0))
    throw Error("driver resistance must be positive");
  if (!die_.contains(net.source)) throw Error("net source outside die");
  for (const auto& s : net.sinks)
    if (!die_.contains(s.location)) throw Error("net sink outside die");
  net.id = static_cast<NetId>(nets_.size());
  net.segments.clear();
  nets_.push_back(std::move(net));
  return nets_.back().id;
}

const Net& Layout::net(NetId id) const {
  PIL_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < nets_.size(),
              "net id out of range");
  return nets_[id];
}

Net& Layout::mutable_net(NetId id) {
  PIL_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < nets_.size(),
              "net id out of range");
  return nets_[id];
}

SegmentId Layout::add_segment(NetId netid, LayerId layerid, geom::Point p,
                              geom::Point q, double width_um) {
  PIL_REQUIRE(netid >= 0 && static_cast<std::size_t>(netid) < nets_.size(),
              "segment references unknown net");
  PIL_REQUIRE(layerid >= 0 && static_cast<std::size_t>(layerid) < layers_.size(),
              "segment references unknown layer");
  // Geometry checks throw plain pil::Error: a service client's edit reaches
  // them, and its error message must not carry a source location.
  if (!(width_um > 0)) throw Error("segment width must be positive");
  const bool h = geom::nearly_equal(p.y, q.y);
  const bool v = geom::nearly_equal(p.x, q.x);
  if (!h && !v) throw Error("segments must be axis-aligned");
  if (!die_.contains(p) || !die_.contains(q))
    throw Error("segment endpoint outside die");

  WireSegment seg;
  seg.id = static_cast<SegmentId>(segments_.size());
  seg.net = netid;
  seg.layer = layerid;
  seg.width_um = width_um;
  // Canonical order: a <= b along the axis of the segment.
  if ((h && p.x <= q.x) || (!h && p.y <= q.y)) {
    seg.a = p;
    seg.b = q;
  } else {
    seg.a = q;
    seg.b = p;
  }
  segments_.push_back(seg);
  nets_[netid].segments.push_back(seg.id);
  return seg.id;
}

const WireSegment& Layout::segment(SegmentId id) const {
  PIL_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < segments_.size(),
              "segment id out of range");
  return segments_[id];
}

WireSegment& Layout::mutable_segment(SegmentId id) {
  PIL_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < segments_.size(),
              "segment id out of range");
  return segments_[id];
}

void Layout::remove_segment(SegmentId id) {
  WireSegment& seg = mutable_segment(id);
  PIL_REQUIRE(!seg.removed(), "segment already removed");
  auto& list = nets_[seg.net].segments;
  const auto it = std::find(list.begin(), list.end(), id);
  PIL_REQUIRE(it != list.end(), "segment missing from its net's list");
  list.erase(it);
  seg.net = kInvalidNet;
  seg.layer = kInvalidLayer;
}

void Layout::move_segment(SegmentId id, double dx, double dy) {
  WireSegment& seg = mutable_segment(id);
  PIL_REQUIRE(!seg.removed(), "cannot move a removed segment");
  const geom::Point a{seg.a.x + dx, seg.a.y + dy};
  const geom::Point b{seg.b.x + dx, seg.b.y + dy};
  if (!die_.contains(a) || !die_.contains(b))
    throw Error("segment endpoint outside die");
  seg.a = a;
  seg.b = b;
}

std::vector<SegmentId> Layout::segments_on_layer(LayerId layerid) const {
  std::vector<SegmentId> out;
  for (const auto& s : segments_)
    if (s.layer == layerid) out.push_back(s.id);
  return out;
}

double Layout::total_wire_area(LayerId layerid) const {
  double area = 0.0;
  for (const auto& s : segments_)
    if (s.layer == layerid) area += s.rect().area();
  return area;
}

void Layout::add_blockage(LayerId layerid, const geom::Rect& rect,
                          bool is_metal) {
  if (!(layerid >= 0 && static_cast<std::size_t>(layerid) < layers_.size()))
    throw Error("blockage references unknown layer");
  if (rect.empty() || !(rect.area() > 0))
    throw Error("blockage rect must have area");
  if (!die_.contains(rect)) throw Error("blockage outside die");
  blockages_.push_back(Blockage{layerid, rect, is_metal});
}

std::vector<geom::Rect> Layout::blockages_on_layer(LayerId layerid) const {
  std::vector<geom::Rect> out;
  for (const auto& b : blockages_)
    if (b.layer == layerid) out.push_back(b.rect);
  return out;
}

void Layout::validate() const {
  PIL_REQUIRE(!die_.empty(), "empty die");
  for (const auto& s : segments_) {
    if (s.removed()) continue;
    PIL_REQUIRE(s.net >= 0 && static_cast<std::size_t>(s.net) < nets_.size(),
                "segment with dangling net id");
    PIL_REQUIRE(s.layer >= 0 &&
                    static_cast<std::size_t>(s.layer) < layers_.size(),
                "segment with dangling layer id");
    PIL_REQUIRE(die_.contains(s.a) && die_.contains(s.b),
                "segment endpoint outside die");
    const bool ordered = (s.orientation() == Orientation::kHorizontal)
                             ? s.a.x <= s.b.x
                             : s.a.y <= s.b.y;
    PIL_REQUIRE(ordered, "segment endpoints not canonical");
  }
  for (const auto& n : nets_) {
    for (const SegmentId sid : n.segments) {
      PIL_REQUIRE(sid >= 0 && static_cast<std::size_t>(sid) < segments_.size(),
                  "net references unknown segment");
      PIL_REQUIRE(segments_[sid].net == n.id, "net/segment id mismatch");
    }
  }
}

Layout transposed(const Layout& l) {
  auto flip = [](const geom::Point& p) { return geom::Point{p.y, p.x}; };
  const geom::Rect& d = l.die();
  Layout out(geom::Rect{d.ylo, d.xlo, d.yhi, d.xhi});
  for (std::size_t i = 0; i < l.num_layers(); ++i) {
    Layer layer = l.layer(static_cast<LayerId>(i));
    layer.preferred_direction =
        layer.preferred_direction == Orientation::kHorizontal
            ? Orientation::kVertical
            : Orientation::kHorizontal;
    out.add_layer(std::move(layer));
  }
  for (std::size_t i = 0; i < l.num_nets(); ++i) {
    const Net& src = l.net(static_cast<NetId>(i));
    Net net;
    net.name = src.name;
    net.source = flip(src.source);
    net.driver_res_ohm = src.driver_res_ohm;
    for (const SinkPin& s : src.sinks)
      net.sinks.push_back(SinkPin{flip(s.location), s.load_cap_ff});
    const NetId nid = out.add_net(std::move(net));
    for (const SegmentId sid : src.segments) {
      const WireSegment& seg = l.segment(sid);
      out.add_segment(nid, seg.layer, flip(seg.a), flip(seg.b), seg.width_um);
    }
  }
  for (const Blockage& b : l.blockages())
    out.add_blockage(b.layer,
                     geom::Rect{b.rect.ylo, b.rect.xlo, b.rect.yhi, b.rect.xhi},
                     b.is_metal);
  return out;
}

}  // namespace pil::layout
