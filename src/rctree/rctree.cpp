#include "pil/rctree/rctree.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <utility>

#include "pil/util/log.hpp"

namespace pil::rctree {

namespace {

using layout::Layout;
using layout::Net;
using layout::NetId;
using layout::Orientation;
using layout::WireSegment;

/// Integer key for snapping nearly-identical points to one electrical node.
struct NodeKey {
  long long x, y;
  friend bool operator<(const NodeKey& a, const NodeKey& b) {
    return a.x != b.x ? a.x < b.x : a.y < b.y;
  }
};

NodeKey make_key(const geom::Point& p, double snap) {
  return NodeKey{static_cast<long long>(std::llround(p.x / snap)),
                 static_cast<long long>(std::llround(p.y / snap))};
}

/// True if q lies on the centerline of segment s (within tol).
bool point_on_centerline(const WireSegment& s, const geom::Point& q,
                         double tol) {
  if (s.orientation() == Orientation::kHorizontal) {
    return std::fabs(q.y - s.a.y) <= tol && q.x >= s.a.x - tol &&
           q.x <= s.b.x + tol;
  }
  return std::fabs(q.x - s.a.x) <= tol && q.y >= s.a.y - tol &&
         q.y <= s.b.y + tol;
}

struct AdjEdge {
  int to = -1;
  double res = 0.0;
  // Piece metadata (filled when the edge is traversed root-ward).
  layout::SegmentId segment = layout::kInvalidSegment;
  layout::LayerId layer = layout::kInvalidLayer;
  Orientation orientation = Orientation::kHorizontal;
  double width_um = 0.0;
  double res_per_um = 0.0;
  double length_um = 0.0;
};

}  // namespace

RcTree RcTree::build(const Layout& layout, NetId netid,
                     const RcTreeOptions& options) {
  const Net& net = layout.net(netid);
  const double tol = options.snap_tolerance_um;
  RcTree tree;
  tree.net_ = netid;

  // ---- 1. Collect split points per segment --------------------------------
  // A segment is split where another segment of the net ends on it, where a
  // segment crosses through a T endpoint, at the source, and at every sink.
  std::vector<const WireSegment*> segs;
  segs.reserve(net.segments.size());
  for (const auto sid : net.segments) segs.push_back(&layout.segment(sid));

  if (segs.empty()) {
    // Degenerate but legal: a net with no routing. All pins must coincide.
    for (const auto& s : net.sinks)
      if (manhattan_distance(s.location, net.source) > tol)
        throw Error("net '" + net.name + "' has sinks but no routing");
    RcNode root;
    root.p = net.source;
    root.upstream_res = net.driver_res_ohm;
    root.subtree_sinks = static_cast<int>(net.sinks.size());
    for (const auto& s : net.sinks) root.cap_ff += s.load_cap_ff;
    root.elmore_ps = net.driver_res_ohm * root.cap_ff * 1e-3;  // ohm*fF -> ps
    tree.nodes_.push_back(root);
    for (std::size_t i = 0; i < net.sinks.size(); ++i)
      tree.sink_nodes_.push_back(0);
    return tree;
  }

  std::vector<std::vector<double>> splits(segs.size());
  auto add_split = [&](std::size_t si, const geom::Point& q) {
    const WireSegment& s = *segs[si];
    const double t = (s.orientation() == Orientation::kHorizontal) ? q.x : q.y;
    splits[si].push_back(t);
  };
  for (std::size_t i = 0; i < segs.size(); ++i) {
    const WireSegment& s = *segs[i];
    add_split(i, s.a);
    add_split(i, s.b);
    if (point_on_centerline(s, net.source, tol)) add_split(i, net.source);
    for (const auto& sink : net.sinks)
      if (point_on_centerline(s, sink.location, tol))
        add_split(i, sink.location);
    for (std::size_t j = 0; j < segs.size(); ++j) {
      if (i == j) continue;
      const WireSegment& o = *segs[j];
      if (point_on_centerline(s, o.a, tol)) add_split(i, o.a);
      if (point_on_centerline(s, o.b, tol)) add_split(i, o.b);
    }
    auto& v = splits[i];
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end(),
                        [&](double a, double b) { return b - a <= tol; }),
            v.end());
  }

  // ---- 2. Build the node/adjacency graph ----------------------------------
  std::map<NodeKey, int> node_of;
  std::vector<geom::Point> points;
  auto intern = [&](const geom::Point& p) {
    const NodeKey k = make_key(p, tol);
    auto [it, inserted] = node_of.emplace(k, static_cast<int>(points.size()));
    if (inserted) points.push_back(p);
    return it->second;
  };

  std::vector<std::vector<AdjEdge>> adj;
  auto ensure_adj = [&] { adj.resize(points.size()); };

  for (std::size_t i = 0; i < segs.size(); ++i) {
    const WireSegment& s = *segs[i];
    const double rper = layout.layer(s.layer).res_per_um(s.width_um);
    const bool horiz = s.orientation() == Orientation::kHorizontal;
    for (std::size_t k = 0; k + 1 < splits[i].size(); ++k) {
      const double t0 = splits[i][k], t1 = splits[i][k + 1];
      if (t1 - t0 <= tol) continue;
      const geom::Point p0 = horiz ? geom::Point{t0, s.a.y}
                                   : geom::Point{s.a.x, t0};
      const geom::Point p1 = horiz ? geom::Point{t1, s.a.y}
                                   : geom::Point{s.a.x, t1};
      const int n0 = intern(p0);
      const int n1 = intern(p1);
      ensure_adj();
      AdjEdge e;
      e.res = rper * (t1 - t0);
      e.segment = s.id;
      e.layer = s.layer;
      e.orientation = horiz ? Orientation::kHorizontal : Orientation::kVertical;
      e.width_um = s.width_um;
      e.res_per_um = rper;
      e.length_um = t1 - t0;
      e.to = n1;
      adj[n0].push_back(e);
      e.to = n0;
      adj[n1].push_back(e);
    }
  }
  ensure_adj();

  const NodeKey source_key = make_key(net.source, tol);
  const auto src_it = node_of.find(source_key);
  if (src_it == node_of.end())
    throw Error("net '" + net.name + "': source is not on the routing");
  const int src_node = src_it->second;

  // ---- 3. BFS from the source: orientation, loop/connectivity checks ------
  const int n = static_cast<int>(points.size());
  std::vector<int> order;  // BFS order; position 0 is the source
  std::vector<int> parent(n, -2);  // -2 = unvisited, -1 = root
  std::vector<const AdjEdge*> parent_edge(n, nullptr);
  order.reserve(n);
  parent[src_node] = -1;
  std::deque<int> queue{src_node};
  while (!queue.empty()) {
    const int u = queue.front();
    queue.pop_front();
    order.push_back(u);
    for (const AdjEdge& e : adj[u]) {
      if (parent[e.to] == -2) {
        parent[e.to] = u;
        parent_edge[e.to] = &e;
        queue.push_back(e.to);
      } else if (e.to != parent[u]) {
        throw Error("net '" + net.name + "': routing graph has a loop");
      }
    }
  }
  if (static_cast<int>(order.size()) != n)
    throw Error("net '" + net.name + "': routing is disconnected");

  // ---- 4. Renumber so the root is node 0, in BFS order --------------------
  std::vector<int> newid(n, -1);
  for (int i = 0; i < n; ++i) newid[order[i]] = i;

  tree.nodes_.resize(n);
  tree.pieces_.reserve(n - 1);
  for (int i = 0; i < n; ++i) {
    const int old = order[i];
    RcNode& node = tree.nodes_[i];
    node.p = points[old];
    node.parent = (parent[old] >= 0) ? newid[parent[old]] : -1;
    node.res_to_parent = parent_edge[old] ? parent_edge[old]->res : 0.0;
  }

  // Pieces: one per non-root node (the edge to its parent).
  std::vector<int> piece_of_node(n, -1);  // piece whose down_node is i
  for (int i = 1; i < n; ++i) {
    const AdjEdge& e = *parent_edge[order[i]];
    WirePiece piece;
    piece.segment = e.segment;
    piece.net = netid;
    piece.layer = e.layer;
    piece.orientation = e.orientation;
    piece.up_node = tree.nodes_[i].parent;
    piece.down_node = i;
    piece.up = tree.nodes_[piece.up_node].p;
    piece.down = tree.nodes_[i].p;
    piece.width_um = e.width_um;
    piece.res_per_um = e.res_per_um;
    piece_of_node[i] = static_cast<int>(tree.pieces_.size());
    tree.pieces_.push_back(piece);
  }

  // ---- 4b. Via resistance where the tree changes layers -------------------
  if (options.via_res_ohm > 0) {
    for (int i = 1; i < n; ++i) {
      const int par = tree.nodes_[i].parent;
      if (par == 0) continue;  // the driver pin is not a via
      const WirePiece& mine = tree.pieces_[piece_of_node[i]];
      const WirePiece& parents = tree.pieces_[piece_of_node[par]];
      if (mine.layer != parents.layer)
        tree.nodes_[i].res_to_parent += options.via_res_ohm;
    }
  }

  // ---- 5. Capacitances: wire ground cap (half to each end) + sink loads ---
  for (const WirePiece& piece : tree.pieces_) {
    const double c = options.wire_ground_cap_ff_per_um * piece.length();
    tree.nodes_[piece.up_node].cap_ff += c / 2;
    tree.nodes_[piece.down_node].cap_ff += c / 2;
  }
  tree.sink_nodes_.reserve(net.sinks.size());
  for (const auto& sink : net.sinks) {
    const auto it = node_of.find(make_key(sink.location, tol));
    if (it == node_of.end())
      throw Error("net '" + net.name + "': sink is not on the routing");
    const int node = newid[it->second];
    tree.nodes_[node].cap_ff += sink.load_cap_ff;
    tree.nodes_[node].subtree_sinks += 1;  // local count; accumulated below
    tree.sink_nodes_.push_back(node);
  }

  // ---- 6. Upstream resistance (top-down) and sink counts (bottom-up) ------
  tree.nodes_[0].upstream_res = net.driver_res_ohm;
  for (int i = 1; i < n; ++i)
    tree.nodes_[i].upstream_res =
        tree.nodes_[tree.nodes_[i].parent].upstream_res +
        tree.nodes_[i].res_to_parent;
  for (int i = n - 1; i >= 1; --i)
    tree.nodes_[tree.nodes_[i].parent].subtree_sinks +=
        tree.nodes_[i].subtree_sinks;

  // ---- 7. Elmore delays: tau(child) = tau(parent) + R_edge * C_subtree ----
  std::vector<double> subtree_cap(n, 0.0);
  for (int i = 0; i < n; ++i) subtree_cap[i] = tree.nodes_[i].cap_ff;
  for (int i = n - 1; i >= 1; --i)
    subtree_cap[tree.nodes_[i].parent] += subtree_cap[i];
  // ohm * fF = 1e-15 s = 1e-3 ps.
  tree.nodes_[0].elmore_ps = net.driver_res_ohm * subtree_cap[0] * 1e-3;
  for (int i = 1; i < n; ++i)
    tree.nodes_[i].elmore_ps =
        tree.nodes_[tree.nodes_[i].parent].elmore_ps +
        tree.nodes_[i].res_to_parent * subtree_cap[i] * 1e-3;

  // ---- 8. Piece weights and off-path resistance sums ----------------------
  // K(node) = sum over sinks outside subtree(node) of R(source -> lca):
  // K(root) = 0; K(child) = K(parent) + R(parent)*(sinks(parent)-sinks(child)).
  std::vector<double> offpath(n, 0.0);
  for (int i = 1; i < n; ++i) {
    const int par = tree.nodes_[i].parent;
    offpath[i] = offpath[par] +
                 tree.nodes_[par].upstream_res *
                     (tree.nodes_[par].subtree_sinks -
                      tree.nodes_[i].subtree_sinks);
  }
  for (WirePiece& piece : tree.pieces_) {
    // Entry resistance includes any via at the piece's upstream junction:
    // res_to_parent = via + wire, so subtracting the wire from the
    // downstream node's accumulation lands exactly past the via.
    piece.upstream_res = tree.nodes_[piece.down_node].upstream_res -
                         piece.res_per_um * piece.length();
    piece.downstream_sinks = tree.nodes_[piece.down_node].subtree_sinks;
    piece.offpath_res_sum = offpath[piece.down_node];
  }

  PIL_ASSERT(tree.nodes_[0].subtree_sinks ==
                 static_cast<int>(net.sinks.size()),
             "sink accounting mismatch");
  return tree;
}

int RcTree::sink_node(int i) const {
  PIL_REQUIRE(i >= 0 && i < num_sinks(), "sink index out of range");
  return sink_nodes_[i];
}

double RcTree::sink_delay_ps(int i) const {
  return nodes_[sink_node(i)].elmore_ps;
}

double RcTree::total_sink_delay_ps() const {
  double sum = 0.0;
  for (const int node : sink_nodes_) sum += nodes_[node].elmore_ps;
  return sum;
}

double RcTree::total_cap_ff() const {
  double sum = 0.0;
  for (const RcNode& node : nodes_) sum += node.cap_ff;
  return sum;
}

double RcTree::exact_total_delay_increase_ps(int piece_idx,
                                             const geom::Point& q,
                                             double delta_cap_ff) const {
  PIL_REQUIRE(piece_idx >= 0 &&
                  piece_idx < static_cast<int>(pieces_.size()),
              "piece index out of range");
  const WirePiece& piece = pieces_[piece_idx];
  const double r_at_q = piece.res_at(q);
  return delta_cap_ff *
         (piece.downstream_sinks * r_at_q + piece.offpath_res_sum) * 1e-3;
}

std::vector<RcTree> build_all_trees(const Layout& layout,
                                    const RcTreeOptions& options) {
  std::vector<RcTree> trees;
  trees.reserve(layout.num_nets());
  for (std::size_t i = 0; i < layout.num_nets(); ++i)
    trees.push_back(
        RcTree::build(layout, static_cast<NetId>(i), options));
  return trees;
}

}  // namespace pil::rctree
