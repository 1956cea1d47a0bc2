#include "can/overlay.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "ert/elastic_links_impl.h"

namespace ert::can {
namespace {

/// 1-d torus distance between coordinates.
double t1(double a, double b) {
  const double d = std::fabs(a - b);
  return std::min(d, 1.0 - d);
}

/// 1-d torus distance from coordinate c to interval [lo, hi).
double t1_interval(double c, double lo, double hi) {
  if (c >= lo && c < hi) return 0.0;
  return std::min(t1(c, lo), t1(c, hi));
}

/// Intervals [a0,a1) and [b0,b1) touch endpoint-to-endpoint on the torus.
bool touch_1d(double a0, double a1, double b0, double b1) {
  return a1 == b0 || b1 == a0 || (a1 == 1.0 && b0 == 0.0) ||
         (b1 == 1.0 && a0 == 0.0);
}

/// Intervals overlap with positive length (no wrap; split boxes never wrap).
bool overlap_1d(double a0, double a1, double b0, double b1) {
  return std::min(a1, b1) - std::max(a0, b0) > 0.0;
}

}  // namespace

double zone_distance(const Zone& z, Point p) {
  const double dx = t1_interval(p.x, z.lo_x, z.hi_x);
  const double dy = t1_interval(p.y, z.lo_y, z.hi_y);
  return std::sqrt(dx * dx + dy * dy);
}

bool zones_abut(const Zone& a, const Zone& b) {
  // Share a vertical face (touch in x, overlap in y) or a horizontal one.
  if (touch_1d(a.lo_x, a.hi_x, b.lo_x, b.hi_x) &&
      overlap_1d(a.lo_y, a.hi_y, b.lo_y, b.hi_y))
    return true;
  if (touch_1d(a.lo_y, a.hi_y, b.lo_y, b.hi_y) &&
      overlap_1d(a.lo_x, a.hi_x, b.lo_x, b.hi_x))
    return true;
  return false;
}

Overlay::Overlay(CanOptions opts, PhysDistFn phys_dist)
    : ElasticLinks(std::move(phys_dist)), opts_(opts) {}

int Overlay::leaf_containing(Point p) const {
  assert(root_ >= 0);
  int t = root_;
  while (!tree_[t].is_leaf()) {
    const int c0 = tree_[t].child[0];
    t = tree_[c0].zone.contains(p) ? c0 : tree_[t].child[1];
  }
  return t;
}

void Overlay::set_zone(dht::NodeIndex i, const Zone& z, int leaf) {
  nodes_[i].zone = z;
  leaf_of_[i] = leaf;
  tree_[leaf].owner = i;
}

void Overlay::drop_adjacency(dht::NodeIndex i) {
  auto& entry = nodes_[i].table.entry(kAdjacencyEntry);
  // Removing i from each neighbor's entry touches other blocks only (erase
  // never resizes the pool backing), so our own span stays valid; the whole
  // block is released afterwards.
  for (const dht::NodeIndex32 j : entry.candidates(arena().cands))
    nodes_[j].table.entry(kAdjacencyEntry).remove(arena().cands, i);
  entry.release(arena().cands);
}

void Overlay::rebuild_adjacency(dht::NodeIndex i) {
  drop_adjacency(i);
  for (dht::NodeIndex j = 0; j < nodes_.size(); ++j) {
    if (j == i || !nodes_[j].alive) continue;
    if (zones_abut(nodes_[i].zone, nodes_[j].zone)) {
      nodes_[i].table.entry(kAdjacencyEntry).add(arena().cands, j);
      nodes_[j].table.entry(kAdjacencyEntry).add(arena().cands, i);
    }
  }
}

dht::NodeIndex Overlay::add_node(Rng& rng, double capacity, int max_indegree,
                                 double beta) {
  CanNode n;
  n.table.add_entry(dht::EntryKind::kLeaf);     // adjacency
  n.table.add_entry(dht::EntryKind::kFinger);   // shortcuts
  const dht::NodeIndex idx =
      push_node(std::move(n), capacity, max_indegree, beta);
  leaf_of_.push_back(-1);

  if (root_ < 0) {
    tree_.push_back(TreeNode{Zone{}, -1, {-1, -1}, idx});
    root_ = 0;
    set_zone(idx, Zone{}, root_);
    return idx;
  }
  const Point p{rng.uniform(), rng.uniform()};
  split_leaf(leaf_containing(p), idx, p);
  return idx;
}

void Overlay::split_leaf(int leaf, dht::NodeIndex newcomer, Point p) {
  const dht::NodeIndex incumbent = tree_[leaf].owner;
  const Zone z = tree_[leaf].zone;
  Zone a = z, b = z;
  if (z.width() >= z.height()) {
    const double mid = (z.lo_x + z.hi_x) / 2;
    a.hi_x = mid;
    b.lo_x = mid;
  } else {
    const double mid = (z.lo_y + z.hi_y) / 2;
    a.hi_y = mid;
    b.lo_y = mid;
  }
  const int ia = static_cast<int>(tree_.size());
  tree_.push_back(TreeNode{a, leaf, {-1, -1}, dht::kNoNode});
  const int ib = static_cast<int>(tree_.size());
  tree_.push_back(TreeNode{b, leaf, {-1, -1}, dht::kNoNode});
  tree_[leaf].child[0] = ia;
  tree_[leaf].child[1] = ib;
  tree_[leaf].owner = dht::kNoNode;
  // The newcomer takes the half containing its point (CAN's join rule).
  const bool new_gets_a = a.contains(p);
  set_zone(newcomer, new_gets_a ? a : b, new_gets_a ? ia : ib);
  set_zone(incumbent, new_gets_a ? b : a, new_gets_a ? ib : ia);
  rebuild_adjacency(incumbent);
  rebuild_adjacency(newcomer);
}

int Overlay::deepest_leaf(int t) const {
  int best = -1, best_depth = -1;
  // Iterative DFS with explicit depth.
  std::vector<std::pair<int, int>> stack{{t, 0}};
  while (!stack.empty()) {
    const auto [n, d] = stack.back();
    stack.pop_back();
    if (tree_[n].is_leaf()) {
      if (d > best_depth) {
        best_depth = d;
        best = n;
      }
    } else {
      stack.push_back({tree_[n].child[0], d + 1});
      stack.push_back({tree_[n].child[1], d + 1});
    }
  }
  return best;
}

void Overlay::erase_member(dht::NodeIndex i) {
  drop_adjacency(i);
  const int leaf = leaf_of_[i];
  if (leaf == root_) {  // last node: the space goes unowned
    root_ = -1;
    tree_.clear();
    leaf_of_[i] = -1;
    return;
  }
  const int parent = tree_[leaf].parent;
  const int sibling = tree_[parent].child[0] == leaf ? tree_[parent].child[1]
                                                     : tree_[parent].child[0];
  if (tree_[sibling].is_leaf()) {
    // Merge: the sibling's owner takes the whole parent zone.
    const dht::NodeIndex s = tree_[sibling].owner;
    tree_[parent].child[0] = tree_[parent].child[1] = -1;
    set_zone(s, tree_[parent].zone, parent);
    rebuild_adjacency(s);
    return;
  }
  // Takeover: the deepest leaf below the sibling subtree donates its owner.
  const int donor_leaf = deepest_leaf(sibling);
  const dht::NodeIndex donor = tree_[donor_leaf].owner;
  const int donor_parent = tree_[donor_leaf].parent;
  const int donor_sibling = tree_[donor_parent].child[0] == donor_leaf
                                ? tree_[donor_parent].child[1]
                                : tree_[donor_parent].child[0];
  // The deepest leaf's sibling is a leaf too (a deepest internal node with
  // a non-leaf child would have a deeper leaf below it).
  assert(tree_[donor_sibling].is_leaf());
  const dht::NodeIndex keeper = tree_[donor_sibling].owner;
  drop_adjacency(donor);
  tree_[donor_parent].child[0] = tree_[donor_parent].child[1] = -1;
  set_zone(keeper, tree_[donor_parent].zone, donor_parent);
  // The donor adopts the departed node's zone.
  set_zone(donor, tree_[leaf].zone, leaf);
  rebuild_adjacency(keeper);
  rebuild_adjacency(donor);
}

dht::NodeIndex Overlay::responsible(Point p) const {
  if (root_ < 0) return dht::kNoNode;
  return tree_[leaf_containing(p)].owner;
}

RouteStep Overlay::route_step(dht::NodeIndex cur, Point target) const {
  dht::RouteScratch scratch;
  const dht::RouteStepInfo info = route_step(cur, target, scratch);
  RouteStep step;
  step.arrived = info.arrived;
  step.entry_index = info.entry_index;
  step.candidates = std::move(scratch.candidates);
  return step;
}

dht::RouteStepInfo Overlay::route_step(dht::NodeIndex cur, Point target,
                                       dht::RouteScratch& scratch) const {
  dht::RouteStepInfo step;
  step.entry_index = kNumEntries;
  auto& cands = scratch.candidates;
  cands.clear();
  const dht::NodeIndex owner = responsible(target);
  assert(owner != dht::kNoNode);
  if (owner == cur) {
    step.arrived = true;
    return step;
  }
  const CanNode& cn = nodes_.at(cur);
  assert(cn.alive);
  const double my_zd = zone_distance(cn.zone, target);
  const double my_cd = net::torus_distance(cn.zone.center(), target);
  auto better = [&](dht::NodeIndex c) {
    const double zd = zone_distance(nodes_[c].zone, target);
    if (zd != my_zd) return zd < my_zd;
    return net::torus_distance(nodes_[c].zone.center(), target) < my_cd;
  };
  auto rank = [&](dht::NodeIndex c) {
    return std::make_pair(zone_distance(nodes_[c].zone, target),
                          net::torus_distance(nodes_[c].zone.center(), target));
  };
  // Pick the entry whose best candidate is globally best (shortcuts give
  // long jumps, adjacency guarantees progress).
  std::size_t best_entry = kNumEntries;
  std::pair<double, double> best{1e9, 1e9};
  for (std::size_t e = 0; e < kNumEntries; ++e) {
    for (const dht::NodeIndex32 c : cn.table.entry(e).candidates(arena().cands)) {
      if (!nodes_[c].alive || !better(c)) continue;
      const auto r = rank(c);
      if (r < best) {
        best = r;
        best_entry = e;
      }
    }
  }
  if (best_entry == kNumEntries) {
    // Geometrically impossible with complete adjacency over a rectilinear
    // partition: the face toward the target always leads to a closer zone.
    // Tolerate anyway (stale state mid-churn): fall back to the adjacency
    // neighbor with the minimum rank, strictness dropped.
    for (const dht::NodeIndex32 c :
         cn.table.entry(kAdjacencyEntry).candidates(arena().cands))
      if (nodes_[c].alive) cands.push_back(c);
    assert(!cands.empty());
    std::sort(cands.begin(), cands.end(),
              [&](dht::NodeIndex x, dht::NodeIndex y) {
                return rank(x) < rank(y);
              });
    step.entry_index = kNumEntries;
    return step;
  }
  for (const dht::NodeIndex32 c :
       cn.table.entry(best_entry).candidates(arena().cands))
    if (nodes_[c].alive && better(c)) cands.push_back(c);
  std::sort(cands.begin(), cands.end(),
            [&](dht::NodeIndex x, dht::NodeIndex y) {
              return rank(x) < rank(y);
            });
  step.entry_index = best_entry;
  return step;
}

bool Overlay::eligible(dht::NodeIndex owner, std::size_t slot,
                       dht::NodeIndex cand) const {
  return slot == kShortcutEntry && owner != cand &&
         !nodes_[owner].table.entry(kAdjacencyEntry).contains(arena().cands,
                                                              cand);
}

void Overlay::expansion_targets_into(
    dht::NodeIndex i, std::size_t max_targets,
    std::vector<core::ExpansionTarget>& out) const {
  out.clear();
  const Point me = nodes_.at(i).zone.center();
  // Hosts within the shortcut radius, nearest first.
  auto& hosts = hosts_scratch_;
  hosts.clear();
  for (dht::NodeIndex j = 0; j < nodes_.size(); ++j) {
    if (j == i || !nodes_[j].alive) continue;
    const double d = net::torus_distance(nodes_[j].zone.center(), me);
    if (d <= opts_.shortcut_radius) hosts.emplace_back(d, j);
  }
  std::sort(hosts.begin(), hosts.end());
  for (const auto& [d, host] : hosts) {
    if (out.size() >= max_targets) break;
    out.emplace_back(host, kShortcutEntry);
  }
}

void Overlay::audit_geometry(dht::NodeIndex i, core::AuditSink& sink) const {
  const CanNode& n = nodes_[i];
  const bool owns_leaf = leaf_of_[i] >= 0 && tree_[leaf_of_[i]].owner == i;
  sink.expect_eq("geometry.can.partition", i, owns_leaf ? 1.0 : 0.0, 1.0,
                 "node does not own its split-tree leaf");
  // Adjacency completeness (its symmetry is part of links.symmetry).
  std::size_t wrong = 0;
  for (dht::NodeIndex j = 0; j < nodes_.size(); ++j) {
    if (j == i || !nodes_[j].alive) continue;
    if (zones_abut(n.zone, nodes_[j].zone) !=
        n.table.entry(kAdjacencyEntry).contains(arena().cands, j))
      ++wrong;
  }
  sink.expect_eq("geometry.can.adjacency", i, static_cast<double>(wrong), 0.0,
                 "adjacency entry incomplete or stale");
}

void Overlay::audit_network_geometry(core::AuditSink& sink) const {
  if (root_ < 0) return;
  double volume = 0.0;
  for (const CanNode& n : nodes_)
    if (n.alive) volume += n.zone.volume();
  if (std::fabs(volume - 1.0) >= 1e-9)
    sink.report("geometry.can.partition", dht::kNoNode, volume, 1.0,
                "zones do not partition the space");
}

}  // namespace ert::can

template class ert::core::ElasticLinks<ert::can::Overlay,
                                       ert::can::CanNode>;
