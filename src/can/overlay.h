// CAN (Content-Addressable Network) substrate.
//
// CAN is the fourth DHT the paper names alongside Chord, Tapestry and
// Pastry. The id space is the 2-d unit torus; each node owns an
// axis-aligned zone, joins split the zone containing a random point, and
// leaves merge zones back through the split tree (the classic CAN
// takeover: if the departing node's sibling in the split tree is a leaf
// the two zones merge; otherwise the deepest leaf pair below the sibling
// donates a node to adopt the freed zone).
//
// Elasticity follows the paper's recipe of "relaxing the routing table
// neighbor constraints": the mandatory symmetric adjacency links stay (the
// substrate's correctness needs them), while an elastic *shortcut* entry
// holds extra links to nearby zones, built under the d_inf - d >= 1
// acceptance rule, expanded by probing zone owners within a radius, and
// shed by the adaptation algorithm. Greedy routing treats every link with
// strictly smaller (zone distance, center distance) to the target as a
// candidate, so the forwarding policies get their multi-candidate sets.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "dht/route_scratch.h"
#include "dht/routing_entry.h"
#include "dht/types.h"
#include "ert/elastic_links.h"
#include "net/proximity.h"

namespace ert::can {

using Point = net::Coord;  // unit torus

/// Axis-aligned box on the unit square (splits never wrap).
struct Zone {
  double lo_x = 0.0, hi_x = 1.0;
  double lo_y = 0.0, hi_y = 1.0;

  bool contains(Point p) const {
    return p.x >= lo_x && p.x < hi_x && p.y >= lo_y && p.y < hi_y;
  }
  double width() const { return hi_x - lo_x; }
  double height() const { return hi_y - lo_y; }
  double volume() const { return width() * height(); }
  Point center() const {
    return Point{(lo_x + hi_x) / 2, (lo_y + hi_y) / 2};
  }
};

/// Torus distance from a point to the closest point of a zone.
double zone_distance(const Zone& z, Point p);

/// True iff the zones share a face segment (abut) on the torus.
bool zones_abut(const Zone& a, const Zone& b);

inline constexpr std::size_t kAdjacencyEntry = 0;  ///< mandatory neighbors
inline constexpr std::size_t kShortcutEntry = 1;   ///< elastic ERT links
inline constexpr std::size_t kNumEntries = 2;

struct CanOptions {
  double shortcut_radius = 0.35;  ///< probe owners within this distance.
  std::size_t max_shortcuts = 8;  ///< per-node outgoing shortcut cap.
};

/// Table entries: [0] adjacency, [1] shortcuts. The budget and backward
/// fingers cover shortcut inlinks only.
struct CanNode : core::ElasticNode {
  Zone zone;
};

struct RouteStep {
  bool arrived = false;
  std::size_t entry_index = kNumEntries;  ///< kNumEntries = mixed/emergency.
  std::vector<dht::NodeIndex> candidates;
};

class Overlay : public core::ElasticLinks<Overlay, CanNode> {
 public:
  explicit Overlay(CanOptions opts, PhysDistFn phys_dist = {});

  /// First node owns the whole space; later joins pick a random point and
  /// split the zone containing it. Returns the new node's index.
  dht::NodeIndex add_node(Rng& rng, double capacity, int max_indegree,
                          double beta);

  /// CAN departures are announced (the zone must be taken over to keep the
  /// space partitioned); silent-failure takeover is out of scope, so a
  /// failure is a graceful departure and produces no timeouts.
  void fail(dht::NodeIndex i) { leave_graceful(i); }

  dht::NodeIndex responsible(Point p) const;
  RouteStep route_step(dht::NodeIndex cur, Point target) const;

  /// Allocation-free hop: identical routing decision, but the candidate
  /// set is written into `scratch.candidates` instead of a fresh vector.
  dht::RouteStepInfo route_step(dht::NodeIndex cur, Point target,
                                dht::RouteScratch& scratch) const;

  /// ERT shortcut expansion targets: owners within shortcut_radius of our
  /// center, nearest first, as kShortcutEntry adopters.
  void expansion_targets_into(dht::NodeIndex i, std::size_t max_targets,
                              std::vector<core::ExpansionTarget>& out) const;

  /// Shortcuts may point at any other zone that is not already adjacent.
  bool eligible(dht::NodeIndex owner, std::size_t slot,
                dht::NodeIndex cand) const;

  /// Torus distance between zone centres, in units of 1e-9.
  std::uint64_t logical_distance(dht::NodeIndex a, dht::NodeIndex b) const {
    return static_cast<std::uint64_t>(center_distance(a, b) * 1e9);
  }

 private:
  friend class core::ElasticLinks<Overlay, CanNode>;
  /// Zone adjacency (slot 0) is mandatory symmetric structure.
  static constexpr std::size_t kFirstElasticSlot = kShortcutEntry;
  std::size_t slot_cap(std::size_t) const { return opts_.max_shortcuts; }
  double center_distance(dht::NodeIndex a, dht::NodeIndex b) const {
    return net::torus_distance(nodes_[a].zone.center(),
                               nodes_[b].zone.center());
  }
  /// Without a physical metric, a shortcut's physical distance is its
  /// zone-centre distance too.
  core::BackwardFinger backward_finger(dht::NodeIndex from,
                                       dht::NodeIndex to) const {
    return {from, logical_distance(from, to),
            phys_dist_ ? phys_dist_(from, to) : center_distance(from, to)};
  }
  /// Classic CAN departure with zone takeover through the split tree.
  void erase_member(dht::NodeIndex i);
  /// geometry.can.partition: `i` owns its split-tree leaf.
  /// geometry.can.adjacency: `i`'s adjacency entry holds exactly the live
  /// zones abutting its own, O(n).
  void audit_geometry(dht::NodeIndex i, core::AuditSink& sink) const;
  /// geometry.can.partition: the live zones' volumes sum to the torus.
  void audit_network_geometry(core::AuditSink& sink) const;

  /// Split-tree bookkeeping: every leaf is an alive node's zone.
  struct TreeNode {
    Zone zone;
    int parent = -1;
    int child[2] = {-1, -1};
    dht::NodeIndex owner = dht::kNoNode;  ///< valid iff leaf.
    bool is_leaf() const { return child[0] < 0; }
  };

  int leaf_containing(Point p) const;
  void split_leaf(int leaf, dht::NodeIndex newcomer, Point p);
  void rebuild_adjacency(dht::NodeIndex i);
  void drop_adjacency(dht::NodeIndex i);
  void set_zone(dht::NodeIndex i, const Zone& z, int leaf);
  /// Deepest leaf below `t` (pair donor search).
  int deepest_leaf(int t) const;

  CanOptions opts_;
  std::vector<TreeNode> tree_;
  std::vector<int> leaf_of_;  ///< node -> tree leaf index.
  int root_ = -1;
  /// Expansion host ranking, warm across adaptation sweeps.
  mutable std::vector<std::pair<double, dht::NodeIndex>> hosts_scratch_;
};

}  // namespace ert::can
