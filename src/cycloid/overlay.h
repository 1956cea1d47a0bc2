// Cycloid overlay with elastic routing tables.
//
// This is the substrate the paper's evaluation runs on (Sec. 5, Table 2:
// dimension 8, n = 2048 = d * 2^d). The overlay manages:
//
//  * membership: a RingDirectory over linearized ids, join (random free id),
//    graceful leave, and silent failure (stale links remain, producing the
//    timeouts measured in Sec. 5.5);
//  * elastic routing tables: four entries per node (cubical, cyclic, inside
//    leaf, outside leaf) whose candidate sets grow and shrink;
//  * indegree mechanics from core::ElasticLinks (the acceptance bound
//    d_inf - d >= 1, backward fingers mirroring every inlink, expansion and
//    shedding), fed by this geometry's reverse-neighbor enumeration for the
//    indegree expansion algorithm (Sec. 3.2, Algorithm 1);
//  * routing: one `route_step` call per hop returning the entry the query
//    must leave through and its candidate set, preference-ordered so that
//    deterministic protocols (Base/NS/VS) take the front element while ERT
//    applies randomized forwarding over the whole set.
//
// Routing follows Cycloid's three phases. With current node (k, a) routing
// toward the owner (l, b) of the key:
//   ascending   k < h           : climb the local cycle via inside leaves
//   descending  k == h          : cubical link (flips bit h, k -> k-1)
//               k > h           : cyclic link (preserves bits >= k, k -> k-1)
//   cycle walk  a == b          : leaf-set walk to the owner
// where h is the most significant differing bit between a and b. Since each
// descending hop fixes the invariant h < k and decreases k, and the walk
// strictly decreases ring-position distance (with a directory-adjacent
// emergency step when an entry has no progress candidate), every lookup
// terminates; tests assert hop bounds.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "cycloid/id.h"
#include "dht/ring.h"
#include "dht/route_scratch.h"
#include "dht/routing_entry.h"
#include "dht/stable_order.h"
#include "dht/types.h"
#include "ert/elastic_links.h"

namespace ert::cycloid {

/// Entry-slot layout shared by every node.
inline constexpr std::size_t kCubicalEntry = 0;
inline constexpr std::size_t kCyclicEntry = 1;
inline constexpr std::size_t kInsideLeafEntry = 2;
inline constexpr std::size_t kOutsideLeafEntry = 3;
inline constexpr std::size_t kNumEntries = 4;
/// Sentinel entry index for emergency hops (no table entry involved).
inline constexpr std::size_t kNoEntry = kNumEntries;

/// How table-construction chooses among eligible neighbors.
enum class NeighborPolicy {
  kNearest,         ///< Base: plain Cycloid, nearest eligible id.
  kSpareIndegree,   ///< ERT: nearest eligible whose indegree bound has room.
  kCapacityBiased,  ///< NS [7]: highest-capacity eligible with room.
};

struct OverlayOptions {
  int dimension = 8;
  NeighborPolicy policy = NeighborPolicy::kNearest;
  /// Enforce d_inf - d >= 1 when creating inlinks (ERT, NS).
  bool enforce_indegree_bounds = false;
  /// How many cyclic / leaf candidates per direction the *base* table build
  /// creates (the original Cycloid uses 1 of each, outdegree 7 total).
  std::size_t base_fanout = 1;
};

/// Table entries: kCubicalEntry .. kOutsideLeafEntry. The normalized
/// capacity drives the NS bias.
struct OverlayNode : core::ElasticNode {
  CycloidId id;
};

struct RouteStep {
  bool arrived = false;
  /// Entry the query leaves through; kNoEntry for emergency hops.
  std::size_t entry_index = kNoEntry;
  /// Preference-ordered candidate next hops (front = deterministic choice).
  std::vector<dht::NodeIndex> candidates;
};

/// Per-query routing state carried with the message (like the overloaded
/// set A of Algorithm 4). The phase advances monotonically, which is what
/// makes termination provable: ascending strictly raises the cyclic index,
/// descending strictly lowers it, and the walk strictly reduces
/// ring-position distance to the owner.
struct RouteCtx {
  enum class Phase : std::uint8_t { kAscend, kDescend, kWalk };
  Phase phase = Phase::kAscend;
};

class Overlay : public core::ElasticLinks<Overlay, OverlayNode> {
 public:
  explicit Overlay(OverlayOptions opts, PhysDistFn phys_dist = {});

  // --- membership -----------------------------------------------------------

  /// Adds a node at `id` (must be free). `max_indegree`/`beta` configure the
  /// node's budget (pass a large bound for protocols that ignore it).
  dht::NodeIndex add_node(CycloidId id, double capacity, int max_indegree,
                          double beta);

  /// Adds a node at a uniformly random free id.
  dht::NodeIndex add_node_random(Rng& rng, double capacity, int max_indegree,
                                 double beta);

  /// Builds the basic routing table for `i` per the configured policy
  /// (join step 1). Also back-fills: nodes that could use `i` in an entry
  /// with no live candidate adopt it (keeps sparse networks routable).
  void build_table(dht::NodeIndex i, Rng& rng);

  /// Refills entry `slot` of `i` from the directory if it has no live
  /// candidate (used after purges and when shedding empties a host's slot).
  void repair_entry(dht::NodeIndex i, std::size_t slot);

  // --- routing ---------------------------------------------------------------

  dht::NodeIndex responsible(std::uint64_t key) const;

  /// One routing hop. `ctx` is the query's carried phase state; pass a
  /// fresh RouteCtx when the lookup starts.
  RouteStep route_step(dht::NodeIndex cur, std::uint64_t key,
                       RouteCtx& ctx) const;

  /// Allocation-free hop: identical routing decision, but the candidate
  /// set is written into `scratch.candidates` instead of a fresh vector.
  /// Steady state allocates nothing once the scratch buffers are warm.
  dht::RouteStepInfo route_step(dht::NodeIndex cur, std::uint64_t key,
                                RouteCtx& ctx,
                                dht::RouteScratch& scratch) const;

  // --- elasticity geometry ----------------------------------------------------

  /// Streams up to `max_targets` (host, slot) pairs that could take `i` as
  /// a routing-table neighbor to `visit`, in Algorithm 1's order: cubical
  /// hosts, cyclic hosts, then leaf-set hosts.
  void for_each_expansion_target(dht::NodeIndex i, std::size_t max_targets,
                                 core::ExpansionVisitor visit) const;

  /// True iff `cand` may legally sit in entry `slot` of `owner`.
  bool eligible(dht::NodeIndex owner, std::size_t slot,
                dht::NodeIndex cand) const;

  // --- introspection -----------------------------------------------------------

  const IdSpace& space() const { return space_; }
  const dht::RingDirectory& directory() const { return directory_; }

  /// Batched construction: between these calls, add_node stages directory
  /// inserts so the ring directory is built once from the sorted batch
  /// (O(n log n) total) instead of per-insert; `expected` pre-sizes the
  /// slot vector and staging buffers. Queries stay exact throughout.
  void begin_bulk_insert(std::size_t expected) {
    if (expected > 0) nodes_.reserve(nodes_.size() + expected);
    directory_.begin_bulk(expected);
    for (auto& cd : class_dirs_)
      cd.begin_bulk(expected / class_dirs_.size() + 1);
  }
  void end_bulk_insert() {
    directory_.end_bulk();
    for (auto& cd : class_dirs_) cd.end_bulk();
  }

  /// Logical distance between two nodes: ring distance of linear ids.
  std::uint64_t logical_distance(dht::NodeIndex a, dht::NodeIndex b) const;

  /// Logical distance from a node to a key's owner position.
  std::uint64_t logical_distance_to_key(dht::NodeIndex a,
                                        std::uint64_t key) const;

 private:
  friend class core::ElasticLinks<Overlay, OverlayNode>;
  /// A node keeps at least one inlink: its keys must stay reachable.
  int shed_limit(dht::NodeIndex i, int count) const {
    return std::min<int>(count,
                         static_cast<int>(nodes_.at(i).inlinks.size()) - 1);
  }
  /// The evicted host lost a candidate; if that leaves a slot with no live
  /// option its routing would degrade to the walk, so it repairs right away
  /// (the maintenance the paper's "ask backward fingers to delete" implies).
  void after_shed(dht::NodeIndex host) {
    if (!nodes_[host].alive) return;
    for (std::size_t slot = 0; slot < kNumEntries; ++slot)
      repair_entry(host, slot);
  }
  void erase_member(dht::NodeIndex i) {
    directory_.erase(lv(i));
    class_dirs_[static_cast<std::size_t>(nodes_[i].id.k)].erase(nodes_[i].id.a);
  }
  /// geometry.cycloid.eligible: every live candidate of `i` outside the
  /// outside-leaf entry (whose eligibility moves with the nearest occupied
  /// cycles) still fits its entry. geometry.cycloid.class_index: the
  /// directory and `i`'s per-class index both map `i`'s id to `i`.
  void audit_geometry(dht::NodeIndex i, core::AuditSink& sink) const;
  /// geometry.cycloid.class_index: the class index holds exactly as many
  /// ids as the directory, O(d).
  void audit_network_geometry(core::AuditSink& sink) const;

  std::uint64_t lv(dht::NodeIndex i) const { return space_.to_linear(nodes_[i].id); }

  /// All alive nodes eligible for entry `slot` of `owner`, preference-
  /// ordered per the configured policy. Returns a reference to warm member
  /// scratch (ec_out_), valid until the next call on this overlay.
  const std::vector<dht::NodeIndex>& eligible_candidates(dht::NodeIndex owner,
                                                         std::size_t slot) const;

  /// Nearest occupied cycles != `a` (up to `count` per side), into `out`.
  void nearby_cycles(std::uint64_t a, std::size_t count,
                     std::vector<std::uint64_t>& out) const;

  /// Alive members of cycle `a` (indices), ascending k, into `out`.
  void cycle_members(std::uint64_t a,
                     std::vector<dht::NodeIndex>& out) const;

  void order_by_policy(dht::NodeIndex owner,
                       std::vector<dht::NodeIndex>& cands) const;

  OverlayOptions opts_;
  IdSpace space_;
  dht::RingDirectory directory_;
  /// Secondary index: class_dirs_[k] holds the cubical indices `a` of the
  /// occupied ids with cyclic index k. Since linear id = a*d + k, a cubical
  /// block scan restricted to class k (the shape of every cubical/cyclic
  /// candidate query) walks exactly the matching ids here instead of
  /// filtering the d-times-denser main directory. Kept in lockstep with
  /// directory_ at every insert/erase; never consulted for routing state.
  std::vector<dht::RingDirectory> class_dirs_;
  // Warm scratch for the steady-state mutation paths (build back-fill,
  // repair, shed/grow), so the periodic adaptation sweep allocates nothing
  // once capacities settle. All are logically stackless temporaries;
  // mutable because several fill from const enumeration helpers.
  mutable std::vector<dht::NodeIndex> ec_out_;
  mutable std::vector<dht::NodeIndex> members_scratch_;
  mutable std::vector<std::uint64_t> cycles_scratch_;
  mutable std::vector<std::uint64_t> elig_cycles_;  ///< eligible() only.
  mutable std::vector<std::pair<std::uint32_t, dht::NodeIndex>> sort_scratch_;
  mutable std::vector<dht::NodeIndex> part_scratch_;
};

}  // namespace ert::cycloid
