// The elastic routing table's link layer (Sec. 3), written once for every
// substrate.
//
// The paper defines ERT independently of geometry: every inlink a node
// accepts is mirrored by a backward finger and counted against the
// d_inf - d >= 1 budget (Sec. 3.2); indegree expansion asks reverse
// neighbours to adopt the node (Algorithm 1); periodic adaptation sheds the
// backward fingers with the longest logical, then physical, distance
// (Sec. 3.3). Its Chord (Fig. 1) and Pastry (Fig. 3) constructions differ
// only in which reverse-neighbour ids may point at a node. ElasticLinks
// owns that mechanism — the per-node table, inlinks and budget, the pooled
// link arena, the trace and meter hooks, the eviction and expansion scratch,
// link/unlink/expand/shed/purge and the per-node structural audit — and a
// substrate supplies only its geometry through static (CRTP) hooks:
//
//   required  eligible(owner, slot, cand)       may cand sit in owner's slot?
//             expansion_targets_into(i, k, out) up to k (host, slot) pairs
//                                               that could adopt i
//             logical_distance(a, b)            for the default finger metric
//             erase_member(i)                   leaves the directory (runs
//                                               once i is marked dead)
//   optional  kFirstElasticSlot      slots below it are mandatory symmetric
//                                    structure (CAN adjacency, the D1HT full
//                                    mesh): not budgeted, no backward fingers
//             slot_cap(slot)         candidates a slot may hold
//             make_room(from, slot)  frees a full slot (Kademlia's dead-
//                                    contact replacement); default refuses
//             backward_finger(f, t)  finger metrics (CAN: zone centres)
//             shed_limit(i, k)       caps one shed (Cycloid keeps one inlink)
//             after_shed(host)       runs per evicted host (Cycloid repairs)
//             drop_mandatory_links(i) graceful-leave teardown of mandatory
//                                    structure (D1HT's EDRA announcement)
//             audit_geometry(i, sink) per-node geometry.<sub>.* checks
//             audit_network_geometry(sink) whole-network ones, O(n)
//
// The template's members are defined in elastic_links_impl.h and
// instantiated explicitly once per overlay, next to its hooks.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "dht/routing_entry.h"
#include "dht/stamp_set.h"
#include "dht/types.h"
#include "ert/audit_sink.h"
#include "ert/indegree.h"

namespace ert::trace {
class TraceSink;
}

namespace ert::wire {
class ByteMeter;
}

namespace ert::core {

/// Per-node state every elastic overlay keeps; substrates extend it with
/// their id (ring id, Cycloid id, CAN zone).
struct ElasticNode {
  bool alive = false;
  bool table_built = false;  ///< has build_table run for this node?
  double capacity = 1.0;     ///< normalized capacity.
  dht::ElasticTable table;
  IndegreeBudget budget;     ///< counts elastic inlinks only.
  BackwardFingerList inlinks;
};

/// (host node, entry slot) pair the expansion algorithm may probe.
using ExpansionTarget = std::pair<dht::NodeIndex, std::size_t>;

template <typename Derived, typename Node>
class ElasticLinks {
 public:
  using PhysDistFn = std::function<double(dht::NodeIndex, dht::NodeIndex)>;

  /// Creates the link from -> to in `slot`, mirroring the backward finger
  /// and indegree. When `respect_budget`, fails if `to` has no spare
  /// indegree. Returns false if ineligible, duplicate, full or over budget.
  bool link(dht::NodeIndex from, std::size_t slot, dht::NodeIndex to,
            bool respect_budget);

  /// Removes the elastic link from -> to, fixing the backward finger and
  /// indegree of `to`.
  bool unlink(dht::NodeIndex from, dht::NodeIndex to);

  /// Indegree expansion (join step 2 / adaptation growth, Algorithm 1):
  /// probes the geometry's reverse neighbours until `want` new inlinks are
  /// gained or `max_probes` targets are exhausted. Returns the number
  /// gained.
  int expand_indegree(dht::NodeIndex i, int want, std::size_t max_probes);

  /// Sheds up to `count` inlinks, evicting the backward fingers with the
  /// longest logical (then physical) distance. Returns the number shed.
  int shed_indegree(dht::NodeIndex i, int count);

  /// Graceful departure: every elastic link to and from `i` is removed
  /// before `i` leaves the directory.
  void leave_graceful(dht::NodeIndex i);

  /// Silent failure: `i` leaves the directory but stale links to it remain
  /// in other tables until a timeout discovers them (Sec. 5.5).
  void fail(dht::NodeIndex i);

  /// Purges a discovered-dead neighbour from `at`'s table and backward
  /// fingers.
  void purge_dead(dht::NodeIndex at, dht::NodeIndex dead);

  /// Inlinks the load metrics see: mandatory structure plus elastic
  /// backward fingers.
  std::size_t indegree(dht::NodeIndex i) const;

  /// Reports every structural violation at live node `i` into `sink`:
  /// links.symmetry (each link mirrored; mandatory structure both ways,
  /// elastic links by a backward finger), indegree.budget-sync and the
  /// substrate's per-node geometry. Dead nodes are skipped, and stale links
  /// to dead peers are tolerated: silent failure leaves them until a
  /// timeout discovers them.
  void audit_node(dht::NodeIndex i, AuditSink& sink) const;

  /// The substrate's whole-network geometry checks, O(n): run once per
  /// sweep, next to audit_node on each audited node.
  void audit_network(AuditSink& sink) const {
    self().audit_network_geometry(sink);
  }

  const Node& node(dht::NodeIndex i) const { return nodes_.at(i); }
  Node& mutable_node(dht::NodeIndex i) { return nodes_.at(i); }

  /// Backing store for all pooled candidate / backward-finger sets
  /// (dht/slab.h); every table or inlink operation threads through it.
  LinkArena& arena() { return arena_; }
  const LinkArena& arena() const { return arena_; }
  std::size_t num_slots() const { return nodes_.size(); }
  std::size_t alive_count() const { return alive_; }

  double physical_distance(dht::NodeIndex a, dht::NodeIndex b) const {
    return phys_dist_ ? phys_dist_(a, b) : 0.0;
  }

  /// Installs a structured-trace sink for link.adopt / link.shed events
  /// from expand_indegree / shed_indegree; null (the default) disables
  /// emission. The sink only observes. See docs/TRACING.md.
  void set_trace(trace::TraceSink* sink) { trace_ = sink; }
  /// Attaches the byte meter (docs/WIRE.md); null detaches.
  void set_meter(wire::ByteMeter* meter) { meter_ = meter; }

 protected:
  explicit ElasticLinks(PhysDistFn phys_dist)
      : phys_dist_(std::move(phys_dist)) {}

  // Default geometry hooks; a substrate shadows the ones it needs.
  static constexpr std::size_t kFirstElasticSlot = 0;
  std::size_t slot_cap(std::size_t) const {
    return std::numeric_limits<std::size_t>::max();
  }
  bool make_room(dht::NodeIndex, std::size_t) { return false; }
  BackwardFinger backward_finger(dht::NodeIndex from, dht::NodeIndex to) const {
    return {from, self().logical_distance(from, to),
            physical_distance(from, to)};
  }
  int shed_limit(dht::NodeIndex, int count) const { return count; }
  void after_shed(dht::NodeIndex) {}
  void drop_mandatory_links(dht::NodeIndex) {}
  void audit_geometry(dht::NodeIndex, AuditSink&) const {}
  void audit_network_geometry(AuditSink&) const {}

  /// Appends `n` as a live node with a fresh budget; returns its index.
  dht::NodeIndex push_node(Node n, double capacity, int max_indegree,
                           double beta);
  /// Starts an inlink_seen_ epoch holding `i`'s backward fingers, so the
  /// expansion enumerators test "already points at i" in O(1): scanning the
  /// finger list per examined host made each adaptation sweep
  /// O(indegree^2) per node.
  void stamp_inlinks(dht::NodeIndex i) const;
  bool stamped(dht::NodeIndex host) const { return inlink_seen_.test(host); }
  /// True while entry `slot` of `i` still holds a live candidate; repair
  /// refills only entries that have none.
  bool has_live_candidate(dht::NodeIndex i, std::size_t slot) const;

  std::vector<Node> nodes_;
  PhysDistFn phys_dist_;
  /// Expansion-target scratch, free between expand/build calls.
  std::vector<ExpansionTarget> targets_scratch_;

 private:
  Derived& self() { return static_cast<Derived&>(*this); }
  const Derived& self() const { return static_cast<const Derived&>(*this); }
  /// The link-bookkeeping half of a graceful departure: drops every
  /// elastic outlink and inlink of `i`.
  void drop_links(dht::NodeIndex i);
  /// Marks `i` dead without touching any link.
  void mark_dead(dht::NodeIndex i);
  /// Removes `n` from the elastic entries of `t`; returns how many held it.
  std::size_t remove_elastic(dht::ElasticTable& t, dht::NodeIndex n);
  bool links_elastic(const dht::ElasticTable& t, dht::NodeIndex n) const;

  std::size_t alive_ = 0;
  trace::TraceSink* trace_ = nullptr;
  wire::ByteMeter* meter_ = nullptr;
  LinkArena arena_;
  mutable dht::StampSet inlink_seen_;
  // Warm eviction scratch so steady-state sheds allocate nothing.
  std::vector<BackwardFinger> evict_scratch_;
  std::vector<dht::NodeIndex> evict_out_;
};

}  // namespace ert::core
