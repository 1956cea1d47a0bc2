// Chord substrate with the paper's loose-finger ERT variant (Sec. 3.2,
// Fig. 1).
//
// Classic Chord gives node i exactly one (m+1)-th finger: the successor of
// i + 2^m. The paper loosens the constraint so the (m+1)-th finger slot may
// hold a *set* of successors succeeding succ(i + 2^m) — that set is the
// elastic candidate list randomized forwarding picks from, and the slack is
// what lets node i ask the predecessors of (i - 2^m) to adopt it during
// indegree expansion ("node (1010-1-011) can send requests targeting
// ID in [1010-0-000, 1010-0-011] to take it as their 4th finger").
//
// The link mechanics (indegree budgets, backward fingers, expansion and
// shedding) come from core::ElasticLinks; this overlay supplies the loose-
// finger geometry and a route_step API returning candidate sets per hop.
// Routing is greedy clockwise: any candidate strictly closer (clockwise) to
// the owner qualifies, fingers give the O(log n) jumps, and the successor
// entry guarantees progress.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "dht/ring.h"
#include "dht/route_scratch.h"
#include "dht/routing_entry.h"
#include "dht/types.h"
#include "ert/elastic_links.h"

namespace ert::chord {

struct ChordOptions {
  int bits = 16;  ///< ring size 2^bits.
  /// Max candidates a loose finger slot may hold / how far past
  /// succ(i + 2^m) eligibility stretches, in occupied-node positions.
  std::size_t finger_spread = 4;
  std::size_t successor_list = 4;
  bool enforce_indegree_bounds = false;
};

/// Table entries: [0, bits) fingers, [bits] successors.
struct ChordNode : core::ElasticNode {
  std::uint64_t id = 0;
};

struct RouteStep {
  bool arrived = false;
  std::size_t entry_index = 0;
  std::vector<dht::NodeIndex> candidates;  ///< best progress first.
};

class Overlay : public core::ElasticLinks<Overlay, ChordNode> {
 public:
  explicit Overlay(ChordOptions opts, PhysDistFn phys_dist = {});

  dht::NodeIndex add_node(std::uint64_t id, double capacity, int max_indegree,
                          double beta);
  dht::NodeIndex add_node_random(Rng& rng, double capacity, int max_indegree,
                                 double beta);

  /// Builds fingers and the successor list for `i`.
  void build_table(dht::NodeIndex i);

  /// Refills `slot` of `i` from the directory if it has no live candidate.
  void repair_entry(dht::NodeIndex i, std::size_t slot);

  dht::NodeIndex responsible(std::uint64_t key) const;
  RouteStep route_step(dht::NodeIndex cur, std::uint64_t key) const;

  /// Allocation-free hop: identical routing decision, but the candidate
  /// set is written into `scratch.candidates` instead of a fresh vector.
  dht::RouteStepInfo route_step(dht::NodeIndex cur, std::uint64_t key,
                                dht::RouteScratch& scratch) const;

  /// Ring distance from a node to a key (for forwarding tie-breaks).
  std::uint64_t logical_distance_to_key(dht::NodeIndex a,
                                        std::uint64_t key) const;

  /// Hosts that could adopt `i` into a finger slot: for each m, the
  /// predecessors of (i - 2^m) within the spread window, plus predecessors
  /// for the successor-list slot. Streams up to `max_targets` to `visit`.
  void for_each_expansion_target(dht::NodeIndex i, std::size_t max_targets,
                                 core::ExpansionVisitor visit) const;

  bool eligible(dht::NodeIndex owner, std::size_t slot,
                dht::NodeIndex cand) const;

  const dht::RingDirectory& directory() const { return directory_; }

  /// Batched construction: between these calls, add_node stages directory
  /// inserts so the ring directory is built once from the sorted batch
  /// (O(n log n) total) instead of per-insert; `expected` pre-sizes the
  /// slot vector and staging buffers. Queries stay exact throughout.
  void begin_bulk_insert(std::size_t expected) {
    if (expected > 0) nodes_.reserve(nodes_.size() + expected);
    directory_.begin_bulk(expected);
  }
  void end_bulk_insert() { directory_.end_bulk(); }

  int bits() const { return opts_.bits; }
  std::uint64_t ring_size() const { return std::uint64_t{1} << opts_.bits; }
  std::size_t successor_entry() const {
    return static_cast<std::size_t>(opts_.bits);
  }

  std::uint64_t logical_distance(dht::NodeIndex a, dht::NodeIndex b) const;

 private:
  friend class core::ElasticLinks<Overlay, ChordNode>;
  /// The successor list is unbounded; a loose finger holds finger_spread.
  std::size_t slot_cap(std::size_t slot) const {
    return slot == successor_entry() ? ElasticLinks::slot_cap(slot)
                                     : opts_.finger_spread;
  }
  void erase_member(dht::NodeIndex i) { directory_.erase(nodes_[i].id); }

  ChordOptions opts_;
  dht::RingDirectory directory_;
  // Warm scratch for the steady-state mutation paths (repair, adaptation),
  // so shed/grow sweeps allocate nothing once capacities settle. Two id
  // buffers because build/repair iterate one while link() -> eligible()
  // fills the other.
  mutable std::vector<std::uint64_t> ids_scratch_;
  mutable std::vector<std::uint64_t> elig_scratch_;
};

}  // namespace ert::chord
