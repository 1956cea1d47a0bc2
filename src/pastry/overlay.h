// Pastry/Tapestry substrate with elastic prefix-routing tables (Sec. 3.2,
// Fig. 3).
//
// Ids are `rows * bits_per_digit`-bit values read as base-2^b digit strings.
// Row r, column v of node j's table may hold any node sharing the first r
// digits with j whose digit r equals v (v != j's digit r) — "an entry at
// row m refers to a node whose ID shares node i's ID in the first m digits,
// but whose (m+1)th digit differs". Since each entry already admits many
// nodes, elasticity turns the single reference into a candidate set, and
// indegree expansion probes "(a_{d-1} ... a_{k-1} !a_k x...x)" hosts: every
// node sharing a prefix with i can adopt i at the row where their ids
// diverge. Tapestry's neighbor table is the same structure (suffix vs
// prefix orientation only), so this module stands in for both.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "dht/ring.h"
#include "dht/route_scratch.h"
#include "dht/routing_entry.h"
#include "dht/types.h"
#include "ert/elastic_links.h"

namespace ert::pastry {

struct PastryOptions {
  int rows = 8;            ///< digits per id.
  int bits_per_digit = 2;  ///< b; base = 2^b (Pastry default b = 4; 2 keeps
                           ///< test networks denser per column).
  std::size_t leaf_half = 4;    ///< leaf-set size per side.
  std::size_t entry_spread = 4; ///< max candidates per elastic entry.
  bool enforce_indegree_bounds = false;
};

/// Table entries: rows * (2^b) prefix slots (own-digit columns stay empty),
/// then one leaf entry. Slot (r, v) = r * 2^b + v.
struct PastryNode : core::ElasticNode {
  std::uint64_t id = 0;
};

struct RouteStep {
  bool arrived = false;
  std::size_t entry_index = 0;
  std::vector<dht::NodeIndex> candidates;
};

class Overlay : public core::ElasticLinks<Overlay, PastryNode> {
 public:
  explicit Overlay(PastryOptions opts, PhysDistFn phys_dist = {});

  dht::NodeIndex add_node(std::uint64_t id, double capacity, int max_indegree,
                          double beta);
  dht::NodeIndex add_node_random(Rng& rng, double capacity, int max_indegree,
                                 double beta);
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

  /// Hosts that could adopt `i`: those sharing exactly r digits with it
  /// (at row r, deep prefixes first), then its ring neighbours (leaf set).
  /// Streams up to `max_targets` to `visit`.
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

  int rows() const { return opts_.rows; }
  int base() const { return 1 << opts_.bits_per_digit; }
  int id_bits() const { return opts_.rows * opts_.bits_per_digit; }
  std::uint64_t ring_size() const { return std::uint64_t{1} << id_bits(); }
  std::size_t prefix_slot(int row, int digit) const {
    return static_cast<std::size_t>(row * base() + digit);
  }
  std::size_t leaf_entry() const {
    return static_cast<std::size_t>(opts_.rows * base());
  }
  int digit_of(std::uint64_t id, int row) const;
  int shared_digits(std::uint64_t a, std::uint64_t b) const;

  std::uint64_t logical_distance(dht::NodeIndex a, dht::NodeIndex b) const;

 private:
  friend class core::ElasticLinks<Overlay, PastryNode>;
  /// The leaf set is unbounded; a prefix entry holds entry_spread.
  std::size_t slot_cap(std::size_t slot) const {
    return slot == leaf_entry() ? ElasticLinks::slot_cap(slot)
                                : opts_.entry_spread;
  }
  void erase_member(dht::NodeIndex i) { directory_.erase(nodes_[i].id); }

  PastryOptions opts_;
  dht::RingDirectory directory_;
  // Warm scratch for the steady-state mutation paths (build, repair,
  // shed/grow). Two id buffers because callers iterate one while
  // link() -> eligible() fills the other.
  mutable std::vector<std::uint64_t> ids_scratch_;
  mutable std::vector<std::uint64_t> elig_scratch_;
  std::vector<dht::NodeIndex> build_cands_;
};

}  // namespace ert::pastry
