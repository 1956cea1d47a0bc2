// D1HT substrate: single-hop routing over an O(n)-state full routing table
// (Monnerat & Amorim), the degree-spectrum extreme opposite CAN's O(d).
//
// Every member keeps a full-table entry holding every other member, so a
// lookup resolves in one hop: the key's ring successor is read straight out
// of the local table. Membership events propagate through EDRA (the Event
// Detection and Report Algorithm); this model treats dissemination as
// instantaneous — a join installs the bidirectional full-table links with
// all current members atomically, which is EDRA's steady state between
// maintenance windows.
//
// The full mesh is mandatory symmetric structure, exactly like CAN's zone
// adjacency: it is not budget-governed, carries no backward fingers, and
// the invariant auditor checks its symmetry separately from the elastic
// links. ERT's elasticity operates on a second, successor-list entry —
// budget-governed redundancy links with backward fingers that expansion
// and periodic adaptation grow and shed, mirroring the Chord overlay's
// successor entry.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "dht/ring.h"
#include "dht/route_scratch.h"
#include "dht/routing_entry.h"
#include "dht/types.h"
#include "ert/elastic_links.h"

namespace ert::d1ht {

inline constexpr std::size_t kFullTableEntry = 0;
inline constexpr std::size_t kSuccessorEntry = 1;
inline constexpr std::size_t kNumEntries = 2;

struct D1htOptions {
  int bits = 16;  ///< ring size 2^bits.
  std::size_t successor_list = 4;  ///< base redundancy links built at join.
  /// Eligibility window and slot cap for the elastic successor entry: how
  /// far past a node the adopters it accepts may sit, in occupied
  /// positions.
  std::size_t successor_spread = 16;
};

/// Table entries: [0] full table, [1] successor list. Backward fingers and
/// the budget cover the elastic (successor) inlinks only.
struct D1htNode : core::ElasticNode {
  std::uint64_t id = 0;
};

class Overlay : public core::ElasticLinks<Overlay, D1htNode> {
 public:
  explicit Overlay(D1htOptions opts, PhysDistFn phys_dist = {});

  dht::NodeIndex add_node(std::uint64_t id, double capacity, int max_indegree,
                          double beta);
  dht::NodeIndex add_node_random(Rng& rng, double capacity, int max_indegree,
                                 double beta);

  /// Installs the bidirectional full-table links with every member whose
  /// own table is built (so each pair links exactly once, at the later
  /// join), plus the initial successor-list links.
  void build_table(dht::NodeIndex i);

  void repair_entry(dht::NodeIndex i, std::size_t slot);

  dht::NodeIndex responsible(std::uint64_t key) const;
  dht::RouteStepInfo route_step(dht::NodeIndex cur, std::uint64_t key,
                                dht::RouteScratch& scratch) const;
  std::uint64_t logical_distance_to_key(dht::NodeIndex a,
                                        std::uint64_t key) const;

  /// Hosts that could adopt `i` into their successor entry: i's ring
  /// predecessors within the spread window. Streams up to `max_targets`
  /// to `visit`.
  void for_each_expansion_target(dht::NodeIndex i, std::size_t max_targets,
                                 core::ExpansionVisitor visit) const;

  /// Elastic links go to the successor entry only; the full mesh never
  /// goes through link/unlink.
  bool eligible(dht::NodeIndex owner, std::size_t slot,
                dht::NodeIndex cand) const;

  const dht::RingDirectory& directory() const { return directory_; }

  void begin_bulk_insert(std::size_t expected) {
    if (expected > 0) nodes_.reserve(nodes_.size() + expected);
    directory_.begin_bulk(expected);
  }
  void end_bulk_insert() { directory_.end_bulk(); }

  int bits() const { return opts_.bits; }
  std::uint64_t ring_size() const { return std::uint64_t{1} << opts_.bits; }

  std::uint64_t logical_distance(dht::NodeIndex a, dht::NodeIndex b) const;

 private:
  friend class core::ElasticLinks<Overlay, D1htNode>;
  /// The full mesh (slot 0) is mandatory symmetric structure.
  static constexpr std::size_t kFirstElasticSlot = kSuccessorEntry;
  std::size_t slot_cap(std::size_t) const { return opts_.successor_spread; }
  /// EDRA announces a departure: every member drops its full-table entry.
  void drop_mandatory_links(dht::NodeIndex i);
  void erase_member(dht::NodeIndex i) { directory_.erase(nodes_[i].id); }
  /// geometry.d1ht.mesh: once built, `i`'s full table holds every other
  /// live built member, O(n).
  void audit_geometry(dht::NodeIndex i, core::AuditSink& sink) const;

  D1htOptions opts_;
  dht::RingDirectory directory_;
  mutable std::vector<std::uint64_t> ids_scratch_;
  mutable std::vector<std::uint64_t> elig_scratch_;
};

}  // namespace ert::d1ht
