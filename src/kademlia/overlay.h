// Kademlia substrate: XOR-metric k-buckets as elastic routing entries.
//
// Node i's routing slot m holds contacts whose ids first differ from i's at
// bit m — exactly the ids within XOR distance [2^m, 2^(m+1)) of i, a
// contiguous aligned interval of the id space. Kademlia keeps up to k
// redundant contacts per bucket, which is precisely the paper's elastic
// candidate set: routing picks among them, indegree expansion asks interval
// occupants to adopt extra contacts, and periodic adaptation sheds the
// farthest ones. Because msb-of-XOR is symmetric (i is in j's bucket m iff
// j is in i's bucket m), expansion-target enumeration is a plain interval
// scan over the ring directory.
//
// Join-time contact discovery runs through the classic dynamically-split
// KBucketTable (kbucket.h): interval occupants are fed level by level —
// sparse levels exhaustively, dense levels by uniform random probing so the
// stored contacts approximate a uniform k-subset of each interval (the
// assumption behind Roos et al.'s analytical hop-count recursion that
// tests/model_check_test.cpp validates against) — and the surviving
// contacts are materialized into the elastic entries.
//
// Routing is greedy on XOR distance to the key: the bucket at msb(cur ^ key)
// covers exactly the ids closer than 2^msb to the key, so any contact there
// strictly shrinks the distance; lower buckets clear lower set bits when it
// is empty. The indegree-budget, backward-finger, and shed/expand mechanics
// come from core::ElasticLinks, as for every substrate.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitops.h"
#include "common/rng.h"
#include "dht/ring.h"
#include "dht/route_scratch.h"
#include "dht/routing_entry.h"
#include "dht/types.h"
#include "ert/elastic_links.h"

namespace ert::kademlia {

struct KademliaOptions {
  int bits = 16;               ///< id space 2^bits.
  std::size_t bucket_size = 4; ///< k: redundant contacts per bucket.
  /// Elastic cap per bucket: join-time discovery fills buckets to k, but
  /// indegree expansion may grow a candidate set past it up to this bound
  /// (the ERT elasticity; mirrors Chord's finger_spread).
  std::size_t bucket_spread = 16;
  /// Random probes per wanted contact when sampling dense intervals.
  std::size_t probe_factor = 4;
  bool enforce_indegree_bounds = false;
  /// NS policy: rank sampled contacts by capacity instead of uniformly.
  bool capacity_biased = false;
};

/// Table entries: [0, bits) k-buckets.
struct KademliaNode : core::ElasticNode {
  std::uint64_t id = 0;
};

class Overlay : public core::ElasticLinks<Overlay, KademliaNode> {
 public:
  explicit Overlay(KademliaOptions opts, PhysDistFn phys_dist = {});

  dht::NodeIndex add_node(std::uint64_t id, double capacity, int max_indegree,
                          double beta);
  dht::NodeIndex add_node_random(Rng& rng, double capacity, int max_indegree,
                                 double beta);

  /// Discovers contacts through a KBucketTable and materializes them into
  /// the elastic entries. `rng` drives the dense-interval sampling.
  void build_table(dht::NodeIndex i, Rng& rng);

  /// Refills bucket `slot` of `i` from the directory if it has no live
  /// contact left.
  void repair_entry(dht::NodeIndex i, std::size_t slot);

  /// The node whose id minimizes XOR distance to `key` (Kademlia's
  /// ownership rule), found by bit descent over the ring directory.
  dht::NodeIndex responsible(std::uint64_t key) const;

  /// Allocation-free hop: candidate set written into `scratch.candidates`,
  /// best XOR progress first.
  dht::RouteStepInfo route_step(dht::NodeIndex cur, std::uint64_t key,
                                dht::RouteScratch& scratch) const;

  std::uint64_t logical_distance_to_key(dht::NodeIndex a,
                                        std::uint64_t key) const;

  /// Hosts that could adopt `i` as an extra bucket contact: the occupants
  /// of i's bucket intervals, closest levels first (their low buckets are
  /// the sparse ones with room). Streams up to `max_targets` to `visit`.
  void for_each_expansion_target(dht::NodeIndex i, std::size_t max_targets,
                                 core::ExpansionVisitor visit) const;

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
  friend class core::ElasticLinks<Overlay, KademliaNode>;
  std::size_t slot_cap(std::size_t) const { return opts_.bucket_spread; }
  /// Kademlia's replacement rule at the elastic cap: a full bucket drops a
  /// contact only once it has stopped responding; live long-standing
  /// contacts are never displaced by newcomers.
  bool make_room(dht::NodeIndex from, std::size_t slot);
  void erase_member(dht::NodeIndex i) { directory_.erase(nodes_[i].id); }
  /// geometry.kademlia.bucket: every contact of `i`, stale ones included,
  /// sits in its msb-of-XOR bucket. Computed from the ids, not through
  /// eligible(), so a loosened eligibility rule cannot hide a misfiled
  /// contact.
  void audit_geometry(dht::NodeIndex i, core::AuditSink& sink) const;

  /// Aligned base of `me`'s bucket-m interval: the 2^m ids whose XOR
  /// distance to `me` has msb m.
  std::uint64_t bucket_base(std::uint64_t me, int m) const {
    return flip_bit(me, m) & ~low_mask(m) & low_mask(opts_.bits);
  }
  /// First occupied id in [from, base+len), wrapping to [base, from);
  /// kNoNode when the interval is empty.
  dht::NodeIndex occupant_in(std::uint64_t base, std::uint64_t len,
                             std::uint64_t from) const;
  bool interval_occupied(std::uint64_t lo, std::uint64_t len) const;
  dht::NodeIndex xor_closest(std::uint64_t key) const;

  KademliaOptions opts_;
  dht::RingDirectory directory_;
  // Warm scratch for the mutation paths (build, repair, adaptation) so the
  // steady-state sweeps allocate nothing once capacities settle.
  mutable std::vector<std::uint64_t> ids_scratch_;
  std::vector<dht::NodeIndex> cand_scratch_;
};

}  // namespace ert::kademlia
