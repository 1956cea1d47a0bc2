// Substrate abstraction for the experiment engine.
//
// The paper evaluates ERT on Cycloid but stresses the mechanism "can also
// be applied to other DHT networks" (Sec. 5), giving the Chord and
// Pastry/Tapestry constructions explicitly (Figs. 1 and 3). This interface
// lets the same experiment engine — queueing, workloads, adaptation,
// forwarding, churn, metrics — run on any of the three overlays, so every
// figure can be regenerated per substrate.
//
// One adapter instance wraps one overlay instance. Per-query routing state
// (Cycloid's monotone phase) travels with the query in a caller-held
// RouteCtxBlob, keeping the engine substrate-agnostic.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>

#include "common/config.h"
#include "common/rng.h"
#include "dht/route_scratch.h"
#include "dht/routing_entry.h"
#include "dht/types.h"
#include "ert/elastic_links.h"
#include "ert/indegree.h"

namespace ert::cycloid {
class Overlay;
}

namespace ert::trace {
class TraceSink;
}

namespace ert::wire {
class ByteMeter;
}

namespace ert::harness {

enum class SubstrateKind { kCycloid, kChord, kPastry, kCan, kKademlia, kD1ht };

constexpr const char* to_string(SubstrateKind k) {
  switch (k) {
    case SubstrateKind::kCycloid:  return "Cycloid";
    case SubstrateKind::kChord:    return "Chord";
    case SubstrateKind::kPastry:   return "Pastry";
    case SubstrateKind::kCan:      return "CAN";
    case SubstrateKind::kKademlia: return "Kademlia";
    case SubstrateKind::kD1ht:     return "D1HT";
  }
  return "?";
}

inline constexpr std::size_t kNoSlot = std::numeric_limits<std::size_t>::max();

/// One routing hop, substrate-agnostic. The candidate set is not carried
/// here: route_step writes it into the caller-owned RouteScratch, where it
/// stays valid (and mutable, for in-place live filtering) until the next
/// route_step call on the same scratch.
struct HopStep {
  bool arrived = false;
  /// Index of the table entry the query leaves through, or kNoSlot for
  /// emergency (non-table) hops.
  std::size_t slot = kNoSlot;
};

using core::LinkAuditCounts;

class SubstrateOps {
 public:
  virtual ~SubstrateOps() = default;

  // --- membership ---
  virtual dht::NodeIndex add_node(Rng& rng, double capacity, int max_indegree,
                                  double beta) = 0;
  /// Batched initial construction: between begin_bulk_join and
  /// end_bulk_join, add_node calls may stage their ring-directory inserts
  /// so the directory is built once from the sorted batch — O(n log n)
  /// for n joins instead of n independent ordered inserts. Membership
  /// queries stay exact throughout, so the Rng draw sequence (and thus
  /// every metric) is identical to unbatched joins. Substrates without a
  /// batched path ignore the calls.
  virtual void begin_bulk_join(std::size_t expected_nodes) {
    (void)expected_nodes;
  }
  virtual void end_bulk_join() {}
  virtual void build_table(dht::NodeIndex i, Rng& rng) = 0;
  virtual bool id_space_full() const = 0;
  virtual void fail(dht::NodeIndex i) = 0;
  virtual bool alive(dht::NodeIndex i) const = 0;
  virtual std::size_t num_slots() const = 0;

  // --- elasticity ---
  virtual int expand_indegree(dht::NodeIndex i, int want,
                              std::size_t max_probes) = 0;
  virtual int shed_indegree(dht::NodeIndex i, int count) = 0;
  virtual core::IndegreeBudget& budget(dht::NodeIndex i) = 0;
  virtual std::size_t indegree(dht::NodeIndex i) const = 0;
  virtual std::size_t outdegree(dht::NodeIndex i) const = 0;

  // --- maintenance ---
  virtual void purge_dead(dht::NodeIndex at, dht::NodeIndex dead) = 0;
  virtual void repair_entry(dht::NodeIndex i, std::size_t slot) = 0;

  // --- auditing ---
  /// Counts `i`'s elastic inlinks and any broken link mirrors (see
  /// LinkAuditCounts). Read-only; used by the invariant auditor.
  virtual LinkAuditCounts audit_links(dht::NodeIndex i) const = 0;
  /// Runs the overlay's own check_invariants() (assert-based; active in
  /// Debug and sanitizer builds, a no-op under NDEBUG).
  virtual void check_structure() const = 0;

  // --- routing ---
  virtual std::uint64_t key_space() const = 0;
  virtual dht::NodeIndex responsible(std::uint64_t key) const = 0;
  /// Per-query routing context, held by the caller and carried with the
  /// query (it migrates between shards with it). Zero-initialized bytes
  /// mean "query just started".
  struct RouteCtxBlob {
    unsigned char bytes[8] = {};
  };
  /// One routing hop. Stateless substrates ignore `ctx`; Cycloid stores its
  /// monotone routing phase in it. Writes the candidate set into
  /// `scratch.candidates` (allocation-free in steady state).
  virtual HopStep route_step(dht::NodeIndex cur, std::uint64_t key,
                             RouteCtxBlob& ctx,
                             dht::RouteScratch& scratch) = 0;
  virtual std::uint64_t logical_distance_to_key(dht::NodeIndex a,
                                                std::uint64_t key) const = 0;
  /// Mutable access to a table entry (memory slot for Algorithm 4);
  /// nullptr when `slot` is kNoSlot.
  virtual dht::RoutingEntry* entry(dht::NodeIndex i, std::size_t slot) = 0;
  /// Live ring successor of (possibly dead) node `i` — the hand-off target
  /// when a node fails with queries queued.
  virtual dht::NodeIndex live_successor(dht::NodeIndex i) const = 0;
  /// A uniformly random id owned by an alive node near linear position
  /// `lv` (for impulse source selection).
  virtual dht::NodeIndex node_at_or_after(std::uint64_t lv) const = 0;

  /// Non-null when this substrate is the Cycloid overlay (virtual servers
  /// are only defined there).
  virtual cycloid::Overlay* as_cycloid() { return nullptr; }

  /// Forwards a structured-trace sink to the wrapped overlay so its ERT
  /// elasticity path can emit link.adopt / link.shed records; null detaches.
  virtual void set_trace(trace::TraceSink* sink) = 0;
  /// Attaches the byte meter (docs/WIRE.md); null detaches.
  virtual void set_meter(wire::ByteMeter* meter) = 0;
};

using PhysDistFn = std::function<double(dht::NodeIndex, dht::NodeIndex)>;

/// Ring sizing shared by the ring-id substrates (Chord, Pastry, Kademlia,
/// D1HT): the smallest power-of-two id space at least 16x oversized for
/// `ids_needed` nodes, so random ids rarely collide. Exposed so the
/// analytical hop-count models (harness/model_check.h) run with the same
/// `bits` the overlay actually got.
int substrate_ring_bits(std::size_t ids_needed);

/// Factory. `capacity_biased` / `enforce_bounds` mirror the per-protocol
/// table policies; `phys` supplies physical distances for proximity
/// tie-breaks.
std::unique_ptr<SubstrateOps> make_substrate(SubstrateKind kind,
                                             const SimParams& params,
                                             bool capacity_biased,
                                             bool enforce_bounds,
                                             std::size_t ids_needed,
                                             PhysDistFn phys);

}  // namespace ert::harness
