#include "harness/substrate.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "can/overlay.h"
#include "chord/overlay.h"
#include "cycloid/overlay.h"
#include "d1ht/overlay.h"
#include "harness/experiment.h"
#include "kademlia/overlay.h"
#include "pastry/overlay.h"

namespace ert::harness {
namespace {

using dht::NodeIndex;

/// The elastic half of every adapter, written once over the overlay's
/// core::ElasticLinks interface (ert/elastic_links.h).
template <typename OverlayT>
class ElasticSubstrate : public SubstrateOps {
 public:
  void begin_bulk_join(std::size_t expected_nodes) override {
    if constexpr (requires { overlay_->begin_bulk_insert(expected_nodes); })
      overlay_->begin_bulk_insert(expected_nodes);
  }
  void end_bulk_join() override {
    if constexpr (requires { overlay_->end_bulk_insert(); })
      overlay_->end_bulk_insert();
  }
  void fail(NodeIndex i) override { overlay_->fail(i); }
  bool alive(NodeIndex i) const override { return overlay_->node(i).alive; }
  std::size_t num_slots() const override { return overlay_->num_slots(); }

  int expand_indegree(NodeIndex i, int want, std::size_t probes) override {
    return overlay_->expand_indegree(i, want, probes);
  }
  int shed_indegree(NodeIndex i, int count) override {
    return overlay_->shed_indegree(i, count);
  }
  core::IndegreeBudget& budget(NodeIndex i) override {
    return overlay_->mutable_node(i).budget;
  }
  std::size_t indegree(NodeIndex i) const override {
    return overlay_->indegree(i);
  }
  std::size_t outdegree(NodeIndex i) const override {
    return overlay_->node(i).table.outdegree();
  }
  void purge_dead(NodeIndex at, NodeIndex dead) override {
    overlay_->purge_dead(at, dead);
  }

  void audit_node(NodeIndex i, core::AuditSink& sink) const override {
    overlay_->audit_node(i, sink);
  }
  void audit_network(core::AuditSink& sink) const override {
    overlay_->audit_network(sink);
  }

  dht::RoutingEntry* entry(NodeIndex i, std::size_t slot) override {
    if (slot == kNoSlot) return nullptr;
    return &overlay_->mutable_node(i).table.entry(slot);
  }

  void set_trace(trace::TraceSink* sink) override {
    overlay_->set_trace(sink);
  }
  void set_meter(wire::ByteMeter* meter) override {
    overlay_->set_meter(meter);
  }

 protected:
  /// Emergency hops (entry index past the table) leave through no slot.
  HopStep hop(NodeIndex cur, const dht::RouteStepInfo& s) const {
    HopStep h;
    h.arrived = s.arrived;
    h.slot = s.entry_index < overlay_->node(cur).table.num_entries()
                 ? s.entry_index
                 : kNoSlot;
    return h;
  }

  std::unique_ptr<OverlayT> overlay_;
};

/// Chord, Pastry, Kademlia and D1HT: random ids on a 2^bits ring and
/// stateless routing.
template <typename OverlayT>
class RingSubstrate : public ElasticSubstrate<OverlayT> {
 protected:
  using ElasticSubstrate<OverlayT>::overlay_;

 public:
  NodeIndex add_node(Rng& rng, double capacity, int max_indegree,
                     double beta) override {
    return overlay_->add_node_random(rng, capacity, max_indegree, beta);
  }
  void build_table(NodeIndex i, Rng& rng) override {
    if constexpr (requires { overlay_->build_table(i, rng); })
      overlay_->build_table(i, rng);
    else
      overlay_->build_table(i);
  }
  bool id_space_full() const override {
    return overlay_->directory().size() >= overlay_->ring_size();
  }
  void repair_entry(NodeIndex i, std::size_t slot) override {
    if (slot != kNoSlot) overlay_->repair_entry(i, slot);
  }

  std::uint64_t key_space() const override { return overlay_->ring_size(); }
  NodeIndex responsible(std::uint64_t key) const override {
    return overlay_->responsible(key);
  }
  HopStep route_step(NodeIndex cur, std::uint64_t key,
                     SubstrateOps::RouteCtxBlob&,
                     dht::RouteScratch& scratch) override {
    return this->hop(cur, overlay_->route_step(cur, key, scratch));
  }
  std::uint64_t logical_distance_to_key(NodeIndex a,
                                        std::uint64_t key) const override {
    return overlay_->logical_distance_to_key(a, key);
  }
  NodeIndex live_successor(NodeIndex i) const override {
    return overlay_->directory().successor(
        (overlay_->node(i).id + 1) & (overlay_->ring_size() - 1));
  }
  NodeIndex node_at_or_after(std::uint64_t lv) const override {
    return overlay_->directory().successor(lv & (overlay_->ring_size() - 1));
  }
};

class CycloidSubstrate final : public ElasticSubstrate<cycloid::Overlay> {
 public:
  CycloidSubstrate(const SimParams& params, bool capacity_biased,
                   bool enforce_bounds, std::size_t ids_needed,
                   PhysDistFn phys) {
    cycloid::OverlayOptions opts;
    opts.dimension = std::max(params.dimension, fit_dimension(ids_needed));
    opts.enforce_indegree_bounds = enforce_bounds;
    opts.policy = capacity_biased ? cycloid::NeighborPolicy::kCapacityBiased
                  : enforce_bounds ? cycloid::NeighborPolicy::kSpareIndegree
                                   : cycloid::NeighborPolicy::kNearest;
    overlay_ = std::make_unique<cycloid::Overlay>(opts, std::move(phys));
  }

  NodeIndex add_node(Rng& rng, double capacity, int max_indegree,
                     double beta) override {
    return overlay_->add_node_random(rng, capacity, max_indegree, beta);
  }
  void build_table(NodeIndex i, Rng& rng) override {
    overlay_->build_table(i, rng);
  }
  bool id_space_full() const override {
    return overlay_->directory().size() >= overlay_->space().size();
  }
  void repair_entry(NodeIndex i, std::size_t slot) override {
    if (slot < cycloid::kNumEntries) overlay_->repair_entry(i, slot);
  }

  std::uint64_t key_space() const override { return overlay_->space().size(); }
  NodeIndex responsible(std::uint64_t key) const override {
    return overlay_->responsible(key);
  }
  HopStep route_step(NodeIndex cur, std::uint64_t key, RouteCtxBlob& blob,
                     dht::RouteScratch& scratch) override {
    // The caller-held blob carries the monotone routing phase. Its
    // zero-initialized state must decode as a fresh context; verified by
    // the static_asserts (kAscend is the first, zero-valued enumerator).
    static_assert(sizeof(cycloid::RouteCtx) <= sizeof(RouteCtxBlob::bytes));
    static_assert(static_cast<std::uint8_t>(
                      cycloid::RouteCtx::Phase::kAscend) == 0);
    cycloid::RouteCtx ctx;
    std::memcpy(&ctx, blob.bytes, sizeof(ctx));
    const dht::RouteStepInfo s = overlay_->route_step(cur, key, ctx, scratch);
    std::memcpy(blob.bytes, &ctx, sizeof(ctx));
    return hop(cur, s);
  }
  std::uint64_t logical_distance_to_key(NodeIndex a,
                                        std::uint64_t key) const override {
    return overlay_->logical_distance_to_key(a, key);
  }
  NodeIndex live_successor(NodeIndex i) const override {
    const std::uint64_t lv =
        overlay_->space().to_linear(overlay_->node(i).id);
    return overlay_->directory().successor(lv);
  }
  NodeIndex node_at_or_after(std::uint64_t lv) const override {
    return overlay_->directory().successor(lv % overlay_->space().size());
  }
  cycloid::Overlay* as_cycloid() override { return overlay_.get(); }
};

class ChordSubstrate final : public RingSubstrate<chord::Overlay> {
 public:
  ChordSubstrate(bool enforce_bounds, std::size_t ids_needed,
                 PhysDistFn phys) {
    chord::ChordOptions opts;
    opts.enforce_indegree_bounds = enforce_bounds;
    // Ring large enough that random ids rarely collide.
    opts.bits = substrate_ring_bits(ids_needed);
    overlay_ = std::make_unique<chord::Overlay>(opts, std::move(phys));
  }
};

class PastrySubstrate final : public RingSubstrate<pastry::Overlay> {
 public:
  PastrySubstrate(bool enforce_bounds, std::size_t ids_needed,
                  PhysDistFn phys) {
    pastry::PastryOptions opts;
    opts.enforce_indegree_bounds = enforce_bounds;
    const int bits = substrate_ring_bits(ids_needed);
    opts.rows = (bits + opts.bits_per_digit - 1) / opts.bits_per_digit;
    overlay_ = std::make_unique<pastry::Overlay>(opts, std::move(phys));
  }
};

class KademliaSubstrate final : public RingSubstrate<kademlia::Overlay> {
 public:
  KademliaSubstrate(bool capacity_biased, bool enforce_bounds,
                    std::size_t ids_needed, PhysDistFn phys) {
    kademlia::KademliaOptions opts;
    opts.enforce_indegree_bounds = enforce_bounds;
    opts.capacity_biased = capacity_biased;
    opts.bits = substrate_ring_bits(ids_needed);
    overlay_ = std::make_unique<kademlia::Overlay>(opts, std::move(phys));
  }

  NodeIndex live_successor(NodeIndex i) const override {
    // Kademlia's hand-off target is by ownership metric: the alive node
    // XOR-closest to the dead node's id.
    return overlay_->responsible(overlay_->node(i).id);
  }
};

class D1htSubstrate final : public RingSubstrate<d1ht::Overlay> {
 public:
  D1htSubstrate(std::size_t ids_needed, PhysDistFn phys) {
    d1ht::D1htOptions opts;
    opts.bits = substrate_ring_bits(ids_needed);
    overlay_ = std::make_unique<d1ht::Overlay>(opts, std::move(phys));
  }
};

class CanSubstrate final : public ElasticSubstrate<can::Overlay> {
 public:
  explicit CanSubstrate(PhysDistFn phys) {
    overlay_ = std::make_unique<can::Overlay>(can::CanOptions{},
                                              std::move(phys));
  }

  /// Keys hash onto the unit torus: low/high 16 bits become x/y.
  static can::Point to_point(std::uint64_t key) {
    return can::Point{static_cast<double>(key & 0xFFFF) / 65536.0,
                      static_cast<double>((key >> 16) & 0xFFFF) / 65536.0};
  }

  NodeIndex add_node(Rng& rng, double capacity, int max_indegree,
                     double beta) override {
    return overlay_->add_node(rng, capacity, max_indegree, beta);
  }
  void build_table(NodeIndex, Rng&) override {
    // Adjacency is built by the join split; shortcuts come from the
    // engine's initial indegree assignment (expand_indegree).
  }
  bool id_space_full() const override { return false; }
  void repair_entry(NodeIndex, std::size_t) override {}

  std::uint64_t key_space() const override { return std::uint64_t{1} << 32; }
  NodeIndex responsible(std::uint64_t key) const override {
    return overlay_->responsible(to_point(key));
  }
  HopStep route_step(NodeIndex cur, std::uint64_t key, RouteCtxBlob&,
                     dht::RouteScratch& scratch) override {
    return hop(cur, overlay_->route_step(cur, to_point(key), scratch));
  }
  std::uint64_t logical_distance_to_key(NodeIndex a,
                                        std::uint64_t key) const override {
    return static_cast<std::uint64_t>(
        can::zone_distance(overlay_->node(a).zone, to_point(key)) * 1e9);
  }
  NodeIndex live_successor(NodeIndex i) const override {
    // Owner of the (departed) node's zone center after takeover.
    return overlay_->responsible(overlay_->node(i).zone.center());
  }
  NodeIndex node_at_or_after(std::uint64_t lv) const override {
    return overlay_->responsible(to_point(lv & 0xFFFFFFFFull));
  }
};

}  // namespace

int substrate_ring_bits(std::size_t ids_needed) {
  int bits = 12;
  while ((std::uint64_t{1} << bits) < 16 * ids_needed) ++bits;
  return bits;
}

std::unique_ptr<SubstrateOps> make_substrate(SubstrateKind kind,
                                             const SimParams& params,
                                             bool capacity_biased,
                                             bool enforce_bounds,
                                             std::size_t ids_needed,
                                             PhysDistFn phys) {
  switch (kind) {
    case SubstrateKind::kCycloid:
      return std::make_unique<CycloidSubstrate>(
          params, capacity_biased, enforce_bounds, ids_needed, std::move(phys));
    case SubstrateKind::kChord:
      assert(!capacity_biased && "NS policy is Cycloid-only in this build");
      return std::make_unique<ChordSubstrate>(enforce_bounds, ids_needed,
                                              std::move(phys));
    case SubstrateKind::kPastry:
      assert(!capacity_biased && "NS policy is Cycloid-only in this build");
      return std::make_unique<PastrySubstrate>(enforce_bounds, ids_needed,
                                               std::move(phys));
    case SubstrateKind::kCan:
      assert(!capacity_biased && "NS policy is Cycloid-only in this build");
      return std::make_unique<CanSubstrate>(std::move(phys));
    case SubstrateKind::kKademlia:
      return std::make_unique<KademliaSubstrate>(
          capacity_biased, enforce_bounds, ids_needed, std::move(phys));
    case SubstrateKind::kD1ht:
      assert(!capacity_biased &&
             "NS is undefined on a full mesh: no selection freedom");
      return std::make_unique<D1htSubstrate>(ids_needed, std::move(phys));
  }
  return nullptr;
}

}  // namespace ert::harness
