#include "kademlia/overlay.h"

#include <algorithm>
#include <cassert>

#include "ert/elastic_links_impl.h"
#include "kademlia/kbucket.h"

namespace ert::kademlia {

Overlay::Overlay(KademliaOptions opts, PhysDistFn phys_dist)
    : ElasticLinks(std::move(phys_dist)),
      opts_(opts),
      directory_(std::uint64_t{1} << opts.bits) {
  assert(opts.bits >= 3 && opts.bits <= 48);
  assert(opts.bucket_size >= 1);
  assert(opts.bucket_spread >= opts.bucket_size);
}

dht::NodeIndex Overlay::add_node(std::uint64_t id, double capacity,
                                 int max_indegree, double beta) {
  assert(!directory_.contains(id));
  KademliaNode n;
  n.id = id;
  for (int m = 0; m < opts_.bits; ++m)
    n.table.add_entry(dht::EntryKind::kBucket);
  const dht::NodeIndex idx =
      push_node(std::move(n), capacity, max_indegree, beta);
  directory_.insert(id, idx);
  return idx;
}

dht::NodeIndex Overlay::add_node_random(Rng& rng, double capacity,
                                        int max_indegree, double beta) {
  for (;;) {
    const std::uint64_t id = rng.bits() & (ring_size() - 1);
    if (!directory_.contains(id))
      return add_node(id, capacity, max_indegree, beta);
  }
}

bool Overlay::eligible(dht::NodeIndex owner, std::size_t slot,
                       dht::NodeIndex cand) const {
  if (owner == cand || slot >= static_cast<std::size_t>(opts_.bits))
    return false;
  // Bucket m holds exactly the ids whose XOR distance to the owner has
  // msb m — an O(1) test, unlike the ring overlays' directory walks.
  return msb_diff(nodes_.at(owner).id, nodes_.at(cand).id) ==
         static_cast<int>(slot);
}

bool Overlay::make_room(dht::NodeIndex from, std::size_t slot) {
  auto& entry = nodes_[from].table.entry(slot);
  dht::NodeIndex dead = dht::kNoNode;
  for (const dht::NodeIndex32 c : entry.candidates(arena().cands)) {
    if (!nodes_[c].alive) {
      dead = c;
      break;
    }
  }
  if (dead == dht::kNoNode) return false;
  entry.remove(arena().cands, dead);
  nodes_[dead].inlinks.remove(arena().fingers, from);
  nodes_[dead].budget.on_inlink_removed();
  return true;
}

dht::NodeIndex Overlay::occupant_in(std::uint64_t base, std::uint64_t len,
                                    std::uint64_t from) const {
  if (directory_.empty()) return dht::kNoNode;
  std::uint64_t id = directory_.successor_id(from);
  if (id >= from && id < base + len) return *directory_.owner_of(id);
  if (from != base) {
    // Wrap within the interval: retry from its low end.
    id = directory_.successor_id(base);
    if (id >= base && id < from) return *directory_.owner_of(id);
  }
  return dht::kNoNode;
}

void Overlay::build_table(dht::NodeIndex i, Rng& rng) {
  KademliaNode& n = nodes_.at(i);
  const std::size_t k = opts_.bucket_size;
  // Contact discovery through the classic dynamically-split table: far
  // levels feed first, so overflow of the self-covering bucket drives the
  // same split sequence a live Kademlia join would.
  KBucketTable kb(n.id, opts_.bits, k);
  for (int m = opts_.bits - 1; m >= 0; --m) {
    const std::uint64_t len = std::uint64_t{1} << m;
    const std::uint64_t base = bucket_base(n.id, m);
    // Occupancy probe: up to k+1 occupants in id order.
    ids_scratch_.clear();
    directory_.for_each_in_range_until(
        base, base + len, [&](std::uint64_t id, dht::NodeIndex) {
          ids_scratch_.push_back(id);
          return ids_scratch_.size() <= k;
        });
    if (ids_scratch_.empty()) continue;
    if (ids_scratch_.size() <= k) {
      // Sparse level: every occupant becomes a contact. The analytical
      // model (tests/model_check_test.cpp) assumes the N <= k case holds
      // exactly, so this path must be exhaustive, not sampled.
      for (const std::uint64_t id : ids_scratch_) kb.insert(id);
      continue;
    }
    // Dense level: successor-of-random-point probes approximate a uniform
    // k-subset of the interval's occupants — the contact-distance
    // distribution the Roos-style recursion assumes. Id-order enumeration
    // would cluster contacts in id space and break it.
    const std::size_t budget = opts_.probe_factor * k;
    if (!opts_.capacity_biased) {
      for (std::size_t p = 0; p < budget; ++p) {
        const std::uint64_t off = rng.bits() & (len - 1);
        const dht::NodeIndex c = occupant_in(base, len, base + off);
        if (c != dht::kNoNode && c != i) kb.insert(nodes_[c].id);
      }
    } else {
      // NS policy: sample a larger pool, feed highest capacity first so
      // the bucket keeps the most capable contacts.
      cand_scratch_.clear();
      for (std::size_t p = 0; p < 2 * budget; ++p) {
        const std::uint64_t off = rng.bits() & (len - 1);
        const dht::NodeIndex c = occupant_in(base, len, base + off);
        if (c == dht::kNoNode || c == i) continue;
        if (std::find(cand_scratch_.begin(), cand_scratch_.end(), c) ==
            cand_scratch_.end())
          cand_scratch_.push_back(c);
      }
      std::sort(cand_scratch_.begin(), cand_scratch_.end(),
                [&](dht::NodeIndex a, dht::NodeIndex b) {
                  if (nodes_[a].capacity != nodes_[b].capacity)
                    return nodes_[a].capacity > nodes_[b].capacity;
                  return nodes_[a].id < nodes_[b].id;
                });
      for (const dht::NodeIndex c : cand_scratch_) kb.insert(nodes_[c].id);
    }
  }
  // Materialize the surviving contacts into the elastic entries.
  for (const KBucket& b : kb.buckets()) {
    for (const Contact& c : b.contacts) {
      const dht::NodeIndex idx = *directory_.owner_of(c.id);
      link(i, static_cast<std::size_t>(msb_diff(n.id, c.id)), idx,
           opts_.enforce_indegree_bounds);
    }
  }
  // Routability floor: at least one contact per occupied level, forced
  // past the budget if necessary (mirrors Chord's strict-successor
  // fallback — routability over bounds).
  for (int m = 0; m < opts_.bits; ++m) {
    if (!n.table.entry(static_cast<std::size_t>(m)).empty()) continue;
    const std::uint64_t len = std::uint64_t{1} << m;
    const std::uint64_t base = bucket_base(n.id, m);
    const dht::NodeIndex c = occupant_in(base, len, base);
    if (c != dht::kNoNode && c != i)
      link(i, static_cast<std::size_t>(m), c, false);
  }
  n.table_built = true;
}

void Overlay::for_each_expansion_target(dht::NodeIndex i,
                                        std::size_t max_targets,
                                        core::ExpansionVisitor visit) const {
  core::ExpansionStream out(visit, max_targets);
  if (!out.open()) return;
  const KademliaNode& me = nodes_.at(i);
  stamp_inlinks(i);
  // msb-of-XOR is symmetric: an occupant of my bucket-m interval has me in
  // *its* bucket m. Closest levels first — for those hosts my level is
  // their low, sparse bucket, the likeliest to have room.
  for (int m = 0; m < opts_.bits && out.open(); ++m) {
    const std::uint64_t len = std::uint64_t{1} << m;
    const std::uint64_t base = bucket_base(me.id, m);
    directory_.for_each_in_range_until(
        base, base + len, [&](std::uint64_t, dht::NodeIndex host) {
          if (host == i || stamped(host)) return true;
          return out.offer(host, static_cast<std::size_t>(m));
        });
  }
}

void Overlay::repair_entry(dht::NodeIndex i, std::size_t slot) {
  KademliaNode& n = nodes_.at(i);
  if (slot >= n.table.num_entries()) return;
  if (has_live_candidate(i, slot) || directory_.size() < 2) return;
  const int m = static_cast<int>(slot);
  const std::uint64_t len = std::uint64_t{1} << m;
  const std::uint64_t base = bucket_base(n.id, m);
  ids_scratch_.clear();
  directory_.for_each_in_range_until(
      base, base + len, [&](std::uint64_t id, dht::NodeIndex) {
        ids_scratch_.push_back(id);
        return ids_scratch_.size() < opts_.bucket_size;
      });
  bool linked = false;
  for (const std::uint64_t id : ids_scratch_)
    if (link(i, slot, *directory_.owner_of(id),
             opts_.enforce_indegree_bounds))
      linked = true;
  if (!linked && !ids_scratch_.empty())
    link(i, slot, *directory_.owner_of(ids_scratch_.front()), false);
}

std::uint64_t Overlay::logical_distance_to_key(dht::NodeIndex a,
                                               std::uint64_t key) const {
  return nodes_.at(a).id ^ (key & (ring_size() - 1));
}

std::uint64_t Overlay::logical_distance(dht::NodeIndex a,
                                        dht::NodeIndex b) const {
  return nodes_.at(a).id ^ nodes_.at(b).id;
}

bool Overlay::interval_occupied(std::uint64_t lo, std::uint64_t len) const {
  const std::uint64_t id = directory_.successor_id(lo);
  return id >= lo && id < lo + len;
}

dht::NodeIndex Overlay::xor_closest(std::uint64_t key) const {
  assert(!directory_.empty());
  // Bit descent: keep the aligned half matching the key's bit whenever it
  // is occupied. Invariant: the current interval holds >= 1 occupied id,
  // so the final size-1 interval is the exact XOR-minimum.
  std::uint64_t lo = 0;
  for (int b = opts_.bits - 1; b >= 0; --b) {
    const std::uint64_t half = std::uint64_t{1} << b;
    const std::uint64_t pref = lo | (key & half);
    if (interval_occupied(pref, half))
      lo = pref;
    else
      lo |= (key & half) ^ half;
  }
  return *directory_.owner_of(lo);
}

dht::NodeIndex Overlay::responsible(std::uint64_t key) const {
  return xor_closest(key & (ring_size() - 1));
}

dht::RouteStepInfo Overlay::route_step(dht::NodeIndex cur, std::uint64_t key,
                                       dht::RouteScratch& scratch) const {
  dht::RouteStepInfo step;
  step.entry_index = 0;
  auto& cands = scratch.candidates;
  cands.clear();
  const std::uint64_t k = key & (ring_size() - 1);
  const dht::NodeIndex owner = xor_closest(k);
  assert(owner != dht::kNoNode);
  if (owner == cur) {
    step.arrived = true;
    return step;
  }
  const KademliaNode& cn = nodes_.at(cur);
  const std::uint64_t my_d = cn.id ^ k;
  // Greedy on XOR distance to the key. The bucket at msb(my_d) covers
  // exactly the ids with distance < 2^msb, so it wins whenever nonempty;
  // when it is empty, lower buckets still make progress by clearing lower
  // set bits of the distance.
  std::size_t best_slot = cn.table.num_entries();
  std::uint64_t best_d = my_d;
  for (std::size_t slot = 0; slot < cn.table.num_entries(); ++slot) {
    for (const dht::NodeIndex32 c :
         cn.table.entry(slot).candidates(arena().cands)) {
      const std::uint64_t d = nodes_[c].id ^ k;
      if (d < best_d) {
        best_d = d;
        best_slot = slot;
      }
    }
  }
  if (best_slot < cn.table.num_entries()) {
    auto& ranked = scratch.ranked;
    ranked.clear();
    for (const dht::NodeIndex32 c :
         cn.table.entry(best_slot).candidates(arena().cands)) {
      const std::uint64_t d = nodes_[c].id ^ k;
      if (d >= my_d) continue;
      ranked.emplace_back(d, c);
    }
    dht::stable_insertion_sort(
        ranked.begin(), ranked.end(),
        [](const auto& a, const auto& b) { return a < b; });
    step.entry_index = best_slot;
    for (const auto& [d, c] : ranked) cands.push_back(c);
    return step;
  }
  // Emergency: every closer bucket is empty — hand the query straight to
  // the owner (the directory's global knowledge, the analog of Chord's
  // stabilized-successor hop). The next step arrives, so this terminates.
  step.entry_index = cn.table.num_entries();
  cands.push_back(owner);
  return step;
}

void Overlay::audit_geometry(dht::NodeIndex i, core::AuditSink& sink) const {
  const KademliaNode& n = nodes_[i];
  std::size_t misfiled = 0;
  for (std::size_t slot = 0; slot < n.table.num_entries(); ++slot)
    for (const dht::NodeIndex32 c :
         n.table.entry(slot).candidates(arena().cands))
      if (msb_diff(n.id, nodes_[c].id) != static_cast<int>(slot)) ++misfiled;
  sink.expect_eq("geometry.kademlia.bucket", i, static_cast<double>(misfiled),
                 0.0, "contact outside its msb-of-XOR bucket");
}

}  // namespace ert::kademlia

template class ert::core::ElasticLinks<ert::kademlia::Overlay,
                                       ert::kademlia::KademliaNode>;
