#include "d1ht/overlay.h"

#include <algorithm>
#include <cassert>

#include "ert/elastic_links_impl.h"

namespace ert::d1ht {

Overlay::Overlay(D1htOptions opts, PhysDistFn phys_dist)
    : ElasticLinks(std::move(phys_dist)),
      opts_(opts),
      directory_(std::uint64_t{1} << opts.bits) {
  assert(opts.bits >= 3 && opts.bits <= 48);
  assert(opts.successor_list >= 1);
  assert(opts.successor_spread >= opts.successor_list);
}

dht::NodeIndex Overlay::add_node(std::uint64_t id, double capacity,
                                 int max_indegree, double beta) {
  assert(!directory_.contains(id));
  D1htNode n;
  n.id = id;
  n.table.add_entry(dht::EntryKind::kFullTable);
  n.table.add_entry(dht::EntryKind::kSuccessor);
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
  if (owner == cand || slot != kSuccessorEntry) return false;
  const D1htNode& o = nodes_.at(owner);
  const D1htNode& c = nodes_.at(cand);
  directory_.successors_of(o.id, opts_.successor_spread, elig_scratch_);
  return std::find(elig_scratch_.begin(), elig_scratch_.end(), c.id) !=
         elig_scratch_.end();
}

void Overlay::build_table(dht::NodeIndex i) {
  D1htNode& n = nodes_.at(i);
  // EDRA modeled as instantaneous: the join reaches every current member
  // and both sides install the full-table link atomically. Only peers
  // whose own table is built are linked, so each pair links exactly once
  // (at the later join) — which is what lets the entries use the
  // duplicate-scan-free append.
  auto& full = n.table.entry(kFullTableEntry);
  for (dht::NodeIndex j = 0; j < nodes_.size(); ++j) {
    if (j == i) continue;
    D1htNode& peer = nodes_[j];
    if (!peer.alive || !peer.table_built) continue;
    full.append(arena().cands, j);
    peer.table.entry(kFullTableEntry).append(arena().cands, i);
  }
  // Initial successor-list redundancy: the elastic entry ERT operates on.
  directory_.successors_of(n.id, opts_.successor_list, ids_scratch_);
  for (const std::uint64_t id : ids_scratch_)
    link(i, kSuccessorEntry, *directory_.owner_of(id), false);
  n.table_built = true;
}

void Overlay::expansion_targets_into(
    dht::NodeIndex i, std::size_t max_targets,
    std::vector<core::ExpansionTarget>& out) const {
  out.clear();
  if (max_targets == 0) return;
  const D1htNode& me = nodes_.at(i);
  stamp_inlinks(i);
  // Ring predecessors within the spread window can adopt us into their
  // successor entries.
  directory_.predecessors_of(me.id, opts_.successor_spread, ids_scratch_);
  for (const std::uint64_t id : ids_scratch_) {
    if (out.size() >= max_targets) break;
    const dht::NodeIndex host = *directory_.owner_of(id);
    if (host == i || stamped(host)) continue;
    out.emplace_back(host, kSuccessorEntry);
  }
}

void Overlay::drop_mandatory_links(dht::NodeIndex i) {
  // Symmetry makes our own full-table entry the exact list of holders.
  auto& full = nodes_[i].table.entry(kFullTableEntry);
  for (const dht::NodeIndex32 c : full.candidates(arena().cands))
    nodes_[c].table.entry(kFullTableEntry).remove(arena().cands, i);
  full.release(arena().cands);
}

void Overlay::repair_entry(dht::NodeIndex i, std::size_t slot) {
  // The full table needs no repair beyond purging discovered failures; the
  // successor entry refills from the directory like Chord's.
  if (slot != kSuccessorEntry) return;
  D1htNode& n = nodes_.at(i);
  if (has_live_candidate(i, slot) || directory_.size() < 2) return;
  directory_.successors_of(n.id, opts_.successor_list, ids_scratch_);
  for (const std::uint64_t id : ids_scratch_)
    link(i, kSuccessorEntry, *directory_.owner_of(id), false);
}

std::uint64_t Overlay::logical_distance_to_key(dht::NodeIndex a,
                                               std::uint64_t key) const {
  return dht::ring_distance(nodes_.at(a).id, key & (ring_size() - 1),
                            ring_size());
}

std::uint64_t Overlay::logical_distance(dht::NodeIndex a,
                                        dht::NodeIndex b) const {
  return dht::ring_distance(nodes_.at(a).id, nodes_.at(b).id, ring_size());
}

dht::NodeIndex Overlay::responsible(std::uint64_t key) const {
  return directory_.successor(key & (ring_size() - 1));
}

dht::RouteStepInfo Overlay::route_step(dht::NodeIndex cur, std::uint64_t key,
                                       dht::RouteScratch& scratch) const {
  dht::RouteStepInfo step;
  step.entry_index = kFullTableEntry;
  auto& cands = scratch.candidates;
  cands.clear();
  const std::uint64_t k = key & (ring_size() - 1);
  const dht::NodeIndex owner = directory_.successor(k);
  assert(owner != dht::kNoNode);
  if (owner == cur) {
    step.arrived = true;
    return step;
  }
  const D1htNode& cn = nodes_.at(cur);
  // The single-hop path: the key's owner is read straight out of the full
  // table. With instantaneous EDRA every alive member is present, so this
  // is the only path a churn-free run ever takes.
  if (cn.table.entry(kFullTableEntry).contains(arena().cands, owner)) {
    cands.push_back(owner);
    return step;
  }
  // Degraded path (transient churn states): clockwise progress through
  // the successor entry.
  const std::uint64_t my_gap =
      dht::clockwise(cn.id, nodes_.at(owner).id, ring_size());
  auto& ranked = scratch.ranked;
  ranked.clear();
  for (const dht::NodeIndex32 c :
       cn.table.entry(kSuccessorEntry).candidates(arena().cands)) {
    const std::uint64_t step_fwd =
        dht::clockwise(cn.id, nodes_[c].id, ring_size());
    if (step_fwd == 0 || step_fwd > my_gap) continue;
    ranked.emplace_back(my_gap - step_fwd, c);
  }
  if (!ranked.empty()) {
    dht::stable_insertion_sort(
        ranked.begin(), ranked.end(),
        [](const auto& a, const auto& b) { return a < b; });
    step.entry_index = kSuccessorEntry;
    for (const auto& [g, c] : ranked) cands.push_back(c);
    return step;
  }
  // Emergency: stabilized ring successor.
  const dht::NodeIndex succ =
      directory_.successor((cn.id + 1) & (ring_size() - 1));
  assert(succ != dht::kNoNode && succ != cur);
  step.entry_index = kNumEntries;
  cands.push_back(succ);
  return step;
}

void Overlay::audit_geometry(dht::NodeIndex i, core::AuditSink& sink) const {
  if (!nodes_[i].table_built) return;
  std::size_t built_alive = 0;
  for (const D1htNode& n : nodes_)
    if (n.alive && n.table_built) ++built_alive;
  std::size_t alive_peers = 0;
  for (const dht::NodeIndex32 c :
       nodes_[i].table.entry(kFullTableEntry).candidates(arena().cands))
    if (nodes_[c].alive) ++alive_peers;
  sink.expect_eq("geometry.d1ht.mesh", i, static_cast<double>(alive_peers),
                 static_cast<double>(built_alive - 1),
                 "full table misses a live member");
}

}  // namespace ert::d1ht

template class ert::core::ElasticLinks<ert::d1ht::Overlay,
                                       ert::d1ht::D1htNode>;
