#include "chord/overlay.h"

#include <algorithm>
#include <cassert>

#include "ert/elastic_links_impl.h"

namespace ert::chord {

Overlay::Overlay(ChordOptions opts, PhysDistFn phys_dist)
    : ElasticLinks(std::move(phys_dist)),
      opts_(opts),
      directory_(std::uint64_t{1} << opts.bits) {
  assert(opts.bits >= 3 && opts.bits <= 48);
}

dht::NodeIndex Overlay::add_node(std::uint64_t id, double capacity,
                                 int max_indegree, double beta) {
  assert(!directory_.contains(id));
  ChordNode n;
  n.id = id;
  for (int m = 0; m < opts_.bits; ++m)
    n.table.add_entry(dht::EntryKind::kFinger);
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
  if (owner == cand) return false;
  const ChordNode& o = nodes_.at(owner);
  const ChordNode& c = nodes_.at(cand);
  if (slot == successor_entry()) {
    // Successor list: cand among the first `successor_list` occupied ids
    // after o (positions, so churn keeps the rule meaningful).
    directory_.successors_of(o.id, opts_.successor_list, elig_scratch_);
    return std::find(elig_scratch_.begin(), elig_scratch_.end(), c.id) !=
           elig_scratch_.end();
  }
  const int m = static_cast<int>(slot);
  // Loose finger rule (Fig. 1b): cand is one of the first `finger_spread`
  // successors at or after o.id + 2^m.
  const std::uint64_t start = (o.id + (std::uint64_t{1} << m)) & (ring_size() - 1);
  if (directory_.contains(start) && c.id == start) return true;
  directory_.successors_of(start == 0 ? ring_size() - 1 : start - 1,
                           opts_.finger_spread, elig_scratch_);
  return std::find(elig_scratch_.begin(), elig_scratch_.end(), c.id) !=
         elig_scratch_.end();
}

void Overlay::build_table(dht::NodeIndex i) {
  ChordNode& n = nodes_.at(i);
  // Successor list first: low fingers usually coincide with the nearest
  // successors, and the one-role-per-pair rule would otherwise leave the
  // successor entry empty (fingers then diversify via the loose window).
  directory_.successors_of(n.id, opts_.successor_list, ids_scratch_);
  for (const std::uint64_t id : ids_scratch_) {
    link(i, successor_entry(), *directory_.owner_of(id), false);
  }
  // Fingers: for each m link the successor of id + 2^m (the strict-Chord
  // choice) when it accepts; otherwise walk the loose window.
  for (int m = 0; m < opts_.bits; ++m) {
    const std::uint64_t start =
        (n.id + (std::uint64_t{1} << m)) & (ring_size() - 1);
    bool linked = false;
    std::uint64_t probe = start == 0 ? ring_size() - 1 : start - 1;
    directory_.successors_of(probe, opts_.finger_spread, ids_scratch_);
    for (const std::uint64_t id : ids_scratch_) {
      const dht::NodeIndex cand = *directory_.owner_of(id);
      if (link(i, static_cast<std::size_t>(m), cand,
               opts_.enforce_indegree_bounds)) {
        linked = true;
        break;
      }
    }
    if (!linked) {
      // Routability over bounds: force the strict successor if possible.
      if (const dht::NodeIndex cand = directory_.successor(start);
          cand != dht::kNoNode && cand != i)
        link(i, static_cast<std::size_t>(m), cand, false);
    }
  }
  n.table_built = true;
}

void Overlay::for_each_expansion_target(dht::NodeIndex i,
                                        std::size_t max_targets,
                                        core::ExpansionVisitor visit) const {
  core::ExpansionStream out(visit, max_targets);
  if (!out.open()) return;
  const ChordNode& me = nodes_.at(i);
  stamp_inlinks(i);
  for (int m = opts_.bits - 1; m >= 0; --m) {
    // Hosts j with succ(j + 2^m) near i: j in the predecessors of i - 2^m.
    const std::uint64_t base =
        (me.id - (std::uint64_t{1} << m)) & (ring_size() - 1);
    directory_.predecessors_of((base + 1) & (ring_size() - 1),
                               opts_.finger_spread, ids_scratch_);
    for (const std::uint64_t id : ids_scratch_) {
      const dht::NodeIndex host = *directory_.owner_of(id);
      if (host == i || stamped(host)) continue;
      if (!out.offer(host, static_cast<std::size_t>(m))) return;
    }
  }
  // Predecessors can adopt us into their successor lists.
  directory_.predecessors_of(me.id, opts_.successor_list, ids_scratch_);
  for (const std::uint64_t id : ids_scratch_) {
    const dht::NodeIndex host = *directory_.owner_of(id);
    if (host == i || stamped(host)) continue;
    if (!out.offer(host, successor_entry())) return;
  }
}

void Overlay::repair_entry(dht::NodeIndex i, std::size_t slot) {
  ChordNode& n = nodes_.at(i);
  if (has_live_candidate(i, slot) || directory_.size() < 2) return;
  if (slot == successor_entry()) {
    directory_.successors_of(n.id, opts_.successor_list, ids_scratch_);
    for (const std::uint64_t id : ids_scratch_)
      link(i, slot, *directory_.owner_of(id), false);
    return;
  }
  const int m = static_cast<int>(slot);
  const std::uint64_t start =
      (n.id + (std::uint64_t{1} << m)) & (ring_size() - 1);
  directory_.successors_of(start == 0 ? ring_size() - 1 : start - 1,
                           opts_.finger_spread, ids_scratch_);
  for (const std::uint64_t id : ids_scratch_) {
    if (link(i, slot, *directory_.owner_of(id),
             opts_.enforce_indegree_bounds))
      return;
  }
  if (const dht::NodeIndex cand = directory_.successor(start);
      cand != dht::kNoNode && cand != i)
    link(i, slot, cand, false);
}

std::uint64_t Overlay::logical_distance_to_key(dht::NodeIndex a,
                                               std::uint64_t key) const {
  return dht::ring_distance(nodes_.at(a).id, key & (ring_size() - 1),
                            ring_size());
}

dht::NodeIndex Overlay::responsible(std::uint64_t key) const {
  return directory_.successor(key & (ring_size() - 1));
}

std::uint64_t Overlay::logical_distance(dht::NodeIndex a,
                                        dht::NodeIndex b) const {
  return dht::ring_distance(nodes_.at(a).id, nodes_.at(b).id, ring_size());
}

RouteStep Overlay::route_step(dht::NodeIndex cur, std::uint64_t key) const {
  dht::RouteScratch scratch;
  const dht::RouteStepInfo info = route_step(cur, key, scratch);
  RouteStep step;
  step.arrived = info.arrived;
  step.entry_index = info.entry_index;
  step.candidates = std::move(scratch.candidates);
  return step;
}

dht::RouteStepInfo Overlay::route_step(dht::NodeIndex cur, std::uint64_t key,
                                       dht::RouteScratch& scratch) const {
  dht::RouteStepInfo step;
  step.entry_index = 0;
  auto& cands = scratch.candidates;
  cands.clear();
  const dht::NodeIndex owner = responsible(key);
  assert(owner != dht::kNoNode);
  if (owner == cur) {
    step.arrived = true;
    return step;
  }
  const ChordNode& cn = nodes_.at(cur);
  const std::uint64_t target = nodes_.at(owner).id;
  const std::uint64_t my_gap = dht::clockwise(cn.id, target, ring_size());
  // Greedy: the slot whose best candidate lands clockwise-closest to the
  // owner without overshooting.
  std::size_t best_slot = cn.table.num_entries();
  std::uint64_t best_gap = my_gap;
  for (std::size_t slot = 0; slot < cn.table.num_entries(); ++slot) {
    for (const dht::NodeIndex32 c : cn.table.entry(slot).candidates(arena().cands)) {
      const std::uint64_t step_fwd =
          dht::clockwise(cn.id, nodes_[c].id, ring_size());
      if (step_fwd == 0 || step_fwd > my_gap) continue;  // overshoot / self
      const std::uint64_t gap = my_gap - step_fwd;
      if (gap < best_gap) {
        best_gap = gap;
        best_slot = slot;
      }
    }
  }
  if (best_slot < cn.table.num_entries()) {
    auto& ranked = scratch.ranked;
    ranked.clear();
    for (const dht::NodeIndex32 c :
         cn.table.entry(best_slot).candidates(arena().cands)) {
      const std::uint64_t step_fwd =
          dht::clockwise(cn.id, nodes_[c].id, ring_size());
      if (step_fwd == 0 || step_fwd > my_gap) continue;
      ranked.emplace_back(my_gap - step_fwd, c);
    }
    dht::stable_insertion_sort(
        ranked.begin(), ranked.end(),
        [](const auto& a, const auto& b) { return a < b; });
    step.entry_index = best_slot;
    for (const auto& [g, c] : ranked) cands.push_back(c);
    return step;
  }
  // Emergency: directory successor (stabilized ring link).
  const dht::NodeIndex succ = directory_.successor((cn.id + 1) & (ring_size() - 1));
  assert(succ != dht::kNoNode && succ != cur);
  step.entry_index = cn.table.num_entries();
  cands.push_back(succ);
  return step;
}

}  // namespace ert::chord

template class ert::core::ElasticLinks<ert::chord::Overlay,
                                       ert::chord::ChordNode>;
