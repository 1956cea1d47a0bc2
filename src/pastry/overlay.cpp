#include "pastry/overlay.h"

#include <algorithm>
#include <cassert>

#include "common/bitops.h"
#include "ert/elastic_links_impl.h"

namespace ert::pastry {

Overlay::Overlay(PastryOptions opts, PhysDistFn phys_dist)
    : ElasticLinks(std::move(phys_dist)),
      opts_(opts),
      directory_(std::uint64_t{1} << (opts.rows * opts.bits_per_digit)) {
  assert(opts.rows >= 2 && id_bits() <= 48);
}

int Overlay::digit_of(std::uint64_t id, int row) const {
  return static_cast<int>(
      digit_at(id, row, id_bits(), opts_.bits_per_digit));
}

int Overlay::shared_digits(std::uint64_t a, std::uint64_t b) const {
  return common_digit_prefix(a, b, id_bits(), opts_.bits_per_digit);
}

dht::NodeIndex Overlay::add_node(std::uint64_t id, double capacity,
                                 int max_indegree, double beta) {
  assert(!directory_.contains(id));
  PastryNode n;
  n.id = id;
  for (int r = 0; r < opts_.rows; ++r)
    for (int v = 0; v < base(); ++v)
      n.table.add_entry(dht::EntryKind::kPrefix);
  n.table.add_entry(dht::EntryKind::kLeaf);
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
  const PastryNode& o = nodes_.at(owner);
  const PastryNode& c = nodes_.at(cand);
  if (slot == leaf_entry()) {
    directory_.successors_of(o.id, opts_.leaf_half, elig_scratch_);
    if (std::find(elig_scratch_.begin(), elig_scratch_.end(), c.id) !=
        elig_scratch_.end())
      return true;
    directory_.predecessors_of(o.id, opts_.leaf_half, elig_scratch_);
    return std::find(elig_scratch_.begin(), elig_scratch_.end(), c.id) !=
           elig_scratch_.end();
  }
  const int row = static_cast<int>(slot) / base();
  const int col = static_cast<int>(slot) % base();
  if (digit_of(o.id, row) == col) return false;  // own-digit column unused
  return shared_digits(o.id, c.id) >= row && digit_of(c.id, row) == col;
}

void Overlay::build_table(dht::NodeIndex i) {
  PastryNode& n = nodes_.at(i);
  // Prefix entries: for each (row, digit) enumerate the occupied block that
  // shares `row` digits with us and has `digit` next; pick by proximity
  // (Pastry's PNS) when a distance function is installed, else id order.
  for (int r = 0; r < opts_.rows; ++r) {
    const int own = digit_of(n.id, r);
    const int shift = id_bits() - (r + 1) * opts_.bits_per_digit;
    const std::uint64_t prefix =
        n.id & ~low_mask(id_bits() - r * opts_.bits_per_digit);
    for (int v = 0; v < base(); ++v) {
      if (v == own) continue;
      const std::uint64_t lo =
          prefix | (static_cast<std::uint64_t>(v) << shift);
      const std::uint64_t hi = lo + (std::uint64_t{1} << shift);
      auto& cands = build_cands_;
      cands.clear();
      directory_.for_each_in_range(
          lo, hi,
          [&](std::uint64_t, dht::NodeIndex c) { cands.push_back(c); });
      if (cands.empty()) continue;
      if (phys_dist_) {
        std::stable_sort(cands.begin(), cands.end(),
                         [&](dht::NodeIndex x, dht::NodeIndex y) {
                           return phys_dist_(i, x) < phys_dist_(i, y);
                         });
      }
      bool linked = false;
      for (dht::NodeIndex c : cands) {
        if (link(i, prefix_slot(r, v), c, opts_.enforce_indegree_bounds)) {
          linked = true;
          break;
        }
      }
      if (!linked) link(i, prefix_slot(r, v), cands.front(), false);
    }
  }
  // Leaf set: nearest ids on both sides.
  directory_.successors_of(n.id, opts_.leaf_half, ids_scratch_);
  for (const std::uint64_t id : ids_scratch_)
    link(i, leaf_entry(), *directory_.owner_of(id), false);
  directory_.predecessors_of(n.id, opts_.leaf_half, ids_scratch_);
  for (const std::uint64_t id : ids_scratch_)
    link(i, leaf_entry(), *directory_.owner_of(id), false);
  n.table_built = true;
}

void Overlay::expansion_targets_into(
    dht::NodeIndex i, std::size_t max_targets,
    std::vector<core::ExpansionTarget>& out) const {
  // Hosts sharing exactly r digits with us can adopt us at row r (their
  // digit r differs from ours by construction). Walk r from deep prefixes
  // (nearby hosts) to shallow.
  out.clear();
  const PastryNode& me = nodes_.at(i);
  stamp_inlinks(i);
  for (int r = opts_.rows - 1; r >= 0 && out.size() < max_targets; --r) {
    const int shift = id_bits() - r * opts_.bits_per_digit;
    const std::uint64_t prefix =
        shift >= id_bits() ? 0 : me.id & ~low_mask(shift);
    const std::uint64_t block = std::uint64_t{1} << shift;
    directory_.for_each_in_range_until(
        prefix, prefix + block, [&](std::uint64_t id, dht::NodeIndex host) {
          if (out.size() >= max_targets) return false;
          if (host == i || stamped(host)) return true;
          if (shared_digits(me.id, id) != r) return true;  // diverge at r
          out.emplace_back(host, prefix_slot(r, digit_of(me.id, r)));
          return true;
        });
  }
  // Ring neighbors can adopt us into their leaf sets.
  directory_.successors_of(me.id, opts_.leaf_half, ids_scratch_);
  for (const std::uint64_t id : ids_scratch_) {
    if (out.size() >= max_targets) break;
    const dht::NodeIndex host = *directory_.owner_of(id);
    if (!stamped(host)) out.emplace_back(host, leaf_entry());
  }
  directory_.predecessors_of(me.id, opts_.leaf_half, ids_scratch_);
  for (const std::uint64_t id : ids_scratch_) {
    if (out.size() >= max_targets) break;
    const dht::NodeIndex host = *directory_.owner_of(id);
    if (!stamped(host)) out.emplace_back(host, leaf_entry());
  }
}

void Overlay::repair_entry(dht::NodeIndex i, std::size_t slot) {
  PastryNode& n = nodes_.at(i);
  if (has_live_candidate(i, slot) || directory_.size() < 2) return;
  if (slot == leaf_entry()) {
    directory_.successors_of(n.id, opts_.leaf_half, ids_scratch_);
    for (const std::uint64_t id : ids_scratch_)
      link(i, slot, *directory_.owner_of(id), false);
    directory_.predecessors_of(n.id, opts_.leaf_half, ids_scratch_);
    for (const std::uint64_t id : ids_scratch_)
      link(i, slot, *directory_.owner_of(id), false);
    return;
  }
  const int r = static_cast<int>(slot) / base();
  const int v = static_cast<int>(slot) % base();
  if (digit_of(n.id, r) == v) return;
  const int shift = id_bits() - (r + 1) * opts_.bits_per_digit;
  const std::uint64_t prefix =
      n.id & ~low_mask(id_bits() - r * opts_.bits_per_digit);
  const std::uint64_t lo = prefix | (static_cast<std::uint64_t>(v) << shift);
  bool done = false;
  directory_.for_each_in_range_until(
      lo, lo + (std::uint64_t{1} << shift),
      [&](std::uint64_t, dht::NodeIndex c) {
        done = link(i, slot, c, opts_.enforce_indegree_bounds);
        return !done;
      });
  if (done) return;
  directory_.for_each_in_range_until(
      lo, lo + (std::uint64_t{1} << shift),
      [&](std::uint64_t, dht::NodeIndex c) {
        return !link(i, slot, c, false);
      });
}

std::uint64_t Overlay::logical_distance_to_key(dht::NodeIndex a,
                                               std::uint64_t key) const {
  return dht::ring_distance(nodes_.at(a).id, key & (ring_size() - 1),
                            ring_size());
}

dht::NodeIndex Overlay::responsible(std::uint64_t key) const {
  // Numerically closest live node (Pastry's rule), ties to the successor.
  const std::uint64_t k = key & (ring_size() - 1);
  const dht::NodeIndex s = directory_.successor(k);
  const dht::NodeIndex p = directory_.predecessor(k);
  if (s == dht::kNoNode) return s;
  const std::uint64_t ds = dht::ring_distance(nodes_[s].id, k, ring_size());
  const std::uint64_t dp = dht::ring_distance(nodes_[p].id, k, ring_size());
  return ds <= dp ? s : p;
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
  const PastryNode& cn = nodes_.at(cur);
  const std::uint64_t target = nodes_.at(owner).id;
  const int shared = shared_digits(cn.id, target);

  // Primary rule: the prefix entry one digit deeper toward the target.
  if (shared < opts_.rows) {
    const std::size_t slot = prefix_slot(shared, digit_of(target, shared));
    const auto& entry = cn.table.entry(slot);
    if (!entry.empty()) {
      step.entry_index = slot;
      const auto src = entry.candidates(arena().cands);
      cands.assign(src.begin(), src.end());
      // All candidates share >= shared+1 digits with the target: strict
      // prefix progress. Prefer numerically closer ones.
      dht::stable_insertion_sort(cands.begin(), cands.end(),
                                 [&](dht::NodeIndex x, dht::NodeIndex y) {
                                   return dht::ring_distance(nodes_[x].id,
                                                             target,
                                                             ring_size()) <
                                          dht::ring_distance(nodes_[y].id,
                                                             target,
                                                             ring_size());
                                 });
      return step;
    }
  }
  // Fallback (Pastry's rule 2): any known node numerically closer to the
  // target that shares at least as long a prefix.
  const std::uint64_t my_dist =
      dht::ring_distance(cn.id, target, ring_size());
  std::size_t best_slot = cn.table.num_entries();
  std::uint64_t best_dist = my_dist;
  for (std::size_t slot = 0; slot < cn.table.num_entries(); ++slot) {
    for (const dht::NodeIndex32 c : cn.table.entry(slot).candidates(arena().cands)) {
      if (shared_digits(nodes_[c].id, target) < shared) continue;
      const std::uint64_t d =
          dht::ring_distance(nodes_[c].id, target, ring_size());
      if (d < best_dist) {
        best_dist = d;
        best_slot = slot;
      }
    }
  }
  if (best_slot < cn.table.num_entries()) {
    auto& ranked = scratch.ranked;
    ranked.clear();
    for (const dht::NodeIndex32 c :
         cn.table.entry(best_slot).candidates(arena().cands)) {
      if (shared_digits(nodes_[c].id, target) < shared) continue;
      const std::uint64_t d =
          dht::ring_distance(nodes_[c].id, target, ring_size());
      if (d < my_dist) ranked.emplace_back(d, c);
    }
    dht::stable_insertion_sort(
        ranked.begin(), ranked.end(),
        [](const auto& a, const auto& b) { return a < b; });
    step.entry_index = best_slot;
    for (const auto& [d, c] : ranked) cands.push_back(c);
    if (!cands.empty()) return step;
  }
  // Emergency: directory-adjacent hop toward the owner.
  const std::uint64_t next_id = directory_.step_toward(cn.id, target);
  step.entry_index = cn.table.num_entries();
  cands.push_back(*directory_.owner_of(next_id));
  return step;
}

}  // namespace ert::pastry

template class ert::core::ElasticLinks<ert::pastry::Overlay,
                                       ert::pastry::PastryNode>;
