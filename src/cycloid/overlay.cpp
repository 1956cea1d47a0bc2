#include "cycloid/overlay.h"

#include <algorithm>
#include <array>
#include <cassert>

#include "ert/elastic_links_impl.h"

namespace ert::cycloid {

Overlay::Overlay(OverlayOptions opts, PhysDistFn phys_dist)
    : ElasticLinks(std::move(phys_dist)),
      opts_(opts),
      space_(opts.dimension),
      directory_(space_.size()),
      class_dirs_(static_cast<std::size_t>(opts.dimension),
                  dht::RingDirectory(space_.num_cycles())) {}

dht::NodeIndex Overlay::add_node(CycloidId id, double capacity,
                                 int max_indegree, double beta) {
  const std::uint64_t v = space_.to_linear(id);
  assert(!directory_.contains(v) && "Cycloid id already occupied");
  OverlayNode n;
  n.id = id;
  n.table.add_entry(dht::EntryKind::kCubical);
  n.table.add_entry(dht::EntryKind::kCyclic);
  n.table.add_entry(dht::EntryKind::kInsideLeaf);
  n.table.add_entry(dht::EntryKind::kOutsideLeaf);
  const dht::NodeIndex idx =
      push_node(std::move(n), capacity, max_indegree, beta);
  directory_.insert(v, idx);
  class_dirs_[static_cast<std::size_t>(id.k)].insert(id.a, idx);
  return idx;
}

dht::NodeIndex Overlay::add_node_random(Rng& rng, double capacity,
                                        int max_indegree, double beta) {
  const std::uint64_t total = space_.size();
  assert(directory_.size() < total && "id space is full");
  // Random probing; past 64 misses (very dense occupancy) scan forward from
  // a random start for the first free id.
  for (int attempt = 0; attempt < 64; ++attempt) {
    const auto v = static_cast<std::uint64_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(total) - 1));
    if (!directory_.contains(v))
      return add_node(space_.from_linear(v), capacity, max_indegree, beta);
  }
  auto v = static_cast<std::uint64_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(total) - 1));
  while (directory_.contains(v)) v = (v + 1) % total;
  return add_node(space_.from_linear(v), capacity, max_indegree, beta);
}

void Overlay::cycle_members(std::uint64_t a,
                            std::vector<dht::NodeIndex>& out) const {
  out.clear();
  const auto d = static_cast<std::uint64_t>(space_.dimension());
  // Cycle a owns the linear block [a*d, a*d + d); one ordered scan visits
  // its occupied ids in ascending cyclic index, same as probing each id.
  directory_.for_each_in_range(
      a * d, a * d + d,
      [&](std::uint64_t, dht::NodeIndex owner) { out.push_back(owner); });
}

void Overlay::nearby_cycles(std::uint64_t a, std::size_t count,
                            std::vector<std::uint64_t>& out) const {
  out.clear();
  const auto d = static_cast<std::uint64_t>(space_.dimension());
  const std::uint64_t total = space_.size();
  if (directory_.empty()) return;
  // Succeeding side: first occupied id past the end of each found cycle.
  std::uint64_t probe = (a * d + d) % total;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t id = directory_.successor_id(probe);
    const std::uint64_t cyc = id / d;
    if (cyc == a) break;  // wrapped around to our own cycle
    if (std::find(out.begin(), out.end(), cyc) != out.end()) break;
    out.push_back(cyc);
    probe = (cyc * d + d) % total;
  }
  // Preceding side: last occupied id before the start of each found cycle.
  probe = a * d;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t id =
        directory_.predecessor_id(probe == 0 ? total - 1 : probe - 1) ;
    const std::uint64_t cyc = id / d;
    if (cyc == a) break;
    if (std::find(out.begin(), out.end(), cyc) != out.end()) break;
    out.push_back(cyc);
    probe = cyc * d;
  }
}

bool Overlay::eligible(dht::NodeIndex owner, std::size_t slot,
                       dht::NodeIndex cand) const {
  if (owner == cand) return false;
  const CycloidId& o = nodes_.at(owner).id;
  const CycloidId& c = nodes_.at(cand).id;
  switch (slot) {
    case kCubicalEntry:
      return space_.cubical_ok(o, c);
    case kCyclicEntry:
      return space_.cyclic_ok(o, c);
    case kInsideLeafEntry:
      return space_.inside_leaf_ok(o, c);
    case kOutsideLeafEntry: {
      if (o.a == c.a) return false;
      // Dynamic eligibility: candidate must live within the nearest
      // occupied cycles on either side (window 2 tolerates races with
      // concurrent joins between link creation and checks).
      nearby_cycles(o.a, 2, elig_cycles_);
      return std::find(elig_cycles_.begin(), elig_cycles_.end(), c.a) !=
             elig_cycles_.end();
    }
    default:
      return false;
  }
}

namespace {

/// Enumerates occupied ids of the form (k_sel, pattern with `free_bits` low
/// bits free), returning node indices. `class_dir` is the overlay's index
/// of cyclic class k_sel keyed by cubical index, so ascending keys are
/// ascending `low` — the same order a probe of each candidate id would
/// produce — and the scan visits exactly the matching ids, never the other
/// d - 1 classes interleaved with them in the main directory.
void collect_matching(const dht::RingDirectory& class_dir,
                      std::uint64_t pattern, int free_bits,
                      std::vector<dht::NodeIndex>& out) {
  out.clear();
  const std::uint64_t base = pattern & ~low_mask(free_bits);
  const std::uint64_t span = std::uint64_t{1} << free_bits;
  out.reserve(span / 4);
  class_dir.for_each_in_range(
      base, base + span,
      [&](std::uint64_t, dht::NodeIndex owner) { out.push_back(owner); });
}

}  // namespace

const std::vector<dht::NodeIndex>& Overlay::eligible_candidates(
    dht::NodeIndex owner, std::size_t slot) const {
  const OverlayNode& o = nodes_.at(owner);
  std::vector<dht::NodeIndex>& cands = ec_out_;
  cands.clear();
  switch (slot) {
    case kCubicalEntry: {
      if (o.id.k < 1) break;
      const std::uint64_t pattern = flip_bit(o.id.a, o.id.k);
      collect_matching(class_dirs_[static_cast<std::size_t>(o.id.k - 1)],
                       pattern, o.id.k, cands);
      break;
    }
    case kCyclicEntry: {
      if (o.id.k < 1) break;
      collect_matching(class_dirs_[static_cast<std::size_t>(o.id.k - 1)],
                       o.id.a, o.id.k, cands);
      std::erase_if(cands, [&](dht::NodeIndex c) {
        return nodes_[c].id.a == o.id.a;
      });
      break;
    }
    case kInsideLeafEntry: {
      cycle_members(o.id.a, cands);
      std::erase(cands, owner);
      break;
    }
    case kOutsideLeafEntry: {
      nearby_cycles(o.id.a, opts_.base_fanout, cycles_scratch_);
      for (std::uint64_t cyc : cycles_scratch_) {
        cycle_members(cyc, members_scratch_);
        // Primary node (largest cyclic index) first, as in Cycloid.
        std::reverse(members_scratch_.begin(), members_scratch_.end());
        cands.insert(cands.end(), members_scratch_.begin(),
                     members_scratch_.end());
      }
      break;
    }
    default:
      break;
  }
  std::erase_if(cands, [&](dht::NodeIndex c) {
    return c == owner || !nodes_[c].alive;
  });
  // Nearest-first base order; "nearest" is slot-specific:
  //  * cubical: cycle distance to the canonical pattern (owner's cubical
  //    index with bit k flipped, low bits preserved) — measuring against
  //    the owner's own cycle would make one wrap-adjacent cycle the
  //    universal favorite and turn it into an artificial mega-hub;
  //  * cyclic: cycle distance to the owner's cycle;
  //  * inside leaf: wrap-around distance of cyclic indices (a cycle is a
  //    ring of d nodes, so (d-1, a) and (0, a) are adjacent);
  //  * outside leaf: cycle distance, then PRIMARY first (largest cyclic
  //    index) — the structural high-indegree group of Fig. 6.
  const std::uint64_t my_lv = lv(owner);
  if (slot == kInsideLeafEntry) {
    const int d = space_.dimension();
    dht::stable_sort_scratch(cands, sort_scratch_,
                             [&](dht::NodeIndex x, dht::NodeIndex y) {
                               auto kdist = [&](dht::NodeIndex c) {
                                 const int dk =
                                     std::abs(nodes_[c].id.k - o.id.k);
                                 return std::min(dk, d - dk);
                               };
                               return kdist(x) < kdist(y);
                             });
  } else {
    const std::uint64_t pattern =
        slot == kCubicalEntry ? flip_bit(o.id.a, o.id.k) : o.id.a;
    dht::stable_sort_scratch(
        cands, sort_scratch_, [&](dht::NodeIndex x, dht::NodeIndex y) {
          const auto dx = space_.cycle_distance(nodes_[x].id.a, pattern);
          const auto dy = space_.cycle_distance(nodes_[y].id.a, pattern);
          if (dx != dy) return dx < dy;
          if (slot == kOutsideLeafEntry && nodes_[x].id.k != nodes_[y].id.k)
            return nodes_[x].id.k > nodes_[y].id.k;
          return dht::ring_distance(lv(x), my_lv, space_.size()) <
                 dht::ring_distance(lv(y), my_lv, space_.size());
        });
  }
  order_by_policy(owner, cands);
  return cands;
}

void Overlay::order_by_policy(dht::NodeIndex owner,
                              std::vector<dht::NodeIndex>& cands) const {
  switch (opts_.policy) {
    case NeighborPolicy::kNearest:
      break;
    case NeighborPolicy::kSpareIndegree:
      // ERT: keep nearest-first order but prefer nodes with spare indegree.
      dht::stable_partition_scratch(cands, part_scratch_,
                                    [&](dht::NodeIndex c) {
                                      return nodes_[c].budget.can_accept();
                                    });
      break;
    case NeighborPolicy::kCapacityBiased:
      // NS [7]: highest capacity first (proximity breaks ties); nodes whose
      // indegree bound is full go last.
      dht::stable_sort_scratch(cands, sort_scratch_,
                               [&](dht::NodeIndex x, dht::NodeIndex y) {
                                 if (nodes_[x].capacity != nodes_[y].capacity)
                                   return nodes_[x].capacity >
                                          nodes_[y].capacity;
                                 return physical_distance(owner, x) <
                                        physical_distance(owner, y);
                               });
      dht::stable_partition_scratch(cands, part_scratch_,
                                    [&](dht::NodeIndex c) {
                                      return nodes_[c].budget.can_accept();
                                    });
      break;
  }
}

void Overlay::build_table(dht::NodeIndex i, Rng& rng) {
  (void)rng;
  struct SlotPlan {
    std::size_t slot;
    std::size_t want;
  };
  const SlotPlan plan[] = {
      {kCubicalEntry, 1},
      {kCyclicEntry, 2 * opts_.base_fanout},
      {kInsideLeafEntry, 2 * opts_.base_fanout},
      {kOutsideLeafEntry, 2 * opts_.base_fanout},
  };
  for (const SlotPlan& p : plan) {
    std::size_t made = nodes_[i].table.entry(p.slot).size();
    if (made >= p.want) continue;
    for (dht::NodeIndex c : eligible_candidates(i, p.slot)) {
      if (made >= p.want) break;
      if (link(i, p.slot, c, opts_.enforce_indegree_bounds)) ++made;
    }
    if (made == 0) {
      // Never leave a slot empty if anyone eligible exists: routability
      // trumps the indegree bound (the bound check is best-effort per the
      // paper's "only nodes with available capacity ... can be neighbors",
      // which presumes such nodes exist).
      for (dht::NodeIndex c : eligible_candidates(i, p.slot)) {
        if (link(i, p.slot, c, false)) break;
      }
    }
  }
  // Ring adjacency: every node keeps its lv-successor and lv-predecessor
  // in the matching leaf entry (Theorem 3.3's proof already assumes nodes
  // probe successors/predecessors). This closes the cycle-boundary gap —
  // e.g. (d-1, a) -> (0, a+1) — that neither the primaries-based outside
  // leaf set nor the cubical/cyclic links cover, and it guarantees the
  // leaf-set walk always has a progress candidate.
  if (directory_.size() > 1) {
    const std::uint64_t total = space_.size();
    const std::uint64_t succ = directory_.successor_id((lv(i) + 1) % total);
    const std::uint64_t pred =
        directory_.predecessor_id(lv(i) == 0 ? total - 1 : lv(i) - 1);
    for (const std::uint64_t nb : {succ, pred}) {
      const dht::NodeIndex c = *directory_.owner_of(nb);
      if (c == i) continue;
      const std::size_t slot = nodes_[c].id.a == nodes_[i].id.a
                                   ? kInsideLeafEntry
                                   : kOutsideLeafEntry;
      if (!nodes_[i].table.entry(slot).contains(arena().cands, c))
        link(i, slot, c, false);
    }
  }
  nodes_[i].table_built = true;
  // Back-fill: hosts that already built their tables but have no live
  // candidate in a slot the newcomer fits adopt it — keeps sparse and
  // churned networks routable (Cycloid's stabilization). Hosts that have
  // not built yet are skipped so genesis builds see virgin entries.
  expansion_targets_into(i, 64, targets_scratch_);
  for (const auto& [host, slot] : targets_scratch_) {
    if (nodes_[host].table_built && !has_live_candidate(host, slot))
      link(host, slot, i, false);
  }
}

void Overlay::expansion_targets_into(
    dht::NodeIndex i, std::size_t max_targets,
    std::vector<core::ExpansionTarget>& out) const {
  out.clear();
  const OverlayNode& me = nodes_.at(i);
  const int k = me.id.k;
  stamp_inlinks(i);
  // Accepts one host; returns false once `out` is full so streaming scans
  // stop instead of materializing whole cyclic classes (thousands of nodes
  // at 2^17) to then keep ~20.
  auto try_push = [&](dht::NodeIndex h, std::size_t slot) {
    if (out.size() >= max_targets) return false;
    if (h == i || !nodes_[h].alive) return true;
    // Algorithm 1 skips ids already among the backward fingers.
    if (stamped(h)) return true;
    out.emplace_back(h, slot);
    return true;
  };
  auto push_hosts = [&](const std::vector<dht::NodeIndex>& hosts,
                        std::size_t slot) {
    for (dht::NodeIndex h : hosts)
      if (!try_push(h, slot)) return;
  };
  if (k + 1 < space_.dimension()) {
    const dht::RingDirectory& dir =
        class_dirs_[static_cast<std::size_t>(k + 1)];
    const std::uint64_t span = std::uint64_t{1} << (k + 1);
    // Hosts (k+1, ...) whose cubical entry we satisfy: their bit (k+1)
    // differs from ours, bits above match, bits below free. Streamed in
    // the same ascending-key order collect_matching would produce.
    const std::uint64_t cub_base =
        flip_bit(me.id.a, k + 1) & ~low_mask(k + 1);
    dir.for_each_in_range_until(
        cub_base, cub_base + span,
        [&](std::uint64_t, dht::NodeIndex h) {
          return try_push(h, kCubicalEntry);
        });
    // Hosts (k+1, ...) whose cyclic entry we satisfy: bits >= k+1 match
    // (same-cycle hosts excluded).
    const std::uint64_t cyc_base = me.id.a & ~low_mask(k + 1);
    dir.for_each_in_range_until(
        cyc_base, cyc_base + span, [&](std::uint64_t, dht::NodeIndex h) {
          if (nodes_[h].id.a == me.id.a) return true;
          return try_push(h, kCyclicEntry);
        });
  }
  // Successor/predecessor probing (assumed by Theorem 3.3): same-cycle
  // members can take us into their inside leaf sets, adjacent cycles into
  // their outside leaf sets.
  cycle_members(me.id.a, members_scratch_);
  std::erase(members_scratch_, i);
  push_hosts(members_scratch_, kInsideLeafEntry);
  nearby_cycles(me.id.a, 1, cycles_scratch_);
  for (std::uint64_t cyc : cycles_scratch_) {
    cycle_members(cyc, members_scratch_);
    push_hosts(members_scratch_, kOutsideLeafEntry);
  }
}

void Overlay::repair_entry(dht::NodeIndex i, std::size_t slot) {
  if (has_live_candidate(i, slot)) return;
  for (dht::NodeIndex c : eligible_candidates(i, slot)) {
    if (link(i, slot, c, opts_.enforce_indegree_bounds)) return;
  }
  for (dht::NodeIndex c : eligible_candidates(i, slot)) {
    if (link(i, slot, c, false)) return;
  }
}

dht::NodeIndex Overlay::responsible(std::uint64_t key) const {
  return directory_.successor(space_.key_to_linear(key));
}

std::uint64_t Overlay::logical_distance(dht::NodeIndex a,
                                        dht::NodeIndex b) const {
  return dht::ring_distance(lv(a), lv(b), space_.size());
}

std::uint64_t Overlay::logical_distance_to_key(dht::NodeIndex a,
                                               std::uint64_t key) const {
  return dht::ring_distance(lv(a), space_.key_to_linear(key), space_.size());
}

RouteStep Overlay::route_step(dht::NodeIndex cur, std::uint64_t key,
                              RouteCtx& ctx) const {
  dht::RouteScratch scratch;
  const dht::RouteStepInfo info = route_step(cur, key, ctx, scratch);
  RouteStep step;
  step.arrived = info.arrived;
  step.entry_index = info.entry_index;
  step.candidates = std::move(scratch.candidates);
  return step;
}

dht::RouteStepInfo Overlay::route_step(dht::NodeIndex cur, std::uint64_t key,
                                       RouteCtx& ctx,
                                       dht::RouteScratch& scratch) const {
  dht::RouteStepInfo step;
  step.entry_index = kNoEntry;
  auto& cands = scratch.candidates;
  cands.clear();
  const dht::NodeIndex owner = responsible(key);
  assert(owner != dht::kNoNode);
  if (owner == cur) {
    step.arrived = true;
    return step;
  }
  const OverlayNode& cn = nodes_.at(cur);
  const OverlayNode& on = nodes_.at(owner);
  assert(cn.alive);
  const CycloidId cid = cn.id;
  const CycloidId oid = on.id;
  const int h = cid.a == oid.a ? -1 : msb_diff(cid.a, oid.a);

  if (ctx.phase == RouteCtx::Phase::kAscend) {
    if (h >= 0 && cid.k < h) {
      // Ascending: climb toward cyclic index h, preferably within the local
      // cycle; in sparse networks, where the local cycle may have no
      // higher-k member, the outside leaf set (whose heads are the
      // primaries — highest k — of adjacent cycles) keeps the climb going.
      // k strictly increases either way, so the phase ends within d hops.
      for (std::size_t slot : {kInsideLeafEntry, kOutsideLeafEntry}) {
        cands.clear();
        for (const dht::NodeIndex32 c :
             cn.table.entry(slot).candidates(arena().cands))
          if (nodes_[c].id.k > cid.k) cands.push_back(c);
        if (cands.empty()) continue;
        dht::stable_insertion_sort(cands.begin(), cands.end(),
                                   [&](dht::NodeIndex x, dht::NodeIndex y) {
                                     return std::abs(nodes_[x].id.k - h) <
                                            std::abs(nodes_[y].id.k - h);
                                   });
        step.entry_index = slot;
        return step;
      }
    }
    ctx.phase = RouteCtx::Phase::kDescend;
  }

  if (ctx.phase == RouteCtx::Phase::kDescend) {
    auto by_cycle_distance = [&](std::size_t slot) {
      const auto src = cn.table.entry(slot).candidates(arena().cands);
      cands.assign(src.begin(), src.end());
      dht::stable_insertion_sort(
          cands.begin(), cands.end(), [&](dht::NodeIndex x, dht::NodeIndex y) {
            return space_.cycle_distance(nodes_[x].id.a, oid.a) <
                   space_.cycle_distance(nodes_[y].id.a, oid.a);
          });
      step.entry_index = slot;
    };
    if (h >= 0 && cid.k >= 1 && cid.k == h &&
        !cn.table.entry(kCubicalEntry).empty()) {
      // Flip bit h via the cubical link; every candidate makes progress.
      by_cycle_distance(kCubicalEntry);
      return step;
    }
    if (h >= 0 && cid.k >= 1 && cid.k > h &&
        !cn.table.entry(kCyclicEntry).empty()) {
      // Move between cycles: any cyclic candidate preserves the
      // already-corrected bits >= k and lowers k.
      by_cycle_distance(kCyclicEntry);
      return step;
    }
    // No descend step possible from here (target cycle reached, k exhausted,
    // or the needed entry is empty): drop to the walk permanently — the
    // monotone phase order is what guarantees termination.
    ctx.phase = RouteCtx::Phase::kWalk;
  }

  // Cycle walk / greedy fallback: any candidate strictly reducing the
  // ring-position distance to the owner qualifies. Dead (stale) candidates
  // are judged by their last-known id so the timeout path stays realistic.
  // The owner's directory position is resolved once: every candidate rank
  // then costs one binary search instead of two.
  const std::uint64_t total = space_.size();
  const std::uint64_t owner_lv = lv(owner);
  const std::size_t owner_pos = directory_.position_of(owner_lv);
  const std::size_t my_pos =
      directory_.position_gap(directory_.position_of(lv(cur)), owner_pos);
  const std::uint64_t my_iddist = dht::ring_distance(lv(cur), owner_lv, total);
  auto progress_rank = [&](dht::NodeIndex c) -> std::int64_t {
    // Returns a sort key; negative means "no progress" (filtered out).
    if (nodes_[c].alive) {
      const std::size_t pos =
          directory_.position_gap(directory_.position_of(lv(c)), owner_pos);
      if (pos >= my_pos) return -1;
      return static_cast<std::int64_t>(pos);
    }
    const std::uint64_t idd = dht::ring_distance(lv(c), owner_lv, total);
    if (idd >= my_iddist) return -1;
    return static_cast<std::int64_t>(my_pos);  // dead: rank after live ones
  };
  // Rank progress candidates across ALL entries and route through the slot
  // holding the globally best one — cubical/cyclic links double as long
  // jumps and the outside leaf set skips whole cycles, so the walk is a
  // greedy ring walk with shortcuts rather than a position-by-position
  // crawl. One structural constraint: once inside the owner's cycle, stay
  // there ("traverse cycle" phase) — a position shortcut that exits the
  // cycle can strand the query next to an owner only reachable through its
  // own cycle's leaf links.
  //
  // Ranks are computed in a single pass: each slot's qualifying candidates
  // land in a contiguous segment of scratch.ranked (entry order preserved),
  // the globally best slot is tracked on the fly, and only its segment is
  // sorted. Same comparisons in the same order as the two-pass form, so
  // the chosen slot and candidate order are bit-identical.
  const bool in_owner_cycle = cid.a == oid.a;
  auto usable = [&](dht::NodeIndex c) {
    return !in_owner_cycle || nodes_[c].id.a == oid.a;
  };
  for (int relax = 0; relax < 2; ++relax) {
    auto& ranked = scratch.ranked;
    ranked.clear();
    std::array<std::size_t, kNumEntries + 1> seg{};
    std::size_t best_slot = kNoEntry;
    std::int64_t best_rank = -1;
    for (std::size_t slot = 0; slot < kNumEntries; ++slot) {
      seg[slot] = ranked.size();
      for (const dht::NodeIndex32 c :
           cn.table.entry(slot).candidates(arena().cands)) {
        if (relax == 0 && !usable(c)) continue;
        const std::int64_t r = progress_rank(c);
        if (r < 0) continue;
        // Non-negative ranks cast losslessly to the scratch's uint64 keys,
        // and pair order (rank, node) is unchanged.
        ranked.emplace_back(static_cast<std::uint64_t>(r), c);
        if (best_rank < 0 || r < best_rank) {
          best_rank = r;
          best_slot = slot;
        }
      }
    }
    seg[kNumEntries] = ranked.size();
    if (best_slot != kNoEntry) {
      const auto first =
          ranked.begin() + static_cast<std::ptrdiff_t>(seg[best_slot]);
      const auto last =
          ranked.begin() + static_cast<std::ptrdiff_t>(seg[best_slot + 1]);
      dht::stable_insertion_sort(
          first, last, [](const auto& a, const auto& b) { return a < b; });
      step.entry_index = best_slot;
      for (auto it = first; it != last; ++it) cands.push_back(it->second);
      return step;
    }
  }
  // Emergency: step to the directory-adjacent node toward the owner. This
  // models the stabilized leaf-set hop that always exists in a connected
  // Cycloid; it guarantees lookup termination on any membership.
  const std::uint64_t next_id = directory_.step_toward(lv(cur), lv(owner));
  const auto next = directory_.owner_of(next_id);
  assert(next.has_value());
  step.entry_index = kNoEntry;
  cands.push_back(*next);
  return step;
}

void Overlay::audit_geometry(dht::NodeIndex i, core::AuditSink& sink) const {
  const OverlayNode& n = nodes_[i];
  std::size_t ineligible = 0;
  for (std::size_t slot = 0; slot < kOutsideLeafEntry; ++slot)
    for (const dht::NodeIndex32 c :
         n.table.entry(slot).candidates(arena().cands))
      if (nodes_[c].alive && !eligible(i, slot, c)) ++ineligible;
  sink.expect_eq("geometry.cycloid.eligible", i,
                 static_cast<double>(ineligible), 0.0,
                 "ineligible candidate in entry");
  const bool indexed =
      directory_.owner_of(lv(i)) == std::optional<dht::NodeIndex>(i) &&
      class_dirs_[static_cast<std::size_t>(n.id.k)].owner_of(n.id.a) ==
          std::optional<dht::NodeIndex>(i);
  sink.expect_eq("geometry.cycloid.class_index", i, indexed ? 1.0 : 0.0, 1.0,
                 "id missing from the directory or its class index");
}

void Overlay::audit_network_geometry(core::AuditSink& sink) const {
  std::size_t class_total = 0;
  for (const auto& cd : class_dirs_) class_total += cd.size();
  sink.expect_eq("geometry.cycloid.class_index", dht::kNoNode,
                 static_cast<double>(class_total),
                 static_cast<double>(directory_.size()),
                 "class index out of sync with directory");
}

}  // namespace ert::cycloid

template class ert::core::ElasticLinks<ert::cycloid::Overlay,
                                       ert::cycloid::OverlayNode>;
