// Member definitions of ert::core::ElasticLinks (elastic_links.h). Include
// only from an overlay's .cpp, which ends with the explicit instantiation
//
//   template class ert::core::ElasticLinks<ert::<sub>::Overlay, Node>;
//
// so the geometry hooks inline into the link paths with no virtual call.
#pragma once

#include <utility>

#include "ert/elastic_links.h"
#include "trace/trace.h"
#include "wire/meter.h"

namespace ert::core {

template <typename D, typename N>
dht::NodeIndex ElasticLinks<D, N>::push_node(N n, double capacity,
                                             int max_indegree, double beta) {
  n.alive = true;
  n.capacity = capacity;
  n.budget = IndegreeBudget(max_indegree, beta);
  nodes_.push_back(std::move(n));
  ++alive_;
  return nodes_.size() - 1;
}

template <typename D, typename N>
void ElasticLinks<D, N>::mark_dead(dht::NodeIndex i) {
  nodes_[i].alive = false;
  --alive_;
}

template <typename D, typename N>
void ElasticLinks<D, N>::stamp_inlinks(dht::NodeIndex i) const {
  inlink_seen_.begin_epoch(nodes_.size());
  for (const auto& f : nodes_[i].inlinks.fingers(arena_.fingers))
    inlink_seen_.mark(f.node);
}

template <typename D, typename N>
bool ElasticLinks<D, N>::has_live_candidate(dht::NodeIndex i,
                                            std::size_t slot) const {
  for (const dht::NodeIndex32 c :
       nodes_.at(i).table.entry(slot).candidates(arena_.cands))
    if (nodes_[c].alive) return true;
  return false;
}

template <typename D, typename N>
std::size_t ElasticLinks<D, N>::remove_elastic(dht::ElasticTable& t,
                                               dht::NodeIndex n) {
  std::size_t removed = 0;
  auto& entries = t.entries();
  for (std::size_t s = D::kFirstElasticSlot; s < entries.size(); ++s)
    if (entries[s].remove(arena_.cands, n)) ++removed;
  return removed;
}

template <typename D, typename N>
bool ElasticLinks<D, N>::links_elastic(const dht::ElasticTable& t,
                                       dht::NodeIndex n) const {
  const auto& entries = t.entries();
  for (std::size_t s = D::kFirstElasticSlot; s < entries.size(); ++s)
    if (entries[s].contains(arena_.cands, n)) return true;
  return false;
}

template <typename D, typename N>
bool ElasticLinks<D, N>::link(dht::NodeIndex from, std::size_t slot,
                              dht::NodeIndex to, bool respect_budget) {
  N& f = nodes_.at(from);
  N& t = nodes_.at(to);
  if (!f.alive || !t.alive || from == to) return false;
  if (!self().eligible(from, slot, to)) return false;
  if (respect_budget && !t.budget.can_accept()) return false;
  // One role per ordered pair: if `from` already points at `to` in another
  // slot, do not double-link (keeps indegree == #pointing nodes).
  if (t.inlinks.contains(arena_.fingers, from)) return false;
  auto& entry = f.table.entry(slot);
  if (entry.size() >= self().slot_cap(slot) && !self().make_room(from, slot))
    return false;
  if (!entry.add(arena_.cands, to)) return false;
  if (!t.budget.can_accept()) t.budget.on_forced_inlink();
  t.inlinks.add(arena_.fingers, self().backward_finger(from, to));
  t.budget.on_inlink_added();
  return true;
}

template <typename D, typename N>
bool ElasticLinks<D, N>::unlink(dht::NodeIndex from, dht::NodeIndex to) {
  if (remove_elastic(nodes_.at(from).table, to) == 0) return false;
  nodes_.at(to).inlinks.remove(arena_.fingers, from);
  nodes_.at(to).budget.on_inlink_removed();
  return true;
}

template <typename D, typename N>
int ElasticLinks<D, N>::expand_indegree(dht::NodeIndex i, int want,
                                        std::size_t max_probes) {
  if (want <= 0) return 0;
  if (!nodes_[i].budget.can_accept()) return 0;
  int gained = 0;
  self().for_each_expansion_target(
      i, max_probes, [&](dht::NodeIndex host, std::size_t slot) {
        if (!link(host, slot, i, /*respect_budget=*/true)) return true;
        ++gained;
        const std::size_t indeg = nodes_[i].inlinks.size();
        if (trace_ && trace_->wants(trace::Category::kLink))
          trace_->emit(trace::EventType::kLinkAdopt, i, 0,
                       static_cast<std::int64_t>(host),
                       static_cast<std::int64_t>(indeg));
        if (meter_) meter_->on_backward_add(i, host, indeg);
        return gained < want && nodes_[i].budget.can_accept();
      });
  return gained;
}

template <typename D, typename N>
int ElasticLinks<D, N>::shed_indegree(dht::NodeIndex i, int count) {
  if (count <= 0) return 0;
  count = self().shed_limit(i, count);
  if (count <= 0) return 0;
  nodes_.at(i).inlinks.pick_evictions(arena_.fingers,
                                      static_cast<std::size_t>(count),
                                      evict_scratch_, evict_out_);
  int shed = 0;
  for (dht::NodeIndex v : evict_out_) {
    if (!unlink(v, i)) continue;
    ++shed;
    const std::size_t indeg = nodes_[i].inlinks.size();
    if (trace_ && trace_->wants(trace::Category::kLink))
      trace_->emit(trace::EventType::kLinkShed, i, 0,
                   static_cast<std::int64_t>(v),
                   static_cast<std::int64_t>(indeg));
    if (meter_) meter_->on_backward_drop(i, v, indeg);
    self().after_shed(v);
  }
  return shed;
}

template <typename D, typename N>
void ElasticLinks<D, N>::drop_links(dht::NodeIndex i) {
  N& n = nodes_.at(i);
  auto& entries = n.table.entries();
  // Outlinks: fix the targets' backward fingers. The per-candidate
  // bookkeeping touches only the finger pool, so the candidate span stays
  // valid; each block is released afterwards.
  for (std::size_t s = D::kFirstElasticSlot; s < entries.size(); ++s) {
    for (const dht::NodeIndex32 c : entries[s].candidates(arena_.cands)) {
      nodes_[c].inlinks.remove(arena_.fingers, i);
      nodes_[c].budget.on_inlink_lost();
    }
    entries[s].release(arena_.cands);
  }
  // Inlinks: fix the pointers' tables — the candidate pool, never the
  // finger pool being iterated.
  for (const auto& f : n.inlinks.fingers(arena_.fingers))
    remove_elastic(nodes_[f.node].table, i);
  n.inlinks.clear(arena_.fingers);
}

template <typename D, typename N>
void ElasticLinks<D, N>::leave_graceful(dht::NodeIndex i) {
  if (!nodes_.at(i).alive) return;
  self().drop_mandatory_links(i);
  drop_links(i);
  mark_dead(i);
  self().erase_member(i);
}

template <typename D, typename N>
void ElasticLinks<D, N>::fail(dht::NodeIndex i) {
  if (!nodes_.at(i).alive) return;
  mark_dead(i);
  self().erase_member(i);
}

template <typename D, typename N>
void ElasticLinks<D, N>::purge_dead(dht::NodeIndex at, dht::NodeIndex dead) {
  N& n = nodes_.at(at);
  n.table.remove_everywhere(arena_.cands, dead);
  if (n.inlinks.remove(arena_.fingers, dead)) n.budget.on_inlink_lost();
}

template <typename D, typename N>
std::size_t ElasticLinks<D, N>::indegree(dht::NodeIndex i) const {
  const N& n = nodes_.at(i);
  std::size_t d = n.inlinks.size();
  for (std::size_t s = 0; s < D::kFirstElasticSlot; ++s)
    d += n.table.entry(s).size();
  return d;
}

template <typename D, typename N>
void ElasticLinks<D, N>::audit_node(dht::NodeIndex i, AuditSink& sink) const {
  const N& n = nodes_.at(i);
  if (!n.alive) return;
  std::size_t missing_backward = 0;
  const auto& entries = n.table.entries();
  for (std::size_t s = 0; s < entries.size(); ++s) {
    for (const dht::NodeIndex32 c : entries[s].candidates(arena_.cands)) {
      if (!nodes_[c].alive) continue;
      // Mandatory structure must be mutual; elastic links mirror through
      // a backward finger at their target.
      const bool mirrored =
          s < D::kFirstElasticSlot
              ? nodes_[c].table.entry(s).contains(arena_.cands, i)
              : nodes_[c].inlinks.contains(arena_.fingers, i);
      if (!mirrored) ++missing_backward;
    }
  }
  std::size_t missing_forward = 0;
  for (const auto& f : n.inlinks.fingers(arena_.fingers)) {
    if (!nodes_[f.node].alive) continue;
    if (!links_elastic(nodes_[f.node].table, i)) ++missing_forward;
  }
  sink.expect_eq("links.symmetry", i, static_cast<double>(missing_backward),
                 0.0, "outlink without matching backward finger");
  sink.expect_eq("links.symmetry", i, static_cast<double>(missing_forward),
                 0.0, "backward finger without matching outlink");
  sink.expect_eq("indegree.budget-sync", i,
                 static_cast<double>(n.budget.indegree()),
                 static_cast<double>(n.inlinks.size()),
                 "budget degree vs backward-finger count");
  self().audit_geometry(i, sink);
}

}  // namespace ert::core
