// Randomized query-forwarding policies (Sec. 4.1, Algorithm 4).
//
// Given the candidate set of the routing entry a query must leave through,
// the policies pick the next hop:
//
//  * Random walk        — uniform choice (the non-forwarding baseline; also
//                         what ERT/A uses).
//  * b-way randomized   — poll b random candidates' load, prefer a light one;
//                         if all heavy, take the least-loaded (gradient).
//  * Topology-aware     — the full Algorithm 4: excludes nodes already known
//    two-way (default)    overloaded (the set A carried with the query),
//                         reuses the remembered least-loaded candidate as one
//                         of the two choices (memory-based dispatch [22]),
//                         and among light candidates prefers the logically
//                         closest to the target, tie-broken by physical
//                         proximity.
//
// The policy is substrate-agnostic: load, logical distance, and physical
// distance are supplied through a probe interface.
//
// Two entry points exist for the topology-aware policy. The templated
// overload is the hot path: the probe stays a concrete callable (no
// std::function constructed or dispatched per hop), the candidate set A is
// a sorted small-buffer OverloadedSet with O(log |A|) membership, and all
// temporaries live in a caller-owned ForwardScratch, so steady-state calls
// allocate nothing (see docs/PERFORMANCE.md). The vector-based overload is
// the legacy convenience wrapper kept for tests and benchmarks; both
// consume the identical Rng draw sequence and pick the identical hop.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "dht/routing_entry.h"
#include "dht/types.h"

namespace ert::core {

/// How the forwarder sees a candidate. Collected by one "probe" per
/// candidate polled; the simulator charges probe costs accordingly.
struct ProbeResult {
  double load = 0.0;      ///< congestion g = queue length / slots.
  bool heavy = false;     ///< g > gamma_l.
  std::uint64_t logical_distance = 0;  ///< candidate -> target, overlay hops metric.
  double physical_distance = 0.0;      ///< self -> candidate.
  double unit_load = 1.0;  ///< how much `load` grows per additional query
                           ///< (1 / slots); used by the memory update.
};

using ProbeFn = std::function<ProbeResult(dht::NodeIndex)>;

/// The engine caps each query's accumulated set A at this many nodes.
inline constexpr std::size_t kOverloadedSetCap = 64;

/// The query's overloaded set A of Algorithm 4: a sorted small-buffer set.
/// Membership is a binary search over contiguous storage; the inline buffer
/// covers the typical |A| and spills to the heap at most once past
/// kInlineCap. Only membership and size are ever observed, so swapping the
/// engine's old insertion-ordered vector for sorted order changes no
/// metric.
class OverloadedSet {
 public:
  static constexpr std::size_t kInlineCap = 24;

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Sorted members as a contiguous read-only view — the A set travels
  /// with every Forward frame, so the serializer reads it in place.
  const dht::NodeIndex* entries() const { return data(); }

  bool contains(dht::NodeIndex n) const {
    const dht::NodeIndex* b = data();
    const dht::NodeIndex* e = b + size_;
    const dht::NodeIndex* it = std::lower_bound(b, e, n);
    return it != e && *it == n;
  }

  /// Inserts keeping sorted order; returns false if already present.
  bool insert(dht::NodeIndex n) {
    dht::NodeIndex* b = data();
    const auto pos =
        static_cast<std::size_t>(std::lower_bound(b, b + size_, n) - b);
    if (pos < size_ && b[pos] == n) return false;
    if (!spilled_ && size_ == kInlineCap) {
      spill_.assign(inline_.begin(), inline_.end());
      spilled_ = true;
    }
    if (spilled_) {
      spill_.insert(spill_.begin() + static_cast<std::ptrdiff_t>(pos), n);
    } else {
      for (std::size_t i = size_; i > pos; --i) inline_[i] = inline_[i - 1];
      inline_[pos] = n;
    }
    ++size_;
    return true;
  }

  /// Keeps the spill capacity so a reused set stays allocation-free.
  void clear() {
    size_ = 0;
    spill_.clear();
    spilled_ = false;
  }

 private:
  const dht::NodeIndex* data() const {
    return spilled_ ? spill_.data() : inline_.data();
  }
  dht::NodeIndex* data() { return spilled_ ? spill_.data() : inline_.data(); }

  std::size_t size_ = 0;
  bool spilled_ = false;
  std::array<dht::NodeIndex, kInlineCap> inline_{};
  std::vector<dht::NodeIndex> spill_;
};

struct ForwardDecision {
  dht::NodeIndex next = dht::kNoNode;
  int probes = 0;  ///< how many load probes the decision cost.
  std::vector<dht::NodeIndex> newly_overloaded;  ///< to append to the query's A set.
};

/// Result of the scratch-based fast path; the heavy nodes discovered this
/// hop land in ForwardScratch::newly_overloaded instead.
struct ForwardStep {
  dht::NodeIndex next = dht::kNoNode;
  int probes = 0;
};

/// Reusable buffers for the templated forward_topology_aware. One routing
/// loop owns one scratch (the experiment engine keeps one per engine);
/// every buffer is cleared before use, and `newly_overloaded` is the only
/// output the caller reads — heavy polled nodes not already in A, in poll
/// order, valid until the next call.
struct ForwardScratch {
  std::vector<dht::NodeIndex> pool;     ///< candidates minus the A set.
  std::vector<dht::NodeIndex> polled;
  std::vector<ProbeResult> results;
  std::vector<std::size_t> light;       ///< indices of light polled nodes.
  std::vector<std::size_t> sample;      ///< sampled indices (rng output).
  std::vector<std::size_t> sample_pool; ///< rng dense-case index pool.
  std::vector<dht::NodeIndex> newly_overloaded;  ///< output, see above.
};

struct TopoForwardOptions {
  int poll_size = 2;
  bool use_memory = true;
  bool track_overloaded = true;
};

/// Full Algorithm 4, legacy convenience form. `entry` supplies and receives
/// the memory slot; `overloaded` is the query's accumulated set A
/// (candidates in it are excluded unless that empties the candidate list).
/// Delegates to the templated fast path below with freshly built scratch
/// state, so both forms consume identical randomness and pick identical
/// hops; `newly_overloaded` reports only heavy polled nodes that were not
/// already in A.
ForwardDecision forward_topology_aware(
    dht::RoutingEntry& entry, const std::vector<dht::NodeIndex>& candidates,
    const std::vector<dht::NodeIndex>& overloaded,
    const TopoForwardOptions& opts, const ProbeFn& probe, Rng& rng);

/// Full Algorithm 4, allocation-free fast path. The probe is any callable
/// ProbeResult(dht::NodeIndex) — kept as a template parameter so the
/// engine's capturing lambda is invoked directly instead of through a
/// per-hop std::function. Heavy discoveries are written to
/// scratch.newly_overloaded (poll order, A members filtered out — the
/// caller appends them to A without re-scanning it).
template <typename ProbeT>
ForwardStep forward_topology_aware(dht::RoutingEntry& entry,
                                   std::span<const dht::NodeIndex> candidates,
                                   const OverloadedSet& overloaded,
                                   const TopoForwardOptions& opts,
                                   ProbeT&& probe, Rng& rng,
                                   ForwardScratch& scratch) {
  ForwardStep d;
  scratch.newly_overloaded.clear();
  if (candidates.empty()) return d;

  // Step 3 of Algorithm 4: exclude candidates known to be overloaded, unless
  // that leaves us with nothing to route through.
  auto& usable = scratch.pool;
  usable.clear();
  if (opts.track_overloaded && !overloaded.empty()) {
    for (dht::NodeIndex n : candidates)
      if (!overloaded.contains(n)) usable.push_back(n);
  }
  const std::span<const dht::NodeIndex> pool =
      usable.empty() ? candidates : std::span<const dht::NodeIndex>(usable);

  // Steps 4-8: with a remembered node, draw only (b - 1) fresh choices;
  // otherwise draw b.
  auto& polled = scratch.polled;
  polled.clear();
  const dht::NodeIndex remembered = entry.memory();
  const auto rem_it = opts.use_memory && remembered != dht::kNoNode
                          ? std::find(pool.begin(), pool.end(), remembered)
                          : pool.end();
  if (rem_it != pool.end()) {
    polled.push_back(remembered);
    // Avoid drawing the remembered node twice: sample from the pool with
    // the remembered position skipped (the draw sequence only depends on
    // the reduced size, so this matches the old materialized "rest" list).
    const auto rpos = static_cast<std::size_t>(rem_it - pool.begin());
    rng.sample_indices(pool.size() - 1,
                       static_cast<std::size_t>(std::max(0, opts.poll_size - 1)),
                       scratch.sample_pool, scratch.sample);
    for (std::size_t i : scratch.sample)
      polled.push_back(pool[i < rpos ? i : i + 1]);
  } else {
    rng.sample_indices(pool.size(), static_cast<std::size_t>(opts.poll_size),
                       scratch.sample_pool, scratch.sample);
    for (std::size_t i : scratch.sample) polled.push_back(pool[i]);
  }
  assert(!polled.empty());

  // Step 10: probe the polled candidates.
  auto& results = scratch.results;
  results.resize(polled.size());
  for (std::size_t i = 0; i < polled.size(); ++i) {
    results[i] = probe(polled[i]);
    ++d.probes;
  }

  auto& light = scratch.light;
  light.clear();
  for (std::size_t i = 0; i < polled.size(); ++i)
    if (!results[i].heavy) light.push_back(i);

  // Heavy polled nodes already in A taught us nothing — only genuinely new
  // discoveries are reported, so the caller appends without deduplicating.
  auto record_overloaded = [&](dht::NodeIndex n) {
    if (!overloaded.contains(n)) scratch.newly_overloaded.push_back(n);
  };

  std::size_t chosen;
  if (light.empty()) {
    // Steps 11-13: all heavy -> remember them in A, take the least loaded.
    chosen = 0;
    for (std::size_t i = 1; i < polled.size(); ++i)
      if (results[i].load < results[chosen].load) chosen = i;
    if (opts.track_overloaded)
      for (dht::NodeIndex n : polled) record_overloaded(n);
  } else if (light.size() < polled.size()) {
    // Steps 15-17: mixed -> record the heavy ones, choose the best light one.
    chosen = light.front();
    for (std::size_t i : light) {
      if (results[i].logical_distance < results[chosen].logical_distance ||
          (results[i].logical_distance == results[chosen].logical_distance &&
           results[i].physical_distance < results[chosen].physical_distance))
        chosen = i;
    }
    if (opts.track_overloaded) {
      for (std::size_t i = 0; i < polled.size(); ++i)
        if (results[i].heavy) record_overloaded(polled[i]);
    }
  } else {
    // Steps 19-22: all light -> logically closest to the target, physical
    // proximity breaks ties.
    chosen = 0;
    for (std::size_t i = 1; i < polled.size(); ++i) {
      if (results[i].logical_distance < results[chosen].logical_distance ||
          (results[i].logical_distance == results[chosen].logical_distance &&
           results[i].physical_distance < results[chosen].physical_distance))
        chosen = i;
    }
  }
  d.next = polled[chosen];

  // Memory update [22]: after the chosen node takes one more unit of load,
  // remember the least-loaded of the polled set for the next dispatch.
  if (opts.use_memory) {
    std::size_t least = 0;
    for (std::size_t i = 0; i < polled.size(); ++i) {
      const double load_i =
          results[i].load + (i == chosen ? results[i].unit_load : 0.0);
      const double load_least =
          results[least].load +
          (least == chosen ? results[least].unit_load : 0.0);
      if (load_i < load_least) least = i;
    }
    entry.remember(polled[least]);
  }
  return d;
}

}  // namespace ert::core
