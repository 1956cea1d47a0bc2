// Caller-owned scratch state for the allocation-free routing fast path.
//
// The per-hop loop used to heap-allocate a fresh candidate vector in every
// overlay route_step (plus rank/sort temporaries) and move it up through
// HopStep. Instead, the routing loop's owner (one experiment engine, one
// benchmark driver, one test) keeps a single RouteScratch and passes it to
// every route_step call; the overlay writes the preference-ordered
// candidate set into `candidates` and uses `ranked` internally. Buffers
// only ever grow to the high-water mark of a single hop, so the steady
// state performs no heap allocation.
//
// Ownership rules (see docs/PERFORMANCE.md):
//  * `candidates` is valid until the next route_step call on the same
//    scratch — consume or copy it before routing again.
//  * The caller may mutate `candidates` in place between hops (the engine
//    compacts out dead candidates); the overlay never reads stale contents,
//    it clears what it uses.
//  * One scratch must not be shared across concurrent routing loops;
//    engines are per-seed single-threaded, so each engine owns one.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "dht/types.h"

namespace ert::dht {

struct RouteScratch {
  /// Output: preference-ordered candidate next hops (front = the
  /// deterministic choice) for the entry the hop leaves through.
  std::vector<NodeIndex> candidates;
  /// Internal: (sort key, node) pairs for the rank-and-sort phases.
  std::vector<std::pair<std::uint64_t, NodeIndex>> ranked;
};

/// Result of a scratch-based route_step; the candidate set lives in the
/// RouteScratch the caller passed in.
struct RouteStepInfo {
  bool arrived = false;
  /// Entry the query leaves through; each overlay's sentinel (kNoEntry /
  /// num_entries) marks emergency hops, exactly as in its legacy RouteStep.
  std::size_t entry_index = 0;
};

/// Stable insertion sort for the small candidate lists of the hot path.
/// Stability pins a unique output permutation, so this is exchangeable
/// with std::stable_sort — but it never allocates the merge buffer
/// std::stable_sort reaches for, which matters for the zero-allocation
/// steady-state contract.
template <typename It, typename Comp>
void stable_insertion_sort(It first, It last, Comp comp) {
  if (first == last) return;
  for (It i = first + 1; i != last; ++i) {
    auto v = std::move(*i);
    It j = i;
    while (j != first && comp(v, *(j - 1))) {
      *j = std::move(*(j - 1));
      --j;
    }
    *j = std::move(v);
  }
}

/// Stable sort of a candidate list by an integer key below 2^32, computing
/// each candidate's key once: the (key, position) pairs packed into
/// `ranked` are distinct, so an ordinary sort of them reproduces exactly
/// the stable permutation, in O(k log k) where the insertion sort takes
/// O(k^2) comparisons and key evaluations on the wide entries Algorithm 3
/// grows.
template <typename KeyFn>
void stable_sort_by_key(
    std::vector<NodeIndex>& cands,
    std::vector<std::pair<std::uint64_t, NodeIndex>>& ranked, KeyFn key) {
  ranked.clear();
  for (std::size_t p = 0; p < cands.size(); ++p)
    ranked.emplace_back(static_cast<std::uint64_t>(key(cands[p])) << 32 | p,
                        cands[p]);
  std::sort(ranked.begin(), ranked.end());
  for (std::size_t p = 0; p < cands.size(); ++p) cands[p] = ranked[p].second;
}

}  // namespace ert::dht
