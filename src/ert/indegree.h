// Indegree accounting (Sec. 3.2) and backward-finger bookkeeping.
//
// Every inlink a node accepts is mirrored by a backward finger, so the node
// knows exactly who forwards queries to it. The budget enforces the
// acceptance rule "only nodes with available capacity d_inf - d >= 1 can be
// the joining node's neighbors", and periodic adaptation moves d_inf
// (Sec. 3.3: shedding load lowers the bound, inviting load raises it).
//
// Backward-finger sets are pooled (dht/slab.h): a node's list is an 8-byte
// handle into the overlay's FingerPool, and eviction ranking writes into
// caller-owned scratch so the periodic adaptation sweep allocates nothing.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dht/slab.h"
#include "dht/types.h"

namespace ert::core {

class IndegreeBudget {
 public:
  IndegreeBudget() = default;
  IndegreeBudget(int max_indegree, double beta)
      : max_(max_indegree), beta_(beta) {}

  int indegree() const { return degree_; }
  int max_indegree() const { return max_; }
  double reservation_beta() const { return beta_; }
  /// Spare acceptance capacity d_inf - d (may be negative when emergency
  /// repairs bypassed the budget to keep the network routable).
  int spare() const { return max_ - degree_; }

  /// Initial target = beta * d_inf, at least 1 (Sec. 3.2).
  int initial_target() const;

  /// Acceptance rule for new inlinks: spare capacity >= 1.
  bool can_accept() const { return max_ - degree_ >= 1; }

  /// Whether the node should keep probing during initial assignment:
  /// Algorithm 2 loops while d_inf - d >= beta * d_inf, i.e. until the
  /// indegree reaches the reservation watermark.
  bool wants_more() const { return degree_ < initial_target(); }

  void on_inlink_added() { ++degree_; }
  void on_inlink_removed() {
    if (degree_ > 0) --degree_;
  }
  /// Removes an inlink whose pointer departed (graceful leave) or was
  /// found dead (purge). Such a loss lowers d but leaves d_inf, so it is
  /// counted, never decremented, like forced_accepts(): the auditable
  /// adaptive window is d_inf <= d + lost_inlinks() + the Theorem 3.1
  /// bound.
  void on_inlink_lost() {
    if (degree_ == 0) return;
    --degree_;
    ++lost_;
  }
  int lost_inlinks() const { return lost_; }

  /// Records a link accepted while no spare capacity was left — the
  /// emergency build/repair fallbacks (link with respect_budget=false)
  /// that keep the network routable. Monotonic, never decremented: the
  /// auditable inlink bound is d <= d_inf + forced_accepts(), which is
  /// inductive under budgeted adds (need spare >= 1), removals, shedding
  /// (bound and degree fall together), and growth (every raise is backed
  /// by gained inlinks).
  void on_forced_inlink() { ++forced_; }
  int forced_accepts() const { return forced_; }

  /// Periodic adaptation side effects on the bound (Sec. 3.3): shedding
  /// k inlinks also lowers d_inf by k; growing raises it. The bound never
  /// drops below 1.
  void lower_bound_by(int k);
  void raise_bound_by(int k) { max_ += k; }

 private:
  int max_ = 1;
  int degree_ = 0;
  int forced_ = 0;
  int lost_ = 0;
  double beta_ = 0.8;
};

/// One backward finger: who points at us, how far they are in the overlay's
/// logical metric, and how far physically. Eviction during shedding prefers
/// the longest logical distance, breaking ties by physical distance
/// (Sec. 3.3).
struct BackwardFinger {
  dht::NodeIndex node = dht::kNoNode;
  std::uint64_t logical_distance = 0;
  double physical_distance = 0.0;
};

/// Slab of backward-finger sets.
using FingerPool = dht::Slab<BackwardFinger>;

class BackwardFingerList {
 public:
  bool add(FingerPool& pool, BackwardFinger f);
  bool remove(FingerPool& pool, dht::NodeIndex n);
  bool contains(const FingerPool& pool, dht::NodeIndex n) const;

  std::size_t size() const { return ref_.size(); }
  bool empty() const { return ref_.empty(); }
  std::span<const BackwardFinger> fingers(const FingerPool& pool) const {
    return pool.view(ref_);
  }

  /// Picks up to k fingers to shed: longest logical distance first, ties by
  /// longest physical distance. Writes node indices in eviction order into
  /// `out` (cleared first); `scratch` is sort space. Both are caller-owned
  /// so steady-state adaptation reuses warm capacity.
  void pick_evictions(const FingerPool& pool, std::size_t k,
                      std::vector<BackwardFinger>& scratch,
                      std::vector<dht::NodeIndex>& out) const;

  /// Returns the finger block to the pool (node teardown).
  void clear(FingerPool& pool) { pool.release(ref_); }

 private:
  dht::PoolRef ref_;
};

/// The per-overlay backing store for all pooled link state: candidate sets
/// and backward-finger sets. Each overlay owns exactly one and threads it
/// through every table/inlink operation.
struct LinkArena {
  dht::CandPool cands;
  FingerPool fingers;
};

}  // namespace ert::core
