// Queueing and per-lookup state shared by the two experiment engines: the
// serial single-queue Engine (experiment.cpp) and the sharded conservative
// PDES engine (pdes_engine.cpp). The structures are templatized on the
// query-slot type: the serial engine indexes its recycled query vector with
// 32-bit slots (the historical layout, kept bit-identical), while the
// sharded engine threads 64-bit packed QueryRefs (owner shard << 32 | slot)
// through the same queues.
#pragma once

#include <cstdint>
#include <vector>

#include "dht/types.h"
#include "ert/forwarding.h"
#include "ert/load_tracker.h"
#include "harness/substrate.h"
#include "sim/simulator.h"

namespace ert::harness::detail {

/// A lookup in flight. Lives in a recycled slot of the engine's queries_
/// vector (fault-free runs), so the storage scales with peak concurrency,
/// not total lookups issued; `id` is the lookup's stable monotonic identity
/// for traces.
struct Query {
  std::uint64_t id = 0;   ///< monotonic issue number, never reused.
  std::uint64_t key = 0;
  dht::NodeIndex cur = dht::kNoNode;  ///< overlay node currently holding it.
  double start_time = 0.0;
  double penalty = 0.0;  ///< timeout penalty to fold into the next hop.
  std::size_t hops = 0;
  std::size_t heavy_met = 0;
  std::size_t timeouts = 0;
  core::OverloadedSet overloaded;  ///< the A set of Algorithm 4.
  /// Substrate routing context carried with the query (both engines).
  SubstrateOps::RouteCtxBlob rctx;
  bool done = false;
  bool returning = false;  ///< data-forwarding mode: response leg.
  bool fault_hit = false;  ///< saw an injected fault (drop/crash) en route.
  /// Encoded size of the in-flight tracked frame carrying this query
  /// (bytes accounting only; 0 whenever the query is not on the wire).
  std::uint32_t wire_bytes = 0;
  std::vector<dht::NodeIndex> path;  ///< recorded when data forwarding is on.

  /// Readies a recycled slot for a fresh lookup: scalar state zeroed,
  /// the overloaded set's spill and the path vector keep their capacity.
  void reset(std::uint64_t new_id) {
    id = new_id;
    key = 0;
    cur = dht::kNoNode;
    start_time = 0.0;
    penalty = 0.0;
    hops = 0;
    heavy_met = 0;
    timeouts = 0;
    overloaded.clear();
    rctx = SubstrateOps::RouteCtxBlob{};
    done = false;
    returning = false;
    fault_hit = false;
    wire_bytes = 0;
    path.clear();
  }
};

/// FIFO of waiting query slots: a ring over a lazily grown power-of-two
/// vector. An idle node costs 32 bytes here where libstdc++'s std::deque
/// eagerly allocates a ~500-byte chunk map per instance — at 2^20 nodes
/// that difference alone is half a gigabyte.
template <typename Slot>
class MiniQueueT {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  void push_back(Slot v) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = v;
    ++size_;
  }
  Slot front() const { return buf_[head_]; }
  void pop_front() {
    head_ = (head_ + 1) & (static_cast<std::uint32_t>(buf_.size()) - 1);
    --size_;
  }
  void clear() {
    head_ = 0;
    size_ = 0;
  }
  template <typename Fn>
  void for_each(Fn&& fn) const {  // FIFO order
    for (std::uint32_t i = 0; i < size_; ++i)
      fn(buf_[(head_ + i) & (buf_.size() - 1)]);
  }

 private:
  void grow() {
    std::vector<Slot> bigger(buf_.empty() ? 4 : buf_.size() * 2);
    for (std::uint32_t i = 0; i < size_; ++i)
      bigger[i] = buf_[(head_ + i) & (buf_.size() - 1)];
    buf_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<Slot> buf_;  ///< capacity always a power of two.
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
};

/// Per physical node queueing and accounting state.
template <typename Slot>
struct RealNodeT {
  /// Normalized capacity c-hat: queries the node can handle per unit
  /// period (mean 1 across the network). Congestion g = queue / c-hat, so
  /// "ideally g stays around 1" (Sec. 5) holds when each node has about
  /// its fair backlog. The indegree bound floor(0.5 + alpha*c-hat) is a
  /// separate quantity (see ert::core::max_indegree).
  double cap = 1.0;
  bool alive = true;
  core::LoadTracker tracker;
  std::size_t in_service = 0;
  MiniQueueT<Slot> waiting;        ///< queued query slots.
  std::vector<Slot> serving;       ///< query slots in service.
  double peak_congestion = 0.0;
  int grow_backoff = 0;  ///< expansion backoff after fruitless probes.
  int grow_wait = 0;
  /// Pending completion of the single FIFO server (cancelled when the node
  /// departs or crashes with a query in service). Node-level rather than
  /// per-query: under message duplication one query id can be in service at
  /// two nodes at once, and each node must only ever cancel its own event.
  sim::EventHandle service_ev;
};

/// The serial engine's historical instantiations.
using MiniQueue = MiniQueueT<std::uint32_t>;
using RealNode = RealNodeT<std::uint32_t>;

}  // namespace ert::harness::detail
