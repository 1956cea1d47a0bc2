// Queueing and per-lookup state of the experiment engine (harness/engine.h):
// the query record, its 64-bit reference, the chunked query pool and the
// per-physical-node queue. Both transports use these exact structures; the
// inline transport simply never packs a shard other than 0 into a ref.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "dht/types.h"
#include "ert/forwarding.h"
#include "ert/load_tracker.h"
#include "harness/substrate.h"
#include "sim/simulator.h"

namespace ert::harness::detail {

/// A lookup in flight. Lives in a recycled QueryPool slot (fault-free
/// runs), so the storage scales with peak concurrency, not total lookups
/// issued; `id` is the lookup's stable monotonic identity for traces.
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
  /// Substrate routing context carried with the query.
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

/// Packed query reference: owner shard << 32 | pool slot.
using QueryRef = std::uint64_t;

constexpr QueryRef pack_ref(int shard, std::uint32_t slot) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(shard))
          << 32) |
         slot;
}
constexpr int ref_shard(QueryRef ref) { return static_cast<int>(ref >> 32); }
constexpr std::uint32_t ref_slot(QueryRef ref) {
  return static_cast<std::uint32_t>(ref);
}

/// Chunked, reference-stable query storage for one shard.
///
/// Cross-shard safety: only the owner shard (or the quiescent coordinator)
/// claims and releases slots, but any shard may dereference a ref it was
/// handed. Chunks never move once allocated, and the chunk index is
/// reserved up front so push_back never reallocates it — a remote shard
/// walking chunks_[i] can race only with the append of a *new* pointer at a
/// higher index, never with relocation of the ones it reads. A ref reaches
/// a remote shard only through a window barrier, which orders the owner's
/// chunk append before the remote dereference.
class QueryPool {
 public:
  static constexpr std::uint32_t kChunkShift = 10;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  void init(std::size_t max_queries) {
    chunks_.reserve(max_queries / kChunkSize + 2);
  }

  Query& at(std::uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }

  /// Settled slots are reused LIFO when `recycle` is set. Faulted runs
  /// never recycle: a straggler copy of a settled lookup may still
  /// dereference its slot and must keep finding done == true.
  std::uint32_t claim(std::uint64_t id, bool recycle) {
    if (recycle && !free_.empty()) {
      const std::uint32_t slot = free_.back();
      free_.pop_back();
      at(slot).reset(id);
      return slot;
    }
    if (size_ == chunks_.size() * kChunkSize) {
      assert(chunks_.size() < chunks_.capacity() &&
             "QueryPool::init sized the chunk index too small");
      chunks_.push_back(std::make_unique<Query[]>(kChunkSize));
    }
    const std::uint32_t slot = size_++;
    at(slot).id = id;
    return slot;
  }

  void release(std::uint32_t slot) { free_.push_back(slot); }

 private:
  std::vector<std::unique_ptr<Query[]>> chunks_;
  std::vector<std::uint32_t> free_;
  std::uint32_t size_ = 0;
};

/// FIFO of waiting query refs: a ring over a lazily grown power-of-two
/// vector. An idle node costs 32 bytes here where libstdc++'s std::deque
/// eagerly allocates a ~500-byte chunk map per instance — at 2^20 nodes
/// that difference alone is half a gigabyte.
class MiniQueue {
 public:
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  void push_back(QueryRef v) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = v;
    ++size_;
  }
  QueryRef front() const { return buf_[head_]; }
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
    std::vector<QueryRef> bigger(buf_.empty() ? 4 : buf_.size() * 2);
    for (std::uint32_t i = 0; i < size_; ++i)
      bigger[i] = buf_[(head_ + i) & (buf_.size() - 1)];
    buf_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<QueryRef> buf_;  ///< capacity always a power of two.
  std::uint32_t head_ = 0;
  std::uint32_t size_ = 0;
};

/// Per physical node queueing and accounting state.
struct RealNode {
  /// Normalized capacity c-hat: queries the node can handle per unit
  /// period (mean 1 across the network). Congestion g = queue / c-hat, so
  /// "ideally g stays around 1" (Sec. 5) holds when each node has about
  /// its fair backlog. The indegree bound floor(0.5 + alpha*c-hat) is a
  /// separate quantity (see ert::core::max_indegree).
  double cap = 1.0;
  bool alive = true;
  core::LoadTracker tracker;
  std::size_t in_service = 0;
  MiniQueue waiting;              ///< queued query refs.
  std::vector<QueryRef> serving;  ///< query refs in service.
  double peak_congestion = 0.0;
  int grow_backoff = 0;  ///< expansion backoff after fruitless probes.
  int grow_wait = 0;
  /// Pending completion of the single FIFO server (cancelled when the node
  /// departs or crashes with a query in service). Node-level rather than
  /// per-query: under message duplication one query id can be in service at
  /// two nodes at once, and each node must only ever cancel its own event.
  sim::EventHandle service_ev;
};

}  // namespace ert::harness::detail
