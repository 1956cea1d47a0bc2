// Zero-allocation proof for the per-hop fast path (this binary replaces
// the global operator new with a counting hook).
//
// The tentpole claim of the fast-path refactor is that a steady-state
// routing hop — route_step through the substrate adapter plus the
// topology-aware forwarding decision — touches the heap not at all once
// the scratch buffers are warm. These tests pin that claim directly: warm
// a driver on every substrate, flip the counter on, run a window of full
// lookups, and assert the count stayed zero.
//
// ERT_THREADS (the same knob the experiment harness uses for per-seed
// fan-out) also runs that many independent drivers concurrently, each with
// its own substrate and scratch state, proving the fast path needs no
// shared mutable state.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "dht/route_scratch.h"
#include "dht/routing_entry.h"
#include "ert/forwarding.h"
#include "harness/substrate.h"
#include "sim/sharded.h"
#include "wire/meter.h"
#include "wire/wire.h"

namespace {

std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_alloc_count{0};

void note_alloc() {
  if (g_count_allocs.load(std::memory_order_relaxed))
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
}

void* counted_alloc(std::size_t size) {
  note_alloc();
  return std::malloc(size ? size : 1);
}

void* counted_aligned_alloc(std::size_t size, std::size_t align) {
  note_alloc();
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     size ? size : 1) != 0)
    return nullptr;
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t al) {
  if (void* p = counted_aligned_alloc(size, static_cast<std::size_t>(al)))
    return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return ::operator new(size, al);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace ert::harness {
namespace {

using dht::NodeIndex;

/// One self-contained routing world: a substrate plus the scratch state a
/// per-seed engine would own. run_queries drives full lookups through the
/// adapter route_step and the templated forwarding fast path — the exact
/// call pattern of the experiment engine's hop loop, minus queueing.
struct Driver {
  std::unique_ptr<SubstrateOps> sub;
  dht::RouteScratch route_scratch;
  core::ForwardScratch fwd_scratch;
  core::OverloadedSet overloaded;
  Rng rng;
  // Filled during the counting window, checked by gtest afterwards (EXPECT
  // itself allocates, so no asserts inside the window).
  std::size_t completed = 0;
  std::size_t hops = 0;
  bool route_failed = false;

  explicit Driver(SubstrateKind kind, std::uint64_t seed) : rng(seed) {
    SimParams params;
    params.num_nodes = 192;
    sub = make_substrate(kind, params, /*capacity_biased=*/false,
                         /*enforce_bounds=*/false,
                         /*ids_needed=*/2 * params.num_nodes,
                         [](NodeIndex, NodeIndex) { return 1.0; });
    for (std::size_t i = 0; i < params.num_nodes && !sub->id_space_full(); ++i)
      sub->add_node(rng, 1.0, 1 << 20, 0.8);
    for (NodeIndex i = 0; i < sub->num_slots(); ++i) sub->build_table(i, rng);
  }

  /// Pre-sizes every reusable buffer past anything the window can need and
  /// forces the OverloadedSet's one-time spill, so the counting window
  /// starts with warm capacity everywhere.
  void prewarm() {
    route_scratch.candidates.reserve(1024);
    route_scratch.ranked.reserve(1024);
    fwd_scratch.pool.reserve(1024);
    fwd_scratch.polled.reserve(64);
    fwd_scratch.results.reserve(64);
    fwd_scratch.light.reserve(64);
    fwd_scratch.sample.reserve(64);
    fwd_scratch.sample_pool.reserve(1024);
    fwd_scratch.newly_overloaded.reserve(64);
    for (std::size_t i = 0; i < core::kOverloadedSetCap; ++i)
      overloaded.insert(static_cast<NodeIndex>(i));
    overloaded.clear();
    run_queries(40);  // warm the adapter's per-query context storage too
  }

  void run_queries(int count) {
    core::TopoForwardOptions opts;
    opts.poll_size = 2;
    // Synthetic load probe, allocation-free by construction.
    const auto probe = [this](NodeIndex n) {
      core::ProbeResult r;
      const auto h = static_cast<std::uint64_t>(n) * 2654435761u;
      r.load = static_cast<double>(h % 23) / 8.0;
      r.heavy = (h & 7u) == 0;
      r.logical_distance = sub->logical_distance_to_key(n, 0);
      r.physical_distance = 1.0;
      r.unit_load = 0.25;
      return r;
    };
    for (int q = 0; q < count; ++q) {
      NodeIndex cur = rng.index(sub->num_slots());
      const std::uint64_t key = rng.bits() % sub->key_space();
      SubstrateOps::RouteCtxBlob ctx;
      overloaded.clear();
      for (int hop = 0; hop < 128; ++hop) {
        const HopStep step = sub->route_step(cur, key, ctx, route_scratch);
        if (step.arrived) {
          ++completed;
          break;
        }
        const auto& cands = route_scratch.candidates;
        if (cands.empty()) {
          route_failed = true;
          break;
        }
        NodeIndex next = cands.front();
        dht::RoutingEntry* entry =
            step.slot != kNoSlot ? sub->entry(cur, step.slot) : nullptr;
        if (entry != nullptr && cands.size() > 1) {
          const core::ForwardStep f = core::forward_topology_aware(
              *entry, std::span<const NodeIndex>(cands), overloaded, opts,
              probe, rng, fwd_scratch);
          if (f.next != dht::kNoNode) next = f.next;
          for (NodeIndex o : fwd_scratch.newly_overloaded)
            if (overloaded.size() < core::kOverloadedSetCap)
              overloaded.insert(o);
        }
        cur = next;
        ++hops;
      }
    }
  }
};

int thread_count() {
  const char* e = std::getenv("ERT_THREADS");
  if (!e || !*e) return 1;
  const int n = std::atoi(e);
  return n > 0 ? n : 1;
}

class AllocFreeHopLoop : public ::testing::TestWithParam<SubstrateKind> {};

TEST_P(AllocFreeHopLoop, SteadyStateWindowAllocatesNothing) {
  const int threads = thread_count();
  std::vector<std::unique_ptr<Driver>> drivers;
  for (int t = 0; t < threads; ++t) {
    drivers.push_back(
        std::make_unique<Driver>(GetParam(), 100 + static_cast<std::uint64_t>(t)));
    drivers.back()->prewarm();
  }

  // Threads are created (and their stacks allocated) before the counter
  // turns on; a spin flag releases them into the measurement window.
  std::atomic<bool> start{false};
  std::atomic<int> done{0};
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) {
    pool.emplace_back([&, t] {
      while (!start.load(std::memory_order_acquire)) {}
      drivers[static_cast<std::size_t>(t)]->run_queries(150);
      done.fetch_add(1, std::memory_order_release);
    });
  }

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  start.store(true, std::memory_order_release);
  drivers[0]->run_queries(150);
  while (done.load(std::memory_order_acquire) != threads - 1) {}
  g_count_allocs.store(false);
  for (auto& th : pool) th.join();

  EXPECT_EQ(g_alloc_count.load(), 0u)
      << "heap allocations leaked into the steady-state hop loop on "
      << to_string(GetParam()) << " with " << threads << " thread(s)";
  for (const auto& d : drivers) {
    EXPECT_FALSE(d->route_failed);
    EXPECT_GT(d->completed, 0u);
    EXPECT_GT(d->hops, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSubstrates, AllocFreeHopLoop,
                         ::testing::Values(SubstrateKind::kCycloid,
                                           SubstrateKind::kChord,
                                           SubstrateKind::kPastry,
                                           SubstrateKind::kCan,
                                           SubstrateKind::kKademlia,
                                           SubstrateKind::kD1ht),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

/// The other steady-state path: the periodic adaptation sweep. Shedding
/// returns candidate/finger blocks to the slabs and growing reacquires
/// them, so once every size class and scratch vector has seen its peak the
/// shed/grow cycle must be heap-quiet too.
struct AdaptDriver {
  std::unique_ptr<SubstrateOps> sub;
  Rng rng;
  std::size_t shed_total = 0;
  std::size_t grown_total = 0;

  explicit AdaptDriver(SubstrateKind kind, std::uint64_t seed) : rng(seed) {
    SimParams params;
    params.num_nodes = 192;
    sub = make_substrate(kind, params, /*capacity_biased=*/false,
                         /*enforce_bounds=*/true,
                         /*ids_needed=*/2 * params.num_nodes,
                         [](NodeIndex, NodeIndex) { return 1.0; });
    for (std::size_t i = 0; i < params.num_nodes && !sub->id_space_full(); ++i)
      sub->add_node(rng, 1.0, /*max_indegree=*/8, 0.8);
    for (NodeIndex i = 0; i < sub->num_slots(); ++i) sub->build_table(i, rng);
  }

  /// One engine-shaped sweep: every node sheds a couple of inlinks (bound
  /// follows, as in Algorithm 3), then raises its bound and regrows.
  void sweep() {
    for (NodeIndex v = 0; v < sub->num_slots(); ++v) {
      if (!sub->alive(v)) continue;
      auto& budget = sub->budget(v);
      const int before = budget.max_indegree();
      budget.lower_bound_by(2);
      const int shed = sub->shed_indegree(v, 2);
      budget.raise_bound_by(std::max(1, before - shed) -
                            budget.max_indegree());
      shed_total += static_cast<std::size_t>(shed);
      budget.raise_bound_by(2);
      const int gained = sub->expand_indegree(v, 2, /*max_probes=*/24);
      if (gained < 2) budget.lower_bound_by(2 - gained);
      grown_total += static_cast<std::size_t>(gained);
    }
  }
};

class AllocFreeAdaptation : public ::testing::TestWithParam<SubstrateKind> {};

TEST_P(AllocFreeAdaptation, SteadyStateSweepsAllocateNothing) {
  const int threads = thread_count();
  std::vector<std::unique_ptr<AdaptDriver>> drivers;
  for (int t = 0; t < threads; ++t) {
    drivers.push_back(std::make_unique<AdaptDriver>(
        GetParam(), 300 + static_cast<std::uint64_t>(t)));
    // Generous warm-up: lets slab size classes, eviction scratch, and the
    // expansion enumerators reach their steady-state footprints.
    for (int s = 0; s < 50; ++s) drivers.back()->sweep();
  }

  std::atomic<bool> start{false};
  std::atomic<int> done{0};
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) {
    pool.emplace_back([&, t] {
      while (!start.load(std::memory_order_acquire)) {}
      for (int s = 0; s < 10; ++s)
        drivers[static_cast<std::size_t>(t)]->sweep();
      done.fetch_add(1, std::memory_order_release);
    });
  }

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  start.store(true, std::memory_order_release);
  for (int s = 0; s < 10; ++s) drivers[0]->sweep();
  while (done.load(std::memory_order_acquire) != threads - 1) {}
  g_count_allocs.store(false);
  for (auto& th : pool) th.join();

  EXPECT_EQ(g_alloc_count.load(), 0u)
      << "heap allocations leaked into the adaptation sweep on "
      << to_string(GetParam()) << " with " << threads << " thread(s)";
  for (const auto& d : drivers) {
    EXPECT_GT(d->shed_total, 0u);
    EXPECT_GT(d->grown_total, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSubstrates, AllocFreeAdaptation,
                         ::testing::Values(SubstrateKind::kCycloid,
                                           SubstrateKind::kChord,
                                           SubstrateKind::kPastry,
                                           SubstrateKind::kCan,
                                           SubstrateKind::kKademlia,
                                           SubstrateKind::kD1ht),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

/// The sharded PDES kernel (docs/PDES.md): per-shard pooled queues, the
/// sender-owned mailbox lanes, and the window barrier exchange. After a
/// warm-up batch has sized every shard's slab/heap, every mailbox lane,
/// and the worker pool, running further event batches — including
/// cross-shard posts every few events — must be heap-silent.
struct ShardedKernelDriver {
  static constexpr sim::Time kLookahead = 0.010;

  sim::ShardedSimulator driver;
  std::vector<std::size_t> remaining;
  std::vector<std::size_t> fired;
  std::vector<std::size_t> received;  ///< cross-shard deliveries per shard.

  explicit ShardedKernelDriver(int shards)
      : driver(shards, kLookahead),
        remaining(static_cast<std::size_t>(shards), 0),
        fired(static_cast<std::size_t>(shards), 0),
        received(static_cast<std::size_t>(shards), 0) {
    driver.reserve_mailboxes(256);
  }

  /// Self-rescheduling per-shard chain; every fourth firing also posts a
  /// cross-shard message at the lookahead horizon (the exact transport
  /// pattern of the sharded engine's send_hop).
  void chain(int s) {
    const auto si = static_cast<std::size_t>(s);
    ++fired[si];
    if (driver.shards() > 1 && (fired[si] & 3u) == 0) {
      const int to = (s + 1) % driver.shards();
      driver.post(s, to, driver.shard(s).now() + kLookahead,
                  [this, to] { ++received[static_cast<std::size_t>(to)]; });
    }
    if (--remaining[si] == 0) return;
    driver.shard(s).schedule(0.004, [this, s] { chain(s); });
  }

  /// Seeds one chain per shard and drives the window loop to quiescence.
  void run_batch(std::size_t events_per_shard) {
    for (int s = 0; s < driver.shards(); ++s) {
      remaining[static_cast<std::size_t>(s)] = events_per_shard;
      driver.shard(s).schedule(0.004, [this, s] { chain(s); });
    }
    driver.run();
  }
};

class AllocFreeShardedKernel : public ::testing::TestWithParam<int> {};

TEST_P(AllocFreeShardedKernel, SteadyStateWindowsAllocateNothing) {
  ShardedKernelDriver d(GetParam());
  // Two warm-up batches: the first sizes slabs, heaps, and lanes; the
  // second proves those footprints are the steady state before counting.
  d.run_batch(300);
  d.run_batch(300);

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  d.run_batch(300);
  g_count_allocs.store(false);

  EXPECT_EQ(g_alloc_count.load(), 0u)
      << "heap allocations leaked into the sharded window loop with "
      << GetParam() << " shard(s)";
  for (int s = 0; s < d.driver.shards(); ++s)
    EXPECT_EQ(d.fired[static_cast<std::size_t>(s)], 900u);
  if (d.driver.shards() > 1) {
    std::size_t delivered = 0;
    for (const std::size_t r : d.received) delivered += r;
    EXPECT_GT(delivered, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(SimThreads, AllocFreeShardedKernel,
                         ::testing::Values(1, 4), [](const auto& info) {
                           return "shards" + std::to_string(info.param);
                         });

/// The wire serialize path (docs/WIRE.md): encode into an arena-pooled
/// buffer, account per-type and per-plane totals, and charge the link's
/// token bucket. After reserve_links has pre-created the buckets and the
/// pool, a steady-state window of sends — every message type, including
/// Forward frames carrying a full A set — must be heap-silent. Capture
/// mode is excluded by design: it appends to a growing string and is a
/// golden-test-only configuration.
TEST(AllocFreeWireSerialize, SteadyStateSendsAllocateNothing) {
  constexpr std::size_t kLinks = 64;
  wire::MeterConfig cfg;
  cfg.bytes = true;
  double now = 0.0;
  wire::ByteMeter meter(cfg, [&now] { return now; });
  meter.set_link_map([](std::size_t v) { return v % kLinks; });
  meter.reserve_links(kLinks);

  std::size_t aset[core::kOverloadedSetCap];
  for (std::size_t i = 0; i < core::kOverloadedSetCap; ++i)
    aset[i] = i * 2654435761u;
  Rng rng(41);

  // One warm lap over every type and link, then the counted window runs
  // the same mix — the warm lap proves nothing in it was one-time growth.
  std::uint64_t sent = 0;
  const auto lap = [&](int rounds) {
    for (int it = 0; it < rounds; ++it) {
      const std::uint64_t v = rng.bits();
      const std::size_t link = rng.index(kLinks);
      now += 0.001;
      sent += meter.send(wire::Probe{v, v >> 7, v >> 13, v & 0xFF}, link);
      sent += meter.send(wire::ProbeReply{v, v >> 13, v >> 7, v & 0xFF}, link);
      const auto len =
          static_cast<std::uint32_t>(rng.index(core::kOverloadedSetCap + 1));
      const std::uint32_t size = meter.send(
          wire::Forward{v, v >> 3, v >> 17, v >> 23, v & 0x3F,
                        (v & 1) != 0, len, aset},
          link);
      meter.in_flight_add(size);
      meter.in_flight_sub(size);
      sent += size;
      sent += meter.send(wire::AdaptShed{v >> 5, 2}, link);
      sent += meter.send(wire::AdaptGrow{v >> 5, 3}, link);
      meter.on_backward_add(v >> 9, v >> 11, 7);
      meter.on_backward_drop(v >> 9, v >> 11, 6);
      sent += meter.send(wire::Join{v >> 21, v & 0x7F}, link);
      sent += meter.send(wire::Leave{v >> 21}, link);
    }
  };
  lap(64);

  g_alloc_count.store(0);
  g_count_allocs.store(true);
  lap(256);
  g_count_allocs.store(false);

  EXPECT_EQ(g_alloc_count.load(), 0u)
      << "heap allocations leaked into the wire serialize path";
  EXPECT_GT(sent, 0u);
  EXPECT_EQ(meter.totals().total_msgs(), 320u * 9u);
  EXPECT_EQ(meter.totals().in_flight_bytes, 0u);
}

}  // namespace
}  // namespace ert::harness
