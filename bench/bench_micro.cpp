// Micro-benchmarks (google-benchmark) for the hot paths of the simulator:
// event queue scheduling, Cycloid route steps, forwarding decisions, and
// indegree expansion probing. These are not paper figures; they guard the
// simulator's performance so the figure benches stay fast.
#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "cycloid/overlay.h"
#include "dht/ring.h"
#include "ert/forwarding.h"
#include "sim/simulator.h"

namespace {

using namespace ert;

void BM_SimulatorScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int sink = 0;
    for (int i = 0; i < 1000; ++i)
      sim.schedule((i * 7) % 100, [&sink] { ++sink; });
    sim.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorScheduleRun);

void BM_SimulatorScheduleCancel(benchmark::State& state) {
  // The churn/timeout pattern: most scheduled events are cancelled before
  // they fire. Exercises the slab free list and heap compaction.
  for (auto _ : state) {
    sim::Simulator sim;
    int sink = 0;
    std::vector<sim::EventHandle> handles;
    handles.reserve(1000);
    for (int i = 0; i < 1000; ++i)
      handles.push_back(sim.schedule((i * 7) % 100, [&sink] { ++sink; }));
    for (int i = 0; i < 1000; ++i)
      if (i % 8 != 0) handles[i].cancel();
    sim.run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorScheduleCancel);

void BM_SimulatorSteadyState(benchmark::State& state) {
  // Rolling horizon in steady state: slots and heap capacity recycle, so
  // per-event cost should be allocation-free.
  sim::Simulator sim;
  int sink = 0;
  for (int i = 0; i < 64; ++i) sim.schedule(1.0 + i, [&sink] { ++sink; });
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      sim.step();
      sim.schedule(64.0, [&sink] { ++sink; });
    }
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_SimulatorSteadyState);

cycloid::Overlay* full_cycloid(int d) {
  static cycloid::Overlay* o = [] {
    cycloid::OverlayOptions opts;
    opts.dimension = 8;
    auto* ov = new cycloid::Overlay(opts);
    cycloid::IdSpace space(8);
    for (std::uint64_t lv = 0; lv < space.size(); ++lv)
      ov->add_node(space.from_linear(lv), 1.0, 1 << 20, 0.8);
    Rng rng(1);
    for (dht::NodeIndex i = 0; i < ov->num_slots(); ++i)
      ov->build_table(i, rng);
    return ov;
  }();
  (void)d;
  return o;
}

void BM_CycloidRouteStep(benchmark::State& state) {
  auto* o = full_cycloid(8);
  Rng rng(2);
  for (auto _ : state) {
    const auto cur = rng.index(o->num_slots());
    const auto key = rng.bits() % o->space().size();
    cycloid::RouteCtx ctx;
    benchmark::DoNotOptimize(o->route_step(cur, key, ctx));
  }
}
BENCHMARK(BM_CycloidRouteStep);

void BM_CycloidFullLookup(benchmark::State& state) {
  auto* o = full_cycloid(8);
  Rng rng(3);
  std::size_t hops = 0;
  for (auto _ : state) {
    dht::NodeIndex cur = rng.index(o->num_slots());
    const auto key = rng.bits() % o->space().size();
    cycloid::RouteCtx ctx;
    for (;;) {
      const auto step = o->route_step(cur, key, ctx);
      if (step.arrived) break;
      cur = step.candidates.front();
      ++hops;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(hops));
}
BENCHMARK(BM_CycloidFullLookup);

void BM_ForwardTopologyAware(benchmark::State& state) {
  Rng rng(4);
  dht::CandPool pool;
  dht::RoutingEntry entry(dht::EntryKind::kCubical);
  std::vector<dht::NodeIndex> cands;
  for (dht::NodeIndex n = 0; n < 8; ++n) {
    entry.add(pool, n);
    cands.push_back(n);
  }
  core::TopoForwardOptions opts;
  const auto probe = [](dht::NodeIndex n) {
    core::ProbeResult r;
    r.load = static_cast<double>(n) * 0.3;
    r.heavy = n % 3 == 0;
    r.logical_distance = n * 17 % 5;
    return r;
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::forward_topology_aware(entry, cands, {}, opts, probe, rng));
  }
}
BENCHMARK(BM_ForwardTopologyAware);

void BM_ExpansionTargets(benchmark::State& state) {
  auto* o = full_cycloid(8);
  Rng rng(5);
  std::size_t offered = 0;
  for (auto _ : state) {
    o->for_each_expansion_target(rng.index(o->num_slots()), 64,
                                 [&](dht::NodeIndex, std::size_t) {
                                   ++offered;
                                   return true;
                                 });
    benchmark::DoNotOptimize(offered);
  }
}
BENCHMARK(BM_ExpansionTargets);

void BM_RingDirectorySuccessor(benchmark::State& state) {
  dht::RingDirectory dir(1 << 20);
  Rng rng(6);
  for (int i = 0; i < 10000; ++i) dir.insert(rng.bits() % (1 << 20), i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dir.successor(rng.bits() % (1 << 20)));
  }
}
BENCHMARK(BM_RingDirectorySuccessor);

}  // namespace

BENCHMARK_MAIN();
