// Per-layer timing driver. Every timed region is a call into a module's
// public API; nothing inside src/ is instrumented. Timings are per call
// (two steady_clock reads each, ~20-40 ns included) or per batch where a
// call is too short to time alone. Spans of the phases are recorded in
// memory and printed with the metrics at exit.
#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/rss.h"
#include "dht/route_scratch.h"
#include "dht/routing_entry.h"
#include "ert/adaptation.h"
#include "ert/capacity.h"
#include "ert/forwarding.h"
#include "harness/substrate.h"
#include "net/proximity.h"
#include "sim/sharded.h"
#include "sim/simulator.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using ert::dht::NodeIndex;
using ert::harness::kNoSlot;
using ert::harness::Protocol;

double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

/// Per-call samples; median and p99 by nearest rank.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  std::size_t count() const { return v_.size(); }
  double pct(double p) {
    if (v_.empty()) return 0.0;
    std::sort(v_.begin(), v_.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v_.size())));
    return v_[std::min(v_.size() - 1, rank == 0 ? 0 : rank - 1)];
  }

 private:
  std::vector<double> v_;
};

/// Phase spans: name, start, end (microseconds since the driver started)
/// and the index of the enclosing span (-1 at the root).
class SpanLog {
 public:
  void begin(const char* name) {
    spans_.push_back({name, now_us(), 0.0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
  }
  void end() {
    spans_[static_cast<std::size_t>(stack_.back())].end_us = now_us();
    stack_.pop_back();
  }
  void print() const {
    std::printf("\"spans\": [");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::printf("%s{\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f, "
                  "\"parent\": %d}",
                  i ? ", " : "", s.name, s.start_us, s.end_us, s.parent);
    }
    std::printf("]");
  }

 private:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    int parent;
  };
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class Metrics {
 public:
  void put(const std::string& name, double v) { kv_.emplace_back(name, v); }
  /// `name` = median, `name.p99`, `name.calls`.
  void timing(const std::string& name, Samples& s) {
    put(name, s.pct(50));
    put(name + ".p99", s.pct(99));
    put(name + ".calls", static_cast<double>(s.count()));
  }
  void print() const {
    std::printf("\"metrics\": {");
    for (std::size_t i = 0; i < kv_.size(); ++i)
      std::printf("%s\"%s\": %.9g", i ? ", " : "", kv_[i].first.c_str(),
                  kv_[i].second);
    std::printf("}");
  }

 private:
  std::vector<std::pair<std::string, double>> kv_;
};

/// The workload's network, built as the experiment engine builds it (same
/// calls in the same order on the same Rng), plus the per-real-node state
/// the layer drivers need.
class Network {
 public:
  explicit Network(const Workload& w) : w_(w), rng_(w.params.seed) {}
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  void build(SpanLog& spans, Samples& add_us, Samples& table_us) {
    const ert::SimParams& p = w_.params;
    const std::size_t n = p.num_nodes;
    caps_ = ert::core::CapacityModel::generate(n, p, rng_);
    prox_ = ert::net::ProximityMap(n, rng_);
    std::size_t ids_needed = n;
    if (p.churn_interarrival > 0) ids_needed = 2 * n;
    const bool ert_proto = ert::harness::is_ert(w_.protocol);
    sub_ = ert::harness::make_substrate(
        w_.substrate, p, w_.protocol == Protocol::kNS,
        w_.protocol == Protocol::kNS || ert_proto, ids_needed,
        [this](NodeIndex a, NodeIndex b) {
          return prox_.distance(real_of_.at(a), real_of_.at(b));
        });
    real_of_.reserve(n + n / 2);

    spans.begin("harness.build.add_node");
    sub_->begin_bulk_join(n);
    for (std::size_t r = 0; r < n; ++r) {
      const int dinf = max_indegree_of(r);
      const auto t0 = Clock::now();
      sub_->add_node(rng_, caps_.normalized(r), dinf, p.beta);
      add_us.add(ns_between(t0, Clock::now()) / 1e3);
      real_of_.push_back(r);
    }
    sub_->end_bulk_join();
    spans.end();

    spans.begin("harness.build.build_table");
    for (NodeIndex v = 0; v < sub_->num_slots(); ++v) {
      const auto t0 = Clock::now();
      sub_->build_table(v, rng_);
      table_us.add(ns_between(t0, Clock::now()) / 1e3);
    }
    spans.end();

    if (ert_proto) {
      // Algorithm 2's initial probing, in the engine's shuffled order.
      spans.begin("harness.build.initial_assignment");
      std::vector<NodeIndex> order(sub_->num_slots());
      for (NodeIndex v = 0; v < order.size(); ++v) order[v] = v;
      rng_.shuffle(order);
      for (NodeIndex v : order) {
        const auto& budget = sub_->budget(v);
        const int want = budget.initial_target() - budget.indegree();
        if (want > 0) sub_->expand_indegree(v, want, 256);
      }
      spans.end();
    }
    grow_wait_.assign(n, 0);
    grow_backoff_.assign(n, 0);
  }

  int max_indegree_of(std::size_t r) {
    if (ert::harness::is_ert(w_.protocol) || w_.protocol == Protocol::kNS)
      return ert::core::max_indegree(
          w_.params.alpha(), caps_.estimated(r, w_.params.gamma_c, rng_));
    return 1 << 20;
  }

  ert::harness::SubstrateOps& sub() { return *sub_; }
  ert::Rng& rng() { return rng_; }
  std::size_t real_of(NodeIndex v) const { return real_of_.at(v); }
  double cap(std::size_t r) const { return caps_.normalized(r); }
  double distance(std::size_t a, std::size_t b) const {
    return prox_.distance(a, b);
  }

  std::uint64_t random_key() {
    const std::uint64_t space = sub_->key_space();
    return space ? rng_.bits() % space : rng_.bits();
  }
  NodeIndex random_alive() {
    for (;;) {
      const NodeIndex v = rng_.index(sub_->num_slots());
      if (sub_->alive(v)) return v;
    }
  }

  /// One Algorithm-3 pass over every live node at the given per-real-node
  /// period peaks, mirroring the engine's adaptation sweep. With `per_call`
  /// each shed/expand call is timed on its own.
  void adaptation_sweep(const std::vector<double>& peak, bool per_call,
                        Samples& shed_us, Samples& expand_us) {
    const ert::SimParams& p = w_.params;
    for (NodeIndex v = 0; v < sub_->num_slots(); ++v) {
      if (!sub_->alive(v)) continue;
      const std::size_t r = real_of_.at(v);
      const auto dec =
          ert::core::decide_adaptation(peak[r], caps_.normalized(r), p.gamma_l, p.mu);
      auto& budget = sub_->budget(v);
      if (dec.action == ert::core::AdaptAction::kShed) {
        const int before = budget.max_indegree();
        budget.lower_bound_by(dec.delta);
        const auto t0 = per_call ? Clock::now() : Clock::time_point{};
        const int shed = sub_->shed_indegree(v, dec.delta);
        if (per_call) shed_us.add(ns_between(t0, Clock::now()) / 1e3);
        budget.raise_bound_by(std::max(1, before - shed) - budget.max_indegree());
        grow_backoff_[r] = 0;
        grow_wait_[r] = 0;
      } else if (dec.action == ert::core::AdaptAction::kGrow) {
        if (grow_wait_[r] > 0) {
          --grow_wait_[r];
          continue;
        }
        budget.raise_bound_by(dec.delta);
        const auto t0 = per_call ? Clock::now() : Clock::time_point{};
        const int gained = sub_->expand_indegree(
            v, dec.delta,
            std::min<std::size_t>(256, 16 + 4 * static_cast<std::size_t>(dec.delta)));
        if (per_call) expand_us.add(ns_between(t0, Clock::now()) / 1e3);
        if (gained < dec.delta) budget.lower_bound_by(dec.delta - gained);
        if (gained == 0) {
          grow_backoff_[r] = std::min(512, std::max(8, grow_backoff_[r] * 2));
          grow_wait_[r] = grow_backoff_[r];
        } else {
          grow_backoff_[r] = 0;
        }
      }
    }
  }

  /// A churn join as the engine performs it (skipped when the id space is
  /// full). Only the overlay calls are timed.
  void join(Samples& join_us) {
    const ert::SimParams& p = w_.params;
    const double raw =
        rng_.bounded_pareto(p.pareto_shape, p.capacity_lo, p.capacity_hi);
    const std::size_t r = caps_.add_node(raw);
    prox_.add_node(rng_);
    grow_wait_.push_back(0);
    grow_backoff_.push_back(0);
    if (sub_->id_space_full()) return;
    const int dinf = max_indegree_of(r);
    const auto t0 = Clock::now();
    const NodeIndex v = sub_->add_node(rng_, caps_.normalized(r), dinf, p.beta);
    real_of_.push_back(r);
    sub_->build_table(v, rng_);
    if (ert::harness::is_ert(w_.protocol)) {
      const auto& budget = sub_->budget(v);
      const int want = budget.initial_target() - budget.indegree();
      if (want > 0) sub_->expand_indegree(v, want, 256);
    }
    join_us.add(ns_between(t0, Clock::now()) / 1e3);
  }

 private:
  const Workload& w_;
  ert::Rng rng_;
  ert::core::CapacityModel caps_;
  ert::net::ProximityMap prox_;
  std::unique_ptr<ert::harness::SubstrateOps> sub_;
  std::vector<std::size_t> real_of_;  ///< overlay slot -> real node.
  std::vector<int> grow_wait_, grow_backoff_;
};

/// One recorded hop for the Algorithm-4 phase.
struct Hop {
  std::uint32_t lookup;
  NodeIndex cur;
  std::size_t slot;
  std::uint64_t key;
  std::vector<NodeIndex> candidates;
};

/// Routes `lookups` random lookups along each hop's preferred candidate,
/// timing every route_step (RouteCtxBlob form) and keeping up to
/// `keep_hops` hops for the Algorithm-4 phase.
void route_phase(Network& net, std::size_t lookups, std::size_t keep_hops,
                 Samples& step_ns, double& candidates_per_step,
                 std::vector<Hop>& hops) {
  auto& sub = net.sub();
  ert::dht::RouteScratch scratch;
  const std::size_t hop_cap = 64 + sub.num_slots() / 2;
  std::size_t steps = 0, candidates = 0;
  for (std::size_t l = 0; l < lookups; ++l) {
    const std::uint64_t key = net.random_key();
    NodeIndex cur = net.random_alive();
    ert::harness::SubstrateOps::RouteCtxBlob ctx;
    for (std::size_t h = 0; h < hop_cap; ++h) {
      const auto t0 = Clock::now();
      const auto step = sub.route_step(cur, key, ctx, scratch);
      step_ns.add(ns_between(t0, Clock::now()));
      if (step.arrived || scratch.candidates.empty()) break;
      ++steps;
      candidates += scratch.candidates.size();
      if (hops.size() < keep_hops)
        hops.push_back({static_cast<std::uint32_t>(l), cur, step.slot, key,
                        scratch.candidates});
      cur = scratch.candidates.front();
    }
  }
  candidates_per_step =
      steps ? static_cast<double>(candidates) / static_cast<double>(steps) : 0.0;
}

/// Algorithm 4 on the recorded hops, against per-node loads of which a
/// `heavy_share` fraction exceed gamma_l. Each query's overloaded set A
/// accumulates across its hops as in the engine.
void forward_phase(Network& net, const ert::SimParams& p,
                   const std::vector<Hop>& hops, double heavy_share,
                   Samples& forward_ns) {
  auto& sub = net.sub();
  const std::size_t slots = sub.num_slots();
  std::vector<double> load(slots);
  for (std::size_t r = 0; r < slots; ++r)
    load[r] = p.gamma_l * (net.rng().bernoulli(heavy_share)
                               ? 1.0 + net.rng().uniform(0.01, 1.0)
                               : net.rng().uniform(0.0, 1.0));
  ert::core::TopoForwardOptions opts;
  opts.poll_size = p.poll_size;
  opts.use_memory = p.use_memory;
  opts.track_overloaded = p.propagate_overloaded;
  ert::core::ForwardScratch scratch;
  ert::core::OverloadedSet overloaded;
  std::uint32_t lookup = ~0u;
  for (const Hop& h : hops) {
    ert::dht::RoutingEntry* entry = sub.entry(h.cur, h.slot);
    if (!entry) continue;
    if (h.lookup != lookup) {
      overloaded.clear();
      lookup = h.lookup;
    }
    const std::size_t self = net.real_of(h.cur);
    const auto probe = [&](NodeIndex c) {
      ert::core::ProbeResult pr;
      const std::size_t r = net.real_of(c);
      pr.load = load[r];
      pr.heavy = load[r] > p.gamma_l;
      pr.logical_distance = sub.logical_distance_to_key(c, h.key);
      pr.physical_distance = net.distance(self, r);
      pr.unit_load = 1.0 / net.cap(r);
      return pr;
    };
    const auto t0 = Clock::now();
    ert::core::forward_topology_aware(
        *entry, std::span<const NodeIndex>(h.candidates), overloaded, opts,
        probe, net.rng(), scratch);
    forward_ns.add(ns_between(t0, Clock::now()));
    for (NodeIndex o : scratch.newly_overloaded)
      if (overloaded.size() < ert::core::kOverloadedSetCap) overloaded.insert(o);
  }
}

/// A churn leave as the engine's timeout path handles it: the victim fails,
/// and the first node found routing towards it purges the dead link and
/// repairs the entry. The search route is not timed.
void leave(Network& net, Samples& leave_us) {
  auto& sub = net.sub();
  ert::dht::RouteScratch scratch;
  const std::uint64_t key = net.random_key();
  const NodeIndex victim = sub.responsible(key);
  if (victim == ert::dht::kNoNode || !sub.alive(victim)) return;
  NodeIndex cur = net.random_alive();
  if (cur == victim) return;
  NodeIndex pred = ert::dht::kNoNode;
  std::size_t slot = kNoSlot;
  ert::harness::SubstrateOps::RouteCtxBlob ctx;
  for (std::size_t h = 0; h < 64 + sub.num_slots() / 2; ++h) {
    const auto step = sub.route_step(cur, key, ctx, scratch);
    if (step.arrived) break;
    NodeIndex next = ert::dht::kNoNode;
    for (NodeIndex c : scratch.candidates)
      if (sub.alive(c)) {
        next = c;
        break;
      }
    if (next == ert::dht::kNoNode) break;
    if (next == victim) {
      pred = cur;
      slot = step.slot;
      break;
    }
    cur = next;
  }
  const auto t0 = Clock::now();
  sub.fail(victim);
  if (pred != ert::dht::kNoNode) {
    sub.purge_dead(pred, victim);
    if (slot != kNoSlot) sub.repair_entry(pred, slot);
  }
  leave_us.add(ns_between(t0, Clock::now()) / 1e3);
}

/// The kernel's hold model: `pending` events stay queued; each dispatched
/// event schedules one successor, so every step is one schedule + one
/// dispatch at a steady population. Timed in batches of kBatch steps.
void kernel_phase(std::size_t pending, std::size_t events, ert::Rng& rng,
                  Samples& event_ns) {
  constexpr std::size_t kBatch = 1024;
  struct Hold {
    ert::sim::Simulator sim;
    std::vector<double> delays;
    std::size_t next = 0;
    void fire() {
      sim.schedule(delays[next++ & (delays.size() - 1)], Event{this});
    }
    struct Event {
      Hold* h;
      void operator()() const { h->fire(); }
    };
  };
  auto hold = std::make_unique<Hold>();
  hold->delays.resize(4096);
  for (double& d : hold->delays) d = rng.exponential(1.0);
  for (std::size_t i = 0; i < pending; ++i)
    hold->sim.schedule(rng.uniform(0.0, 1.0), Hold::Event{hold.get()});
  for (std::size_t done = 0; done < events; done += kBatch) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kBatch; ++i) hold->sim.step();
    event_ns.add(ns_between(t0, Clock::now()) / kBatch);
  }
}

/// Shards of the sharded-engine timing: fewer than the cores, so one
/// descheduled worker does not stall every window.
constexpr int kShards = 2;

/// ShardedSimulator::run at S shards and the engine's lookahead (the
/// latency floor) on a hold model: half the successors stay on the shard,
/// half cross to another after at least the lookahead. Window time is the
/// wall time between consecutive barrier hooks. Returns the wall seconds
/// of the whole run.
double sharded_phase(int shards, std::size_t pending, std::size_t events,
                     ert::Rng rng, Samples& window_us) {
  const double lookahead = ert::net::kDefaultBaseLatency;
  constexpr double kMeanDelay = 0.05;
  struct Ctx {
    ert::sim::ShardedSimulator ss;
    double horizon;
    double lookahead;
    std::vector<ert::Rng> rngs;  ///< per shard: touched only by its owner.
    Ctx(int s, double la, double hz) : ss(s, la), horizon(hz), lookahead(la) {}
    void fire(int s) {
      ert::sim::Simulator& q = ss.shard(s);
      if (q.now() >= horizon) return;
      ert::Rng& r = rngs[static_cast<std::size_t>(s)];
      const double d = r.exponential(1.0 / kMeanDelay);
      const int n = ss.shards();
      if (n == 1 || r.bits() & 1) {
        q.schedule(d, Event{this, s});
      } else {
        const int to = (s + 1 + static_cast<int>(r.index(static_cast<std::size_t>(n - 1)))) % n;
        ss.post(s, to, q.now() + lookahead + d, Event{this, to});
      }
    }
    struct Event {
      Ctx* c;
      int s;
      void operator()() const { c->fire(s); }
    };
  };
  const double horizon =
      static_cast<double>(events) * kMeanDelay /
      static_cast<double>(std::max<std::size_t>(1, pending));
  auto ctx = std::make_unique<Ctx>(shards, lookahead, horizon);
  for (int s = 0; s < shards; ++s) ctx->rngs.push_back(rng.fork());
  for (std::size_t i = 0; i < pending; ++i) {
    const int s = static_cast<int>(i % static_cast<std::size_t>(shards));
    ctx->ss.shard(s).schedule(rng.uniform(0.0, kMeanDelay), Ctx::Event{ctx.get(), s});
  }
  Clock::time_point last;
  ert::sim::ShardedSimulator::BarrierHooks hooks;
  hooks.pre_global = [&](double) {
    const auto now = Clock::now();
    window_us.add(ns_between(last, now) / 1e3);
    last = now;
  };
  ctx->ss.set_hooks(std::move(hooks));
  last = Clock::now();
  const auto t0 = last;
  ctx->ss.run();
  return ns_between(t0, Clock::now()) / 1e9;
}

}  // namespace

int run_layers(const Workload& w, const LoadMix& mix) {
  const ert::SimParams& p = w.params;
  const bool tiny = w.tiny;
  SpanLog spans;
  Metrics m;
  spans.begin("layers");

  // Construction.
  Network net(w);
  Samples add_us, table_us;
  const std::size_t rss0 = ert::peak_rss_kb();
  spans.begin("harness.build");
  net.build(spans, add_us, table_us);
  spans.end();
  const std::size_t rss1 = ert::peak_rss_kb();
  m.timing("harness.build.add_node_us", add_us);
  m.timing("harness.build.build_table_us", table_us);
  m.put("dht.rss_per_node_b", static_cast<double>(rss1 - rss0) * 1024.0 /
                                  static_cast<double>(p.num_nodes));

  // Route step, then Algorithm 4 on the hops it recorded.
  Samples step_ns, forward_ns;
  double cands_per_step = 0.0;
  std::vector<Hop> hops;
  spans.begin("overlay.route_step");
  route_phase(net, tiny ? 2'000 : 20'000, tiny ? 20'000 : 200'000, step_ns,
              cands_per_step, hops);
  spans.end();
  m.timing("overlay.route_step_ns", step_ns);
  m.put("overlay.candidates_per_step", cands_per_step);
  spans.begin("ert.forward");
  forward_phase(net, p, hops, mix.heavy_share, forward_ns);
  spans.end();
  m.timing("ert.forward_ns", forward_ns);
  hops.clear();
  hops.shrink_to_fit();

  // Algorithm 3: alternate whole-sweep timing with per-call timing so the
  // sweep time carries no per-call clock reads. Each sweep sheds at a
  // `shed_share` fraction of the nodes and decides to grow at a
  // `grow_share` fraction (the real run's per-sweep mix); the rest sit
  // exactly at capacity, where Algorithm 3 leaves them alone.
  const std::size_t n = p.num_nodes;
  Samples sweep_ms, shed_us, expand_us;
  std::vector<double> peak(n);
  spans.begin("ert.adapt.sweep");
  for (int s = 0; s < (tiny ? 4 : 6); ++s) {
    for (std::size_t r = 0; r < n; ++r) {
      const double u = net.rng().uniform(0.0, 1.0);
      peak[r] = u < mix.shed_share                    ? 2.0 * net.cap(r) + 1.0
                : u < mix.shed_share + mix.grow_share ? 0.0
                                                      : net.cap(r);
    }
    const bool per_call = s % 2 == 1;
    const auto t0 = Clock::now();
    net.adaptation_sweep(peak, per_call, shed_us, expand_us);
    if (!per_call) sweep_ms.add(ns_between(t0, Clock::now()) / 1e6);
  }
  spans.end();
  m.put("ert.adapt.sweep_ms", sweep_ms.pct(50));
  m.timing("overlay.shed_indegree_us", shed_us);
  m.timing("overlay.expand_indegree_us", expand_us);

  // Churn: leaves first, so joins find free ids even in a full Cycloid.
  Samples join_us, leave_us;
  const int churn_ops = tiny ? 50 : 300;
  spans.begin("harness.churn");
  for (int i = 0; i < churn_ops; ++i) leave(net, leave_us);
  for (int i = 0; i < churn_ops; ++i) net.join(join_us);
  spans.end();
  m.timing("harness.churn.join_us", join_us);
  m.timing("harness.churn.leave_us", leave_us);

  // Event kernel and sharded windows at the workload's pending population.
  const auto pop = static_cast<std::size_t>(std::max(16.0, mix.pending));
  const std::size_t events = tiny ? 200'000 : 2'000'000;
  Samples event_ns, window_us;
  spans.begin("sim.kernel");
  kernel_phase(pop, events, net.rng(), event_ns);
  spans.end();
  m.timing("sim.event_ns", event_ns);
  // Every workload runs serially, so the sharded engine is timed here
  // alone: the same hold model from the same draws at S = 1 and S = 2.
  spans.begin("sim.sharded");
  const ert::Rng hold_rng = net.rng().fork();
  Samples serial_window_us;
  const double serial_s =
      sharded_phase(1, pop, events, hold_rng, serial_window_us);
  const double sharded_s =
      sharded_phase(kShards, pop, events, hold_rng, window_us);
  spans.end();
  m.timing("sim.sharded.window_us", window_us);
  m.put("sim.sharded.speedup", serial_s / sharded_s);
  spans.end();

  std::printf("{\"mode\": \"layers\", \"workload\": \"%s\", ", w.name.c_str());
  m.print();
  std::printf(", ");
  spans.print();
  std::printf("}\n");
  return 0;
}

}  // namespace perfbench
