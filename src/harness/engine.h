// The experiment engine: every protocol step of one run, written once.
//
// Sec. 5 evaluates ERT by driving Algorithms 2-4 on a discrete-event clock:
// construction and initial indegree assignment, Poisson lookups queued at
// single-server nodes, per-hop routing with Algorithm 4's probing, the
// per-period shed/grow sweep of Algorithm 3, churn, crash waves, scenario
// phases and the invariant audit. ExperimentEngine holds each of those
// steps once and takes its event transport as a CRTP parameter, the way
// core::ElasticLinks serves the six overlays:
//
//   InlineTransport  (experiment.cpp) one sim::Simulator and one Rng
//                    stream; dead neighbours are purged and repaired
//                    inline with the timeout penalty folded into the next
//                    hop, and the audit and timeline chains are cancelled
//                    at settlement.
//   ShardedTransport (pdes_engine.cpp) sim::ShardedSimulator, per-shard
//                    Rng/fault/trace/meter streams, mailbox delivery,
//                    barrier-deferred repairs, queue snapshots and thinned
//                    arrivals (docs/PDES.md).
//
// A transport supplies these hooks; all are static calls, so the hop path
// has no virtual call and no std::function:
//
//   sim(h), global()           shard h's event queue / the coordinator's
//   lane(h), lane_count()      shard h's streams and collectors (Lane)
//   shard_of(v)                owner shard of overlay node v
//   deliver(h, ref, to, d)     shard h hands a query to `to` after d s
//   deliver_global(ref, to, d) the same from a global event
//   retire_slot(h, ref)        a settled query's slot goes back to its pool
//   settled()                  a lookup settled
//   queue_len_seen(h, r)       node r's queue length as shard h sees it
//   queue_changed(h, r)        r's queue length changed inside a window
//   purge_candidate(h, v, c)   v's entry holds the dead candidate c
//   dead_next(h, ref, v, n, s) the chosen next hop n is dead: true retries
//                              the hop loop at once, false = handled
//   pick_source(h)             an alive overlay node to issue a lookup at
//   joined(r), departed(r)     membership bookkeeping of real node r
//   start_arrivals()           start the lookup arrival process(es)
//   run_events(), end_time()   drain the event queues; the final clock
//   collect_shards(res)        fold per-shard trace and meter streams in
//
// h is a shard index; the inline transport has the single shard 0.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "baselines/virtual_servers.h"
#include "common/rng.h"
#include "common/stats.h"
#include "cycloid/overlay.h"
#include "ert/adaptation.h"
#include "ert/capacity.h"
#include "ert/forwarding.h"
#include "harness/engine_detail.h"
#include "harness/experiment.h"
#include "harness/substrate.h"
#include "metrics/metrics.h"
#include "net/bandwidth.h"
#include "net/proximity.h"
#include "scenario/engine.h"
#include "sim/simulator.h"
#include "trace/trace.h"
#include "wire/meter.h"
#include "workload/workload.h"

namespace ert::harness {

/// What one shard owns: its workload, message-fault, trace and meter
/// streams (borrowed pointers — the inline transport's single lane uses
/// the engine-wide ones), its query pool, hop scratch and handler-side
/// collectors.
struct Lane {
  Rng* rng = nullptr;               ///< workload stream.
  FaultInjector* faults = nullptr;  ///< message fates; null when fault-free.
  trace::TraceSink* trace = nullptr;
  wire::ByteMeter* meter = nullptr;
  detail::QueryPool pool;
  /// Scratch for the allocation-free hop loop: route_step writes candidates
  /// into route_scratch, Algorithm 4 works out of fwd_scratch.
  dht::RouteScratch route_scratch;
  core::ForwardScratch fwd_scratch;
  metrics::LookupStats lookups;
  metrics::FaultCounters fstats;
  std::size_t quota = 0;  ///< lookups this lane must issue.
  std::size_t issued = 0;
  std::size_t completed = 0;
  std::size_t dropped_overload = 0;
  std::size_t dropped_fault = 0;
  std::uint64_t next_seq = 0;  ///< issue counter: id = seq * lanes + lane.
};

template <typename Transport>
class ExperimentEngine {
 public:
  ExperimentResult run() {
    if (tracing(trace::Category::kRun))
      trace_->emit(trace::EventType::kRunBegin, params_.num_nodes,
                   params_.seed, static_cast<std::int64_t>(proto_),
                   static_cast<std::int64_t>(kind_));
    build_network();
    // Attached after the build: the meter accounts steady-state protocol
    // traffic; bulk construction is table setup, not message exchange.
    if (meter_) {
      substrate_->set_meter(meter_.get());
      meter_->set_link_map([this](std::size_t v) { return real_of(v); });
      meter_->reserve_links(reals_.capacity());
    }
    if (params_.impulse_nodes > 0) {
      const std::uint64_t space = substrate_->key_space();
      const std::uint64_t scaled = std::max<std::uint64_t>(
          1, static_cast<std::uint64_t>(
                 static_cast<double>(params_.impulse_nodes) *
                 static_cast<double>(space) /
                 static_cast<double>(std::max<std::size_t>(1, reals_.size()))));
      impulse_ = workload::ImpulseWorkload::make(space, scaled,
                                                 params_.impulse_keys, rng_);
    }
    if (params_.zipf_catalog > 0) {
      zipf_ = std::make_unique<workload::ZipfKeys>(
          substrate_->key_space(), params_.zipf_catalog,
          params_.zipf_exponent, rng_);
      if (params_.zipf_drift_period > 0) schedule_zipf_drift();
    }
    // The scenario driver owns a domain-separated stream, so constructing
    // it here (after the substrate fixes key_space) consumes no workload
    // randomness; inert scenarios build no driver at all.
    if (!scen_opts_.inert()) {
      scen_ = std::make_unique<scenario::ScenarioDriver>(
          scen_opts_, params_.seed, substrate_->key_space());
      schedule_scenario_phases();
    }
    self().start_arrivals();
    if (uses_adaptation(proto_)) schedule_adaptation();
    if (params_.churn_interarrival > 0) schedule_churn();
    if (params_.trace_timeline) schedule_trace();
    if (faults_) schedule_crash_waves();
    // Scheduled after adaptation so an audit tick at the same timestamp
    // observes the post-adaptation state (same-time events fire in
    // scheduling order).
    if (auditor_) schedule_audit();
    self().run_events();
    return finalize();
  }

  /// Construction only: same Rng draws as run() up to the end of
  /// build_network, then stop. Timing is the caller's job so the report
  /// excludes engine setup.
  BuildReport build_only() {
    build_network();
    BuildReport report;
    report.real_nodes = reals_.size();
    report.overlay_slots = substrate_->num_slots();
    return report;
  }

 protected:
  using NodeIndex = dht::NodeIndex;
  using Query = detail::Query;
  using QueryRef = detail::QueryRef;
  using RealNode = detail::RealNode;

  ExperimentEngine(const SimParams& params, Protocol proto,
                   SubstrateKind substrate, const ExperimentOptions& options)
      : params_(params),
        proto_(proto),
        kind_(substrate),
        rng_(params.seed),
        scen_opts_(options.scenario) {
    // The injector owns dedicated Rng streams; with an all-zero plan the
    // run consumes exactly the same workload randomness as a plain run.
    if (options.faults.enabled())
      faults_ = std::make_unique<FaultInjector>(options.faults, params.seed);
    // The sampling stream is domain-separated from the workload seed so a
    // sampled audit consumes no simulation randomness.
    if (options.audit.enabled)
      auditor_ = std::make_unique<InvariantAuditor>(
          options.audit, params.seed ^ 0xa0d17'5a3b1eULL);
    if (options.trace.enabled) {
      trace_ = std::make_unique<trace::TraceSink>(
          options.trace, [this] { return self().global().now(); });
      if (faults_) faults_->set_trace(trace_.get());
    }
    // Like the tracer, the meter observes only (docs/WIRE.md): bytes-off
    // constructs nothing, bytes-on changes no metric. A physical node has
    // one egress bucket whichever meter observes it, so shard meters
    // borrow links_ too.
    if (options.wire.bytes) {
      links_ = std::make_unique<net::LinkModel>(net::BandwidthParams{
          options.wire.link_rate, options.wire.link_burst});
      meter_ = std::make_unique<wire::ByteMeter>(
          options.wire, [this] { return self().global().now(); },
          links_.get());
    }
  }

  Transport& self() { return static_cast<Transport&>(*this); }

  Query& query(QueryRef ref) {
    return self().lane(detail::ref_shard(ref)).pool.at(detail::ref_slot(ref));
  }

  struct Tally {
    std::size_t quota = 0, issued = 0, settled = 0;
  };
  Tally tally() {
    Tally t;
    for (int h = 0; h < self().lane_count(); ++h) {
      const Lane& ln = self().lane(h);
      t.quota += ln.quota;
      t.issued += ln.issued;
      t.settled += ln.completed + ln.dropped_overload + ln.dropped_fault;
    }
    return t;
  }

  bool done() {
    const Tally t = tally();
    return t.issued >= t.quota && t.settled >= t.issued;
  }

  bool tracing(trace::Category c) const { return trace_ && trace_->wants(c); }
  bool tracing(int h, trace::Category c) {
    const trace::TraceSink* t = self().lane(h).trace;
    return t && t->wants(c);
  }
  trace::TraceSink& sink(int h) { return *self().lane(h).trace; }

  std::size_t real_of(NodeIndex v) const {
    return vs_ ? vs_->real_of(v) : real_of_overlay_.at(v);
  }

  bool is_heavy(std::size_t r) const {
    return static_cast<double>(reals_[r].tracker.queue_length()) >
           params_.gamma_l * reals_[r].cap;
  }
  double congestion(std::size_t r) const {
    return static_cast<double>(reals_[r].tracker.queue_length()) /
           reals_[r].cap;
  }

  // --- network construction --------------------------------------------------

  void build_network() {
    const std::size_t n = params_.num_nodes;
    caps_ = core::CapacityModel::generate(n, params_, rng_);
    prox_ = net::ProximityMap(n, rng_);

    std::size_t ids_needed = n;
    if (uses_virtual_servers(proto_)) {
      ids_needed = static_cast<std::size_t>(
          1.5 * static_cast<double>(n) * std::log2(std::max<double>(2.0, n)));
    }
    const bool membership_churn =
        params_.churn_interarrival > 0 || scen_opts_.changes_membership();
    if (membership_churn) {
      // Churn (parameter-driven or scenario-driven) needs id-space headroom
      // for joins (a full Cycloid rejects every join); double the space.
      ids_needed = std::max(ids_needed, 2 * n);
    }
    assert(!uses_virtual_servers(proto_) || kind_ == SubstrateKind::kCycloid);
    // NS needs selection freedom among interchangeable neighbors: Cycloid's
    // neighbor sets and Kademlia's bucket contacts have it; the others don't.
    assert(proto_ != Protocol::kNS || kind_ == SubstrateKind::kCycloid ||
           kind_ == SubstrateKind::kKademlia);
    substrate_ = make_substrate(
        kind_, params_, /*capacity_biased=*/proto_ == Protocol::kNS,
        /*enforce_bounds=*/proto_ == Protocol::kNS || is_ert(proto_),
        ids_needed, [this](NodeIndex a, NodeIndex b) {
          return prox_.distance(real_of(a), real_of(b));
        });
    // Overlay-side link.adopt/shed records come from construction,
    // adaptation sweeps, joins and repairs, all of them global events, so
    // the substrate emits into the engine-wide sink.
    substrate_->set_trace(trace_.get());

    // Pre-size the construction-time containers: churn keeps appending
    // after the build, so leave headroom when it is on. Pure capacity
    // hints — no draws, no behavior change.
    const std::size_t headroom = membership_churn ? n + n / 2 : n;
    overlay_of_real_.reserve(headroom);
    real_of_overlay_.reserve(headroom);
    reals_.reserve(headroom);
    prox_.reserve(headroom);

    // Join every node in bulk mode: the ring directory stages the inserts
    // and builds once from the sorted batch (O(n log n)) instead of paying
    // a tree descent per join. Membership queries answer exactly during
    // the batch, so the Rng draw sequence is identical to unbatched joins.
    if (uses_virtual_servers(proto_)) {
      cycloid::Overlay* overlay = substrate_->as_cycloid();
      assert(overlay && "virtual servers require the Cycloid substrate");
      substrate_->begin_bulk_join(ids_needed);
      vs_ = std::make_unique<baselines::VirtualServerMap>(*overlay, caps_, n,
                                                          rng_);
      substrate_->end_bulk_join();
      for (NodeIndex v = 0; v < substrate_->num_slots(); ++v)
        substrate_->build_table(v, rng_);
    } else {
      substrate_->begin_bulk_join(n);
      for (std::size_t r = 0; r < n; ++r) {
        const int dinf = node_max_indegree(r, rng_);
        const NodeIndex v =
            substrate_->add_node(rng_, caps_.normalized(r), dinf, params_.beta);
        overlay_of_real_.push_back(v);
        real_of_overlay_.push_back(r);
      }
      substrate_->end_bulk_join();
      for (NodeIndex v = 0; v < substrate_->num_slots(); ++v)
        substrate_->build_table(v, rng_);
      if (is_ert(proto_)) initial_indegree_assignment();
    }

    reals_.resize(n);
    for (std::size_t r = 0; r < n; ++r) reals_[r].cap = caps_.normalized(r);
    alive_reals_ = n;
    degrees_ = std::make_unique<metrics::DegreeTracker>(n);
    observe_degrees();
  }

  /// `rng` is the stream charged for the capacity-estimation noise draw:
  /// the workload stream for construction and parameter churn, the
  /// scenario stream for scenario-driven joins.
  int node_max_indegree(std::size_t r, Rng& rng) {
    if (is_ert(proto_) || proto_ == Protocol::kNS) {
      const double est = caps_.estimated(r, params_.gamma_c, rng);
      return core::max_indegree(params_.alpha(), est);
    }
    return 1 << 20;  // Base/VS: no indegree control.
  }

  void initial_indegree_assignment() {
    // Algorithm 2's probing loop, run for every node in random order.
    std::vector<NodeIndex> order(substrate_->num_slots());
    for (NodeIndex v = 0; v < order.size(); ++v) order[v] = v;
    rng_.shuffle(order);
    for (NodeIndex v : order) expand_to_initial_target(v);
  }

  void expand_to_initial_target(NodeIndex v) {
    const auto& budget = substrate_->budget(v);
    const int want = budget.initial_target() - budget.indegree();
    if (want > 0) substrate_->expand_indegree(v, want, 256);
  }

  // --- workload ----------------------------------------------------------------

  void issue_lookup(int h) {
    Lane& ln = self().lane(h);
    ++ln.issued;
    const std::uint64_t id =
        ln.next_seq++ * static_cast<std::uint64_t>(self().lane_count()) +
        static_cast<std::uint64_t>(h);
    const QueryRef ref =
        detail::pack_ref(h, ln.pool.claim(id, /*recycle=*/!faults_));
    Query& q = query(ref);
    Rng& rng = *ln.rng;
    q.start_time = self().sim(h).now();
    NodeIndex src;
    if (impulse_.enabled()) {
      // Sec. 5.4: sources live in the contiguous impulse interval and all
      // query the same hot keys.
      const std::uint64_t lv =
          (impulse_.interval_start +
           static_cast<std::uint64_t>(rng.uniform_int(
               0, static_cast<std::int64_t>(impulse_.interval_len) - 1))) %
          substrate_->key_space();
      src = substrate_->node_at_or_after(lv);
      q.key = impulse_.pick_key(rng);
    } else if (zipf_) {
      src = self().pick_source(h);
      q.key = zipf_->pick(rng);
    } else {
      src = self().pick_source(h);
      q.key = rng.bits() % substrate_->key_space();
    }
    // An active hotspot phase overrides the key with a rotating-Zipf pick
    // from the scenario stream. The base key draw above still happens, so
    // the workload stream stays aligned across the phase boundary and the
    // override is purely a value substitution.
    if (scen_) scen_->hotspot_key(self().sim(h).now(), &q.key);
    q.cur = src;
    if (params_.data_forwarding) q.path.push_back(src);
    if (tracing(h, trace::Category::kQuery))
      sink(h).emit(trace::EventType::kQueryBegin, src, q.id,
                    static_cast<std::int64_t>(q.key));
    arrive(h, ref, src);
  }

  // --- queueing (runs on the owner shard of the node) ---------------------------

  void arrive(int h, QueryRef ref, NodeIndex v) {
    Query& q = query(ref);
    // The tracked copy of this query landed: its frame leaves the wire.
    if (wire::ByteMeter* m = self().lane(h).meter; m && q.wire_bytes) {
      m->in_flight_sub(q.wire_bytes);
      q.wire_bytes = 0;
    }
    // Under duplication one query can have several copies in flight; once
    // any copy finishes (or the lookup is failed), the stragglers evaporate
    // here. Fault-free runs never take this branch.
    if (q.done) return;
    if (!substrate_->alive(v)) {
      reroute_from_dead(h, ref, v);
      return;
    }
    q.cur = v;
    const std::size_t r = real_of(v);
    RealNode& rn = reals_[r];
    if (params_.queue_cap != 0 &&
        rn.tracker.queue_length() >= params_.queue_cap) {
      // Bounded ingress queue (figure-scale runs): a node already at its
      // cap sheds the arrival as an overload drop rather than queueing it.
      drop_lookup(h, ref);
      return;
    }
    if (is_heavy(r)) {
      ++q.heavy_met;
      if (tracing(h, trace::Category::kOverload))
        sink(h).emit(trace::EventType::kQueryOverload, v, q.id,
                      static_cast<std::int64_t>(rn.tracker.queue_length()),
                      std::llround(congestion(r) * 1000.0));
    }
    rn.tracker.on_enqueue();
    self().queue_changed(h, r);
    rn.peak_congestion = std::max(rn.peak_congestion, congestion(r));
    // Single FIFO server per node: the paper's capacity slots bound how
    // many queries a node "can handle at one time" (the overload
    // threshold), while processing itself is one query at a time with the
    // Table 2 service times (0.2 s light, 1 s heavy).
    if (rn.in_service == 0) {
      begin_service(h, r, ref);
    } else {
      rn.waiting.push_back(ref);
    }
  }

  /// `v`, which holds or was about to receive `ref`, is dead: time out, then
  /// hand the query to v's live ring successor.
  void reroute_from_dead(int h, QueryRef ref, NodeIndex v) {
    Query& q = query(ref);
    ++q.timeouts;
    if (tracing(h, trace::Category::kHop))
      sink(h).emit(trace::EventType::kQueryTimeout, v, q.id, 0, 0,
                    /*site=*/0);
    const NodeIndex sub = substrate_->live_successor(v);
    ++q.hops;
    if (wire::ByteMeter* m = self().lane(h).meter)
      account_forward(*m, ref, sub, /*track=*/true);
    self().deliver(h, ref, sub, params_.timeout_penalty);
  }

  void begin_service(int h, std::size_t r, QueryRef ref) {
    RealNode& rn = reals_[r];
    ++rn.in_service;
    rn.serving.push_back(ref);
    // Table 2: 0.2 s in light nodes, 1 s in heavy nodes, chosen when
    // processing starts, scaled by capacity — "capacity represents the
    // number of queries node i can handle in a given time interval"
    // (Sec. 3.1), so a node of twice the normalized capacity processes
    // twice as fast. The Table 2 times are for a capacity-1 node.
    const double base = is_heavy(r) ? params_.heavy_service_time
                                    : params_.light_service_time;
    const double service = base / rn.cap;
    rn.service_ev = self().sim(h).schedule(
        service, [this, h, r, ref] { complete_service(h, r, ref); });
  }

  void complete_service(int h, std::size_t r, QueryRef ref) {
    RealNode& rn = reals_[r];
    --rn.in_service;
    std::erase(rn.serving, ref);
    rn.tracker.on_dequeue();
    self().queue_changed(h, r);
    if (!rn.waiting.empty()) {
      const QueryRef next = rn.waiting.front();
      rn.waiting.pop_front();
      begin_service(h, r, next);
    }
    const Query& q = query(ref);
    if (q.done) return;  // duplicate copy of a finished lookup
    if (q.returning) {
      forward_response(h, ref);
    } else {
      forward(h, ref);
    }
  }

  // --- message transport (fault-injection aware) -------------------------------

  /// Sends one inter-node hop. Fault-free (and zero-probability-plan) runs
  /// take a single delivery at `latency`. Under a message-fault plan the
  /// hop may be dropped (the sender detects the loss after a backoff
  /// timeout and retransmits until the retry budget runs out), delayed, or
  /// duplicated (delivery is at-least-once; Query::done absorbs the extra
  /// copies).
  void send_hop(int h, QueryRef ref, NodeIndex to, double latency) {
    Lane& ln = self().lane(h);
    if (!ln.faults || !ln.faults->plan().message_faults()) {
      if (ln.meter) account_forward(*ln.meter, ref, to, /*track=*/true);
      self().deliver(h, ref, to, latency);
      return;
    }
    attempt_send(h, ref, to, latency, 0);
  }

  /// Serializes and accounts one Forward transmission of `ref` from q.cur
  /// to `to` on meter `m`. With `track` the frame joins the bytes-in-flight
  /// gauge, cleared when it arrives — provided the arrival is metered by
  /// `m` as well: touching another shard's meter would race, so frames
  /// that cross shards, or leave a global event under the sharded
  /// transport, count in the totals only. Dropped and duplicate
  /// transmissions are never tracked.
  void account_forward(wire::ByteMeter& m, QueryRef ref, NodeIndex to,
                       bool track) {
    Query& q = query(ref);
    const wire::Forward f{q.id,
                          q.key,
                          q.cur,
                          to,
                          q.hops,
                          q.returning,
                          static_cast<std::uint32_t>(q.overloaded.size()),
                          q.overloaded.entries()};
    const std::uint32_t size = m.send(f, real_of(q.cur));
    if (track && &m == self().lane(self().shard_of(to)).meter) {
      q.wire_bytes = size;
      m.in_flight_add(size);
    }
  }

  void attempt_send(int h, QueryRef ref, NodeIndex to, double latency,
                    int attempt) {
    Lane& ln = self().lane(h);
    Query& q = query(ref);
    if (q.done) return;
    const MessageFate f = ln.faults->fate();
    // Every transmission attempt burns wire bytes, dropped ones included.
    if (ln.meter) account_forward(*ln.meter, ref, to, /*track=*/!f.dropped);
    if (f.dropped) {
      ++ln.fstats.timed_out;
      q.fault_hit = true;
      if (tracing(h, trace::Category::kFault))
        sink(h).emit(trace::EventType::kFaultTimeout, to, q.id, attempt);
      if (ln.faults->retries_exhausted(attempt + 1)) {
        fail_lookup_fault(h, ref);
        return;
      }
      ++ln.fstats.retried;
      if (tracing(h, trace::Category::kFault))
        sink(h).emit(trace::EventType::kFaultRetry, to, q.id, attempt + 1);
      self().sim(h).schedule(ln.faults->retry_delay(attempt),
                             [this, h, ref, to, latency, attempt] {
                               attempt_send(h, ref, to, latency, attempt + 1);
                             });
      return;
    }
    self().deliver(h, ref, to, latency + f.extra_delay);
    if (f.duplicated) {
      if (ln.meter) account_forward(*ln.meter, ref, to, /*track=*/false);
      self().deliver(h, ref, to,
                     latency + f.extra_delay + f.dup_extra_delay);
    }
  }

  // --- routing + forwarding policy ----------------------------------------------

  void forward(int h, QueryRef ref) {
    Lane& ln = self().lane(h);
    Query& q = query(ref);
    NodeIndex v = q.cur;
    for (int guard = 0; guard < 4096; ++guard) {
      if (q.hops > hop_cap()) {
        drop_lookup(h, ref);
        return;
      }
      const HopStep step =
          substrate_->route_step(v, q.key, q.rctx, ln.route_scratch);
      if (step.arrived) {
        finish_lookup(h, ref);
        return;
      }
      auto& cands = ln.route_scratch.candidates;
      assert(!cands.empty());
      if (is_ert(proto_) && cands.size() > 1) {
        // Elastic entries hold several candidates; departed ones are
        // silently skipped and purged — "when an entry neighbor left,
        // others can be used as a substitute instead of making a detour
        // routing" (Sec. 5.5). A timeout only happens when the whole entry
        // is stale (handled below). Compacted in place: if every candidate
        // is dead no write happened, so the full (stale) list survives.
        std::size_t live = 0;
        for (std::size_t i = 0; i < cands.size(); ++i) {
          const NodeIndex c = cands[i];
          if (substrate_->alive(c))
            cands[live++] = c;
          else
            self().purge_candidate(h, v, c);
        }
        if (live > 0) cands.resize(live);
      }
      int probes = 0;
      const NodeIndex next = select_next(h, ref, v, step, probes);
      if (next == dht::kNoNode) {
        drop_lookup(h, ref);
        return;
      }
      if (!substrate_->alive(next)) {
        // Timeout: discover the failure, purge the stale link, repair the
        // entry, and retry (Sec. 5.5's timeout accounting).
        ++q.timeouts;
        if (tracing(h, trace::Category::kHop))
          sink(h).emit(trace::EventType::kQueryTimeout, next, q.id, 0, 0,
                        /*site=*/1);
        if (self().dead_next(h, ref, v, next, step.slot)) continue;
        return;
      }
      ++q.hops;
      if (tracing(h, trace::Category::kHop))
        sink(h).emit(trace::EventType::kQueryHop, v, q.id,
                      static_cast<std::int64_t>(next),
                      static_cast<std::int64_t>(q.overloaded.size()),
                      static_cast<std::uint32_t>(cands.size()));
      if (params_.data_forwarding) q.path.push_back(next);
      if (real_of(next) == real_of(v)) {
        // Hop between two virtual servers of the same physical node: no
        // network transfer and no re-queueing — the machine keeps routing
        // internally (still counts as an overlay hop).
        v = next;
        q.cur = next;
        continue;
      }
      const double latency = prox_.latency(real_of(v), real_of(next)) +
                             q.penalty + params_.probe_cost * probes;
      q.penalty = 0.0;
      send_hop(h, ref, next, latency);
      return;
    }
    drop_lookup(h, ref);
  }

  /// Data-forwarding mode (the anonymity pattern of Freenet/Mantis/Hordes
  /// the introduction cites): the response retraces the query path through
  /// the intermediaries, loading each of them once more.
  void forward_response(int h, QueryRef ref) {
    Query& q = query(ref);
    while (!q.path.empty() && (q.path.back() == q.cur ||
                               !substrate_->alive(q.path.back()))) {
      q.path.pop_back();  // skip self and departed intermediaries
    }
    if (q.path.empty()) {
      complete_query(h, ref);
      return;
    }
    const NodeIndex next = q.path.back();
    q.path.pop_back();
    ++q.hops;
    // Response-leg hop: no candidate set (the path is fixed), aux = 0.
    if (tracing(h, trace::Category::kHop))
      sink(h).emit(trace::EventType::kQueryHop, q.cur, q.id,
                    static_cast<std::int64_t>(next),
                    static_cast<std::int64_t>(q.overloaded.size()), 0);
    const double latency = prox_.latency(real_of(q.cur), real_of(next));
    send_hop(h, ref, next, latency);
  }

  NodeIndex select_next(int h, QueryRef ref, NodeIndex v, const HopStep& step,
                        int& probes) {
    Lane& ln = self().lane(h);
    Query& q = query(ref);
    Rng& rng = *ln.rng;
    const auto& cands = ln.route_scratch.candidates;
    if (!uses_forwarding(proto_)) {
      if (is_ert(proto_)) {
        // ERT/A: random walk over the elastic candidate set (Sec. 4.1's
        // baseline policy).
        return cands[rng.index(cands.size())];
      }
      // Base / NS / VS: the substrate's deterministic best candidate.
      return cands.front();
    }
    // ERT/F and ERT/AF: Algorithm 4, through the allocation-free fast path:
    // the probe lambda is dispatched directly (no per-hop std::function),
    // and all temporaries live in the lane's ForwardScratch.
    core::TopoForwardOptions opts;
    opts.poll_size = params_.poll_size;
    opts.use_memory = params_.use_memory;
    opts.track_overloaded = params_.propagate_overloaded;
    const auto probe = [&](NodeIndex c) {
      core::ProbeResult pr;
      const std::size_t r = real_of(c);
      const double qlen = self().queue_len_seen(h, r);
      pr.load = qlen / reals_[r].cap;
      pr.heavy = qlen > params_.gamma_l * reals_[r].cap;
      pr.logical_distance = substrate_->logical_distance_to_key(c, q.key);
      pr.physical_distance = prox_.distance(real_of(v), r);
      pr.unit_load = 1.0 / reals_[r].cap;
      if (ln.meter) {
        // Algorithm 4's DHT-lookahead probe is a round trip on the wire:
        // the probe leaves v's egress, the reply the probed node's.
        const auto ql = static_cast<std::uint64_t>(qlen);
        ln.meter->send(wire::Probe{q.id, v, c, ql}, real_of(v));
        ln.meter->send(wire::ProbeReply{q.id, c, v, ql}, r);
      }
      return pr;
    };
    if (dht::RoutingEntry* entry = substrate_->entry(v, step.slot)) {
      const core::ForwardStep dec = core::forward_topology_aware(
          *entry, cands, q.overloaded, opts, probe, rng, ln.fwd_scratch);
      probes = dec.probes;
      // The fast path already filtered out A members, so this is a pure
      // capped append — no rescans of A.
      for (NodeIndex o : ln.fwd_scratch.newly_overloaded) {
        if (q.overloaded.size() < core::kOverloadedSetCap) q.overloaded.insert(o);
      }
      return dec.next;
    }
    // Emergency (non-table) hop: a uniform choice.
    return cands.empty() ? dht::kNoNode : cands[rng.index(cands.size())];
  }

  std::size_t hop_cap() const { return 64 + substrate_->num_slots() / 2; }

  // --- lookup settlement ----------------------------------------------------------

  void finish_lookup(int h, QueryRef ref) {
    Query& q = query(ref);
    if (q.done) return;
    if (params_.data_forwarding && !q.returning) {
      // The owner sends the data back through the recorded path.
      q.returning = true;
      forward_response(h, ref);
      return;
    }
    complete_query(h, ref);
  }

  void complete_query(int h, QueryRef ref) {
    Lane& ln = self().lane(h);
    Query& q = query(ref);
    if (q.done) return;
    q.done = true;
    if (q.fault_hit) ++ln.fstats.recovered;
    if (tracing(h, trace::Category::kQuery))
      sink(h).emit(trace::EventType::kQueryEnd, q.cur, q.id,
                    static_cast<std::int64_t>(q.hops),
                    static_cast<std::int64_t>(q.heavy_met));
    metrics::LookupRecord rec;
    rec.latency = self().sim(h).now() - q.start_time;
    rec.path_len = q.hops;
    rec.heavy_met = q.heavy_met;
    rec.timeouts = q.timeouts;
    ln.lookups.add(rec);
    ++ln.completed;
    settle(h, ref);
  }

  /// Routing-capacity failure (hop budget exhausted, no candidate left):
  /// the Figure-4 congestion path.
  void drop_lookup(int h, QueryRef ref) {
    Query& q = query(ref);
    if (q.done) return;
    q.done = true;
    if (tracing(h, trace::Category::kQuery))
      sink(h).emit(trace::EventType::kQueryDrop, q.cur, q.id,
                    static_cast<std::int64_t>(q.hops), 0, /*cause=*/0);
    ++self().lane(h).dropped_overload;
    settle(h, ref);
  }

  /// Fault-layer failure: a hop's retransmit budget was exhausted.
  void fail_lookup_fault(int h, QueryRef ref) {
    Query& q = query(ref);
    if (q.done) return;
    q.done = true;
    if (tracing(h, trace::Category::kQuery))
      sink(h).emit(trace::EventType::kQueryDrop, q.cur, q.id,
                    static_cast<std::int64_t>(q.hops), 0, /*cause=*/1);
    ++self().lane(h).dropped_fault;
    settle(h, ref);
  }

  /// Fault-free runs recycle the slots of settled lookups, so the pools
  /// scale with peak concurrency instead of num_lookups. Faulted runs never
  /// recycle: message duplication leaves straggler copies in flight that
  /// still dereference their slot after the lookup settles.
  void settle(int h, QueryRef ref) {
    if (!faults_) self().retire_slot(h, ref);
    self().settled();
  }

  // --- global events: periodic chains ------------------------------------------

  void schedule_zipf_drift() {
    if (done()) return;
    self().global().schedule(params_.zipf_drift_period, [this] {
      // Time-varying popularity: the hot set moves to different keys.
      zipf_->reshuffle(rng_);
      schedule_zipf_drift();
    });
  }

  void schedule_adaptation() {
    if (done()) return;
    self().global().schedule(params_.adapt_period, [this] {
      adaptation_sweep();
      schedule_adaptation();
    });
  }

  /// Algorithm 3: every alive node sheds or grows its indegree bound from
  /// the period's peak queue.
  void adaptation_sweep() {
    for (NodeIndex v = 0; v < substrate_->num_slots(); ++v) {
      if (!substrate_->alive(v)) continue;
      const std::size_t r = real_of(v);
      RealNode& rn = reals_[r];
      const auto peak = static_cast<double>(rn.tracker.end_period());
      const auto dec =
          core::decide_adaptation(peak, rn.cap, params_.gamma_l, params_.mu);
      auto& budget = substrate_->budget(v);
      const bool trace_adapt = tracing(trace::Category::kAdapt) &&
                               dec.action != core::AdaptAction::kNone;
      const std::size_t ind_before =
          trace_adapt ? substrate_->indegree(v) : 0;
      if (dec.action == core::AdaptAction::kShed) {
        // Lower the bound first so the hosts' repairs do not immediately
        // re-adopt this overloaded node, then settle it at exactly
        // old_bound - shed. (Raising back by the un-shed remainder would
        // overshoot the old bound whenever lower_bound_by saturated at its
        // floor of 1 — an overloaded node must never end a shed with a
        // *higher* bound than it started with.)
        const int before = budget.max_indegree();
        budget.lower_bound_by(dec.delta);
        const int shed = substrate_->shed_indegree(v, dec.delta);
        const int target = std::max(1, before - shed);
        budget.raise_bound_by(target - budget.max_indegree());
        rn.grow_backoff = 0;  // shedding frees hosts: growth may work again
        rn.grow_wait = 0;
        ++adapt_sheds_;
        if (trace_adapt)
          trace_->emit(trace::EventType::kAdaptShed, v, 0,
                       static_cast<std::int64_t>(ind_before),
                       static_cast<std::int64_t>(substrate_->indegree(v)),
                       static_cast<std::uint32_t>(dec.delta));
        if (meter_)
          meter_->send(
              wire::AdaptShed{v, static_cast<std::uint64_t>(dec.delta)},
              real_of(v));
      } else if (dec.action == core::AdaptAction::kGrow) {
        if (rn.grow_wait > 0) {
          --rn.grow_wait;
          continue;
        }
        budget.raise_bound_by(dec.delta);
        const int gained = substrate_->expand_indegree(
            v, dec.delta,
            std::min<std::size_t>(
                256, 16 + 4 * static_cast<std::size_t>(dec.delta)));
        if (gained < dec.delta) budget.lower_bound_by(dec.delta - gained);
        if (gained == 0) {
          // Exponential backoff: the reverse-neighbor id sets are finite;
          // once exhausted, probing every period is wasted work.
          rn.grow_backoff = std::min(512, std::max(8, rn.grow_backoff * 2));
          rn.grow_wait = rn.grow_backoff;
        } else {
          rn.grow_backoff = 0;
          ++adapt_grows_;
        }
        if (trace_adapt)
          trace_->emit(trace::EventType::kAdaptGrow, v, 0,
                       static_cast<std::int64_t>(ind_before),
                       static_cast<std::int64_t>(substrate_->indegree(v)),
                       static_cast<std::uint32_t>(dec.delta));
        if (meter_)
          meter_->send(
              wire::AdaptGrow{v, static_cast<std::uint64_t>(dec.delta)},
              real_of(v));
      }
    }
    observe_degrees();
  }

  void schedule_trace() {
    if (done()) return;
    timeline_ev_ = self().global().schedule(params_.adapt_period, [this] {
      sample_timeline();
      schedule_trace();
    });
  }

  void sample_timeline() {
    ExperimentResult::PeriodSample s;
    s.time = self().global().now();
    Percentiles g;
    for (std::size_t r = 0; r < reals_.size(); ++r) {
      if (!reals_[r].alive) continue;
      const double gr = congestion(r);
      g.add(gr);
      if (is_heavy(r)) ++s.heavy_nodes;
    }
    if (!g.empty()) {
      s.p99_congestion = g.percentile(99);
      s.mean_congestion = g.mean();
    }
    std::size_t indeg = 0, alive_nodes = 0;
    for (NodeIndex v = 0; v < substrate_->num_slots(); ++v) {
      if (!substrate_->alive(v)) continue;
      indeg += substrate_->indegree(v);
      ++alive_nodes;
    }
    s.mean_indegree = alive_nodes ? static_cast<double>(indeg) /
                                        static_cast<double>(alive_nodes)
                                  : 0.0;
    const Tally t = tally();
    s.in_flight = t.issued - t.settled;
    timeline_.push_back(s);
  }

  void observe_degrees() {
    for (std::size_t r = 0; r < reals_.size(); ++r) {
      if (!reals_[r].alive) continue;
      std::size_t in = 0, out = 0;
      if (vs_) {
        for (NodeIndex v : vs_->vnodes_of(r)) {
          if (!substrate_->alive(v)) continue;
          in += substrate_->indegree(v);
          out += substrate_->outdegree(v);
        }
      } else {
        const NodeIndex v = overlay_of_real_[r];
        if (v != dht::kNoNode && substrate_->alive(v)) {
          in = substrate_->indegree(v);
          out = substrate_->outdegree(v);
        }
      }
      degrees_->observe(r, in, out);
    }
  }

  // --- churn (Sec. 5.5) ------------------------------------------------------------

  void schedule_churn() {
    const double rate = 1.0 / params_.churn_interarrival;
    if (done()) return;
    self().global().schedule(rng_.exponential(rate), [this] {
      churn_join();
      schedule_churn();
    });
    self().global().schedule(rng_.exponential(rate),
                             [this] { churn_depart(); });
  }

  void churn_join() {
    if (done()) return;
    join_real(rng_);
  }

  /// One node join, fully charged to `rng`: capacity draw, proximity
  /// placement, overlay insertion, table build, and initial indegree
  /// probing. Parameter churn passes the engine stream (the historical
  /// draw order, byte for byte); scenario churn passes the scenario stream.
  void join_real(Rng& rng) {
    const double raw = rng.bounded_pareto(
        params_.pareto_shape, params_.capacity_lo, params_.capacity_hi);
    join_with_capacity(rng, raw);
  }

  /// Join with a predetermined raw capacity — partition rejoins bring nodes
  /// back with the capacities they left with.
  void join_with_capacity(Rng& rng, double raw) {
    const std::size_t r = caps_.add_node(raw);
    prox_.add_node(rng);
    RealNode rn;
    rn.cap = caps_.normalized(r);
    reals_.push_back(std::move(rn));
    // The overlay slot the join landed on: -1 when rejected (id space
    // full); for VS the first virtual server of the new real node.
    std::int64_t overlay_slot = -1;
    if (vs_) {
      cycloid::Overlay* overlay = substrate_->as_cycloid();
      for (NodeIndex v : vs_->add_real_node(*overlay, caps_, r, rng)) {
        if (overlay_slot < 0) overlay_slot = static_cast<std::int64_t>(v);
        substrate_->build_table(v, rng);
      }
    } else {
      if (substrate_->id_space_full()) {
        reals_[r].alive = false;  // id space full: join rejected
        overlay_of_real_.push_back(dht::kNoNode);
        if (tracing(trace::Category::kChurn))
          trace_->emit(trace::EventType::kChurnJoin, r, 0, -1);
        self().joined(r);
        return;
      }
      const NodeIndex v = substrate_->add_node(
          rng, caps_.normalized(r), node_max_indegree(r, rng), params_.beta);
      overlay_slot = static_cast<std::int64_t>(v);
      overlay_of_real_.push_back(v);
      real_of_overlay_.push_back(r);
      substrate_->build_table(v, rng);
      if (is_ert(proto_)) expand_to_initial_target(v);
    }
    ++alive_reals_;
    if (tracing(trace::Category::kChurn))
      trace_->emit(trace::EventType::kChurnJoin, r, 0, overlay_slot);
    // Accepted joins announce themselves; a rejected join (id space full,
    // slot -1) returned above and sent nothing.
    if (meter_ && overlay_slot >= 0)
      meter_->send(wire::Join{r, static_cast<std::uint64_t>(overlay_slot)}, r);
    degrees_->ensure_size(reals_.size());
    self().joined(r);
  }

  void churn_depart() {
    if (done()) return;
    // Pick a random alive real node; keep a floor so the network survives.
    if (alive_reals_ < std::max<std::size_t>(16, params_.num_nodes / 4))
      return;
    for (int tries = 0; tries < 64; ++tries) {
      const std::size_t r = rng_.index(reals_.size());
      if (!reals_[r].alive) continue;
      depart_real(r);
      return;
    }
  }

  void depart_real(std::size_t r, bool crash = false) {
    reals_[r].alive = false;
    --alive_reals_;
    self().departed(r);
    if (tracing(trace::Category::kChurn))
      trace_->emit(crash ? trace::EventType::kCrash
                         : trace::EventType::kChurnDepart,
                   r);
    // A departing node gets its leave notice out (partition departures
    // included — the wave is modeled as simultaneous departures); a crash
    // sends nothing.
    if (meter_ && !crash) meter_->send(wire::Leave{r}, r);
    // Silent failure: stale links remain and are discovered via timeouts.
    if (vs_) {
      for (NodeIndex v : vs_->vnodes_of(r)) substrate_->fail(v);
    } else {
      if (overlay_of_real_[r] != dht::kNoNode)
        substrate_->fail(overlay_of_real_[r]);
    }
    relocate_queries_from(r, crash);
  }

  void relocate_queries_from(std::size_t r, bool crash) {
    RealNode& rn = reals_[r];
    rn.service_ev.cancel();
    std::vector<QueryRef> displaced;
    displaced.reserve(rn.waiting.size() + rn.serving.size());
    rn.waiting.for_each([&](QueryRef ref) { displaced.push_back(ref); });
    for (QueryRef ref : rn.serving) displaced.push_back(ref);
    rn.waiting.clear();
    rn.serving.clear();
    rn.in_service = 0;
    for (std::size_t i = 0; i < displaced.size(); ++i) rn.tracker.on_dequeue();
    for (QueryRef ref : displaced) {
      Query& q = query(ref);
      if (q.done) continue;
      ++q.timeouts;
      ++q.hops;
      if (tracing(trace::Category::kHop))
        trace_->emit(trace::EventType::kQueryTimeout, q.cur, q.id, 0, 0,
                     /*site=*/2);
      if (crash) {
        // Injected crash: the loss counts against the fault layer.
        q.fault_hit = true;
        ++fstats_.timed_out;
      }
      const NodeIndex sub = substrate_->live_successor(q.cur);
      if (meter_) account_forward(*meter_, ref, sub, /*track=*/true);
      self().deliver_global(ref, sub, params_.timeout_penalty);
    }
  }

  // --- crash waves (FaultPlan schedule) --------------------------------------------

  void schedule_crash_waves() {
    // run() schedules these at t = 0, so the delay is the absolute time.
    for (const CrashWave& wave : faults_->plan().crash_waves) {
      self().global().schedule(
          wave.time, [this, count = wave.count] { crash_wave(count); });
    }
  }

  void crash_wave(std::size_t count) {
    if (done()) return;
    Rng& rng = faults_->crash_rng();
    for (std::size_t k = 0; k < count; ++k) {
      // Same survival floor as churn so the network stays routable.
      if (alive_reals_ <= std::max<std::size_t>(16, params_.num_nodes / 4))
        return;
      for (int tries = 0; tries < 256; ++tries) {
        const std::size_t r = rng.index(reals_.size());
        if (!reals_[r].alive) continue;
        ++fstats_.crashed_nodes;
        depart_real(r, /*crash=*/true);
        break;
      }
    }
  }

  // --- scenario phases (docs/SCENARIOS.md) -------------------------------------------

  /// Schedules the start event of every non-inert membership phase. Rate
  /// and hotspot phases need no events — they are sampled at each arrival.
  /// Like crash waves, scheduled phase events advance the simulated clock
  /// to their firing time even when the workload settles first.
  void schedule_scenario_phases() {
    const auto& phases = scen_->scenario().phases;
    partition_caps_.resize(phases.size());
    for (std::size_t i = 0; i < phases.size(); ++i) {
      const scenario::Phase& p = phases[i];
      if (p.inert()) continue;
      if (p.type == scenario::PhaseType::kChurn) {
        self().global().schedule(p.start,
                                 [this, i] { scenario_churn_tick(i); });
      } else if (p.type == scenario::PhaseType::kPartition) {
        self().global().schedule(p.start, [this, i] { partition_start(i); });
      }
    }
  }

  /// One scenario-churn event: a join plus a capacity-biased departure,
  /// then the next tick after an exponential gap — all drawn from the
  /// scenario stream, leaving the workload stream untouched.
  void scenario_churn_tick(std::size_t pi) {
    if (done()) return;
    const scenario::Phase& ph = scen_->scenario().phases[pi];
    const double now = self().global().now();
    if (now >= ph.end) return;
    Rng& rng = scen_->rng();
    join_real(rng);
    scenario_depart(ph.bias, rng);
    const double gap = rng.exponential(1.0 / ph.interarrival);
    if (now + gap < ph.end)
      self().global().schedule(gap, [this, pi] { scenario_churn_tick(pi); });
  }

  /// Weak nodes die more: departure victims are the weakest of `bias`
  /// uniformly sampled candidates (bias 1 = uniform churn). Dead samples
  /// rank as infinitely strong so a tournament never "wins" a dead node
  /// unless every sample was dead, in which case we redraw.
  void scenario_depart(int bias, Rng& rng) {
    if (alive_reals_ < std::max<std::size_t>(16, params_.num_nodes / 4))
      return;
    for (int tries = 0; tries < 64; ++tries) {
      const std::size_t r = scenario::tournament_weakest(
          reals_.size(), bias,
          [&](std::size_t i) {
            return reals_[i].alive ? caps_.raw(i)
                                   : std::numeric_limits<double>::infinity();
          },
          rng);
      if (!reals_[r].alive) continue;
      depart_real(r);
      return;
    }
  }

  /// Partition onset: `fraction` of the alive nodes drop out at once (mass
  /// silent departure — the surviving half discovers the split through
  /// timeouts, exactly like churn departures). Their raw capacities are
  /// recorded so the rejoin wave brings the same population back.
  void partition_start(std::size_t pi) {
    if (done()) return;
    const scenario::Phase& ph = scen_->scenario().phases[pi];
    std::vector<std::size_t> alive;
    alive.reserve(reals_.size());
    for (std::size_t r = 0; r < reals_.size(); ++r)
      if (reals_[r].alive) alive.push_back(r);
    // Keep a minimal surviving core so the overlay stays routable even at
    // fraction 0.9 (the churn floor of n/4 would silently cap the wave).
    constexpr std::size_t kKeep = 8;
    if (alive.size() <= kKeep) return;
    std::size_t k = static_cast<std::size_t>(
        ph.fraction * static_cast<double>(alive.size()));
    k = std::min(k, alive.size() - kKeep);
    if (k == 0) return;
    Rng& rng = scen_->rng();
    std::vector<double>& caps = partition_caps_[pi];
    caps.clear();
    caps.reserve(k);
    for (std::size_t idx : rng.sample_indices(alive.size(), k)) {
      const std::size_t r = alive[idx];
      caps.push_back(caps_.raw(r));
      depart_real(r);
    }
    self().global().schedule(std::max(0.0, ph.end - self().global().now()),
                             [this, pi] { partition_rejoin(pi); });
  }

  /// Rejoin wave: the partitioned nodes come back as fresh joins (new ids,
  /// empty tables) carrying their recorded capacities.
  void partition_rejoin(std::size_t pi) {
    std::vector<double>& caps = partition_caps_[pi];
    if (!done()) {
      Rng& rng = scen_->rng();
      for (double raw : caps) join_with_capacity(rng, raw);
    }
    caps.clear();
  }

  // --- continuous invariant auditing (docs/FAULTS.md) ------------------------------

  void schedule_audit() {
    if (done()) return;
    const double period = auditor_->options().period > 0.0
                              ? auditor_->options().period
                              : params_.adapt_period;
    audit_ev_ = self().global().schedule(period, [this] {
      // Inside a partition phase's waiver window the Theorem 3.1/3.2
      // sweep is skipped (and counted): mass silent departure leaves
      // stale links by design, and the bounds are only promised again
      // `settle` seconds after the rejoin (docs/SCENARIOS.md).
      if (scen_ && scen_->audit_waived(self().global().now())) {
        ++audit_waived_;
      } else {
        audit_sweep();
      }
      schedule_audit();
    });
  }

  void audit_sweep() {
    auditor_->begin_sweep(self().global().now());
    // Engine-level queue.consistency: the LoadTracker's queue length must
    // equal what the engine's queues actually hold for every alive node
    // (or a seeded subset of them when --audit-sample caps sweep cost).
    const auto check_queue = [&](std::size_t r) {
      const RealNode& rn = reals_[r];
      if (!rn.alive) return;
      auditor_->expect_eq(
          "queue.consistency", static_cast<NodeIndex>(r),
          static_cast<double>(rn.tracker.queue_length()),
          static_cast<double>(rn.waiting.size() + rn.in_service),
          "LoadTracker queue vs waiting + in-service");
    };
    if (const auto* sample = auditor_->sample_population(reals_.size())) {
      for (const std::uint32_t r : *sample) check_queue(r);
    } else {
      for (std::size_t r = 0; r < reals_.size(); ++r) check_queue(r);
    }
    const bool bounds = proto_ == Protocol::kNS || is_ert(proto_);
    audit_substrate(*auditor_, *substrate_, bounds, uses_adaptation(proto_),
                    params_.alpha(), params_.gamma_c,
                    [this](NodeIndex v) { return reals_[real_of(v)].cap; });
  }

  // --- results -----------------------------------------------------------------------

  ExperimentResult finalize() {
    observe_degrees();
    ExperimentResult res;
    Percentiles peak;
    std::size_t min_cap_node = 0;
    for (std::size_t r = 0; r < reals_.size(); ++r) {
      peak.add(reals_[r].peak_congestion);
      if (caps_.raw(r) < caps_.raw(min_cap_node)) min_cap_node = r;
    }
    res.p99_max_congestion = peak.percentile(99);
    res.mean_max_congestion = peak.mean();
    res.min_cap_node_congestion = reals_[min_cap_node].peak_congestion;

    std::vector<double> load(reals_.size()), cap(reals_.size());
    for (std::size_t r = 0; r < reals_.size(); ++r) {
      load[r] = static_cast<double>(reals_[r].tracker.cumulative_handled());
      cap[r] = caps_.raw(r);
    }
    Percentiles shares;
    for (double s : metrics::compute_shares(load, cap)) shares.add(s);
    res.p99_share = shares.percentile(99);

    // Handler-side lane collectors, merged in lane order so the result is
    // a pure function of (seed, lane count). Merging into an empty
    // collector is exact, so one lane reproduces its own numbers.
    metrics::LookupStats lookups;
    res.faults = fstats_;
    for (int h = 0; h < self().lane_count(); ++h) {
      const Lane& ln = self().lane(h);
      lookups.merge(ln.lookups);
      res.faults.merge(ln.fstats);
      res.completed_lookups += ln.completed;
      res.dropped_overload += ln.dropped_overload;
      res.dropped_fault += ln.dropped_fault;
    }
    res.dropped_lookups = res.dropped_overload + res.dropped_fault;
    res.heavy_encounters = lookups.total_heavy_encounters();
    res.avg_path_length = lookups.avg_path_length();
    res.lookup_time = lookups.latency_summary();
    res.avg_timeouts = lookups.avg_timeouts();
    res.max_indegree = degrees_->indegree_summary();
    res.max_outdegree = degrees_->outdegree_summary();
    res.timeline = std::move(timeline_);
    res.sim_duration = self().end_time();
    res.final_nodes = alive_reals_;
    res.adapt_sheds = adapt_sheds_;
    res.adapt_grows = adapt_grows_;
    if (auditor_) {
      res.audit_sweeps = auditor_->sweeps();
      res.audit_waived_sweeps = audit_waived_;
      res.audit_violations = auditor_->total_violations();
      res.audit_records = auditor_->records();
    }
    // Engine-wide streams first; the transport appends per-shard ones.
    if (trace_) {
      if (trace_->wants(trace::Category::kRun))
        trace_->emit(trace::EventType::kRunEnd, 0, params_.seed,
                     static_cast<std::int64_t>(res.completed_lookups),
                     static_cast<std::int64_t>(res.dropped_lookups));
      res.trace_records = trace_->snapshot();
      res.trace_emitted = trace_->emitted();
      res.trace_dropped = trace_->dropped();
    }
    if (meter_) {
      res.bytes = meter_->totals();
      if (meter_->capturing()) res.wire_capture = meter_->capture();
    }
    self().collect_shards(res);
    return res;
  }

  SimParams params_;
  Protocol proto_;
  SubstrateKind kind_;
  Rng rng_;  ///< construction and churn stream (and the inline workload).
  core::CapacityModel caps_;
  net::ProximityMap prox_;
  std::unique_ptr<SubstrateOps> substrate_;
  std::unique_ptr<baselines::VirtualServerMap> vs_;
  workload::ImpulseWorkload impulse_;
  std::unique_ptr<workload::ZipfKeys> zipf_;
  std::vector<RealNode> reals_;
  std::vector<NodeIndex> overlay_of_real_;    ///< real -> overlay (non-VS).
  std::vector<std::size_t> real_of_overlay_;  ///< overlay -> real (non-VS).
  std::size_t alive_reals_ = 0;
  std::vector<ExperimentResult::PeriodSample> timeline_;
  std::unique_ptr<metrics::DegreeTracker> degrees_;
  /// Crash waves, and the inline transport's message fates; null in
  /// fault-free runs.
  std::unique_ptr<FaultInjector> faults_;
  metrics::FaultCounters fstats_;  ///< counters of global (crash) events.
  scenario::Scenario scen_opts_;   ///< as configured; may be inert.
  std::unique_ptr<scenario::ScenarioDriver> scen_;  ///< null when inert.
  /// Raw capacities of each partition phase's departed nodes, held for the
  /// rejoin wave; indexed like the scenario's phase list.
  std::vector<std::vector<double>> partition_caps_;
  std::size_t adapt_sheds_ = 0;
  std::size_t adapt_grows_ = 0;
  std::size_t audit_waived_ = 0;
  std::unique_ptr<InvariantAuditor> auditor_;  ///< null unless audit.enabled.
  std::unique_ptr<trace::TraceSink> trace_;  ///< null unless trace.enabled.
  /// Egress buckets, one per physical node, shared by every meter.
  std::unique_ptr<net::LinkModel> links_;
  std::unique_ptr<wire::ByteMeter> meter_;   ///< null unless wire.bytes.
  sim::EventHandle audit_ev_;  ///< pending sweep, cancelled on settle.
  sim::EventHandle timeline_ev_;  ///< pending timeline sample, ditto.
};

}  // namespace ert::harness
