#include "harness/experiment.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>

#include "baselines/virtual_servers.h"
#include "common/rng.h"
#include "common/rss.h"
#include "cycloid/overlay.h"
#include "ert/adaptation.h"
#include "ert/capacity.h"
#include "ert/forwarding.h"
#include "ert/load_tracker.h"
#include "harness/engine_detail.h"
#include "harness/parallel.h"
#include "harness/pdes_engine.h"
#include "harness/substrate.h"
#include "metrics/metrics.h"
#include "net/proximity.h"
#include "scenario/engine.h"
#include "sim/simulator.h"
#include "workload/workload.h"

namespace ert::harness {

int fit_dimension(std::size_t ids_needed) {
  for (int d = 3; d <= 24; ++d) {
    if (static_cast<std::size_t>(d) << d >= ids_needed) return d;
  }
  return 24;
}

namespace {

using dht::NodeIndex;

// Query / MiniQueue / RealNode moved to engine_detail.h, shared (via their
// slot-type template) with the sharded PDES engine. The 32-bit aliases are
// the exact historical structures.
using detail::MiniQueue;
using detail::Query;
using detail::RealNode;

class Engine {
 public:
  Engine(const SimParams& params, Protocol proto, SubstrateKind substrate,
         const ExperimentOptions& options)
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
          options.trace, [this] { return sim_.now(); });
      if (faults_) faults_->set_trace(trace_.get());
    }
    // Like the tracer, the meter observes only (docs/WIRE.md): bytes-off
    // constructs nothing, bytes-on changes no metric.
    if (options.wire.bytes)
      meter_ = std::make_unique<wire::ByteMeter>(options.wire,
                                                 [this] { return sim_.now(); });
  }

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
    schedule_next_lookup();
    if (uses_adaptation(proto_)) schedule_adaptation();
    if (params_.churn_interarrival > 0) schedule_churn();
    if (params_.trace_timeline) schedule_trace();
    if (faults_) schedule_crash_waves();
    // Scheduled after adaptation so an audit tick at the same timestamp
    // observes the post-adaptation state (same-time events fire in
    // scheduling order).
    if (auditor_) schedule_audit();
    sim_.run();
    return finalize();
  }

  /// Construction only: same Rng draws as run() up to the end of
  /// build_network, then stop. Timing is the caller's job so the report
  /// excludes Engine setup.
  BuildReport build_only() {
    build_network();
    BuildReport report;
    report.real_nodes = reals_.size();
    report.overlay_slots = substrate_->num_slots();
    return report;
  }

 private:
  bool done() const {
    return issued_ >= params_.num_lookups && completed_ + dropped_ >= issued_;
  }

  bool tracing(trace::Category c) const { return trace_ && trace_->wants(c); }

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
    for (NodeIndex v : order) {
      const auto& budget = substrate_->budget(v);
      const int want = budget.initial_target() - budget.indegree();
      if (want > 0) substrate_->expand_indegree(v, want, 256);
    }
  }

  // --- workload ----------------------------------------------------------------

  void schedule_next_lookup() {
    if (issued_ >= params_.num_lookups) return;
    // Scenario rate phases modulate the Poisson intensity. With no driver
    // the expression is untouched, and a driver whose phases are idle at
    // `now` returns exactly 1.0 — rate * 1.0 == rate bit-exactly, so the
    // arrival draws only change while a flash/diurnal phase is live.
    double rate = params_.lookup_rate;
    if (scen_) rate *= scen_->rate_multiplier(sim_.now());
    sim_.schedule(rng_.exponential(rate), [this] {
      issue_lookup();
      schedule_next_lookup();
    });
  }

  NodeIndex pick_alive_overlay_node() {
    for (;;) {
      const NodeIndex v = rng_.index(substrate_->num_slots());
      if (substrate_->alive(v)) return v;
    }
  }

  /// Claims a queries_ slot for a new lookup. Fault-free runs recycle the
  /// slots of settled lookups, so queries_ scales with peak concurrency
  /// instead of num_lookups (2M lookups would otherwise retain ~300 MB of
  /// dead Query state). Faulted runs never recycle: message duplication
  /// leaves straggler copies in flight that still dereference their slot
  /// after the lookup settles, and those must keep finding done == true.
  std::size_t claim_slot(std::uint64_t id) {
    if (!free_slots_.empty()) {
      const std::size_t slot = free_slots_.back();
      free_slots_.pop_back();
      queries_[slot].reset(id);
      return slot;
    }
    queries_.emplace_back();
    queries_.back().id = id;
    return queries_.size() - 1;
  }

  void release_slot(std::size_t slot) {
    if (faults_) return;
    free_slots_.push_back(static_cast<std::uint32_t>(slot));
  }

  void issue_lookup() {
    ++issued_;
    const std::size_t qid = claim_slot(next_query_id_++);
    Query& q = queries_[qid];
    q.start_time = sim_.now();
    NodeIndex src;
    if (impulse_.enabled()) {
      // Sec. 5.4: sources live in the contiguous impulse interval and all
      // query the same hot keys.
      const std::uint64_t lv =
          (impulse_.interval_start +
           static_cast<std::uint64_t>(rng_.uniform_int(
               0, static_cast<std::int64_t>(impulse_.interval_len) - 1))) %
          substrate_->key_space();
      src = substrate_->node_at_or_after(lv);
      q.key = impulse_.pick_key(rng_);
    } else if (zipf_) {
      src = pick_alive_overlay_node();
      q.key = zipf_->pick(rng_);
    } else {
      src = pick_alive_overlay_node();
      q.key = rng_.bits() % substrate_->key_space();
    }
    // An active hotspot phase overrides the key with a rotating-Zipf pick
    // from the scenario stream. The base key draw above still happens, so
    // the workload stream stays aligned across the phase boundary and the
    // override is purely a value substitution.
    if (scen_) scen_->hotspot_key(sim_.now(), &q.key);
    q.cur = src;
    if (params_.data_forwarding) q.path.push_back(src);
    if (tracing(trace::Category::kQuery))
      trace_->emit(trace::EventType::kQueryBegin, src, q.id,
                   static_cast<std::int64_t>(q.key));
    arrive(qid, src);
  }

  // --- queueing ----------------------------------------------------------------

  void arrive(std::size_t qid, NodeIndex v) {
    Query& q = queries_[qid];
    // The tracked copy of this query landed: its frame leaves the wire.
    if (meter_ && q.wire_bytes) {
      meter_->in_flight_sub(q.wire_bytes);
      q.wire_bytes = 0;
    }
    // Under duplication one query can have several copies in flight; once
    // any copy finishes (or the lookup is failed), the stragglers evaporate
    // here. Fault-free runs never take this branch.
    if (q.done) return;
    if (!substrate_->alive(v)) {
      // The node died while the query was in flight: timeout, then hand the
      // query to the dead node's ring successor.
      ++q.timeouts;
      if (tracing(trace::Category::kHop))
        trace_->emit(trace::EventType::kQueryTimeout, v, q.id, 0, 0,
                     /*site=*/0);
      const NodeIndex sub = substrate_->live_successor(v);
      ++q.hops;
      if (meter_) account_forward(qid, sub, /*track=*/true);
      sim_.schedule(params_.timeout_penalty,
                    [this, qid, sub] { arrive(qid, sub); });
      return;
    }
    q.cur = v;
    const std::size_t r = real_of(v);
    RealNode& rn = reals_[r];
    if (params_.queue_cap != 0 &&
        rn.tracker.queue_length() >= params_.queue_cap) {
      // Bounded ingress queue (figure-scale runs): a node already at its
      // cap sheds the arrival as an overload drop rather than queueing it.
      drop_lookup(qid);
      return;
    }
    if (is_heavy(r)) {
      ++q.heavy_met;
      if (tracing(trace::Category::kOverload))
        trace_->emit(
            trace::EventType::kQueryOverload, v, q.id,
            static_cast<std::int64_t>(rn.tracker.queue_length()),
            std::llround(congestion(r) * 1000.0));
    }
    rn.tracker.on_enqueue();
    rn.peak_congestion = std::max(rn.peak_congestion, congestion(r));
    // Single FIFO server per node: the paper's capacity slots bound how
    // many queries a node "can handle at one time" (the overload
    // threshold), while processing itself is one query at a time with the
    // Table 2 service times (0.2 s light, 1 s heavy).
    if (rn.in_service == 0) {
      begin_service(r, qid);
    } else {
      rn.waiting.push_back(static_cast<std::uint32_t>(qid));
    }
  }

  void begin_service(std::size_t r, std::size_t qid) {
    RealNode& rn = reals_[r];
    ++rn.in_service;
    rn.serving.push_back(static_cast<std::uint32_t>(qid));
    // Table 2: 0.2 s in light nodes, 1 s in heavy nodes, chosen when
    // processing starts, scaled by capacity — "capacity represents the
    // number of queries node i can handle in a given time interval"
    // (Sec. 3.1), so a node of twice the normalized capacity processes
    // twice as fast. The Table 2 times are for a capacity-1 node.
    const double base = is_heavy(r) ? params_.heavy_service_time
                                    : params_.light_service_time;
    const double service = base / rn.cap;
    rn.service_ev =
        sim_.schedule(service, [this, r, qid] { complete_service(r, qid); });
  }

  void complete_service(std::size_t r, std::size_t qid) {
    RealNode& rn = reals_[r];
    --rn.in_service;
    std::erase(rn.serving, static_cast<std::uint32_t>(qid));
    rn.tracker.on_dequeue();
    if (!rn.waiting.empty()) {
      const std::size_t next_qid = rn.waiting.front();
      rn.waiting.pop_front();
      begin_service(r, next_qid);
    }
    if (queries_[qid].done) return;  // duplicate copy of a finished lookup
    if (queries_[qid].returning) {
      forward_response(qid);
    } else {
      forward(qid);
    }
  }

  // --- message transport (fault-injection aware) -------------------------------

  /// Sends one inter-node hop. Fault-free (and zero-probability-plan) runs
  /// take a single schedule at `latency` — the exact pre-fault-layer path.
  /// Under a message-fault plan the hop may be dropped (the sender detects
  /// the loss after a backoff timeout and retransmits until the retry
  /// budget runs out), delayed, or duplicated (delivery is at-least-once;
  /// Query::done absorbs the extra copies).
  void send_hop(std::size_t qid, NodeIndex to, double latency) {
    if (!faults_ || !faults_->plan().message_faults()) {
      if (meter_) account_forward(qid, to, /*track=*/true);
      sim_.schedule(latency, [this, qid, to] { arrive(qid, to); });
      return;
    }
    attempt_send(qid, to, latency, 0);
  }

  /// Serializes and accounts one Forward transmission of query `qid` from
  /// q.cur to `to`. With `track` the frame joins the bytes-in-flight gauge
  /// (cleared when it arrives); dropped and duplicate transmissions are
  /// accounted untracked — their bytes hit the wire but the copy is not the
  /// one whose arrival the gauge follows.
  void account_forward(std::size_t qid, NodeIndex to, bool track) {
    Query& q = queries_[qid];
    const wire::Forward m{q.id,
                          q.key,
                          q.cur,
                          to,
                          q.hops,
                          q.returning,
                          static_cast<std::uint32_t>(q.overloaded.size()),
                          q.overloaded.entries()};
    const std::uint32_t size = meter_->send(m, real_of(q.cur));
    if (track) {
      q.wire_bytes = size;
      meter_->in_flight_add(size);
    }
  }

  void attempt_send(std::size_t qid, NodeIndex to, double latency,
                    int attempt) {
    Query& q = queries_[qid];
    if (q.done) return;
    const MessageFate f = faults_->fate();
    // Every transmission attempt burns wire bytes, dropped ones included.
    if (meter_) account_forward(qid, to, /*track=*/!f.dropped);
    if (f.dropped) {
      ++fstats_.timed_out;
      q.fault_hit = true;
      if (tracing(trace::Category::kFault))
        trace_->emit(trace::EventType::kFaultTimeout, to, q.id, attempt);
      if (faults_->retries_exhausted(attempt + 1)) {
        fail_lookup_fault(qid);
        return;
      }
      ++fstats_.retried;
      if (tracing(trace::Category::kFault))
        trace_->emit(trace::EventType::kFaultRetry, to, q.id, attempt + 1);
      sim_.schedule(faults_->retry_delay(attempt),
                    [this, qid, to, latency, attempt] {
                      attempt_send(qid, to, latency, attempt + 1);
                    });
      return;
    }
    sim_.schedule(latency + f.extra_delay,
                  [this, qid, to] { arrive(qid, to); });
    if (f.duplicated) {
      if (meter_) account_forward(qid, to, /*track=*/false);
      sim_.schedule(latency + f.extra_delay + f.dup_extra_delay,
                    [this, qid, to] { arrive(qid, to); });
    }
  }

  // --- routing + forwarding policy ----------------------------------------------

  void forward(std::size_t qid) {
    Query& q = queries_[qid];
    NodeIndex v = q.cur;
    for (int guard = 0; guard < 4096; ++guard) {
      if (q.hops > hop_cap()) {
        drop_lookup(qid);
        return;
      }
      const HopStep step =
          substrate_->route_step(v, q.key, q.rctx, route_scratch_);
      if (step.arrived) {
        finish_lookup(qid);
        return;
      }
      auto& cands = route_scratch_.candidates;
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
            substrate_->purge_dead(v, c);
        }
        if (live > 0) cands.resize(live);
      }
      int probes = 0;
      const NodeIndex next = select_next(qid, v, step, probes);
      if (next == dht::kNoNode) {
        drop_lookup(qid);
        return;
      }
      if (!substrate_->alive(next)) {
        // Timeout: discover the failure, purge the stale link, repair the
        // entry, and retry (Sec. 5.5's timeout accounting).
        ++q.timeouts;
        if (tracing(trace::Category::kHop))
          trace_->emit(trace::EventType::kQueryTimeout, next, q.id, 0, 0,
                       /*site=*/1);
        q.penalty += params_.timeout_penalty;
        substrate_->purge_dead(v, next);
        if (step.slot != kNoSlot) substrate_->repair_entry(v, step.slot);
        continue;
      }
      ++q.hops;
      if (tracing(trace::Category::kHop))
        trace_->emit(trace::EventType::kQueryHop, v, q.id,
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
      send_hop(qid, next, latency);
      return;
    }
    drop_lookup(qid);
  }

  /// Data-forwarding mode (the anonymity pattern of Freenet/Mantis/Hordes
  /// the introduction cites): the response retraces the query path through
  /// the intermediaries, loading each of them once more.
  void forward_response(std::size_t qid) {
    Query& q = queries_[qid];
    while (!q.path.empty() && (q.path.back() == q.cur ||
                               !substrate_->alive(q.path.back()))) {
      q.path.pop_back();  // skip self and departed intermediaries
    }
    if (q.path.empty()) {
      complete_query(qid);
      return;
    }
    const NodeIndex next = q.path.back();
    q.path.pop_back();
    ++q.hops;
    // Response-leg hop: no candidate set (the path is fixed), aux = 0.
    if (tracing(trace::Category::kHop))
      trace_->emit(trace::EventType::kQueryHop, q.cur, q.id,
                   static_cast<std::int64_t>(next),
                   static_cast<std::int64_t>(q.overloaded.size()), 0);
    const double latency = prox_.latency(real_of(q.cur), real_of(next));
    send_hop(qid, next, latency);
  }

  NodeIndex select_next(std::size_t qid, NodeIndex v, const HopStep& step,
                        int& probes) {
    Query& q = queries_[qid];
    const auto& cands = route_scratch_.candidates;
    if (!uses_forwarding(proto_)) {
      if (is_ert(proto_)) {
        // ERT/A: random walk over the elastic candidate set (Sec. 4.1's
        // baseline policy).
        return cands[rng_.index(cands.size())];
      }
      // Base / NS / VS: the substrate's deterministic best candidate.
      return cands.front();
    }
    // ERT/F and ERT/AF: Algorithm 4, through the allocation-free fast path:
    // the probe lambda is dispatched directly (no per-hop std::function),
    // and all temporaries live in the engine's ForwardScratch.
    core::TopoForwardOptions opts;
    opts.poll_size = params_.poll_size;
    opts.use_memory = params_.use_memory;
    opts.track_overloaded = params_.propagate_overloaded;
    const auto probe = [&](NodeIndex c) {
      core::ProbeResult pr;
      const std::size_t r = real_of(c);
      pr.load = congestion(r);
      pr.heavy = is_heavy(r);
      pr.logical_distance = substrate_->logical_distance_to_key(c, q.key);
      pr.physical_distance = prox_.distance(real_of(v), r);
      pr.unit_load = 1.0 / reals_[r].cap;
      if (meter_) {
        // Algorithm 4's DHT-lookahead probe is a round trip on the wire.
        const auto qlen =
            static_cast<std::uint64_t>(reals_[r].tracker.queue_length());
        meter_->send(wire::Probe{q.id, v, c, qlen}, real_of(v));
        meter_->send(wire::ProbeReply{q.id, c, v, qlen}, r);
      }
      return pr;
    };
    if (dht::RoutingEntry* entry = substrate_->entry(v, step.slot)) {
      const core::ForwardStep dec = core::forward_topology_aware(
          *entry, cands, q.overloaded, opts, probe, rng_, fwd_scratch_);
      probes = dec.probes;
      // The fast path already filtered out A members, so this is a pure
      // capped append — no rescans of A.
      for (NodeIndex o : fwd_scratch_.newly_overloaded) {
        if (q.overloaded.size() < core::kOverloadedSetCap) q.overloaded.insert(o);
      }
      return dec.next;
    }
    // Emergency (non-table) hop: uniform choice, as forward_random.
    return cands.empty() ? dht::kNoNode : cands[rng_.index(cands.size())];
  }

  std::size_t hop_cap() const { return 64 + substrate_->num_slots() / 2; }

  void finish_lookup(std::size_t qid) {
    Query& q = queries_[qid];
    if (q.done) return;
    if (params_.data_forwarding && !q.returning) {
      // The owner sends the data back through the recorded path.
      q.returning = true;
      forward_response(qid);
      return;
    }
    complete_query(qid);
  }

  void complete_query(std::size_t qid) {
    Query& q = queries_[qid];
    if (q.done) return;
    q.done = true;
    if (q.fault_hit) ++fstats_.recovered;
    if (tracing(trace::Category::kQuery))
      trace_->emit(trace::EventType::kQueryEnd, q.cur, q.id,
                   static_cast<std::int64_t>(q.hops),
                   static_cast<std::int64_t>(q.heavy_met));
    metrics::LookupRecord rec;
    rec.latency = sim_.now() - q.start_time;
    rec.path_len = q.hops;
    rec.heavy_met = q.heavy_met;
    rec.timeouts = q.timeouts;
    lookups_.add(rec);
    ++completed_;
    release_slot(qid);
    on_lookup_settled();
  }

  /// Once the workload is fully settled, cancel the pending audit tick and
  /// the pending timeline sample so neither periodic chain extends the
  /// simulated clock past the last workload event (audited and
  /// timeline-traced runs stay bit-identical, sim_duration included).
  void on_lookup_settled() {
    if (!done()) return;
    audit_ev_.cancel();
    timeline_ev_.cancel();
  }

  /// Routing-capacity failure (hop budget exhausted, no candidate left):
  /// the Figure-4 congestion path.
  void drop_lookup(std::size_t qid) {
    Query& q = queries_[qid];
    if (q.done) return;
    q.done = true;
    if (tracing(trace::Category::kQuery))
      trace_->emit(trace::EventType::kQueryDrop, q.cur, q.id,
                   static_cast<std::int64_t>(q.hops), 0, /*cause=*/0);
    ++dropped_overload_;
    ++dropped_;
    release_slot(qid);
    on_lookup_settled();
  }

  /// Fault-layer failure: a hop's retransmit budget was exhausted.
  void fail_lookup_fault(std::size_t qid) {
    Query& q = queries_[qid];
    if (q.done) return;
    q.done = true;
    if (tracing(trace::Category::kQuery))
      trace_->emit(trace::EventType::kQueryDrop, q.cur, q.id,
                   static_cast<std::int64_t>(q.hops), 0, /*cause=*/1);
    ++dropped_fault_;
    ++dropped_;
    release_slot(qid);
    on_lookup_settled();
  }

  void schedule_zipf_drift() {
    if (done()) return;
    sim_.schedule(params_.zipf_drift_period, [this] {
      // Time-varying popularity: the hot set moves to different keys.
      zipf_->reshuffle(rng_);
      schedule_zipf_drift();
    });
  }

  // --- periodic indegree adaptation (Algorithm 3) ---------------------------------

  void schedule_adaptation() {
    if (done()) return;
    sim_.schedule(params_.adapt_period, [this] {
      adaptation_sweep();
      schedule_adaptation();
    });
  }

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
    timeline_ev_ = sim_.schedule(params_.adapt_period, [this] {
      sample_timeline();
      schedule_trace();
    });
  }

  void sample_timeline() {
    ExperimentResult::PeriodSample s;
    s.time = sim_.now();
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
    s.in_flight = issued_ - completed_ - dropped_;
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
    sim_.schedule(rng_.exponential(rate), [this] {
      churn_join();
      schedule_churn();
    });
    sim_.schedule(rng_.exponential(rate), [this] { churn_depart(); });
  }

  void churn_join() {
    if (done()) return;
    join_real(rng_);
  }

  /// One node join, fully charged to `rng`: capacity draw, proximity
  /// placement, overlay insertion, table build, and initial indegree
  /// probing. Parameter churn passes the workload stream (the historical
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
        return;
      }
      const NodeIndex v = substrate_->add_node(
          rng, caps_.normalized(r), node_max_indegree(r, rng), params_.beta);
      overlay_slot = static_cast<std::int64_t>(v);
      overlay_of_real_.push_back(v);
      real_of_overlay_.push_back(r);
      substrate_->build_table(v, rng);
      if (is_ert(proto_)) {
        const auto& budget = substrate_->budget(v);
        const int want = budget.initial_target() - budget.indegree();
        if (want > 0) substrate_->expand_indegree(v, want, 256);
      }
    }
    if (tracing(trace::Category::kChurn))
      trace_->emit(trace::EventType::kChurnJoin, r, 0, overlay_slot);
    // Accepted joins announce themselves; a rejected join (id space full,
    // slot -1) returned above and sent nothing.
    if (meter_ && overlay_slot >= 0)
      meter_->send(wire::Join{r, static_cast<std::uint64_t>(overlay_slot)}, r);
    degrees_->ensure_size(reals_.size());
  }

  void churn_depart() {
    if (done()) return;
    // Pick a random alive real node; keep a floor so the network survives.
    if (alive_reals() < std::max<std::size_t>(16, params_.num_nodes / 4))
      return;
    for (int tries = 0; tries < 64; ++tries) {
      const std::size_t r = rng_.index(reals_.size());
      if (!reals_[r].alive) continue;
      depart_real(r);
      return;
    }
  }

  std::size_t alive_reals() const {
    std::size_t n = 0;
    for (const auto& rn : reals_)
      if (rn.alive) ++n;
    return n;
  }

  void depart_real(std::size_t r, bool crash = false) {
    RealNode& rn = reals_[r];
    rn.alive = false;
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
    std::vector<std::size_t> displaced;
    displaced.reserve(rn.waiting.size() + rn.serving.size());
    rn.waiting.for_each([&](std::uint32_t qid) { displaced.push_back(qid); });
    for (std::uint32_t qid : rn.serving) displaced.push_back(qid);
    rn.waiting.clear();
    rn.serving.clear();
    rn.in_service = 0;
    for (std::size_t i = 0; i < displaced.size(); ++i) rn.tracker.on_dequeue();
    for (std::size_t qid : displaced) {
      Query& q = queries_[qid];
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
      if (meter_) account_forward(qid, sub, /*track=*/true);
      sim_.schedule(params_.timeout_penalty,
                    [this, qid, sub] { arrive(qid, sub); });
    }
  }

  // --- crash waves (FaultPlan schedule) --------------------------------------------

  void schedule_crash_waves() {
    // run() schedules these at t = 0, so the delay is the absolute time.
    for (const CrashWave& wave : faults_->plan().crash_waves) {
      sim_.schedule(wave.time,
                    [this, count = wave.count] { crash_wave(count); });
    }
  }

  void crash_wave(std::size_t count) {
    if (done()) return;
    Rng& rng = faults_->crash_rng();
    for (std::size_t k = 0; k < count; ++k) {
      // Same survival floor as churn so the network stays routable.
      if (alive_reals() <= std::max<std::size_t>(16, params_.num_nodes / 4))
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
        sim_.schedule(p.start, [this, i] { scenario_churn_tick(i); });
      } else if (p.type == scenario::PhaseType::kPartition) {
        sim_.schedule(p.start, [this, i] { partition_start(i); });
      }
    }
  }

  /// One scenario-churn event: a join plus a capacity-biased departure,
  /// then the next tick after an exponential gap — all drawn from the
  /// scenario stream, leaving the workload stream untouched.
  void scenario_churn_tick(std::size_t pi) {
    if (done()) return;
    const scenario::Phase& ph = scen_->scenario().phases[pi];
    if (sim_.now() >= ph.end) return;
    Rng& rng = scen_->rng();
    join_real(rng);
    scenario_depart(ph.bias, rng);
    const double gap = rng.exponential(1.0 / ph.interarrival);
    if (sim_.now() + gap < ph.end)
      sim_.schedule(gap, [this, pi] { scenario_churn_tick(pi); });
  }

  /// Weak nodes die more: departure victims are the weakest of `bias`
  /// uniformly sampled candidates (bias 1 = uniform churn). Dead samples
  /// rank as infinitely strong so a tournament never "wins" a dead node
  /// unless every sample was dead, in which case we redraw.
  void scenario_depart(int bias, Rng& rng) {
    if (alive_reals() < std::max<std::size_t>(16, params_.num_nodes / 4))
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
    sim_.schedule(std::max(0.0, ph.end - sim_.now()),
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
    audit_ev_ = sim_.schedule(period, [this] {
      // Inside a partition phase's waiver window the Theorem 3.1/3.2
      // sweep is skipped (and counted): mass silent departure leaves
      // stale links by design, and the bounds are only promised again
      // `settle` seconds after the rejoin (docs/SCENARIOS.md).
      if (scen_ && scen_->audit_waived(sim_.now())) {
        ++audit_waived_;
      } else {
        audit_sweep();
      }
      schedule_audit();
    });
  }

  void audit_sweep() {
    auditor_->begin_sweep(sim_.now());
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

    res.heavy_encounters = lookups_.total_heavy_encounters();
    res.avg_path_length = lookups_.avg_path_length();
    res.lookup_time = lookups_.latency_summary();
    res.avg_timeouts = lookups_.avg_timeouts();
    res.max_indegree = degrees_->indegree_summary();
    res.max_outdegree = degrees_->outdegree_summary();
    res.timeline = std::move(timeline_);
    res.completed_lookups = completed_;
    res.dropped_lookups = dropped_;
    res.dropped_overload = dropped_overload_;
    res.dropped_fault = dropped_fault_;
    res.sim_duration = sim_.now();
    res.final_nodes = alive_reals();
    res.faults = fstats_;
    res.adapt_sheds = adapt_sheds_;
    res.adapt_grows = adapt_grows_;
    if (auditor_) {
      res.audit_sweeps = auditor_->sweeps();
      res.audit_waived_sweeps = audit_waived_;
      res.audit_violations = auditor_->total_violations();
      res.audit_records = auditor_->records();
    }
    if (trace_) {
      if (trace_->wants(trace::Category::kRun))
        trace_->emit(trace::EventType::kRunEnd, 0, params_.seed,
                     static_cast<std::int64_t>(completed_),
                     static_cast<std::int64_t>(dropped_));
      res.trace_records = trace_->snapshot();
      res.trace_emitted = trace_->emitted();
      res.trace_dropped = trace_->dropped();
    }
    if (meter_) {
      res.bytes = meter_->totals();
      if (meter_->capturing()) res.wire_capture = meter_->capture();
    }
    return res;
  }

  SimParams params_;
  Protocol proto_;
  SubstrateKind kind_;
  Rng rng_;
  sim::Simulator sim_;
  core::CapacityModel caps_;
  net::ProximityMap prox_;
  std::unique_ptr<SubstrateOps> substrate_;
  std::unique_ptr<baselines::VirtualServerMap> vs_;
  workload::ImpulseWorkload impulse_;
  std::unique_ptr<workload::ZipfKeys> zipf_;
  std::vector<RealNode> reals_;
  std::vector<NodeIndex> overlay_of_real_;    ///< real -> overlay (non-VS).
  std::vector<std::size_t> real_of_overlay_;  ///< overlay -> real (non-VS).
  std::vector<Query> queries_;            ///< indexed by recycled slot.
  std::vector<std::uint32_t> free_slots_;  ///< settled slots, LIFO reuse.
  std::uint64_t next_query_id_ = 0;
  /// Per-engine scratch for the allocation-free hop loop: route_step writes
  /// candidates into route_scratch_, Algorithm 4 works out of fwd_scratch_.
  /// Engines are per-seed single-threaded, so one of each suffices.
  dht::RouteScratch route_scratch_;
  core::ForwardScratch fwd_scratch_;
  metrics::LookupStats lookups_;
  std::vector<ExperimentResult::PeriodSample> timeline_;
  std::unique_ptr<metrics::DegreeTracker> degrees_;
  std::size_t issued_ = 0;
  std::size_t completed_ = 0;
  std::size_t dropped_ = 0;  ///< dropped_overload_ + dropped_fault_.
  std::size_t dropped_overload_ = 0;
  std::size_t dropped_fault_ = 0;
  std::unique_ptr<FaultInjector> faults_;    ///< null in fault-free runs.
  scenario::Scenario scen_opts_;             ///< as configured; may be inert.
  std::unique_ptr<scenario::ScenarioDriver> scen_;  ///< null when inert.
  /// Raw capacities of each partition phase's departed nodes, held for the
  /// rejoin wave; indexed like the scenario's phase list.
  std::vector<std::vector<double>> partition_caps_;
  std::size_t adapt_sheds_ = 0;
  std::size_t adapt_grows_ = 0;
  std::size_t audit_waived_ = 0;
  std::unique_ptr<InvariantAuditor> auditor_;  ///< null unless audit.enabled.
  std::unique_ptr<trace::TraceSink> trace_;  ///< null unless trace.enabled.
  std::unique_ptr<wire::ByteMeter> meter_;   ///< null unless wire.bytes.
  sim::EventHandle audit_ev_;  ///< pending sweep, cancelled on settle.
  sim::EventHandle timeline_ev_;  ///< pending timeline sample, ditto.
  metrics::FaultCounters fstats_;
};

}  // namespace

ExperimentResult run_experiment(const SimParams& params, Protocol protocol,
                                SubstrateKind substrate,
                                const ExperimentOptions& options) {
  // sim_threads > 1 routes supported workloads through the sharded
  // conservative-PDES engine (docs/PDES.md); everything else — including
  // sim_threads == 1, which must stay bit-identical to the historical
  // engine — runs the serial single-queue path below.
  if (params.sim_threads > 1 &&
      pdes_supported(params, protocol, substrate, options)) {
    return run_experiment_sharded(params, protocol, substrate, options);
  }
  Engine engine(params, protocol, substrate, options);
  return engine.run();
}

ExperimentResult run_experiment(const SimParams& params, Protocol protocol,
                                SubstrateKind substrate) {
  return run_experiment(params, protocol, substrate, ExperimentOptions{});
}

ExperimentResult run_experiment(const SimParams& params, Protocol protocol) {
  return run_experiment(params, protocol, SubstrateKind::kCycloid);
}

BuildReport run_build_only(const SimParams& params, Protocol protocol,
                           SubstrateKind substrate) {
  Engine engine(params, protocol, substrate, ExperimentOptions{});
  const auto t0 = std::chrono::steady_clock::now();
  BuildReport report = engine.build_only();
  const auto t1 = std::chrono::steady_clock::now();
  report.build_seconds = std::chrono::duration<double>(t1 - t0).count();
  report.peak_rss_kb = peak_rss_kb();
  return report;
}

namespace {

/// Sequential seed-order reduction of per-seed results. Counters accumulate
/// in double and round once at the end (per-seed integer division would
/// truncate each term). Runs after every seed finishes, so the aggregate is
/// a pure function of the per-seed results — independent of which thread
/// produced them or when.
ExperimentResult reduce_in_seed_order(const std::vector<ExperimentResult>& runs) {
  assert(!runs.empty());
  const double w = 1.0 / static_cast<double>(runs.size());
  ExperimentResult acc;
  double heavy = 0.0, completed = 0.0, dropped = 0.0;
  double d_overload = 0.0, d_fault = 0.0;
  double timed_out = 0.0, retried = 0.0, recovered = 0.0, crashed = 0.0;
  double sheds = 0.0, grows = 0.0;
  // Byte counters average over seeds like the other counters (accumulated
  // in double, rounded once), except the peaks: in-flight peaks sum (an
  // upper bound) and backlog peaks max, matching ByteTotals::merge.
  std::array<double, 16> bmc{}, bmb{};
  double b_cm = 0.0, b_cb = 0.0, b_qm = 0.0, b_qb = 0.0;
  double b_if = 0.0, b_pif = 0.0, b_delayed = 0.0;
  for (const ExperimentResult& r : runs) {
    acc.p99_max_congestion += w * r.p99_max_congestion;
    acc.mean_max_congestion += w * r.mean_max_congestion;
    acc.min_cap_node_congestion += w * r.min_cap_node_congestion;
    acc.p99_share += w * r.p99_share;
    heavy += w * static_cast<double>(r.heavy_encounters);
    acc.avg_path_length += w * r.avg_path_length;
    acc.lookup_time.mean += w * r.lookup_time.mean;
    acc.lookup_time.p01 += w * r.lookup_time.p01;
    acc.lookup_time.p99 += w * r.lookup_time.p99;
    acc.avg_timeouts += w * r.avg_timeouts;
    acc.max_indegree.mean += w * r.max_indegree.mean;
    acc.max_indegree.p01 += w * r.max_indegree.p01;
    acc.max_indegree.p99 += w * r.max_indegree.p99;
    acc.max_outdegree.mean += w * r.max_outdegree.mean;
    acc.max_outdegree.p01 += w * r.max_outdegree.p01;
    acc.max_outdegree.p99 += w * r.max_outdegree.p99;
    completed += w * static_cast<double>(r.completed_lookups);
    dropped += w * static_cast<double>(r.dropped_lookups);
    d_overload += w * static_cast<double>(r.dropped_overload);
    d_fault += w * static_cast<double>(r.dropped_fault);
    timed_out += w * static_cast<double>(r.faults.timed_out);
    retried += w * static_cast<double>(r.faults.retried);
    recovered += w * static_cast<double>(r.faults.recovered);
    crashed += w * static_cast<double>(r.faults.crashed_nodes);
    sheds += w * static_cast<double>(r.adapt_sheds);
    grows += w * static_cast<double>(r.adapt_grows);
    acc.sim_duration += w * r.sim_duration;
    acc.final_nodes = r.final_nodes;
    // Audit output sums (not averages): sweeps and violations are totals
    // across seeds, and records concatenate in seed order.
    acc.audit_sweeps += r.audit_sweeps;
    acc.audit_waived_sweeps += r.audit_waived_sweeps;
    acc.audit_violations += r.audit_violations;
    acc.audit_records.insert(acc.audit_records.end(), r.audit_records.begin(),
                             r.audit_records.end());
    // Trace output likewise sums and concatenates in seed order, so the
    // serialized stream is byte-identical for any thread count.
    acc.trace_emitted += r.trace_emitted;
    acc.trace_dropped += r.trace_dropped;
    acc.trace_records.insert(acc.trace_records.end(), r.trace_records.begin(),
                             r.trace_records.end());
    for (std::size_t i = 0; i < bmc.size(); ++i) {
      bmc[i] += w * static_cast<double>(r.bytes.msg_count[i]);
      bmb[i] += w * static_cast<double>(r.bytes.msg_bytes[i]);
    }
    b_cm += w * static_cast<double>(r.bytes.control_msgs);
    b_cb += w * static_cast<double>(r.bytes.control_bytes);
    b_qm += w * static_cast<double>(r.bytes.query_msgs);
    b_qb += w * static_cast<double>(r.bytes.query_bytes);
    b_if += w * static_cast<double>(r.bytes.in_flight_bytes);
    b_pif += w * static_cast<double>(r.bytes.peak_in_flight_bytes);
    b_delayed += w * static_cast<double>(r.bytes.delayed_msgs);
    acc.bytes.queueing_delay_sum += w * r.bytes.queueing_delay_sum;
    acc.bytes.peak_backlog_bytes =
        std::max(acc.bytes.peak_backlog_bytes, r.bytes.peak_backlog_bytes);
    // Wire captures concatenate in seed order, like the trace stream.
    acc.wire_capture += r.wire_capture;
  }
  acc.heavy_encounters = static_cast<std::size_t>(std::llround(heavy));
  acc.completed_lookups = static_cast<std::size_t>(std::llround(completed));
  acc.dropped_lookups = static_cast<std::size_t>(std::llround(dropped));
  acc.dropped_overload = static_cast<std::size_t>(std::llround(d_overload));
  acc.dropped_fault = static_cast<std::size_t>(std::llround(d_fault));
  acc.faults.timed_out = static_cast<std::size_t>(std::llround(timed_out));
  acc.faults.retried = static_cast<std::size_t>(std::llround(retried));
  acc.faults.recovered = static_cast<std::size_t>(std::llround(recovered));
  acc.faults.crashed_nodes = static_cast<std::size_t>(std::llround(crashed));
  acc.adapt_sheds = static_cast<std::size_t>(std::llround(sheds));
  acc.adapt_grows = static_cast<std::size_t>(std::llround(grows));
  for (std::size_t i = 0; i < bmc.size(); ++i) {
    acc.bytes.msg_count[i] = static_cast<std::uint64_t>(std::llround(bmc[i]));
    acc.bytes.msg_bytes[i] = static_cast<std::uint64_t>(std::llround(bmb[i]));
  }
  acc.bytes.control_msgs = static_cast<std::uint64_t>(std::llround(b_cm));
  acc.bytes.control_bytes = static_cast<std::uint64_t>(std::llround(b_cb));
  acc.bytes.query_msgs = static_cast<std::uint64_t>(std::llround(b_qm));
  acc.bytes.query_bytes = static_cast<std::uint64_t>(std::llround(b_qb));
  acc.bytes.in_flight_bytes = static_cast<std::uint64_t>(std::llround(b_if));
  acc.bytes.peak_in_flight_bytes =
      static_cast<std::uint64_t>(std::llround(b_pif));
  acc.bytes.delayed_msgs = static_cast<std::uint64_t>(std::llround(b_delayed));
  return acc;
}

}  // namespace

std::vector<ExperimentResult> run_sweep(const std::vector<SweepJob>& jobs,
                                        int threads) {
  struct Unit {
    std::size_t job;
    int seed_offset;
  };
  std::vector<Unit> units;
  std::vector<std::vector<ExperimentResult>> runs(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    assert(jobs[j].seeds >= 1);
    runs[j].resize(static_cast<std::size_t>(jobs[j].seeds));
    for (int s = 0; s < jobs[j].seeds; ++s) units.push_back(Unit{j, s});
  }
  parallel_for(units.size(), threads, [&](std::size_t i) {
    const Unit& u = units[i];
    const SweepJob& job = jobs[u.job];
    SimParams p = job.params;
    p.seed = job.params.seed + static_cast<std::uint64_t>(u.seed_offset);
    runs[u.job][static_cast<std::size_t>(u.seed_offset)] =
        run_experiment(p, job.protocol, job.substrate, job.options);
  });
  std::vector<ExperimentResult> out;
  out.reserve(jobs.size());
  for (const auto& r : runs) out.push_back(reduce_in_seed_order(r));
  return out;
}

ExperimentResult run_averaged(const SimParams& params, Protocol protocol,
                              int seeds, SubstrateKind substrate, int threads,
                              const ExperimentOptions& options) {
  assert(seeds >= 1);
  SweepJob job;
  job.params = params;
  job.protocol = protocol;
  job.substrate = substrate;
  job.seeds = seeds;
  job.options = options;
  return run_sweep({job}, threads).front();
}

ExperimentResult run_averaged(const SimParams& params, Protocol protocol,
                              int seeds, SubstrateKind substrate,
                              int threads) {
  return run_averaged(params, protocol, seeds, substrate, threads,
                      ExperimentOptions{});
}

ExperimentResult run_averaged(const SimParams& params, Protocol protocol,
                              int seeds) {
  return run_averaged(params, protocol, seeds, SubstrateKind::kCycloid);
}

}  // namespace ert::harness
