#include "harness/pdes_engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "cycloid/overlay.h"
#include "ert/adaptation.h"
#include "ert/capacity.h"
#include "ert/forwarding.h"
#include "ert/load_tracker.h"
#include "harness/engine_detail.h"
#include "harness/substrate.h"
#include "metrics/metrics.h"
#include "net/bandwidth.h"
#include "net/proximity.h"
#include "sim/sharded.h"
#include "trace/trace.h"
#include "wire/meter.h"
#include "workload/workload.h"

namespace ert::harness {

bool pdes_supported(const SimParams& params, Protocol protocol,
                    SubstrateKind substrate, const ExperimentOptions& options) {
  (void)substrate;  // every substrate routes through RouteCtxBlob.
  if (uses_virtual_servers(protocol)) return false;
  if (params.impulse_nodes > 0) return false;
  if (!options.scenario.inert()) return false;
  // Message duplication breaks the single-handler ownership model (two
  // copies of one query would execute on two shards at once).
  if (options.faults.dup_prob > 0.0) return false;
  // Too few nodes per shard: windowing overhead dominates and a shard can
  // plausibly end up empty.
  if (params.num_nodes < 8 * static_cast<std::size_t>(params.sim_threads))
    return false;
  return true;
}

namespace {

using dht::NodeIndex;
using detail::Query;

/// Packed cross-shard query reference: owner shard << 32 | pool slot.
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

using RealNode = detail::RealNodeT<QueryRef>;

/// SplitMix64 finalizer: the shard-assignment hash (ISSUE 9's "hash of
/// NodeIndex32"), chosen so shard populations are balanced independently of
/// any structure in the join order.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
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

class ShardedEngine {
 public:
  ShardedEngine(const SimParams& params, Protocol proto, SubstrateKind kind,
                const ExperimentOptions& options)
      : params_(params),
        proto_(proto),
        kind_(kind),
        rng_(params.seed),
        S_(params.sim_threads),
        driver_(params.sim_threads, net::kDefaultBaseLatency) {
    if (options.faults.enabled()) {
      // Crash scheduling stays on the serial engine's injector stream; the
      // per-shard injectors own domain-separated message-fate streams.
      global_faults_ =
          std::make_unique<FaultInjector>(options.faults, params.seed);
    }
    if (options.audit.enabled)
      auditor_ = std::make_unique<InvariantAuditor>(
          options.audit, params.seed ^ 0xa0d17'5a3b1eULL);
    if (options.trace.enabled) {
      global_trace_ = std::make_unique<trace::TraceSink>(
          options.trace, [this] { return driver_.global().now(); });
    }
    if (options.wire.bytes) {
      // One LinkModel shared by every meter: a physical node has one egress
      // bucket no matter which clock observes it. The coordinator meter
      // serves global events (adaptation, churn, relocation); each shard
      // gets its own meter below, mirroring the tracer's sink-per-shard
      // pattern.
      links_ = std::make_unique<net::LinkModel>(
          net::BandwidthParams{options.wire.link_rate,
                               options.wire.link_burst});
      global_meter_ = std::make_unique<wire::ByteMeter>(
          options.wire, [this] { return driver_.global().now(); },
          links_.get());
    }
    shards_.reserve(static_cast<std::size_t>(S_));
    const std::size_t per = params.num_lookups / static_cast<std::size_t>(S_);
    const std::size_t rem = params.num_lookups % static_cast<std::size_t>(S_);
    for (int s = 0; s < S_; ++s) {
      auto sh = std::make_unique<Shard>();
      sh->rng = Rng(params.seed ^
                    (0xd1b54a32d192ed03ULL *
                     (static_cast<std::uint64_t>(s) + 1)));
      // Exact quota split: the union of per-shard arrival processes issues
      // exactly num_lookups lookups (model-check requires equality).
      sh->quota = per + (static_cast<std::size_t>(s) < rem ? 1 : 0);
      if (options.faults.enabled())
        sh->faults = std::make_unique<FaultInjector>(
            options.faults,
            params.seed ^ (0x9e3779b97f4a7c15ULL *
                           (static_cast<std::uint64_t>(s) + 1)));
      if (options.trace.enabled) {
        // Each shard ring gets the full configured capacity, so a stream
        // that fits the serial ring cannot wrap a shard ring either.
        sim::Simulator* clock = &driver_.shard(s);
        sh->trace = std::make_unique<trace::TraceSink>(
            options.trace, [clock] { return clock->now(); });
        if (sh->faults) sh->faults->set_trace(sh->trace.get());
      }
      if (options.wire.bytes) {
        sim::Simulator* clock = &driver_.shard(s);
        sh->meter = std::make_unique<wire::ByteMeter>(
            options.wire, [clock] { return clock->now(); }, links_.get());
        // A shard may serialize a frame whose nominal sender lives on
        // another shard (a remote probe reply); it still counts in the
        // totals, but only the owner shard may charge the shared bucket.
        sh->meter->set_bucket_filter(
            [this, s](std::size_t link) { return shard_of_real(link) == s; });
      }
      sh->pool.init(params.num_lookups);
      shards_.push_back(std::move(sh));
    }
  }

  ExperimentResult run() {
    if (gtracing(trace::Category::kRun))
      global_trace_->emit(trace::EventType::kRunBegin, params_.num_nodes,
                          params_.seed, static_cast<std::int64_t>(proto_),
                          static_cast<std::int64_t>(kind_));
    build_network();
    if (global_meter_) {
      // Attached after construction, like the serial engine: only
      // steady-state traffic is billed, not the bulk-join link setup. The
      // eager pre-size (to the churn headroom reals_ was reserved with)
      // keeps shard-side sends from ever growing the shared bucket vector.
      substrate_->set_meter(global_meter_.get());
      global_meter_->set_link_map([this](std::size_t v) { return real_of(v); });
      global_meter_->reserve_links(reals_.capacity());
      for (auto& sh : shards_) sh->meter->reserve_links(reals_.capacity());
    }
    assign_shards();
    if (params_.zipf_catalog > 0) {
      zipf_ = std::make_unique<workload::ZipfKeys>(
          substrate_->key_space(), params_.zipf_catalog,
          params_.zipf_exponent, rng_);
      if (params_.zipf_drift_period > 0) schedule_zipf_drift();
    }
    if (uses_adaptation(proto_)) schedule_adaptation();
    if (params_.churn_interarrival > 0) schedule_churn();
    if (params_.trace_timeline) schedule_trace();
    if (global_faults_) schedule_crash_waves();
    if (auditor_) schedule_audit();
    for (int s = 0; s < S_; ++s) schedule_next_lookup(s);
    driver_.reserve_mailboxes(256);
    sim::ShardedSimulator::BarrierHooks hooks;
    hooks.pre_global = [this](sim::Time t) { barrier_apply(t); };
    hooks.post_global = [this](sim::Time t) { barrier_refresh(t); };
    driver_.set_hooks(std::move(hooks));
    driver_.run();
    return finalize();
  }

 private:
  struct RepairRec {
    NodeIndex at;
    NodeIndex dead;
    std::size_t slot;  ///< kNoSlot for a purge with no entry repair.
  };

  /// Everything owned by (or single-writer from) one shard.
  struct Shard {
    Rng rng;  ///< domain-separated workload stream.
    QueryPool pool;
    std::vector<NodeIndex> members;  ///< overlay slots this shard owns.
    std::size_t alive_members = 0;   ///< maintained at global time.
    std::size_t quota = 0;           ///< lookups this shard must issue.
    std::size_t issued = 0;
    std::size_t completed = 0;
    std::size_t dropped_overload = 0;
    std::size_t dropped_fault = 0;
    std::uint64_t next_seq = 0;  ///< per-shard issue counter (id = seq*S+s).
    bool arrival_idle = true;    ///< no pending arrival event.
    metrics::LookupStats lookups;
    metrics::FaultCounters fstats;
    std::unique_ptr<FaultInjector> faults;      ///< message fates only.
    std::unique_ptr<trace::TraceSink> trace;    ///< shard-clock sink.
    std::unique_ptr<wire::ByteMeter> meter;     ///< shard-clock byte meter.
    dht::RouteScratch route_scratch;
    core::ForwardScratch fwd_scratch;
    std::vector<RepairRec> repairs;  ///< deferred purge/repair, barrier-run.
    std::vector<std::uint32_t> dirty;  ///< reals with changed queue length.
  };

  sim::Simulator& sim(int s) { return driver_.shard(s); }
  sim::Simulator& global() { return driver_.global(); }
  Shard& shard(int s) { return *shards_[static_cast<std::size_t>(s)]; }

  Query& query(QueryRef ref) {
    return shard(ref_shard(ref)).pool.at(ref_slot(ref));
  }

  bool gtracing(trace::Category c) const {
    return global_trace_ && global_trace_->wants(c);
  }
  bool stracing(int s, trace::Category c) const {
    const auto& t = shards_[static_cast<std::size_t>(s)]->trace;
    return t && t->wants(c);
  }
  trace::TraceSink& strace(int s) {
    return *shards_[static_cast<std::size_t>(s)]->trace;
  }

  std::size_t real_of(NodeIndex v) const { return real_of_overlay_.at(v); }
  int shard_of_real(std::size_t r) const {
    return static_cast<int>(shard_of_real_[r]);
  }
  int shard_of(NodeIndex v) const { return shard_of_real(real_of(v)); }

  bool done() const {
    std::size_t issued = 0, settled = 0, quota = 0;
    for (const auto& sh : shards_) {
      issued += sh->issued;
      quota += sh->quota;
      settled += sh->completed + sh->dropped_overload + sh->dropped_fault;
    }
    return issued >= quota && settled >= issued;
  }

  // Queue-length views. A node's queue is mutated only by its owner shard
  // inside windows (and by the quiescent coordinator), so the owner reads
  // it live; every other shard reads the barrier-published snapshot.
  double queue_len_seen_by(int h, std::size_t r) const {
    return shard_of_real(r) == h
               ? static_cast<double>(reals_[r].tracker.queue_length())
               : static_cast<double>(snap_queue_[r]);
  }
  bool is_heavy_live(std::size_t r) const {
    return static_cast<double>(reals_[r].tracker.queue_length()) >
           params_.gamma_l * reals_[r].cap;
  }
  double congestion_live(std::size_t r) const {
    return static_cast<double>(reals_[r].tracker.queue_length()) /
           reals_[r].cap;
  }

  void mark_dirty(int h, std::size_t r) {
    if (dirty_epoch_[r] == window_id_) return;
    dirty_epoch_[r] = window_id_;
    shard(h).dirty.push_back(static_cast<std::uint32_t>(r));
  }

  // --- network construction (identical Rng draw sequence to the serial
  // engine's non-VS path, so both engines simulate the same network) -----

  void build_network() {
    const std::size_t n = params_.num_nodes;
    caps_ = core::CapacityModel::generate(n, params_, rng_);
    prox_ = net::ProximityMap(n, rng_);

    std::size_t ids_needed = n;
    const bool membership_churn = params_.churn_interarrival > 0;
    if (membership_churn) ids_needed = std::max(ids_needed, 2 * n);
    assert(proto_ != Protocol::kNS || kind_ == SubstrateKind::kCycloid ||
           kind_ == SubstrateKind::kKademlia);
    substrate_ = make_substrate(
        kind_, params_, /*capacity_biased=*/proto_ == Protocol::kNS,
        /*enforce_bounds=*/proto_ == Protocol::kNS || is_ert(proto_),
        ids_needed, [this](NodeIndex a, NodeIndex b) {
          return prox_.distance(real_of(a), real_of(b));
        });
    // Overlay-side link.adopt/shed records come from construction,
    // adaptation sweeps, joins, and barrier repairs — all coordinator-side
    // — so the substrate emits into the global sink.
    substrate_->set_trace(global_trace_.get());

    const std::size_t headroom = membership_churn ? n + n / 2 : n;
    overlay_of_real_.reserve(headroom);
    real_of_overlay_.reserve(headroom);
    reals_.reserve(headroom);
    prox_.reserve(headroom);

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

    reals_.resize(n);
    for (std::size_t r = 0; r < n; ++r) reals_[r].cap = caps_.normalized(r);
    degrees_ = std::make_unique<metrics::DegreeTracker>(n);
    observe_degrees();
  }

  int node_max_indegree(std::size_t r, Rng& rng) {
    if (is_ert(proto_) || proto_ == Protocol::kNS) {
      const double est = caps_.estimated(r, params_.gamma_c, rng);
      return core::max_indegree(params_.alpha(), est);
    }
    return 1 << 20;  // Base: no indegree control.
  }

  void initial_indegree_assignment() {
    std::vector<NodeIndex> order(substrate_->num_slots());
    for (NodeIndex v = 0; v < order.size(); ++v) order[v] = v;
    rng_.shuffle(order);
    for (NodeIndex v : order) {
      const auto& budget = substrate_->budget(v);
      const int want = budget.initial_target() - budget.indegree();
      if (want > 0) substrate_->expand_indegree(v, want, 256);
    }
  }

  void assign_shards() {
    const std::size_t n = reals_.size();
    shard_of_real_.resize(n);
    snap_queue_.assign(n, 0);
    dirty_epoch_.assign(n, 0);
    for (std::size_t r = 0; r < n; ++r) {
      const int s = static_cast<int>(
          mix64(r) % static_cast<std::uint64_t>(S_));
      shard_of_real_[r] = static_cast<std::uint32_t>(s);
      const NodeIndex v = overlay_of_real_[r];
      if (v == dht::kNoNode) continue;
      shard(s).members.push_back(v);
      if (reals_[r].alive) {
        ++shard(s).alive_members;
        ++alive_total_;
      }
    }
  }

  // --- per-shard workload ------------------------------------------------

  void schedule_next_lookup(int s) {
    Shard& sh = shard(s);
    if (sh.issued >= sh.quota || sh.alive_members == 0) {
      sh.arrival_idle = true;
      return;
    }
    // Per-shard Poisson thinning: rate_s = rate * alive_s / alive_total
    // with uniform shard-local sources. The superposition over shards is
    // exactly a Poisson(rate) process with uniform alive sources — the
    // serial workload in law, issued without any cross-shard coordination.
    const double rate = params_.lookup_rate *
                        static_cast<double>(sh.alive_members) /
                        static_cast<double>(alive_total_);
    sh.arrival_idle = false;
    sim(s).schedule(sh.rng.exponential(rate), [this, s] {
      issue_lookup(s);
      schedule_next_lookup(s);
    });
  }

  NodeIndex pick_alive_member(int s) {
    Shard& sh = shard(s);
    for (;;) {
      const NodeIndex v = sh.members[sh.rng.index(sh.members.size())];
      if (substrate_->alive(v)) return v;
    }
  }

  void issue_lookup(int s) {
    Shard& sh = shard(s);
    if (sh.alive_members == 0) return;  // barrier fixup reassigns the quota
    ++sh.issued;
    const std::uint64_t id =
        sh.next_seq++ * static_cast<std::uint64_t>(S_) +
        static_cast<std::uint64_t>(s);
    const std::uint32_t slot = sh.pool.claim(id, /*recycle=*/!sh.faults);
    const QueryRef ref = pack_ref(s, slot);
    Query& q = sh.pool.at(slot);
    q.start_time = sim(s).now();
    const NodeIndex src = pick_alive_member(s);
    q.key = zipf_ ? zipf_->pick(sh.rng)
                  : sh.rng.bits() % substrate_->key_space();
    q.cur = src;
    if (params_.data_forwarding) q.path.push_back(src);
    if (stracing(s, trace::Category::kQuery))
      strace(s).emit(trace::EventType::kQueryBegin, src, q.id,
                     static_cast<std::int64_t>(q.key));
    arrive(s, ref, src);
  }

  // --- message transport -------------------------------------------------

  /// Delivers `ref` to overlay node `to` after `delay` seconds, crossing
  /// shards through the mailbox when needed. Every delay on this path is
  /// >= the lookahead floor (link latency >= base latency; timeout penalty
  /// and retry timeouts are 0.5 s), which is what licenses the windows.
  void deliver(int h, QueryRef ref, NodeIndex to, double delay) {
    const int t = shard_of(to);
    if (t == h) {
      sim(h).schedule(delay, [this, t, ref, to] { arrive(t, ref, to); });
    } else {
      driver_.post(h, t, sim(h).now() + delay,
                   [this, t, ref, to] { arrive(t, ref, to); });
    }
  }

  /// Serializes and accounts one Forward transmission of `ref` toward `to`,
  /// charged to the handling shard's meter. The in-flight gauge is tracked
  /// only for intra-shard deliveries: the arrival-side decrement runs on
  /// the receiver's meter, and touching another shard's meter would race.
  /// Cross-shard frames still count fully in the byte totals.
  void account_forward(int h, QueryRef ref, NodeIndex to, bool track) {
    Query& q = query(ref);
    const wire::Forward m{q.id,        q.key,
                          q.cur,       to,
                          q.hops,      q.returning,
                          static_cast<std::uint32_t>(q.overloaded.size()),
                          q.overloaded.entries()};
    const std::uint32_t size = shard(h).meter->send(m, real_of(q.cur));
    if (track && shard_of(to) == h) {
      q.wire_bytes = size;
      shard(h).meter->in_flight_add(size);
    }
  }

  void send_hop(int h, QueryRef ref, NodeIndex to, double latency) {
    Shard& sh = shard(h);
    if (!sh.faults || !sh.faults->plan().message_faults()) {
      if (sh.meter) account_forward(h, ref, to, /*track=*/true);
      deliver(h, ref, to, latency);
      return;
    }
    attempt_send(h, ref, to, latency, 0);
  }

  void attempt_send(int h, QueryRef ref, NodeIndex to, double latency,
                    int attempt) {
    Shard& sh = shard(h);
    Query& q = query(ref);
    if (q.done) return;
    const MessageFate f = sh.faults->fate();
    // Dropped frames still burn sender bandwidth; only delivered frames
    // enter the in-flight gauge.
    if (sh.meter) account_forward(h, ref, to, /*track=*/!f.dropped);
    if (f.dropped) {
      ++sh.fstats.timed_out;
      q.fault_hit = true;
      if (stracing(h, trace::Category::kFault))
        strace(h).emit(trace::EventType::kFaultTimeout, to, q.id, attempt);
      if (sh.faults->retries_exhausted(attempt + 1)) {
        fail_lookup_fault(h, ref);
        return;
      }
      ++sh.fstats.retried;
      if (stracing(h, trace::Category::kFault))
        strace(h).emit(trace::EventType::kFaultRetry, to, q.id, attempt + 1);
      sim(h).schedule(sh.faults->retry_delay(attempt),
                      [this, h, ref, to, latency, attempt] {
                        attempt_send(h, ref, to, latency, attempt + 1);
                      });
      return;
    }
    // Duplication is gated off by pdes_supported, so a non-dropped message
    // is delivered exactly once.
    deliver(h, ref, to, latency + f.extra_delay);
  }

  // --- queueing (runs on the owner shard of the node) ---------------------

  void arrive(int h, QueryRef ref, NodeIndex v) {
    Query& q = query(ref);
    if (auto* m = shard(h).meter.get(); m && q.wire_bytes) {
      m->in_flight_sub(q.wire_bytes);
      q.wire_bytes = 0;
    }
    if (q.done) return;  // settled while a retry/timeout copy was in flight
    if (!substrate_->alive(v)) {
      ++q.timeouts;
      if (stracing(h, trace::Category::kHop))
        strace(h).emit(trace::EventType::kQueryTimeout, v, q.id, 0, 0,
                       /*site=*/0);
      const NodeIndex sub = substrate_->live_successor(v);
      ++q.hops;
      if (shard(h).meter) account_forward(h, ref, sub, /*track=*/true);
      deliver(h, ref, sub, params_.timeout_penalty);
      return;
    }
    q.cur = v;
    const std::size_t r = real_of(v);
    RealNode& rn = reals_[r];
    if (params_.queue_cap != 0 &&
        rn.tracker.queue_length() >= params_.queue_cap) {
      drop_lookup(h, ref);
      return;
    }
    if (is_heavy_live(r)) {
      ++q.heavy_met;
      if (stracing(h, trace::Category::kOverload))
        strace(h).emit(
            trace::EventType::kQueryOverload, v, q.id,
            static_cast<std::int64_t>(rn.tracker.queue_length()),
            std::llround(congestion_live(r) * 1000.0));
    }
    rn.tracker.on_enqueue();
    mark_dirty(h, r);
    rn.peak_congestion = std::max(rn.peak_congestion, congestion_live(r));
    if (rn.in_service == 0) {
      begin_service(h, r, ref);
    } else {
      rn.waiting.push_back(ref);
    }
  }

  void begin_service(int h, std::size_t r, QueryRef ref) {
    RealNode& rn = reals_[r];
    ++rn.in_service;
    rn.serving.push_back(ref);
    const double base = is_heavy_live(r) ? params_.heavy_service_time
                                         : params_.light_service_time;
    const double service = base / rn.cap;
    rn.service_ev = sim(h).schedule(
        service, [this, h, r, ref] { complete_service(h, r, ref); });
  }

  void complete_service(int h, std::size_t r, QueryRef ref) {
    RealNode& rn = reals_[r];
    --rn.in_service;
    std::erase(rn.serving, ref);
    rn.tracker.on_dequeue();
    mark_dirty(h, r);
    if (!rn.waiting.empty()) {
      const QueryRef next_ref = rn.waiting.front();
      rn.waiting.pop_front();
      begin_service(h, r, next_ref);
    }
    if (query(ref).done) return;
    if (query(ref).returning) {
      forward_response(h, ref);
    } else {
      forward(h, ref);
    }
  }

  // --- routing + forwarding ----------------------------------------------

  void forward(int h, QueryRef ref) {
    Shard& sh = shard(h);
    Query& q = query(ref);
    NodeIndex v = q.cur;
    for (int guard = 0; guard < 4096; ++guard) {
      if (q.hops > hop_cap()) {
        drop_lookup(h, ref);
        return;
      }
      const HopStep step =
          substrate_->route_step(v, q.key, q.rctx, sh.route_scratch);
      if (step.arrived) {
        finish_lookup(h, ref);
        return;
      }
      auto& cands = sh.route_scratch.candidates;
      assert(!cands.empty());
      if (is_ert(proto_) && cands.size() > 1) {
        // Dead candidates are skipped in place; the purge itself mutates
        // the dead node's inlink set (shared across shards), so it is
        // deferred to the window barrier instead of applied here.
        std::size_t live = 0;
        for (std::size_t i = 0; i < cands.size(); ++i) {
          const NodeIndex c = cands[i];
          if (substrate_->alive(c)) {
            cands[live++] = c;
          } else {
            sh.repairs.push_back(RepairRec{v, c, kNoSlot});
          }
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
        // Timeout on a dead neighbor. The serial engine purges, repairs,
        // and retries inline, folding the penalty into the next hop's
        // latency; here the repair is deferred to the barrier, so the
        // penalty is spent as a real wait (same total latency) and routing
        // resumes at v after the repair has been applied.
        ++q.timeouts;
        if (stracing(h, trace::Category::kHop))
          strace(h).emit(trace::EventType::kQueryTimeout, next, q.id, 0, 0,
                         /*site=*/1);
        sh.repairs.push_back(RepairRec{v, next, step.slot});
        q.cur = v;
        sim(h).schedule(params_.timeout_penalty,
                        [this, h, ref] { resume_forward(h, ref); });
        return;
      }
      ++q.hops;
      if (stracing(h, trace::Category::kHop))
        strace(h).emit(trace::EventType::kQueryHop, v, q.id,
                       static_cast<std::int64_t>(next),
                       static_cast<std::int64_t>(q.overloaded.size()),
                       static_cast<std::uint32_t>(cands.size()));
      if (params_.data_forwarding) q.path.push_back(next);
      if (real_of(next) == real_of(v)) {
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

  /// Re-enters the hop loop after a dead-neighbor timeout wait (>= one
  /// window, so the recorded repair has been applied).
  void resume_forward(int h, QueryRef ref) {
    Query& q = query(ref);
    if (q.done) return;
    if (!substrate_->alive(q.cur)) {
      // The holding node itself departed during the wait.
      ++q.timeouts;
      if (stracing(h, trace::Category::kHop))
        strace(h).emit(trace::EventType::kQueryTimeout, q.cur, q.id, 0, 0,
                       /*site=*/0);
      const NodeIndex sub = substrate_->live_successor(q.cur);
      ++q.hops;
      if (shard(h).meter) account_forward(h, ref, sub, /*track=*/true);
      deliver(h, ref, sub, params_.timeout_penalty);
      return;
    }
    forward(h, ref);
  }

  void forward_response(int h, QueryRef ref) {
    Query& q = query(ref);
    while (!q.path.empty() && (q.path.back() == q.cur ||
                               !substrate_->alive(q.path.back()))) {
      q.path.pop_back();
    }
    if (q.path.empty()) {
      complete_query(h, ref);
      return;
    }
    const NodeIndex next = q.path.back();
    q.path.pop_back();
    ++q.hops;
    if (stracing(h, trace::Category::kHop))
      strace(h).emit(trace::EventType::kQueryHop, q.cur, q.id,
                     static_cast<std::int64_t>(next),
                     static_cast<std::int64_t>(q.overloaded.size()), 0);
    const double latency = prox_.latency(real_of(q.cur), real_of(next));
    send_hop(h, ref, next, latency);
  }

  NodeIndex select_next(int h, QueryRef ref, NodeIndex v, const HopStep& step,
                        int& probes) {
    Shard& sh = shard(h);
    Query& q = query(ref);
    const auto& cands = sh.route_scratch.candidates;
    if (!uses_forwarding(proto_)) {
      if (is_ert(proto_)) return cands[sh.rng.index(cands.size())];
      return cands.front();
    }
    core::TopoForwardOptions opts;
    opts.poll_size = params_.poll_size;
    opts.use_memory = params_.use_memory;
    opts.track_overloaded = params_.propagate_overloaded;
    const auto probe = [&](NodeIndex c) {
      core::ProbeResult pr;
      const std::size_t r = real_of(c);
      // Load probes of nodes on other shards read the barrier-published
      // queue snapshot — at most one window (10 ms) stale, the price of
      // running probes without cross-shard synchronization.
      const double qlen = queue_len_seen_by(h, r);
      pr.load = qlen / reals_[r].cap;
      pr.heavy = qlen > params_.gamma_l * reals_[r].cap;
      pr.logical_distance = substrate_->logical_distance_to_key(c, q.key);
      pr.physical_distance = prox_.distance(real_of(v), r);
      pr.unit_load = 1.0 / reals_[r].cap;
      if (sh.meter) {
        // The probe leaves v's egress; the reply leaves the probed node's —
        // which may live on another shard, where the bucket filter skips
        // the charge (the totals still count both frames).
        const auto ql = static_cast<std::uint64_t>(qlen);
        sh.meter->send(wire::Probe{q.id, v, c, ql}, real_of(v));
        sh.meter->send(wire::ProbeReply{q.id, c, v, ql}, r);
      }
      return pr;
    };
    if (dht::RoutingEntry* entry = substrate_->entry(v, step.slot)) {
      const core::ForwardStep dec = core::forward_topology_aware(
          *entry, cands, q.overloaded, opts, probe, sh.rng, sh.fwd_scratch);
      probes = dec.probes;
      for (NodeIndex o : sh.fwd_scratch.newly_overloaded) {
        if (q.overloaded.size() < core::kOverloadedSetCap)
          q.overloaded.insert(o);
      }
      return dec.next;
    }
    return cands.empty() ? dht::kNoNode : cands[sh.rng.index(cands.size())];
  }

  std::size_t hop_cap() const { return 64 + substrate_->num_slots() / 2; }

  // --- lookup settlement --------------------------------------------------

  void finish_lookup(int h, QueryRef ref) {
    Query& q = query(ref);
    if (q.done) return;
    if (params_.data_forwarding && !q.returning) {
      q.returning = true;
      forward_response(h, ref);
      return;
    }
    complete_query(h, ref);
  }

  /// Returns the settled query's slot to its owner pool. A remote handler
  /// cannot touch the owner's free list directly, so it posts the retire
  /// through the mailbox at the lookahead horizon.
  void retire_slot(int h, QueryRef ref) {
    const int owner = ref_shard(ref);
    if (shard(owner).faults) return;  // faulted runs never recycle slots
    if (owner == h) {
      shard(owner).pool.release(ref_slot(ref));
    } else {
      driver_.post(h, owner, sim(h).now() + driver_.lookahead(),
                   [this, owner, slot = ref_slot(ref)] {
                     shard(owner).pool.release(slot);
                   });
    }
  }

  void complete_query(int h, QueryRef ref) {
    Shard& sh = shard(h);
    Query& q = query(ref);
    if (q.done) return;
    q.done = true;
    if (q.fault_hit) ++sh.fstats.recovered;
    if (stracing(h, trace::Category::kQuery))
      strace(h).emit(trace::EventType::kQueryEnd, q.cur, q.id,
                     static_cast<std::int64_t>(q.hops),
                     static_cast<std::int64_t>(q.heavy_met));
    metrics::LookupRecord rec;
    rec.latency = sim(h).now() - q.start_time;
    rec.path_len = q.hops;
    rec.heavy_met = q.heavy_met;
    rec.timeouts = q.timeouts;
    sh.lookups.add(rec);
    ++sh.completed;
    retire_slot(h, ref);
  }

  void drop_lookup(int h, QueryRef ref) {
    Shard& sh = shard(h);
    Query& q = query(ref);
    if (q.done) return;
    q.done = true;
    if (stracing(h, trace::Category::kQuery))
      strace(h).emit(trace::EventType::kQueryDrop, q.cur, q.id,
                     static_cast<std::int64_t>(q.hops), 0, /*cause=*/0);
    ++sh.dropped_overload;
    retire_slot(h, ref);
  }

  void fail_lookup_fault(int h, QueryRef ref) {
    Shard& sh = shard(h);
    Query& q = query(ref);
    if (q.done) return;
    q.done = true;
    if (stracing(h, trace::Category::kQuery))
      strace(h).emit(trace::EventType::kQueryDrop, q.cur, q.id,
                     static_cast<std::int64_t>(q.hops), 0, /*cause=*/1);
    ++sh.dropped_fault;
    retire_slot(h, ref);
  }

  // --- barrier hooks ------------------------------------------------------

  /// pre_global: runs after every window's mailbox drain. Applies the
  /// deferred table repairs in shard order (deterministic: each shard's
  /// list is a pure function of its single-threaded window execution) and
  /// publishes fresh queue-length snapshots for the dirtied nodes.
  void barrier_apply(sim::Time) {
    for (auto& shp : shards_) {
      for (const RepairRec& rec : shp->repairs) {
        substrate_->purge_dead(rec.at, rec.dead);
        if (rec.slot != kNoSlot && substrate_->alive(rec.at))
          substrate_->repair_entry(rec.at, rec.slot);
      }
      shp->repairs.clear();
      for (const std::uint32_t r : shp->dirty)
        snap_queue_[r] = static_cast<std::uint32_t>(
            reals_[r].tracker.queue_length());
      shp->dirty.clear();
    }
  }

  /// post_global: runs after every window barrier and after every global
  /// event batch. Advances the dirty-dedup epoch, restarts arrival chains
  /// after membership changes, and cancels the periodic audit/timeline
  /// chains once the workload has settled (the serial engine cancels them
  /// at settlement; one barrier of slack is covered by the metric bands).
  void barrier_refresh(sim::Time t) {
    ++window_id_;
    if (membership_dirty_) {
      membership_dirty_ = false;
      arrival_fixup(t);
    }
    if (!workload_settled_ && done()) {
      workload_settled_ = true;
      audit_ev_.cancel();
      timeline_ev_.cancel();
    }
  }

  /// Restarts idle arrival chains after membership changed, reassigning the
  /// quota of a shard whose population died out entirely (possible only
  /// under extreme churn; the survival floor makes it rare).
  void arrival_fixup(sim::Time t) {
    for (int s = 0; s < S_; ++s) {
      Shard& sh = shard(s);
      if (sh.issued >= sh.quota || !sh.arrival_idle) continue;
      if (sh.alive_members > 0) {
        restart_arrivals(s, t);
        continue;
      }
      for (int o = 1; o < S_; ++o) {
        Shard& other = shard((s + o) % S_);
        if (other.alive_members == 0) continue;
        other.quota += sh.quota - sh.issued;
        sh.quota = sh.issued;
        if (other.arrival_idle && other.issued < other.quota)
          restart_arrivals((s + o) % S_, t);
        break;
      }
    }
  }

  void restart_arrivals(int s, sim::Time t) {
    Shard& sh = shard(s);
    const double rate = params_.lookup_rate *
                        static_cast<double>(sh.alive_members) /
                        static_cast<double>(alive_total_);
    sh.arrival_idle = false;
    sim(s).schedule_at(t + sh.rng.exponential(rate), [this, s] {
      issue_lookup(s);
      schedule_next_lookup(s);
    });
  }

  // --- global events (coordinator-side, all shards quiescent) -------------

  void schedule_zipf_drift() {
    if (done()) return;
    global().schedule(params_.zipf_drift_period, [this] {
      zipf_->reshuffle(rng_);
      schedule_zipf_drift();
    });
  }

  void schedule_adaptation() {
    if (done()) return;
    global().schedule(params_.adapt_period, [this] {
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
      const bool trace_adapt = gtracing(trace::Category::kAdapt) &&
                               dec.action != core::AdaptAction::kNone;
      const std::size_t ind_before =
          trace_adapt ? substrate_->indegree(v) : 0;
      if (dec.action == core::AdaptAction::kShed) {
        const int before = budget.max_indegree();
        budget.lower_bound_by(dec.delta);
        const int shed = substrate_->shed_indegree(v, dec.delta);
        const int target = std::max(1, before - shed);
        budget.raise_bound_by(target - budget.max_indegree());
        rn.grow_backoff = 0;
        rn.grow_wait = 0;
        ++adapt_sheds_;
        if (trace_adapt)
          global_trace_->emit(trace::EventType::kAdaptShed, v, 0,
                              static_cast<std::int64_t>(ind_before),
                              static_cast<std::int64_t>(substrate_->indegree(v)),
                              static_cast<std::uint32_t>(dec.delta));
        if (global_meter_)
          global_meter_->send(
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
          rn.grow_backoff = std::min(512, std::max(8, rn.grow_backoff * 2));
          rn.grow_wait = rn.grow_backoff;
        } else {
          rn.grow_backoff = 0;
          ++adapt_grows_;
        }
        if (trace_adapt)
          global_trace_->emit(trace::EventType::kAdaptGrow, v, 0,
                              static_cast<std::int64_t>(ind_before),
                              static_cast<std::int64_t>(substrate_->indegree(v)),
                              static_cast<std::uint32_t>(dec.delta));
        if (global_meter_)
          global_meter_->send(
              wire::AdaptGrow{v, static_cast<std::uint64_t>(dec.delta)},
              real_of(v));
      }
    }
    observe_degrees();
  }

  void schedule_trace() {
    if (done()) return;
    timeline_ev_ = global().schedule(params_.adapt_period, [this] {
      sample_timeline();
      schedule_trace();
    });
  }

  void sample_timeline() {
    ExperimentResult::PeriodSample s;
    s.time = global().now();
    Percentiles g;
    for (std::size_t r = 0; r < reals_.size(); ++r) {
      if (!reals_[r].alive) continue;
      const double gr = congestion_live(r);
      g.add(gr);
      if (is_heavy_live(r)) ++s.heavy_nodes;
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
    std::size_t issued = 0, settled = 0;
    for (const auto& sh : shards_) {
      issued += sh->issued;
      settled += sh->completed + sh->dropped_overload + sh->dropped_fault;
    }
    s.in_flight = issued - settled;
    timeline_.push_back(s);
  }

  void observe_degrees() {
    for (std::size_t r = 0; r < reals_.size(); ++r) {
      if (!reals_[r].alive) continue;
      std::size_t in = 0, out = 0;
      const NodeIndex v = overlay_of_real_[r];
      if (v != dht::kNoNode && substrate_->alive(v)) {
        in = substrate_->indegree(v);
        out = substrate_->outdegree(v);
      }
      degrees_->observe(r, in, out);
    }
  }

  // --- churn + crash waves (global events) --------------------------------

  void schedule_churn() {
    const double rate = 1.0 / params_.churn_interarrival;
    if (done()) return;
    global().schedule(rng_.exponential(rate), [this] {
      churn_join();
      schedule_churn();
    });
    global().schedule(rng_.exponential(rate), [this] { churn_depart(); });
  }

  void churn_join() {
    if (done()) return;
    join_real(rng_);
  }

  void join_real(Rng& rng) {
    const double raw = rng.bounded_pareto(
        params_.pareto_shape, params_.capacity_lo, params_.capacity_hi);
    const std::size_t r = caps_.add_node(raw);
    prox_.add_node(rng);
    RealNode rn;
    rn.cap = caps_.normalized(r);
    reals_.push_back(std::move(rn));
    const int s = static_cast<int>(mix64(r) % static_cast<std::uint64_t>(S_));
    shard_of_real_.push_back(static_cast<std::uint32_t>(s));
    snap_queue_.push_back(0);
    dirty_epoch_.push_back(0);
    // Coordinator-quiescent: safe to grow the shared bucket vector here,
    // and it must happen here so shard-side sends never do.
    if (links_) links_->ensure_size(reals_.size());
    membership_dirty_ = true;
    std::int64_t overlay_slot = -1;
    if (substrate_->id_space_full()) {
      reals_[r].alive = false;
      overlay_of_real_.push_back(dht::kNoNode);
      if (gtracing(trace::Category::kChurn))
        global_trace_->emit(trace::EventType::kChurnJoin, r, 0, -1);
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
    shard(s).members.push_back(v);
    ++shard(s).alive_members;
    ++alive_total_;
    if (gtracing(trace::Category::kChurn))
      global_trace_->emit(trace::EventType::kChurnJoin, r, 0, overlay_slot);
    if (global_meter_)
      global_meter_->send(
          wire::Join{r, static_cast<std::uint64_t>(overlay_slot)}, r);
    degrees_->ensure_size(reals_.size());
  }

  void churn_depart() {
    if (done()) return;
    if (alive_reals() < std::max<std::size_t>(16, params_.num_nodes / 4))
      return;
    for (int tries = 0; tries < 64; ++tries) {
      const std::size_t r = rng_.index(reals_.size());
      if (!reals_[r].alive) continue;
      depart_real(r);
      return;
    }
  }

  std::size_t alive_reals() const { return alive_total_; }

  void depart_real(std::size_t r, bool crash = false) {
    RealNode& rn = reals_[r];
    rn.alive = false;
    --shard(shard_of_real(r)).alive_members;
    --alive_total_;
    membership_dirty_ = true;
    if (gtracing(trace::Category::kChurn))
      global_trace_->emit(crash ? trace::EventType::kCrash
                                : trace::EventType::kChurnDepart,
                          r);
    // A crash is silent on the wire; a graceful departure announces itself.
    if (global_meter_ && !crash) global_meter_->send(wire::Leave{r}, r);
    if (overlay_of_real_[r] != dht::kNoNode)
      substrate_->fail(overlay_of_real_[r]);
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
    snap_queue_[r] = 0;
    const double tnow = global().now();
    for (QueryRef ref : displaced) {
      Query& q = query(ref);
      if (q.done) continue;
      ++q.timeouts;
      ++q.hops;
      if (gtracing(trace::Category::kHop))
        global_trace_->emit(trace::EventType::kQueryTimeout, q.cur, q.id, 0, 0,
                            /*site=*/2);
      if (crash) {
        q.fault_hit = true;
        ++gstats_.timed_out;
      }
      const NodeIndex sub = substrate_->live_successor(q.cur);
      if (global_meter_) {
        // Handoff of a displaced query: billed on the coordinator meter
        // (relocation is a global event); untracked in the gauge because
        // the arrival-side decrement belongs to the receiving shard.
        const wire::Forward m{q.id,        q.key,
                              q.cur,       sub,
                              q.hops,      q.returning,
                              static_cast<std::uint32_t>(q.overloaded.size()),
                              q.overloaded.entries()};
        global_meter_->send(m, real_of(q.cur));
      }
      const int t = shard_of(sub);
      sim(t).schedule_at(tnow + params_.timeout_penalty,
                         [this, t, ref, sub] { arrive(t, ref, sub); });
    }
  }

  void schedule_crash_waves() {
    for (const CrashWave& wave : global_faults_->plan().crash_waves) {
      global().schedule(wave.time,
                        [this, count = wave.count] { crash_wave(count); });
    }
  }

  void crash_wave(std::size_t count) {
    if (done()) return;
    Rng& rng = global_faults_->crash_rng();
    for (std::size_t k = 0; k < count; ++k) {
      if (alive_reals() <= std::max<std::size_t>(16, params_.num_nodes / 4))
        return;
      for (int tries = 0; tries < 256; ++tries) {
        const std::size_t r = rng.index(reals_.size());
        if (!reals_[r].alive) continue;
        ++gstats_.crashed_nodes;
        depart_real(r, /*crash=*/true);
        break;
      }
    }
  }

  // --- invariant auditing (global events) ---------------------------------

  void schedule_audit() {
    if (done()) return;
    const double period = auditor_->options().period > 0.0
                              ? auditor_->options().period
                              : params_.adapt_period;
    audit_ev_ = global().schedule(period, [this] {
      audit_sweep();
      schedule_audit();
    });
  }

  void audit_sweep() {
    auditor_->begin_sweep(global().now());
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

  // --- results ------------------------------------------------------------

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

    // Handler-side per-shard collectors, merged in shard order so the
    // result is a pure function of (seed, sim_threads).
    metrics::LookupStats lookups;
    metrics::FaultCounters fstats = gstats_;
    for (const auto& sh : shards_) {
      lookups.merge(sh->lookups);
      fstats.merge(sh->fstats);
      res.completed_lookups += sh->completed;
      res.dropped_overload += sh->dropped_overload;
      res.dropped_fault += sh->dropped_fault;
    }
    res.dropped_lookups = res.dropped_overload + res.dropped_fault;
    res.heavy_encounters = lookups.total_heavy_encounters();
    res.avg_path_length = lookups.avg_path_length();
    res.lookup_time = lookups.latency_summary();
    res.avg_timeouts = lookups.avg_timeouts();
    res.max_indegree = degrees_->indegree_summary();
    res.max_outdegree = degrees_->outdegree_summary();
    res.timeline = std::move(timeline_);
    res.sim_duration = driver_.now_max();
    res.final_nodes = alive_reals();
    res.faults = fstats;
    res.adapt_sheds = adapt_sheds_;
    res.adapt_grows = adapt_grows_;
    if (auditor_) {
      res.audit_sweeps = auditor_->sweeps();
      res.audit_violations = auditor_->total_violations();
      res.audit_records = auditor_->records();
    }
    if (global_meter_) {
      // Coordinator totals first, then shards in shard order — a pure
      // function of (seed, sim_threads), like the trace merge below. The
      // concatenated capture stream is likewise coordinator-first; for
      // sim_threads > 1 its interleaving differs from the serial engine's
      // (golden wire streams pin scenario runs, which fall back to the
      // serial engine and are therefore --sim-threads invariant).
      res.bytes = global_meter_->totals();
      for (const auto& sh : shards_) res.bytes.merge(sh->meter->totals());
      if (global_meter_->capturing()) {
        res.wire_capture = global_meter_->capture();
        for (const auto& sh : shards_) res.wire_capture += sh->meter->capture();
      }
    }
    if (global_trace_) {
      if (global_trace_->wants(trace::Category::kRun))
        global_trace_->emit(trace::EventType::kRunEnd, 0, params_.seed,
                            static_cast<std::int64_t>(res.completed_lookups),
                            static_cast<std::int64_t>(res.dropped_lookups));
      // Coordinator records first, then shards in shard order.
      res.trace_records = global_trace_->snapshot();
      res.trace_emitted = global_trace_->emitted();
      res.trace_dropped = global_trace_->dropped();
      for (const auto& sh : shards_) {
        if (!sh->trace) continue;
        const auto recs = sh->trace->snapshot();
        res.trace_records.insert(res.trace_records.end(), recs.begin(),
                                 recs.end());
        res.trace_emitted += sh->trace->emitted();
        res.trace_dropped += sh->trace->dropped();
      }
    }
    return res;
  }

  SimParams params_;
  Protocol proto_;
  SubstrateKind kind_;
  Rng rng_;  ///< construction + churn stream (the serial workload stream).
  int S_;
  sim::ShardedSimulator driver_;
  core::CapacityModel caps_;
  net::ProximityMap prox_;
  std::unique_ptr<SubstrateOps> substrate_;
  std::unique_ptr<workload::ZipfKeys> zipf_;
  std::vector<RealNode> reals_;
  std::vector<NodeIndex> overlay_of_real_;
  std::vector<std::size_t> real_of_overlay_;
  std::vector<std::uint32_t> shard_of_real_;
  /// Barrier-published queue lengths (remote load probes read these).
  std::vector<std::uint32_t> snap_queue_;
  /// Last window id that queued real r into its shard's dirty list.
  std::vector<std::uint32_t> dirty_epoch_;
  std::uint32_t window_id_ = 1;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t alive_total_ = 0;
  bool membership_dirty_ = false;
  bool workload_settled_ = false;
  std::vector<ExperimentResult::PeriodSample> timeline_;
  std::unique_ptr<metrics::DegreeTracker> degrees_;
  std::unique_ptr<FaultInjector> global_faults_;  ///< crash stream only.
  metrics::FaultCounters gstats_;  ///< crash-side counters (global events).
  std::size_t adapt_sheds_ = 0;
  std::size_t adapt_grows_ = 0;
  std::unique_ptr<InvariantAuditor> auditor_;
  std::unique_ptr<trace::TraceSink> global_trace_;
  /// Shared egress buckets (one per real node) + the coordinator-side
  /// meter; shard meters live in Shard and borrow links_.
  std::unique_ptr<net::LinkModel> links_;
  std::unique_ptr<wire::ByteMeter> global_meter_;
  sim::EventHandle audit_ev_;
  sim::EventHandle timeline_ev_;
};

}  // namespace

ExperimentResult run_experiment_sharded(const SimParams& params,
                                        Protocol protocol,
                                        SubstrateKind substrate,
                                        const ExperimentOptions& options) {
  assert(params.sim_threads > 1 &&
         pdes_supported(params, protocol, substrate, options));
  ShardedEngine engine(params, protocol, substrate, options);
  return engine.run();
}

}  // namespace ert::harness
