#include "harness/pdes_engine.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <vector>

#include "harness/engine.h"
#include "net/proximity.h"
#include "sim/sharded.h"

namespace ert::harness {

std::string pdes_supported(const SimParams& params, Protocol protocol,
                           SubstrateKind substrate,
                           const ExperimentOptions& options) {
  (void)substrate;  // every substrate routes through RouteCtxBlob.
  if (uses_virtual_servers(protocol)) return "virtual servers";
  if (params.impulse_nodes > 0) return "impulse workload";
  if (!options.scenario.inert()) return "scenario";
  // Message duplication breaks the single-handler ownership model (two
  // copies of one query would execute on two shards at once).
  if (options.faults.dup_prob > 0.0) return "message duplication";
  // Too few nodes per shard: windowing overhead dominates and a shard can
  // plausibly end up empty.
  if (params.num_nodes < 8 * static_cast<std::size_t>(params.sim_threads))
    return "fewer than 8 nodes per shard";
  return {};
}

namespace {

/// SplitMix64 finalizer: the shard-assignment hash, chosen so shard
/// populations are balanced independently of any structure in the join
/// order.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The parallel transport: the physical nodes are hashed into sim_threads
/// shards, each running its queueing and routing on its own pooled event
/// queue under ShardedSimulator's conservative windows. Everything that
/// must observe cross-shard state — churn, crash waves, adaptation sweeps,
/// audits, timeline samples — runs as a global event with every shard
/// quiescent.
class ShardedTransport final : public ExperimentEngine<ShardedTransport> {
 public:
  ShardedTransport(const SimParams& params, Protocol proto,
                   SubstrateKind substrate, const ExperimentOptions& options)
      : ExperimentEngine(params, proto, substrate, options),
        S_(params.sim_threads),
        driver_(params.sim_threads, net::kDefaultBaseLatency) {
    shards_.reserve(static_cast<std::size_t>(S_));
    const std::size_t per = params.num_lookups / static_cast<std::size_t>(S_);
    const std::size_t rem = params.num_lookups % static_cast<std::size_t>(S_);
    for (int s = 0; s < S_; ++s) {
      auto sh = std::make_unique<Shard>();
      const auto salt = static_cast<std::uint64_t>(s) + 1;
      sh->stream = Rng(params.seed ^ (0xd1b54a32d192ed03ULL * salt));
      sh->rng = &sh->stream;
      // Exact quota split: the union of per-shard arrival processes issues
      // exactly num_lookups lookups (model-check requires equality).
      sh->quota = per + (static_cast<std::size_t>(s) < rem ? 1 : 0);
      // Crash scheduling stays on the engine-wide injector; the per-shard
      // injectors own domain-separated message-fate streams.
      if (options.faults.enabled()) {
        sh->fault_stream = std::make_unique<FaultInjector>(
            options.faults, params.seed ^ (0x9e3779b97f4a7c15ULL * salt));
        sh->faults = sh->fault_stream.get();
      }
      sim::Simulator* clock = &driver_.shard(s);
      if (options.trace.enabled) {
        // Each shard ring gets the full configured capacity, so a stream
        // that fits the serial ring cannot wrap a shard ring either.
        sh->sink = std::make_unique<trace::TraceSink>(
            options.trace, [clock] { return clock->now(); });
        sh->trace = sh->sink.get();
        if (sh->faults) sh->faults->set_trace(sh->trace);
      }
      if (options.wire.bytes) {
        sh->byte_meter = std::make_unique<wire::ByteMeter>(
            options.wire, [clock] { return clock->now(); }, links_.get());
        // A shard may serialize a frame whose nominal sender lives on
        // another shard (a remote probe reply); it still counts in the
        // totals, but only the owner shard may charge the shared bucket.
        sh->byte_meter->set_bucket_filter(
            [this, s](std::size_t link) { return shard_of_real(link) == s; });
        sh->meter = sh->byte_meter.get();
      }
      sh->pool.init(params.num_lookups);
      shards_.push_back(std::move(sh));
    }
    driver_.reserve_mailboxes(256);
    sim::ShardedSimulator::BarrierHooks hooks;
    hooks.pre_global = [this](sim::Time t) { barrier_apply(t); };
    hooks.post_global = [this](sim::Time t) { barrier_refresh(t); };
    driver_.set_hooks(std::move(hooks));
  }

 private:
  friend class ExperimentEngine<ShardedTransport>;

  struct RepairRec {
    NodeIndex at;
    NodeIndex dead;
    std::size_t slot;  ///< kNoSlot for a purge with no entry repair.
  };

  /// A lane plus what only the sharded transport keeps per shard.
  struct Shard : Lane {
    Rng stream;  ///< domain-separated workload stream.
    std::unique_ptr<FaultInjector> fault_stream;  ///< message fates only.
    std::unique_ptr<trace::TraceSink> sink;       ///< shard-clock sink.
    std::unique_ptr<wire::ByteMeter> byte_meter;  ///< shard-clock meter.
    std::vector<NodeIndex> members;  ///< overlay slots this shard owns.
    std::size_t alive_members = 0;   ///< maintained at global time.
    bool arrival_idle = true;        ///< no pending arrival event.
    std::vector<RepairRec> repairs;  ///< deferred purge/repair, barrier-run.
    std::vector<std::uint32_t> dirty;  ///< reals with changed queue length.
  };

  // --- engine hooks --------------------------------------------------------

  sim::Simulator& sim(int s) { return driver_.shard(s); }
  sim::Simulator& global() { return driver_.global(); }
  Lane& lane(int s) { return shard(s); }
  int lane_count() const { return S_; }
  int shard_of(NodeIndex v) const { return shard_of_real(real_of(v)); }

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

  /// From a global event every shard is quiescent: schedule directly on
  /// the receiver's queue.
  void deliver_global(QueryRef ref, NodeIndex to, double delay) {
    const int t = shard_of(to);
    sim(t).schedule_at(global().now() + delay,
                       [this, t, ref, to] { arrive(t, ref, to); });
  }

  /// Returns the settled query's slot to its owner pool. A remote handler
  /// cannot touch the owner's free list directly, so it posts the retire
  /// through the mailbox at the lookahead horizon.
  void retire_slot(int h, QueryRef ref) {
    const int owner = detail::ref_shard(ref);
    if (owner == h) {
      shard(owner).pool.release(detail::ref_slot(ref));
    } else {
      driver_.post(h, owner, sim(h).now() + driver_.lookahead(),
                   [this, owner, slot = detail::ref_slot(ref)] {
                     shard(owner).pool.release(slot);
                   });
    }
  }

  /// Settlement is observed at the barrier (barrier_refresh).
  void settled() {}

  // Queue-length views. A node's queue is mutated only by its owner shard
  // inside windows (and by the quiescent coordinator), so the owner reads
  // it live; every other shard reads the barrier-published snapshot — at
  // most one window (10 ms) stale, the price of running load probes
  // without cross-shard synchronization.
  double queue_len_seen(int h, std::size_t r) const {
    return shard_of_real(r) == h
               ? static_cast<double>(reals_[r].tracker.queue_length())
               : static_cast<double>(snap_queue_[r]);
  }

  void queue_changed(int h, std::size_t r) {
    if (dirty_epoch_[r] == window_id_) return;
    dirty_epoch_[r] = window_id_;
    shard(h).dirty.push_back(static_cast<std::uint32_t>(r));
  }

  /// The purge mutates the dead node's inlink set, shared across shards,
  /// so it is deferred to the window barrier.
  void purge_candidate(int h, NodeIndex v, NodeIndex dead) {
    shard(h).repairs.push_back(RepairRec{v, dead, kNoSlot});
  }

  /// The inline transport purges, repairs and retries at once, folding the
  /// penalty into the next hop's latency; here the repair waits for the
  /// barrier, so the penalty is spent as a real wait (same total latency)
  /// and routing resumes at v after the repair has been applied.
  bool dead_next(int h, QueryRef ref, NodeIndex v, NodeIndex next,
                 std::size_t slot) {
    shard(h).repairs.push_back(RepairRec{v, next, slot});
    query(ref).cur = v;
    sim(h).schedule(params_.timeout_penalty,
                    [this, h, ref] { resume_forward(h, ref); });
    return false;
  }

  /// Re-enters the hop loop after a dead-neighbor timeout wait (>= one
  /// window, so the recorded repair has been applied).
  void resume_forward(int h, QueryRef ref) {
    const Query& q = query(ref);
    if (q.done) return;
    if (!substrate_->alive(q.cur)) {
      // The holding node itself departed during the wait.
      reroute_from_dead(h, ref, q.cur);
      return;
    }
    forward(h, ref);
  }

  NodeIndex pick_source(int s) {
    Shard& sh = shard(s);
    for (;;) {
      const NodeIndex v = sh.members[sh.rng->index(sh.members.size())];
      if (substrate_->alive(v)) return v;
    }
  }

  void joined(std::size_t r) {
    const int s = static_cast<int>(mix64(r) % static_cast<std::uint64_t>(S_));
    shard_of_real_.push_back(static_cast<std::uint32_t>(s));
    snap_queue_.push_back(0);
    dirty_epoch_.push_back(0);
    // Coordinator-quiescent: safe to grow the shared bucket vector here,
    // and it must happen here so shard-side sends never do.
    if (links_) links_->ensure_size(reals_.size());
    membership_dirty_ = true;
    if (!reals_[r].alive) return;  // id space full: join rejected
    shard(s).members.push_back(overlay_of_real_[r]);
    ++shard(s).alive_members;
  }

  void departed(std::size_t r) {
    --shard(shard_of_real(r)).alive_members;
    membership_dirty_ = true;
    snap_queue_[r] = 0;  // its queue is about to be relocated
  }

  void start_arrivals() {
    // The eager pre-size (to the churn headroom reals_ was reserved with)
    // keeps shard-side sends from ever growing the shared bucket vector.
    for (auto& sh : shards_)
      if (sh->byte_meter) sh->byte_meter->reserve_links(reals_.capacity());
    assign_shards();
    for (int s = 0; s < S_; ++s) schedule_next_lookup(s);
  }

  void run_events() { driver_.run(); }
  double end_time() const { return driver_.now_max(); }

  /// Shard streams follow the engine-wide ones in shard order, so the
  /// result is a pure function of (seed, sim_threads). The concatenated
  /// wire capture therefore interleaves differently from the inline
  /// transport's (golden wire streams pin scenario runs, which always run
  /// inline).
  void collect_shards(ExperimentResult& res) {
    for (const auto& sh : shards_) {
      if (sh->byte_meter) {
        res.bytes.merge(sh->byte_meter->totals());
        if (sh->byte_meter->capturing())
          res.wire_capture += sh->byte_meter->capture();
      }
      if (sh->sink) {
        const auto recs = sh->sink->snapshot();
        res.trace_records.insert(res.trace_records.end(), recs.begin(),
                                 recs.end());
        res.trace_emitted += sh->sink->emitted();
        res.trace_dropped += sh->sink->dropped();
      }
    }
  }

  // --- sharding --------------------------------------------------------------

  Shard& shard(int s) { return *shards_[static_cast<std::size_t>(s)]; }
  int shard_of_real(std::size_t r) const {
    return static_cast<int>(shard_of_real_[r]);
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
      if (reals_[r].alive) ++shard(s).alive_members;
    }
  }

  // --- per-shard arrivals ---------------------------------------------------

  /// Per-shard Poisson thinning: rate_s = rate * alive_s / alive_total with
  /// uniform shard-local sources. The superposition over shards is exactly
  /// a Poisson(rate) process with uniform alive sources — the inline
  /// workload in law, issued without any cross-shard coordination.
  double arrival_rate(const Shard& sh) const {
    return params_.lookup_rate * static_cast<double>(sh.alive_members) /
           static_cast<double>(alive_reals_);
  }

  void schedule_next_lookup(int s) {
    Shard& sh = shard(s);
    if (sh.issued >= sh.quota || sh.alive_members == 0) {
      sh.arrival_idle = true;
      return;
    }
    sh.arrival_idle = false;
    sim(s).schedule(sh.rng->exponential(arrival_rate(sh)),
                    [this, s] { arrival(s); });
  }

  void restart_arrivals(int s, sim::Time t) {
    Shard& sh = shard(s);
    sh.arrival_idle = false;
    sim(s).schedule_at(t + sh.rng->exponential(arrival_rate(sh)),
                       [this, s] { arrival(s); });
  }

  void arrival(int s) {
    // A shard whose population died out keeps its chain; the barrier fixup
    // reassigns its quota.
    if (shard(s).alive_members > 0) issue_lookup(s);
    schedule_next_lookup(s);
  }

  // --- barrier hooks ---------------------------------------------------------

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
  /// chains once the workload has settled (the inline transport cancels
  /// them at settlement; one barrier of slack is covered by the metric
  /// bands).
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

  int S_;
  sim::ShardedSimulator driver_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::uint32_t> shard_of_real_;
  /// Barrier-published queue lengths (remote load probes read these).
  std::vector<std::uint32_t> snap_queue_;
  /// Last window id that queued real r into its shard's dirty list.
  std::vector<std::uint32_t> dirty_epoch_;
  std::uint32_t window_id_ = 1;
  bool membership_dirty_ = false;
  bool workload_settled_ = false;
};

}  // namespace

ExperimentResult run_experiment_sharded(const SimParams& params,
                                        Protocol protocol,
                                        SubstrateKind substrate,
                                        const ExperimentOptions& options) {
  assert(params.sim_threads > 1 &&
         pdes_supported(params, protocol, substrate, options).empty());
  ShardedTransport engine(params, protocol, substrate, options);
  return engine.run();
}

}  // namespace ert::harness
