#include "harness/experiment.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/rss.h"
#include "harness/engine.h"
#include "harness/parallel.h"
#include "harness/pdes_engine.h"

namespace ert::harness {

int fit_dimension(std::size_t ids_needed) {
  for (int d = 3; d <= 24; ++d) {
    if (static_cast<std::size_t>(d) << d >= ids_needed) return d;
  }
  return 24;
}

namespace {

/// The serial transport: one sim::Simulator and one Rng stream for the
/// workload, construction and churn. Dead neighbours are purged and
/// repaired inline with the timeout penalty folded into the next hop, and
/// settlement cancels the audit and timeline chains.
class InlineTransport final : public ExperimentEngine<InlineTransport> {
 public:
  InlineTransport(const SimParams& params, Protocol proto,
                  SubstrateKind substrate, const ExperimentOptions& options)
      : ExperimentEngine(params, proto, substrate, options) {
    lane_.rng = &rng_;
    lane_.faults = faults_.get();
    lane_.trace = trace_.get();
    lane_.meter = meter_.get();
    lane_.quota = params.num_lookups;
    lane_.pool.init(params.num_lookups);
  }

 private:
  friend class ExperimentEngine<InlineTransport>;

  sim::Simulator& sim(int) { return sim_; }
  sim::Simulator& global() { return sim_; }
  Lane& lane(int) { return lane_; }
  int lane_count() const { return 1; }
  int shard_of(NodeIndex) const { return 0; }

  void deliver(int, QueryRef ref, NodeIndex to, double delay) {
    sim_.schedule(delay, [this, ref, to] { arrive(0, ref, to); });
  }
  void deliver_global(QueryRef ref, NodeIndex to, double delay) {
    deliver(0, ref, to, delay);
  }
  void retire_slot(int, QueryRef ref) {
    lane_.pool.release(detail::ref_slot(ref));
  }

  /// Once the workload is fully settled, cancel the pending audit tick and
  /// the pending timeline sample so neither periodic chain extends the
  /// simulated clock past the last workload event (audited and
  /// timeline-traced runs stay bit-identical, sim_duration included).
  void settled() {
    if (!done()) return;
    audit_ev_.cancel();
    timeline_ev_.cancel();
  }

  double queue_len_seen(int, std::size_t r) const {
    return static_cast<double>(reals_[r].tracker.queue_length());
  }
  void queue_changed(int, std::size_t) {}

  void purge_candidate(int, NodeIndex v, NodeIndex dead) {
    substrate_->purge_dead(v, dead);
  }
  /// Purges the stale link, repairs the entry and retries the hop loop at
  /// once; the timeout penalty rides on the next hop's latency.
  bool dead_next(int, QueryRef ref, NodeIndex v, NodeIndex next,
                 std::size_t slot) {
    query(ref).penalty += params_.timeout_penalty;
    substrate_->purge_dead(v, next);
    if (slot != kNoSlot) substrate_->repair_entry(v, slot);
    return true;
  }

  NodeIndex pick_source(int) {
    for (;;) {
      const NodeIndex v = rng_.index(substrate_->num_slots());
      if (substrate_->alive(v)) return v;
    }
  }

  void joined(std::size_t) {}
  void departed(std::size_t) {}

  void start_arrivals() { schedule_next_lookup(); }

  void schedule_next_lookup() {
    if (lane_.issued >= lane_.quota) return;
    // Scenario rate phases modulate the Poisson intensity. With no driver
    // the expression is untouched, and a driver whose phases are idle at
    // `now` returns exactly 1.0 — rate * 1.0 == rate bit-exactly, so the
    // arrival draws only change while a flash/diurnal phase is live.
    double rate = params_.lookup_rate;
    if (scen_) rate *= scen_->rate_multiplier(sim_.now());
    sim_.schedule(rng_.exponential(rate), [this] {
      issue_lookup(0);
      schedule_next_lookup();
    });
  }

  void run_events() { sim_.run(); }
  double end_time() const { return sim_.now(); }
  void collect_shards(ExperimentResult&) {}

  sim::Simulator sim_;
  Lane lane_;
};

}  // namespace

ExperimentResult run_experiment(const SimParams& params, Protocol protocol,
                                SubstrateKind substrate,
                                const ExperimentOptions& options) {
  if (const std::string err = params.validate(); !err.empty())
    throw std::invalid_argument(err);
  // sim_threads > 1 routes supported workloads through the sharded
  // transport (docs/PDES.md); everything else — including sim_threads ==
  // 1, which must stay bit-identical to the historical engine — runs the
  // inline transport.
  if (params.sim_threads > 1 &&
      pdes_supported(params, protocol, substrate, options).empty()) {
    return run_experiment_sharded(params, protocol, substrate, options);
  }
  InlineTransport engine(params, protocol, substrate, options);
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
  if (const std::string err = params.validate(); !err.empty())
    throw std::invalid_argument(err);
  InlineTransport engine(params, protocol, substrate, ExperimentOptions{});
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
