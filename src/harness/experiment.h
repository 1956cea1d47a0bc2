// Experiment driver: builds a Cycloid network under one of the Sec. 5
// protocols, runs the configured workload on the discrete-event simulator,
// and reports every metric the paper's figures plot.
#pragma once

#include <cstddef>
#include <vector>

#include "common/config.h"
#include "common/stats.h"
#include "harness/auditor.h"
#include "harness/faults.h"
#include "harness/protocol.h"
#include "harness/substrate.h"
#include "metrics/metrics.h"
#include "scenario/scenario.h"
#include "trace/trace.h"
#include "wire/meter.h"

namespace ert::harness {

/// Optional per-run machinery: fault injection (docs/FAULTS.md) and the
/// continuous invariant auditor. Default-constructed options change nothing:
/// an empty FaultPlan and a disabled auditor leave every run bit-identical
/// to the plain run_experiment path.
struct ExperimentOptions {
  FaultPlan faults;
  AuditorOptions audit;
  /// Structured event tracing (docs/TRACING.md). Disabled by default; an
  /// enabled tracer observes only, so metrics and sim_duration stay
  /// bit-identical to a tracer-off run.
  trace::TraceConfig trace;
  /// Declarative workload scenario (docs/SCENARIOS.md). An empty or
  /// all-inert scenario constructs no driver, schedules no events, and
  /// consumes no randomness: the run is bit-identical to a plain run in
  /// every metric, sim_duration included (the zero-intensity contract).
  scenario::Scenario scenario;
  /// Byte-accurate wire accounting (docs/WIRE.md). Off by default: no
  /// meter is constructed and the send path is untouched. On, the meter
  /// observes only (serializes + counts, no randomness, no events), so
  /// every metric stays bit-identical to a bytes-off run.
  wire::MeterConfig wire;
};

struct ExperimentResult {
  // Congestion (Fig. 4a/4b, 9a): per-node peak congestion g = queue/slots.
  double p99_max_congestion = 0.0;
  double mean_max_congestion = 0.0;
  /// Peak congestion of the minimum-capacity node (Fig. 4b).
  double min_cap_node_congestion = 0.0;

  // Fair share (Fig. 4c, 8c, 9b).
  double p99_share = 0.0;

  // Lookup efficiency (Figs. 5, 8, 10).
  std::size_t heavy_encounters = 0;  ///< heavy nodes met in routings, total.
  double avg_path_length = 0.0;
  PctSummary lookup_time;  ///< avg / 1st / 99th percentile seconds.
  double avg_timeouts = 0.0;

  // Routing-table degrees (Fig. 7): per-node maxima over the run.
  PctSummary max_indegree;
  PctSummary max_outdegree;

  /// One sample per simulated second when params.trace_timeline is set:
  /// how Algorithm 3 drives the network toward g ~ 1.
  struct PeriodSample {
    double time = 0.0;
    double p99_congestion = 0.0;   ///< over nodes, instantaneous.
    double mean_congestion = 0.0;
    std::size_t heavy_nodes = 0;   ///< nodes with g > gamma_l right now.
    double mean_indegree = 0.0;    ///< over alive overlay nodes.
    std::size_t in_flight = 0;     ///< lookups issued but not finished.
  };
  std::vector<PeriodSample> timeline;

  // Bookkeeping.
  std::size_t completed_lookups = 0;
  /// Total drops = dropped_overload + dropped_fault (kept as the sum so
  /// existing consumers keep reading one number).
  std::size_t dropped_lookups = 0;
  /// Routing-capacity drops: hop budget exhausted or no candidate left.
  /// This is the Figure-4 congestion path; injected faults never land here.
  std::size_t dropped_overload = 0;
  /// Lookups failed by the fault layer: a hop's retries were exhausted.
  std::size_t dropped_fault = 0;
  double sim_duration = 0.0;
  std::size_t final_nodes = 0;  ///< real nodes alive at the end.

  // Fault-injection accounting (zero in fault-free runs).
  metrics::FaultCounters faults;

  // Elastic-table adaptation work (Algorithm 3): shed actions executed and
  // grow attempts that gained at least one link. Averaged over seeds like
  // the other counters.
  std::size_t adapt_sheds = 0;
  std::size_t adapt_grows = 0;

  // Invariant-audit report (empty unless options.audit.enabled). Under
  // run_averaged / run_sweep, sweeps and violations sum over seeds and
  // records concatenate in seed order. `audit_waived_sweeps` counts ticks
  // skipped inside a scenario partition's waiver window (also summed).
  std::size_t audit_sweeps = 0;
  std::size_t audit_waived_sweeps = 0;
  std::size_t audit_violations = 0;
  std::vector<InvariantViolation> audit_records;

  // Structured trace (empty unless options.trace.enabled). Under
  // run_averaged / run_sweep the per-seed streams concatenate in seed
  // order and the counters sum, so the trace is byte-identical for any
  // thread count. `trace_dropped` counts records evicted by ring wrap.
  std::vector<trace::Record> trace_records;
  std::size_t trace_emitted = 0;
  std::size_t trace_dropped = 0;

  // Wire byte accounting (all-zero unless options.wire.bytes). Under
  // run_averaged / run_sweep the counters average over seeds like every
  // other counter; in_flight_bytes is the end-of-run gauge (normally 0).
  metrics::ByteTotals bytes;
  /// Serialized message stream as "<type> <hex>" lines when
  /// options.wire.capture is set (golden wire traces); per-seed streams
  /// concatenate in seed order.
  std::string wire_capture;
};

/// Runs one simulation. Deterministic for a given (params.seed, protocol,
/// substrate, options) — including faulted runs: the fault stream has its
/// own seeded Rng. VS and NS require the Cycloid substrate. Throws
/// std::invalid_argument with SimParams::validate()'s message when the
/// parameter set cannot run.
ExperimentResult run_experiment(const SimParams& params, Protocol protocol);
ExperimentResult run_experiment(const SimParams& params, Protocol protocol,
                                SubstrateKind substrate);
ExperimentResult run_experiment(const SimParams& params, Protocol protocol,
                                SubstrateKind substrate,
                                const ExperimentOptions& options);

/// Averages scalar metrics over `seeds` runs with seeds params.seed,
/// params.seed + 1, ... (percentile summaries are averaged element-wise;
/// counters are averaged in double and rounded once at the end).
///
/// Seeds fan out across `threads` worker threads (0 = default_threads());
/// each run owns an independent Simulator, and the reduction happens
/// sequentially in seed order after all runs finish, so the result is
/// bit-identical whatever the thread count or completion order.
ExperimentResult run_averaged(const SimParams& params, Protocol protocol,
                              int seeds);
ExperimentResult run_averaged(const SimParams& params, Protocol protocol,
                              int seeds, SubstrateKind substrate,
                              int threads = 0);
ExperimentResult run_averaged(const SimParams& params, Protocol protocol,
                              int seeds, SubstrateKind substrate, int threads,
                              const ExperimentOptions& options);

/// One point of a parameter sweep: an averaged experiment.
struct SweepJob {
  SimParams params;
  Protocol protocol = Protocol::kErtAF;
  SubstrateKind substrate = SubstrateKind::kCycloid;
  int seeds = 1;
  ExperimentOptions options;  ///< per-job fault plan + audit config.
};

/// Runs every job (each averaged over its seeds) and returns results in job
/// order. The (job, seed) pairs are flattened into unit tasks before
/// fan-out, so the pool stays saturated even when jobs.size() is small.
/// Deterministic for fixed job parameters regardless of `threads`.
std::vector<ExperimentResult> run_sweep(const std::vector<SweepJob>& jobs,
                                        int threads = 0);

/// Smallest Cycloid dimension whose id space holds `ids_needed` ids.
int fit_dimension(std::size_t ids_needed);

/// What run_build_only measured: the constructed network's shape plus the
/// wall-clock cost of building it. No workload is issued and no simulated
/// time elapses.
struct BuildReport {
  std::size_t real_nodes = 0;     ///< physical nodes constructed.
  std::size_t overlay_slots = 0;  ///< overlay slots (> real_nodes under VS).
  double build_seconds = 0.0;     ///< wall-clock time inside build_network.
  std::size_t peak_rss_kb = 0;    ///< process peak RSS after the build.
};

/// Constructs the network exactly as run_experiment would (same Rng draw
/// sequence) and stops before issuing any workload. Used by the scale
/// benchmarks and `ertsim --build-only`. Throws like run_experiment.
BuildReport run_build_only(const SimParams& params, Protocol protocol,
                           SubstrateKind substrate);

}  // namespace ert::harness
