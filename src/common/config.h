// Simulation parameters. Defaults reproduce Table 2 of the paper exactly:
//
//   Cycloid dimension d                    8
//   Number of nodes n                      2048 (= d * 2^d, a full Cycloid)
//   Node capacity c                        bounded Pareto, shape 2, [500, 50000]
//   Query/lookup number                    3000
//   Overload threshold gamma_l             1
//   Indegree adaptation constant mu        1/2
//   Indegree adaptation period T           1 second
//   Indegree per normalized capacity alpha d + 3
//   Query process time in light nodes      0.2 second
//   Query process time in heavy nodes      1 second
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

namespace ert {

struct SimParams {
  // --- topology ---
  int dimension = 8;          ///< Cycloid dimension d.
  std::size_t num_nodes = 2048;

  // --- capacity distribution (bounded Pareto, Table 2) ---
  double pareto_shape = 2.0;
  double capacity_lo = 500.0;
  double capacity_hi = 50000.0;

  // --- workload ---
  std::size_t num_lookups = 3000;
  double lookup_rate = 1.0;         ///< Poisson lookups per second.
  double light_service_time = 0.2;  ///< seconds per query at a light node.
  double heavy_service_time = 1.0;  ///< seconds per query at a heavy node.
  /// Ingress queue bound per node: an arrival at a node whose queue
  /// (in service + waiting) already holds this many queries is shed as an
  /// overload drop instead of queued. 0 (the default, and the behavior of
  /// every calibrated figure run) keeps queues unbounded; the `--scale`
  /// preset sets a cap so a statistically inevitable unstable node at
  /// n >= 2^17 bounds the drain tail instead of queueing O(run length).
  std::size_t queue_cap = 0;

  // --- ERT parameters (Sec. 3) ---
  /// Indegree per unit capacity; Table 2 default is d + 3. Set
  /// alpha_override > 0 to sweep it (ablation benches).
  double alpha_override = 0.0;
  double alpha() const {
    return alpha_override > 0.0 ? alpha_override
                                : static_cast<double>(dimension) + 3.0;
  }
  double beta = 0.8;       ///< initial indegree reservation fraction.
  double mu = 0.5;         ///< adaptation step fraction.
  double gamma_l = 1.0;    ///< overload threshold factor.
  double gamma_c = 1.0;    ///< capacity estimation error factor (>= 1).
  double gamma_n = 1.0;    ///< network size estimation error factor (>= 1).
  double adapt_period = 1.0;  ///< T, seconds.

  // --- forwarding (Sec. 4) ---
  int poll_size = 2;            ///< b in b-way randomized forwarding.
  bool use_memory = true;       ///< Mitzenmacher memory-based dispatch.
  bool propagate_overloaded = true;  ///< carry overloaded set A with queries.
  double probe_cost = 0.0;  ///< seconds charged per load probe (ablation).

  // --- churn (Sec. 5.5); 0 disables churn ---
  double churn_interarrival = 0.0;  ///< mean seconds between joins (and leaves).

  // --- skewed "impulse" workload (Sec. 5.4); 0 disables ---
  std::size_t impulse_nodes = 0;  ///< # of nodes in the contiguous interval.
  std::size_t impulse_keys = 0;   ///< # of shared hot keys.

  // --- Zipf popularity workload (the "nonuniform and time-varying file
  // popularity" of the introduction); 0 disables ---
  std::size_t zipf_catalog = 0;   ///< # of distinct keys queried.
  double zipf_exponent = 1.0;     ///< popularity skew s.
  double zipf_drift_period = 0.0; ///< reshuffle popularity ranks every T_d s.

  // --- data forwarding (the anonymity pattern of Freenet/Mantis/Hordes
  // cited in the introduction): when true, the located data travels back
  // through the query's intermediaries, loading each once more ---
  bool data_forwarding = false;

  // --- tracing ---
  /// Record a per-second timeline of network state (congestion, heavy
  /// nodes, degrees) into ExperimentResult::timeline.
  bool trace_timeline = false;

  // --- parallel simulation (docs/PDES.md) ---
  /// Worker threads for the sharded conservative-PDES engine. 1 (default)
  /// uses the serial single-queue engine and is bit-identical to it;
  /// > 1 shards the node population and is statistically equivalent
  /// (model-check + invariant-audit gated), not bit-identical. Workloads
  /// the sharded engine does not support fall back to serial.
  int sim_threads = 1;

  // --- misc ---
  std::uint64_t seed = 1;
  double timeout_penalty = 0.5;  ///< seconds lost when contacting a departed node.

  /// Empty when the set can run; otherwise why not. An expected workload
  /// span num_lookups / lookup_rate beyond 1e6 adaptation periods is
  /// refused: the periodic sweeps would tick that many times while the
  /// arrival process sits idle (the longest checked-in config spans 750).
  std::string validate() const {
    constexpr double kMaxPeriods = 1e6;
    const double span = static_cast<double>(num_lookups) / lookup_rate;
    if (num_lookups == 0 || span <= kMaxPeriods * adapt_period) return {};
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "expected workload span num_lookups / lookup_rate = %g s "
                  "exceeds 1e6 adaptation periods (%g s); raise the lookup "
                  "rate or lower the lookup count",
                  span, kMaxPeriods * adapt_period);
    return buf;
  }
};

}  // namespace ert
