// Sharded transport of the experiment engine (docs/PDES.md).
//
// run_experiment dispatches here when params.sim_threads > 1 and
// pdes_supported() finds no reason to refuse the workload. The engine
// (harness/engine.h) is the same one the serial path runs; only its event
// transport differs. ShardedTransport partitions the physical nodes into
// sim_threads shards (hash of the real-node index), runs each shard's
// queueing and routing on its own pooled event queue under the
// ShardedSimulator's conservative windowing (lookahead = the latency floor,
// net::kDefaultBaseLatency), and executes everything that must observe
// cross-shard state — churn, crash waves, adaptation sweeps, invariant
// audits, timeline samples — as coordinator-side global events with every
// shard quiescent.
//
// Determinism: for a fixed (seed, sim_threads) the run is bit-identical
// regardless of how many OS threads actually execute the windows
// (tests/golden/pdes_*.jsonl pin two such runs). Results are NOT
// bit-identical to the inline transport (per-shard Rng streams replace the
// single workload stream); equivalence to it is statistical, gated by
// --model-check and the invariant auditor (tests/pdes_equivalence_test.cpp).
#pragma once

#include <string>

#include "common/config.h"
#include "harness/experiment.h"
#include "harness/protocol.h"
#include "harness/substrate.h"

namespace ert::harness {

/// Why the sharded transport refuses this workload, or an empty string when
/// it runs it. The refusals (the run falls back to the inline transport):
/// "virtual servers", "impulse workload", "scenario" (any non-inert one),
/// "message duplication" (breaks the single-handler ownership model) and
/// "fewer than 8 nodes per shard" (n < 8 * sim_threads).
std::string pdes_supported(const SimParams& params, Protocol protocol,
                           SubstrateKind substrate,
                           const ExperimentOptions& options);

/// Runs one experiment on the sharded transport. Call through
/// run_experiment — it performs the pdes_supported gate and the sim_threads
/// dispatch.
ExperimentResult run_experiment_sharded(const SimParams& params,
                                        Protocol protocol,
                                        SubstrateKind substrate,
                                        const ExperimentOptions& options);

}  // namespace ert::harness
