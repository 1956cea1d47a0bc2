// Continuous invariant auditing for the experiment engine.
//
// The paper's central claims are *provable bounds*: Theorem 3.1 bounds the
// indegree a node accepts at assignment time by its (estimated) capacity,
// and Theorem 3.2 keeps the adapted indegree inside a capacity window.
// This auditor turns those theorems — plus the structural invariants every
// substrate must maintain — into executable checks that run on the
// simulator clock, every adaptation period, over all live nodes:
//
//   indegree.budget-sync   backward-finger count == budget's indegree
//   indegree.bound         elastic inlinks <= d_inf + forced accepts:
//                          build/repair may bypass the budget to keep the
//                          network routable (link with
//                          respect_budget=false), and every such accept is
//                          counted, so any excess over d_inf must be
//                          backed by one — see docs/FAULTS.md
//   indegree.bound-floor   d_inf >= 1 (Sec. 3.3: the bound never drops
//                          below one, keys must stay reachable)
//   theorem3.1             static-bound protocols (ERT/F, NS): d_inf <=
//                          floor(0.5 + alpha * gamma_c * c-hat)
//   theorem3.2             adaptive protocols (ERT/A, ERT/AF): d_inf <=
//                          d + lost + floor(0.5 + alpha * gamma_c * c-hat);
//                          the bound-over-degree gap never exceeds the
//                          initial assignment's plus the inlinks lost to
//                          departed or purged pointers, so growth is always
//                          backed by real inlinks (the executable form of
//                          the theorem's capacity window)
//   links.symmetry         every outlink candidate is mirrored by a
//                          backward finger at its target and vice versa
//   geometry.<substrate>.* the overlay's own structure (CAN partition and
//                          adjacency, Cycloid eligibility and class index,
//                          the D1HT mesh, Kademlia buckets)
//   queue.consistency      LoadTracker queue length == waiting + in
//                          service at the engine's queues
//
// Violations are recorded as structured records (first-violation time,
// node, bound, observed value) that `ertsim --audit` prints and tests
// consume; the sweep never mutates the network, so enabling the auditor
// leaves results bit-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "dht/types.h"
#include "ert/audit_sink.h"

namespace ert::harness {

class SubstrateOps;

struct AuditorOptions {
  bool enabled = false;
  /// Sweep period in seconds; 0 means "use the adaptation period T".
  double period = 0.0;
  /// Cap on stored violation records (counters keep counting past it).
  std::size_t max_records = 256;
  /// Inlinks over d_inf tolerated before indegree.bound fires. Emergency
  /// repairs (link with respect_budget=false) may overshoot the budget to
  /// keep a partition-free table; 0 makes the check strict.
  std::size_t indegree_slack = 0;
  /// 0 audits every live node each sweep. k > 0 audits a fresh seeded
  /// k-subset per sweep, making the audit cost O(k) instead of O(n) — the
  /// only way to keep continuous auditing on at 2^17+ nodes. The subset is
  /// drawn from the auditor's own Rng stream, never the simulation's, so
  /// results stay bit-identical at any sample size.
  std::size_t sample = 0;
};

/// One invariant violation, first observed at `time`.
struct InvariantViolation {
  double time = 0.0;
  std::string invariant;  ///< e.g. "theorem3.2", "links.symmetry".
  dht::NodeIndex node = dht::kNoNode;  ///< overlay node (or real id).
  double observed = 0.0;
  double bound = 0.0;
  std::string detail;
};

std::string to_string(const InvariantViolation& v);

class InvariantAuditor final : public core::AuditSink {
 public:
  /// `seed` feeds the auditor's private sampling stream (see
  /// AuditorOptions::sample); callers domain-separate it from the
  /// simulation seed. Unsampled audits never draw from it.
  explicit InvariantAuditor(AuditorOptions opts, std::uint64_t seed = 0)
      : opts_(opts), rng_(seed) {}

  const AuditorOptions& options() const { return opts_; }

  /// Draws this sweep's audit subset from [0, population). Returns nullptr
  /// when sampling is off or the whole population fits within the sample
  /// size (callers then audit everything); otherwise a sorted list of
  /// `options().sample` distinct indices. Each call consumes auditor Rng
  /// draws, so callers within one sweep get independent subsets in a
  /// deterministic sequence.
  const std::vector<std::uint32_t>* sample_population(std::size_t population);

  void begin_sweep(double time) {
    now_ = time;
    ++sweeps_;
  }

  /// Records a violation (subject to the record cap).
  void report(const char* invariant, dht::NodeIndex node, double observed,
              double bound, const char* what) override;

  std::size_t sweeps() const { return sweeps_; }
  std::size_t total_violations() const { return total_; }
  bool clean() const { return total_ == 0; }
  const std::vector<InvariantViolation>& records() const { return records_; }

 private:
  AuditorOptions opts_;
  Rng rng_;  ///< sampling-only stream; the simulation never shares it.
  double now_ = 0.0;
  std::size_t sweeps_ = 0;
  std::size_t total_ = 0;
  std::vector<InvariantViolation> records_;
  std::vector<std::uint32_t> perm_scratch_;  ///< partial Fisher-Yates pool.
  std::vector<std::uint32_t> sample_out_;    ///< the sweep's chosen subset.
};

/// Sweeps every live overlay node of `sub` (or the sweep's sample), running
/// its structural audit (link symmetry, budget sync, geometry) and the
/// theorem bound windows, then the whole-network structural checks once.
/// `capacity_of` maps an overlay node to the normalized capacity of its
/// physical host; `bounds_enforced` / `adaptive` select which theorem
/// applies (Base/VS enforce no bound, ERT/F and NS keep the initial one,
/// ERT/A and ERT/AF adapt it).
void audit_substrate(InvariantAuditor& auditor, SubstrateOps& sub,
                     bool bounds_enforced, bool adaptive, double alpha,
                     double gamma_c,
                     const std::function<double(dht::NodeIndex)>& capacity_of);

}  // namespace ert::harness
