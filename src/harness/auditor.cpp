#include "harness/auditor.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "ert/capacity.h"
#include "harness/substrate.h"

namespace ert::harness {

std::string to_string(const InvariantViolation& v) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "t=%.3f %s node=%zu observed=%g bound=%g%s%s", v.time,
                v.invariant.c_str(), static_cast<std::size_t>(v.node),
                v.observed, v.bound, v.detail.empty() ? "" : " ",
                v.detail.c_str());
  return buf;
}

void InvariantAuditor::report(const char* invariant, dht::NodeIndex node,
                              double observed, double bound,
                              const char* what) {
  ++total_;
  if (records_.size() >= opts_.max_records) return;
  InvariantViolation v;
  v.time = now_;
  v.invariant = invariant;
  v.node = node;
  v.observed = observed;
  v.bound = bound;
  v.detail = what;
  records_.push_back(std::move(v));
}

const std::vector<std::uint32_t>* InvariantAuditor::sample_population(
    std::size_t population) {
  const std::size_t k = opts_.sample;
  if (k == 0 || population <= k) return nullptr;
  // Partial Fisher-Yates over a reusable index pool, then sort so callers
  // visit sampled nodes in ascending order (stable record ordering).
  perm_scratch_.resize(population);
  for (std::size_t i = 0; i < population; ++i)
    perm_scratch_[i] = static_cast<std::uint32_t>(i);
  sample_out_.clear();
  sample_out_.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + rng_.index(population - i);
    std::swap(perm_scratch_[i], perm_scratch_[j]);
    sample_out_.push_back(perm_scratch_[i]);
  }
  std::sort(sample_out_.begin(), sample_out_.end());
  return &sample_out_;
}

void audit_substrate(InvariantAuditor& auditor, SubstrateOps& sub,
                     bool bounds_enforced, bool adaptive, double alpha,
                     double gamma_c,
                     const std::function<double(dht::NodeIndex)>& capacity_of) {
  const std::size_t slack = auditor.options().indegree_slack;
  const auto audit_one = [&](dht::NodeIndex v) {
    if (!sub.alive(v)) return;
    sub.audit_node(v, auditor);
    if (!bounds_enforced) return;
    const auto& budget = sub.budget(v);
    const double d = budget.indegree();
    const double dinf = budget.max_indegree();
    auditor.expect_le("indegree.bound-floor", v, 1.0, dinf,
                      "d_inf fell below 1");
    // Every inlink beyond d_inf must be accounted for by an emergency
    // accept (link with respect_budget=false): d <= d_inf + forced.
    auditor.expect_le(
        "indegree.bound", v, d,
        dinf + static_cast<double>(budget.forced_accepts()) +
            static_cast<double>(slack),
        "inlinks exceed d_inf + emergency accepts");
    // Theorem 3.1: d_inf was assigned as floor(0.5 + alpha * c_est) with
    // c_est <= gamma_c * c-hat, so it can never exceed the gamma_c-inflated
    // capacity bound. Under adaptation (Theorem 3.2) the bound moves, but
    // every raise is backed by really-gained inlinks and every shed lowers
    // it by exactly the links shed, so the bound-over-degree gap grows past
    // the initial assignment's only by inlinks lost to departed or purged
    // pointers, which lower d and leave d_inf:
    // d_inf <= d + lost + theorem31 bound.
    const double d31 = static_cast<double>(
        core::max_indegree(alpha, gamma_c * capacity_of(v)));
    if (adaptive) {
      auditor.expect_le("theorem3.2", v, dinf,
                        d + static_cast<double>(budget.lost_inlinks()) + d31,
                        "adapted d_inf outgrew its capacity window");
    } else {
      auditor.expect_le("theorem3.1", v, dinf, d31,
                        "initial d_inf exceeds alpha*gamma_c*c-hat");
    }
  };
  if (const auto* sample = auditor.sample_population(sub.num_slots())) {
    for (const std::uint32_t v : *sample) audit_one(v);
  } else {
    for (dht::NodeIndex v = 0; v < sub.num_slots(); ++v) audit_one(v);
  }
  sub.audit_network(auditor);
}

}  // namespace ert::harness
