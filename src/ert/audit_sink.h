// Where structural checks report. The overlays sit below the harness, so
// their link and geometry audits (ElasticLinks::audit_node / audit_network)
// report named, counted violations through this interface, which
// harness::InvariantAuditor implements. The checks never assert: they run
// and report in every build type. docs/FAULTS.md lists the names.
#pragma once

#include "dht/types.h"

namespace ert::core {

class AuditSink {
 public:
  /// Records one violation of `invariant` at `node` (kNoNode for a
  /// whole-network check).
  virtual void report(const char* invariant, dht::NodeIndex node,
                      double observed, double bound, const char* what) = 0;

  /// observed <= bound, else a violation.
  void expect_le(const char* invariant, dht::NodeIndex node, double observed,
                 double bound, const char* what = "") {
    if (!(observed <= bound)) report(invariant, node, observed, bound, what);
  }

  /// observed == bound, else a violation.
  void expect_eq(const char* invariant, dht::NodeIndex node, double observed,
                 double bound, const char* what = "") {
    if (observed != bound) report(invariant, node, observed, bound, what);
  }

 protected:
  ~AuditSink() = default;
};

}  // namespace ert::core
