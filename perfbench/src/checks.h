#ifndef FGRO_PERFBENCH_CHECKS_H_
#define FGRO_PERFBENCH_CHECKS_H_

#include <string>

#include "env/ground_truth.h"
#include "optimizer/scheduler_types.h"

namespace fgro::perfbench {

/// Checks one decision against the context it was solved for, before the
/// caller charges it to the cluster. Returns "" when every invariant holds,
/// else the first violation:
///   - feasible, with one machine and one theta per instance;
///   - every machine inside the fleet (and the context's machine subset),
///     and up;
///   - every theta in Hbo::ResourcePlanCatalog();
///   - summed theta cores and memory per machine within its free capacity;
///   - instances per machine within alpha (ResolveAlpha over the context's
///     candidate machines), or 2 alpha on a sharded solve, whose
///     RefineMergedDecision pass may use that headroom by contract.
std::string CheckDecision(const SchedulingContext& context,
                          const StageDecision& decision);

/// Byte-for-byte equality of placement, resource plan, feasibility and
/// ladder level (solve time and epochs excluded).
bool SameDecision(const StageDecision& a, const StageDecision& b);

/// Realized quality of a decision under the hidden ground truth: stage
/// latency is the max over instances of the expected latency, cost the sum
/// of InstanceCost over instances.
struct PlanQuality {
  double latency_s = 0.0;
  double cost = 0.0;  // $
};
PlanQuality ExpectedPlanQuality(const GroundTruthEnv& env,
                                const SchedulingContext& context,
                                const StageDecision& decision);

}  // namespace fgro::perfbench

#endif  // FGRO_PERFBENCH_CHECKS_H_
