#ifndef FGRO_PERFBENCH_TRACING_H_
#define FGRO_PERFBENCH_TRACING_H_

#include <vector>

#include "harness.h"
#include "optimizer/stage_optimizer.h"
#include "workloads.h"

namespace fgro::perfbench {

/// Recomposes one StageOptimizer::Optimize call from the optimizer's public
/// parts, timing each part as a span, so the traced run can attribute a
/// decision's wall time layer by layer without instrumenting the library:
///
///   unsharded: IpaClusteredSchedule (or the configured placement) -> RunRaa,
///              with the degradation ladder Optimize applies;
///   sharded:   PlanForContext -> per-shard solve (each itself composed as
///              above) on the context's worker pool -> MergeShardDecisions
///              -> RefineMergedDecision.
///
/// The caller checks the result equals Optimize's decision byte for byte
/// (SameDecision), which is what shows the composition did the same work.
/// Spans are recorded under `parent` (the Optimize call being explained).
StageDecision ComposeDecision(const StageOptimizer::Config& config,
                              const SchedulingContext& context, SpanLog* log,
                              int parent, long op);

/// Fills the decision-tree part of `out` from the spans: means per
/// "optimizer.decide" span of the parent and of each part, the parent time
/// no composed part covers (unattributed), and the covered share (coverage).
void SummarizeDecisionSpans(const SpanLog& log, PerLayer* out);

/// Standalone unit costs of the layers under the decision, measured beside
/// the tree (never summed into it) on `sample` contexts: Embed per
/// instance, PredictBatch per row on RAA's grid shape, KDE instance
/// clustering, machine clustering, and the WUN pick over RAA's stage
/// frontier.
void MeasureUnitCosts(const StageOptimizer::Config& config,
                      const std::vector<SchedulingContext>& sample,
                      PerLayer* out);

}  // namespace fgro::perfbench

#endif  // FGRO_PERFBENCH_TRACING_H_
