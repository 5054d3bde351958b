#include "tracing.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "clustering/machine_clustering.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "hbo/hbo.h"
#include "moo/wun.h"
#include "optimizer/fuxi.h"
#include "optimizer/ipa.h"
#include "optimizer/ipa_clustered.h"
#include "optimizer/sharding.h"

namespace fgro::perfbench {
namespace {

/// Boundaries of one composed unsharded solve: placement runs over
/// [start, placement_end), RAA over [placement_end, raa_end); what follows
/// (the ladder's bookkeeping, or a fallback solve) runs until `end`.
struct UnshardedTimes {
  double start = 0.0;
  double placement_end = 0.0;
  double raa_end = 0.0;
  double end = 0.0;
};

StageDecision ComposeUnsharded(const StageOptimizer::Config& config,
                               const SchedulingContext& context,
                               UnshardedTimes* t) {
  using Placement = StageOptimizer::Placement;
  t->start = NowSeconds();
  t->placement_end = t->raa_end = t->start;
  SchedulingContext ctx = context;
  if (config.degrade_gracefully && ctx.deadline.infinite()) {
    ctx.deadline = Deadline::After(ctx.ro_time_limit_seconds);
  }
  const bool model_ok = ctx.model_available && ctx.model != nullptr &&
                        ctx.model->trained();
  const bool placement_needs_model = config.placement != Placement::kFuxi;
  auto finish = [&](StageDecision d) {
    t->end = NowSeconds();
    return d;
  };
  auto fuxi_fallback = [&](double solve_spent) {
    StageDecision fb = FuxiSchedule(ctx);
    fb.solve_seconds += solve_spent;
    fb.fallback = FallbackLevel::kFuxi;
    return finish(std::move(fb));
  };
  if (config.degrade_gracefully && placement_needs_model && !model_ok) {
    return fuxi_fallback(0.0);
  }

  StageDecision decision;
  ClusteredIpaResult clustered;
  const std::vector<FastMciGroup>* groups = nullptr;
  switch (config.placement) {
    case Placement::kFuxi:
      decision = FuxiSchedule(ctx);
      break;
    case Placement::kIpaOrg:
      decision = IpaSchedule(ctx);
      break;
    case Placement::kIpaClustered:
      clustered = IpaClusteredSchedule(ctx);
      decision = std::move(clustered.decision);
      groups = &clustered.groups;
      break;
  }
  t->placement_end = t->raa_end = NowSeconds();
  if (config.degrade_gracefully) {
    if ((!decision.feasible && placement_needs_model) ||
        decision.solve_seconds > ctx.ro_time_limit_seconds) {
      return fuxi_fallback(decision.solve_seconds);
    }
  }
  if (!decision.feasible || !config.run_raa) return finish(std::move(decision));
  if (config.degrade_gracefully && (!ctx.raa_allowed || !model_ok)) {
    decision.fallback = FallbackLevel::kTheta0;
    return finish(std::move(decision));
  }
  RaaResult raa = RunRaa(ctx, decision, groups, config.raa);
  t->raa_end = NowSeconds();
  if (config.degrade_gracefully &&
      (!raa.ok || decision.solve_seconds + raa.solve_seconds >
                      ctx.ro_time_limit_seconds)) {
    decision.solve_seconds += raa.solve_seconds;
    decision.fallback = FallbackLevel::kTheta0;
    return finish(std::move(decision));
  }
  if (raa.ok) decision.theta_of_instance = std::move(raa.theta_of_instance);
  decision.solve_seconds += raa.solve_seconds;
  return finish(std::move(decision));
}

void RecordUnsharded(const UnshardedTimes& t, const char* name, SpanLog* log,
                     int parent, long op) {
  const int self = log->Record(name, parent, op, t.start, t.end);
  log->Record("optimizer.ipa", self, op, t.start, t.placement_end);
  if (t.raa_end > t.placement_end) {
    log->Record("optimizer.raa", self, op, t.placement_end, t.raa_end);
  }
}

StageDecision ComposeSharded(const StageOptimizer::Config& config,
                             const SchedulingContext& context, SpanLog* log,
                             int parent, long op) {
  const Stage& stage = *context.stage;
  const int k = EffectiveShardCount(context);

  const double plan_start = NowSeconds();
  const ShardPlan plan = PlanForContext(context);
  const double solve_start = NowSeconds();
  log->Record("optimizer.shard_plan", parent, op, plan_start, solve_start);

  std::vector<Stage> views(static_cast<size_t>(k));
  for (int s = 0; s < k; ++s) {
    Stage& view = views[static_cast<size_t>(s)];
    view = stage;
    view.instances.clear();
    for (int idx : plan.instances_of_shard[static_cast<size_t>(s)]) {
      view.instances.push_back(stage.instances[static_cast<size_t>(idx)]);
    }
  }
  std::vector<StageDecision> slots(static_cast<size_t>(k));
  std::vector<UnshardedTimes> times(static_cast<size_t>(k));
  ParallelFor(context.worker_pool, k, [&](int s) {
    if (plan.instances_of_shard[static_cast<size_t>(s)].empty()) {
      slots[static_cast<size_t>(s)].feasible = true;
      return;
    }
    SchedulingContext sub = context;
    sub.stage = &views[static_cast<size_t>(s)];
    sub.machine_subset = &plan.machines_of_shard[static_cast<size_t>(s)];
    sub.shard_count = 1;
    sub.memo = nullptr;
    sub.worker_pool = nullptr;
    slots[static_cast<size_t>(s)] =
        ComposeUnsharded(config, sub, &times[static_cast<size_t>(s)]);
  });
  const double merge_start = NowSeconds();
  const int solve =
      log->Record("optimizer.shard_solve", parent, op, solve_start,
                  merge_start);
  for (int s = 0; s < k; ++s) {
    if (!plan.instances_of_shard[static_cast<size_t>(s)].empty()) {
      RecordUnsharded(times[static_cast<size_t>(s)], "optimizer.shard", log,
                      solve, op);
    }
  }

  ShardMergeStats stats;
  StageDecision merged = MergeShardDecisions(context, plan, slots, &stats);

  const double refine_start = NowSeconds();
  log->Record("optimizer.shard_merge", parent, op, merge_start, refine_start);
  const bool tune_theta = config.run_raa && context.raa_allowed &&
                          merged.fallback == FallbackLevel::kPrimary;
  RefineMergedDecision(context, &merged, tune_theta);
  const double refine_end = NowSeconds();
  log->Record("optimizer.shard_refine", parent, op, refine_start, refine_end);
  if (!merged.feasible && config.degrade_gracefully) {
    StageDecision fb = FuxiSchedule(context);
    fb.fallback = FallbackLevel::kFuxi;
    merged = std::move(fb);
    log->Record("optimizer.fuxi", parent, op, refine_end, NowSeconds());
  }
  return merged;
}

}  // namespace

StageDecision ComposeDecision(const StageOptimizer::Config& config,
                              const SchedulingContext& context, SpanLog* log,
                              int parent, long op) {
  const std::vector<int>* subset = context.instance_subset;
  Stage reduced;
  SchedulingContext ctx = context;
  if (subset != nullptr && !subset->empty() &&
      static_cast<int>(subset->size()) < context.stage->instance_count()) {
    // Partial re-entry, as Optimize builds it: a reduced stage view without
    // the memo (whose keys are instance indices the view renumbers).
    reduced = *context.stage;
    reduced.instances.clear();
    for (int idx : *subset) {
      reduced.instances.push_back(
          context.stage->instances[static_cast<size_t>(idx)]);
    }
    ctx.stage = &reduced;
    ctx.instance_subset = nullptr;
    ctx.memo = nullptr;
  }
  if (EffectiveShardCount(ctx) > 1) {
    return ComposeSharded(config, ctx, log, parent, op);
  }
  UnshardedTimes t;
  StageDecision decision = ComposeUnsharded(config, ctx, &t);
  log->Record("optimizer.ipa", parent, op, t.start, t.placement_end);
  if (t.raa_end > t.placement_end) {
    log->Record("optimizer.raa", parent, op, t.placement_end, t.raa_end);
  }
  if (t.end > t.raa_end) {
    log->Record("optimizer.ladder", parent, op, t.raa_end, t.end);
  }
  return decision;
}

void SummarizeDecisionSpans(const SpanLog& log, PerLayer* out) {
  const std::vector<Span>& spans = log.spans();
  auto is = [](const Span& s, const char* name) {
    return std::strcmp(s.name, name) == 0;
  };
  double parent = 0.0;
  double children = 0.0;
  long decisions = 0;
  double ipa = 0.0, raa = 0.0, plan = 0.0, solve = 0.0, merge = 0.0,
         refine = 0.0;
  for (const Span& s : spans) {
    const double d = s.end - s.start;
    if (is(s, "optimizer.decide")) {
      parent += d;
      ++decisions;
    }
    if (s.parent >= 0 &&
        is(spans[static_cast<size_t>(s.parent)], "optimizer.decide")) {
      children += d;
    }
    if (is(s, "optimizer.ipa")) ipa += d;
    if (is(s, "optimizer.raa")) raa += d;
    if (is(s, "optimizer.shard_plan")) plan += d;
    if (is(s, "optimizer.shard_solve")) solve += d;
    if (is(s, "optimizer.shard_merge")) merge += d;
    if (is(s, "optimizer.shard_refine")) refine += d;
  }
  if (decisions == 0) return;
  const double per = 1e3 / static_cast<double>(decisions);
  out->decide_ms = parent * per;
  out->ipa_ms = ipa * per;
  out->raa_ms = raa * per;
  out->shard_plan_ms = plan * per;
  out->shard_solve_ms = solve * per;
  out->shard_merge_ms = merge * per;
  out->shard_refine_ms = refine * per;
  out->unattributed_ms = (parent - children) * per;
  out->coverage = parent > 0.0 ? children / parent : 0.0;
}

void MeasureUnitCosts(const StageOptimizer::Config& config,
                      const std::vector<SchedulingContext>& sample,
                      PerLayer* out) {
  // Each unit is repeated until it has run for a few milliseconds, so
  // microsecond-scale units are not dominated by clock reads.
  constexpr double kMinSeconds = 0.004;
  auto time_per_call = [&](const auto& body) {
    long calls = 0;
    const double start = NowSeconds();
    double now = start;
    do {
      body();
      ++calls;
      now = NowSeconds();
    } while (now - start < kMinSeconds);
    return (now - start) / static_cast<double>(calls);
  };
  double embed_s = 0.0, predict_s = 0.0, kde_s = 0.0, machines_s = 0.0,
         wun_s = 0.0;
  long instances = 0, rows = 0, wun_samples = 0;
  for (const SchedulingContext& ctx : sample) {
    const Stage& stage = *ctx.stage;
    const LatencyModel& model = *ctx.model;
    // Embed: the first (up to) 256 instances, once each.
    const int m = std::min(stage.instance_count(), 256);
    const double t = NowSeconds();
    for (int i = 0; i < m; ++i) FGRO_CHECK_OK(model.Embed(stage, i).status());
    embed_s += NowSeconds() - t;
    instances += m;

    // PredictBatch on RAA's grid shape: one embedding swept over the plan
    // catalog inside the exploration window around theta0.
    Result<LatencyModel::EmbeddedInstance> embedded = model.Embed(stage, 0);
    FGRO_CHECK_OK(embedded.status());
    const std::vector<int> candidates = CandidateMachines(ctx);
    const Machine& machine = ctx.cluster->machine(
        candidates.empty() ? 0 : candidates.front());
    std::vector<LatencyModel::PredictionCandidate> grid;
    for (const ResourceConfig& theta : Hbo::ResourcePlanCatalog()) {
      if (theta.cores >= ctx.theta0.cores * kPlanExplorationLow &&
          theta.cores <= ctx.theta0.cores * kPlanExplorationHigh &&
          theta.memory_gb >= ctx.theta0.memory_gb * kPlanExplorationLow &&
          theta.memory_gb <= ctx.theta0.memory_gb * kPlanExplorationHigh) {
        grid.push_back({theta, machine.state(), machine.hardware().id});
      }
    }
    if (!grid.empty()) {
      std::vector<double> lats(grid.size());
      LatencyModel::BatchScratch scratch;
      predict_s += time_per_call([&] {
        model.PredictBatch(embedded.value(), grid, lats.data(), &scratch);
      });
      rows += static_cast<long>(grid.size());
    }

    kde_s += time_per_call([&] { (void)ClusterInstancesByRows(stage); });
    machines_s += time_per_call([&] {
      (void)ClusterMachines(*ctx.cluster, candidates,
                            ctx.discretization_degree);
    });

    // WUN over the stage frontier RAA builds for the unsharded solve.
    ClusteredIpaResult ipa = IpaClusteredSchedule(ctx);
    if (ipa.decision.feasible) {
      const RaaResult raa =
          RunRaa(ctx, ipa.decision, &ipa.groups, config.raa);
      if (raa.ok && !raa.stage_pareto.empty()) {
        wun_s += time_per_call([&] {
          (void)WeightedUtopiaNearest(raa.stage_pareto,
                                      config.raa.wun_weights);
        });
        ++wun_samples;
      }
    }
  }
  const double n = static_cast<double>(sample.size());
  if (instances > 0) {
    out->embed_us_per_instance = embed_s * 1e6 / static_cast<double>(instances);
  }
  if (rows > 0) {
    // predict_s sums per-call times, one call per sampled stage.
    out->predict_ns_per_row = predict_s * 1e9 / static_cast<double>(rows);
  }
  if (n > 0) {
    out->cluster_instances_us = kde_s * 1e6 / n;
    out->cluster_machines_us = machines_s * 1e6 / n;
  }
  if (wun_samples > 0) {
    out->wun_us = wun_s * 1e6 / static_cast<double>(wun_samples);
  }
}

}  // namespace fgro::perfbench
