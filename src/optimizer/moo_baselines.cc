#include "optimizer/moo_baselines.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/math_utils.h"
#include "common/stopwatch.h"
#include "moo/config_space.h"
#include "moo/mogd.h"
#include "moo/nsga2.h"
#include "moo/pareto.h"
#include "moo/weighted_sum.h"
#include "moo/wun.h"
#include "hbo/hbo.h"
#include "optimizer/fuxi.h"
#include "optimizer/ipa_clustered.h"
#include "optimizer/sharding.h"

namespace fgro {

std::string MooBaselineName(const MooBaselineOptions& options) {
  std::string base;
  switch (options.kind) {
    case MooBaselineKind::kEvo: base = "EVO"; break;
    case MooBaselineKind::kWsSample: base = "WS(Sample)"; break;
    case MooBaselineKind::kPfMogd: base = "PF(MOGD)"; break;
  }
  return options.ipa_placement ? "IPA+" + base : base;
}

namespace {

/// The shared clustered formulation: instance clusters (with sizes and
/// cached plan embeddings of their representatives) and machine clusters
/// (with pooled capacities). Genomes address clusters, keeping the variable
/// count manageable exactly as Appendix A.1 prescribes.
struct BaselineProblem {
  const SchedulingContext* context = nullptr;
  std::vector<InstanceClusterGroup> inst_clusters;
  std::vector<MachineClusterGroup> mach_clusters;
  std::vector<LatencyModel::EmbeddedInstance> embeddings;  // per inst cluster
  std::vector<double> pool_cores;   // free cores per machine cluster
  std::vector<double> pool_mem;     // free memory per machine cluster
  std::vector<long> pool_slots;     // alpha-capped instance slots
  std::vector<ResourceConfig> grid; // shared theta grid
  // Plan B: fixed machine-cluster assignment per instance cluster.
  std::vector<int> fixed_assignment;
  double ipa_seconds = 0.0;
  std::vector<int> fixed_machine_of_instance;

  bool plan_b() const { return !fixed_assignment.empty(); }
  int num_vars() const {
    int mc = static_cast<int>(inst_clusters.size());
    return plan_b() ? mc : 2 * mc;
  }

  /// Batched-inference scratch, reused across the many Evaluate calls an
  /// evolutionary run makes (mutable: Evaluate is logically const and the
  /// solvers drive it from one thread).
  mutable LatencyModel::BatchScratch batch_scratch;
  mutable std::vector<LatencyModel::PredictionQuery> batch_queries;
  mutable std::vector<double> batch_lats;

  /// Decodes a genome into per-cluster (machine cluster, theta index).
  void Decode(const Vec& genome, std::vector<int>* mach_of_cluster,
              std::vector<int>* theta_of_cluster) const {
    const int mc = static_cast<int>(inst_clusters.size());
    mach_of_cluster->resize(static_cast<size_t>(mc));
    theta_of_cluster->resize(static_cast<size_t>(mc));
    for (int i = 0; i < mc; ++i) {
      if (plan_b()) {
        (*mach_of_cluster)[static_cast<size_t>(i)] =
            fixed_assignment[static_cast<size_t>(i)];
        (*theta_of_cluster)[static_cast<size_t>(i)] = static_cast<int>(
            Clamp(std::lround(genome[static_cast<size_t>(i)]), 0,
                  static_cast<double>(grid.size()) - 1));
      } else {
        (*mach_of_cluster)[static_cast<size_t>(i)] = static_cast<int>(
            Clamp(std::lround(genome[static_cast<size_t>(2 * i)]), 0,
                  static_cast<double>(mach_clusters.size()) - 1));
        (*theta_of_cluster)[static_cast<size_t>(i)] = static_cast<int>(
            Clamp(std::lround(genome[static_cast<size_t>(2 * i + 1)]), 0,
                  static_cast<double>(grid.size()) - 1));
      }
    }
  }

  MooEvaluation Evaluate(const Vec& genome) const {
    std::vector<int> mach_of_cluster, theta_of_cluster;
    Decode(genome, &mach_of_cluster, &theta_of_cluster);
    const int mc = static_cast<int>(inst_clusters.size());
    const int nc = static_cast<int>(mach_clusters.size());

    // Constraint accounting per machine cluster (Eq. 8).
    std::vector<double> used_cores(static_cast<size_t>(nc), 0.0);
    std::vector<double> used_mem(static_cast<size_t>(nc), 0.0);
    std::vector<long> used_slots(static_cast<size_t>(nc), 0);

    // One PredictBatch per genome covers every cluster's latency.
    batch_queries.clear();
    batch_queries.reserve(static_cast<size_t>(mc));
    for (int i = 0; i < mc; ++i) {
      int j = mach_of_cluster[static_cast<size_t>(i)];
      const Machine& machine = context->cluster->machine(
          mach_clusters[static_cast<size_t>(j)].representative);
      batch_queries.push_back(LatencyModel::PredictionQuery{
          &embeddings[static_cast<size_t>(i)],
          {grid[static_cast<size_t>(
               theta_of_cluster[static_cast<size_t>(i)])],
           machine.state(), machine.hardware().id}});
    }
    batch_lats.resize(static_cast<size_t>(mc));
    context->model->PredictBatch(batch_queries, batch_lats.data(),
                                 &batch_scratch, context->memo);

    MooEvaluation eval;
    double latency = 0.0, cost = 0.0;
    for (int i = 0; i < mc; ++i) {
      int j = mach_of_cluster[static_cast<size_t>(i)];
      const ResourceConfig& theta =
          grid[static_cast<size_t>(theta_of_cluster[static_cast<size_t>(i)])];
      const double size =
          static_cast<double>(inst_clusters[static_cast<size_t>(i)]
                                  .instance_ids.size());
      used_cores[static_cast<size_t>(j)] += theta.cores * size;
      used_mem[static_cast<size_t>(j)] += theta.memory_gb * size;
      used_slots[static_cast<size_t>(j)] += static_cast<long>(size);

      const double lat = batch_lats[static_cast<size_t>(i)];
      latency = std::max(latency, lat);
      cost += lat * context->cost_weights.Rate(theta) * size;
    }
    for (int j = 0; j < nc; ++j) {
      eval.violation += std::max(
          0.0, used_cores[static_cast<size_t>(j)] -
                   pool_cores[static_cast<size_t>(j)]) /
          std::max(1.0, pool_cores[static_cast<size_t>(j)]);
      eval.violation +=
          std::max(0.0, used_mem[static_cast<size_t>(j)] -
                            pool_mem[static_cast<size_t>(j)]) /
          std::max(1.0, pool_mem[static_cast<size_t>(j)]);
      eval.violation += std::max<double>(
          0, static_cast<double>(used_slots[static_cast<size_t>(j)] -
                                 pool_slots[static_cast<size_t>(j)]));
    }
    eval.objectives = {latency, cost};
    return eval;
  }
};

bool BuildProblem(const SchedulingContext& context, bool ipa_placement,
                  BaselineProblem* problem) {
  const Stage& stage = *context.stage;
  const Cluster& cluster = *context.cluster;
  problem->context = &context;
  problem->grid = Hbo::ResourcePlanCatalog();

  std::vector<int> candidates = CandidateMachines(context);
  if (candidates.empty()) return false;
  const int alpha = ResolveAlpha(context.alpha, stage.instance_count(),
                                 static_cast<int>(candidates.size()));

  if (ipa_placement) {
    // Plan B: placement fixed by clustered IPA; RAA-style groups become the
    // instance clusters.
    ClusteredIpaResult ipa = IpaClusteredSchedule(context);
    if (!ipa.decision.feasible) return false;
    problem->ipa_seconds = ipa.decision.solve_seconds;
    problem->fixed_machine_of_instance = ipa.decision.machine_of_instance;
    problem->mach_clusters =
        ClusterMachines(cluster, candidates, context.discretization_degree);
    // Map each group's representative machine to its machine cluster.
    std::vector<int> cluster_of_machine(static_cast<size_t>(cluster.size()),
                                        -1);
    for (size_t j = 0; j < problem->mach_clusters.size(); ++j) {
      for (int id : problem->mach_clusters[j].machine_ids) {
        cluster_of_machine[static_cast<size_t>(id)] = static_cast<int>(j);
      }
    }
    for (const FastMciGroup& g : ipa.groups) {
      InstanceClusterGroup ic;
      ic.instance_ids = g.instances;
      ic.representative = g.representative;
      problem->inst_clusters.push_back(std::move(ic));
      problem->fixed_assignment.push_back(
          cluster_of_machine[static_cast<size_t>(g.representative_machine)]);
    }
  } else {
    problem->inst_clusters = ClusterInstancesByRows(stage);
    problem->mach_clusters =
        ClusterMachines(cluster, candidates, context.discretization_degree);
  }

  const int nc = static_cast<int>(problem->mach_clusters.size());
  problem->pool_cores.assign(static_cast<size_t>(nc), 0.0);
  problem->pool_mem.assign(static_cast<size_t>(nc), 0.0);
  problem->pool_slots.assign(static_cast<size_t>(nc), 0);
  for (int j = 0; j < nc; ++j) {
    for (int id : problem->mach_clusters[static_cast<size_t>(j)].machine_ids) {
      const Machine& machine = cluster.machine(id);
      problem->pool_cores[static_cast<size_t>(j)] += machine.available_cores();
      problem->pool_mem[static_cast<size_t>(j)] +=
          machine.available_memory_gb();
      problem->pool_slots[static_cast<size_t>(j)] += alpha;
    }
  }

  problem->embeddings.reserve(problem->inst_clusters.size());
  for (const InstanceClusterGroup& ic : problem->inst_clusters) {
    Result<LatencyModel::EmbeddedInstance> embedded =
        context.model->Embed(stage, ic.representative);
    if (!embedded.ok()) return false;
    problem->embeddings.push_back(std::move(embedded).value());
  }
  return true;
}

/// Expands a per-cluster solution into the per-instance StageDecision,
/// placing cluster members on concrete machines of the chosen machine
/// cluster (round-robin over free slots).
bool Expand(const BaselineProblem& problem,
            const std::vector<int>& mach_of_cluster,
            const std::vector<int>& theta_of_cluster,
            StageDecision* decision) {
  const SchedulingContext& context = *problem.context;
  const Stage& stage = *context.stage;
  const Cluster& cluster = *context.cluster;
  const int m = stage.instance_count();
  const int alpha = ResolveAlpha(context.alpha, m, cluster.size());

  decision->machine_of_instance.assign(static_cast<size_t>(m), -1);
  decision->theta_of_instance.assign(static_cast<size_t>(m), context.theta0);

  std::vector<int> slots(static_cast<size_t>(cluster.size()), 0);
  for (const MachineClusterGroup& g : problem.mach_clusters) {
    for (int id : g.machine_ids) {
      slots[static_cast<size_t>(id)] =
          InstanceCapacity(cluster.machine(id), context.theta0, alpha);
    }
  }
  for (size_t c = 0; c < problem.inst_clusters.size(); ++c) {
    const ResourceConfig& theta =
        problem.grid[static_cast<size_t>(theta_of_cluster[c])];
    if (problem.plan_b()) {
      for (int i : problem.inst_clusters[c].instance_ids) {
        decision->machine_of_instance[static_cast<size_t>(i)] =
            problem.fixed_machine_of_instance[static_cast<size_t>(i)];
        decision->theta_of_instance[static_cast<size_t>(i)] = theta;
      }
      continue;
    }
    const MachineClusterGroup& mg =
        problem.mach_clusters[static_cast<size_t>(mach_of_cluster[c])];
    size_t cursor = 0;
    for (int i : problem.inst_clusters[c].instance_ids) {
      size_t scanned = 0;
      while (scanned < mg.machine_ids.size()) {
        int id = mg.machine_ids[cursor % mg.machine_ids.size()];
        ++cursor;
        if (slots[static_cast<size_t>(id)] > 0) {
          slots[static_cast<size_t>(id)]--;
          decision->machine_of_instance[static_cast<size_t>(i)] = id;
          break;
        }
        ++scanned;
      }
      if (decision->machine_of_instance[static_cast<size_t>(i)] < 0) {
        return false;  // slot accounting says infeasible after all
      }
      decision->theta_of_instance[static_cast<size_t>(i)] = theta;
    }
  }
  return true;
}

}  // namespace

StageDecision RunMooBaseline(const SchedulingContext& context,
                             const MooBaselineOptions& options) {
  Stopwatch timer;
  StageDecision decision;
  FGRO_CHECK(context.model != nullptr);

  BaselineProblem problem;
  if (!BuildProblem(context, options.ipa_placement, &problem)) {
    decision.solve_seconds = timer.ElapsedSeconds();
    return decision;
  }

  MooProblem moo;
  moo.num_vars = problem.num_vars();
  moo.num_objectives = 2;
  const double grid_max = static_cast<double>(problem.grid.size()) - 1;
  const double mach_max =
      static_cast<double>(problem.mach_clusters.size()) - 1;
  moo.sample_var = [&](int var, Rng* rng) {
    bool is_theta = problem.plan_b() || (var % 2 == 1);
    return is_theta ? static_cast<double>(rng->UniformInt(
                          0, static_cast<int64_t>(grid_max)))
                    : static_cast<double>(rng->UniformInt(
                          0, static_cast<int64_t>(mach_max)));
  };
  moo.evaluate = [&](const Vec& genome) { return problem.Evaluate(genome); };

  std::vector<Vec> genomes;
  std::vector<std::vector<double>> fronts;
  const double budget =
      std::max(1.0, options.time_limit_seconds - problem.ipa_seconds);
  switch (options.kind) {
    case MooBaselineKind::kEvo: {
      Nsga2Result res = RunNsga2(
          moo, {.population = options.evo_population,
                .generations = options.evo_generations,
                .time_limit_seconds = budget,
                .seed = options.seed});
      genomes = std::move(res.genomes);
      fronts = std::move(res.objectives);
      break;
    }
    case MooBaselineKind::kWsSample: {
      WsSampleResult res = RunWeightedSumSampling(
          moo, {.num_samples = options.ws_samples,
                .time_limit_seconds = budget,
                .seed = options.seed});
      genomes = std::move(res.genomes);
      fronts = std::move(res.objectives);
      break;
    }
    case MooBaselineKind::kPfMogd: {
      // Epsilon-constraint sweep solved by finite-difference gradient
      // descent on the continuous relaxation; MOGD rounds inside Evaluate.
      Vec lower(static_cast<size_t>(moo.num_vars), 0.0);
      Vec upper(static_cast<size_t>(moo.num_vars));
      for (int v = 0; v < moo.num_vars; ++v) {
        bool is_theta = problem.plan_b() || (v % 2 == 1);
        upper[static_cast<size_t>(v)] = is_theta ? grid_max : mach_max;
      }
      Rng rng(options.seed);
      // Probe the latency range with random feasible-ish points.
      double lat_lo = std::numeric_limits<double>::infinity(), lat_hi = 0.0;
      for (int probe = 0; probe < 16; ++probe) {
        Vec g(static_cast<size_t>(moo.num_vars));
        for (int v = 0; v < moo.num_vars; ++v) {
          g[static_cast<size_t>(v)] = moo.sample_var(v, &rng);
        }
        MooEvaluation e = problem.Evaluate(g);
        lat_lo = std::min(lat_lo, e.objectives[0]);
        lat_hi = std::max(lat_hi, e.objectives[0]);
      }
      for (int level = 0; level < options.pf_levels; ++level) {
        if (timer.ElapsedSeconds() > budget) break;
        double eps = lat_lo + (lat_hi - lat_lo) * level /
                                  std::max(1, options.pf_levels - 1);
        auto scalarized = [&](const Vec& g) {
          MooEvaluation e = problem.Evaluate(g);
          double penalty = 1e6 * e.violation +
                           1e3 * std::max(0.0, e.objectives[0] - eps);
          return e.objectives[1] + penalty;
        };
        Vec x0(static_cast<size_t>(moo.num_vars));
        for (int v = 0; v < moo.num_vars; ++v) {
          x0[static_cast<size_t>(v)] = moo.sample_var(v, &rng);
        }
        Vec best = MinimizeFiniteDiff(
            scalarized, x0, lower, upper,
            {.iterations = 25, .restarts = 2, .seed = options.seed + level});
        MooEvaluation e = problem.Evaluate(best);
        if (e.feasible()) {
          genomes.push_back(std::move(best));
          fronts.push_back(e.objectives);
        }
      }
      break;
    }
  }

  decision.solve_seconds = timer.ElapsedSeconds() + problem.ipa_seconds;
  if (genomes.empty()) return decision;  // coverage failure

  std::vector<int> pareto = ParetoFilter(fronts);
  std::vector<std::vector<double>> pareto_front;
  for (int idx : pareto) pareto_front.push_back(fronts[static_cast<size_t>(idx)]);
  int pick = WeightedUtopiaNearest(pareto_front);
  if (pick < 0) return decision;  // no finite frontier point
  const Vec& genome = genomes[static_cast<size_t>(pareto[static_cast<size_t>(pick)])];

  std::vector<int> mach_of_cluster, theta_of_cluster;
  problem.Decode(genome, &mach_of_cluster, &theta_of_cluster);
  if (!Expand(problem, mach_of_cluster, theta_of_cluster, &decision)) {
    return decision;
  }
  decision.feasible = true;
  decision.solve_seconds = timer.ElapsedSeconds() + problem.ipa_seconds;
  return decision;
}

}  // namespace fgro
