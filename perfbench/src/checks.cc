#include "checks.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "hbo/hbo.h"
#include "optimizer/sharding.h"

namespace fgro::perfbench {
namespace {

int InstancesOf(const SchedulingContext& context) {
  return context.instance_subset != nullptr
             ? static_cast<int>(context.instance_subset->size())
             : context.stage->instance_count();
}

bool InCatalog(const ResourceConfig& theta) {
  for (const ResourceConfig& c : Hbo::ResourcePlanCatalog()) {
    if (c == theta) return true;
  }
  return false;
}

}  // namespace

std::string CheckDecision(const SchedulingContext& context,
                          const StageDecision& decision) {
  const Cluster& cluster = *context.cluster;
  const int m = InstancesOf(context);
  if (!decision.feasible) return "infeasible decision";
  if (static_cast<int>(decision.machine_of_instance.size()) != m ||
      static_cast<int>(decision.theta_of_instance.size()) != m) {
    return "decision size does not match the stage";
  }
  struct Booked {
    int instances = 0;
    double cores = 0.0;
    double memory_gb = 0.0;
  };
  std::vector<Booked> booked(static_cast<size_t>(cluster.size()));
  for (int i = 0; i < m; ++i) {
    const int id = decision.machine_of_instance[static_cast<size_t>(i)];
    if (id < 0 || id >= cluster.size()) return "machine outside the fleet";
    if (context.machine_subset != nullptr &&
        !std::binary_search(context.machine_subset->begin(),
                            context.machine_subset->end(), id)) {
      return "machine outside the shard's subset";
    }
    if (!cluster.machine(id).up()) return "instance placed on a down machine";
    const ResourceConfig& theta =
        decision.theta_of_instance[static_cast<size_t>(i)];
    if (!InCatalog(theta)) return "theta outside the plan catalog";
    Booked& b = booked[static_cast<size_t>(id)];
    b.instances++;
    b.cores += theta.cores;
    b.memory_gb += theta.memory_gb;
  }
  const int alpha =
      ResolveAlpha(context.alpha, m,
                   static_cast<int>(CandidateMachines(context).size()));
  const int cap = EffectiveShardCount(context) > 1 ? 2 * alpha : alpha;
  for (int id = 0; id < cluster.size(); ++id) {
    const Booked& b = booked[static_cast<size_t>(id)];
    if (b.instances == 0) continue;
    const Machine& machine = cluster.machine(id);
    if (b.cores > machine.available_cores() + 1e-9 ||
        b.memory_gb > machine.available_memory_gb() + 1e-9) {
      return "machine over its free capacity";
    }
    if (b.instances > cap) {
      return "instances per machine above the alpha cap";
    }
  }
  return "";
}

bool SameDecision(const StageDecision& a, const StageDecision& b) {
  if (a.feasible != b.feasible || a.fallback != b.fallback ||
      a.machine_of_instance != b.machine_of_instance ||
      a.theta_of_instance.size() != b.theta_of_instance.size()) {
    return false;
  }
  return a.theta_of_instance.empty() ||
         std::memcmp(a.theta_of_instance.data(), b.theta_of_instance.data(),
                     a.theta_of_instance.size() * sizeof(ResourceConfig)) ==
             0;
}

PlanQuality ExpectedPlanQuality(const GroundTruthEnv& env,
                                const SchedulingContext& context,
                                const StageDecision& decision) {
  PlanQuality q;
  const int m = InstancesOf(context);
  for (int r = 0; r < m; ++r) {
    const int instance =
        context.instance_subset != nullptr
            ? (*context.instance_subset)[static_cast<size_t>(r)]
            : r;
    const ResourceConfig& theta =
        decision.theta_of_instance[static_cast<size_t>(r)];
    const double latency =
        env.ExpectedLatency(
               *context.stage, instance,
               context.cluster->machine(
                   decision.machine_of_instance[static_cast<size_t>(r)]),
               theta)
            .total;
    q.latency_s = std::max(q.latency_s, latency);
    q.cost += env.InstanceCost(latency, theta);
  }
  return q;
}

}  // namespace fgro::perfbench
