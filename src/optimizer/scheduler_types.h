#ifndef FGRO_OPTIMIZER_SCHEDULER_TYPES_H_
#define FGRO_OPTIMIZER_SCHEDULER_TYPES_H_

#include <vector>

#include "cluster/cluster.h"
#include "cluster/resource.h"
#include "common/deadline.h"
#include "model/latency_model.h"
#include "obs/obs.h"
#include "plan/stage.h"

namespace fgro {

class ThreadPool;
class FrontierCache;

/// Everything a scheduler needs to decide one stage: the stage itself, the
/// current cluster view, the fine-grained model (null for the model-free
/// Fuxi baseline), and HBO's default resource plan theta0.
struct SchedulingContext {
  const Stage* stage = nullptr;
  const Cluster* cluster = nullptr;
  const LatencyModel* model = nullptr;
  ResourceConfig theta0;
  CostWeights cost_weights;
  /// False while the model server is in an outage window: model-dependent
  /// schedulers must degrade rather than dereference `model`.
  bool model_available = true;
  /// RO budget a degrading scheduler should respect (the simulator's
  /// per-stage coverage cutoff).
  double ro_time_limit_seconds = 60.0;
  /// Propagated solve deadline. Infinite by default; StageOptimizer arms it
  /// from ro_time_limit_seconds when the degradation ladder is on, and
  /// IPA/RAA check it at solver-iteration granularity, aborting early so
  /// the fallback rung still has budget to run. Callers may pre-arm it
  /// (e.g. with an injected test clock) and the solvers honor theirs.
  Deadline deadline;
  /// False when the serving layer demotes a request one rung: placement
  /// (IPA) still runs, but RAA is skipped and every instance gets theta0,
  /// i.e. the decision lands on FallbackLevel::kTheta0 directly. Cheaper
  /// than the primary path, better than Fuxi; RoService clears it for
  /// requests CoDel pins to its theta0 rung under sustained overload.
  bool raa_allowed = true;
  /// Diverse-placement cap: max instances per machine. 0 = auto
  /// (2 * ceil(m / available machines), always >= ceil(m/n) as required).
  int alpha = 0;
  /// Discretization degree for machine clustering (Expt 4 couples this to
  /// model accuracy).
  int discretization_degree = 4;
  /// Observability hookup (metrics + tracer), default-disabled. The
  /// simulator copies SimOptions::obs here per stage; schedulers record
  /// phase timings and spans through it but never read it back — metrics
  /// cannot influence a decision, which is what keeps instrumented replays
  /// byte-identical to uninstrumented ones.
  obs::Obs obs;
  /// Span id the scheduler should parent its decision span under (-1 =
  /// root). Set by the simulator's per-stage span.
  int trace_parent = -1;
  /// Optional prediction memo shared across stages (caller-owned, thread-
  /// safe; must be cleared whenever the model is retrained). Null = no
  /// memoization. Hits return exactly the value the model would compute,
  /// so replays stay byte-identical whatever the hit pattern.
  PredictionMemo* memo = nullptr;
  /// Frontier compression (DESIGN.md §16): RAA builds one Pareto-frontier
  /// template per (instance cluster, machine bucket) from the cluster's
  /// canonical representative and instantiates each group's decision from
  /// it with a bounded correction pass (RaaOptions::correction_top_k). On
  /// by default; off runs the uncompressed per-group solve, which is
  /// bit-identical to the legacy path and remains the quality oracle.
  bool frontier_compression = true;
  /// Optional frontier-template cache shared across stages and epochs
  /// (caller-owned, thread-safe). Keys are content-based — cluster
  /// signature, DiscretizeState bits, theta-grid hash, params_tag — so the
  /// cache survives shard/reconfig views that renumber instance indices,
  /// and a model hot-swap can never serve a stale template. Null with
  /// compression on = a solve-local cache (templates still shared within
  /// the solve, no cross-stage reuse).
  FrontierCache* frontier_cache = nullptr;
  /// Optional worker pool for RAA's per-group frontier fan-out
  /// (caller-owned). Null = serial. Per-group results land in per-group
  /// slots and merge in group order, so the outcome is byte-identical
  /// across any thread count.
  ThreadPool* worker_pool = nullptr;
  /// Decision epoch the caller is solving under (reconfiguration): stamped
  /// onto the StageDecision so the dispatcher can drop decisions superseded
  /// by a drift alarm or machine transition that bumped the epoch after the
  /// solve started. 0 when reconfiguration is off.
  long epoch = 0;
  /// Model epoch (ModelRegistry::model_epoch) of the model this solve uses:
  /// stamped onto the StageDecision so a decision solved under a since-
  /// superseded (promoted or rolled-back) model version is identifiable.
  /// 0 when the model lifecycle is off.
  long model_epoch = 0;
  /// Optional partial re-entry (reconfiguration): solve only these instance
  /// indices of `stage` (ascending, caller-owned). StageOptimizer builds a
  /// reduced stage view and returns a decision sized to the subset, row r
  /// deciding instance (*instance_subset)[r]. Null (default) = whole stage.
  const std::vector<int>* instance_subset = nullptr;
  /// POP-style sharded solve (DESIGN.md §15): partition machines and
  /// instances into this many subproblems via MixSeed(shard_seed, id),
  /// solve each independently on the shard's machines only, and merge with
  /// a deterministic shard-ordered reconciliation pass. 1 (default) runs
  /// the exact legacy whole-fleet solve, which remains the quality oracle.
  int shard_count = 1;
  /// Seed of the MixSeed-derived shard assignment. Decisions are
  /// reproducible for any fixed (shard_seed, shard_count) and byte-identical
  /// across thread counts — the assignment is a pure function of the seed
  /// and the (deterministic) entity descriptors at solve time, never of
  /// thread count or iteration order.
  uint64_t shard_seed = 0x706f70;  // "pop"
  /// Base cap on instances RefineMergedDecision() may re-place against the
  /// whole fleet after a sharded merge (stage latency is max over
  /// instances, so a handful of critical instances recover most of the
  /// partition's quality loss). The spent budget is
  /// EffectiveRefineBudget(): max(this, m/16), growing with stage width.
  /// 0 disables refinement, keeping every placement strictly in-shard.
  /// Costs O(m + budget * n) extra predictions per decision.
  int shard_refine_budget = 8;
  /// Shard view restriction (set by the sharded orchestrator, or by tests):
  /// machine ids (ascending, caller-owned) a solver may place onto. Null
  /// (default) = the whole fleet. Every solver enumerates candidates
  /// through CandidateMachines() in sharding.h, which honors this.
  const std::vector<int>* machine_subset = nullptr;
};

/// How far down the degradation ladder a decision came from.
/// kPrimary: the configured optimizer succeeded. kTheta0: placement held
/// but RAA failed or blew its budget, so every instance runs HBO's theta0.
/// kFuxi: the model was unavailable (or placement infeasible) and the
/// model-free Fuxi baseline decided the stage.
enum class FallbackLevel { kPrimary = 0, kTheta0 = 1, kFuxi = 2 };

inline const char* FallbackLevelName(FallbackLevel level) {
  switch (level) {
    case FallbackLevel::kPrimary: return "primary";
    case FallbackLevel::kTheta0: return "theta0";
    case FallbackLevel::kFuxi: return "fuxi";
  }
  return "unknown";
}

/// The output of any scheduler: the placement plan (machine per instance)
/// and the resource plan (theta per instance).
struct StageDecision {
  bool feasible = false;
  std::vector<int> machine_of_instance;
  std::vector<ResourceConfig> theta_of_instance;
  double solve_seconds = 0.0;
  FallbackLevel fallback = FallbackLevel::kPrimary;
  /// Epoch the decision was solved under (copied from the context). The
  /// reconfiguration dispatcher refuses to dispatch a decision whose epoch
  /// a trigger event has since superseded.
  long epoch = 0;
  /// Model epoch the decision was solved under (copied from the context);
  /// see SchedulingContext::model_epoch.
  long model_epoch = 0;
};

/// Per-machine instance capacity under theta0:
/// beta_j = min(floor(free cores / theta0.cores),
///              floor(free mem / theta0.mem), alpha).
int InstanceCapacity(const Machine& machine, const ResourceConfig& theta0,
                     int alpha);

/// Resolves alpha = 0 to the auto value for m instances on n machines.
int ResolveAlpha(int alpha, int num_instances, int num_machines);

}  // namespace fgro

#endif  // FGRO_OPTIMIZER_SCHEDULER_TYPES_H_
