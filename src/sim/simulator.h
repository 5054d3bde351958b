#ifndef FGRO_SIM_SIMULATOR_H_
#define FGRO_SIM_SIMULATOR_H_

#include <functional>
#include <vector>

#include "cluster/cluster.h"
#include "common/status.h"
#include "env/ground_truth.h"
#include "hbo/hbo.h"
#include "model/drift_watchdog.h"
#include "model/gpr.h"
#include "model/latency_model.h"
#include "model/model_registry.h"
#include "obs/obs.h"
#include "optimizer/scheduler_types.h"
#include "reconfig/reconfiguration_engine.h"
#include "sim/fault_injector.h"
#include "trace/workload_gen.h"

namespace fgro {

/// How "actual" instance latency is determined after a scheduling decision
/// (Expt 11's noise-free vs noisy settings).
enum class OutcomeMode {
  kNoiseFree,    // predicted latency is the true latency
  kGprNoise,     // actual ~ GPR(predicted), sampled within mu +/- 3 sigma
  kEnvironment,  // actual sampled from the hidden ground-truth environment
};

struct SimOptions {
  ClusterOptions cluster;
  OutcomeMode outcome = OutcomeMode::kEnvironment;
  const GprNoiseModel* gpr = nullptr;  // required for kGprNoise
  double ro_time_limit_seconds = 60.0; // coverage cutoff per stage
  /// Fault model for this replay. Disabled (the default) replays the exact
  /// happy path, bit-identical to a build without fault injection.
  FaultOptions faults;
  /// Online drift watchdog: compares the model's predicted instance latency
  /// against the simulated actual, per hardware type, and demotes the
  /// scheduler down the fallback ladder while the rolling q-error window is
  /// in alarm. Disabled by default (zero overhead on the happy path).
  DriftWatchdogOptions drift_watchdog;
  /// Deterministic drift pulse: actual latencies are multiplied by
  /// `drift_multiplier` while sim time is inside
  /// [drift_start_seconds, drift_end_seconds). 1.0 (default) is a no-op;
  /// the drift bench uses this to force the watchdog through a
  /// demote -> recover -> re-promote cycle.
  double drift_multiplier = 1.0;
  double drift_start_seconds = 0.0;
  double drift_end_seconds = 0.0;
  /// Online reconfiguration of in-flight work (drift-alarm / machine-event
  /// re-planning, straggler migration, incremental model update). Disabled
  /// by default: the engine is never constructed and the replay is
  /// byte-identical to builds without the reconfig subsystem.
  ReconfigOptions reconfig;
  /// Safe model lifecycle: versioned registry + gated promotion (static
  /// validation, shadow canary, probation rollback) for every model update
  /// — scheduled retrains inside the replay and reconfig fine-tunes alike.
  /// Disabled by default: no registry is built and the replay is
  /// byte-identical to builds without the lifecycle subsystem. Enabled,
  /// the replay state owns one ModelLifecycle per ReplayState (per job in
  /// service mode), seeded MixSeed(seed, lifecycle.seed).
  ModelLifecycleOptions lifecycle;
  /// Concurrent multi-job service mode (consumed by RoService, not by the
  /// sequential Run/RunJobs path): number of worker threads replaying jobs
  /// as independent requests via ReplayJobIsolated. Each job gets its own
  /// cluster view and a private RNG stream seeded MixSeed(seed, job_idx),
  /// so the merged result is byte-identical across thread counts. 0 keeps
  /// the classic sequential shared-cluster replay.
  int service_threads = 0;
  /// Observability hookup, default-disabled. When wired, the replay loop
  /// emits sim.job / sim.stage spans, the sim.* counters and
  /// stage-solve-time histogram, and forwards the hookup to the scheduler
  /// via SchedulingContext::obs. Metrics never feed back into the replay:
  /// outcomes are byte-identical with or without this set (the PR 3
  /// determinism guarantee), and both registry and tracer are internally
  /// synchronized so concurrent service workers may share them.
  obs::Obs obs;
  /// Optional prediction memo shared across stages (caller-owned; clear it
  /// whenever the model is retrained). Null = no memoization.
  PredictionMemo* memo = nullptr;
  /// Frontier compression (DESIGN.md §16), forwarded to every stage's
  /// SchedulingContext. On by default; replays are byte-identical across
  /// thread counts and cache warmth either way (every cached template is a
  /// pure function of its key), and `frontier_compression = false` restores
  /// the uncompressed legacy solve bit-for-bit.
  bool frontier_compression = true;
  /// Optional frontier-template cache shared across stages, epochs and
  /// (in service mode) jobs (caller-owned, thread-safe). Content-based keys
  /// make it safe under reconfig partial re-plans and sharded sub-solves;
  /// model hot-swaps invalidate wholesale via params_tag. Null = each RAA
  /// solve uses a solve-local cache (compression still on, no cross-stage
  /// reuse).
  FrontierCache* frontier_cache = nullptr;
  /// Optional worker pool for the optimizer's parallel fan-outs (RAA group
  /// frontiers, per-instance embedding; caller-owned). Null = serial.
  /// Deterministic merge keeps replays byte-identical across thread counts.
  ThreadPool* worker_pool = nullptr;
  /// POP-style sharded solve (DESIGN.md §15), forwarded to every stage's
  /// SchedulingContext — the reconfiguration engine's partial re-plans
  /// inherit it through the context copy. 1 (default) = the exact legacy
  /// whole-fleet solve; replays at any fixed (shard_seed, shard_count) are
  /// byte-identical across service_threads and repeated runs.
  int shard_count = 1;
  uint64_t shard_seed = 0x706f70;  // "pop"
  uint64_t seed = 5;
};

/// Per-stage result of one replay.
struct StageOutcome {
  int job_idx = 0;
  int stage_idx = 0;
  bool feasible = false;
  int num_instances = 0;
  double stage_latency = 0.0;     // max instance latency (excl. RO time)
  double stage_latency_in = 0.0;  // including RO solve time
  double stage_cost = 0.0;        // sum of latency * (w . theta), incl. waste
  double solve_seconds = 0.0;
  double default_theta_cores = 0.0;  // HBO theta0, for diagnostics
  /// Fault-tolerance accounting (all zero when faults are disabled).
  int retries = 0;             // failed attempts that were re-executed
  int failovers = 0;           // retries that moved to another machine
  int speculative_copies = 0;  // backup copies launched for stragglers
  int speculative_wins = 0;    // copies that beat the original
  int failed_instances = 0;    // instances that exhausted their retry budget
  double wasted_cost = 0.0;    // cost of lost work (part of stage_cost)
  /// Degradation-ladder level the scheduler reported for this stage.
  FallbackLevel fallback = FallbackLevel::kPrimary;
  /// Defensive-layer accounting (all false when breaker/watchdog are off).
  bool model_short_circuited = false;  // breaker refused the model probe
  bool breaker_tripped = false;        // breaker opened on this stage
  bool breaker_recovered = false;      // half-open probe closed it here
  bool drift_demoted = false;          // watchdog alarm forced degradation
  bool drift_alarm_raised = false;     // alarm transitioned on this stage
  /// Reconfiguration accounting (all zero when reconfig is disabled).
  int replans = 0;                // mid-stage partial re-plans swapped in
  int stale_decision_drops = 0;   // decisions dropped for a superseded epoch
  int migrations = 0;             // stragglers migrated to healthier machines
  int migration_wins = 0;         // migrations that beat the original run
  int fine_tunes = 0;             // online model updates during this stage
  /// Model-lifecycle accounting (all zero when the lifecycle is off);
  /// per-stage deltas of the ModelLifecycleStats counters.
  int promotions = 0;             // candidates promoted during this stage
  int rollbacks = 0;              // probation rollbacks during this stage
  int gate_rejects = 0;           // candidates the static gate refused
  int shadow_rejects = 0;         // candidates the shadow window refused
  int lifecycle_retrains = 0;     // scheduled retrains that produced one
  long wasted_decisions = 0;      // decisions invalidated by a rollback
  double wasted_solve_seconds = 0.0;
  /// Serving-accuracy accumulators over the shadow observations of this
  /// stage (active model's |pred - actual| and actual sums); RoSummary
  /// derives the serving WMAPE from them. Zero when neither the watchdog
  /// nor the lifecycle is on.
  double pred_abs_error = 0.0;
  double pred_actual_sum = 0.0;
  std::vector<double> instance_latencies;  // populated when requested
  std::vector<ResourceConfig> instance_thetas;
};

struct SimResult {
  std::vector<StageOutcome> outcomes;
};

/// Replays a workload through the extended-MaxCompute simulator: jobs arrive
/// in trace order, the dependency manager releases stages, the given
/// scheduler decides placement + resources, machines are charged for the
/// stage's containers, and actual latencies are drawn per OutcomeMode.
/// With faults enabled, machines crash and recover on the injector's
/// schedule, instance attempts fail and are retried with exponential
/// backoff on surviving machines, stragglers trigger speculative backup
/// copies, and the model server suffers outages the scheduler must
/// degrade through.
class Simulator {
 public:
  using SchedulerFn = std::function<StageDecision(const SchedulingContext&)>;

  Simulator(const Workload* workload, const LatencyModel* model,
            SimOptions options);

  /// `keep_instance_detail` retains per-instance latencies/thetas in the
  /// outcomes (needed by the diagnostics benches; costs memory).
  Result<SimResult> Run(const SchedulerFn& scheduler,
                        bool keep_instance_detail = false);

  /// Runs only the subset of job indices (for subworkload experiments).
  Result<SimResult> RunJobs(const SchedulerFn& scheduler,
                            const std::vector<int>& job_indices,
                            bool keep_instance_detail = false);

  /// Replays one job in isolation: a fresh cluster view, a private RNG
  /// stream (`seed`), and per-job fault-injector/breaker/watchdog state.
  /// This is the unit of work of the concurrent RO service — the result
  /// depends only on (workload, model, options, job_idx, seed), never on
  /// the calling thread or on what other jobs are in flight. Thread-safe:
  /// concurrent calls share only immutable state (the workload, the
  /// trained model, and this simulator's options).
  /// `allow_reconfig=false` suppresses the reconfiguration engine for this
  /// job even when SimOptions::reconfig.enabled — the service uses it to
  /// keep requests CoDel demoted to the Fuxi level on the cheapest path.
  Result<std::vector<StageOutcome>> ReplayJobIsolated(
      const SchedulerFn& scheduler, int job_idx, uint64_t seed,
      bool keep_instance_detail = false, bool allow_reconfig = true) const;

 private:
  const Workload* workload_;
  const LatencyModel* model_;
  SimOptions options_;
};

}  // namespace fgro

#endif  // FGRO_SIM_SIMULATOR_H_
