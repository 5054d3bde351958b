#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include "common/circuit_breaker.h"
#include "common/logging.h"
#include "common/math_utils.h"
#include "common/rng.h"
#include "featurize/channels.h"
#include "sim/dependency_manager.h"

namespace fgro {

namespace {

/// Per-instance record of the replay of one stage.
struct InstanceRun {
  double completion = 0.0;     // elapsed since stage start, incl. backoff
  double final_run = 0.0;      // runtime of the winning attempt
  int machine = -1;            // machine the winning attempt ran on
  bool succeeded = false;
};

/// Deterministic retry placement: the up machine with the most free cores
/// that fits theta (lowest id breaks ties), excluding `exclude`. -1 when
/// the cluster has nowhere left to put the container.
int PickRetryMachine(const Cluster& cluster, const FaultInjector& injector,
                     const ResourceConfig& theta, double now, int exclude) {
  int best = -1;
  double best_cores = -1.0;
  for (const Machine& m : cluster.machines()) {
    if (m.id() == exclude) continue;
    if (!injector.MachineUp(m.id(), now)) continue;
    if (!(theta.cores <= m.available_cores() + 1e-9 &&
          theta.memory_gb <= m.available_memory_gb() + 1e-9)) {
      continue;
    }
    if (m.available_cores() > best_cores) {
      best_cores = m.available_cores();
      best = m.id();
    }
  }
  return best;
}

/// All mutable state of one replay. The sequential path builds one and
/// threads it through every job (cluster time and breaker/watchdog state
/// span jobs, exactly as before the service refactor); the concurrent
/// service builds a fresh one per job so nothing is shared across workers.
struct ReplayState {
  ReplayState(const SimOptions& options, const Workload& workload,
              const LatencyModel* model, uint64_t seed,
              bool allow_reconfig = true)
      : rng(seed),
        cluster(options.cluster),
        env(workload.profile.env),
        hbo(workload.profile.hbo),
        injector(options.faults, cluster.size()),
        breaker(options.faults.model_breaker),
        watchdog(options.drift_watchdog, kNumHardwareTypes) {
    watchdog.set_obs(options.obs);
    if (options.reconfig.enabled && allow_reconfig) {
      reconfig = std::make_unique<ReconfigurationEngine>(
          options.reconfig, model, &workload,
          MixSeed(seed, options.reconfig.seed), options.obs);
    }
    if (options.lifecycle.enabled && model != nullptr && model->trained()) {
      // The initial registry version aliases the caller-owned base model
      // (no-op deleter): the lifecycle never outlives the replay, and the
      // base model must stay the rollback target of the first promotion.
      lifecycle = std::make_unique<ModelLifecycle>(
          options.lifecycle,
          std::shared_ptr<const LatencyModel>(model,
                                              [](const LatencyModel*) {}),
          &workload, MixSeed(seed, options.lifecycle.seed), options.obs);
      if (reconfig != nullptr) reconfig->AttachLifecycle(lifecycle.get());
    }
  }

  Rng rng;
  Cluster cluster;
  GroundTruthEnv env;
  Hbo hbo;
  FaultInjector injector;
  CircuitBreaker breaker;
  DriftWatchdog watchdog;
  /// Null unless SimOptions::reconfig.enabled (and the caller allowed it):
  /// the replay then repairs in-flight work instead of only degrading.
  std::unique_ptr<ReconfigurationEngine> reconfig;
  /// Null unless SimOptions::lifecycle.enabled with a trained base model:
  /// model updates then flow through the gated promotion pipeline and the
  /// replay can roll a bad promotion back.
  std::unique_ptr<ModelLifecycle> lifecycle;
};

/// One job's replay: its inputs, the ReplayState it mutates, and the
/// switches derived from both once per job.
struct JobReplay {
  const LatencyModel* model;
  const SimOptions& options;
  ReplayState& st;
  int job_idx;
  const Simulator::SchedulerFn& scheduler;
  bool keep_instance_detail;
  ReconfigurationEngine* engine = st.reconfig.get();
  ModelLifecycle* lifecycle = st.lifecycle.get();
  bool faults = st.injector.active();
  // Breaker over the model-server probe: only consulted when faults are on
  // AND the breaker is enabled, so the oracle probe path is untouched by
  // default.
  bool use_breaker = faults && options.faults.model_breaker.enabled;
  // Shadow-compare predictions against simulated actuals: the drift
  // watchdog and the model lifecycle ride the same per-completion hook, so
  // either being on enables it.
  bool shadow = (st.watchdog.enabled() || lifecycle != nullptr) &&
                model != nullptr && model->trained();
  // Liveness oracle handed to the engine (keeps fgro_reconfig below sim in
  // the layer graph; the injector cannot be linked from there).
  ReconfigurationEngine::MachineUpFn up_fn =
      [injector = &st.injector](int id, double t) {
        return injector->MachineUp(id, t);
      };
};

/// One stage of a job, from its decision to its outcome. Each phase below
/// owns the outcome fields it writes.
struct StageRun {
  StageRun(const Stage& stage_in, int stage_idx)
      : stage(stage_in), s(stage_idx) {}

  const Stage& stage;
  const int s;
  SchedulingContext context;
  StageOutcome outcome;
  /// Whether the model *server* is reachable, independent of drift trust —
  /// re-plans must not resurrect a model the breaker took away.
  bool model_server_up = true;
  long tunes_before = 0;
  long alarms_before = 0;
  ModelLifecycleStats lc_before;

  double stage_start = 0.0;
  double solve_total = 0.0;
  /// Per-instance assignment, charged on the machines for the whole stage;
  /// a re-plan re-points (and re-charges) the undispatched tail.
  std::vector<int> assign_machine;
  std::vector<ResourceConfig> assign_theta;
  std::vector<double> start_offset;  // dispatch time since stage start
  std::vector<InstanceRun> runs;
  /// Extra allocations made by failovers and migrations, released at
  /// stage end.
  std::vector<std::pair<int, ResourceConfig>> extra_allocs;
  /// Completed (post-rescue) run durations so far this stage; the running
  /// median is the self-normalizing straggler anchor. Engine only.
  std::vector<double> completed_runs;
  std::vector<double> median_scratch;
  int replans_done = 0;
  int migrations_done = 0;
};

/// One "actual" latency draw for an attempt of instance i on a machine.
/// A deterministic drift pulse scales it while sim time is inside the
/// pulse window; the 1.0 fast path keeps the default replay bit-identical.
Result<double> SampleActual(JobReplay& job, const Stage& stage, int i,
                            const Machine& machine,
                            const ResourceConfig& theta) {
  const SimOptions& options = job.options;
  double actual = 0.0;
  if (options.outcome == OutcomeMode::kEnvironment) {
    actual = job.st.env.SampleLatency(stage, i, machine, theta, &job.st.rng);
  } else {
    FGRO_ASSIGN_OR_RETURN(actual, job.model->Predict(stage, i, theta,
                                                     machine.state(),
                                                     machine.hardware().id));
    if (options.outcome == OutcomeMode::kGprNoise) {
      actual = options.gpr->Sample(actual, &job.st.rng);
    }
  }
  if (options.drift_multiplier == 1.0) return actual;
  const double now = job.st.cluster.now();
  if (now >= options.drift_start_seconds && now < options.drift_end_seconds) {
    return actual * options.drift_multiplier;
  }
  return actual;
}

/// Context, HBO theta0 and the outcome's identity fields of one stage.
void BeginStage(JobReplay& job, StageRun& sr, int trace_parent) {
  const SimOptions& options = job.options;
  const HboRecommendation rec = job.st.hbo.Recommend(sr.stage);
  SchedulingContext& context = sr.context;
  context.stage = &sr.stage;
  context.cluster = &job.st.cluster;
  context.model = job.model;
  context.theta0 = rec.theta0;
  context.ro_time_limit_seconds = options.ro_time_limit_seconds;
  context.obs = options.obs;
  context.trace_parent = trace_parent;
  context.memo = options.memo;
  context.frontier_compression = options.frontier_compression;
  context.frontier_cache = options.frontier_cache;
  context.worker_pool = options.worker_pool;
  context.shard_count = options.shard_count;
  context.shard_seed = options.shard_seed;

  sr.outcome.job_idx = job.job_idx;
  sr.outcome.stage_idx = sr.s;
  sr.outcome.num_instances = sr.stage.instance_count();
  sr.outcome.default_theta_cores = rec.theta0.cores;
}

/// The model gate in front of the solve: the model-server probe (through
/// the breaker when enabled), pending lifecycle rollbacks, the engine's
/// pre-solve fine-tune, and drift demotion while the watchdog is alarmed.
void GateModel(JobReplay& job, StageRun& sr) {
  ReplayState& st = job.st;
  SchedulingContext& context = sr.context;
  StageOutcome& outcome = sr.outcome;
  if (job.use_breaker) {
    // Breaker-gated probe: while open, stages skip the probe entirely
    // (short circuit) and degrade immediately; a half-open probe after the
    // cooldown decides recovery vs. re-trip.
    const double now = st.cluster.now();
    if (!st.breaker.AllowRequest(now)) {
      context.model_available = false;
      outcome.model_short_circuited = true;
    } else {
      const long trips_before = st.breaker.trips();
      const long recoveries_before = st.breaker.recoveries();
      const bool up = st.injector.ModelAvailable(now);
      if (up) {
        st.breaker.RecordSuccess(now);
      } else {
        st.breaker.RecordFailure(now);
      }
      context.model_available = up;
      outcome.breaker_tripped = st.breaker.trips() > trips_before;
      outcome.breaker_recovered = st.breaker.recoveries() > recoveries_before;
    }
  } else if (job.faults) {
    context.model_available = st.injector.ModelAvailable(st.cluster.now());
  }
  sr.model_server_up = context.model_available;

  ReconfigurationEngine* engine = job.engine;
  ModelLifecycle* lifecycle = job.lifecycle;
  if (engine != nullptr) sr.tunes_before = engine->stats().fine_tunes;
  if (lifecycle != nullptr) {
    sr.lc_before = lifecycle->stats();
    // A probation rollback pending from an alarm the last stage raised
    // supersedes any in-flight epoch before this solve starts.
    if (lifecycle->NoteDriftAlarms(st.watchdog.alarms_raised()) &&
        engine != nullptr) {
      engine->BumpEpoch();
    }
  }
  if (engine != nullptr) {
    // Alarms raised since the last look supersede the epoch; an alarm is
    // also the cue to fine-tune on the replay buffer, ideally before this
    // stage's decision so the repaired model can serve it.
    engine->NoteDriftAlarms(st.watchdog.alarms_raised());
    if (st.watchdog.enabled() && st.watchdog.alarmed()) {
      engine->MaybeFineTune();
    }
    // The prediction memo keys on the scoring model's params_tag, so a
    // tuned or hot-swapped model reads only its own entries.
    context.model = engine->active_model();
    context.epoch = engine->current_epoch();
  } else if (lifecycle != nullptr) {
    context.model = lifecycle->active_model();
  }
  if (lifecycle != nullptr) context.model_epoch = lifecycle->model_epoch();
  const bool model_trusted =
      engine != nullptr ? engine->ModelTrusted()
                        : (lifecycle != nullptr && lifecycle->InProbation());
  if (st.watchdog.enabled() && st.watchdog.alarmed() && !model_trusted) {
    // Drift demotion: the model is reachable but untrustworthy; the ladder
    // treats it like an outage. Shadow evaluation continues, so the window
    // can recover and re-promote. A fresh fine-tune buys a trust window —
    // or, under the lifecycle, a fresh promotion's probation window — that
    // overrides the alarm until the q-error window catches up (or a new
    // alarm revokes it).
    context.model_available = false;
    outcome.drift_demoted = true;
  }
  sr.alarms_before = st.watchdog.alarms_raised();
}

/// Solves the stage, dropping and re-solving a decision whose epoch a
/// machine crash inside the dispatch hazard window superseded. Writes the
/// outcome's solve time, rung and feasibility.
StageDecision DecideStage(JobReplay& job, StageRun& sr) {
  ReplayState& st = job.st;
  ReconfigurationEngine* engine = job.engine;
  StageDecision decision = job.scheduler(sr.context);
  if (job.lifecycle != nullptr) {
    job.lifecycle->NoteDecision(decision.solve_seconds);
  }
  if (engine != nullptr && job.faults && decision.feasible &&
      engine->options().replan_on_machine_event &&
      engine->options().dispatch_hazard_seconds > 0.0) {
    // Stale-decision hazard: a machine assigned by this decision crashes
    // within the (fixed, sim-time) dispatch hazard window — the event
    // supersedes the decision's epoch, so it is dropped undispatched and
    // re-solved against the projected liveness.
    const double hazard = engine->options().dispatch_hazard_seconds;
    bool superseded = false;
    for (int i = 0; i < sr.stage.instance_count() && !superseded; ++i) {
      double crash_at = 0.0;
      superseded = st.injector.MachineCrashesWithin(
          decision.machine_of_instance[static_cast<size_t>(i)],
          st.cluster.now(), hazard, &crash_at);
    }
    if (superseded) engine->BumpEpoch();
    if (engine->DecisionIsStale(decision.epoch)) {
      engine->CountStaleDrop();
      ++sr.outcome.stale_decision_drops;
      const double spent = decision.solve_seconds;
      engine->NoteMachineLiveness(&st.cluster, job.up_fn,
                                  st.cluster.now() + hazard);
      sr.context.epoch = engine->current_epoch();
      decision = job.scheduler(sr.context);
      decision.solve_seconds += spent;
    }
  }
  sr.outcome.solve_seconds = decision.solve_seconds;
  sr.outcome.fallback = decision.fallback;
  if (obs::MetricsRegistry* metrics = job.options.obs.metrics) {
    metrics->GetCounter("sim.stages_replayed")->Increment();
    metrics->GetLatencyHistogram("sim.stage_solve_seconds")
        ->Observe(decision.solve_seconds);
    if (!decision.feasible) {
      metrics->GetCounter("sim.stages_infeasible")->Increment();
    }
  }
  // A degraded decision already paid its (abandoned) primary solve time;
  // what matters is that the fallback itself is usable.
  sr.outcome.feasible =
      decision.feasible &&
      (decision.solve_seconds <= job.options.ro_time_limit_seconds ||
       decision.fallback != FallbackLevel::kPrimary);
  return decision;
}

/// Runs instance i from its dispatch offset until an attempt succeeds or
/// the retry budget runs out. Attempts fail (injected failures, machine
/// crashes, a machine already down at dispatch) and are retried with
/// backoff, in place for a transient failure or failed over to another up
/// machine when the current one is gone; the lost work of every failed
/// attempt is wasted cost. With the injector inactive every attempt
/// succeeds, so a fault-free instance is exactly one outcome draw.
Status RunAttempts(JobReplay& job, StageRun& sr, int i) {
  ReplayState& st = job.st;
  const FaultInjector& injector = st.injector;
  const RetryPolicy& policy = job.options.faults.retry;
  const ResourceConfig theta = sr.assign_theta[static_cast<size_t>(i)];
  StageOutcome& outcome = sr.outcome;
  InstanceRun& run = sr.runs[static_cast<size_t>(i)];
  run.machine = sr.assign_machine[static_cast<size_t>(i)];
  double t = sr.start_offset[static_cast<size_t>(i)];
  for (int attempt = 1;; ++attempt) {
    double ran = 0.0;     // work lost by this attempt
    bool gone = true;     // the attempt's machine is down: fail over
    Status failure;
    if (!injector.MachineUp(run.machine, sr.stage_start + t)) {
      // Machine already down at dispatch (e.g. it crashed between a
      // re-plan and this launch): nothing ran, nothing is wasted.
      failure = Status::Unavailable("machine down at dispatch");
    } else {
      const Machine& machine = st.cluster.machine(run.machine);
      FGRO_ASSIGN_OR_RETURN(double drawn,
                            SampleActual(job, sr.stage, i, machine, theta));
      const double nominal =
          drawn * injector.StragglerMultiplier(job.job_idx, sr.s, i, attempt);
      double crash_at = 0.0;
      const bool machine_crash = injector.MachineCrashesWithin(
          run.machine, sr.stage_start + t, nominal, &crash_at);
      const bool inst_fail =
          injector.InstanceFails(job.job_idx, sr.s, i, attempt);
      if (!machine_crash && !inst_fail) {
        run.final_run = nominal;
        run.completion = t + nominal;
        run.succeeded = true;
        return Status::OK();
      }
      // Work lost at the earlier of the two failure sources.
      ran = nominal;
      if (inst_fail) {
        ran = injector.FailurePointFraction(job.job_idx, sr.s, i, attempt) *
              nominal;
      }
      if (machine_crash) ran = std::min(ran, crash_at - (sr.stage_start + t));
      ran = std::max(0.0, ran);
      outcome.wasted_cost += ran * sr.context.cost_weights.Rate(theta);
      failure = machine_crash
                    ? Status::Unavailable("machine crashed mid-attempt")
                    : Status::ResourceExhausted("instance attempt failed");
      gone = machine_crash;
    }
    if (!policy.ShouldRetry(failure, attempt)) {
      ++outcome.failed_instances;
      run.completion = t + ran;
      return Status::OK();
    }
    // Jitter stream for this instance's retries: a pure function of (job,
    // stage, instance), so the full-jitter backoff is byte-identical at
    // any thread count yet decorrelated across the instances that failed
    // in the same machine-down epoch.
    const uint64_t retry_stream =
        MixSeed(MixSeed(static_cast<uint64_t>(job.job_idx),
                        static_cast<uint64_t>(sr.s)),
                static_cast<uint64_t>(i));
    t += ran + policy.BackoffSeconds(attempt, retry_stream);
    ++outcome.retries;
    if (!gone && injector.MachineUp(run.machine, sr.stage_start + t)) {
      continue;  // transient container failure: retry in place
    }
    const int next = PickRetryMachine(st.cluster, injector, theta,
                                      sr.stage_start + t, run.machine);
    if (next < 0) {
      ++outcome.failed_instances;
      run.completion = t;
      return Status::OK();
    }
    ++outcome.failovers;
    run.machine = next;
    if (st.cluster.machine(next).Allocate(theta)) {
      sr.extra_allocs.emplace_back(next, theta);
    }
  }
}

/// Straggler migration (engine only): the winning attempt of instance i
/// ran far past a detection anchor, so at the detection point a
/// replacement is launched on the best healthy machine and races the
/// original; the loser is killed the moment the winner finishes and its
/// burned runtime is wasted cost. Detection trips on whichever of two
/// anchors fires first (the race makes over-eager trips cost only waste,
/// while a missed trip costs stage latency):
///  - the active model's per-instance prediction, counted only while the
///    model is trustworthy (no alarm, or a fresh fine-tune inside its trust
///    window) — mid-drift a half-repaired model underpredicts uniformly
///    and would flag every instance;
///  - the running median of this stage's completed runs (once 3 samples
///    exist) — self-normalizing under regime shift, the same property that
///    makes speculative execution key on it, so real stragglers are still
///    rescued while the watchdog is alarmed with no trusted repair.
Status MigrateStraggler(JobReplay& job, StageRun& sr, int i) {
  ReplayState& st = job.st;
  ReconfigurationEngine& engine = *job.engine;
  const ReconfigOptions& ro = engine.options();
  InstanceRun& run = sr.runs[static_cast<size_t>(i)];
  if (!run.succeeded || !ro.migrate_stragglers ||
      sr.migrations_done >= ro.max_migrations_per_stage) {
    return Status::OK();
  }
  const LatencyModel* active = engine.active_model();
  if (active == nullptr || !active->trained()) return Status::OK();
  const ResourceConfig& theta = sr.assign_theta[static_cast<size_t>(i)];
  const double threshold = ro.migration_threshold;
  double anchor = -1.0;  // smallest anchor the run overran
  if (sr.completed_runs.size() >= 3) {
    std::vector<double>& sorted = sr.median_scratch;
    sorted.assign(sr.completed_runs.begin(), sr.completed_runs.end());
    const std::size_t mid = sorted.size() / 2;
    std::nth_element(sorted.begin(), sorted.begin() + mid, sorted.end());
    if (run.final_run > threshold * sorted[mid]) anchor = sorted[mid];
  }
  if (!(st.watchdog.enabled() && st.watchdog.alarmed()) ||
      engine.ModelTrusted()) {
    const Machine& current = st.cluster.machine(run.machine);
    Result<double> pred = active->Predict(sr.stage, i, theta, current.state(),
                                          current.hardware().id);
    if (pred.ok() && pred.value() > 0.0 &&
        run.final_run > threshold * pred.value() &&
        (anchor < 0.0 || pred.value() < anchor)) {
      anchor = pred.value();
    }
  }
  if (!(anchor > 0.0)) return Status::OK();
  const double started = run.completion - run.final_run;
  const double detect_at = started + threshold * anchor;
  const int target =
      engine.PickMigrationTarget(st.cluster, job.up_fn, sr.stage, i, theta,
                                 sr.stage_start + detect_at, run.machine);
  if (target < 0) return Status::OK();
  FGRO_ASSIGN_OR_RETURN(
      double drawn,
      SampleActual(job, sr.stage, i, st.cluster.machine(target), theta));
  // Attempt index 2000: a private straggler-fate stream for migrated runs
  // (speculative copies use 1000).
  const double mig_run =
      drawn * st.injector.StragglerMultiplier(job.job_idx, sr.s, i, 2000);
  const double mig_completion = detect_at + mig_run;
  const double rate = sr.context.cost_weights.Rate(theta);
  ++sr.migrations_done;
  engine.CountMigration();
  ++sr.outcome.migrations;
  // The replacement occupied a real slot whichever way the race went.
  if (st.cluster.machine(target).Allocate(theta)) {
    sr.extra_allocs.emplace_back(target, theta);
  }
  // The original keeps running while the replacement races it; the first
  // to finish wins and the loser is killed at that instant, its whole
  // burned runtime charged as waste. Killing the original at detection
  // instead would gamble the stage tail on the replacement not
  // re-straggling — a lost race must never make the stage slower than
  // doing nothing.
  if (mig_completion < run.completion) {
    engine.CountMigrationWin();
    ++sr.outcome.migration_wins;
    sr.outcome.wasted_cost += std::max(0.0, mig_completion - started) * rate;
    run.machine = target;
    run.final_run = mig_run;
    run.completion = mig_completion;
  } else {
    sr.outcome.wasted_cost += std::max(0.0, run.completion - detect_at) * rate;
  }
  return Status::OK();
}

/// Speculative re-execution (without the engine, after every instance
/// ran): instances lagging far behind the stage median get a backup copy;
/// the first finisher wins, the loser's run is killed and charged as waste.
Status SpeculateStragglers(JobReplay& job, StageRun& sr) {
  ReplayState& st = job.st;
  const FaultOptions& faults = job.options.faults;
  std::vector<double> completions;
  completions.reserve(sr.runs.size());
  for (const InstanceRun& run : sr.runs) {
    if (run.succeeded) completions.push_back(run.completion);
  }
  const double median = Median(completions);
  const double detect_at = faults.speculative_threshold * median;
  if (completions.empty() || !(median > 0.0)) return Status::OK();
  for (int i = 0; i < static_cast<int>(sr.runs.size()); ++i) {
    InstanceRun& run = sr.runs[static_cast<size_t>(i)];
    if (!run.succeeded || run.completion <= detect_at) continue;
    const ResourceConfig& theta = sr.assign_theta[static_cast<size_t>(i)];
    const int copy_machine =
        PickRetryMachine(st.cluster, st.injector, theta,
                         sr.stage_start + detect_at, run.machine);
    if (copy_machine < 0) continue;
    FGRO_ASSIGN_OR_RETURN(
        double drawn, SampleActual(job, sr.stage, i,
                                   st.cluster.machine(copy_machine), theta));
    // The copy gets its own straggler draw on a high attempt index so it
    // never collides with a retry attempt's fate.
    const double copy_run =
        drawn * st.injector.StragglerMultiplier(job.job_idx, sr.s, i, 1000);
    const double copy_completion = detect_at + copy_run;
    const double rate = sr.context.cost_weights.Rate(theta);
    ++sr.outcome.speculative_copies;
    if (copy_completion < run.completion) {
      ++sr.outcome.speculative_wins;
      // Original killed when the copy finishes: everything the final
      // original attempt ran is lost.
      const double original_started = run.completion - run.final_run;
      sr.outcome.wasted_cost +=
          std::max(0.0, copy_completion - original_started) * rate;
      run.final_run = copy_run;
      run.completion = copy_completion;
      run.machine = copy_machine;
    } else {
      // Copy killed when the original finishes.
      sr.outcome.wasted_cost +=
          std::max(0.0, run.completion - detect_at) * rate;
    }
  }
  return Status::OK();
}

/// Observes instance i's winning run; straggler noise is part of the
/// drift signal the watchdog is meant to see. The shadow prediction never
/// fails the replay (a failed predict just skips the observation). Under
/// reconfiguration the shadow uses the engine's active (possibly
/// fine-tuned or promoted) model — that is the whole point of the online
/// update: the repaired model's q-error recovers and the watchdog
/// re-promotes early. The ground-truth draw in SampleActual always stays
/// on the base model, so the tune chases a fixed target. The engine also
/// records the run in its replay buffer and straggler median.
///
/// With the model lifecycle on, this is also its per-completion hook: the
/// observation lands in the lifecycle buffer, the shadow candidate scores
/// it, scheduled retrains fire on it, and a promotion or a probation
/// rollback surfaces here. Either supersedes in-flight decisions, so the
/// engine's epoch is bumped. Returns true when the observation promoted a
/// candidate (the caller may re-plan the undispatched tail with it).
bool ObserveInstance(JobReplay& job, StageRun& sr, int i) {
  ReplayState& st = job.st;
  const InstanceRun& run = sr.runs[static_cast<size_t>(i)];
  if (!run.succeeded) return false;
  const ResourceConfig& theta = sr.assign_theta[static_cast<size_t>(i)];
  const Machine& machine = st.cluster.machine(run.machine);
  const double actual = run.final_run;
  bool promoted = false;
  if (job.shadow) {
    const LatencyModel* shadow_model =
        job.engine != nullptr
            ? job.engine->active_model()
            : (job.lifecycle != nullptr ? job.lifecycle->active_model()
                                        : job.model);
    Result<double> pred = shadow_model->Predict(
        sr.stage, i, theta, machine.state(), machine.hardware().id);
    if (pred.ok()) {
      if (st.watchdog.enabled()) {
        st.watchdog.Observe(machine.hardware().id, pred.value(), actual);
      }
      sr.outcome.pred_abs_error += std::abs(pred.value() - actual);
      sr.outcome.pred_actual_sum += actual;
    }
    if (job.lifecycle != nullptr) {
      promoted = job.lifecycle->Observe(
          job.job_idx, sr.s, sr.stage, i, theta, machine.id(),
          machine.hardware().id, machine.state(), actual, st.cluster.now());
      if (promoted && job.engine != nullptr) job.engine->BumpEpoch();
      if (job.lifecycle->NoteDriftAlarms(st.watchdog.alarms_raised())) {
        // Probation rollback: the promotion this observation's alarm
        // indicts is gone; decisions solved under it are stale.
        if (job.engine != nullptr) job.engine->BumpEpoch();
      }
    }
  }
  if (job.engine != nullptr) {
    sr.completed_runs.push_back(actual);
    job.engine->RecordObservation(job.job_idx, sr.s, sr.stage, i, theta,
                                  machine, actual);
  }
  return promoted;
}

/// Mid-stage re-plan trigger (engine only), checked after instance i: a
/// lifecycle promotion, a drift alarm that a fine-tune just repaired, or a
/// remaining assignment pointing at a machine that has gone down. Sets
/// `*replan_at` (the repair point, since stage start) and `*drift_replan`.
bool ReplanTriggered(JobReplay& job, StageRun& sr, int i, bool promoted,
                     double* replan_at, bool* drift_replan) {
  ReplayState& st = job.st;
  ReconfigurationEngine& engine = *job.engine;
  const ReconfigOptions& ro = engine.options();
  const int m = sr.stage.instance_count();
  if (i + 1 >= m || sr.replans_done >= ro.max_replans_per_stage) return false;
  const double completion = sr.runs[static_cast<size_t>(i)].completion;
  const double t_check = sr.stage_start + completion;
  bool want_replan = false;
  // When the re-plan is repairing a machine event, the repair point is the
  // event itself (the crash a heartbeat would detect), not the completion
  // of instance i where this loop happens to look.
  *replan_at = completion;
  *drift_replan = false;
  if (promoted && ro.replan_on_drift_alarm) {
    // A mid-stage promotion: the undispatched tail was planned by the
    // superseded model; re-solve it with the promoted one.
    want_replan = true;
    *drift_replan = true;
  }
  if (engine.NoteDriftAlarms(st.watchdog.alarms_raised()) &&
      ro.replan_on_drift_alarm) {
    // Re-planning with the model that just proved untrustworthy would
    // reproduce the same plan: only worth it if the tune ran. (Under the
    // lifecycle the tune is only *submitted* as a gate candidate — the
    // active model is unchanged, so no re-plan until a later observation
    // promotes it.)
    if (engine.MaybeFineTune()) {
      want_replan = true;
      *drift_replan = true;
    }
  }
  if (!want_replan && job.faults && ro.replan_on_machine_event) {
    for (int j = i + 1; j < m; ++j) {
      const int mj = sr.assign_machine[static_cast<size_t>(j)];
      if (st.injector.MachineUp(mj, t_check)) continue;
      want_replan = true;
      double crash_at = 0.0;
      // Down since before the stage started -> event time 0.
      double event = 0.0;
      if (st.injector.MachineCrashesWithin(mj, sr.stage_start, completion,
                                           &crash_at)) {
        event = crash_at - sr.stage_start;
      }
      *replan_at = std::min(*replan_at, std::max(0.0, event));
    }
  }
  return want_replan;
}

/// Re-plans the undispatched tail after instance i (engine only) when a
/// trigger fires, swapping the re-solved assignments in and re-charging
/// the machines.
void MaybeReplanTail(JobReplay& job, StageRun& sr, int i, bool promoted) {
  double replan_at = 0.0;
  bool drift_replan = false;
  if (!ReplanTriggered(job, sr, i, promoted, &replan_at, &drift_replan)) {
    return;
  }
  ReplayState& st = job.st;
  ReconfigurationEngine& engine = *job.engine;
  const int m = sr.stage.instance_count();
  const double t_check =
      sr.stage_start + sr.runs[static_cast<size_t>(i)].completion;
  ++sr.replans_done;
  for (int j = i + 1; j < m; ++j) {
    st.cluster.machine(sr.assign_machine[static_cast<size_t>(j)])
        .Release(sr.assign_theta[static_cast<size_t>(j)]);
  }
  if (job.faults) {
    engine.NoteMachineLiveness(&st.cluster, job.up_fn,
                               sr.stage_start + replan_at);
  }
  // A drift re-plan re-optimizes the whole undispatched tail (the repaired
  // model may prefer different placements everywhere). A machine-event
  // re-plan solves only the instances that actually need repair —
  // re-pointing healthy instances would charge them the re-dispatch delay
  // for no reason.
  std::vector<int> remaining;
  if (drift_replan) {
    remaining.resize(static_cast<size_t>(m - i - 1));
    std::iota(remaining.begin(), remaining.end(), i + 1);
  } else {
    for (int j = i + 1; j < m; ++j) {
      if (!st.injector.MachineUp(sr.assign_machine[static_cast<size_t>(j)],
                                 t_check)) {
        remaining.push_back(j);
      }
    }
  }
  SchedulingContext sub = sr.context;
  sub.model = engine.active_model();
  sub.model_available =
      sr.model_server_up &&
      (!(st.watchdog.enabled() && st.watchdog.alarmed()) ||
       engine.ModelTrusted());
  sub.memo = nullptr;
  // sub.frontier_cache is inherited through the copy on purpose: its
  // content-based keys (params_tag included) stay exact under the swapped
  // model and the reduced stage view, so partial re-plans hit warm
  // frontier templates.
  sub.instance_subset = &remaining;
  sub.epoch = engine.current_epoch();
  if (job.lifecycle != nullptr) sub.model_epoch = job.lifecycle->model_epoch();
  sub.deadline = Deadline::After(
      std::max(0.1, job.options.ro_time_limit_seconds - sr.solve_total));
  StageDecision redo;
  {
    obs::ScopedSpan replan_span(job.options.obs.tracer, "reconfig.replan",
                                sr.context.trace_parent);
    redo = job.scheduler(sub);
  }
  if (job.lifecycle != nullptr) job.lifecycle->NoteDecision(redo.solve_seconds);
  sr.solve_total += redo.solve_seconds;
  if (redo.feasible && redo.machine_of_instance.size() == remaining.size()) {
    engine.CountReplan();
    ++sr.outcome.replans;
    for (size_t r = 0; r < remaining.size(); ++r) {
      const size_t j = static_cast<size_t>(remaining[r]);
      const bool moved = sr.assign_machine[j] != redo.machine_of_instance[r] ||
                         !(sr.assign_theta[j] == redo.theta_of_instance[r]);
      sr.assign_machine[j] = redo.machine_of_instance[r];
      sr.assign_theta[j] = redo.theta_of_instance[r];
      // Instances the re-plan actually moved re-dispatch at the repair
      // point — the delay is honestly charged to latency. Instances whose
      // assignment survived were never recalled and keep their original
      // dispatch time.
      if (moved) sr.start_offset[j] = replan_at;
    }
  } else {
    engine.CountReplanFailure();
  }
  for (int j = i + 1; j < m; ++j) {
    st.cluster.machine(sr.assign_machine[static_cast<size_t>(j)])
        .Allocate(sr.assign_theta[static_cast<size_t>(j)]);
  }
}

/// Releases every container of the stage and writes its latency, cost and
/// feasibility. A stage that lost an instance past its retry budget did
/// not produce its output: it fails cleanly (no crash, waste recorded).
void AccountAndRelease(JobReplay& job, StageRun& sr) {
  ReplayState& st = job.st;
  const int m = sr.stage.instance_count();
  double max_latency = 0.0, useful_cost = 0.0;
  bool all_succeeded = true;
  std::vector<double> latencies;
  if (job.keep_instance_detail) latencies.resize(static_cast<size_t>(m));
  for (int i = 0; i < m; ++i) {
    const InstanceRun& run = sr.runs[static_cast<size_t>(i)];
    if (job.keep_instance_detail) {
      latencies[static_cast<size_t>(i)] = run.completion;
    }
    max_latency = std::max(max_latency, run.completion);
    if (run.succeeded) {
      useful_cost +=
          run.final_run *
          sr.context.cost_weights.Rate(sr.assign_theta[static_cast<size_t>(i)]);
    } else {
      all_succeeded = false;
    }
  }
  for (int i = 0; i < m; ++i) {
    st.cluster.machine(sr.assign_machine[static_cast<size_t>(i)])
        .Release(sr.assign_theta[static_cast<size_t>(i)]);
  }
  for (const auto& [machine_id, theta] : sr.extra_allocs) {
    st.cluster.machine(machine_id).Release(theta);
  }

  StageOutcome& outcome = sr.outcome;
  outcome.feasible = all_succeeded;
  outcome.solve_seconds = sr.solve_total;
  outcome.stage_latency = max_latency;
  outcome.stage_latency_in = max_latency + sr.solve_total;
  outcome.stage_cost = useful_cost + outcome.wasted_cost;
  outcome.drift_alarm_raised = st.watchdog.alarms_raised() > sr.alarms_before;
  if (job.engine != nullptr) {
    outcome.fine_tunes =
        static_cast<int>(job.engine->stats().fine_tunes - sr.tunes_before);
  }
  if (job.keep_instance_detail) {
    outcome.instance_latencies = std::move(latencies);
    outcome.instance_thetas = std::move(sr.assign_theta);
  }
}

/// Executes a feasible decision: charges the machines, runs every instance
/// in index order through the one attempt loop, then rescues stragglers,
/// observes completions and accounts. Under the engine the straggler
/// rescue (migration), the observation and the re-plan of the tail happen
/// per instance as it completes; without it, speculative copies and the
/// observations follow once every instance ran. With no trigger firing the
/// engine path consumes the RNG in exactly the same order (one draw per
/// instance, i ascending), so reconfig-on replays without faults or drift
/// stay byte-identical to reconfig-off ones.
Status ExecuteStage(JobReplay& job, StageRun& sr, StageDecision decision) {
  ReplayState& st = job.st;
  const int m = sr.stage.instance_count();
  sr.stage_start = st.cluster.now();
  sr.solve_total = decision.solve_seconds;
  sr.assign_machine = std::move(decision.machine_of_instance);
  sr.assign_theta = std::move(decision.theta_of_instance);
  sr.start_offset.assign(static_cast<size_t>(m), 0.0);
  sr.runs.assign(static_cast<size_t>(m), InstanceRun{});
  for (int i = 0; i < m; ++i) {
    st.cluster.machine(sr.assign_machine[static_cast<size_t>(i)])
        .Allocate(sr.assign_theta[static_cast<size_t>(i)]);
  }
  if (job.engine != nullptr) {
    sr.completed_runs.reserve(static_cast<size_t>(m));
    for (int i = 0; i < m; ++i) {
      FGRO_RETURN_IF_ERROR(RunAttempts(job, sr, i));
      FGRO_RETURN_IF_ERROR(MigrateStraggler(job, sr, i));
      MaybeReplanTail(job, sr, i, ObserveInstance(job, sr, i));
    }
  } else {
    for (int i = 0; i < m; ++i) {
      FGRO_RETURN_IF_ERROR(RunAttempts(job, sr, i));
    }
    if (job.faults && job.options.faults.speculative_execution && m >= 3) {
      FGRO_RETURN_IF_ERROR(SpeculateStragglers(job, sr));
    }
    for (int i = 0; i < m; ++i) ObserveInstance(job, sr, i);
  }
  AccountAndRelease(job, sr);
  return Status::OK();
}

/// Per-stage deltas of the lifecycle counters.
void FinishLifecycle(const JobReplay& job, StageRun& sr) {
  if (job.lifecycle == nullptr) return;
  const ModelLifecycleStats& lc = job.lifecycle->stats();
  const ModelLifecycleStats& before = sr.lc_before;
  StageOutcome& o = sr.outcome;
  o.promotions = static_cast<int>(lc.promotions - before.promotions);
  o.rollbacks = static_cast<int>(lc.rollbacks - before.rollbacks);
  o.gate_rejects = static_cast<int>(lc.gate_rejects - before.gate_rejects);
  o.shadow_rejects =
      static_cast<int>(lc.shadow_rejects - before.shadow_rejects);
  o.lifecycle_retrains = static_cast<int>(lc.retrains - before.retrains);
  o.wasted_decisions = lc.wasted_decisions - before.wasted_decisions;
  o.wasted_solve_seconds =
      lc.wasted_solve_seconds - before.wasted_solve_seconds;
}

/// Replays one job against `st`, appending its stage outcomes to `out`.
/// This is the body shared by the sequential replay (one ReplayState for
/// the whole run) and the isolated per-job replay (one per job). Every
/// stage runs the same phases: begin, model gate, decide, execute.
Status ReplayJobInState(const Workload& workload, const LatencyModel* model,
                        const SimOptions& options, ReplayState& st,
                        int job_idx, const Simulator::SchedulerFn& scheduler,
                        bool keep_instance_detail,
                        std::vector<StageOutcome>* out) {
  JobReplay job{model, options, st, job_idx, scheduler, keep_instance_detail};
  obs::ScopedSpan job_span(options.obs.tracer, "sim.job");
  if (options.obs.metrics != nullptr) {
    options.obs.metrics->GetCounter("sim.jobs_replayed")->Increment();
  }

  const Job& spec = workload.jobs[static_cast<size_t>(job_idx)];
  st.cluster.AdvanceTime(spec.arrival_time);
  if (job.faults) {
    if (job.engine != nullptr) {
      // Same liveness projection as below, but diffed against the last
      // view: an up/down transition supersedes the decision epoch.
      job.engine->NoteMachineLiveness(&st.cluster, job.up_fn,
                                      st.cluster.now());
    } else {
      // Project the crash/recovery schedule onto machine liveness.
      for (Machine& m : st.cluster.machines()) {
        m.SetUp(st.injector.MachineUp(m.id(), st.cluster.now()));
      }
    }
  }
  StageDependencyManager deps(spec);
  if (!deps.ok()) return deps.status();

  while (!deps.AllCompleted()) {
    std::vector<int> ready = deps.PopReadyStages();
    if (ready.empty()) {
      return Status::Internal("dependency deadlock in job replay");
    }
    for (int s : ready) {
      obs::ScopedSpan stage_span(options.obs.tracer, "sim.stage",
                                 job_span.id());
      StageRun sr(spec.stages[static_cast<size_t>(s)], s);
      BeginStage(job, sr, stage_span.id());
      GateModel(job, sr);
      StageDecision decision = DecideStage(job, sr);
      if (sr.outcome.feasible) {
        FGRO_RETURN_IF_ERROR(ExecuteStage(job, sr, std::move(decision)));
      }
      FinishLifecycle(job, sr);
      out->push_back(std::move(sr.outcome));
      deps.MarkCompleted(s);
    }
  }
  return Status::OK();
}

Status ValidateOutcomeMode(const SimOptions& options) {
  if (options.outcome == OutcomeMode::kGprNoise &&
      (options.gpr == nullptr || !options.gpr->fitted())) {
    return Status::FailedPrecondition("GPR noise model required but missing");
  }
  return Status::OK();
}

}  // namespace

Simulator::Simulator(const Workload* workload, const LatencyModel* model,
                     SimOptions options)
    : workload_(workload), model_(model), options_(options) {}

Result<SimResult> Simulator::Run(const SchedulerFn& scheduler,
                                 bool keep_instance_detail) {
  std::vector<int> all(workload_->jobs.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  return RunJobs(scheduler, all, keep_instance_detail);
}

Result<SimResult> Simulator::RunJobs(const SchedulerFn& scheduler,
                                     const std::vector<int>& job_indices,
                                     bool keep_instance_detail) {
  FGRO_RETURN_IF_ERROR(ValidateOutcomeMode(options_));
  // One shared state for the whole replay: cluster time advances across
  // jobs and breaker/watchdog/reconfig state carries over, as it always
  // has — in particular the fine-tuned model persists across jobs.
  ReplayState state(options_, *workload_, model_, options_.seed);
  SimResult result;
  for (int job_idx : job_indices) {
    FGRO_RETURN_IF_ERROR(ReplayJobInState(*workload_, model_, options_, state,
                                          job_idx, scheduler,
                                          keep_instance_detail,
                                          &result.outcomes));
  }
  return result;
}

Result<std::vector<StageOutcome>> Simulator::ReplayJobIsolated(
    const SchedulerFn& scheduler, int job_idx, uint64_t seed,
    bool keep_instance_detail, bool allow_reconfig) const {
  if (job_idx < 0 ||
      job_idx >= static_cast<int>(workload_->jobs.size())) {
    return Status::InvalidArgument("job index out of range");
  }
  FGRO_RETURN_IF_ERROR(ValidateOutcomeMode(options_));
  ReplayState state(options_, *workload_, model_, seed, allow_reconfig);
  std::vector<StageOutcome> outcomes;
  FGRO_RETURN_IF_ERROR(ReplayJobInState(*workload_, model_, options_, state,
                                        job_idx, scheduler,
                                        keep_instance_detail, &outcomes));
  return outcomes;
}

}  // namespace fgro
