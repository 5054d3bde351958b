// Reproducibility tests: every stochastic component must be bit-for-bit
// deterministic given its seeds — the property that makes the benchmark
// tables reproducible and the appendix's EVO "fixed randomness" note real.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "common/thread_pool.h"
#include "model/prediction_cache.h"
#include "moo/nsga2.h"
#include "moo/weighted_sum.h"
#include "obs/obs.h"
#include "optimizer/fuxi.h"
#include "optimizer/stage_optimizer.h"
#include "service/ro_service.h"
#include "sim/experiment_env.h"
#include "sim/ro_metrics.h"
#include "trace/trace_collector.h"

namespace fgro {
namespace {

TEST(DeterminismTest, TraceCollectionIsReproducible) {
  WorkloadGenerator gen(GetWorkloadProfile(WorkloadId::kA, 0.03));
  Result<Workload> workload = gen.Generate();
  ASSERT_TRUE(workload.ok());
  TraceCollector c1(ClusterOptions{.num_machines = 32, .seed = 4}, 9);
  TraceCollector c2(ClusterOptions{.num_machines = 32, .seed = 4}, 9);
  Result<TraceDataset> a = c1.Collect(workload.value());
  Result<TraceDataset> b = c2.Collect(workload.value());
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->records.size(), b->records.size());
  for (size_t i = 0; i < a->records.size(); i += 11) {
    EXPECT_DOUBLE_EQ(a->records[i].actual_latency,
                     b->records[i].actual_latency);
    EXPECT_DOUBLE_EQ(a->records[i].theta.cores, b->records[i].theta.cores);
    EXPECT_EQ(a->records[i].machine_id, b->records[i].machine_id);
  }
}

TEST(DeterminismTest, DifferentSeedsDiffer) {
  WorkloadGenerator gen(GetWorkloadProfile(WorkloadId::kA, 0.03));
  Result<Workload> workload = gen.Generate();
  ASSERT_TRUE(workload.ok());
  TraceCollector c1(ClusterOptions{.num_machines = 32, .seed = 4}, 9);
  TraceCollector c2(ClusterOptions{.num_machines = 32, .seed = 4}, 10);
  Result<TraceDataset> a = c1.Collect(workload.value());
  Result<TraceDataset> b = c2.Collect(workload.value());
  ASSERT_TRUE(a.ok() && b.ok());
  bool any_diff = false;
  for (size_t i = 0; i < a->records.size(); ++i) {
    if (a->records[i].actual_latency != b->records[i].actual_latency) {
      any_diff = true;
      break;
    }
  }
  EXPECT_TRUE(any_diff);
}

MooProblem TinyProblem() {
  MooProblem problem;
  problem.num_vars = 3;
  problem.num_objectives = 2;
  problem.sample_var = [](int, Rng* rng) { return rng->Uniform(); };
  problem.evaluate = [](const Vec& g) {
    double s = g[0] + g[1] + g[2];
    MooEvaluation e;
    e.objectives = {s, 9.0 - s};
    return e;
  };
  return problem;
}

TEST(DeterminismTest, Nsga2SameSeedSameFront) {
  Nsga2Options options{.population = 16, .generations = 8, .seed = 77};
  Nsga2Result a = RunNsga2(TinyProblem(), options);
  Nsga2Result b = RunNsga2(TinyProblem(), options);
  ASSERT_EQ(a.objectives.size(), b.objectives.size());
  for (size_t i = 0; i < a.objectives.size(); ++i) {
    EXPECT_EQ(a.objectives[i], b.objectives[i]);
  }
  EXPECT_EQ(a.evaluations, b.evaluations);
}

TEST(DeterminismTest, WsSampleSameSeedSameFront) {
  WsSampleOptions options{.num_samples = 500, .seed = 31};
  WsSampleResult a = RunWeightedSumSampling(TinyProblem(), options);
  WsSampleResult b = RunWeightedSumSampling(TinyProblem(), options);
  ASSERT_EQ(a.objectives.size(), b.objectives.size());
  for (size_t i = 0; i < a.objectives.size(); ++i) {
    EXPECT_EQ(a.objectives[i], b.objectives[i]);
  }
}

TEST(DeterminismTest, SimulatorReplayIsReproducible) {
  ExperimentEnv::Options options;
  options.workload = WorkloadId::kA;
  options.scale = 0.03;
  options.train.epochs = 1;
  options.train.max_train_samples = 800;
  Result<std::unique_ptr<ExperimentEnv>> env = ExperimentEnv::Build(options);
  ASSERT_TRUE(env.ok());
  SimOptions sim_options;
  sim_options.outcome = OutcomeMode::kEnvironment;
  sim_options.seed = 13;
  auto run_once = [&] {
    Simulator sim(&(*env)->workload(), &(*env)->model(), sim_options);
    Result<SimResult> result = sim.Run(
        [](const SchedulingContext& c) { return FuxiSchedule(c); });
    EXPECT_TRUE(result.ok());
    return Summarize(result.value());
  };
  RoSummary a = run_once();
  RoSummary b = run_once();
  EXPECT_DOUBLE_EQ(a.avg_latency, b.avg_latency);
  EXPECT_DOUBLE_EQ(a.avg_cost, b.avg_cost);
}

TEST(DeterminismTest, FaultyReplayIsByteIdenticalAcrossRuns) {
  // Fault schedules must be replayable: identical seeds and identical
  // FaultOptions give byte-identical SimResults, field by field.
  ExperimentEnv::Options options;
  options.workload = WorkloadId::kA;
  options.scale = 0.03;
  options.train_model = false;
  Result<std::unique_ptr<ExperimentEnv>> env = ExperimentEnv::Build(options);
  ASSERT_TRUE(env.ok());
  SimOptions sim_options;
  sim_options.outcome = OutcomeMode::kEnvironment;
  sim_options.seed = 13;
  sim_options.faults.enabled = true;
  sim_options.faults.machine_failure_rate_per_day = 6.0;
  sim_options.faults.machine_recovery_seconds = 1200.0;
  sim_options.faults.instance_failure_prob = 0.08;
  sim_options.faults.straggler_prob = 0.05;
  sim_options.faults.model_outage_rate_per_day = 4.0;
  sim_options.faults.seed = 23;
  auto run_once = [&] {
    Simulator sim(&(*env)->workload(), &(*env)->model(), sim_options);
    Result<SimResult> result = sim.Run(
        [](const SchedulingContext& c) { return FuxiSchedule(c); },
        /*keep_instance_detail=*/true);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  };
  SimResult a = run_once();
  SimResult b = run_once();
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  long total_retries = 0;
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    const StageOutcome& x = a.outcomes[i];
    const StageOutcome& y = b.outcomes[i];
    EXPECT_EQ(x.job_idx, y.job_idx);
    EXPECT_EQ(x.stage_idx, y.stage_idx);
    EXPECT_EQ(x.feasible, y.feasible);
    EXPECT_EQ(x.retries, y.retries);
    EXPECT_EQ(x.failovers, y.failovers);
    EXPECT_EQ(x.speculative_copies, y.speculative_copies);
    EXPECT_EQ(x.speculative_wins, y.speculative_wins);
    EXPECT_EQ(x.failed_instances, y.failed_instances);
    EXPECT_EQ(x.fallback, y.fallback);
    EXPECT_DOUBLE_EQ(x.stage_latency, y.stage_latency);
    EXPECT_DOUBLE_EQ(x.stage_cost, y.stage_cost);
    EXPECT_DOUBLE_EQ(x.wasted_cost, y.wasted_cost);
    ASSERT_EQ(x.instance_latencies.size(), y.instance_latencies.size());
    for (size_t k = 0; k < x.instance_latencies.size(); ++k) {
      EXPECT_DOUBLE_EQ(x.instance_latencies[k], y.instance_latencies[k]);
    }
    total_retries += x.retries;
  }
  EXPECT_GT(total_retries, 0);  // the fault path actually ran
}

TEST(DeterminismTest, DisabledFaultsMatchTheHappyPathBitForBit) {
  // FaultOptions{} must not perturb the replay at all: same outcomes as a
  // simulator that never heard of fault injection.
  ExperimentEnv::Options options;
  options.workload = WorkloadId::kA;
  options.scale = 0.03;
  options.train_model = false;
  Result<std::unique_ptr<ExperimentEnv>> env = ExperimentEnv::Build(options);
  ASSERT_TRUE(env.ok());
  auto run_with = [&](const FaultOptions& faults) {
    SimOptions sim_options;
    sim_options.outcome = OutcomeMode::kEnvironment;
    sim_options.seed = 13;
    sim_options.faults = faults;
    Simulator sim(&(*env)->workload(), &(*env)->model(), sim_options);
    Result<SimResult> result = sim.Run(
        [](const SchedulingContext& c) { return FuxiSchedule(c); });
    EXPECT_TRUE(result.ok());
    return std::move(result).value();
  };
  FaultOptions zero_rates;
  zero_rates.enabled = true;  // enabled but every rate zero: inactive
  SimResult plain = run_with(FaultOptions{});
  SimResult zeros = run_with(zero_rates);
  ASSERT_EQ(plain.outcomes.size(), zeros.outcomes.size());
  for (size_t i = 0; i < plain.outcomes.size(); ++i) {
    EXPECT_DOUBLE_EQ(plain.outcomes[i].stage_latency,
                     zeros.outcomes[i].stage_latency);
    EXPECT_DOUBLE_EQ(plain.outcomes[i].stage_cost,
                     zeros.outcomes[i].stage_cost);
    EXPECT_EQ(plain.outcomes[i].retries, 0);
    EXPECT_EQ(zeros.outcomes[i].retries, 0);
    EXPECT_DOUBLE_EQ(zeros.outcomes[i].wasted_cost, 0.0);
  }
}

TEST(DeterminismTest, MetricsEnabledReplayIsByteIdenticalAcrossThreads) {
  // The PR 3 guarantee must survive the observability layer: with a
  // metrics registry attached (and the model instrumented), the merged
  // service result is byte-identical between the sequential path and 8
  // workers, and identical to a replay with observability disabled —
  // metrics observe outcomes, they never feed back into decisions or RNG.
  ExperimentEnv::Options options;
  options.workload = WorkloadId::kA;
  options.scale = 0.03;
  options.train.epochs = 1;
  options.train.max_train_samples = 800;
  Result<std::unique_ptr<ExperimentEnv>> env = ExperimentEnv::Build(options);
  ASSERT_TRUE(env.ok()) << env.status().ToString();

  auto run_with = [&](int threads, obs::MetricsRegistry* registry) {
    obs::Obs obs;
    obs.metrics = registry;
    (*env)->mutable_model()->set_obs(obs);
    SimOptions sim_options;
    sim_options.outcome = OutcomeMode::kEnvironment;
    sim_options.seed = 13;
    sim_options.service_threads = threads;
    sim_options.obs = obs;
    Result<SimResult> result =
        ServeWorkload((*env)->workload(), &(*env)->model(), sim_options,
                      StageOptimizer::IpaRaaPathWithFallback());
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    (*env)->mutable_model()->set_obs(obs::Obs{});
    return std::move(result).value();
  };

  obs::MetricsRegistry sequential_registry, parallel_registry;
  const SimResult sequential = run_with(1, &sequential_registry);
  const SimResult parallel = run_with(8, &parallel_registry);
  const SimResult unobserved = run_with(8, nullptr);

  auto expect_same = [](const SimResult& a, const SimResult& b) {
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (size_t i = 0; i < a.outcomes.size(); ++i) {
      const StageOutcome& x = a.outcomes[i];
      const StageOutcome& y = b.outcomes[i];
      EXPECT_EQ(x.job_idx, y.job_idx);
      EXPECT_EQ(x.stage_idx, y.stage_idx);
      EXPECT_EQ(x.feasible, y.feasible);
      EXPECT_EQ(x.num_instances, y.num_instances);
      EXPECT_EQ(x.fallback, y.fallback);
      EXPECT_DOUBLE_EQ(x.stage_latency, y.stage_latency);
      EXPECT_DOUBLE_EQ(x.stage_cost, y.stage_cost);
      EXPECT_DOUBLE_EQ(x.default_theta_cores, y.default_theta_cores);
    }
  };
  expect_same(sequential, parallel);
  expect_same(sequential, unobserved);

  // The registries actually recorded the replay (this is not a no-op run),
  // and both thread counts counted the same work.
  const obs::MetricsRegistry::Snapshot seq_snap = sequential_registry.Snap();
  const obs::MetricsRegistry::Snapshot par_snap = parallel_registry.Snap();
  const uint64_t num_jobs = (*env)->workload().jobs.size();
  EXPECT_EQ(seq_snap.counters.at("sim.jobs_replayed"), num_jobs);
  EXPECT_EQ(par_snap.counters.at("sim.jobs_replayed"), num_jobs);
  EXPECT_EQ(seq_snap.counters.at("so.decisions"),
            par_snap.counters.at("so.decisions"));
  EXPECT_GT(seq_snap.histograms.at("svc.service_seconds").count, 0u);
}

TEST(DeterminismTest, BatchedParallelReplayMatchesScalarSequential) {
  // The batched-inference engine's contract: attaching a prediction memo
  // and fanning RAA across a worker pool must never change a decision —
  // only wall-clock. A full replay through the IPA+RAA path must be
  // byte-identical serial and unmemoized, pooled and memoized, and again
  // through the warm memo. (The per-query scalar oracle is
  // PredictBatchTest's.)
  ExperimentEnv::Options options;
  options.workload = WorkloadId::kA;
  options.scale = 0.03;
  options.train.epochs = 1;
  options.train.max_train_samples = 800;
  Result<std::unique_ptr<ExperimentEnv>> env = ExperimentEnv::Build(options);
  ASSERT_TRUE(env.ok()) << env.status().ToString();

  auto run_with = [&](PredictionMemo* memo, ThreadPool* pool) {
    SimOptions sim_options;
    sim_options.outcome = OutcomeMode::kEnvironment;
    sim_options.seed = 13;
    sim_options.memo = memo;
    sim_options.worker_pool = pool;
    Simulator sim(&(*env)->workload(), &(*env)->model(), sim_options);
    StageOptimizer optimizer(StageOptimizer::IpaRaaPathWithFallback());
    Result<SimResult> result = sim.Run(
        [&](const SchedulingContext& c) { return optimizer.Optimize(c); });
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  };

  const SimResult serial = run_with(nullptr, nullptr);
  ThreadPool pool(4);
  PredictionMemo memo;
  const SimResult parallel_memoized = run_with(&memo, &pool);
  // A second pass through the warm memo must still match (hits are exact).
  const SimResult warm_memo = run_with(&memo, &pool);
  EXPECT_GT(memo.hits(), 0u);

  auto expect_same = [](const SimResult& a, const SimResult& b) {
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (size_t i = 0; i < a.outcomes.size(); ++i) {
      const StageOutcome& x = a.outcomes[i];
      const StageOutcome& y = b.outcomes[i];
      EXPECT_EQ(x.job_idx, y.job_idx);
      EXPECT_EQ(x.stage_idx, y.stage_idx);
      EXPECT_EQ(x.feasible, y.feasible);
      EXPECT_EQ(x.num_instances, y.num_instances);
      EXPECT_EQ(x.fallback, y.fallback);
      // Byte-identical, not approximately equal: the batched GEMM keeps
      // every accumulation order, so EXPECT_EQ on doubles is the contract.
      EXPECT_EQ(x.stage_latency, y.stage_latency);
      EXPECT_EQ(x.stage_cost, y.stage_cost);
      EXPECT_EQ(x.default_theta_cores, y.default_theta_cores);
    }
  };
  expect_same(serial, parallel_memoized);
  expect_same(serial, warm_memo);
}

TEST(DeterminismTest, ReconfigReplayIsByteIdenticalAcrossThreads) {
  // The online-reconfiguration engine must preserve the service-mode
  // determinism contract: with a drift pulse, machine crashes, the
  // watchdog, AND reconfiguration (re-plans, stale-decision drops, fine
  // tunes) all active, the merged result is byte-identical across
  // service_threads 1, 2, and 8 — every trigger derives from seeds and sim
  // time, never from worker interleaving.
  ExperimentEnv::Options options;
  options.workload = WorkloadId::kA;
  options.scale = 0.03;
  options.train.epochs = 1;
  options.train.max_train_samples = 800;
  Result<std::unique_ptr<ExperimentEnv>> env = ExperimentEnv::Build(options);
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  double span = 0.0;
  for (const Job& job : (*env)->workload().jobs) {
    span = std::max(span, job.arrival_time);
  }
  ASSERT_GT(span, 0.0);

  auto run_with = [&](int threads) {
    SimOptions sim_options;
    sim_options.outcome = OutcomeMode::kNoiseFree;
    sim_options.seed = 13;
    sim_options.service_threads = threads;
    sim_options.drift_multiplier = 4.0;
    sim_options.drift_start_seconds = 0.0;
    sim_options.drift_end_seconds = 0.7 * span;
    sim_options.drift_watchdog.enabled = true;
    sim_options.drift_watchdog.window_size = 16;
    sim_options.drift_watchdog.min_samples = 4;
    sim_options.faults.enabled = true;
    sim_options.faults.machine_failure_rate_per_day = 24.0;
    sim_options.faults.machine_recovery_seconds = 900.0;
    sim_options.faults.seed = 23;
    sim_options.reconfig.enabled = true;
    sim_options.reconfig.dispatch_hazard_seconds = 30.0;
    sim_options.reconfig.fine_tune_min_samples = 8;
    sim_options.reconfig.fine_tune_cooldown_observations = 8;
    Result<SimResult> result =
        ServeWorkload((*env)->workload(), &(*env)->model(), sim_options,
                      StageOptimizer::IpaRaaPathWithFallback());
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  };

  const SimResult one = run_with(1);
  const SimResult two = run_with(2);
  const SimResult eight = run_with(8);

  auto expect_same = [](const SimResult& a, const SimResult& b) {
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (size_t i = 0; i < a.outcomes.size(); ++i) {
      const StageOutcome& x = a.outcomes[i];
      const StageOutcome& y = b.outcomes[i];
      EXPECT_EQ(x.job_idx, y.job_idx);
      EXPECT_EQ(x.stage_idx, y.stage_idx);
      EXPECT_EQ(x.feasible, y.feasible);
      EXPECT_EQ(x.fallback, y.fallback);
      EXPECT_EQ(x.retries, y.retries);
      EXPECT_EQ(x.failovers, y.failovers);
      EXPECT_EQ(x.replans, y.replans);
      EXPECT_EQ(x.stale_decision_drops, y.stale_decision_drops);
      EXPECT_EQ(x.migrations, y.migrations);
      EXPECT_EQ(x.migration_wins, y.migration_wins);
      EXPECT_EQ(x.fine_tunes, y.fine_tunes);
      EXPECT_EQ(x.drift_demoted, y.drift_demoted);
      EXPECT_DOUBLE_EQ(x.stage_latency, y.stage_latency);
      EXPECT_DOUBLE_EQ(x.stage_cost, y.stage_cost);
      EXPECT_DOUBLE_EQ(x.wasted_cost, y.wasted_cost);
    }
  };
  expect_same(one, two);
  expect_same(one, eight);

  // The reconfiguration machinery actually fired — this is not a no-op
  // determinism check on dead code.
  const RoSummary s = Summarize(one);
  EXPECT_GT(s.fine_tunes + s.total_replans + s.stale_decision_drops, 0);
}

TEST(DeterminismTest, ReconfigWithoutTriggersMatchesDisabledBitForBit) {
  // With no drift, no faults, and no machine events, an enabled
  // reconfiguration engine must be a pure no-op: its dispatch path consumes
  // outcome randomness in exactly the legacy order, straggler detection
  // never fires on noise-free runs, and every reconfig counter stays zero.
  ExperimentEnv::Options options;
  options.workload = WorkloadId::kA;
  options.scale = 0.03;
  options.train.epochs = 1;
  options.train.max_train_samples = 800;
  Result<std::unique_ptr<ExperimentEnv>> env = ExperimentEnv::Build(options);
  ASSERT_TRUE(env.ok()) << env.status().ToString();

  auto run_with = [&](bool reconfigure) {
    SimOptions sim_options;
    sim_options.outcome = OutcomeMode::kNoiseFree;
    sim_options.seed = 13;
    sim_options.drift_watchdog.enabled = true;
    sim_options.reconfig.enabled = reconfigure;
    Simulator sim(&(*env)->workload(), &(*env)->model(), sim_options);
    StageOptimizer optimizer(StageOptimizer::IpaRaaPathWithFallback());
    Result<SimResult> result = sim.Run(
        [&](const SchedulingContext& c) { return optimizer.Optimize(c); });
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  };

  const SimResult off = run_with(false);
  const SimResult on = run_with(true);
  ASSERT_EQ(off.outcomes.size(), on.outcomes.size());
  for (size_t i = 0; i < off.outcomes.size(); ++i) {
    const StageOutcome& x = off.outcomes[i];
    const StageOutcome& y = on.outcomes[i];
    EXPECT_EQ(x.feasible, y.feasible);
    EXPECT_EQ(x.fallback, y.fallback);
    EXPECT_EQ(x.stage_latency, y.stage_latency);
    EXPECT_EQ(x.stage_cost, y.stage_cost);
    EXPECT_EQ(y.replans, 0);
    EXPECT_EQ(y.stale_decision_drops, 0);
    EXPECT_EQ(y.migrations, 0);
    EXPECT_EQ(y.fine_tunes, 0);
    EXPECT_DOUBLE_EQ(x.wasted_cost, y.wasted_cost);
  }
}

TEST(DeterminismTest, ModelLifecycleReplayIsByteIdenticalAcrossThreads) {
  // The safe-model-lifecycle pipeline must preserve the service-mode
  // determinism contract: with a drift regime, the watchdog, scheduled
  // retrains, shadow canaries, promotions (model hot-swaps at fixed
  // virtual times), and probation all active, the merged result is
  // byte-identical across service_threads 1, 2, and 8 — each job's
  // lifecycle is seeded from (seed, job_idx) and driven by sim time only.
  ExperimentEnv::Options options;
  options.workload = WorkloadId::kA;
  options.scale = 0.03;
  options.train.epochs = 1;
  options.train.max_train_samples = 800;
  Result<std::unique_ptr<ExperimentEnv>> env = ExperimentEnv::Build(options);
  ASSERT_TRUE(env.ok()) << env.status().ToString();

  auto run_with = [&](int threads) {
    SimOptions sim_options;
    sim_options.outcome = OutcomeMode::kNoiseFree;
    sim_options.seed = 13;
    sim_options.service_threads = threads;
    sim_options.drift_multiplier = 3.0;
    sim_options.drift_start_seconds = 0.0;
    sim_options.drift_end_seconds = 1e18;
    sim_options.drift_watchdog.enabled = true;
    sim_options.drift_watchdog.window_size = 16;
    sim_options.drift_watchdog.min_samples = 4;
    // Candidates come from the reconfiguration engine's fine-tunes, now
    // routed through the lifecycle's gate + shadow instead of trust
    // windows (sim time is per-job constant in service mode, so the
    // time-scheduled retrain path stays quiet here by construction).
    sim_options.reconfig.enabled = true;
    sim_options.reconfig.fine_tune_min_samples = 8;
    sim_options.reconfig.fine_tune_cooldown_observations = 8;
    sim_options.lifecycle.enabled = true;
    sim_options.lifecycle.shadow_observations = 8;
    sim_options.lifecycle.probation_observations = 16;
    Result<SimResult> result =
        ServeWorkload((*env)->workload(), &(*env)->model(), sim_options,
                      StageOptimizer::IpaRaaPathWithFallback());
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  };

  const SimResult one = run_with(1);
  const SimResult two = run_with(2);
  const SimResult eight = run_with(8);

  auto expect_same = [](const SimResult& a, const SimResult& b) {
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (size_t i = 0; i < a.outcomes.size(); ++i) {
      const StageOutcome& x = a.outcomes[i];
      const StageOutcome& y = b.outcomes[i];
      EXPECT_EQ(x.job_idx, y.job_idx);
      EXPECT_EQ(x.stage_idx, y.stage_idx);
      EXPECT_EQ(x.feasible, y.feasible);
      EXPECT_EQ(x.fallback, y.fallback);
      EXPECT_EQ(x.promotions, y.promotions);
      EXPECT_EQ(x.rollbacks, y.rollbacks);
      EXPECT_EQ(x.gate_rejects, y.gate_rejects);
      EXPECT_EQ(x.shadow_rejects, y.shadow_rejects);
      EXPECT_EQ(x.lifecycle_retrains, y.lifecycle_retrains);
      EXPECT_EQ(x.wasted_decisions, y.wasted_decisions);
      EXPECT_EQ(x.drift_demoted, y.drift_demoted);
      EXPECT_EQ(x.stage_latency, y.stage_latency);
      EXPECT_EQ(x.stage_cost, y.stage_cost);
      EXPECT_EQ(x.pred_abs_error, y.pred_abs_error);
      EXPECT_EQ(x.pred_actual_sum, y.pred_actual_sum);
    }
  };
  expect_same(one, two);
  expect_same(one, eight);

  // Hot swaps actually happened at fixed points of the replay — this is
  // the determinism of a live promotion pipeline, not of a dormant one.
  const RoSummary s = Summarize(one);
  EXPECT_GT(s.fine_tunes, 0);
  EXPECT_GT(s.promotions, 0);
  EXPECT_GT(s.serving_wmape, 0.0);
}

TEST(DeterminismTest, DisabledLifecycleConfigIsInertBitForBit) {
  // lifecycle.enabled = false must take exactly the legacy replay path: a
  // SimOptions carrying a fully-populated (but disabled) lifecycle config
  // produces the same outcomes, bit for bit, as default options — and
  // every lifecycle counter stays zero.
  ExperimentEnv::Options options;
  options.workload = WorkloadId::kA;
  options.scale = 0.03;
  options.train.epochs = 1;
  options.train.max_train_samples = 800;
  Result<std::unique_ptr<ExperimentEnv>> env = ExperimentEnv::Build(options);
  ASSERT_TRUE(env.ok()) << env.status().ToString();

  auto run_with = [&](const ModelLifecycleOptions& lifecycle) {
    SimOptions sim_options;
    sim_options.outcome = OutcomeMode::kEnvironment;
    sim_options.seed = 13;
    sim_options.lifecycle = lifecycle;
    Simulator sim(&(*env)->workload(), &(*env)->model(), sim_options);
    StageOptimizer optimizer(StageOptimizer::IpaRaaPathWithFallback());
    Result<SimResult> result = sim.Run(
        [&](const SchedulingContext& c) { return optimizer.Optimize(c); });
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  };

  ModelLifecycleOptions loaded;
  loaded.enabled = false;  // the one switch that matters
  loaded.retrain_period_seconds = 1.0;
  loaded.retrain_min_samples = 1;
  loaded.shadow_observations = 1;
  loaded.unconditional = true;
  loaded.poison = ModelLifecycleOptions::RetrainPoison::kNanInject;

  const SimResult plain = run_with(ModelLifecycleOptions{});
  const SimResult carrying = run_with(loaded);
  ASSERT_EQ(plain.outcomes.size(), carrying.outcomes.size());
  for (size_t i = 0; i < plain.outcomes.size(); ++i) {
    const StageOutcome& x = plain.outcomes[i];
    const StageOutcome& y = carrying.outcomes[i];
    EXPECT_EQ(x.feasible, y.feasible);
    EXPECT_EQ(x.fallback, y.fallback);
    EXPECT_EQ(x.stage_latency, y.stage_latency);
    EXPECT_EQ(x.stage_cost, y.stage_cost);
    EXPECT_EQ(y.promotions, 0);
    EXPECT_EQ(y.rollbacks, 0);
    EXPECT_EQ(y.gate_rejects, 0);
    EXPECT_EQ(y.shadow_rejects, 0);
    EXPECT_EQ(y.lifecycle_retrains, 0);
    EXPECT_EQ(y.wasted_decisions, 0);
  }
}

TEST(DeterminismTest, CodelReplayIsByteIdenticalAcrossThreads) {
  // The adaptive-CoDel arm must preserve the service-mode determinism
  // contract: in kVirtualSim clock mode every CoDel decision (demote rung,
  // early-drop shed, adaptive-target step) is a pure function of the
  // submission sequence, so an overloaded virtual model produces the same
  // shed pattern, the same merged outcomes, and the same codel counters
  // for 1, 2, and 8 workers.
  ExperimentEnv::Options options;
  options.workload = WorkloadId::kA;
  options.scale = 0.03;
  options.train.epochs = 1;
  options.train.max_train_samples = 800;
  Result<std::unique_ptr<ExperimentEnv>> env = ExperimentEnv::Build(options);
  ASSERT_TRUE(env.ok()) << env.status().ToString();
  const int num_jobs = static_cast<int>((*env)->workload().jobs.size());
  const int rounds = 4;

  struct Run {
    std::vector<bool> admitted;  // per submission, in submission order
    SimResult result;
    RoServiceStats stats;
  };
  auto run_with = [&](int threads) {
    SimOptions sim_options;
    sim_options.outcome = OutcomeMode::kEnvironment;
    sim_options.seed = 13;
    sim_options.service_threads = threads;

    RoServiceOptions service_options;
    // Capacity above the whole offered load: a full-queue shed would be
    // timing-dependent, so it must be structurally impossible — every
    // shed below is a (deterministic) CoDel early-drop.
    service_options.queue_capacity =
        static_cast<std::size_t>(rounds * num_jobs + 8);
    service_options.codel.enabled = true;
    service_options.codel_clock = CodelClockMode::kVirtualSim;
    service_options.codel.interval_seconds = 0.5;  // virtual seconds
    service_options.codel.theta0_count = 1;
    service_options.codel.fuxi_count = 2;
    service_options.codel.shed_count = 3;
    service_options.codel.protect_margin = 1;
    // Oversubscribed virtual model (2.5 arrivals/s vs 2 modeled servers of
    // 1s each): the virtual sojourn climbs until the shed rung engages,
    // sheds relieve the modeled backlog, and the cycle repeats — an
    // overload/recover oscillation exercising every rung.
    service_options.codel_virtual.interarrival_seconds = 0.4;
    service_options.codel_virtual.service_seconds = 1.0;
    service_options.codel_virtual.workers = 2;
    service_options.adaptive_target.enabled = true;
    service_options.adaptive_target.initial_target_seconds = 0.3;
    service_options.adaptive_target.min_target_seconds = 0.1;
    service_options.adaptive_target.max_target_seconds = 1.0;
    service_options.adaptive_target.window = 8;

    RoService service(&(*env)->workload(), &(*env)->model(), sim_options,
                      StageOptimizer::IpaRaaPathWithFallback(),
                      service_options);
    Run run;
    for (int r = 0; r < rounds; ++r) {
      for (int j = 0; j < num_jobs; ++j) {
        const Status status = service.Submit(
            j, j % 4 == 0 ? RequestPriority::kLatencySensitive
                          : RequestPriority::kBatch);
        if (!status.ok()) {
          EXPECT_EQ(status.code(), StatusCode::kResourceExhausted)
              << status.ToString();
        }
        run.admitted.push_back(status.ok());
      }
    }
    service.Drain();
    run.stats = service.Stats();
    run.result = service.TakeResult();
    return run;
  };

  const Run one = run_with(1);
  const Run two = run_with(2);
  const Run eight = run_with(8);

  auto expect_same = [](const Run& a, const Run& b) {
    // The shed pattern itself is part of the contract.
    ASSERT_EQ(a.admitted.size(), b.admitted.size());
    for (size_t i = 0; i < a.admitted.size(); ++i) {
      EXPECT_EQ(a.admitted[i], b.admitted[i]) << "submission " << i;
    }
    ASSERT_EQ(a.result.outcomes.size(), b.result.outcomes.size());
    for (size_t i = 0; i < a.result.outcomes.size(); ++i) {
      const StageOutcome& x = a.result.outcomes[i];
      const StageOutcome& y = b.result.outcomes[i];
      EXPECT_EQ(x.job_idx, y.job_idx);
      EXPECT_EQ(x.stage_idx, y.stage_idx);
      EXPECT_EQ(x.feasible, y.feasible);
      EXPECT_EQ(x.num_instances, y.num_instances);
      EXPECT_EQ(x.fallback, y.fallback);
      EXPECT_EQ(x.stage_latency, y.stage_latency);
      EXPECT_EQ(x.stage_cost, y.stage_cost);
      EXPECT_EQ(x.default_theta_cores, y.default_theta_cores);
    }
    EXPECT_EQ(a.stats.jobs_shed, b.stats.jobs_shed);
    EXPECT_EQ(a.stats.codel_shed_jobs, b.stats.codel_shed_jobs);
    EXPECT_EQ(a.stats.codel_theta0_jobs, b.stats.codel_theta0_jobs);
    EXPECT_EQ(a.stats.codel_fuxi_jobs, b.stats.codel_fuxi_jobs);
    EXPECT_EQ(a.stats.codel_interval_resets, b.stats.codel_interval_resets);
    EXPECT_EQ(a.stats.codel_target_adaptations,
              b.stats.codel_target_adaptations);
    EXPECT_EQ(a.stats.codel_target_ms, b.stats.codel_target_ms);
  };
  expect_same(one, two);
  expect_same(one, eight);

  // The control loop actually fired — sheds, demotions, episode resets,
  // and target adaptations all happened; this is not determinism of a
  // dormant controller.
  EXPECT_GT(one.stats.codel_shed_jobs, 0);
  EXPECT_GT(one.stats.codel_theta0_jobs + one.stats.codel_fuxi_jobs, 0);
  EXPECT_GT(one.stats.codel_interval_resets, 0);
  EXPECT_GT(one.stats.codel_target_adaptations, 0);
}

TEST(DeterminismTest, DisabledCodelConfigIsInertBitForBit) {
  // codel.enabled = false must take exactly the legacy service path: a
  // service carrying a fully-populated (but disabled) CoDel and adaptive-
  // target config produces the same merged result, bit for bit, as one
  // with default options — on any thread count.
  ExperimentEnv::Options options;
  options.workload = WorkloadId::kA;
  options.scale = 0.03;
  options.train.epochs = 1;
  options.train.max_train_samples = 800;
  Result<std::unique_ptr<ExperimentEnv>> env = ExperimentEnv::Build(options);
  ASSERT_TRUE(env.ok()) << env.status().ToString();

  auto run_with = [&](int threads, const RoServiceOptions& service_options) {
    SimOptions sim_options;
    sim_options.outcome = OutcomeMode::kEnvironment;
    sim_options.seed = 13;
    sim_options.service_threads = threads;
    Result<SimResult> result = ServeWorkload(
        (*env)->workload(), &(*env)->model(), sim_options,
        StageOptimizer::IpaRaaPathWithFallback(), service_options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  };

  RoServiceOptions loaded;
  loaded.codel.enabled = false;  // the one switch that matters
  loaded.codel.target_seconds = 0.001;
  loaded.codel.shed_count = 1;
  loaded.codel_clock = CodelClockMode::kVirtualSim;
  loaded.codel_virtual.interarrival_seconds = 0.01;  // savagely overloaded
  loaded.codel_virtual.service_seconds = 10.0;
  loaded.adaptive_target.enabled = true;  // forced off without codel

  const SimResult plain = run_with(2, RoServiceOptions{});
  const SimResult carrying = run_with(8, loaded);
  ASSERT_EQ(plain.outcomes.size(), carrying.outcomes.size());
  for (size_t i = 0; i < plain.outcomes.size(); ++i) {
    const StageOutcome& x = plain.outcomes[i];
    const StageOutcome& y = carrying.outcomes[i];
    EXPECT_EQ(x.job_idx, y.job_idx);
    EXPECT_EQ(x.stage_idx, y.stage_idx);
    EXPECT_EQ(x.feasible, y.feasible);
    EXPECT_EQ(x.num_instances, y.num_instances);
    EXPECT_EQ(x.fallback, y.fallback);
    EXPECT_EQ(x.stage_latency, y.stage_latency);
    EXPECT_EQ(x.stage_cost, y.stage_cost);
    EXPECT_EQ(x.default_theta_cores, y.default_theta_cores);
  }
}

TEST(DeterminismTest, TrainingIsReproducible) {
  ExperimentEnv::Options options;
  options.workload = WorkloadId::kA;
  options.scale = 0.03;
  options.train.epochs = 2;
  options.train.max_train_samples = 1200;
  Result<std::unique_ptr<ExperimentEnv>> e1 = ExperimentEnv::Build(options);
  Result<std::unique_ptr<ExperimentEnv>> e2 = ExperimentEnv::Build(options);
  ASSERT_TRUE(e1.ok() && e2.ok());
  Result<std::vector<double>> p1 = (*e1)->TestPredictions();
  Result<std::vector<double>> p2 = (*e2)->TestPredictions();
  ASSERT_TRUE(p1.ok() && p2.ok());
  ASSERT_EQ(p1->size(), p2->size());
  for (size_t i = 0; i < p1->size(); i += 17) {
    EXPECT_DOUBLE_EQ((*p1)[i], (*p2)[i]);
  }
}

}  // namespace
}  // namespace fgro
