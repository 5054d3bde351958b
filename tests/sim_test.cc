#include <gtest/gtest.h>

#include <memory>

#include "optimizer/fuxi.h"
#include "optimizer/stage_optimizer.h"
#include "sim/dependency_manager.h"
#include "sim/experiment_env.h"
#include "sim/ro_metrics.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace fgro {
namespace {

Job MakeDiamondJob() {
  Job job;
  job.stages.resize(4);
  for (int s = 0; s < 4; ++s) {
    job.stages[static_cast<size_t>(s)] = testing_util::MakeChainStage();
  }
  job.stage_deps = {{}, {0}, {0}, {1, 2}};
  return job;
}

TEST(DependencyManagerTest, ReleasesInDependencyOrder) {
  Job job = MakeDiamondJob();
  StageDependencyManager deps(job);
  EXPECT_EQ(deps.PopReadyStages(), (std::vector<int>{0}));
  EXPECT_TRUE(deps.PopReadyStages().empty());  // released only once
  deps.MarkCompleted(0);
  EXPECT_EQ(deps.PopReadyStages(), (std::vector<int>{1, 2}));
  deps.MarkCompleted(1);
  EXPECT_TRUE(deps.PopReadyStages().empty());  // stage 3 waits on 2
  deps.MarkCompleted(2);
  EXPECT_EQ(deps.PopReadyStages(), (std::vector<int>{3}));
  deps.MarkCompleted(3);
  EXPECT_TRUE(deps.AllCompleted());
}

TEST(DependencyManagerTest, DetectsCyclicDag) {
  // 0 -> 1 -> 2 -> 1: a replay of this job would deadlock silently. The
  // manager must flag it at construction instead.
  Job job;
  job.stages.resize(3);
  for (int s = 0; s < 3; ++s) {
    job.stages[static_cast<size_t>(s)] = testing_util::MakeChainStage();
  }
  job.stage_deps = {{}, {0, 2}, {1}};
  StageDependencyManager deps(job);
  EXPECT_FALSE(deps.ok());
  EXPECT_EQ(deps.status().code(), StatusCode::kFailedPrecondition);

  Job acyclic = MakeDiamondJob();
  EXPECT_TRUE(StageDependencyManager(acyclic).ok());
}

TEST(DependencyManagerTest, SelfLoopIsACycle) {
  Job job;
  job.stages.resize(1);
  job.stages[0] = testing_util::MakeChainStage();
  job.stage_deps = {{0}};
  StageDependencyManager deps(job);
  EXPECT_FALSE(deps.ok());
  EXPECT_EQ(deps.status().code(), StatusCode::kFailedPrecondition);
}

TEST(DependencyManagerTest, DoubleCompleteIsIdempotent) {
  Job job = MakeDiamondJob();
  StageDependencyManager deps(job);
  deps.PopReadyStages();
  deps.MarkCompleted(0);
  deps.MarkCompleted(0);
  EXPECT_EQ(deps.PopReadyStages().size(), 2u);
  EXPECT_FALSE(deps.AllCompleted());
}

TEST(RoMetricsTest, SummarizeAggregates) {
  SimResult result;
  StageOutcome ok1;
  ok1.feasible = true;
  ok1.stage_latency = 10;
  ok1.stage_latency_in = 11;
  ok1.stage_cost = 2;
  ok1.solve_seconds = 1.0;
  StageOutcome ok2 = ok1;
  ok2.stage_latency = 30;
  ok2.stage_latency_in = 31;
  ok2.stage_cost = 4;
  ok2.solve_seconds = 0.5;
  StageOutcome failed;
  failed.feasible = false;
  failed.solve_seconds = 60.0;
  result.outcomes = {ok1, ok2, failed};
  RoSummary s = Summarize(result);
  EXPECT_EQ(s.num_stages, 3);
  EXPECT_EQ(s.feasible_stages, 2);
  EXPECT_NEAR(s.coverage, 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.avg_latency, 20.0);
  EXPECT_DOUBLE_EQ(s.avg_latency_in, 21.0);
  EXPECT_DOUBLE_EQ(s.avg_cost, 3.0);
  EXPECT_DOUBLE_EQ(s.max_solve_ms, 60000.0);
}

TEST(RoMetricsTest, ReductionRates) {
  RoSummary base;
  base.avg_latency = 100;
  base.avg_latency_in = 110;
  base.avg_cost = 10;
  RoSummary method;
  method.avg_latency = 50;
  method.avg_latency_in = 66;
  method.avg_cost = 8;
  ReductionRates rr = ComputeReduction(base, method);
  EXPECT_DOUBLE_EQ(rr.latency_rr, 0.5);
  EXPECT_DOUBLE_EQ(rr.latency_in_rr, 0.4);
  EXPECT_NEAR(rr.cost_rr, 0.2, 1e-12);
}

TEST(RoMetricsTest, ZeroBaselineIsSafe) {
  ReductionRates rr = ComputeReduction(RoSummary{}, RoSummary{});
  EXPECT_DOUBLE_EQ(rr.latency_rr, 0.0);
  EXPECT_DOUBLE_EQ(rr.cost_rr, 0.0);
}

class SimulatorFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ExperimentEnv::Options options;
    options.workload = WorkloadId::kA;
    options.scale = 0.04;
    options.train.epochs = 2;
    options.train.max_train_samples = 3000;
    options.seed = 66;
    Result<std::unique_ptr<ExperimentEnv>> env = ExperimentEnv::Build(options);
    ASSERT_TRUE(env.ok()) << env.status().ToString();
    env_ = std::move(env).value().release();
  }

  static ExperimentEnv* env_;
};

ExperimentEnv* SimulatorFixture::env_ = nullptr;

TEST_F(SimulatorFixture, ReplaysEveryStage) {
  SimOptions options;
  options.outcome = OutcomeMode::kEnvironment;
  Simulator sim(&env_->workload(), &env_->model(), options);
  Result<SimResult> result =
      sim.Run([](const SchedulingContext& c) { return FuxiSchedule(c); });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(static_cast<int>(result->outcomes.size()),
            env_->workload().TotalStages());
  for (const StageOutcome& o : result->outcomes) {
    if (!o.feasible) continue;
    EXPECT_GT(o.stage_latency, 0.0);
    EXPECT_GE(o.stage_latency_in, o.stage_latency);
    EXPECT_GT(o.stage_cost, 0.0);
  }
}

TEST_F(SimulatorFixture, NoiseFreeOutcomeEqualsPrediction) {
  SimOptions options;
  options.outcome = OutcomeMode::kNoiseFree;
  Simulator sim(&env_->workload(), &env_->model(), options);
  Result<SimResult> a =
      sim.Run([](const SchedulingContext& c) { return FuxiSchedule(c); });
  Simulator sim2(&env_->workload(), &env_->model(), options);
  Result<SimResult> b =
      sim2.Run([](const SchedulingContext& c) { return FuxiSchedule(c); });
  ASSERT_TRUE(a.ok() && b.ok());
  // Noise-free replay is deterministic.
  ASSERT_EQ(a->outcomes.size(), b->outcomes.size());
  for (size_t i = 0; i < a->outcomes.size(); ++i) {
    EXPECT_DOUBLE_EQ(a->outcomes[i].stage_latency,
                     b->outcomes[i].stage_latency);
  }
}

TEST_F(SimulatorFixture, GprModeRequiresFittedModel) {
  SimOptions options;
  options.outcome = OutcomeMode::kGprNoise;
  Simulator sim(&env_->workload(), &env_->model(), options);
  Result<SimResult> result =
      sim.Run([](const SchedulingContext& c) { return FuxiSchedule(c); });
  EXPECT_FALSE(result.ok());
}

TEST_F(SimulatorFixture, GprModeRunsWithFittedModel) {
  Result<std::vector<double>> preds = env_->TestPredictions();
  Result<std::vector<double>> actual = env_->TestActuals();
  ASSERT_TRUE(preds.ok());
  GprNoiseModel gpr;
  ASSERT_TRUE(gpr.Fit(preds.value(), actual.value()).ok());
  SimOptions options;
  options.outcome = OutcomeMode::kGprNoise;
  options.gpr = &gpr;
  Simulator sim(&env_->workload(), &env_->model(), options);
  Result<SimResult> result =
      sim.Run([](const SchedulingContext& c) { return FuxiSchedule(c); });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (const StageOutcome& o : result->outcomes) {
    if (o.feasible) {
      EXPECT_GT(o.stage_latency, 0.0);
    }
  }
}

TEST_F(SimulatorFixture, RunJobsSubset) {
  SimOptions options;
  Simulator sim(&env_->workload(), &env_->model(), options);
  Result<SimResult> result = sim.RunJobs(
      [](const SchedulingContext& c) { return FuxiSchedule(c); }, {0, 1});
  ASSERT_TRUE(result.ok());
  int expected = env_->workload().jobs[0].stage_count() +
                 env_->workload().jobs[1].stage_count();
  EXPECT_EQ(static_cast<int>(result->outcomes.size()), expected);
}

TEST_F(SimulatorFixture, InstanceDetailRetainedOnRequest) {
  SimOptions options;
  Simulator sim(&env_->workload(), &env_->model(), options);
  Result<SimResult> result = sim.RunJobs(
      [](const SchedulingContext& c) { return FuxiSchedule(c); }, {0},
      /*keep_instance_detail=*/true);
  ASSERT_TRUE(result.ok());
  for (const StageOutcome& o : result->outcomes) {
    if (!o.feasible) continue;
    EXPECT_EQ(static_cast<int>(o.instance_latencies.size()),
              o.num_instances);
    EXPECT_EQ(static_cast<int>(o.instance_thetas.size()), o.num_instances);
  }
}

TEST_F(SimulatorFixture, StageOptimizerBeatsFuxiEndToEnd) {
  SimOptions options;
  options.outcome = OutcomeMode::kEnvironment;
  Simulator sim(&env_->workload(), &env_->model(), options);
  Result<SimResult> fuxi =
      sim.Run([](const SchedulingContext& c) { return FuxiSchedule(c); });
  StageOptimizer so(StageOptimizer::IpaRaaPath());
  Simulator sim2(&env_->workload(), &env_->model(), options);
  Result<SimResult> ours =
      sim2.Run([&](const SchedulingContext& c) { return so.Optimize(c); });
  ASSERT_TRUE(fuxi.ok() && ours.ok());
  RoSummary fuxi_summary = Summarize(fuxi.value());
  RoSummary our_summary = Summarize(ours.value());
  ReductionRates rr = ComputeReduction(fuxi_summary, our_summary);
  // The headline result, at smoke-test scale: both objectives improve.
  EXPECT_GT(rr.latency_in_rr, 0.0);
  EXPECT_GT(rr.cost_rr, 0.0);
}

TEST(SimulatorCycleTest, CyclicJobFailsPreconditionInsteadOfDeadlocking) {
  Workload workload;
  Job job;
  job.stages.resize(2);
  job.stages[0] = testing_util::MakeChainStage();
  job.stages[1] = testing_util::MakeChainStage();
  job.stage_deps = {{1}, {0}};
  workload.jobs.push_back(job);
  SimOptions options;
  options.outcome = OutcomeMode::kEnvironment;
  Simulator sim(&workload, nullptr, options);
  Result<SimResult> result =
      sim.Run([](const SchedulingContext& c) { return FuxiSchedule(c); });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ExperimentEnvTest, BuildWiresDatasetToWorkload) {
  ExperimentEnv::Options options;
  options.workload = WorkloadId::kB;
  options.scale = 0.03;
  options.train_model = false;
  Result<std::unique_ptr<ExperimentEnv>> env = ExperimentEnv::Build(options);
  ASSERT_TRUE(env.ok());
  EXPECT_EQ((*env)->dataset().workload, &(*env)->workload());
  EXPECT_FALSE((*env)->model().trained());
  EXPECT_GT((*env)->dataset().records.size(), 0u);
}

}  // namespace
}  // namespace fgro
