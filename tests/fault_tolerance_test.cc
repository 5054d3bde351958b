// Fault-injection and fault-tolerance tests: deterministic fault schedules,
// machine liveness, the retry/failover/speculation machinery inside the
// simulator, and the optimizer's graceful-degradation ladder.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "common/circuit_breaker.h"
#include "common/retry.h"
#include "model/drift_watchdog.h"
#include "optimizer/fuxi.h"
#include "optimizer/stage_optimizer.h"
#include "sim/experiment_env.h"
#include "sim/fault_injector.h"
#include "sim/ro_metrics.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace fgro {
namespace {

FaultOptions HeavyFaults() {
  FaultOptions faults;
  faults.enabled = true;
  faults.machine_failure_rate_per_day = 8.0;
  faults.machine_recovery_seconds = 900.0;
  faults.instance_failure_prob = 0.10;
  faults.straggler_prob = 0.05;
  faults.straggler_slowdown = 5.0;
  faults.model_outage_rate_per_day = 12.0;
  faults.model_outage_seconds = 3600.0;
  faults.seed = 41;
  return faults;
}

TEST(FaultInjectorTest, DisabledInjectsNothing) {
  FaultOptions faults;  // enabled = false
  FaultInjector injector(faults, 16);
  EXPECT_FALSE(injector.active());
  EXPECT_TRUE(injector.MachineUp(3, 12345.0));
  EXPECT_TRUE(injector.ModelAvailable(12345.0));
  EXPECT_FALSE(injector.InstanceFails(0, 0, 0, 1));
  EXPECT_DOUBLE_EQ(injector.StragglerMultiplier(0, 0, 0, 1), 1.0);
  // enabled but all rates zero is also inactive.
  faults.enabled = true;
  EXPECT_FALSE(FaultInjector(faults, 16).active());
}

TEST(FaultInjectorTest, SchedulesAreSeedDeterministic) {
  FaultOptions faults = HeavyFaults();
  FaultInjector a(faults, 32), b(faults, 32);
  ASSERT_EQ(a.machine_windows().size(), b.machine_windows().size());
  for (size_t m = 0; m < a.machine_windows().size(); ++m) {
    ASSERT_EQ(a.machine_windows()[m].size(), b.machine_windows()[m].size());
    for (size_t w = 0; w < a.machine_windows()[m].size(); ++w) {
      EXPECT_DOUBLE_EQ(a.machine_windows()[m][w].start,
                       b.machine_windows()[m][w].start);
      EXPECT_DOUBLE_EQ(a.machine_windows()[m][w].end,
                       b.machine_windows()[m][w].end);
    }
  }
  for (int attempt = 1; attempt <= 4; ++attempt) {
    EXPECT_EQ(a.InstanceFails(3, 1, 7, attempt),
              b.InstanceFails(3, 1, 7, attempt));
    EXPECT_DOUBLE_EQ(a.StragglerMultiplier(3, 1, 7, attempt),
                     b.StragglerMultiplier(3, 1, 7, attempt));
    EXPECT_DOUBLE_EQ(a.FailurePointFraction(3, 1, 7, attempt),
                     b.FailurePointFraction(3, 1, 7, attempt));
  }
  FaultOptions other = faults;
  other.seed = 42;
  FaultInjector c(other, 32);
  bool any_diff = false;
  for (size_t m = 0; m < 32 && !any_diff; ++m) {
    if (a.machine_windows()[m].size() != c.machine_windows()[m].size()) {
      any_diff = true;
    }
  }
  for (int i = 0; i < 200 && !any_diff; ++i) {
    if (a.InstanceFails(0, 0, i, 1) != c.InstanceFails(0, 0, i, 1)) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(FaultInjectorTest, WindowsDriveLivenessQueries) {
  FaultOptions faults = HeavyFaults();
  FaultInjector injector(faults, 8);
  bool saw_window = false;
  for (int m = 0; m < 8; ++m) {
    for (const FaultWindow& w : injector.machine_windows()[m]) {
      saw_window = true;
      EXPECT_FALSE(injector.MachineUp(m, (w.start + w.end) / 2.0));
      EXPECT_TRUE(injector.MachineUp(m, w.start - 1.0));
      EXPECT_DOUBLE_EQ(
          injector.MachineRecoveryTime(m, (w.start + w.end) / 2.0), w.end);
      double crash_at = 0.0;
      EXPECT_TRUE(
          injector.MachineCrashesWithin(m, w.start - 5.0, 10.0, &crash_at));
      EXPECT_DOUBLE_EQ(crash_at, w.start);
    }
  }
  EXPECT_TRUE(saw_window);  // 8 machines x 8 crashes/day x 7 days
  bool saw_outage = false;
  for (const FaultWindow& w : injector.model_windows()) {
    saw_outage = true;
    EXPECT_FALSE(injector.ModelAvailable(w.start));
    EXPECT_TRUE(injector.ModelAvailable(w.end));
  }
  EXPECT_TRUE(saw_outage);
}

TEST(FaultInjectorTest, FailureRateRoughlyMatchesProbability) {
  FaultOptions faults;
  faults.enabled = true;
  faults.instance_failure_prob = 0.2;
  FaultInjector injector(faults, 1);
  int failures = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (injector.InstanceFails(0, 0, i, 1)) ++failures;
  }
  EXPECT_NEAR(static_cast<double>(failures) / n, 0.2, 0.02);
}

TEST(MachineLivenessTest, DownMachineFitsNothing) {
  Machine machine(0, &DefaultHardwareCatalog()[0], 0.3, 1);
  ASSERT_TRUE(machine.up());
  ASSERT_TRUE(machine.CanFit({1, 1}));
  machine.SetUp(false);
  EXPECT_FALSE(machine.CanFit({1, 1}));
  EXPECT_FALSE(machine.Allocate({1, 1}));
  machine.SetUp(true);
  EXPECT_TRUE(machine.CanFit({1, 1}));
}

TEST(MachineLivenessTest, ClusterExcludesDownMachines) {
  Cluster cluster(ClusterOptions{.num_machines = 8, .seed = 3});
  EXPECT_EQ(cluster.UpMachineCount(), 8);
  size_t all = cluster.AvailableMachines({1, 1}).size();
  cluster.machine(2).SetUp(false);
  cluster.machine(5).SetUp(false);
  EXPECT_EQ(cluster.UpMachineCount(), 6);
  std::vector<int> available = cluster.AvailableMachines({1, 1});
  EXPECT_EQ(available.size(), all - 2);
  for (int id : available) {
    EXPECT_NE(id, 2);
    EXPECT_NE(id, 5);
  }
}

class FaultSimFixture : public ::testing::Test {
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

ExperimentEnv* FaultSimFixture::env_ = nullptr;

TEST_F(FaultSimFixture, FaultyReplayRetriesAndChargesWaste) {
  SimOptions options;
  options.outcome = OutcomeMode::kEnvironment;
  options.faults = HeavyFaults();
  Simulator sim(&env_->workload(), &env_->model(), options);
  Result<SimResult> result =
      sim.Run([](const SchedulingContext& c) { return FuxiSchedule(c); });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  RoSummary s = Summarize(result.value());
  EXPECT_EQ(s.num_stages, env_->workload().TotalStages());
  // At 10% per-attempt failure over hundreds of instances, retries and
  // wasted work are statistically certain.
  EXPECT_GT(s.total_retries, 0);
  EXPECT_GT(s.total_wasted_cost, 0.0);
  EXPECT_LT(s.goodput, 1.0);
  EXPECT_GT(s.goodput, 0.5);  // retries keep most work useful
  // Retries mostly succeed: coverage stays high.
  EXPECT_GT(s.coverage, 0.8);
  for (const StageOutcome& o : result->outcomes) {
    EXPECT_LE(o.wasted_cost, o.stage_cost + 1e-12);
    if (o.feasible) {
      EXPECT_EQ(o.failed_instances, 0);
    }
  }
}

TEST_F(FaultSimFixture, SpeculationOnlyModeWinsSomeCopies) {
  SimOptions options;
  options.outcome = OutcomeMode::kEnvironment;
  options.faults.enabled = true;
  options.faults.straggler_prob = 0.15;
  options.faults.straggler_slowdown = 8.0;
  options.faults.speculative_threshold = 1.5;
  options.faults.seed = 7;
  Simulator sim(&env_->workload(), &env_->model(), options);
  Result<SimResult> result =
      sim.Run([](const SchedulingContext& c) { return FuxiSchedule(c); });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  RoSummary s = Summarize(result.value());
  EXPECT_GT(s.speculative_copies, 0);
  // An 8x straggler is nearly always beaten by a fresh copy.
  EXPECT_GT(s.speculative_wins, 0);
  EXPECT_LE(s.speculative_wins, s.speculative_copies);
  EXPECT_GT(s.total_wasted_cost, 0.0);
}

TEST_F(FaultSimFixture, SpeculationCanBeDisabled) {
  SimOptions options;
  options.outcome = OutcomeMode::kEnvironment;
  options.faults.enabled = true;
  options.faults.straggler_prob = 0.15;
  options.faults.straggler_slowdown = 8.0;
  options.faults.speculative_execution = false;
  options.faults.seed = 7;
  Simulator sim(&env_->workload(), &env_->model(), options);
  Result<SimResult> result =
      sim.Run([](const SchedulingContext& c) { return FuxiSchedule(c); });
  ASSERT_TRUE(result.ok());
  RoSummary s = Summarize(result.value());
  EXPECT_EQ(s.speculative_copies, 0);
  EXPECT_EQ(s.speculative_wins, 0);
}

TEST_F(FaultSimFixture, FallbackLadderCoversModelOutage) {
  // Model unavailable for the entire replay: every stage must still get a
  // feasible decision, all of them from a fallback rung.
  SimOptions options;
  options.outcome = OutcomeMode::kEnvironment;
  options.faults.enabled = true;
  options.faults.model_outage_rate_per_day = 2000.0;  // wall-to-wall outage
  options.faults.model_outage_seconds = 86400.0;
  options.faults.seed = 11;
  StageOptimizer so(StageOptimizer::IpaRaaPathWithFallback());
  Simulator sim(&env_->workload(), &env_->model(), options);
  Result<SimResult> result =
      sim.Run([&](const SchedulingContext& c) { return so.Optimize(c); });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  RoSummary s = Summarize(result.value());
  EXPECT_GT(s.coverage, 0.95);
  EXPECT_EQ(s.fallback_histogram[0], 0);  // primary never ran
  EXPECT_GT(s.fallback_histogram[2], 0);  // Fuxi rung took the stages
  for (const StageOutcome& o : result->outcomes) {
    EXPECT_TRUE(o.feasible) << "job " << o.job_idx << " stage "
                            << o.stage_idx;
    EXPECT_NE(o.fallback, FallbackLevel::kPrimary);
  }
}

TEST_F(FaultSimFixture, IntermittentOutageMixesLadderLevels) {
  // Outages covering roughly half the clock: primary and fallback rungs
  // must both appear, and every stage stays feasible.
  SimOptions options;
  options.outcome = OutcomeMode::kEnvironment;
  options.faults.enabled = true;
  options.faults.model_outage_rate_per_day = 24.0;
  options.faults.model_outage_seconds = 1800.0;
  options.faults.seed = 5;
  StageOptimizer so(StageOptimizer::IpaRaaPathWithFallback());
  Simulator sim(&env_->workload(), &env_->model(), options);
  Result<SimResult> result =
      sim.Run([&](const SchedulingContext& c) { return so.Optimize(c); });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  RoSummary s = Summarize(result.value());
  EXPECT_GT(s.fallback_histogram[0], 0);
  EXPECT_GT(s.fallback_histogram[2], 0);
  EXPECT_GT(s.coverage, 0.95);
}

TEST_F(FaultSimFixture, NullModelDegradesToFuxiInsteadOfCrashing) {
  SchedulingContext context;
  Cluster cluster(ClusterOptions{.num_machines = 16, .seed = 9});
  Stage stage = testing_util::MakeChainStage(4);
  Hbo hbo;
  context.stage = &stage;
  context.cluster = &cluster;
  context.model = nullptr;  // no model at all
  context.theta0 = hbo.Recommend(stage).theta0;
  StageOptimizer so(StageOptimizer::IpaRaaPathWithFallback());
  StageDecision decision = so.Optimize(context);
  EXPECT_TRUE(decision.feasible);
  EXPECT_EQ(decision.fallback, FallbackLevel::kFuxi);
}

TEST_F(FaultSimFixture, SolveBudgetOverrunFallsBackToTheta0) {
  Cluster cluster(ClusterOptions{.num_machines = 16, .seed = 9});
  const Stage& stage = env_->workload().jobs[0].stages[0];
  Hbo hbo;
  SchedulingContext context;
  context.stage = &stage;
  context.cluster = &cluster;
  context.model = &env_->model();
  context.theta0 = hbo.Recommend(stage).theta0;
  // A budget no real solve can meet: the ladder must degrade, not fail.
  context.ro_time_limit_seconds = 0.0;
  StageOptimizer so(StageOptimizer::IpaRaaPathWithFallback());
  StageDecision decision = so.Optimize(context);
  EXPECT_TRUE(decision.feasible);
  EXPECT_NE(decision.fallback, FallbackLevel::kPrimary);
  if (decision.fallback == FallbackLevel::kTheta0) {
    for (const ResourceConfig& theta : decision.theta_of_instance) {
      EXPECT_TRUE(theta == context.theta0);
    }
  }
}

TEST(CircuitBreakerTest, TripsAfterThresholdConsecutiveFailures) {
  CircuitBreakerOptions options;
  options.enabled = true;
  options.failure_threshold = 3;
  options.open_seconds = 30.0;
  CircuitBreaker breaker(options);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.AllowRequest(0.0));
  breaker.RecordFailure(0.0);
  breaker.RecordFailure(1.0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.AllowRequest(1.5));
  breaker.RecordFailure(2.0);  // third consecutive failure trips it
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 1);
  EXPECT_FALSE(breaker.AllowRequest(3.0));
  EXPECT_FALSE(breaker.AllowRequest(20.0));
  EXPECT_EQ(breaker.short_circuits(), 2);
}

TEST(CircuitBreakerTest, SuccessResetsConsecutiveFailures) {
  CircuitBreakerOptions options;
  options.failure_threshold = 3;
  CircuitBreaker breaker(options);
  breaker.RecordFailure(0.0);
  breaker.RecordFailure(1.0);
  breaker.RecordSuccess(2.0);  // streak broken
  breaker.RecordFailure(3.0);
  breaker.RecordFailure(4.0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.trips(), 0);
  breaker.RecordFailure(5.0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
}

TEST(CircuitBreakerTest, HalfOpenProbeSuccessCloses) {
  CircuitBreakerOptions options;
  options.failure_threshold = 2;
  options.open_seconds = 30.0;
  CircuitBreaker breaker(options);
  breaker.RecordFailure(0.0);
  breaker.RecordFailure(1.0);  // trips at t=1
  ASSERT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.AllowRequest(30.0));  // cooldown not elapsed yet
  EXPECT_TRUE(breaker.AllowRequest(31.5));   // half-open probe allowed
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  breaker.RecordSuccess(31.6);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.recoveries(), 1);
  EXPECT_TRUE(breaker.AllowRequest(32.0));
}

TEST(CircuitBreakerTest, HalfOpenProbeFailureReopensAndRestartsCooldown) {
  CircuitBreakerOptions options;
  options.failure_threshold = 2;
  options.open_seconds = 30.0;
  CircuitBreaker breaker(options);
  breaker.RecordFailure(0.0);
  breaker.RecordFailure(1.0);
  EXPECT_TRUE(breaker.AllowRequest(40.0));  // half-open
  breaker.RecordFailure(40.0);              // probe fails: re-open
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.trips(), 2);
  EXPECT_EQ(breaker.recoveries(), 0);
  // Cooldown restarts from the re-trip, not the original trip.
  EXPECT_FALSE(breaker.AllowRequest(60.0));
  EXPECT_TRUE(breaker.AllowRequest(71.0));
}

TEST(CircuitBreakerTest, OnlyTransientCodesCountAsFailures) {
  EXPECT_TRUE(CircuitBreaker::CountsAsFailure(Status::Unavailable("down")));
  EXPECT_TRUE(
      CircuitBreaker::CountsAsFailure(Status::DeadlineExceeded("slow")));
  EXPECT_FALSE(CircuitBreaker::CountsAsFailure(Status::OK()));
  EXPECT_FALSE(
      CircuitBreaker::CountsAsFailure(Status::InvalidArgument("caller bug")));
  EXPECT_FALSE(CircuitBreaker::CountsAsFailure(Status::Internal("bug")));

  CircuitBreakerOptions options;
  options.failure_threshold = 1;
  CircuitBreaker breaker(options);
  // A caller bug is routed to neither success nor failure.
  breaker.Record(Status::InvalidArgument("bad input"), 0.0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 0);
  breaker.Record(Status::Unavailable("down"), 1.0);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
}

TEST_F(FaultSimFixture, BreakerOpensWithinThresholdDuringOutage) {
  // Wall-to-wall model outage with the breaker on: the first
  // `failure_threshold` stages burn a probe each, the trip lands exactly on
  // the threshold-th stage, and every stage after it short-circuits (until
  // a half-open probe, which also fails here). All stages stay feasible on
  // fallback rungs the whole time.
  SimOptions options;
  options.outcome = OutcomeMode::kEnvironment;
  options.faults.enabled = true;
  options.faults.model_outage_rate_per_day = 2000.0;
  options.faults.model_outage_seconds = 86400.0;
  options.faults.model_breaker.enabled = true;
  options.faults.model_breaker.failure_threshold = 3;
  options.faults.model_breaker.open_seconds = 600.0;
  options.faults.seed = 11;
  StageOptimizer so(StageOptimizer::IpaRaaPathWithFallback());
  Simulator sim(&env_->workload(), &env_->model(), options);
  Result<SimResult> result =
      sim.Run([&](const SchedulingContext& c) { return so.Optimize(c); });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::vector<StageOutcome>& outcomes = result->outcomes;
  ASSERT_GE(outcomes.size(), 4u);
  // Trip on the third failed probe, never earlier.
  EXPECT_FALSE(outcomes[0].breaker_tripped);
  EXPECT_FALSE(outcomes[0].model_short_circuited);
  EXPECT_FALSE(outcomes[1].breaker_tripped);
  EXPECT_FALSE(outcomes[1].model_short_circuited);
  EXPECT_TRUE(outcomes[2].breaker_tripped);
  RoSummary s = Summarize(result.value());
  EXPECT_GE(s.breaker_trips, 1);
  EXPECT_GT(s.breaker_short_circuits, 0);
  EXPECT_EQ(s.breaker_recoveries, 0);  // the outage never lifts
  EXPECT_EQ(s.fallback_histogram[0], 0);
  EXPECT_GT(s.fallback_histogram[2], 0);
  EXPECT_GT(s.coverage, 0.95);
  for (const StageOutcome& o : outcomes) {
    EXPECT_NE(o.fallback, FallbackLevel::kPrimary);
  }
}

TEST_F(FaultSimFixture, BreakerRecoversViaHalfOpenProbe) {
  // Intermittent outages: the breaker must trip during an outage window and
  // close again via a successful half-open probe once the window lifts.
  SimOptions options;
  options.outcome = OutcomeMode::kEnvironment;
  options.faults.enabled = true;
  options.faults.model_outage_rate_per_day = 24.0;
  options.faults.model_outage_seconds = 1800.0;
  options.faults.model_breaker.enabled = true;
  options.faults.model_breaker.failure_threshold = 2;
  options.faults.model_breaker.open_seconds = 300.0;
  options.faults.seed = 5;
  StageOptimizer so(StageOptimizer::IpaRaaPathWithFallback());
  Simulator sim(&env_->workload(), &env_->model(), options);
  Result<SimResult> result =
      sim.Run([&](const SchedulingContext& c) { return so.Optimize(c); });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  RoSummary s = Summarize(result.value());
  EXPECT_GE(s.breaker_trips, 1);
  EXPECT_GE(s.breaker_recoveries, 1);
  // Recovery means the primary rung comes back after the trip.
  long last_trip = -1, last_primary = -1;
  for (size_t i = 0; i < result->outcomes.size(); ++i) {
    if (result->outcomes[i].breaker_tripped) {
      if (last_trip < 0) last_trip = static_cast<long>(i);
    }
    if (result->outcomes[i].fallback == FallbackLevel::kPrimary) {
      last_primary = static_cast<long>(i);
    }
  }
  EXPECT_GE(last_trip, 0);
  EXPECT_GT(last_primary, last_trip);
  EXPECT_GT(s.coverage, 0.95);
}

TEST_F(FaultSimFixture, BreakerReplayIsByteIdentical) {
  // Fixed seed + breaker on: two replays must agree on every outcome field,
  // including the breaker bookkeeping (the breaker's injected clock is sim
  // time, so no wall-clock leaks in).
  SimOptions options;
  options.outcome = OutcomeMode::kEnvironment;
  options.faults = HeavyFaults();
  options.faults.model_breaker.enabled = true;
  options.faults.model_breaker.failure_threshold = 2;
  options.faults.model_breaker.open_seconds = 600.0;
  StageOptimizer so_a(StageOptimizer::IpaRaaPathWithFallback());
  StageOptimizer so_b(StageOptimizer::IpaRaaPathWithFallback());
  Simulator sim_a(&env_->workload(), &env_->model(), options);
  Simulator sim_b(&env_->workload(), &env_->model(), options);
  Result<SimResult> a =
      sim_a.Run([&](const SchedulingContext& c) { return so_a.Optimize(c); });
  Result<SimResult> b =
      sim_b.Run([&](const SchedulingContext& c) { return so_b.Optimize(c); });
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->outcomes.size(), b->outcomes.size());
  for (size_t i = 0; i < a->outcomes.size(); ++i) {
    const StageOutcome& x = a->outcomes[i];
    const StageOutcome& y = b->outcomes[i];
    EXPECT_EQ(x.feasible, y.feasible);
    EXPECT_EQ(x.fallback, y.fallback);
    EXPECT_EQ(x.model_short_circuited, y.model_short_circuited);
    EXPECT_EQ(x.breaker_tripped, y.breaker_tripped);
    EXPECT_EQ(x.breaker_recovered, y.breaker_recovered);
    EXPECT_EQ(x.retries, y.retries);
    EXPECT_EQ(x.failovers, y.failovers);
    EXPECT_DOUBLE_EQ(x.stage_latency, y.stage_latency);
    EXPECT_DOUBLE_EQ(x.stage_cost, y.stage_cost);
    EXPECT_DOUBLE_EQ(x.wasted_cost, y.wasted_cost);
  }
}

TEST(DriftWatchdogTest, CalibratedModelNeverAlarms) {
  DriftWatchdogOptions options;
  options.enabled = true;
  options.window_size = 8;
  options.min_samples = 4;
  DriftWatchdog watchdog(options, 5);
  for (int i = 0; i < 100; ++i) {
    watchdog.Observe(i % 5, 10.0, 10.0 * (1.0 + 0.05 * ((i % 3) - 1)));
  }
  EXPECT_FALSE(watchdog.alarmed());
  EXPECT_EQ(watchdog.alarms_raised(), 0);
  EXPECT_LT(watchdog.WorstMedianQError(), 1.2);
}

TEST(DriftWatchdogTest, SustainedDriftAlarmsAndRecoversWithHysteresis) {
  DriftWatchdogOptions options;
  options.enabled = true;
  options.window_size = 8;
  options.min_samples = 4;
  options.alarm_qerror = 2.0;
  options.recover_qerror = 1.5;
  DriftWatchdog watchdog(options, 5);
  // Calibrated prefix on one hardware type.
  for (int i = 0; i < 8; ++i) watchdog.Observe(0, 1.0, 1.0);
  EXPECT_FALSE(watchdog.alarmed());
  // 3x drift: the window median crosses 2.0 once drifted entries dominate.
  for (int i = 0; i < 8; ++i) watchdog.Observe(0, 1.0, 3.0);
  EXPECT_TRUE(watchdog.alarmed());
  EXPECT_EQ(watchdog.alarms_raised(), 1);
  EXPECT_NEAR(watchdog.MedianQError(0), 3.0, 1e-12);
  // Recovery washes the window with calibrated pairs; the alarm holds until
  // the median drops under the stricter recover bound (hysteresis), and a
  // second drift episode counts as a second alarm.
  for (int i = 0; i < 4; ++i) {
    watchdog.Observe(0, 1.0, 1.0);
    EXPECT_TRUE(watchdog.alarmed()) << "cleared too early at i=" << i;
  }
  for (int i = 0; i < 4; ++i) watchdog.Observe(0, 1.0, 1.0);
  EXPECT_FALSE(watchdog.alarmed());
  EXPECT_EQ(watchdog.alarms_raised(), 1);
  for (int i = 0; i < 8; ++i) watchdog.Observe(0, 1.0, 3.0);
  EXPECT_TRUE(watchdog.alarmed());
  EXPECT_EQ(watchdog.alarms_raised(), 2);
}

TEST(DriftWatchdogTest, NonFinitePairsCountAsWorstCase) {
  DriftWatchdogOptions options;
  options.enabled = true;
  options.window_size = 8;
  options.min_samples = 4;
  DriftWatchdog watchdog(options, 2);
  const double nan = std::nan("");
  watchdog.Observe(0, nan, 1.0);
  watchdog.Observe(0, 1.0, nan);
  watchdog.Observe(0, -1.0, 1.0);
  EXPECT_FALSE(watchdog.alarmed());  // min_samples gate
  watchdog.Observe(0, 1.0, std::numeric_limits<double>::infinity());
  EXPECT_TRUE(watchdog.alarmed());  // four worst-case entries
  EXPECT_GT(watchdog.MedianQError(0), 1e5);
}

TEST(DriftWatchdogTest, BucketsAreIndependentAndOutOfRangeGoesToCatchAll) {
  DriftWatchdogOptions options;
  options.enabled = true;
  options.window_size = 8;
  options.min_samples = 4;
  DriftWatchdog watchdog(options, 2);
  for (int i = 0; i < 8; ++i) watchdog.Observe(0, 1.0, 1.0);
  // Drift confined to hardware type 1 alarms despite type 0 being healthy.
  for (int i = 0; i < 4; ++i) watchdog.Observe(1, 1.0, 4.0);
  EXPECT_TRUE(watchdog.alarmed());
  EXPECT_NEAR(watchdog.MedianQError(0), 1.0, 1e-12);
  // Out-of-range ids land in the catch-all bucket, not out of bounds.
  DriftWatchdog other(options, 2);
  for (int i = 0; i < 4; ++i) other.Observe(99, 1.0, 4.0);
  EXPECT_TRUE(other.alarmed());
  EXPECT_NEAR(other.MedianQError(99), 4.0, 1e-12);
}

TEST(DriftWatchdogTest, DisabledIgnoresObservations) {
  DriftWatchdogOptions options;  // enabled = false
  options.window_size = 4;
  options.min_samples = 1;
  DriftWatchdog watchdog(options, 2);
  EXPECT_FALSE(watchdog.enabled());
  for (int i = 0; i < 10; ++i) watchdog.Observe(0, 1.0, 100.0);
  EXPECT_FALSE(watchdog.alarmed());
  EXPECT_EQ(watchdog.alarms_raised(), 0);
}

TEST_F(FaultSimFixture, DriftWatchdogDemotesAndRepromotes) {
  // Deterministic drift pulse over the middle of the trace, noise-free
  // outcomes (q-error == pulse multiplier exactly): the watchdog must stay
  // quiet before the pulse, alarm and demote during it, and clear the alarm
  // so later stages run the primary path again.
  double span = 0.0;
  for (const Job& job : env_->workload().jobs) {
    span = std::max(span, job.arrival_time);
  }
  ASSERT_GT(span, 0.0);
  SimOptions options;
  options.outcome = OutcomeMode::kNoiseFree;
  options.drift_multiplier = 4.0;
  options.drift_start_seconds = 0.25 * span;
  options.drift_end_seconds = 0.60 * span;
  options.drift_watchdog.enabled = true;
  options.drift_watchdog.window_size = 32;
  options.drift_watchdog.min_samples = 8;
  options.drift_watchdog.alarm_qerror = 2.0;
  options.drift_watchdog.recover_qerror = 1.5;
  StageOptimizer so(StageOptimizer::IpaRaaPathWithFallback());
  Simulator sim(&env_->workload(), &env_->model(), options);
  Result<SimResult> result =
      sim.Run([&](const SchedulingContext& c) { return so.Optimize(c); });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  RoSummary s = Summarize(result.value());
  EXPECT_GE(s.drift_alarms, 1);
  EXPECT_GT(s.drift_demoted_stages, 0);
  EXPECT_LT(s.drift_demoted_stages, s.num_stages);
  EXPECT_GT(s.coverage, 0.95);
  // Demoted stages ran a fallback rung; the primary path came back after
  // the window recovered (re-promotion).
  long first_demoted = -1, last_demoted = -1, last_primary = -1;
  for (size_t i = 0; i < result->outcomes.size(); ++i) {
    const StageOutcome& o = result->outcomes[i];
    if (o.drift_demoted) {
      EXPECT_NE(o.fallback, FallbackLevel::kPrimary);
      if (first_demoted < 0) first_demoted = static_cast<long>(i);
      last_demoted = static_cast<long>(i);
    }
    if (o.fallback == FallbackLevel::kPrimary) {
      last_primary = static_cast<long>(i);
    }
  }
  EXPECT_GT(first_demoted, 0);  // the pre-pulse prefix stayed primary
  EXPECT_GT(last_primary, last_demoted);

  // Same pulse with the watchdog off: nobody notices the drift.
  options.drift_watchdog.enabled = false;
  Simulator off(&env_->workload(), &env_->model(), options);
  Result<SimResult> off_result =
      off.Run([&](const SchedulingContext& c) { return so.Optimize(c); });
  ASSERT_TRUE(off_result.ok());
  RoSummary off_s = Summarize(off_result.value());
  EXPECT_EQ(off_s.drift_alarms, 0);
  EXPECT_EQ(off_s.drift_demoted_stages, 0);
}

TEST_F(FaultSimFixture, DriftWatchdogQuietWithoutDrift) {
  // Watchdog armed but no pulse: a noise-free replay is perfectly
  // calibrated and must never alarm or demote.
  SimOptions options;
  options.outcome = OutcomeMode::kNoiseFree;
  options.drift_watchdog.enabled = true;
  options.drift_watchdog.window_size = 32;
  options.drift_watchdog.min_samples = 8;
  StageOptimizer so(StageOptimizer::IpaRaaPathWithFallback());
  Simulator sim(&env_->workload(), &env_->model(), options);
  Result<SimResult> result =
      sim.Run([&](const SchedulingContext& c) { return so.Optimize(c); });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  RoSummary s = Summarize(result.value());
  EXPECT_EQ(s.drift_alarms, 0);
  EXPECT_EQ(s.drift_demoted_stages, 0);
}

TEST(RetryPolicyTest, RetryableCodes) {
  RetryPolicy policy;
  EXPECT_TRUE(policy.Retryable(StatusCode::kDeadlineExceeded));
  EXPECT_TRUE(policy.Retryable(StatusCode::kResourceExhausted));
  EXPECT_TRUE(policy.Retryable(StatusCode::kUnavailable));
  EXPECT_FALSE(policy.Retryable(StatusCode::kInvalidArgument));
  EXPECT_FALSE(policy.Retryable(StatusCode::kFailedPrecondition));
  EXPECT_FALSE(policy.Retryable(StatusCode::kInternal));
  EXPECT_FALSE(policy.Retryable(StatusCode::kOk));
}

TEST(RetryPolicyTest, BackoffGrowsAndCaps) {
  RetryPolicy policy;
  policy.initial_backoff_seconds = 1.0;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_seconds = 5.0;
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(1), 1.0);
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(2), 2.0);
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(3), 4.0);
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(4), 5.0);  // capped
  EXPECT_DOUBLE_EQ(policy.BackoffSeconds(10), 5.0);
}

TEST(RetryPolicyTest, FullJitterIsDeterministicBoundedAndDecorrelated) {
  RetryPolicy policy;
  policy.initial_backoff_seconds = 1.0;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_seconds = 5.0;
  policy.full_jitter = true;
  for (uint64_t stream : {0ull, 1ull, 42ull, 0xdeadbeefull}) {
    for (int attempt = 1; attempt <= 10; ++attempt) {
      const double jittered = policy.BackoffSeconds(attempt, stream);
      // Reproducible: same (policy, stream, attempt) -> same wait, every
      // time — the property that keeps faulty replays byte-identical.
      EXPECT_DOUBLE_EQ(jittered, policy.BackoffSeconds(attempt, stream));
      // Full jitter is uniform in (0, capped backoff]: positive, and the
      // exponential cap is preserved.
      EXPECT_GT(jittered, 0.0);
      EXPECT_LE(jittered, policy.BackoffSeconds(attempt));
      EXPECT_LE(jittered, policy.max_backoff_seconds);
    }
  }
  // Different streams decorrelate: the whole point of jitter is that two
  // instances knocked out by the same machine crash do not re-collide on
  // a synchronized schedule.
  bool any_diff = false;
  for (int attempt = 1; attempt <= 10; ++attempt) {
    if (policy.BackoffSeconds(attempt, 7) != policy.BackoffSeconds(attempt, 8)) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
  // So does the attempt number within one stream: both attempts are at
  // the 5.0s cap, so only the per-attempt jitter separates them.
  EXPECT_NE(policy.BackoffSeconds(9, 7), policy.BackoffSeconds(10, 7));
}

TEST(RetryPolicyTest, JitterOffMatchesLegacyScheduleExactly) {
  // full_jitter = false must be bit-compatible with the pre-jitter code:
  // the stream-taking overload collapses to the deterministic schedule.
  RetryPolicy policy;
  policy.initial_backoff_seconds = 1.0;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_seconds = 5.0;
  for (uint64_t stream : {0ull, 99ull}) {
    EXPECT_DOUBLE_EQ(policy.BackoffSeconds(1, stream), 1.0);
    EXPECT_DOUBLE_EQ(policy.BackoffSeconds(2, stream), 2.0);
    EXPECT_DOUBLE_EQ(policy.BackoffSeconds(3, stream), 4.0);
    EXPECT_DOUBLE_EQ(policy.BackoffSeconds(4, stream), 5.0);  // capped
  }
}

TEST(RetryPolicyTest, ShouldRetryHonorsBudgetAndCode) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  Status transient = Status::Unavailable("down");
  EXPECT_TRUE(policy.ShouldRetry(transient, 1));
  EXPECT_TRUE(policy.ShouldRetry(transient, 2));
  EXPECT_FALSE(policy.ShouldRetry(transient, 3));  // budget exhausted
  EXPECT_FALSE(policy.ShouldRetry(Status::Internal("bug"), 1));
  EXPECT_FALSE(policy.ShouldRetry(Status::OK(), 1));
}

TEST(RetryPolicyTest, RetryCallRetriesUntilSuccess) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  int calls = 0;
  double backoff = 0.0;
  Result<int> r = RetryCall<int>(
      policy,
      [&]() -> Result<int> {
        if (++calls < 3) return Status::Unavailable("not yet");
        return 42;
      },
      &backoff);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(calls, 3);
  EXPECT_DOUBLE_EQ(backoff, 1.0 + 2.0);  // two failures
}

TEST_F(FaultSimFixture, CrashBetweenReplanAndDispatchRoutesThroughFailover) {
  // Regression for the stale-decision hazard: with reconfiguration on, a
  // machine that crashes inside the dispatch hazard window supersedes the
  // decision's epoch (the decision is dropped and re-solved), and a machine
  // that is down at the dispatch instant itself must route through the
  // existing retry/failover path rather than "succeed" on a dead machine.
  // Crash churn is cranked high enough (~40% expected downtime) that both
  // events are statistically certain over the workload.
  SimOptions options;
  options.outcome = OutcomeMode::kEnvironment;
  options.faults.enabled = true;
  options.faults.machine_failure_rate_per_day = 60.0;
  options.faults.machine_recovery_seconds = 600.0;
  options.faults.seed = 47;
  options.reconfig.enabled = true;
  options.reconfig.dispatch_hazard_seconds = 60.0;
  options.reconfig.migrate_stragglers = false;  // isolate the crash path

  auto run = [&]() {
    StageOptimizer so(StageOptimizer::IpaRaaPathWithFallback());
    Simulator sim(&env_->workload(), &env_->model(), options);
    Result<SimResult> result =
        sim.Run([&](const SchedulingContext& c) { return so.Optimize(c); });
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  };

  const SimResult a = run();
  const RoSummary s = Summarize(a);
  EXPECT_GT(s.stale_decision_drops, 0);
  EXPECT_GT(s.total_failovers, 0);
  EXPECT_GT(s.coverage, 0.8);  // failover keeps the work landing
  // Replanning on the projected liveness is active too under this churn.
  EXPECT_GT(s.total_replans + s.stale_decision_drops, 1);

  // The crash-at-dispatch path consumes no outcome randomness, so the whole
  // replay stays byte-identical across runs.
  const SimResult b = run();
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    const StageOutcome& x = a.outcomes[i];
    const StageOutcome& y = b.outcomes[i];
    EXPECT_EQ(x.feasible, y.feasible);
    EXPECT_EQ(x.fallback, y.fallback);
    EXPECT_EQ(x.retries, y.retries);
    EXPECT_EQ(x.failovers, y.failovers);
    EXPECT_EQ(x.replans, y.replans);
    EXPECT_EQ(x.stale_decision_drops, y.stale_decision_drops);
    EXPECT_DOUBLE_EQ(x.stage_latency, y.stage_latency);
    EXPECT_DOUBLE_EQ(x.stage_cost, y.stage_cost);
    EXPECT_DOUBLE_EQ(x.wasted_cost, y.wasted_cost);
  }
}

TEST(RetryPolicyTest, RetryCallStopsOnPermanentError) {
  RetryPolicy policy;
  int calls = 0;
  Result<int> r = RetryCall<int>(policy, [&]() -> Result<int> {
    ++calls;
    return Status::InvalidArgument("never retry");
  });
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace fgro
