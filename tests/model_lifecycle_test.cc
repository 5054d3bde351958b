// Safe-model-lifecycle tests: the versioned ModelRegistry (monotone ids,
// bounded retention, rollback), the static promotion gate against poisoned
// candidates, the shadow-canary window, probation rollback with wasted-work
// accounting, the params_tag memo safety across hot swaps, and the
// end-to-end replay behavior of gated promotion under drift.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "hbo/hbo.h"
#include "model/model_registry.h"
#include "model/prediction_cache.h"
#include "optimizer/stage_optimizer.h"
#include "sim/experiment_env.h"
#include "sim/ro_metrics.h"
#include "sim/simulator.h"

namespace fgro {
namespace {

std::shared_ptr<const LatencyModel> MakeBlank() {
  return std::make_shared<const LatencyModel>(LatencyModel::Options{});
}

TEST(ModelRegistryTest, VersionIdsAreMonotoneAndActiveSwaps) {
  ModelRegistry registry(4);
  EXPECT_EQ(registry.active(), nullptr);
  EXPECT_EQ(registry.active_version(), 0);
  EXPECT_EQ(registry.model_epoch(), 0);

  auto a = MakeBlank();
  auto b = MakeBlank();
  EXPECT_EQ(registry.Install(a, "initial"), 1);
  EXPECT_EQ(registry.active_version(), 1);
  EXPECT_EQ(registry.model_epoch(), 1);
  EXPECT_EQ(registry.active().get(), a.get());

  EXPECT_EQ(registry.Install(b, "retrain"), 2);
  EXPECT_EQ(registry.active_version(), 2);
  EXPECT_EQ(registry.model_epoch(), 2);
  EXPECT_EQ(registry.active().get(), b.get());
  // Prior versions stay addressable until evicted.
  EXPECT_EQ(registry.Get(1).get(), a.get());
  EXPECT_EQ(registry.Get(99), nullptr);

  const std::vector<ModelRegistry::VersionInfo> versions =
      registry.Versions();
  ASSERT_EQ(versions.size(), 2u);
  EXPECT_EQ(versions[0].id, 1);
  EXPECT_EQ(versions[0].source, "initial");
  EXPECT_FALSE(versions[0].active);
  EXPECT_EQ(versions[1].id, 2);
  EXPECT_TRUE(versions[1].active);
}

TEST(ModelRegistryTest, RollbackRestoresPredecessorOnceAndMarksVictim) {
  ModelRegistry registry(4);
  registry.Install(MakeBlank(), "initial");
  registry.Install(MakeBlank(), "retrain");

  Result<long> restored = registry.RollbackToPrevious();
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value(), 1);
  EXPECT_EQ(registry.active_version(), 1);
  EXPECT_EQ(registry.model_epoch(), 3);  // 2 installs + 1 rollback
  for (const ModelRegistry::VersionInfo& v : registry.Versions()) {
    EXPECT_EQ(v.rolled_back, v.id == 2);
  }

  // A second consecutive rollback has no sane target.
  Result<long> again = registry.RollbackToPrevious();
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kFailedPrecondition);

  // The next install re-arms rollback, with the survivor as the target.
  EXPECT_EQ(registry.Install(MakeBlank(), "retrain2"), 3);
  Result<long> rearmed = registry.RollbackToPrevious();
  ASSERT_TRUE(rearmed.ok());
  EXPECT_EQ(rearmed.value(), 1);
}

TEST(ModelRegistryTest, RetentionNeverEvictsActiveOrRollbackTarget) {
  ModelRegistry registry(2);
  for (int i = 0; i < 6; ++i) registry.Install(MakeBlank(), "v");
  // Only the active version and its predecessor survive.
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.active_version(), 6);
  EXPECT_NE(registry.Get(6), nullptr);
  EXPECT_NE(registry.Get(5), nullptr);  // rollback target retained
  for (long id = 1; id <= 4; ++id) EXPECT_EQ(registry.Get(id), nullptr);
  ASSERT_TRUE(registry.RollbackToPrevious().ok());
  EXPECT_EQ(registry.active_version(), 5);
}

TEST(ModelRegistryTest, ConcurrentReadersSurviveSwapsAndRollbacks) {
  // RCU-style contract under TSan: readers pin a version with the
  // shared_ptr refcount while a writer keeps swapping and rolling back.
  // No reader may ever observe a null active model after the first
  // install, and every pinned snapshot stays dereferenceable.
  ModelRegistry registry(3);
  registry.Install(MakeBlank(), "initial");
  std::atomic<bool> stop{false};
  std::atomic<long> reads{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        std::shared_ptr<const LatencyModel> pinned = registry.active();
        ASSERT_NE(pinned, nullptr);
        // Touch the snapshot: a premature free would crash or trip TSan.
        (void)pinned->trained();
        (void)registry.active_version();
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    registry.Install(MakeBlank(), "swap");
    if (i % 5 == 4) (void)registry.RollbackToPrevious();
  }
  stop.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(reads.load(), 0);
  EXPECT_GE(registry.model_epoch(), 200);
}

class LifecycleFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ExperimentEnv::Options options;
    options.workload = WorkloadId::kA;
    options.scale = 0.04;
    options.train.epochs = 2;
    options.train.max_train_samples = 3000;
    options.seed = 44;
    Result<std::unique_ptr<ExperimentEnv>> env = ExperimentEnv::Build(options);
    ASSERT_TRUE(env.ok()) << env.status().ToString();
    env_ = std::move(env).value().release();
  }
  static ExperimentEnv* env_;

  // A structurally-valid candidate whose predictions have been dragged away
  // from the incumbent's: fine-tuned hard on a label-shuffled copy of the
  // dataset's head. Trained and finite (it passes the structural checks),
  // but strictly worse on true labels.
  static std::unique_ptr<LatencyModel> MakeDivergentCandidate() {
    auto candidate = std::make_unique<LatencyModel>(env_->model());
    TraceDataset shuffled = env_->dataset();
    std::vector<double> labels;
    const size_t n = std::min<size_t>(shuffled.records.size(), 256);
    for (size_t i = 0; i < n; ++i) {
      labels.push_back(shuffled.records[i].actual_latency);
    }
    std::mt19937_64 rng(7);
    std::shuffle(labels.begin(), labels.end(), rng);
    std::vector<int> indices;
    for (size_t i = 0; i < n; ++i) {
      shuffled.records[i].actual_latency = labels[i];
      indices.push_back(static_cast<int>(i));
    }
    TrainOptions tune;
    tune.epochs = 8;
    tune.lr = 0.02;
    tune.lr_decay = 1.0;
    tune.batch_size = 16;
    tune.max_train_samples = static_cast<int>(n);
    tune.seed = 11;
    EXPECT_TRUE(candidate->FineTune(shuffled, indices, tune).ok());
    EXPECT_TRUE(candidate->HasFiniteParameters());
    return candidate;
  }

  static std::vector<int> HeadIndices(int n) {
    std::vector<int> indices;
    const int limit = std::min<int>(
        n, static_cast<int>(env_->dataset().records.size()));
    for (int i = 0; i < limit; ++i) indices.push_back(i);
    return indices;
  }
};

ExperimentEnv* LifecycleFixture::env_ = nullptr;

TEST_F(LifecycleFixture, GateRejectsStructurallyBrokenCandidates) {
  const std::vector<int> holdout = HeadIndices(64);
  ModelGateOptions options;

  ModelGateResult null_cand = RunModelGate(nullptr, &env_->model(),
                                           env_->dataset(), holdout, options);
  EXPECT_FALSE(null_cand.passed);

  LatencyModel untrained{LatencyModel::Options{}};
  ModelGateResult raw = RunModelGate(&untrained, &env_->model(),
                                     env_->dataset(), holdout, options);
  EXPECT_FALSE(raw.passed);

  LatencyModel poisoned(env_->model());
  poisoned.CorruptParamForTest(std::numeric_limits<double>::quiet_NaN());
  ModelGateResult nan_cand = RunModelGate(&poisoned, &env_->model(),
                                          env_->dataset(), holdout, options);
  EXPECT_FALSE(nan_cand.passed);
  EXPECT_NE(nan_cand.reason.find("non-finite"), std::string::npos);
}

TEST_F(LifecycleFixture, GateRejectsLabelShuffledFineTuneOnTrueLabels) {
  // The label-shuffle poison scenario: the candidate trained on permuted
  // labels, the gate validates on the TRUE labels — it must lose to the
  // incumbent beyond any sane regression budget. A clean copy of the
  // incumbent sails through the same gate.
  const std::vector<int> holdout = HeadIndices(128);
  ModelGateOptions options;
  options.max_wmape_regression = 0.10;

  std::unique_ptr<LatencyModel> divergent = MakeDivergentCandidate();
  ModelGateResult bad = RunModelGate(divergent.get(), &env_->model(),
                                     env_->dataset(), holdout, options);
  EXPECT_FALSE(bad.passed);
  EXPECT_GT(bad.candidate_wmape,
            bad.incumbent_wmape * (1.0 + options.max_wmape_regression));

  LatencyModel clean(env_->model());
  ModelGateResult ok = RunModelGate(&clean, &env_->model(), env_->dataset(),
                                    holdout, options);
  EXPECT_TRUE(ok.passed) << ok.reason;
  EXPECT_DOUBLE_EQ(ok.candidate_wmape, ok.incumbent_wmape);
}

TEST_F(LifecycleFixture, GateSkipsAccuracyBelowMinHoldout) {
  ModelGateOptions options;
  options.min_holdout_samples = 16;
  LatencyModel clean(env_->model());
  ModelGateResult r = RunModelGate(&clean, &env_->model(), env_->dataset(),
                                   HeadIndices(4), options);
  EXPECT_TRUE(r.passed);
  EXPECT_NE(r.reason.find("skipped"), std::string::npos);
  EXPECT_DOUBLE_EQ(r.candidate_wmape, 0.0);
}

// Drives `count` clean observations (actual = incumbent prediction) through
// the lifecycle, round-robin over the first job's stages and the cluster.
int FeedCleanObservations(ModelLifecycle* lifecycle, const Workload& workload,
                          Cluster* cluster, int count, double* now,
                          int* promotions_seen) {
  Hbo hbo;
  int fed = 0;
  const Job& job = workload.jobs[0];
  for (int pass = 0; fed < count && pass < 64; ++pass) {
    for (size_t s = 0; s < job.stages.size() && fed < count; ++s) {
      const Stage& stage = job.stages[s];
      const ResourceConfig theta0 = hbo.Recommend(stage).theta0;
      for (int i = 0; i < stage.instance_count() && fed < count; ++i) {
        const Machine& machine = cluster->machine(fed % cluster->size());
        Result<double> pred = lifecycle->active_model()->Predict(
            stage, i, theta0, machine.state(), machine.hardware().id);
        EXPECT_TRUE(pred.ok());
        *now += 1.0;
        if (lifecycle->Observe(0, static_cast<int>(s), stage, i, theta0,
                               machine.id(), machine.hardware().id,
                               machine.state(), pred.value(), *now)) {
          if (promotions_seen != nullptr) ++*promotions_seen;
        }
        ++fed;
      }
    }
  }
  return fed;
}

TEST_F(LifecycleFixture, ShadowWindowPromotesCleanCandidateAndBumpsEpoch) {
  ModelLifecycleOptions options;
  options.enabled = true;
  options.shadow_observations = 8;
  options.probation_observations = 16;
  auto initial = std::make_shared<const LatencyModel>(env_->model());
  ModelLifecycle lifecycle(options, initial, &env_->workload(), 7,
                           obs::Obs{});
  ASSERT_EQ(lifecycle.active_model(), initial.get());
  EXPECT_EQ(lifecycle.model_epoch(), 1);
  EXPECT_FALSE(lifecycle.InProbation());

  // A clean candidate (copy of the incumbent) enters shadow, not service.
  EXPECT_TRUE(lifecycle.SubmitCandidate(
      std::make_unique<LatencyModel>(env_->model()), "retrain"));
  EXPECT_TRUE(lifecycle.ShadowActive());
  EXPECT_EQ(lifecycle.active_model(), initial.get());
  // One canary at a time.
  EXPECT_FALSE(lifecycle.SubmitCandidate(
      std::make_unique<LatencyModel>(env_->model()), "retrain"));

  Cluster cluster(ClusterOptions{.num_machines = 8, .seed = 3});
  double now = 0.0;
  int promotions_seen = 0;
  FeedCleanObservations(&lifecycle, env_->workload(), &cluster,
                        options.shadow_observations, &now, &promotions_seen);

  EXPECT_EQ(promotions_seen, 1);
  EXPECT_FALSE(lifecycle.ShadowActive());
  EXPECT_EQ(lifecycle.stats().promotions, 1);
  EXPECT_EQ(lifecycle.stats().shadow_rejects, 0);
  EXPECT_NE(lifecycle.active_model(), initial.get());
  EXPECT_EQ(lifecycle.model_epoch(), 2);
  EXPECT_EQ(lifecycle.registry().active_version(), 2);
  EXPECT_TRUE(lifecycle.InProbation());
}

TEST_F(LifecycleFixture, ShadowWindowRejectsWorseCandidate) {
  // A divergent candidate slips past the gate while the observation buffer
  // is still empty (accuracy check skipped) — exactly the gap the shadow
  // window exists to close: scored against live observations it loses to
  // the incumbent and never reaches service.
  ModelLifecycleOptions options;
  options.enabled = true;
  options.shadow_observations = 12;
  auto initial = std::make_shared<const LatencyModel>(env_->model());
  ModelLifecycle lifecycle(options, initial, &env_->workload(), 7,
                           obs::Obs{});
  ASSERT_TRUE(lifecycle.SubmitCandidate(MakeDivergentCandidate(), "tune"));
  ASSERT_TRUE(lifecycle.ShadowActive());

  Cluster cluster(ClusterOptions{.num_machines = 8, .seed = 3});
  double now = 0.0;
  int promotions_seen = 0;
  FeedCleanObservations(&lifecycle, env_->workload(), &cluster,
                        options.shadow_observations, &now, &promotions_seen);

  EXPECT_EQ(promotions_seen, 0);
  EXPECT_FALSE(lifecycle.ShadowActive());
  EXPECT_EQ(lifecycle.stats().shadow_rejects, 1);
  EXPECT_EQ(lifecycle.stats().promotions, 0);
  EXPECT_EQ(lifecycle.active_model(), initial.get());
  EXPECT_EQ(lifecycle.model_epoch(), 1);  // no swap ever happened
}

TEST_F(LifecycleFixture, FreshAlarmInProbationRollsBackAndAccountsWaste) {
  ModelLifecycleOptions options;
  options.enabled = true;
  options.shadow_observations = 4;
  options.probation_observations = 64;
  options.rollback_cooldown_observations = 32;
  auto initial = std::make_shared<const LatencyModel>(env_->model());
  ModelLifecycle lifecycle(options, initial, &env_->workload(), 7,
                           obs::Obs{});
  // An alarm BEFORE any promotion must not roll anything back.
  EXPECT_FALSE(lifecycle.NoteDriftAlarms(1));

  ASSERT_TRUE(lifecycle.SubmitCandidate(
      std::make_unique<LatencyModel>(env_->model()), "retrain"));
  Cluster cluster(ClusterOptions{.num_machines = 8, .seed = 3});
  double now = 0.0;
  int promotions_seen = 0;
  FeedCleanObservations(&lifecycle, env_->workload(), &cluster,
                        options.shadow_observations, &now, &promotions_seen);
  ASSERT_EQ(promotions_seen, 1);
  ASSERT_TRUE(lifecycle.InProbation());

  // Decisions solved under the promoted model, then a fresh alarm inside
  // probation: automatic rollback, with those decisions written off.
  lifecycle.NoteDecision(0.25);
  lifecycle.NoteDecision(0.75);
  const long epoch_before = lifecycle.model_epoch();
  EXPECT_TRUE(lifecycle.NoteDriftAlarms(2));
  EXPECT_EQ(lifecycle.stats().rollbacks, 1);
  EXPECT_EQ(lifecycle.stats().wasted_decisions, 2);
  EXPECT_DOUBLE_EQ(lifecycle.stats().wasted_solve_seconds, 1.0);
  EXPECT_EQ(lifecycle.active_model(), initial.get());
  EXPECT_EQ(lifecycle.registry().active_version(), 1);
  EXPECT_GT(lifecycle.model_epoch(), epoch_before);
  EXPECT_FALSE(lifecycle.InProbation());

  // The rolled-back version is recorded as such.
  bool saw_rolled_back = false;
  for (const ModelRegistry::VersionInfo& v :
       lifecycle.registry().Versions()) {
    if (v.id == 2) {
      EXPECT_TRUE(v.rolled_back);
      saw_rolled_back = true;
    }
  }
  EXPECT_TRUE(saw_rolled_back);

  // Inside the cooldown new candidates are refused; the same cumulative
  // alarm count is not a new alarm.
  EXPECT_FALSE(lifecycle.SubmitCandidate(
      std::make_unique<LatencyModel>(env_->model()), "retrain"));
  EXPECT_FALSE(lifecycle.NoteDriftAlarms(2));
}

TEST_F(LifecycleFixture, UnconditionalModeAdoptsInstantlyAndNeverRollsBack) {
  ModelLifecycleOptions options;
  options.enabled = true;
  options.unconditional = true;
  auto initial = std::make_shared<const LatencyModel>(env_->model());
  ModelLifecycle lifecycle(options, initial, &env_->workload(), 7,
                           obs::Obs{});
  // Even a NaN-poisoned candidate is swapped straight in — this is the
  // unguarded baseline the gate exists to replace.
  auto poisoned = std::make_unique<LatencyModel>(env_->model());
  poisoned->CorruptParamForTest(std::numeric_limits<double>::quiet_NaN());
  EXPECT_TRUE(lifecycle.SubmitCandidate(std::move(poisoned), "poison"));
  EXPECT_FALSE(lifecycle.ShadowActive());
  EXPECT_EQ(lifecycle.stats().promotions, 1);
  EXPECT_FALSE(lifecycle.InProbation());
  EXPECT_FALSE(lifecycle.NoteDriftAlarms(5));
  EXPECT_EQ(lifecycle.stats().rollbacks, 0);
}

TEST_F(LifecycleFixture, MemoHitAfterHotSwapMatchesFreshPrediction) {
  // The stale-hit hazard the params_tag closes: a memo warmed by model A
  // must never serve A's value for the same structural key once model B
  // (different weights) is active. B's first query is a miss computing B's
  // own fresh value; A's entries stay reachable for A only.
  const LatencyModel& a = env_->model();
  LatencyModel b(a);
  const Stage& stage = env_->workload().jobs[0].stages[0];
  std::vector<int> indices = HeadIndices(64);
  TrainOptions tune;
  tune.epochs = 2;
  tune.lr = 5e-3;
  tune.lr_decay = 1.0;
  tune.batch_size = 16;
  tune.max_train_samples = static_cast<int>(indices.size());
  tune.seed = 3;
  ASSERT_TRUE(b.FineTune(env_->dataset(), indices, tune).ok());
  ASSERT_NE(a.params_tag(), b.params_tag());

  Cluster cluster(ClusterOptions{.num_machines = 4, .seed = 3});
  const Machine& machine = cluster.machine(0);
  std::vector<LatencyModel::PredictionCandidate> candidates;
  for (double cores : {1.0, 2.0, 4.0}) {
    candidates.push_back({ResourceConfig{cores, 4.0}, machine.state(),
                          machine.hardware().id});
  }

  PredictionMemo memo;
  LatencyModel::BatchScratch scratch;
  Result<LatencyModel::EmbeddedInstance> ea = a.Embed(stage, 0);
  ASSERT_TRUE(ea.ok());
  std::vector<double> a_memoized(candidates.size());
  a.PredictBatch(ea.value(), candidates, a_memoized.data(), &scratch, &memo);
  ASSERT_GT(memo.size(), 0u);

  // Model B, same structural key, warm memo: values must equal B's own
  // memo-free predictions, not A's cached ones.
  Result<LatencyModel::EmbeddedInstance> eb = b.Embed(stage, 0);
  ASSERT_TRUE(eb.ok());
  std::vector<double> b_memoized(candidates.size());
  b.PredictBatch(eb.value(), candidates, b_memoized.data(), &scratch, &memo);
  std::vector<double> b_fresh(candidates.size());
  b.PredictBatch(eb.value(), candidates, b_fresh.data(), &scratch, nullptr);
  bool any_differs_from_a = false;
  for (size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(b_memoized[i], b_fresh[i]) << "candidate " << i;
    if (b_fresh[i] != a_memoized[i]) any_differs_from_a = true;
  }
  // The tune actually moved the weights, so a stale hit would have been
  // observable — this is not a vacuous check.
  EXPECT_TRUE(any_differs_from_a);

  // And the memo still works: re-querying B hits B's own entries exactly.
  const uint64_t hits_before = memo.hits();
  std::vector<double> b_again(candidates.size());
  b.PredictBatch(eb.value(), candidates, b_again.data(), &scratch, &memo);
  EXPECT_GT(memo.hits(), hits_before);
  for (size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(b_again[i], b_fresh[i]);
  }
}

TEST_F(LifecycleFixture, ReplayGatedRetrainPromotesAndSurfacesCounters) {
  // End-to-end: a drift pulse shifts the regime, the embedded scheduled
  // retrain learns the new one from live observations, the candidate
  // passes gate + shadow, and the promotion shows up in the RoSummary.
  double span = 0.0;
  for (const Job& job : env_->workload().jobs) {
    span = std::max(span, job.arrival_time);
  }
  ASSERT_GT(span, 0.0);

  SimOptions options;
  options.outcome = OutcomeMode::kNoiseFree;
  options.seed = 13;
  options.drift_multiplier = 3.0;
  options.drift_start_seconds = 0.0;
  options.drift_end_seconds = 1e18;  // a regime change, not a pulse
  options.lifecycle.enabled = true;
  options.lifecycle.retrain_period_seconds = 40.0;
  options.lifecycle.retrain_min_samples = 16;
  options.lifecycle.retrain_epochs = 4;
  options.lifecycle.retrain_lr = 3e-3;
  options.lifecycle.shadow_observations = 16;
  options.lifecycle.probation_observations = 32;

  StageOptimizer optimizer(StageOptimizer::IpaRaaPathWithFallback());
  Simulator sim(&env_->workload(), &env_->model(), options);
  Result<SimResult> result = sim.Run(
      [&](const SchedulingContext& c) { return optimizer.Optimize(c); });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const RoSummary summary = Summarize(result.value());

  EXPECT_GT(summary.lifecycle_retrains, 0);
  EXPECT_GT(summary.promotions, 0);
  EXPECT_EQ(summary.rollbacks, 0);  // clean retrains, no alarm inside probation
  EXPECT_GT(summary.serving_wmape, 0.0);  // accuracy accounting is live
  EXPECT_GT(summary.coverage, 0.9);
}

TEST_F(LifecycleFixture, ReplayPoisonedRetrainsNeverReachService) {
  // The poisoned-retrain arms: every scheduled retrain is sabotaged.
  // kNanInject candidates must die at the static gate (finite check);
  // kLabelShuffle candidates must die at the gate (true-label holdout) or
  // in shadow. Either way: zero promotions, and the replay's decisions are
  // identical to a lifecycle that never produced a candidate.
  double span = 0.0;
  for (const Job& job : env_->workload().jobs) {
    span = std::max(span, job.arrival_time);
  }
  ASSERT_GT(span, 0.0);

  auto run_with = [&](ModelLifecycleOptions::RetrainPoison poison,
                      double retrain_period) {
    SimOptions options;
    options.outcome = OutcomeMode::kNoiseFree;
    options.seed = 13;
    options.lifecycle.enabled = true;
    options.lifecycle.retrain_period_seconds = retrain_period;
    options.lifecycle.retrain_min_samples = 16;
    options.lifecycle.retrain_epochs = 6;
    options.lifecycle.retrain_lr = 0.05;  // poison diverges hard
    options.lifecycle.shadow_observations = 16;
    options.lifecycle.poison = poison;
    StageOptimizer optimizer(StageOptimizer::IpaRaaPathWithFallback());
    Simulator sim(&env_->workload(), &env_->model(), options);
    Result<SimResult> result = sim.Run(
        [&](const SchedulingContext& c) { return optimizer.Optimize(c); });
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return Summarize(result.value());
  };

  const RoSummary nan_arm =
      run_with(ModelLifecycleOptions::RetrainPoison::kNanInject, 40.0);
  EXPECT_GT(nan_arm.lifecycle_retrains, 0);
  EXPECT_EQ(nan_arm.promotions, 0);
  EXPECT_EQ(nan_arm.gate_rejects, nan_arm.lifecycle_retrains);

  const RoSummary shuffle_arm =
      run_with(ModelLifecycleOptions::RetrainPoison::kLabelShuffle, 40.0);
  EXPECT_GT(shuffle_arm.lifecycle_retrains, 0);
  EXPECT_EQ(shuffle_arm.promotions, 0);
  EXPECT_GT(shuffle_arm.gate_rejects + shuffle_arm.shadow_rejects, 0);

  // Poisoned-but-contained equals never-updated, decision for decision.
  const RoSummary never = run_with(
      ModelLifecycleOptions::RetrainPoison::kNone, /*retrain_period=*/0.0);
  EXPECT_EQ(never.lifecycle_retrains, 0);
  EXPECT_DOUBLE_EQ(shuffle_arm.avg_latency, never.avg_latency);
  EXPECT_DOUBLE_EQ(shuffle_arm.avg_cost, never.avg_cost);
  EXPECT_DOUBLE_EQ(shuffle_arm.serving_wmape, never.serving_wmape);
}

}  // namespace
}  // namespace fgro
