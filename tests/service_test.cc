// Concurrent RO-service tests: adaptive-CoDel admission control with
// priority-lane protection, determinism of the merged replay across
// worker counts, load shedding on a full admission queue, priority
// ordering, deadline-aware dequeue shedding, and counter consistency.
//
// This suite (with fault_tolerance_test) is the TSan CI target: every test
// here exercises the worker pool, the bounded queue, and the shared
// control plane under real concurrency.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "service/ro_service.h"
#include "sim/experiment_env.h"
#include "sim/ro_metrics.h"

namespace fgro {
namespace {

// ---------------------------------------------------------------------------
// RoService tests over a shared trained environment.

class ServiceFixture : public ::testing::Test {
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

  static SimOptions BaseSim(int threads) {
    SimOptions sim;
    sim.outcome = OutcomeMode::kEnvironment;
    sim.service_threads = threads;
    return sim;
  }

  static int NumJobs() {
    return static_cast<int>(env_->workload().jobs.size());
  }
};

ExperimentEnv* ServiceFixture::env_ = nullptr;

/// Compares the deterministic fields of two merged replays. The wall-clock
/// fields (solve_seconds, stage_latency_in) legitimately differ run to run
/// and are excluded, exactly as in determinism_test.
void ExpectSameReplay(const SimResult& a, const SimResult& b) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (size_t i = 0; i < a.outcomes.size(); ++i) {
    const StageOutcome& x = a.outcomes[i];
    const StageOutcome& y = b.outcomes[i];
    EXPECT_EQ(x.job_idx, y.job_idx);
    EXPECT_EQ(x.stage_idx, y.stage_idx);
    EXPECT_EQ(x.feasible, y.feasible);
    EXPECT_EQ(x.num_instances, y.num_instances);
    EXPECT_EQ(x.fallback, y.fallback);
    EXPECT_EQ(x.retries, y.retries);
    EXPECT_EQ(x.failovers, y.failovers);
    EXPECT_EQ(x.failed_instances, y.failed_instances);
    EXPECT_DOUBLE_EQ(x.stage_latency, y.stage_latency);
    EXPECT_DOUBLE_EQ(x.stage_cost, y.stage_cost);
    EXPECT_DOUBLE_EQ(x.wasted_cost, y.wasted_cost);
    EXPECT_DOUBLE_EQ(x.default_theta_cores, y.default_theta_cores);
  }
}

TEST_F(ServiceFixture, ResultIdenticalAcrossThreadCounts) {
  std::vector<SimResult> results;
  for (int threads : {1, 2, 8}) {
    Result<SimResult> result = ServeWorkload(
        env_->workload(), &env_->model(), BaseSim(threads),
        StageOptimizer::IpaRaaPathWithFallback());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    results.push_back(std::move(result).value());
  }
  ExpectSameReplay(results[0], results[1]);
  ExpectSameReplay(results[0], results[2]);
  // The aggregate view agrees too (again minus wall-clock columns).
  RoSummary s1 = Summarize(results[0]);
  RoSummary s8 = Summarize(results[2]);
  EXPECT_EQ(s1.num_stages, s8.num_stages);
  EXPECT_EQ(s1.feasible_stages, s8.feasible_stages);
  EXPECT_DOUBLE_EQ(s1.avg_latency, s8.avg_latency);
  EXPECT_DOUBLE_EQ(s1.avg_cost, s8.avg_cost);
  EXPECT_EQ(s1.fallback_histogram, s8.fallback_histogram);
}

TEST_F(ServiceFixture, MatchesManualIsolatedReplay) {
  // The service is exactly "ReplayJobIsolated for every job, in slot
  // order, with MixSeed streams" — verify against a hand-rolled loop.
  SimOptions sim = BaseSim(4);
  Result<SimResult> served =
      ServeWorkload(env_->workload(), &env_->model(), sim,
                    StageOptimizer::IpaRaaPathWithFallback());
  ASSERT_TRUE(served.ok()) << served.status().ToString();

  Simulator simulator(&env_->workload(), &env_->model(), sim);
  StageOptimizer optimizer(StageOptimizer::IpaRaaPathWithFallback());
  SimResult manual;
  for (int j = 0; j < NumJobs(); ++j) {
    Result<std::vector<StageOutcome>> outcomes = simulator.ReplayJobIsolated(
        [&](const SchedulingContext& c) { return optimizer.Optimize(c); }, j,
        MixSeed(sim.seed, static_cast<uint64_t>(j)));
    ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
    for (StageOutcome& o : outcomes.value()) {
      manual.outcomes.push_back(std::move(o));
    }
  }
  ExpectSameReplay(served.value(), manual);
}

TEST_F(ServiceFixture, ShedsWithResourceExhaustedWhenQueueFull) {
  RoServiceOptions options;
  options.queue_capacity = 2;
  options.min_service_seconds = 0.05;  // one slow worker: the burst outruns it
  RoService service(&env_->workload(), &env_->model(), BaseSim(1),
                    StageOptimizer::IpaRaaPathWithFallback(), options);
  int admitted = 0, shed = 0;
  for (int round = 0; round < 3; ++round) {
    for (int j = 0; j < NumJobs(); ++j) {
      Status status = service.Submit(j);
      if (status.ok()) {
        ++admitted;
      } else {
        EXPECT_EQ(status.code(), StatusCode::kResourceExhausted)
            << status.ToString();
        ++shed;
      }
    }
  }
  EXPECT_GT(shed, 0);  // 3x the workload into a 2-deep queue must shed
  EXPECT_GT(admitted, 0);
  service.Drain();
  RoServiceStats stats = service.Stats();
  EXPECT_EQ(stats.jobs_offered, admitted + shed);
  EXPECT_EQ(stats.jobs_admitted, admitted);
  EXPECT_EQ(stats.jobs_shed, shed);
  EXPECT_EQ(stats.jobs_completed, admitted);  // shed != dropped-after-admit
  EXPECT_EQ(stats.jobs_failed, 0);
  EXPECT_LE(stats.max_queue_depth, 2);
  service.Stop();
  // Every admitted job produced its outcomes.
  RoSummary summary = service.Summary();
  EXPECT_EQ(summary.jobs_shed, shed);
  EXPECT_GT(summary.num_stages, 0);
}

TEST_F(ServiceFixture, LatencySensitiveOvertakesBatch) {
  RoServiceOptions options;
  options.queue_capacity = 16;
  options.min_service_seconds = 0.03;  // keeps the single worker busy
  RoService service(&env_->workload(), &env_->model(), BaseSim(1),
                    StageOptimizer::IpaRaaPathWithFallback(), options);
  // Batch backlog first, then one latency-sensitive request. The LS job
  // can only be beaten by whatever the worker had already dequeued.
  ASSERT_TRUE(service.Submit(1, RequestPriority::kBatch).ok());
  ASSERT_TRUE(service.Submit(2, RequestPriority::kBatch).ok());
  ASSERT_TRUE(service.Submit(3, RequestPriority::kBatch).ok());
  ASSERT_TRUE(service.Submit(0, RequestPriority::kLatencySensitive).ok());
  service.Drain();
  const std::vector<int>& order = service.completion_order();
  ASSERT_EQ(order.size(), 4u);
  size_t ls_pos = 0, b2_pos = 0, b3_pos = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    if (order[i] == 0) ls_pos = i;
    if (order[i] == 2) b2_pos = i;
    if (order[i] == 3) b3_pos = i;
  }
  EXPECT_LE(ls_pos, 1u);     // at worst, one batch job was already in flight
  EXPECT_LT(ls_pos, b2_pos);  // jumped ahead of the queued batch backlog
  EXPECT_LT(ls_pos, b3_pos);
  EXPECT_LT(b2_pos, b3_pos);  // FIFO within the batch lane
  EXPECT_EQ(service.Stats().jobs_latency_sensitive, 1);
}

TEST_F(ServiceFixture, ExpiredDeadlineCompletedAsShedAtDequeue) {
  RoServiceOptions options;
  options.queue_capacity = 16;
  options.min_service_seconds = 0.04;
  options.request_deadline_seconds = 0.02;  // less than one service slot
  RoService service(&env_->workload(), &env_->model(), BaseSim(1),
                    StageOptimizer::IpaRaaPathWithFallback(), options);
  const int n = std::min(6, NumJobs());
  for (int j = 0; j < n; ++j) {
    ASSERT_TRUE(service.Submit(j).ok());
  }
  service.Drain();
  RoServiceStats stats = service.Stats();
  // Everything behind the first request waited out its budget in the queue
  // and was completed as shed at dequeue — a worker never burns a solve
  // (even a cheap Fuxi one) on an answer the caller has abandoned.
  EXPECT_GT(stats.expired_in_queue, 0);
  EXPECT_EQ(stats.deadline_expired_jobs, stats.expired_in_queue);
  EXPECT_EQ(stats.jobs_shed, stats.expired_in_queue);  // shed at dequeue
  EXPECT_EQ(stats.jobs_completed + stats.expired_in_queue, n);
  EXPECT_LT(stats.jobs_completed, n);
  EXPECT_GE(stats.jobs_completed, 1);  // the first dequeue beat its budget
  RoSummary summary = service.Summary();
  EXPECT_EQ(summary.expired_in_queue, stats.expired_in_queue);
  EXPECT_EQ(summary.deadline_expired_jobs, stats.deadline_expired_jobs);
  EXPECT_EQ(summary.jobs_completed, stats.jobs_completed);
}

TEST_F(ServiceFixture, CodelShedsBatchButProtectsLatencySensitiveLane) {
  // Wall-clock CoDel under a sustained overload burst: the batch lane must
  // reach the shed rung (early drops at the door) while every
  // latency-sensitive submission is still admitted and its queue-wait p95
  // stays bounded near the sojourn target — the priority-protection claim.
  RoServiceOptions options;
  // Deeper than the whole burst, so plain queue-full shedding is
  // structurally impossible: every shed in this test is a CoDel early-drop.
  options.queue_capacity = 192;
  options.min_service_seconds = 0.02;
  options.codel.enabled = true;
  options.codel_clock = CodelClockMode::kWallClock;
  options.codel.target_seconds = 0.01;
  options.codel.interval_seconds = 0.02;
  options.codel.theta0_count = 1;
  options.codel.fuxi_count = 2;
  options.codel.shed_count = 3;
  options.codel.protect_margin = 2;
  RoService service(&env_->workload(), &env_->model(), BaseSim(1),
                    StageOptimizer::IpaRaaPathWithFallback(), options);

  // Paced open loop at ~10x the single worker's capacity; every 20th
  // request is latency-sensitive (well under capacity on its own lane).
  const int total = 150;
  int ls_submitted = 0;
  int ls_admitted = 0;
  for (int r = 0; r < total; ++r) {
    const bool ls = r % 20 == 0;
    const Status status =
        service.Submit(r % NumJobs(), ls ? RequestPriority::kLatencySensitive
                                         : RequestPriority::kBatch);
    if (ls) {
      ++ls_submitted;
      if (status.ok()) ++ls_admitted;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  service.Drain();
  service.Stop();

  RoServiceStats stats = service.Stats();
  // The batch lane hit the shed rung...
  EXPECT_GT(stats.codel_shed_jobs, 0);
  EXPECT_EQ(stats.jobs_shed, stats.codel_shed_jobs);  // none were queue-full
  // ...after walking through the demotion rungs...
  EXPECT_GT(stats.codel_theta0_jobs + stats.codel_fuxi_jobs, 0);
  // ...while the latency-sensitive lane was never shed.
  EXPECT_EQ(ls_admitted, ls_submitted);

  // Priority protection in latency terms: LS requests jump the standing
  // batch backlog, so their p95 wait stays within a few service slots even
  // though the batch lane's wait grew to the backlog CoDel was draining.
  const auto snapshot = service.metrics().Snap();
  const double ls_p95 =
      snapshot.histograms.at("svc.queue_wait_ls_seconds").p95;
  const double batch_p95 =
      snapshot.histograms.at("svc.queue_wait_batch_seconds").p95;
  EXPECT_LT(ls_p95, 0.25);  // a few service slots, sanitizer-slack included
  EXPECT_GT(batch_p95, ls_p95);
}

TEST_F(ServiceFixture, SubmitValidatesAndStopsCleanly) {
  RoService service(&env_->workload(), &env_->model(), BaseSim(2),
                    StageOptimizer::IpaRaaPathWithFallback());
  EXPECT_EQ(service.Submit(-1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service.Submit(NumJobs()).code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(service.Submit(0).ok());
  service.Stop();
  EXPECT_EQ(service.Submit(0).code(), StatusCode::kFailedPrecondition);
  // The job admitted before Stop() still completed and merged.
  EXPECT_EQ(service.Stats().jobs_completed, 1);
  EXPECT_TRUE(service.first_error().ok());
  // Stop() is idempotent, including via the destructor.
  service.Stop();
}

}  // namespace
}  // namespace fgro
