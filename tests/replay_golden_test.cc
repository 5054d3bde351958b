// Golden replay checksums: an FNV-1a hash over every deterministic field of
// every StageOutcome (per-instance latencies and thetas included) and of the
// RoSummary, for a matrix of simulator configurations that together reach
// every stage-execution branch of the replay: the fault-free draw, the
// retry/failover loop, speculative copies, breaker short circuits, drift
// demotion, straggler migration, mid-stage re-plans, stale-decision drops,
// the model lifecycle, and the service's Fuxi-demoted (reconfig-suppressed)
// requests. The constants were frozen from the simulator before its
// stage-execution paths were merged into one; a refactor of the replay must
// keep every one of them.
//
// Wall-clock fields (solve_seconds, stage_latency_in, wasted_solve_seconds
// and the summary's solve-time and queue-timing fields) are excluded: they
// measure the host, not the replay. The hashes depend on the bit patterns
// of floating-point results, so they are pinned for the x86-64 GCC/glibc
// toolchain the project builds with; a different libm may legitimately
// print different values.

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>

#include "common/rng.h"
#include "optimizer/fuxi.h"
#include "optimizer/stage_optimizer.h"
#include "service/ro_service.h"
#include "sim/experiment_env.h"
#include "sim/ro_metrics.h"

namespace fgro {
namespace {

class Fnv1a {
 public:
  void Bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void Add(double v) { Bytes(&v, sizeof(v)); }
  void Add(long v) { Bytes(&v, sizeof(v)); }
  void Add(int v) { Add(static_cast<long>(v)); }
  void Add(bool v) { Add(static_cast<long>(v)); }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

void HashOutcome(const StageOutcome& o, Fnv1a* h) {
  h->Add(o.job_idx);
  h->Add(o.stage_idx);
  h->Add(o.feasible);
  h->Add(o.num_instances);
  h->Add(o.stage_latency);
  h->Add(o.stage_cost);
  h->Add(o.default_theta_cores);
  h->Add(o.retries);
  h->Add(o.failovers);
  h->Add(o.speculative_copies);
  h->Add(o.speculative_wins);
  h->Add(o.failed_instances);
  h->Add(o.wasted_cost);
  h->Add(static_cast<int>(o.fallback));
  h->Add(o.model_short_circuited);
  h->Add(o.breaker_tripped);
  h->Add(o.breaker_recovered);
  h->Add(o.drift_demoted);
  h->Add(o.drift_alarm_raised);
  h->Add(o.replans);
  h->Add(o.stale_decision_drops);
  h->Add(o.migrations);
  h->Add(o.migration_wins);
  h->Add(o.fine_tunes);
  h->Add(o.promotions);
  h->Add(o.rollbacks);
  h->Add(o.gate_rejects);
  h->Add(o.shadow_rejects);
  h->Add(o.lifecycle_retrains);
  h->Add(o.wasted_decisions);
  h->Add(o.pred_abs_error);
  h->Add(o.pred_actual_sum);
  h->Add(static_cast<long>(o.instance_latencies.size()));
  for (double latency : o.instance_latencies) h->Add(latency);
  h->Add(static_cast<long>(o.instance_thetas.size()));
  for (const ResourceConfig& theta : o.instance_thetas) {
    h->Add(theta.cores);
    h->Add(theta.memory_gb);
  }
}

void HashSummary(const RoSummary& s, Fnv1a* h) {
  h->Add(s.num_stages);
  h->Add(s.feasible_stages);
  h->Add(s.coverage);
  h->Add(s.avg_latency);
  h->Add(s.avg_cost);
  h->Add(s.total_retries);
  h->Add(s.total_failovers);
  h->Add(s.speculative_copies);
  h->Add(s.speculative_wins);
  h->Add(s.failed_instances);
  h->Add(s.total_wasted_cost);
  h->Add(s.total_cost);
  h->Add(s.goodput);
  for (int count : s.fallback_histogram) h->Add(count);
  h->Add(s.breaker_trips);
  h->Add(s.breaker_short_circuits);
  h->Add(s.breaker_recoveries);
  h->Add(s.drift_alarms);
  h->Add(s.drift_demoted_stages);
  h->Add(s.total_replans);
  h->Add(s.stale_decision_drops);
  h->Add(s.migrations);
  h->Add(s.migration_wins);
  h->Add(s.fine_tunes);
  h->Add(s.promotions);
  h->Add(s.rollbacks);
  h->Add(s.gate_rejects);
  h->Add(s.shadow_rejects);
  h->Add(s.lifecycle_retrains);
  h->Add(s.wasted_decisions);
  h->Add(s.serving_wmape);
  h->Add(s.jobs_offered);
  h->Add(s.jobs_admitted);
  h->Add(s.jobs_shed);
  h->Add(s.jobs_completed);
  h->Add(s.jobs_failed);
  h->Add(s.jobs_latency_sensitive);
  h->Add(s.brownout_demotions);
  h->Add(s.brownout_promotions);
  h->Add(s.brownout_theta0_jobs);
  h->Add(s.brownout_fuxi_jobs);
  h->Add(s.deadline_expired_jobs);
  h->Add(s.expired_in_queue);
  h->Add(s.codel_shed_jobs);
  h->Add(s.codel_theta0_jobs);
  h->Add(s.codel_fuxi_jobs);
  h->Add(s.codel_interval_resets);
  h->Add(s.codel_target_adaptations);
  h->Add(s.codel_target_ms);
}

uint64_t HashResult(const SimResult& result, const RoSummary& summary) {
  Fnv1a h;
  h.Add(static_cast<long>(result.outcomes.size()));
  for (const StageOutcome& o : result.outcomes) HashOutcome(o, &h);
  HashSummary(summary, &h);
  return h.value();
}

enum class Sched { kFuxi, kIpaRaa };

class ReplayGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ExperimentEnv::Options options;
    options.workload = WorkloadId::kA;
    options.scale = 0.03;
    options.train.epochs = 1;
    options.train.max_train_samples = 800;
    Result<std::unique_ptr<ExperimentEnv>> env =
        ExperimentEnv::Build(options);
    ASSERT_TRUE(env.ok()) << env.status().ToString();
    env_ = std::move(env).value().release();
    for (const Job& job : env_->workload().jobs) {
      span_ = std::max(span_, job.arrival_time);
    }
  }
  static void TearDownTestSuite() {
    delete env_;
    env_ = nullptr;
  }

  static SimOptions Base() {
    SimOptions options;
    options.outcome = OutcomeMode::kEnvironment;
    options.seed = 13;
    return options;
  }

  /// Crashes, instance failures, stragglers, model outages and the breaker.
  static void AddFaults(SimOptions* options) {
    FaultOptions& f = options->faults;
    f.enabled = true;
    f.machine_failure_rate_per_day = 24.0;
    f.machine_recovery_seconds = 900.0;
    f.instance_failure_prob = 0.08;
    f.straggler_prob = 0.08;
    f.straggler_slowdown = 5.0;
    f.model_outage_rate_per_day = 24.0;
    f.model_outage_seconds = 1800.0;
    f.model_breaker.enabled = true;
    f.model_breaker.failure_threshold = 2;
    f.model_breaker.open_seconds = 900.0;
    f.seed = 23;
  }

  /// A x4 drift pulse over the middle of the trace, with the watchdog on.
  static void AddDriftPulse(SimOptions* options) {
    options->drift_multiplier = 4.0;
    options->drift_start_seconds = 0.2 * span_;
    options->drift_end_seconds = 0.7 * span_;
    options->drift_watchdog.enabled = true;
    options->drift_watchdog.window_size = 16;
    options->drift_watchdog.min_samples = 4;
  }

  static void AddReconfig(SimOptions* options) {
    options->reconfig.enabled = true;
    options->reconfig.dispatch_hazard_seconds = 30.0;
    options->reconfig.max_migrations_per_stage = 64;
    options->reconfig.migration_threshold = 2.0;
    options->reconfig.fine_tune_min_samples = 8;
    options->reconfig.fine_tune_cooldown_observations = 8;
  }

  static void AddLifecycle(SimOptions* options) {
    options->lifecycle.enabled = true;
    options->lifecycle.retrain_period_seconds = 40.0;
    options->lifecycle.retrain_min_samples = 16;
    options->lifecycle.retrain_epochs = 4;
    options->lifecycle.retrain_lr = 3e-3;
    options->lifecycle.shadow_observations = 16;
    options->lifecycle.probation_observations = 32;
  }

  /// Sequential replay of the whole workload with instance detail kept.
  static uint64_t Replay(const SimOptions& options, Sched sched,
                         RoSummary* summary) {
    Simulator sim(&env_->workload(), &env_->model(), options);
    StageOptimizer optimizer(StageOptimizer::IpaRaaPathWithFallback());
    Simulator::SchedulerFn fn;
    if (sched == Sched::kFuxi) {
      fn = [](const SchedulingContext& c) { return FuxiSchedule(c); };
    } else {
      fn = [&](const SchedulingContext& c) { return optimizer.Optimize(c); };
    }
    Result<SimResult> result = sim.Run(fn, /*keep_instance_detail=*/true);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return 0;
    *summary = Summarize(result.value());
    return HashResult(result.value(), *summary);
  }

  static void ExpectGolden(const char* name, uint64_t got, uint64_t want) {
    EXPECT_EQ(got, want) << name << ": replay checksum 0x" << std::hex << got
                         << " differs from the golden 0x" << want;
    std::printf("golden %-28s 0x%016" PRIx64 "\n", name, got);
  }

  static ExperimentEnv* env_;
  static double span_;
};

ExperimentEnv* ReplayGoldenTest::env_ = nullptr;
double ReplayGoldenTest::span_ = 0.0;

TEST_F(ReplayGoldenTest, FaultFreeReplays) {
  RoSummary fuxi, ipa;
  ExpectGolden("fuxi/faults-off", Replay(Base(), Sched::kFuxi, &fuxi),
               0x5468a9a7742761acULL);
  ExpectGolden("ipa/faults-off", Replay(Base(), Sched::kIpaRaa, &ipa),
               0x17fe16b577e7c22fULL);
  EXPECT_EQ(fuxi.total_retries + ipa.total_retries, 0);
  EXPECT_GT(ipa.coverage, 0.9);
}

TEST_F(ReplayGoldenTest, FaultyReplays) {
  SimOptions options = Base();
  AddFaults(&options);
  RoSummary fuxi, ipa, no_spec;
  ExpectGolden("fuxi/faults-on", Replay(options, Sched::kFuxi, &fuxi),
               0x01ab85ebb0431904ULL);
  ExpectGolden("ipa/faults-on", Replay(options, Sched::kIpaRaa, &ipa),
               0x887d7f8a5edb5409ULL);
  options.faults.speculative_execution = false;
  ExpectGolden("ipa/faults-on/no-spec",
               Replay(options, Sched::kIpaRaa, &no_spec),
               0x89c7c040584c6c16ULL);
  // Every fault mechanism fired: this pins live branches, not dead code.
  EXPECT_GT(ipa.total_retries, 0);
  EXPECT_GT(ipa.total_failovers, 0);
  EXPECT_GT(ipa.speculative_copies, 0);
  EXPECT_GT(fuxi.failed_instances + ipa.failed_instances, 0);
  EXPECT_GT(ipa.breaker_trips + ipa.breaker_short_circuits, 0);
  EXPECT_EQ(no_spec.speculative_copies, 0);
}

TEST_F(ReplayGoldenTest, ReconfigReplays) {
  SimOptions quiet = Base();
  AddReconfig(&quiet);
  SimOptions drift = quiet;
  AddDriftPulse(&drift);
  SimOptions churn = drift;
  AddFaults(&churn);
  RoSummary q, d, c;
  ExpectGolden("ipa/reconfig", Replay(quiet, Sched::kIpaRaa, &q),
               0x96f351a017857e06ULL);
  ExpectGolden("ipa/reconfig/drift", Replay(drift, Sched::kIpaRaa, &d),
               0x39a0e86543c063cbULL);
  ExpectGolden("ipa/reconfig/drift/faults",
               Replay(churn, Sched::kIpaRaa, &c), 0x3c990ae6f1679100ULL);
  EXPECT_GT(d.drift_alarms, 0);
  EXPECT_GT(d.fine_tunes + c.fine_tunes, 0);
  EXPECT_GT(d.migrations + c.migrations, 0);
  EXPECT_GT(c.total_replans, 0);
  EXPECT_GT(c.stale_decision_drops, 0);
  EXPECT_GT(c.total_retries, 0);
}

TEST_F(ReplayGoldenTest, LifecycleReplays) {
  SimOptions alone = Base();
  AddDriftPulse(&alone);
  AddLifecycle(&alone);
  SimOptions with_reconfig = alone;
  AddReconfig(&with_reconfig);
  AddFaults(&with_reconfig);
  RoSummary a, r;
  ExpectGolden("ipa/lifecycle/drift", Replay(alone, Sched::kIpaRaa, &a),
               0xdfeffaa70824c37dULL);
  ExpectGolden("ipa/lifecycle/reconfig/faults",
               Replay(with_reconfig, Sched::kIpaRaa, &r),
               0xd9408515b38ed8ffULL);
  EXPECT_GT(a.lifecycle_retrains, 0);
  EXPECT_GT(a.promotions + r.promotions, 0);
  EXPECT_GT(a.serving_wmape, 0.0);
}

TEST_F(ReplayGoldenTest, IsolatedReplayWithoutReconfig) {
  // The per-job replay a Fuxi-demoted service request takes: reconfig is
  // configured but suppressed for the job, so faults run without the
  // engine.
  SimOptions options = Base();
  AddFaults(&options);
  AddDriftPulse(&options);
  AddReconfig(&options);
  Simulator sim(&env_->workload(), &env_->model(), options);
  StageOptimizer optimizer(StageOptimizer::IpaRaaPathWithFallback());
  auto fuxi_level = [&](const SchedulingContext& c) {
    SchedulingContext ctx = c;
    ctx.model_available = false;
    return optimizer.Optimize(ctx);
  };
  SimResult merged;
  for (int j = 0; j < static_cast<int>(env_->workload().jobs.size()); ++j) {
    Result<std::vector<StageOutcome>> outcomes = sim.ReplayJobIsolated(
        fuxi_level, j, MixSeed(13, static_cast<uint64_t>(j)),
        /*keep_instance_detail=*/true, /*allow_reconfig=*/false);
    ASSERT_TRUE(outcomes.ok()) << outcomes.status().ToString();
    for (StageOutcome& o : outcomes.value()) {
      merged.outcomes.push_back(std::move(o));
    }
  }
  const RoSummary s = Summarize(merged);
  ExpectGolden("isolated/fuxi-level/no-reconfig", HashResult(merged, s),
               0x99b2e7b2655d2a65ULL);
  EXPECT_EQ(s.migrations + s.total_replans + s.fine_tunes, 0);
  EXPECT_GT(s.total_retries, 0);
}

TEST_F(ReplayGoldenTest, CodelServiceReplay) {
  // Three workers under virtual-clock CoDel with reconfig, faults and a
  // drift pulse: jobs CoDel demotes to the Fuxi rung replay with the
  // reconfiguration engine suppressed, the rest with it.
  SimOptions sim_options = Base();
  AddFaults(&sim_options);
  AddDriftPulse(&sim_options);
  AddReconfig(&sim_options);
  sim_options.service_threads = 3;

  RoServiceOptions service_options;
  const int num_jobs = static_cast<int>(env_->workload().jobs.size());
  const int rounds = 3;
  service_options.queue_capacity =
      static_cast<std::size_t>(rounds * num_jobs + 8);
  service_options.codel.enabled = true;
  service_options.codel_clock = CodelClockMode::kVirtualSim;
  service_options.codel.interval_seconds = 0.5;
  service_options.codel.theta0_count = 1;
  service_options.codel.fuxi_count = 2;
  service_options.codel.shed_count = 3;
  service_options.codel.protect_margin = 1;
  service_options.codel_virtual.interarrival_seconds = 0.4;
  service_options.codel_virtual.service_seconds = 1.0;
  service_options.codel_virtual.workers = 2;
  service_options.adaptive_target.enabled = true;
  service_options.adaptive_target.initial_target_seconds = 0.3;
  service_options.adaptive_target.min_target_seconds = 0.1;
  service_options.adaptive_target.max_target_seconds = 1.0;
  service_options.adaptive_target.window = 8;

  RoService service(&env_->workload(), &env_->model(), sim_options,
                    StageOptimizer::IpaRaaPathWithFallback(),
                    service_options);
  Fnv1a admitted;
  for (int r = 0; r < rounds; ++r) {
    for (int j = 0; j < num_jobs; ++j) {
      const Status status = service.Submit(
          j, j % 4 == 0 ? RequestPriority::kLatencySensitive
                        : RequestPriority::kBatch);
      admitted.Add(status.ok());
    }
  }
  service.Drain();
  const RoSummary summary = service.Summary();
  const SimResult result = service.TakeResult();
  Fnv1a h;
  h.Add(static_cast<long>(admitted.value()));
  h.Add(static_cast<long>(HashResult(result, summary)));
  ExpectGolden("service/codel/3-threads", h.value(), 0xe31a7af58fc5f441ULL);
  EXPECT_GT(summary.codel_fuxi_jobs, 0);
  EXPECT_GT(summary.codel_shed_jobs, 0);
  EXPECT_EQ(summary.jobs_failed, 0);
}

TEST_F(ReplayGoldenTest, DisabledFaultOptionsAreInertUnderReconfig) {
  // A fault config that is switched off must not perturb the replay, even
  // when it carries nonzero probabilities and the reconfiguration engine
  // draws straggler fates for its migrations.
  SimOptions plain = Base();
  AddReconfig(&plain);
  AddDriftPulse(&plain);
  SimOptions carrying = plain;
  AddFaults(&carrying);
  carrying.faults.enabled = false;
  carrying.faults.straggler_prob = 0.5;
  RoSummary p, c;
  const uint64_t plain_hash = Replay(plain, Sched::kIpaRaa, &p);
  EXPECT_EQ(Replay(carrying, Sched::kIpaRaa, &c), plain_hash);
  EXPECT_GT(c.migrations, 0);
  EXPECT_EQ(c.total_retries, 0);
}

}  // namespace
}  // namespace fgro
