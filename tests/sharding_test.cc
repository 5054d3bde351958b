// Property suite for the POP-style sharded solve path (DESIGN.md §15):
// the MixSeed shard assignment is an exact partition, the shard-ordered
// merge never over-books a machine, k=1 is bit-identical to the legacy
// whole-fleet solve, shard-restricted contexts can never place onto an
// out-of-shard machine, sharded quality stays within a declared tolerance
// of the k=1 oracle, and replays are byte-identical across service_threads
// and repeated runs at any fixed (shard_seed, shard_count).

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstring>
#include <memory>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/thread_pool.h"
#include "hbo/hbo.h"
#include "optimizer/fuxi.h"
#include "optimizer/ipa.h"
#include "optimizer/ipa_clustered.h"
#include "optimizer/sharding.h"
#include "optimizer/stage_optimizer.h"
#include "service/ro_service.h"
#include "sim/experiment_env.h"
#include "sim/ro_metrics.h"
#include "test_util.h"

namespace fgro {
namespace {

// ---------------------------------------------------------------------------
// ShardPlanner: partition properties (no model needed)
// ---------------------------------------------------------------------------

TEST(ShardPlanTest, EveryMachineAndInstanceLandsInExactlyOneShard) {
  // Sparse, ascending machine universe (as a machine_subset would hand in).
  std::vector<int> machines;
  for (int id = 0; id < 257; ++id) {
    if (id % 3 != 1) machines.push_back(id);
  }
  const int m = 143;
  for (uint64_t seed : {uint64_t{0}, uint64_t{1}, uint64_t{0x706f70},
                        uint64_t{0xdeadbeef}}) {
    for (int k : {1, 2, 3, 4, 8, 16}) {
      ShardPlan plan = ShardPlanner::Plan(k, seed, machines, m);
      ASSERT_EQ(plan.shard_count, k);
      ASSERT_EQ(plan.machines_of_shard.size(), static_cast<size_t>(k));
      ASSERT_EQ(plan.instances_of_shard.size(), static_cast<size_t>(k));

      size_t machine_total = 0;
      std::set<int> seen_machines;
      for (const std::vector<int>& shard : plan.machines_of_shard) {
        EXPECT_TRUE(std::is_sorted(shard.begin(), shard.end()));
        machine_total += shard.size();
        seen_machines.insert(shard.begin(), shard.end());
      }
      // Exactly one shard per machine: totals match AND the union matches,
      // so there is neither duplication nor loss.
      EXPECT_EQ(machine_total, machines.size());
      EXPECT_EQ(seen_machines,
                std::set<int>(machines.begin(), machines.end()));

      size_t inst_total = 0;
      std::set<int> seen_instances;
      for (const std::vector<int>& shard : plan.instances_of_shard) {
        EXPECT_TRUE(std::is_sorted(shard.begin(), shard.end()));
        inst_total += shard.size();
        seen_instances.insert(shard.begin(), shard.end());
      }
      EXPECT_EQ(inst_total, static_cast<size_t>(m));
      EXPECT_EQ(static_cast<int>(seen_instances.size()), m);
      if (m > 0) {
        EXPECT_EQ(*seen_instances.begin(), 0);
        EXPECT_EQ(*seen_instances.rbegin(), m - 1);
      }
    }
  }
}

TEST(ShardPlanTest, DeterministicInSeedAndSensitiveToIt) {
  std::vector<int> machines(512);
  std::iota(machines.begin(), machines.end(), 0);
  ShardPlan a = ShardPlanner::Plan(8, 42, machines, 300);
  ShardPlan b = ShardPlanner::Plan(8, 42, machines, 300);
  EXPECT_EQ(a.machines_of_shard, b.machines_of_shard);
  EXPECT_EQ(a.instances_of_shard, b.instances_of_shard);
  ShardPlan c = ShardPlanner::Plan(8, 43, machines, 300);
  EXPECT_NE(a.machines_of_shard, c.machines_of_shard);
  EXPECT_NE(a.instances_of_shard, c.instances_of_shard);
}

TEST(EffectiveShardCountTest, CapsToProblemSize) {
  Cluster cluster(ClusterOptions{.num_machines = 8, .seed = 3});
  Stage narrow = testing_util::MakeChainStage(4);
  SchedulingContext context;
  context.stage = &narrow;
  context.cluster = &cluster;
  // Default shard_count = 1: the legacy path.
  EXPECT_EQ(EffectiveShardCount(context), 1);
  context.shard_count = 16;
  // m = 4 instances cap k.
  EXPECT_EQ(EffectiveShardCount(context), 4);
  Stage wide = testing_util::MakeChainStage(64);
  context.stage = &wide;
  // 8 machines / kMinMachinesPerShard cap k.
  EXPECT_EQ(EffectiveShardCount(context), 8 / kMinMachinesPerShard);
  std::vector<int> subset = {0, 1, 2};
  context.machine_subset = &subset;
  // A tiny machine view degenerates to the exact solve.
  EXPECT_EQ(EffectiveShardCount(context), 1);
}

// ---------------------------------------------------------------------------
// CandidateMachines: the shard view every solver enumerates through
// ---------------------------------------------------------------------------

TEST(CandidateMachinesTest, HonorsSubsetAndLiveness) {
  Cluster cluster(ClusterOptions{.num_machines = 16, .seed = 9});
  SchedulingContext context;
  context.cluster = &cluster;
  context.theta0.cores = 0.5;
  context.theta0.memory_gb = 0.5;

  // No subset: exactly the whole-fleet availability view.
  EXPECT_EQ(CandidateMachines(context),
            cluster.AvailableMachines(context.theta0));

  std::vector<int> subset = {2, 5, 11};
  context.machine_subset = &subset;
  std::vector<int> candidates = CandidateMachines(context);
  EXPECT_EQ(candidates, subset);

  // A down machine drops out of the shard view like it drops out of the
  // fleet view.
  cluster.machine(5).SetUp(false);
  candidates = CandidateMachines(context);
  EXPECT_EQ(candidates, (std::vector<int>{2, 11}));
}

// ---------------------------------------------------------------------------
// MergeShardDecisions: reconciliation without double-booking
// ---------------------------------------------------------------------------

TEST(MergeShardDecisionsTest, RescuesInfeasibleShardsWithoutDoubleBooking) {
  Cluster cluster(ClusterOptions{.num_machines = 12, .seed = 4});
  Stage stage = testing_util::MakeChainStage(10);
  SchedulingContext context;
  context.stage = &stage;
  context.cluster = &cluster;
  context.theta0.cores = 1.0;
  context.theta0.memory_gb = 2.0;

  std::vector<int> universe(static_cast<size_t>(cluster.size()));
  std::iota(universe.begin(), universe.end(), 0);
  ShardPlan plan = ShardPlanner::Plan(2, 7, universe, stage.instance_count());

  // Shard 0 solved (model-free Fuxi on its machine slice); shard 1 failed.
  std::vector<StageDecision> per_shard(2);
  {
    Stage view = stage;
    view.instances.clear();
    for (int idx : plan.instances_of_shard[0]) {
      view.instances.push_back(stage.instances[static_cast<size_t>(idx)]);
    }
    SchedulingContext sub = context;
    sub.stage = &view;
    sub.machine_subset = &plan.machines_of_shard[0];
    per_shard[0] = FuxiSchedule(sub);
    ASSERT_TRUE(per_shard[0].feasible);
  }

  ShardMergeStats stats;
  StageDecision merged =
      MergeShardDecisions(context, plan, per_shard, &stats);
  ASSERT_TRUE(merged.feasible);
  EXPECT_EQ(stats.infeasible_shards, 1);
  EXPECT_EQ(stats.rescued_instances,
            static_cast<int>(plan.instances_of_shard[1].size()));
  // Rescued instances run on theta0, so the merge reports the demotion.
  EXPECT_EQ(merged.fallback, FallbackLevel::kTheta0);

  // Shard 0's placements stay inside shard 0's machines.
  std::set<int> shard0(plan.machines_of_shard[0].begin(),
                       plan.machines_of_shard[0].end());
  for (int idx : plan.instances_of_shard[0]) {
    EXPECT_TRUE(
        shard0.count(merged.machine_of_instance[static_cast<size_t>(idx)]));
  }
  // No machine holds more instances than its physical theta0 capacity.
  std::vector<int> count(static_cast<size_t>(cluster.size()), 0);
  for (int id : merged.machine_of_instance) {
    ASSERT_GE(id, 0);
    count[static_cast<size_t>(id)]++;
  }
  for (int j = 0; j < cluster.size(); ++j) {
    EXPECT_LE(count[static_cast<size_t>(j)],
              InstanceCapacity(cluster.machine(j), context.theta0, INT_MAX));
  }
}

// ---------------------------------------------------------------------------
// End-to-end sharded solves on a trained environment
// ---------------------------------------------------------------------------

class ShardingFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ExperimentEnv::Options options;
    options.workload = WorkloadId::kA;
    options.scale = 0.05;
    options.train.epochs = 3;
    options.train.max_train_samples = 4000;
    options.seed = 77;
    Result<std::unique_ptr<ExperimentEnv>> env = ExperimentEnv::Build(options);
    ASSERT_TRUE(env.ok()) << env.status().ToString();
    env_ = std::move(env).value().release();
    cluster_ = new Cluster(ClusterOptions{.num_machines = 64, .seed = 21});
  }

  SchedulingContext MakeContext(const Stage& stage,
                                const Cluster* cluster = nullptr) {
    SchedulingContext context;
    context.stage = &stage;
    context.cluster = cluster != nullptr ? cluster : cluster_;
    context.model = &env_->model();
    Hbo hbo;
    context.theta0 = hbo.Recommend(stage).theta0;
    return context;
  }

  const Stage& WideStage(int min_instances = 24) {
    for (const Job& job : env_->workload().jobs) {
      for (const Stage& stage : job.stages) {
        if (stage.instance_count() >= min_instances) return stage;
      }
    }
    return env_->workload().jobs.front().stages.front();
  }

  /// Model-predicted WUN ingredients of a decision: stage latency (max over
  /// instances) and monetary cost (sum of predicted seconds * rate(theta)).
  std::pair<double, double> PredictedLatencyCost(
      const SchedulingContext& context, const StageDecision& decision) {
    const LatencyModel& model = *context.model;
    const Cluster& cluster = *context.cluster;
    double latency = 0.0, cost = 0.0;
    for (int i = 0; i < context.stage->instance_count(); ++i) {
      Result<LatencyModel::EmbeddedInstance> embedded =
          model.Embed(*context.stage, i);
      EXPECT_TRUE(embedded.ok());
      const Machine& machine = cluster.machine(
          decision.machine_of_instance[static_cast<size_t>(i)]);
      const ResourceConfig& theta =
          decision.theta_of_instance[static_cast<size_t>(i)];
      double p = model.PredictFromEmbedding(
          embedded.value(), theta, machine.state(), machine.hardware().id);
      latency = std::max(latency, p);
      cost += p * context.cost_weights.Rate(theta);
    }
    return {latency, cost};
  }

  /// Per machine, the summed theta cores and memory `decision` books stay
  /// within the machine's free capacity (Def. 5.2's capacity constraint).
  static void ExpectWithinFreeCapacity(const Cluster& cluster,
                                       const StageDecision& decision) {
    std::vector<double> cores(static_cast<size_t>(cluster.size()), 0.0);
    std::vector<double> memory(static_cast<size_t>(cluster.size()), 0.0);
    for (size_t i = 0; i < decision.machine_of_instance.size(); ++i) {
      const auto id = static_cast<size_t>(decision.machine_of_instance[i]);
      cores[id] += decision.theta_of_instance[i].cores;
      memory[id] += decision.theta_of_instance[i].memory_gb;
    }
    for (int j = 0; j < cluster.size(); ++j) {
      const Machine& machine = cluster.machine(j);
      EXPECT_LE(cores[static_cast<size_t>(j)],
                machine.available_cores() + 1e-9)
          << "machine " << j << " over-booked on cores";
      EXPECT_LE(memory[static_cast<size_t>(j)],
                machine.available_memory_gb() + 1e-9)
          << "machine " << j << " over-booked on memory";
    }
  }

  static ExperimentEnv* env_;
  static Cluster* cluster_;
};

ExperimentEnv* ShardingFixture::env_ = nullptr;
Cluster* ShardingFixture::cluster_ = nullptr;

TEST_F(ShardingFixture, KOneIsBitIdenticalToLegacy) {
  const Stage& stage = WideStage();
  StageOptimizer so(StageOptimizer::IpaRaaPath());
  StageDecision legacy = so.Optimize(MakeContext(stage));
  SchedulingContext context = MakeContext(stage);
  context.shard_count = 1;
  context.shard_seed = 999;  // must be irrelevant at k=1
  StageDecision sharded = so.Optimize(context);
  ASSERT_TRUE(legacy.feasible);
  ASSERT_TRUE(sharded.feasible);
  EXPECT_EQ(sharded.fallback, legacy.fallback);
  EXPECT_EQ(sharded.machine_of_instance, legacy.machine_of_instance);
  ASSERT_EQ(sharded.theta_of_instance.size(), legacy.theta_of_instance.size());
  for (size_t i = 0; i < legacy.theta_of_instance.size(); ++i) {
    EXPECT_TRUE(sharded.theta_of_instance[i] == legacy.theta_of_instance[i]);
  }
}

TEST_F(ShardingFixture, ShardRestrictedSolversNeverEscapeTheShard) {
  const Stage& stage = WideStage();
  std::vector<int> subset;
  for (int id = 0; id < cluster_->size(); id += 3) subset.push_back(id);
  std::set<int> allowed(subset.begin(), subset.end());

  SchedulingContext context = MakeContext(stage);
  context.machine_subset = &subset;

  StageDecision fuxi = FuxiSchedule(context);
  StageDecision ipa = IpaSchedule(context);
  StageDecision clustered = IpaClusteredSchedule(context).decision;
  for (const StageDecision* d : {&fuxi, &ipa, &clustered}) {
    ASSERT_TRUE(d->feasible);
    for (int machine : d->machine_of_instance) {
      EXPECT_TRUE(allowed.count(machine))
          << "solver placed onto out-of-shard machine " << machine;
    }
  }
}

TEST_F(ShardingFixture, ShardedSolveStaysInShardAndRespectsCapacity) {
  const Stage& stage = WideStage();
  SchedulingContext context = MakeContext(stage);
  context.shard_count = 4;
  context.shard_seed = 0xab;
  context.shard_refine_budget = 0;  // pure partition: no whole-fleet polish
  StageOptimizer so(StageOptimizer::IpaRaaPath());
  StageDecision decision = so.Optimize(context);
  ASSERT_TRUE(decision.feasible);
  ASSERT_EQ(decision.fallback, FallbackLevel::kPrimary)
      << "expected all shards feasible on this fleet";

  // Primary (rescue-free, refinement-free) sharded decisions place every
  // instance inside the shard its MixSeed assignment dictates.
  ShardPlan plan = PlanForContext(context);
  std::vector<int> shard_of_machine(static_cast<size_t>(cluster_->size()), -1);
  for (size_t s = 0; s < plan.machines_of_shard.size(); ++s) {
    for (int id : plan.machines_of_shard[s]) {
      shard_of_machine[static_cast<size_t>(id)] = static_cast<int>(s);
    }
  }
  for (size_t s = 0; s < plan.instances_of_shard.size(); ++s) {
    for (int idx : plan.instances_of_shard[s]) {
      int machine = decision.machine_of_instance[static_cast<size_t>(idx)];
      EXPECT_EQ(shard_of_machine[static_cast<size_t>(machine)],
                static_cast<int>(s))
          << "instance " << idx << " escaped its shard";
    }
  }

  // With the default refinement budget, at most that many instances may be
  // re-placed fleet-wide — never more.
  SchedulingContext refined_ctx = MakeContext(stage);
  refined_ctx.shard_count = 4;
  refined_ctx.shard_seed = 0xab;
  StageDecision refined = so.Optimize(refined_ctx);
  ASSERT_TRUE(refined.feasible);
  int escaped = 0;
  for (size_t s = 0; s < plan.instances_of_shard.size(); ++s) {
    for (int idx : plan.instances_of_shard[s]) {
      int machine = refined.machine_of_instance[static_cast<size_t>(idx)];
      if (shard_of_machine[static_cast<size_t>(machine)] !=
          static_cast<int>(s)) {
        ++escaped;
      }
    }
  }
  EXPECT_LE(escaped, EffectiveRefineBudget(refined_ctx));

  // Neither merge nor refinement ever over-books: per-machine instance
  // counts stay within the physical theta0 capacity.
  for (const StageDecision* d : {&decision, &refined}) {
    std::vector<int> count(static_cast<size_t>(cluster_->size()), 0);
    for (int id : d->machine_of_instance) {
      count[static_cast<size_t>(id)]++;
    }
    for (int j = 0; j < cluster_->size(); ++j) {
      EXPECT_LE(count[static_cast<size_t>(j)],
                InstanceCapacity(cluster_->machine(j), context.theta0,
                                 INT_MAX));
    }
  }
}

TEST_F(ShardingFixture, RefineKeepsSummedThetaWithinFreeCapacity) {
  // Frozen regression inputs: (fleet, stage) pairs whose refined sharded
  // decision over-booked a machine when refine admitted moves by a theta0
  // instance count — the moved bottleneck carries its larger RAA theta.
  struct Case {
    int machines;
    double util;
    uint64_t fleet_seed;
    int job;
    int instances;
  };
  for (const Case& c : {Case{64, 0.55, 21, 8, 135}, Case{32, 0.55, 11, 8, 135},
                        Case{64, 0.75, 8, 2, 159}}) {
    Cluster cluster(ClusterOptions{.num_machines = c.machines,
                                   .base_util_mean = c.util,
                                   .seed = c.fleet_seed});
    const Stage& stage =
        env_->workload().jobs[static_cast<size_t>(c.job)].stages[0];
    ASSERT_EQ(stage.instance_count(), c.instances) << "workload drifted";
    SchedulingContext context = MakeContext(stage, &cluster);
    context.shard_count = 4;
    StageDecision decision =
        StageOptimizer(StageOptimizer::IpaRaaPath()).Optimize(context);
    ASSERT_TRUE(decision.feasible);
    ExpectWithinFreeCapacity(cluster, decision);
  }
}

TEST_F(ShardingFixture, RefineIsByteIdenticalWithAndWithoutPool) {
  const Stage& stage = env_->workload().jobs[8].stages[0];
  SchedulingContext context = MakeContext(stage);
  context.shard_count = 4;
  const StageDecision start = FuxiSchedule(context);
  ASSERT_TRUE(start.feasible);

  StageDecision serial = start;
  const int serial_moves = RefineMergedDecision(context, &serial, true);
  ThreadPool pool(3);
  context.worker_pool = &pool;
  StageDecision pooled = start;
  const int pooled_moves = RefineMergedDecision(context, &pooled, true);

  EXPECT_GT(serial_moves, 0);
  EXPECT_EQ(pooled_moves, serial_moves);
  EXPECT_EQ(pooled.machine_of_instance, serial.machine_of_instance);
  ASSERT_EQ(pooled.theta_of_instance.size(), serial.theta_of_instance.size());
  EXPECT_EQ(std::memcmp(pooled.theta_of_instance.data(),
                        serial.theta_of_instance.data(),
                        serial.theta_of_instance.size() *
                            sizeof(ResourceConfig)),
            0);
  ExpectWithinFreeCapacity(*cluster_, serial);
}

TEST_F(ShardingFixture, ShardFanIsByteIdenticalAcrossPoolsAndRuns) {
  const Stage& stage = WideStage();
  StageOptimizer so(StageOptimizer::IpaRaaPath());

  SchedulingContext serial = MakeContext(stage);
  serial.shard_count = 4;
  StageDecision first = so.Optimize(serial);
  StageDecision again = so.Optimize(serial);

  ThreadPool pool(4);
  SchedulingContext pooled = MakeContext(stage);
  pooled.shard_count = 4;
  pooled.worker_pool = &pool;
  StageDecision parallel = so.Optimize(pooled);

  ASSERT_TRUE(first.feasible);
  for (const StageDecision* d : {&again, &parallel}) {
    EXPECT_EQ(d->feasible, first.feasible);
    EXPECT_EQ(d->fallback, first.fallback);
    EXPECT_EQ(d->machine_of_instance, first.machine_of_instance);
    ASSERT_EQ(d->theta_of_instance.size(), first.theta_of_instance.size());
    for (size_t i = 0; i < first.theta_of_instance.size(); ++i) {
      EXPECT_TRUE(d->theta_of_instance[i] == first.theta_of_instance[i]);
    }
  }
}

TEST_F(ShardingFixture, ShardedQualityWithinToleranceOfOracle) {
  // The test-sized analog of POP's ~1% loss bound: across a seeded sweep of
  // small randomized fleets, the sharded WUN plan (3:1 latency:cost under
  // the model's own predictions) stays within a declared tolerance of the
  // k=1 exact solve. The tolerance is deliberately loose relative to POP's
  // cluster-scale numbers — at 48 machines a shard is only ~12 machines, a
  // far coarser cross-section of the fleet than POP's thousands.
  constexpr double kOracleQualityTolerance = 0.10;
  StageOptimizer so(StageOptimizer::IpaRaaPath());
  double total_quality = 0.0;
  int solves = 0;
  for (uint64_t seed : {1, 2, 3, 4, 5}) {
    Cluster cluster(
        ClusterOptions{.num_machines = 96, .seed = 400 + seed});
    int stages_used = 0;
    for (const Job& job : env_->workload().jobs) {
      for (const Stage& stage : job.stages) {
        if (stage.instance_count() < 16 || stages_used >= 2) continue;
        ++stages_used;
        SchedulingContext context = MakeContext(stage, &cluster);
        StageDecision oracle = so.Optimize(context);
        context.shard_count = 4;
        context.shard_seed = seed;
        StageDecision sharded = so.Optimize(context);
        ASSERT_TRUE(oracle.feasible);
        ASSERT_TRUE(sharded.feasible);
        auto [oracle_lat, oracle_cost] = PredictedLatencyCost(context, oracle);
        auto [shard_lat, shard_cost] = PredictedLatencyCost(context, sharded);
        ASSERT_GT(oracle_lat, 0.0);
        ASSERT_GT(oracle_cost, 0.0);
        total_quality += (3.0 * (shard_lat / oracle_lat) +
                          1.0 * (shard_cost / oracle_cost)) /
                         4.0;
        ++solves;
      }
    }
  }
  ASSERT_GT(solves, 5);
  const double avg_quality = total_quality / solves;
  EXPECT_LE(avg_quality, 1.0 + kOracleQualityTolerance)
      << "sharded plans degraded " << (avg_quality - 1.0) * 100
      << "% vs the k=1 oracle across " << solves << " solves";
}

TEST_F(ShardingFixture, ReplayByteIdenticalAcrossThreadsAndRuns) {
  auto run = [&](int threads) {
    SimOptions sim_options;
    sim_options.seed = 11;
    sim_options.cluster.num_machines = 64;
    sim_options.shard_count = 4;
    sim_options.shard_seed = 0x706f70;
    sim_options.service_threads = threads;
    Result<SimResult> result =
        ServeWorkload(env_->workload(), &env_->model(), sim_options,
                      StageOptimizer::IpaRaaPathWithFallback());
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return Summarize(result.value());
  };
  RoSummary base = run(1);
  ASSERT_GT(base.num_stages, 0);
  // Across service_threads {1,2,8} and across repeated runs at the same
  // fixed (shard_seed, shard_count): every non-wall-clock field matches
  // exactly (wall-clock solve-time fields are excluded by convention).
  for (const RoSummary& s : {run(2), run(8), run(2)}) {
    EXPECT_EQ(s.num_stages, base.num_stages);
    EXPECT_EQ(s.coverage, base.coverage);
    EXPECT_EQ(s.avg_latency, base.avg_latency);
    EXPECT_EQ(s.avg_cost, base.avg_cost);
    EXPECT_EQ(s.goodput, base.goodput);
    EXPECT_EQ(s.fallback_histogram, base.fallback_histogram);
  }
}

}  // namespace
}  // namespace fgro
