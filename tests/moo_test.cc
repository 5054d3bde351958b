#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/rng.h"
#include "moo/config_space.h"
#include "moo/mogd.h"
#include "moo/nsga2.h"
#include "moo/pareto.h"
#include "moo/progressive_frontier.h"
#include "moo/weighted_sum.h"
#include "moo/wun.h"

namespace fgro {
namespace {

TEST(ParetoTest, DominanceDefinition) {
  EXPECT_TRUE(Dominates({1, 1}, {2, 2}));
  EXPECT_TRUE(Dominates({1, 2}, {2, 2}));
  EXPECT_FALSE(Dominates({1, 3}, {2, 2}));
  EXPECT_FALSE(Dominates({2, 2}, {2, 2}));  // equal does not dominate
}

TEST(ParetoTest, NonFinitePointsNeverDominate) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  // NaN comparisons are all false; without the guard {nan, nan} would
  // "dominate" nothing but {-inf, nan} style points could slip through.
  EXPECT_FALSE(Dominates({nan, 0.0}, {2, 2}));
  EXPECT_FALSE(Dominates({-inf, nan}, {2, 2}));
  EXPECT_FALSE(Dominates({-inf, 0.0}, {2, 2}));  // -inf is corrupt, not good
  EXPECT_FALSE(Dominates({1, 1}, {nan, 2}));
  // A finite point still dominates an infinitely BAD one.
  EXPECT_TRUE(Dominates({1, 1}, {inf, 2}));
}

TEST(ParetoTest, FilterDropsNonFinitePoints) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  // 2-D sweep path.
  std::vector<std::vector<double>> points = {
      {1.0, 4.0}, {nan, 0.0}, {2.0, 3.0}, {0.0, inf}, {3.0, 5.0}};
  std::vector<int> frontier = ParetoFilter(points);
  EXPECT_EQ(frontier, (std::vector<int>{0, 2}));
  // General N-D path.
  std::vector<std::vector<double>> points3 = {
      {1.0, 4.0, 2.0}, {nan, 0.0, 0.0}, {2.0, 3.0, 1.0}, {1.0, -inf, 0.0}};
  frontier = ParetoFilter(points3);
  for (int idx : frontier) {
    for (double v : points3[static_cast<size_t>(idx)]) {
      EXPECT_TRUE(std::isfinite(v));
    }
  }
  EXPECT_FALSE(frontier.empty());
  // All-corrupt input yields an empty frontier, not a poisoned one.
  EXPECT_TRUE(ParetoFilter({{nan, 1.0}, {inf, inf}}).empty());
}

std::vector<int> BruteForcePareto(
    const std::vector<std::vector<double>>& points) {
  std::vector<int> out;
  for (size_t i = 0; i < points.size(); ++i) {
    bool dominated = false;
    for (size_t j = 0; j < points.size() && !dominated; ++j) {
      if (i != j && Dominates(points[j], points[i])) dominated = true;
      if (j < i && points[j] == points[i]) dominated = true;
    }
    if (!dominated) out.push_back(static_cast<int>(i));
  }
  return out;
}

class ParetoFilterProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParetoFilterProperty, MatchesBruteForce2D) {
  Rng rng(GetParam());
  std::vector<std::vector<double>> points;
  int n = static_cast<int>(rng.UniformInt(1, 60));
  for (int i = 0; i < n; ++i) {
    points.push_back({rng.UniformInt(0, 10) * 1.0, rng.UniformInt(0, 10) * 1.0});
  }
  EXPECT_EQ(ParetoFilter(points), BruteForcePareto(points));
}

TEST_P(ParetoFilterProperty, MatchesBruteForce3D) {
  Rng rng(GetParam() + 100);
  std::vector<std::vector<double>> points;
  int n = static_cast<int>(rng.UniformInt(1, 40));
  for (int i = 0; i < n; ++i) {
    points.push_back({rng.Uniform(), rng.Uniform(), rng.Uniform()});
  }
  std::vector<int> fast = ParetoFilter(points);
  std::vector<int> brute = BruteForcePareto(points);
  EXPECT_EQ(fast, brute);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParetoFilterProperty,
                         ::testing::Range<uint64_t>(1, 13));

TEST(ConfigSpaceTest, GridAndCapacityFilter) {
  const std::vector<ResourceConfig>& grid = DefaultConfigGrid();
  EXPECT_GE(grid.size(), 40u);
  std::vector<ResourceConfig> small = FilterByCapacity(grid, 2.0, 8.0);
  for (const ResourceConfig& theta : small) {
    EXPECT_LE(theta.cores, 2.0);
    EXPECT_LE(theta.memory_gb, 8.0);
  }
  EXPECT_LT(small.size(), grid.size());
  EXPECT_TRUE(FilterByCapacity(grid, 0.01, 0.01).empty());
}

/// Synthetic latency model with a clean tradeoff: more cores -> faster.
double SyntheticLatency(const ResourceConfig& theta) {
  return 100.0 / std::pow(theta.cores, 0.7) +
         20.0 / std::sqrt(theta.memory_gb);
}

TEST(InstanceMooSolverTest, ExhaustiveIsParetoAndSorted) {
  InstanceMooSolver solver(CostWeights{});
  std::vector<InstanceParetoPoint> frontier =
      solver.SolveExhaustive(SyntheticLatency, DefaultConfigGrid());
  ASSERT_GE(frontier.size(), 2u);
  for (size_t i = 1; i < frontier.size(); ++i) {
    EXPECT_LT(frontier[i].latency, frontier[i - 1].latency);
    EXPECT_GT(frontier[i].cost, frontier[i - 1].cost);
  }
}

TEST(InstanceMooSolverTest, ProgressiveSubsetOfExhaustive) {
  InstanceMooSolver solver(CostWeights{});
  std::vector<InstanceParetoPoint> exhaustive =
      solver.SolveExhaustive(SyntheticLatency, DefaultConfigGrid());
  std::vector<InstanceParetoPoint> progressive =
      solver.SolveProgressive(SyntheticLatency, DefaultConfigGrid(), 64);
  ASSERT_FALSE(progressive.empty());
  // Every PF point must be on the exhaustive frontier.
  for (const InstanceParetoPoint& p : progressive) {
    bool found = false;
    for (const InstanceParetoPoint& e : exhaustive) {
      if (std::abs(e.latency - p.latency) < 1e-12 &&
          std::abs(e.cost - p.cost) < 1e-15) {
        found = true;
      }
    }
    EXPECT_TRUE(found) << p.latency;
  }
  // And PF must find the two anchor points.
  EXPECT_NEAR(progressive.back().latency, exhaustive.back().latency, 1e-12);
  EXPECT_NEAR(progressive.front().cost, exhaustive.front().cost, 1e-18);
}

TEST(MogdTest, MinimizesConvexQuadratic) {
  auto f = [](const Vec& x) {
    return (x[0] - 0.3) * (x[0] - 0.3) + (x[1] + 0.2) * (x[1] + 0.2);
  };
  Vec best = MinimizeFiniteDiff(f, {0.9, 0.9}, {-1, -1}, {1, 1},
                                {.iterations = 120, .restarts = 3, .lr = 0.4});
  EXPECT_NEAR(best[0], 0.3, 0.05);
  EXPECT_NEAR(best[1], -0.2, 0.05);
}

TEST(MogdTest, RespectsBoxConstraints) {
  auto f = [](const Vec& x) { return -x[0]; };  // wants x[0] -> +inf
  Vec best = MinimizeFiniteDiff(f, {0.0}, {0.0}, {2.0},
                                {.iterations = 60, .restarts = 1});
  EXPECT_LE(best[0], 2.0 + 1e-12);
  EXPECT_NEAR(best[0], 2.0, 0.05);
}

MooProblem MakeBiobjectiveProblem() {
  // Minimize (x, 1-x) over x in [0,1] with 8 vars averaged: classic convex
  // front; feasible iff x1 <= 0.9.
  MooProblem problem;
  problem.num_vars = 4;
  problem.num_objectives = 2;
  problem.sample_var = [](int, Rng* rng) { return rng->Uniform(0.0, 1.0); };
  problem.evaluate = [](const Vec& genome) {
    double mean = 0.0;
    for (double g : genome) mean += g;
    mean /= static_cast<double>(genome.size());
    MooEvaluation eval;
    eval.objectives = {mean, (1.0 - mean) * (1.0 - mean)};
    eval.violation = genome[0] > 0.9 ? genome[0] - 0.9 : 0.0;
    return eval;
  };
  return problem;
}

TEST(Nsga2Test, FindsSpreadFeasibleFront) {
  Nsga2Result result = RunNsga2(MakeBiobjectiveProblem(),
                                {.population = 32, .generations = 25,
                                 .seed = 9});
  ASSERT_GE(result.objectives.size(), 3u);
  double min_f1 = 1e18, max_f1 = -1e18;
  for (const std::vector<double>& obj : result.objectives) {
    min_f1 = std::min(min_f1, obj[0]);
    max_f1 = std::max(max_f1, obj[0]);
  }
  EXPECT_LT(min_f1, 0.25);
  EXPECT_GT(max_f1, 0.5);
  // Result must be mutually non-dominated.
  for (size_t i = 0; i < result.objectives.size(); ++i) {
    for (size_t j = 0; j < result.objectives.size(); ++j) {
      EXPECT_FALSE(i != j &&
                   Dominates(result.objectives[i], result.objectives[j]));
    }
  }
}

TEST(Nsga2Test, RespectsConstraint) {
  Nsga2Result result = RunNsga2(MakeBiobjectiveProblem(),
                                {.population = 24, .generations = 15,
                                 .seed = 10});
  for (const Vec& genome : result.genomes) {
    EXPECT_LE(genome[0], 0.9 + 1e-9);
  }
}

TEST(Nsga2Test, TimeLimitShortCircuits) {
  MooProblem slow = MakeBiobjectiveProblem();
  slow.evaluate = [base = slow.evaluate](const Vec& g) {
    volatile double sink = 0;
    for (int i = 0; i < 2000000; ++i) sink = sink + i;
    return base(g);
  };
  Nsga2Result result = RunNsga2(slow, {.population = 64, .generations = 50,
                                       .time_limit_seconds = 0.2, .seed = 2});
  EXPECT_TRUE(result.timed_out);
}

TEST(WsSampleTest, FindsFeasibleFront) {
  WsSampleResult result = RunWeightedSumSampling(
      MakeBiobjectiveProblem(), {.num_samples = 2000, .seed = 3});
  EXPECT_GT(result.feasible_samples, 100);
  ASSERT_GE(result.objectives.size(), 2u);
  for (size_t i = 0; i < result.objectives.size(); ++i) {
    for (size_t j = 0; j < result.objectives.size(); ++j) {
      EXPECT_FALSE(i != j &&
                   Dominates(result.objectives[i], result.objectives[j]));
    }
  }
}

TEST(WsSampleTest, InfeasibleProblemReturnsEmpty) {
  MooProblem problem = MakeBiobjectiveProblem();
  problem.evaluate = [](const Vec&) {
    MooEvaluation e;
    e.objectives = {1, 1};
    e.violation = 1.0;
    return e;
  };
  WsSampleResult result = RunWeightedSumSampling(problem, {.num_samples = 100});
  EXPECT_EQ(result.feasible_samples, 0);
  EXPECT_TRUE(result.objectives.empty());
}

TEST(WunTest, PicksKneePoint) {
  std::vector<std::vector<double>> pareto = {
      {0.0, 10.0}, {1.0, 1.0}, {10.0, 0.0}};
  EXPECT_EQ(WeightedUtopiaNearest(pareto), 1);
}

TEST(WunTest, WeightsShiftTheChoice) {
  std::vector<std::vector<double>> pareto = {
      {0.0, 10.0}, {5.0, 5.0}, {10.0, 0.0}};
  // Heavy latency weight picks the low-latency end.
  EXPECT_EQ(WeightedUtopiaNearest(pareto, {100.0, 1.0}), 0);
  EXPECT_EQ(WeightedUtopiaNearest(pareto, {1.0, 100.0}), 2);
}

TEST(WunTest, EdgeCases) {
  EXPECT_EQ(WeightedUtopiaNearest({}), -1);
  EXPECT_EQ(WeightedUtopiaNearest({{1.0, 2.0}}), 0);
}

TEST(WunTest, NonFinitePointsNeverWin) {
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  // A NaN point would otherwise poison the lo/hi normalization bounds and
  // could win on a NaN distance comparison.
  std::vector<std::vector<double>> pareto = {
      {nan, 0.0}, {0.0, 10.0}, {1.0, 1.0}, {10.0, 0.0}, {0.0, inf}};
  EXPECT_EQ(WeightedUtopiaNearest(pareto), 2);
  // No finite candidate at all: -1, not an arbitrary corrupt pick.
  EXPECT_EQ(WeightedUtopiaNearest({{nan, 1.0}, {1.0, inf}}), -1);
}

TEST(ConstrainedCompareTest, FeasibilityFirst) {
  MooEvaluation feasible{{5, 5}, 0.0};
  MooEvaluation infeasible{{1, 1}, 2.0};
  MooEvaluation less_infeasible{{9, 9}, 1.0};
  EXPECT_EQ(ConstrainedCompare(feasible, infeasible), 1);
  EXPECT_EQ(ConstrainedCompare(infeasible, feasible), -1);
  EXPECT_EQ(ConstrainedCompare(less_infeasible, infeasible), 1);
  MooEvaluation better{{1, 5}, 0.0};
  EXPECT_EQ(ConstrainedCompare(better, feasible), 1);
  EXPECT_EQ(ConstrainedCompare(feasible, feasible), 0);
}

}  // namespace
}  // namespace fgro
