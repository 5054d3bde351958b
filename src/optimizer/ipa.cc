#include "optimizer/ipa.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <numeric>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "optimizer/sharding.h"

namespace fgro {

bool BuildBplMatrix(const SchedulingContext& context,
                    const std::vector<int>& instance_rows,
                    const std::vector<int>& machine_cols,
                    std::vector<std::vector<double>>* L) {
  const Cluster& cluster = *context.cluster;
  const LatencyModel& model = *context.model;
  const int m = static_cast<int>(instance_rows.size());
  const int n = static_cast<int>(machine_cols.size());
  L->assign(static_cast<size_t>(m),
            std::vector<double>(static_cast<size_t>(n)));

  // Embed every row first — the GTN pass dominates and rows are
  // independent, so the chunks fan across the worker pool.
  std::vector<LatencyModel::EmbeddedInstance> embedded;
  if (!EmbedInstances(context, instance_rows, /*check_deadline=*/true,
                      &embedded)) {
    return false;
  }

  // The whole matrix as one flat batch: PredictBatch chunks internally, so
  // this never materializes m*n feature rows at once.
  std::vector<LatencyModel::PredictionQuery> queries;
  queries.reserve(static_cast<size_t>(m) * static_cast<size_t>(n));
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      const Machine& machine =
          cluster.machine(machine_cols[static_cast<size_t>(j)]);
      queries.push_back(LatencyModel::PredictionQuery{
          &embedded[static_cast<size_t>(i)],
          {context.theta0, machine.state(), machine.hardware().id}});
    }
  }
  std::vector<double> out(queries.size());
  LatencyModel::BatchScratch scratch;
  model.PredictBatch(queries, out.data(), &scratch, context.memo);
  for (int i = 0; i < m; ++i) {
    std::copy(out.begin() + static_cast<long>(i) * n,
              out.begin() + static_cast<long>(i + 1) * n,
              (*L)[static_cast<size_t>(i)].begin());
  }
  return true;
}

bool EmbedInstances(const SchedulingContext& context,
                    std::span<const int> instance_ids, bool check_deadline,
                    std::vector<LatencyModel::EmbeddedInstance>* out) {
  const int m = static_cast<int>(instance_ids.size());
  out->resize(static_cast<size_t>(m));
  if (m == 0) return true;
  // Four chunks per thread (the caller is one) balance the dynamic claim;
  // EmbedBatch bounds each chunk's scratch by node rows, not instances.
  const int threads =
      context.worker_pool != nullptr ? 1 + context.worker_pool->size() : 0;
  const int chunk = threads == 0 ? m : (m + 4 * threads - 1) / (4 * threads);
  const int chunks = (m + chunk - 1) / chunk;
  std::atomic<bool> failed{false};
  ParallelFor(context.worker_pool, chunks, [&](int c) {
    if (failed.load(std::memory_order_relaxed)) return;
    if (check_deadline && context.deadline.expired()) {
      failed.store(true, std::memory_order_relaxed);
      return;
    }
    const int begin = c * chunk;
    const int size = std::min(chunk, m - begin);
    LatencyModel::EmbedScratch scratch;
    if (!context.model
             ->EmbedBatch(*context.stage, instance_ids.subspan(begin, size),
                          out->data() + begin, &scratch)
             .ok()) {
      failed.store(true, std::memory_order_relaxed);
    }
  });
  return !failed.load();
}

std::vector<int> IpaGreedyMatch(const std::vector<std::vector<double>>& L,
                                std::vector<int> capacity) {
  const int m = static_cast<int>(L.size());
  const int n = m > 0 ? static_cast<int>(L[0].size()) : 0;
  std::vector<int> assignment(static_cast<size_t>(m), -1);
  if (m == 0) return assignment;

  long total_capacity = 0;
  for (int c : capacity) total_capacity += c;
  if (total_capacity < m) return {};  // no feasible solution

  std::vector<bool> machine_active(static_cast<size_t>(n));
  for (int j = 0; j < n; ++j) {
    machine_active[static_cast<size_t>(j)] =
        capacity[static_cast<size_t>(j)] > 0;
  }

  // Per-instance BPL and the machine achieving it.
  std::vector<double> bpl(static_cast<size_t>(m));
  std::vector<int> bpl_machine(static_cast<size_t>(m), -1);
  std::vector<bool> placed(static_cast<size_t>(m), false);
  auto recompute = [&](int i) {
    double best = std::numeric_limits<double>::infinity();
    int best_j = -1;
    const std::vector<double>& row = L[static_cast<size_t>(i)];
    for (int j = 0; j < n; ++j) {
      if (machine_active[static_cast<size_t>(j)] &&
          row[static_cast<size_t>(j)] < best) {
        best = row[static_cast<size_t>(j)];
        best_j = j;
      }
    }
    bpl[static_cast<size_t>(i)] = best;
    bpl_machine[static_cast<size_t>(i)] = best_j;
  };
  for (int i = 0; i < m; ++i) recompute(i);

  for (int placed_count = 0; placed_count < m; ++placed_count) {
    // Instance with the largest BPL goes first.
    int i_t = -1;
    double max_bpl = -1.0;
    for (int i = 0; i < m; ++i) {
      if (!placed[static_cast<size_t>(i)] &&
          bpl[static_cast<size_t>(i)] > max_bpl) {
        max_bpl = bpl[static_cast<size_t>(i)];
        i_t = i;
      }
    }
    FGRO_CHECK(i_t >= 0);
    int j_t = bpl_machine[static_cast<size_t>(i_t)];
    if (j_t < 0) return {};  // all machines exhausted with instances left
    assignment[static_cast<size_t>(i_t)] = j_t;
    placed[static_cast<size_t>(i_t)] = true;
    if (--capacity[static_cast<size_t>(j_t)] == 0) {
      machine_active[static_cast<size_t>(j_t)] = false;
      // Only instances whose BPL pointed at j_t need recomputation.
      for (int i = 0; i < m; ++i) {
        if (!placed[static_cast<size_t>(i)] &&
            bpl_machine[static_cast<size_t>(i)] == j_t) {
          recompute(i);
        }
      }
    }
  }
  return assignment;
}

double ColumnOrderViolationRate(const std::vector<std::vector<double>>& L,
                                int max_samples, uint64_t seed) {
  const int m = static_cast<int>(L.size());
  const int n = m > 0 ? static_cast<int>(L[0].size()) : 0;
  if (m < 2 || n < 2) return 0.0;
  Rng rng(seed);
  int violations = 0, samples = 0;
  for (int s = 0; s < max_samples; ++s) {
    int i1 = static_cast<int>(rng.UniformInt(0, m - 1));
    int i2 = static_cast<int>(rng.UniformInt(0, m - 1));
    if (i1 == i2) continue;
    int j = static_cast<int>(rng.UniformInt(1, n - 1));
    double ref = L[static_cast<size_t>(i1)][0] - L[static_cast<size_t>(i2)][0];
    double other = L[static_cast<size_t>(i1)][static_cast<size_t>(j)] -
                   L[static_cast<size_t>(i2)][static_cast<size_t>(j)];
    ++samples;
    if (ref * other < 0.0) ++violations;
  }
  return samples > 0 ? static_cast<double>(violations) / samples : 0.0;
}

StageDecision IpaSchedule(const SchedulingContext& context) {
  Stopwatch timer;
  StageDecision decision;
  const Stage& stage = *context.stage;
  const Cluster& cluster = *context.cluster;
  FGRO_CHECK(context.model != nullptr) << "IPA requires the latency model";
  const int m = stage.instance_count();

  std::vector<int> candidates = CandidateMachines(context);
  if (candidates.empty()) return decision;
  const int n = static_cast<int>(candidates.size());
  const int alpha = ResolveAlpha(context.alpha, m, n);

  std::vector<int> capacity(static_cast<size_t>(n));
  for (int j = 0; j < n; ++j) {
    capacity[static_cast<size_t>(j)] = InstanceCapacity(
        cluster.machine(candidates[static_cast<size_t>(j)]), context.theta0,
        alpha);
  }

  // Latency matrix: one plan embedding per instance, then a predictor sweep
  // over the candidate machines, batched into one PredictBatch.
  std::vector<int> instance_rows(static_cast<size_t>(m));
  std::iota(instance_rows.begin(), instance_rows.end(), 0);
  std::vector<std::vector<double>> L;
  if (!BuildBplMatrix(context, instance_rows, candidates, &L)) {
    decision.solve_seconds = timer.ElapsedSeconds();
    return decision;
  }

  if (context.deadline.expired()) {
    decision.solve_seconds = timer.ElapsedSeconds();
    return decision;
  }
  std::vector<int> assignment = IpaGreedyMatch(L, std::move(capacity));
  if (assignment.empty() && m > 0) return decision;

  decision.machine_of_instance.resize(static_cast<size_t>(m));
  for (int i = 0; i < m; ++i) {
    decision.machine_of_instance[static_cast<size_t>(i)] =
        candidates[static_cast<size_t>(assignment[static_cast<size_t>(i)])];
  }
  decision.theta_of_instance.assign(static_cast<size_t>(m), context.theta0);
  decision.feasible = true;
  decision.solve_seconds = timer.ElapsedSeconds();
  return decision;
}

}  // namespace fgro
