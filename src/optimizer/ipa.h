#ifndef FGRO_OPTIMIZER_IPA_H_
#define FGRO_OPTIMIZER_IPA_H_

#include <span>

#include "optimizer/scheduler_types.h"

namespace fgro {

/// Intelligent Placement Advisor, Algorithm 1: build the full m x n latency
/// matrix with the fine-grained model under the uniform resource plan
/// theta0, then greedily match the instance with the largest
/// best-possible-latency (BPL) to its best machine, updating BPLs whenever a
/// machine's capacity is exhausted. Optimal under the column-order
/// assumption (Theorem 5.1). This is the unclustered IPA(Org) of Expt 8 —
/// exact but with an m x n model-inference bill.
StageDecision IpaSchedule(const SchedulingContext& context);

/// Exposed for tests and the clustered variant: runs the BPL greedy loop on
/// an explicit latency matrix. `capacity[j]` is how many instances machine
/// column j can take. Returns the column index per row, or empty if no
/// feasible matching exists.
std::vector<int> IpaGreedyMatch(const std::vector<std::vector<double>>& L,
                                std::vector<int> capacity);

/// Shared by IPA and its clustered variant: fills (*L)[i][j] with the
/// predicted latency of stage instance instance_rows[i] on machine
/// machine_cols[j] (a cluster machine id) under theta0. The rows are
/// embedded by EmbedInstances and the whole matrix becomes one
/// PredictBatch call (chunked internally, memoized via context.memo),
/// bit-identical to embedding and predicting each cell on its own (the
/// scalar oracle BplMatrixTest keeps). Returns false when the deadline
/// expired or an embedding failed, in which case *L is unspecified.
bool BuildBplMatrix(const SchedulingContext& context,
                    const std::vector<int>& instance_rows,
                    const std::vector<int>& machine_cols,
                    std::vector<std::vector<double>>* L);

/// Embeds instance_ids[i] of context.stage into (*out)[i] (resized) with
/// LatencyModel::EmbedBatch. Without context.worker_pool that is one call;
/// with it the ids are cut into a few chunks per thread, fanned over the
/// pool with one scratch per chunk. Each slot is written by exactly one
/// chunk and an embedding does not depend on its chunk, so the result is
/// byte-identical at any thread count. With `check_deadline` a chunk first
/// checks context.deadline. Returns false when the deadline expired or an
/// embedding failed, in which case *out is unspecified.
bool EmbedInstances(const SchedulingContext& context,
                    std::span<const int> instance_ids, bool check_deadline,
                    std::vector<LatencyModel::EmbeddedInstance>* out);

/// Empirically checks Theorem 5.1's column-order assumption on a latency
/// matrix: samples instance pairs and machines and returns the fraction of
/// (pair, machine) samples whose latency order disagrees with the
/// consensus order of the first machine column. 0 = assumption holds
/// exactly; the paper measures it holding on 88-96% of production stages.
double ColumnOrderViolationRate(const std::vector<std::vector<double>>& L,
                                int max_samples = 2048, uint64_t seed = 1);

}  // namespace fgro

#endif  // FGRO_OPTIMIZER_IPA_H_
