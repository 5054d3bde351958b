#ifndef FGRO_PERFBENCH_WORKLOADS_H_
#define FGRO_PERFBENCH_WORKLOADS_H_

#include <string>

#include "harness.h"

namespace fgro::perfbench {

/// End-to-end metrics every workload reports (the timed run). Names and
/// units are BENCHMARK.json's end_to_end list; NOTES.md defines each per
/// workload.
struct EndToEnd {
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
  double decide_p50_ms = 0.0;
  double decide_p95_ms = 0.0;
  double decisions_per_s = 0.0;
  double request_p50_ms = 0.0;
  double request_p95_ms = 0.0;
  double capacity_rps = 0.0;
  double ok_frac = 0.0;
  double primary_frac = 0.0;
  double plan_latency_s = 0.0;
  double plan_cost_mdollar = 0.0;
};
void AddEndToEnd(const EndToEnd& e, Report* report);

/// Per-layer metrics of the traced run (BENCHMARK.json's per_layer list).
/// A layer a workload does not exercise reports 0.
struct PerLayer {
  SetupTimes setup;
  // optimizer: the decision tree (means per decision, ms).
  double decide_ms = 0.0;
  double ipa_ms = 0.0;
  double raa_ms = 0.0;
  double shard_plan_ms = 0.0;
  double shard_solve_ms = 0.0;
  double shard_merge_ms = 0.0;
  double shard_refine_ms = 0.0;
  double unattributed_ms = 0.0;
  double coverage = 0.0;
  double shard_refined_moves_per_decision = 0.0;
  // caches
  double frontier_hit_ratio = 0.0;
  double frontier_builds_per_decision = 0.0;
  double frontier_corrections_per_decision = 0.0;
  double memo_hit_ratio = 0.0;
  // model, clustering, moo: standalone unit costs beside the tree.
  double embed_us_per_instance = 0.0;
  double predict_rows_per_decision = 0.0;
  double rows_per_batch = 0.0;
  double predict_ns_per_row = 0.0;
  double wun_us = 0.0;
  double cluster_instances_us = 0.0;
  double cluster_machines_us = 0.0;
  // alloc
  double alloc_count_per_decision = 0.0;
  double alloc_bytes_per_decision = 0.0;
  double alloc_count_per_job = 0.0;
  double alloc_bytes_per_job = 0.0;
  // sim (per replayed job)
  double replay_ms_per_job = 0.0;
  double sim_self_ms_per_job = 0.0;
  double decide_ms_per_job = 0.0;
  double decide_calls_per_job = 0.0;
  double retries_per_job = 0.0;
  double failovers_per_job = 0.0;
  double speculative_copies_per_job = 0.0;
  double failed_instances_per_job = 0.0;
  double goodput = 0.0;
  // reconfig (per replayed job)
  double replans_per_job = 0.0;
  double migrations_per_job = 0.0;
  double fine_tunes_per_job = 0.0;
  double stale_drops_per_job = 0.0;
  // service
  double queue_wait_p50_ms = 0.0;
  double queue_wait_p99_ms = 0.0;
  double service_p50_ms = 0.0;
  double busy_frac = 0.0;
  double shed_frac = 0.0;
  double codel_demoted_frac = 0.0;
  double max_queue_depth = 0.0;
  // loadgen
  double lag_p99_ms = 0.0;
  // tracing itself
  double overhead_frac = 0.0;
};
void AddPerLayer(const PerLayer& p, Report* report);

/// The three workloads (NOTES.md says why each exists). Each adds the
/// end-to-end metrics (args.trace false) or the per-layer metrics (true).
void RunDecideHot(const Args& args, Report* report);
void RunDecideWideSharded(const Args& args, Report* report);
void RunServeChurn(const Args& args, Report* report);

}  // namespace fgro::perfbench

#endif  // FGRO_PERFBENCH_WORKLOADS_H_
