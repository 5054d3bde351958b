// The repository benchmark driver. One run = one workload, one seed, one
// measured phase of --seconds; the last stdout line is the JSON result
// (end-to-end metrics with --trace 0, per-layer metrics with --trace 1).
// run.py builds this binary and forwards its arguments:
//
//   perfbench --workload decide-hot --seed 1 --seconds 30 --trace 0

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "alloc.h"
#include "common/logging.h"
#include "workloads.h"

namespace fgro::perfbench {

void AddEndToEnd(const EndToEnd& e, Report* report) {
  report->Add("setup_s", e.setup_s, "s");
  report->Add("peak_rss_mb", e.peak_rss_mb, "MB");
  report->Add("decide_p50_ms", e.decide_p50_ms, "ms");
  report->Add("decide_p95_ms", e.decide_p95_ms, "ms");
  report->Add("decisions_per_s", e.decisions_per_s, "1/s");
  report->Add("request_p50_ms", e.request_p50_ms, "ms");
  report->Add("request_p95_ms", e.request_p95_ms, "ms");
  report->Add("capacity_rps", e.capacity_rps, "1/s");
  report->Add("ok_frac", e.ok_frac, "ratio");
  report->Add("primary_frac", e.primary_frac, "ratio");
  report->Add("plan_latency_s", e.plan_latency_s, "s");
  report->Add("plan_cost", e.plan_cost_mdollar, "mUSD");
}

void AddPerLayer(const PerLayer& p, Report* report) {
  AddSetupMetrics(p.setup, report);
  report->Add("optimizer.decide_ms", p.decide_ms, "ms");
  report->Add("optimizer.ipa_ms", p.ipa_ms, "ms");
  report->Add("optimizer.raa_ms", p.raa_ms, "ms");
  report->Add("optimizer.shard_plan_ms", p.shard_plan_ms, "ms");
  report->Add("optimizer.shard_solve_ms", p.shard_solve_ms, "ms");
  report->Add("optimizer.shard_merge_ms", p.shard_merge_ms, "ms");
  report->Add("optimizer.shard_refine_ms", p.shard_refine_ms, "ms");
  report->Add("optimizer.unattributed_ms", p.unattributed_ms, "ms");
  report->Add("trace.coverage", p.coverage, "ratio");
  report->Add("optimizer.shard_refined_moves_per_decision",
              p.shard_refined_moves_per_decision, "count");
  report->Add("optimizer.frontier_hit_ratio", p.frontier_hit_ratio, "ratio");
  report->Add("optimizer.frontier_builds_per_decision",
              p.frontier_builds_per_decision, "count");
  report->Add("optimizer.frontier_corrections_per_decision",
              p.frontier_corrections_per_decision, "count");
  report->Add("model.memo_hit_ratio", p.memo_hit_ratio, "ratio");
  report->Add("model.embed_us_per_instance", p.embed_us_per_instance, "us");
  report->Add("model.predict_rows_per_decision", p.predict_rows_per_decision,
              "count");
  report->Add("model.rows_per_batch", p.rows_per_batch, "count");
  report->Add("model.predict_ns_per_row", p.predict_ns_per_row, "ns");
  report->Add("moo.wun_us", p.wun_us, "us");
  report->Add("clustering.instances_us", p.cluster_instances_us, "us");
  report->Add("clustering.machines_us", p.cluster_machines_us, "us");
  report->Add("alloc.count_per_decision", p.alloc_count_per_decision,
              "count");
  report->Add("alloc.bytes_per_decision", p.alloc_bytes_per_decision, "B");
  report->Add("alloc.count_per_job", p.alloc_count_per_job, "count");
  report->Add("alloc.bytes_per_job", p.alloc_bytes_per_job, "B");
  report->Add("sim.replay_ms_per_job", p.replay_ms_per_job, "ms");
  report->Add("sim.self_ms_per_job", p.sim_self_ms_per_job, "ms");
  report->Add("optimizer.decide_ms_per_job", p.decide_ms_per_job, "ms");
  report->Add("optimizer.decide_calls_per_job", p.decide_calls_per_job,
              "count");
  report->Add("sim.retries_per_job", p.retries_per_job, "count");
  report->Add("sim.failovers_per_job", p.failovers_per_job, "count");
  report->Add("sim.speculative_copies_per_job", p.speculative_copies_per_job,
              "count");
  report->Add("sim.failed_instances_per_job", p.failed_instances_per_job,
              "count");
  report->Add("sim.goodput", p.goodput, "ratio");
  report->Add("reconfig.replans_per_job", p.replans_per_job, "count");
  report->Add("reconfig.migrations_per_job", p.migrations_per_job, "count");
  report->Add("reconfig.fine_tunes_per_job", p.fine_tunes_per_job, "count");
  report->Add("reconfig.stale_drops_per_job", p.stale_drops_per_job, "count");
  report->Add("service.queue_wait_p50_ms", p.queue_wait_p50_ms, "ms");
  report->Add("service.queue_wait_p99_ms", p.queue_wait_p99_ms, "ms");
  report->Add("service.service_p50_ms", p.service_p50_ms, "ms");
  report->Add("service.busy_frac", p.busy_frac, "ratio");
  report->Add("service.shed_frac", p.shed_frac, "ratio");
  report->Add("service.codel_demoted_frac", p.codel_demoted_frac, "ratio");
  report->Add("service.max_queue_depth", p.max_queue_depth, "count");
  report->Add("loadgen.lag_p99_ms", p.lag_p99_ms, "ms");
  report->Add("trace.overhead_frac", p.overhead_frac, "ratio");
}

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "{decide-hot|decide-wide-sharded|serve-churn} --seed N "
               "--seconds S --trace {0|1}\n",
               why);
  return 2;
}

}  // namespace
}  // namespace fgro::perfbench

int main(int argc, char** argv) {
  using namespace fgro::perfbench;
  MarkProcessStart();
  fgro::SetLogLevel(fgro::LogLevel::kWarning);
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return Usage("--seed takes a non-negative integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args.seconds > 0.0) || args.seconds > 120.0) {
        return Usage("--seconds takes a number in (0, 120]");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace takes 0 or 1");
      }
      args.trace = value[0] == '1';
    } else {
      return Usage("unknown flag");
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (args.trace && !AllocCountingAvailable()) {
    return Usage("--trace 1 needs the perfbench_traced binary");
  }

  Report report;
  if (args.workload == "decide-hot") {
    RunDecideHot(args, &report);
  } else if (args.workload == "decide-wide-sharded") {
    RunDecideWideSharded(args, &report);
  } else if (args.workload == "serve-churn") {
    RunServeChurn(args, &report);
  } else {
    return Usage("unknown workload");
  }
  report.Print();
  return report.correct() ? 0 : 1;
}
