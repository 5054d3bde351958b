#ifndef FGRO_SIM_RO_METRICS_H_
#define FGRO_SIM_RO_METRICS_H_

#include <array>

#include "sim/simulator.h"

namespace fgro {

/// Aggregate resource-optimization metrics over one replay (the columns of
/// Tables 2 and 11), plus the fault-tolerance accounting of the
/// failure-sweep bench.
struct RoSummary {
  int num_stages = 0;
  int feasible_stages = 0;
  double coverage = 0.0;        // feasible within the RO time limit
  double avg_latency = 0.0;     // excluding solve time, feasible stages
  double avg_latency_in = 0.0;  // including solve time
  double avg_cost = 0.0;
  double avg_solve_ms = 0.0;
  double max_solve_ms = 0.0;
  // Fault-tolerance accounting, over ALL stages (failed ones included).
  long total_retries = 0;
  long total_failovers = 0;
  long speculative_copies = 0;
  long speculative_wins = 0;
  int failed_instances = 0;
  double total_wasted_cost = 0.0;
  double total_cost = 0.0;      // useful + wasted, all stages
  double goodput = 1.0;         // useful cost / total cost
  /// Stages decided at each degradation-ladder level, indexed by
  /// FallbackLevel (primary / theta0 / fuxi).
  std::array<int, 3> fallback_histogram = {0, 0, 0};
  /// Defensive-layer accounting (all zero with breaker/watchdog off).
  long breaker_trips = 0;           // stages where the breaker opened
  long breaker_short_circuits = 0;  // stages that skipped the model probe
  long breaker_recoveries = 0;      // stages where a half-open probe closed it
  long drift_alarms = 0;            // watchdog alarm transitions
  long drift_demoted_stages = 0;    // stages degraded by an active alarm
  /// Reconfiguration accounting (all zero with the engine off).
  long total_replans = 0;           // mid-stage partial re-plans swapped in
  long stale_decision_drops = 0;    // decisions dropped for superseded epoch
  long migrations = 0;              // straggler migrations executed
  long migration_wins = 0;          // migrations that beat the original run
  long fine_tunes = 0;              // online model updates
  /// Model-lifecycle accounting (all zero with the lifecycle off).
  long promotions = 0;              // candidates promoted into service
  long rollbacks = 0;               // probation rollbacks to the predecessor
  long gate_rejects = 0;            // candidates the static gate refused
  long shadow_rejects = 0;          // candidates the shadow window refused
  long lifecycle_retrains = 0;      // scheduled retrains submitted
  long wasted_decisions = 0;        // decisions invalidated by a rollback
  double wasted_solve_seconds = 0.0;
  /// Serving WMAPE of the active model over the shadow observations
  /// (sum |pred - actual| / sum actual); 0 when nothing was observed.
  double serving_wmape = 0.0;
  /// Concurrent-service accounting (all zero in sequential replays).
  /// Filled by RoService, not by Summarize(); the wall-clock fields
  /// (queue_wait_p95_ms, service_p95_ms, max_queue_depth) depend on thread
  /// count and load and are excluded from determinism comparisons.
  long jobs_offered = 0;       // Submit() calls
  long jobs_admitted = 0;      // accepted into the admission queue
  long jobs_shed = 0;          // rejected with kResourceExhausted
  long jobs_completed = 0;     // replays that finished (ok or failed)
  long jobs_failed = 0;        // replays that returned an error status
  long jobs_latency_sensitive = 0;  // admitted on the priority lane
  long deadline_expired_jobs = 0;   // per-request deadline gone at dequeue
  long expired_in_queue = 0;        // expired requests completed as shed
  /// CoDel accounting (all zero when CoDel is off).
  long codel_shed_jobs = 0;         // early-dropped at admission
  long codel_theta0_jobs = 0;       // served one ladder level down
  long codel_fuxi_jobs = 0;         // served at the floor level
  long codel_interval_resets = 0;   // overload episodes ended
  long codel_target_adaptations = 0;  // learned-target steps
  double codel_target_ms = 0.0;     // final learned sojourn target
  double queue_wait_p95_ms = 0.0;   // admission -> dequeue (wall clock)
  double service_p95_ms = 0.0;      // dequeue -> completion (wall clock)
  int max_queue_depth = 0;          // high-water mark of the queue
};

RoSummary Summarize(const SimResult& result);

/// Reduction rates against a baseline (Fuxi): positive = this method is
/// better. Averaged over totals, as in Table 2.
struct ReductionRates {
  double latency_in_rr = 0.0;  // on Lat_s^(in)
  double latency_rr = 0.0;     // on Lat_s (excluding solve time)
  double cost_rr = 0.0;
};

ReductionRates ComputeReduction(const RoSummary& baseline,
                                const RoSummary& method);

/// Paired comparison: summaries restricted to the stages feasible in BOTH
/// replays, so a low-coverage method is not judged on a cherry-picked
/// subset. Both results must come from the same job set (same outcome
/// order).
struct PairedSummaries {
  RoSummary baseline;
  RoSummary method;
  int paired_stages = 0;
};
PairedSummaries SummarizePaired(const SimResult& baseline,
                                const SimResult& method);

}  // namespace fgro

#endif  // FGRO_SIM_RO_METRICS_H_
