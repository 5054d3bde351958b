#ifndef FGRO_SIM_FAULT_INJECTOR_H_
#define FGRO_SIM_FAULT_INJECTOR_H_

#include <cstdint>
#include <vector>

#include "common/circuit_breaker.h"
#include "common/retry.h"

namespace fgro {

/// Fault-model knobs for one replay. All faults are generated from `seed`
/// only, so two runs with identical options produce byte-identical fault
/// schedules (the determinism tests assert this). `enabled = false` (the
/// default) makes the simulator take exactly the seed's happy path.
struct FaultOptions {
  bool enabled = false;

  /// Machine crashes follow a per-machine Poisson process with this many
  /// expected crashes per machine per day; each crash takes the machine
  /// down for `machine_recovery_seconds`.
  double machine_failure_rate_per_day = 0.0;
  double machine_recovery_seconds = 1800.0;

  /// Probability that any single instance attempt fails mid-run (container
  /// OOM, disk error, preemption). Independent per (job, stage, instance,
  /// attempt).
  double instance_failure_prob = 0.0;

  /// Probability that an attempt is a straggler, and the latency multiplier
  /// it suffers (hidden interference, bad disk — the cases speculative
  /// re-execution exists for).
  double straggler_prob = 0.0;
  double straggler_slowdown = 4.0;

  /// Speculative re-execution: when an instance's completion exceeds
  /// `speculative_threshold` x the stage median, a backup copy is launched;
  /// the first finisher wins and the loser's work is wasted cost.
  bool speculative_execution = true;
  double speculative_threshold = 2.0;

  /// Model-server outages: a Poisson process of unavailability windows
  /// during which schedulers see no model and must degrade.
  double model_outage_rate_per_day = 0.0;
  double model_outage_seconds = 600.0;

  /// Circuit breaker over model-server probes. Disabled (default), every
  /// stage probes the server directly (the oracle behavior). Enabled, the
  /// simulator probes through the breaker: repeated failed probes trip it
  /// and subsequent stages fall straight to the theta0/Fuxi ladder without
  /// burning a probe, until a half-open probe after the cooldown succeeds.
  CircuitBreakerOptions model_breaker;

  /// Horizon over which crash/outage schedules are generated. Events past
  /// the horizon never fire.
  double horizon_seconds = 7.0 * 86400.0;

  /// Retry policy for failed instance attempts; backoff is charged to the
  /// stage's simulated latency.
  RetryPolicy retry;

  uint64_t seed = 17;

  /// True when fault injection changes anything at all.
  bool active() const {
    return enabled &&
           (machine_failure_rate_per_day > 0.0 ||
            instance_failure_prob > 0.0 || straggler_prob > 0.0 ||
            model_outage_rate_per_day > 0.0);
  }
};

/// A half-open unavailability window [start, end) in absolute sim seconds.
struct FaultWindow {
  double start = 0.0;
  double end = 0.0;
};

/// Deterministic, order-independent fault source. Crash/outage windows are
/// materialized up front from per-entity forked seeds; per-attempt draws
/// (instance failure, straggler, failure point) are counter-based hashes of
/// (seed, job, stage, instance, attempt), so the same attempt always sees
/// the same fate regardless of how many draws other attempts consumed.
class FaultInjector {
 public:
  FaultInjector(const FaultOptions& options, int num_machines);

  const FaultOptions& options() const { return options_; }
  bool active() const { return options_.active(); }

  bool MachineUp(int machine_id, double now) const;
  bool ModelAvailable(double now) const;

  /// End of the machine's downtime window covering `now`, or `now` itself
  /// if the machine is up.
  double MachineRecoveryTime(int machine_id, double now) const;

  /// True when the machine has a crash window starting inside
  /// [start, start + duration); `*crash_at` receives the window start.
  bool MachineCrashesWithin(int machine_id, double start, double duration,
                            double* crash_at) const;

  /// False whenever the injector is inactive, whatever the probability.
  bool InstanceFails(int job, int stage, int instance, int attempt) const;

  /// Fraction of the attempt's latency already executed when it fails
  /// (work lost to the failure), in (0, 1).
  double FailurePointFraction(int job, int stage, int instance,
                              int attempt) const;

  /// 1.0 for a normal attempt, `straggler_slowdown` for a straggler; always
  /// 1.0 while the injector is inactive, so a fault-free attempt is exactly
  /// its outcome draw.
  double StragglerMultiplier(int job, int stage, int instance,
                             int attempt) const;

  const std::vector<std::vector<FaultWindow>>& machine_windows() const {
    return machine_windows_;
  }
  const std::vector<FaultWindow>& model_windows() const {
    return model_windows_;
  }

 private:
  double UnitDraw(uint64_t stream, int job, int stage, int instance,
                  int attempt) const;

  FaultOptions options_;
  std::vector<std::vector<FaultWindow>> machine_windows_;  // per machine
  std::vector<FaultWindow> model_windows_;
};

}  // namespace fgro

#endif  // FGRO_SIM_FAULT_INJECTOR_H_
