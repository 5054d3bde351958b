#ifndef FGRO_SERVICE_RO_SERVICE_H_
#define FGRO_SERVICE_RO_SERVICE_H_

#include <condition_variable>
#include <memory>
#include <mutex>
#include <vector>

#include "common/bounded_queue.h"
#include "common/codel.h"
#include "common/deadline.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "model/latency_model.h"
#include "obs/metrics.h"
#include "optimizer/stage_optimizer.h"
#include "service/adaptive_target.h"
#include "sim/ro_metrics.h"
#include "sim/simulator.h"
#include "trace/workload_gen.h"

namespace fgro {

/// Admission priority class. Latency-sensitive requests are always popped
/// before batch requests (strict priority, FIFO within a class); both
/// classes share the bounded queue and are shed identically when it fills.
enum class RequestPriority { kLatencySensitive = 0, kBatch = 1 };

/// Which clock drives CoDel's sojourn observations. kVirtualSim derives
/// enqueue/dequeue times from the deterministic virtual queue model
/// (CodelVirtualModel): every CoDel decision is fixed at admission, in
/// submission order under the control-plane mutex, so the merged replay is
/// byte-identical across service_threads — the sim-clock-derived mode
/// determinism_test pins down. kWallClock timestamps real enqueue/dequeue
/// (the live-serving mode bench_overload exercises); only batch-lane
/// sojourns feed the controller there, because a latency-sensitive
/// request overtakes the batch lane and its near-zero sojourn is not
/// evidence about the standing backlog CoDel controls.
enum class CodelClockMode { kVirtualSim = 0, kWallClock = 1 };

struct RoServiceOptions {
  /// Admission-queue bound. A Submit() that finds the queue full is shed
  /// immediately with kResourceExhausted — the service never blocks the
  /// caller and never buffers unboundedly.
  std::size_t queue_capacity = 64;
  /// Per-request wall-clock budget armed at admission (0 = no deadline).
  /// A request whose deadline already expired while it waited in the queue
  /// is completed as shed at dequeue (expired_in_queue counter) — solving
  /// it even at the cheapest ladder level would burn a worker on an answer
  /// the caller has already given up on.
  double request_deadline_seconds = 0.0;
  /// Artificial per-job service-time floor (seconds). Zero in production;
  /// overload tests raise it so a burst deterministically outruns the
  /// workers and exercises shedding and CoDel demotion.
  double min_service_seconds = 0.0;
  /// Admission control: sojourn-time CoDel over the admission queue,
  /// driving the three-rung response (theta0 demotion, Fuxi demotion,
  /// early-drop shed) with latency-sensitive-lane protection. Off, every
  /// request is served at the primary level.
  CodelOptions codel;
  CodelClockMode codel_clock = CodelClockMode::kVirtualSim;
  /// Virtual queue model backing kVirtualSim (ignored under kWallClock).
  CodelVirtualModel codel_virtual;
  /// Online target learning from the observed latency/throughput curve
  /// (only consulted when codel.enabled).
  AdaptiveTargetOptions adaptive_target;
};

/// Counters the service accumulates; folded into RoSummary by Summary().
struct RoServiceStats {
  long jobs_offered = 0;
  long jobs_admitted = 0;
  long jobs_shed = 0;
  long jobs_completed = 0;
  long jobs_failed = 0;
  long jobs_latency_sensitive = 0;
  long deadline_expired_jobs = 0;
  /// Deadline-aware dequeue shed: requests completed as shed because the
  /// deadline expired while they waited (subset of deadline_expired_jobs).
  long expired_in_queue = 0;
  /// CoDel arm accounting (all zero when codel is disabled).
  long codel_shed_jobs = 0;     // early-dropped at admission (shed rung)
  long codel_theta0_jobs = 0;   // served one ladder level down
  long codel_fuxi_jobs = 0;     // served at the floor level
  long codel_interval_resets = 0;      // overload episodes ended
  long codel_target_adaptations = 0;   // learned-target steps taken
  double codel_target_ms = 0.0;        // current (learned) sojourn target
  double queue_wait_p95_ms = 0.0;
  double service_p95_ms = 0.0;
  int max_queue_depth = 0;
};

/// Concurrent RO service: a fixed pool of workers pulls stage-optimization
/// requests (one request = one job replay) from a bounded two-lane
/// admission queue. Overload is handled in three layers:
///
///   1. Load shedding — Submit() on a full queue rejects immediately with
///      kResourceExhausted instead of queueing unboundedly.
///   2. Adaptive CoDel admission control — every request is timestamped
///      at enqueue and its sojourn observed at dequeue; when the minimum
///      sojourn stays above a (learned) target for a control interval the
///      service walks a three-rung response at inverse-sqrt-tightening
///      intervals: theta0 demotion, Fuxi demotion, then early-dropping the
///      freshest batch arrivals, while the latency-sensitive lane is
///      protected (demoted later, never shed). The target itself is
///      learned online from the observed latency/throughput curve
///      (AdaptiveTarget).
///   3. Per-request deadlines — a request whose budget expired while it
///      queued is completed as shed at dequeue instead of burning a worker.
///
/// Determinism: each job replays in isolation (Simulator::ReplayJobIsolated)
/// with a private RNG stream seeded MixSeed(sim.seed, job_idx), so with
/// wall-clock CoDel and deadlines off the merged SimResult is
/// byte-identical for any worker count. Workers accumulate stage outcomes
/// and latency samples into per-worker locals merged at Stop() — no
/// atomics on the replay path; the service mutex guards only the
/// once-per-job control plane (counters, CoDel observations, drain
/// signalling).
///
/// Use a degrade_gracefully optimizer config: CoDel demotions and expired
/// deadlines degrade via the ladder, which a non-FB config does not take.
class RoService {
 public:
  RoService(const Workload* workload, const LatencyModel* model,
            const SimOptions& sim_options,
            const StageOptimizer::Config& optimizer_config,
            RoServiceOptions options = {});
  ~RoService();

  RoService(const RoService&) = delete;
  RoService& operator=(const RoService&) = delete;

  /// Offers one job to the service. Returns OK when admitted,
  /// kResourceExhausted when shed (queue full), kInvalidArgument for a bad
  /// job index, kFailedPrecondition after Stop().
  Status Submit(int job_idx, RequestPriority priority = RequestPriority::kBatch);

  /// Blocks until every admitted request has completed. The service stays
  /// open for further Submit() calls.
  void Drain();

  /// Closes admission, drains the queue, joins the workers, and merges the
  /// per-worker results. Idempotent.
  void Stop();

  /// Merged replay result, outcomes ordered by admission slot (so equal to
  /// the sequential order when jobs were submitted in index order).
  /// Implies Stop().
  SimResult TakeResult();

  /// Aggregate RO metrics over the merged result, with the service-layer
  /// fields (shed / CoDel / queue metrics) filled in. Implies Stop().
  RoSummary Summary();

  /// First replay error any worker hit (OK when none). Implies Stop().
  Status first_error();

  /// Service counters so far (callable while running).
  RoServiceStats Stats() const;

  /// Job indices in completion order (for priority-ordering tests).
  /// Implies Stop().
  const std::vector<int>& completion_order();

  int num_workers() const { return num_workers_; }

  /// The metrics registry this service records into: the caller's, when
  /// SimOptions::obs.metrics was wired (so service, simulator, optimizer,
  /// and model share one breakdown), else a private registry owned by the
  /// service. Always safe to snapshot, including while serving.
  const obs::MetricsRegistry& metrics() const { return *metrics_; }

 private:
  struct Request {
    int job_idx = 0;
    int slot = 0;  // admission sequence number, orders the merged result
    RequestPriority priority = RequestPriority::kBatch;
    Deadline deadline;
    double admit_time = 0.0;  // steady-clock seconds
    /// Ladder level CoDel pinned at admission (kVirtualSim mode only):
    /// decided in submission order under the mutex, so it is a pure
    /// function of the submission sequence — the determinism anchor.
    FallbackLevel codel_level = FallbackLevel::kPrimary;
  };

  /// Per-worker accumulation (the no-atomics-on-hot-path rule): the bulk
  /// data — stage outcomes — collects here without any synchronization and
  /// merges once, at Stop(). Wait/service latency samples go straight into
  /// the shared obs histograms (one relaxed atomic bump per completed job,
  /// off the per-stage path). The cheap per-job counters live in stats_
  /// and are bumped inside the one control-plane lock each job already
  /// takes, so Stats() is accurate while running.
  struct WorkerLocal {
    std::vector<std::pair<int, std::vector<StageOutcome>>> results;
    Status first_error;
  };

  void WorkerLoop(WorkerLocal* local);
  void ServeOne(const Request& request, WorkerLocal* local);
  /// One CoDel sojourn observation at (virtual or wall) dequeue time:
  /// feeds the controller, the throughput estimator, the adaptive target,
  /// and the service.codel.* metrics. Caller holds mutex_.
  void CodelObserveLocked(double now_seconds, double sojourn_seconds);
  /// Sheds the current Submit() under the CoDel early-drop rung.
  /// Caller holds mutex_.
  Status CodelShedLocked();

  const Workload* workload_;
  Simulator simulator_;
  StageOptimizer optimizer_;
  RoServiceOptions options_;
  uint64_t base_seed_;
  int num_workers_;

  /// Fallback registry used when the caller did not wire one through
  /// SimOptions::obs — declared before the handles resolved from it.
  obs::MetricsRegistry owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Histogram* wait_hist_ = nullptr;     // svc.queue_wait_seconds
  obs::Histogram* service_hist_ = nullptr;  // svc.service_seconds
  /// Per-lane queue waits, so the priority-protection claim is checkable
  /// (latency-sensitive p95 bounded while the batch lane sheds).
  obs::Histogram* ls_wait_hist_ = nullptr;     // svc.queue_wait_ls_seconds
  obs::Histogram* batch_wait_hist_ = nullptr;  // svc.queue_wait_batch_seconds
  obs::Counter* admitted_counter_ = nullptr;
  obs::Counter* shed_counter_ = nullptr;
  obs::Counter* completed_counter_ = nullptr;
  obs::Gauge* queue_depth_gauge_ = nullptr;
  obs::Counter* expired_counter_ = nullptr;  // svc.expired_in_queue
  // service.codel.*: sojourn histogram, learned target / tightened
  // interval gauges, interval resets, drops by rung, target adaptations.
  obs::Histogram* sojourn_hist_ = nullptr;
  obs::Gauge* codel_target_gauge_ = nullptr;
  obs::Gauge* codel_interval_gauge_ = nullptr;
  obs::Counter* codel_reset_counter_ = nullptr;
  obs::Counter* codel_shed_counter_ = nullptr;
  obs::Counter* codel_theta0_counter_ = nullptr;
  obs::Counter* codel_fuxi_counter_ = nullptr;
  obs::Counter* codel_adapt_counter_ = nullptr;

  BoundedPriorityQueue<Request> queue_;
  std::vector<std::unique_ptr<WorkerLocal>> locals_;
  ThreadPool pool_;

  mutable std::mutex mutex_;
  std::condition_variable idle_;
  SojournCodel codel_;
  AdaptiveTarget adaptive_target_;
  ThroughputEstimator throughput_;
  VirtualSojournQueue virtual_queue_;
  long prev_interval_resets_ = 0;
  long prev_adaptations_ = 0;
  std::vector<int> completion_order_;
  RoServiceStats stats_;
  int next_slot_ = 0;
  int pending_ = 0;
  bool stopped_ = false;
  bool merged_ = false;
  Status first_error_;

  SimResult merged_result_;
};

/// Convenience driver for SimOptions::service_threads: submits every job of
/// the workload in index order (batch priority, capacity >= workload size so
/// nothing sheds), drains, and returns the merged result. With
/// service_threads <= 1 this still uses the per-job isolated semantics, so
/// the result is byte-identical to any higher thread count.
Result<SimResult> ServeWorkload(const Workload& workload,
                                const LatencyModel* model,
                                const SimOptions& sim_options,
                                const StageOptimizer::Config& optimizer_config,
                                RoServiceOptions options = {});

}  // namespace fgro

#endif  // FGRO_SERVICE_RO_SERVICE_H_
