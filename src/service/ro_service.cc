#include "service/ro_service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/rng.h"

namespace fgro {

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The adaptive target starts at the CoDel target unless the caller set a
/// different initial value explicitly.
AdaptiveTargetOptions ArmedAdaptiveTarget(const RoServiceOptions& options) {
  AdaptiveTargetOptions adaptive = options.adaptive_target;
  if (!options.codel.enabled) adaptive.enabled = false;
  return adaptive;
}

FallbackLevel LevelOfRung(CodelRung rung) {
  switch (rung) {
    case CodelRung::kNone: return FallbackLevel::kPrimary;
    case CodelRung::kTheta0: return FallbackLevel::kTheta0;
    // A shed rung reached at dequeue means the request was admitted before
    // the overload deepened; it is served at the floor, not dropped.
    case CodelRung::kFuxi:
    case CodelRung::kShed: return FallbackLevel::kFuxi;
  }
  return FallbackLevel::kPrimary;
}

}  // namespace

RoService::RoService(const Workload* workload, const LatencyModel* model,
                     const SimOptions& sim_options,
                     const StageOptimizer::Config& optimizer_config,
                     RoServiceOptions options)
    : workload_(workload),
      simulator_(workload, model, sim_options),
      optimizer_(optimizer_config),
      options_(options),
      base_seed_(sim_options.seed),
      num_workers_(std::max(1, sim_options.service_threads)),
      queue_(options.queue_capacity, /*num_lanes=*/2),
      pool_(num_workers_),
      codel_(options.codel),
      adaptive_target_(ArmedAdaptiveTarget(options)),
      throughput_(std::max(8, options.adaptive_target.window)),
      virtual_queue_(options.codel_virtual) {
  if (options_.codel.enabled && options_.adaptive_target.enabled) {
    codel_.set_target(adaptive_target_.target_seconds());
  }
  // Record into the caller's registry when one is wired through the sim
  // options (so service/simulator/optimizer/model share one breakdown),
  // else into the service-owned fallback. Handles resolve once, here.
  metrics_ = sim_options.obs.metrics != nullptr ? sim_options.obs.metrics
                                                : &owned_metrics_;
  wait_hist_ = metrics_->GetLatencyHistogram("svc.queue_wait_seconds");
  service_hist_ = metrics_->GetLatencyHistogram("svc.service_seconds");
  ls_wait_hist_ = metrics_->GetLatencyHistogram("svc.queue_wait_ls_seconds");
  batch_wait_hist_ =
      metrics_->GetLatencyHistogram("svc.queue_wait_batch_seconds");
  admitted_counter_ = metrics_->GetCounter("svc.jobs_admitted");
  shed_counter_ = metrics_->GetCounter("svc.jobs_shed");
  completed_counter_ = metrics_->GetCounter("svc.jobs_completed");
  queue_depth_gauge_ = metrics_->GetGauge("svc.queue_depth");
  expired_counter_ = metrics_->GetCounter("svc.expired_in_queue");
  sojourn_hist_ =
      metrics_->GetLatencyHistogram("service.codel.sojourn_seconds");
  codel_target_gauge_ = metrics_->GetGauge("service.codel.target_seconds");
  codel_interval_gauge_ =
      metrics_->GetGauge("service.codel.interval_seconds");
  codel_reset_counter_ =
      metrics_->GetCounter("service.codel.interval_resets");
  codel_shed_counter_ = metrics_->GetCounter("service.codel.drops.shed");
  codel_theta0_counter_ = metrics_->GetCounter("service.codel.drops.theta0");
  codel_fuxi_counter_ = metrics_->GetCounter("service.codel.drops.fuxi");
  codel_adapt_counter_ =
      metrics_->GetCounter("service.codel.target_adaptations");
  locals_.reserve(static_cast<std::size_t>(num_workers_));
  for (int i = 0; i < num_workers_; ++i) {
    locals_.push_back(std::make_unique<WorkerLocal>());
    WorkerLocal* local = locals_.back().get();
    pool_.Submit([this, local] { WorkerLoop(local); });
  }
}

RoService::~RoService() { Stop(); }

Status RoService::Submit(int job_idx, RequestPriority priority) {
  if (job_idx < 0 ||
      job_idx >= static_cast<int>(workload_->jobs.size())) {
    return Status::InvalidArgument("job index out of range");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (stopped_) {
    return Status::FailedPrecondition("RO service already stopped");
  }
  ++stats_.jobs_offered;

  Request request;
  request.job_idx = job_idx;
  request.slot = next_slot_;
  request.priority = priority;
  request.admit_time = NowSeconds();
  if (options_.request_deadline_seconds > 0.0) {
    request.deadline = Deadline::After(options_.request_deadline_seconds);
  }

  const bool latency_sensitive =
      priority == RequestPriority::kLatencySensitive;
  VirtualSojournQueue::Arrival virtual_arrival;
  const bool codel_virtual =
      options_.codel.enabled &&
      options_.codel_clock == CodelClockMode::kVirtualSim;
  if (codel_virtual) {
    // Deterministic mode: this request's (virtual) dequeue time and
    // sojourn are computed here, in submission order under the mutex, and
    // the CoDel verdict pinned onto the request — a pure function of the
    // submission sequence, independent of worker count and scheduling.
    virtual_arrival = virtual_queue_.NextArrival();
    CodelObserveLocked(virtual_arrival.start_seconds,
                       virtual_arrival.sojourn_seconds);
    const CodelRung rung = codel_.RungFor(latency_sensitive);
    if (rung == CodelRung::kShed) return CodelShedLocked();
    request.codel_level = LevelOfRung(rung);
  } else if (options_.codel.enabled &&
             codel_.RungFor(latency_sensitive) == CodelRung::kShed) {
    // Wall-clock mode, deepest rung: early-drop the freshest load at the
    // door instead of queueing work the sojourn says cannot be served in
    // time. The latency-sensitive lane never reaches the shed rung.
    return CodelShedLocked();
  }

  if (!queue_.TryPush(std::move(request), static_cast<int>(priority))) {
    // Load shedding: reject now rather than buffer unboundedly or block
    // the caller.
    ++stats_.jobs_shed;
    shed_counter_->Increment();
    return Status::ResourceExhausted("RO admission queue full");
  }
  if (codel_virtual) virtual_queue_.Consume(virtual_arrival);
  ++next_slot_;
  ++pending_;
  ++stats_.jobs_admitted;
  admitted_counter_->Increment();
  if (priority == RequestPriority::kLatencySensitive) {
    ++stats_.jobs_latency_sensitive;
  }
  const int depth = static_cast<int>(queue_.size());
  stats_.max_queue_depth = std::max(stats_.max_queue_depth, depth);
  queue_depth_gauge_->Set(static_cast<double>(depth));
  return Status::OK();
}

void RoService::CodelObserveLocked(double now_seconds,
                                   double sojourn_seconds) {
  sojourn_hist_->Observe(sojourn_seconds);
  throughput_.Record(now_seconds);
  // The adaptive layer walks the target along the observed
  // latency/throughput curve; feed it before the control decision so the
  // observation below already runs against the freshest target.
  if (adaptive_target_.AddPoint(sojourn_seconds,
                                throughput_.RatePerSecond())) {
    codel_.set_target(adaptive_target_.target_seconds());
  }
  codel_.Observe(now_seconds, sojourn_seconds);
  codel_target_gauge_->Set(codel_.target_seconds());
  codel_interval_gauge_->Set(codel_.current_interval_seconds());
  const long resets = codel_.interval_resets();
  if (resets > prev_interval_resets_) {
    codel_reset_counter_->Increment(
        static_cast<uint64_t>(resets - prev_interval_resets_));
    prev_interval_resets_ = resets;
  }
  const long adaptations = adaptive_target_.adaptations();
  if (adaptations > prev_adaptations_) {
    codel_adapt_counter_->Increment(
        static_cast<uint64_t>(adaptations - prev_adaptations_));
    prev_adaptations_ = adaptations;
  }
  stats_.codel_interval_resets = resets;
  stats_.codel_target_adaptations = adaptations;
  stats_.codel_target_ms = codel_.target_seconds() * 1e3;
}

Status RoService::CodelShedLocked() {
  ++stats_.jobs_shed;
  ++stats_.codel_shed_jobs;
  shed_counter_->Increment();
  codel_shed_counter_->Increment();
  return Status::ResourceExhausted("CoDel early-drop: admission shed");
}

void RoService::WorkerLoop(WorkerLocal* local) {
  Request request;
  while (queue_.Pop(&request)) {
    ServeOne(request, local);
  }
}

void RoService::ServeOne(const Request& request, WorkerLocal* local) {
  const double dequeue_time = NowSeconds();
  const bool expired = request.deadline.expired();
  const bool latency_sensitive =
      request.priority == RequestPriority::kLatencySensitive;
  const double wait_seconds = dequeue_time - request.admit_time;

  if (expired) {
    // Deadline-aware dequeue shed: the budget died while the request
    // queued, so even the cheapest decision would burn a worker on an
    // answer the caller has abandoned. Complete it as shed.
    expired_counter_->Increment();
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.deadline_expired_jobs;
    ++stats_.expired_in_queue;
    ++stats_.jobs_shed;
    if (--pending_ == 0) idle_.notify_all();
    return;
  }

  // Without CoDel every request is served at the primary level, and no lock
  // is taken to find that out.
  FallbackLevel level = FallbackLevel::kPrimary;
  if (options_.codel.enabled) {
    if (options_.codel_clock == CodelClockMode::kVirtualSim) {
      level = request.codel_level;  // pinned at admission, deterministic
    } else {
      // Wall-clock mode: CoDel observes the real sojourn at dequeue and
      // the rung in force decides this request's ladder level. Only the
      // batch lane feeds the controller: CoDel's min-sojourn logic assumes
      // FIFO, and a latency-sensitive request overtakes the batch lane, so
      // its near-zero sojourn says nothing about the standing backlog —
      // feeding it in would end an overload episode the batch queue is
      // still deep in.
      std::lock_guard<std::mutex> lock(mutex_);
      if (!latency_sensitive) CodelObserveLocked(dequeue_time, wait_seconds);
      level = LevelOfRung(codel_.RungFor(latency_sensitive));
    }
  }

  // The CoDel level is sampled once per request so a whole job is decided
  // at one ladder level; the per-stage ladder still applies on top (a
  // primary solve can individually degrade inside the replay).
  auto scheduler = [this, level](const SchedulingContext& context) {
    SchedulingContext ctx = context;
    if (level == FallbackLevel::kFuxi) {
      ctx.model_available = false;
    } else if (level == FallbackLevel::kTheta0) {
      ctx.raa_allowed = false;
    }
    return optimizer_.Optimize(ctx);
  };

  // A Fuxi-level request is being served as cheaply as
  // possible — re-planning and model fine-tuning would defeat the point —
  // so the reconfiguration engine is suppressed for it.
  Result<std::vector<StageOutcome>> outcomes = simulator_.ReplayJobIsolated(
      scheduler, request.job_idx, MixSeed(base_seed_, request.job_idx),
      /*keep_instance_detail=*/false,
      /*allow_reconfig=*/level != FallbackLevel::kFuxi);

  if (options_.min_service_seconds > 0.0) {
    const double elapsed = NowSeconds() - dequeue_time;
    if (elapsed < options_.min_service_seconds) {
      std::this_thread::sleep_for(std::chrono::duration<double>(
          options_.min_service_seconds - elapsed));
    }
  }
  const double end_time = NowSeconds();

  // One relaxed atomic bump per histogram per completed job, outside the
  // control-plane lock. These feed the p95 summary fields at Stop().
  wait_hist_->Observe(wait_seconds);
  (latency_sensitive ? ls_wait_hist_ : batch_wait_hist_)
      ->Observe(wait_seconds);
  service_hist_->Observe(end_time - dequeue_time);
  completed_counter_->Increment();
  const bool ok = outcomes.ok();
  if (ok) {
    local->results.emplace_back(request.slot, std::move(outcomes).value());
  } else if (local->first_error.ok()) {
    local->first_error = outcomes.status();
  }

  // Once-per-job control plane: completion counters, CoDel level counts,
  // completion ordering, drain signalling. This is the only lock on the
  // serving path; all per-stage work above ran lock-free.
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.jobs_completed;
  if (!ok) ++stats_.jobs_failed;
  if (level == FallbackLevel::kTheta0) {
    ++stats_.codel_theta0_jobs;
    codel_theta0_counter_->Increment();
  } else if (level == FallbackLevel::kFuxi) {
    ++stats_.codel_fuxi_jobs;
    codel_fuxi_counter_->Increment();
  }
  completion_order_.push_back(request.job_idx);
  if (--pending_ == 0) idle_.notify_all();
}

void RoService::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return pending_ == 0; });
}

void RoService::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopped_ = true;
  }
  queue_.Close();  // workers drain the queue, then their loops exit
  pool_.Join();

  std::lock_guard<std::mutex> lock(mutex_);
  if (merged_) return;
  merged_ = true;

  // Merge the per-worker accumulations. Results are keyed by admission
  // slot, so the merged outcome order is the submission order regardless
  // of which worker served which job.
  std::vector<std::pair<int, std::vector<StageOutcome>>> all;
  for (const std::unique_ptr<WorkerLocal>& local : locals_) {
    if (first_error_.ok() && !local->first_error.ok()) {
      first_error_ = local->first_error;
    }
    for (auto& entry : local->results) all.push_back(std::move(entry));
    local->results.clear();
  }
  std::sort(all.begin(), all.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [slot, outcomes] : all) {
    (void)slot;
    merged_result_.outcomes.insert(
        merged_result_.outcomes.end(),
        std::make_move_iterator(outcomes.begin()),
        std::make_move_iterator(outcomes.end()));
  }
  // p95s now come off the shared histograms (bucketed quantiles) instead
  // of a second hand-rolled sample-percentile path.
  stats_.queue_wait_p95_ms = wait_hist_->Quantile(0.95) * 1e3;
  stats_.service_p95_ms = service_hist_->Quantile(0.95) * 1e3;
}

SimResult RoService::TakeResult() {
  Stop();
  std::lock_guard<std::mutex> lock(mutex_);
  return std::move(merged_result_);
}

Status RoService::first_error() {
  Stop();
  std::lock_guard<std::mutex> lock(mutex_);
  return first_error_;
}

RoSummary RoService::Summary() {
  Stop();
  std::lock_guard<std::mutex> lock(mutex_);
  RoSummary summary = Summarize(merged_result_);
  summary.jobs_offered = stats_.jobs_offered;
  summary.jobs_admitted = stats_.jobs_admitted;
  summary.jobs_shed = stats_.jobs_shed;
  summary.jobs_completed = stats_.jobs_completed;
  summary.jobs_failed = stats_.jobs_failed;
  summary.jobs_latency_sensitive = stats_.jobs_latency_sensitive;
  summary.deadline_expired_jobs = stats_.deadline_expired_jobs;
  summary.expired_in_queue = stats_.expired_in_queue;
  summary.codel_shed_jobs = stats_.codel_shed_jobs;
  summary.codel_theta0_jobs = stats_.codel_theta0_jobs;
  summary.codel_fuxi_jobs = stats_.codel_fuxi_jobs;
  summary.codel_interval_resets = stats_.codel_interval_resets;
  summary.codel_target_adaptations = stats_.codel_target_adaptations;
  summary.codel_target_ms = stats_.codel_target_ms;
  summary.queue_wait_p95_ms = stats_.queue_wait_p95_ms;
  summary.service_p95_ms = stats_.service_p95_ms;
  summary.max_queue_depth = stats_.max_queue_depth;
  return summary;
}

RoServiceStats RoService::Stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

const std::vector<int>& RoService::completion_order() {
  Stop();
  return completion_order_;
}

Result<SimResult> ServeWorkload(const Workload& workload,
                                const LatencyModel* model,
                                const SimOptions& sim_options,
                                const StageOptimizer::Config& optimizer_config,
                                RoServiceOptions options) {
  // Nothing may shed in the drop-in replay mode: size the queue to the
  // workload so the merged result covers every job.
  options.queue_capacity =
      std::max(options.queue_capacity, workload.jobs.size());
  RoService service(&workload, model, sim_options, optimizer_config, options);
  for (int j = 0; j < static_cast<int>(workload.jobs.size()); ++j) {
    FGRO_RETURN_IF_ERROR(service.Submit(j, RequestPriority::kBatch));
  }
  service.Drain();
  service.Stop();
  FGRO_RETURN_IF_ERROR(service.first_error());
  return service.TakeResult();
}

}  // namespace fgro
