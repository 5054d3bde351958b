// serve-churn: RoService with 3 workers under an open loop of novel,
// jittered workload-A jobs, with machine crashes, stragglers, instance
// failures, a drift pulse (watchdog on), online reconfiguration and
// wall-clock CoDel. NOTES.md says why this shape exists.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc.h"
#include "checks.h"
#include "common/logging.h"
#include "common/rng.h"
#include "hbo/hbo.h"
#include "obs/metrics.h"
#include "optimizer/frontier_cache.h"
#include "service/ro_service.h"
#include "sim/ro_metrics.h"
#include "sim/simulator.h"
#include "tracing.h"
#include "workloads.h"

namespace fgro::perfbench {
namespace {

constexpr int kSetupRepetitions = 5;
constexpr int kWorkers = 3;
/// Offered load of the open loop (Poisson arrivals). A constant, never
/// recalibrated per run: well below the 3-worker capacity of this traffic,
/// so queueing stays short and decisions stay on the primary rung.
constexpr double kOfferedRps = 30.0;
/// Share of --seconds spent in the open loop; the saturating burst that
/// measures capacity follows it.
constexpr double kOpenLoopShare = 0.7;
/// Burst size per second of --seconds (a constant count, so a faster
/// program finishes it sooner).
constexpr double kBurstJobsPerSecond = 30.0;
/// Jobs pushed through a throwaway service during set-up (service warm-up).
constexpr int kWarmupJobs = 24;
/// Jobs whose widest stage exceeds this are not offered: the 128-machine
/// fleet cannot place them at all (every such stage is infeasible on every
/// rung), so they would measure capacity exhaustion, not the service.
constexpr int kMaxStageInstances = 256;
/// Which jobs are offered: the warm-up, open-loop and burst sets are the
/// same on every run, like the decide-* stage pools. With per-seed sets, two
/// seeds on a calm host differed by 20% in capacity_rps and by 78% in
/// request_p95_ms. The run's seed orders each set and draws the arrivals
/// and the fault, drift and replay seeds.
constexpr uint64_t kJobSetSeed = 31;
/// Poll interval of the generator's completion watch.
constexpr double kPollSeconds = 200e-6;
/// Seconds between speed probes on each CPU, and the number of equal slices
/// of the open loop whose probe medians scale the requests due in them.
constexpr double kProbeEvery = 0.03;
constexpr int kWindows = 10;
/// request_p95_ms is the median over this many equal slices of the open
/// loop of each slice's p95: 210 requests a slice, so a p95 has 10 beyond
/// it. A stall of the host that fills one slice with late requests moves
/// only that slice. request_p50_ms is over the whole loop (one slice).
constexpr int kRequestSlices = 3;

/// Churn as in bench_reconfig's crash scenario plus instance failures and a
/// 10%-of-span x3 drift pulse, with the watchdog and reconfiguration on.
SimOptions ChurnOptions(const Workload& workload, uint64_t seed,
                        FrontierCache* frontier, PredictionMemo* memo) {
  double span = 0.0;
  for (const Job& job : workload.jobs) span = std::max(span, job.arrival_time);
  SimOptions sim;
  sim.seed = MixSeed(seed, 5);
  sim.outcome = OutcomeMode::kEnvironment;
  sim.faults.enabled = true;
  sim.faults.machine_failure_rate_per_day = 36.0;
  sim.faults.machine_recovery_seconds = 600.0;
  sim.faults.straggler_prob = 0.05;
  sim.faults.straggler_slowdown = 5.0;
  sim.faults.instance_failure_prob = 0.02;
  sim.faults.seed = MixSeed(seed, 6);
  sim.drift_multiplier = 3.0;
  sim.drift_start_seconds = 0.45 * span;
  sim.drift_end_seconds = 0.55 * span;
  sim.drift_watchdog.enabled = true;
  sim.drift_watchdog.window_size = 32;
  sim.drift_watchdog.min_samples = 8;
  sim.drift_watchdog.alarm_qerror = 2.0;
  sim.drift_watchdog.recover_qerror = 1.5;
  sim.reconfig.enabled = true;
  sim.reconfig.seed = MixSeed(seed, 7);
  sim.service_threads = kWorkers;
  sim.frontier_cache = frontier;
  sim.memo = memo;
  return sim;
}

RoServiceOptions OpenLoopOptions() {
  RoServiceOptions options;
  options.queue_capacity = 256;
  options.codel.enabled = true;
  options.codel_clock = CodelClockMode::kWallClock;
  options.adaptive_target.enabled = true;
  return options;
}

struct ServeState {
  std::unique_ptr<LatencyModel> model;
  Workload workload;
  std::unique_ptr<FrontierCache> frontier;
  std::unique_ptr<PredictionMemo> memo;
  SimOptions sim;
  std::vector<double> arrivals;  // open-loop send offsets, seconds
  /// Offered job indices: warm-up, then open loop, then burst.
  std::vector<int> jobs;
  int open_first = 0;   // index into `jobs`
  int burst_first = 0;
  int burst_jobs = 0;

  int open_job(size_t k) const { return jobs[open_first + k]; }
  int burst_job(int j) const { return jobs[burst_first + j]; }
};

void Setup(const Args& args, ServeState* state, SetupTimes* times) {
  *state = ServeState{};
  state->model = TrainModel(WorkloadId::kA, 0.15, kModelSeed, times);
  const double t = NowSeconds();
  // Poisson arrivals with a fixed count: given the count, the arrival
  // offsets of a Poisson process are independent uniform draws over the
  // open loop.
  Rng rng(MixSeed(args.seed, 4));
  const double open_seconds = kOpenLoopShare * args.seconds;
  const int open_jobs =
      static_cast<int>(std::lround(kOfferedRps * open_seconds));
  for (int k = 0; k < open_jobs; ++k) {
    state->arrivals.push_back(rng.Uniform(0.0, open_seconds));
  }
  std::sort(state->arrivals.begin(), state->arrivals.end());
  state->open_first = kWarmupJobs;
  state->burst_first = state->open_first + open_jobs;
  state->burst_jobs = static_cast<int>(
      std::lround(kBurstJobsPerSecond * args.seconds));
  const int total = state->burst_first + state->burst_jobs;
  times->trace_gen_s += NowSeconds() - t;
  // Workload A's profile has 320 jobs at scale 1; generate a pool large
  // enough that the jobs the fleet can place cover every phase.
  state->workload = GenerateWorkload(WorkloadId::kA, 1.5 * total / 320.0,
                                     1.0, kServePoolSeed, times);
  for (size_t j = 0; j < state->workload.jobs.size(); ++j) {
    int widest = 0;
    for (const Stage& stage : state->workload.jobs[j].stages) {
      widest = std::max(widest, stage.instance_count());
    }
    if (widest <= kMaxStageInstances) {
      state->jobs.push_back(static_cast<int>(j));
    }
  }
  SeededShuffle(&state->jobs, kJobSetSeed);
  FGRO_CHECK(static_cast<int>(state->jobs.size()) >= total)
      << "too few placeable jobs: " << state->jobs.size() << " < " << total;
  state->jobs.resize(static_cast<size_t>(total));
  // The seed orders the open loop's jobs and the burst's.
  for (const auto& [first, last] :
       {std::pair{state->open_first, state->burst_first},
        std::pair{state->burst_first, total}}) {
    std::vector<int> part(state->jobs.begin() + first,
                          state->jobs.begin() + last);
    SeededShuffle(&part, MixSeed(args.seed, 3));
    std::copy(part.begin(), part.end(), state->jobs.begin() + first);
  }
  state->frontier = std::make_unique<FrontierCache>();
  state->memo = std::make_unique<PredictionMemo>();
  state->sim = ChurnOptions(state->workload, args.seed, state->frontier.get(),
                            state->memo.get());

  const double w = NowSeconds();
  RoServiceOptions options;
  options.queue_capacity = kWarmupJobs;
  RoService warmup(&state->workload, state->model.get(), state->sim,
                   StageOptimizer::IpaRaaPathWithFallback(), options);
  for (int j = 0; j < kWarmupJobs; ++j) {
    FGRO_CHECK_OK(warmup.Submit(state->jobs[static_cast<size_t>(j)]));
  }
  warmup.Drain();
  warmup.Stop();
  times->warmup_s += NowSeconds() - w;
}

/// Per-job verdict from the merged outcomes: valid when the replay returned
/// and every stage is feasible (decided, and no instance exhausted its
/// retries under the injected faults).
struct JobView {
  bool valid = true;
  std::vector<const StageOutcome*> stages;
};

std::map<int, JobView> ViewJobs(const SimResult& result) {
  std::map<int, JobView> jobs;
  for (const StageOutcome& o : result.outcomes) {
    JobView& v = jobs[o.job_idx];
    v.stages.push_back(&o);
    if (!o.feasible) v.valid = false;
  }
  return jobs;
}

/// Stage-level accounting over the served jobs.
struct StageTally {
  std::vector<double> solve_s;  // per stage decision
  long stages = 0;
  long primary = 0;
  long feasible = 0;
  double latency_sum = 0.0;  // over feasible stages
  double cost_sum = 0.0;

  void Add(const JobView& job) {
    for (const StageOutcome* o : job.stages) {
      solve_s.push_back(o->solve_seconds);
      ++stages;
      if (o->fallback == FallbackLevel::kPrimary) ++primary;
      if (o->feasible) {
        ++feasible;
        latency_sum += o->stage_latency;
        cost_sum += o->stage_cost;
      }
    }
  }
};

/// The open loop: sends each job at its scheduled time (as close as the
/// generator manages), watching completions in between.
struct OpenLoop {
  /// Per request sent: when it was due (from the loop's start), its time
  /// from due to completion at the probe's reference speed (-1 when shed or
  /// invalid), and its job.
  std::vector<double> due_s;
  std::vector<double> request_s;
  std::vector<int> job;
  std::vector<int> served;        // valid requests' jobs
  std::vector<double> lag_s;      // send time - due time
  SpeedProbe probe;               // every CPU's probes during the loop
  long attempted = 0;
  long misses = 0;  // shed, failed or invalid
  StageTally tally;
  double seconds = 0.0;
  RoServiceStats stats;
  obs::MetricsRegistry::Snapshot service_metrics;
  std::string problem;
};

OpenLoop RunOpenLoop(const ServeState& state, double arrivals_until) {
  OpenLoop out;
  RoService service(&state.workload, state.model.get(), state.sim,
                    StageOptimizer::IpaRaaPathWithFallback(),
                    OpenLoopOptions());
  std::vector<double> done_at;  // k-th completion -> wall time
  auto poll = [&] {
    const long done = service.Stats().jobs_completed;
    const double now = NowSeconds();
    while (static_cast<long>(done_at.size()) < done) done_at.push_back(now);
  };
  CpuProbes probes(kProbeEvery);
  const double start = NowSeconds();
  std::vector<double> due;
  std::vector<int> shed;
  for (size_t k = 0; k < state.arrivals.size(); ++k) {
    if (state.arrivals[k] >= arrivals_until) break;
    const double when = start + state.arrivals[k];
    for (double now = NowSeconds(); now < when; now = NowSeconds()) {
      poll();
      std::this_thread::sleep_for(std::chrono::duration<double>(
          std::min(kPollSeconds, when - now)));
    }
    const double sent = NowSeconds();
    out.lag_s.push_back(sent - when);
    due.push_back(when);
    const int job = state.open_job(k);
    if (!service.Submit(job).ok()) shed.push_back(job);
  }
  out.attempted = static_cast<long>(due.size());
  const long admitted = out.attempted - static_cast<long>(shed.size());
  while (static_cast<long>(done_at.size()) < admitted) {
    poll();
    std::this_thread::sleep_for(std::chrono::duration<double>(kPollSeconds));
  }
  out.seconds = NowSeconds() - start;
  out.probe = probes.Stop();
  const std::vector<double> scales =
      out.probe.WindowScales(start, start + out.seconds, kWindows);
  out.stats = service.Stats();
  out.service_metrics = service.metrics().Snap();
  const Status error = service.first_error();
  if (!error.ok()) out.problem = "replay error: " + error.ToString();
  const std::vector<int> order = service.completion_order();
  const SimResult result = service.TakeResult();
  std::map<int, JobView> jobs = ViewJobs(result);
  std::map<int, double> completed;
  for (size_t c = 0; c < order.size() && c < done_at.size(); ++c) {
    completed[order[c]] = done_at[c];
  }
  for (size_t k = 0; k < due.size(); ++k) {
    const int job = state.open_job(k);
    auto it = jobs.find(job);
    auto done = completed.find(job);
    const bool valid = it != jobs.end() && it->second.valid &&
                       done != completed.end();
    if (it != jobs.end()) out.tally.Add(it->second);
    out.due_s.push_back(due[k] - start);
    out.job.push_back(job);
    if (valid) {
      // Scaled to the probe's reference speed in the slice it was due in.
      out.request_s.push_back(
          (done->second - due[k]) *
          scales[static_cast<size_t>(
              WindowOf(due[k], start, start + out.seconds, kWindows))]);
      out.served.push_back(job);
    } else {
      out.request_s.push_back(-1.0);
      ++out.misses;
    }
  }
  return out;
}

/// Median over `slices` equal slices of the open loop (by due time) of
/// each slice's quantile q of request time. A miss (request_s < 0, or its
/// job in `bad`) counts as later than every valid request.
double SlicedRequestQuantile(const OpenLoop& open, const std::set<int>& bad,
                             int slices, double q, double miss_s) {
  double span = 0.0;
  for (double d : open.due_s) span = std::max(span, d);
  std::vector<std::vector<double>> values(static_cast<size_t>(slices));
  std::vector<long> misses(static_cast<size_t>(slices), 0);
  for (size_t k = 0; k < open.due_s.size(); ++k) {
    const size_t w = static_cast<size_t>(
        WindowOf(open.due_s[k], 0.0, span, slices));
    if (open.request_s[k] < 0.0 || bad.count(open.job[k]) > 0) {
      ++misses[w];
    } else {
      values[w].push_back(open.request_s[k]);
    }
  }
  std::vector<double> quantiles;
  for (int w = 0; w < slices; ++w) {
    quantiles.push_back(QuantileWithMisses(values[static_cast<size_t>(w)],
                                           misses[static_cast<size_t>(w)], q,
                                           miss_s));
  }
  return Median(quantiles);
}

/// Capacity: a saturating burst through a service with admission control
/// off (bench_overload's calibration), timed submit-to-drain.
struct Burst {
  double seconds = 0.0;
  long attempted = 0;
  long misses = 0;
  std::vector<int> served;  // jobs replayed without error, every stage feasible
  StageTally tally;
  SpeedProbe probe;
  std::string problem;
};

Burst RunBurst(const ServeState& state) {
  Burst out;
  RoServiceOptions options;
  options.queue_capacity = static_cast<size_t>(state.burst_jobs);
  RoService service(&state.workload, state.model.get(), state.sim,
                    StageOptimizer::IpaRaaPathWithFallback(), options);
  CpuProbes probes(kProbeEvery);
  const double start = NowSeconds();
  for (int j = 0; j < state.burst_jobs; ++j) {
    (void)service.Submit(state.burst_job(j));  // a shed job has no outcome
  }
  service.Drain();
  out.seconds = NowSeconds() - start;
  out.probe = probes.Stop();
  const Status error = service.first_error();
  if (!error.ok()) out.problem = "replay error: " + error.ToString();
  const SimResult result = service.TakeResult();
  const std::map<int, JobView> jobs = ViewJobs(result);
  out.attempted = state.burst_jobs;
  for (int j = 0; j < state.burst_jobs; ++j) {
    auto it = jobs.find(state.burst_job(j));
    if (it == jobs.end() || !it->second.valid) {
      ++out.misses;
    } else {
      out.served.push_back(state.burst_job(j));
    }
    if (it != jobs.end()) out.tally.Add(it->second);
  }
  return out;
}

/// The output checks of the timed run, made after its timing: every served
/// job is replayed through Simulator::ReplayJobIsolated with the service's
/// options and per-job seed (so the same decisions, re-plans included),
/// on kWorkers threads, with a scheduler that checks each decision. The
/// service's warm caches serve the replays; decisions do not depend on
/// cache warmth. Returns the jobs with an invalid decision or a replay
/// error.
std::set<int> CheckServedJobs(const ServeState& state,
                              const std::vector<int>& jobs) {
  const double start = NowSeconds();
  const StageOptimizer so(StageOptimizer::IpaRaaPathWithFallback());
  const Simulator simulator(&state.workload, state.model.get(), state.sim);
  std::atomic<size_t> next{0};
  std::atomic<long> decisions{0}, invalid{0};
  std::mutex mutex;
  std::set<int> bad;
  std::string first_problem;
  auto note = [&](int job, const std::string& problem) {
    std::lock_guard<std::mutex> lock(mutex);
    bad.insert(job);
    if (first_problem.empty()) first_problem = problem;
  };
  auto work = [&] {
    for (size_t k = next++; k < jobs.size(); k = next++) {
      const int job = jobs[k];
      auto scheduler = [&](const SchedulingContext& ctx) {
        StageDecision decision = so.Optimize(ctx);
        ++decisions;
        const std::string problem = CheckDecision(ctx, decision);
        if (!problem.empty()) {
          ++invalid;
          note(job, problem);
        }
        return decision;
      };
      try {
        const Result<std::vector<StageOutcome>> replay =
            simulator.ReplayJobIsolated(
                scheduler, job,
                MixSeed(state.sim.seed, static_cast<uint64_t>(job)));
        if (!replay.ok()) {
          note(job, "replay error: " + replay.status().ToString());
        }
      } catch (const std::exception& e) {
        note(job, std::string("replay threw: ") + e.what());
      }
    }
  };
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) threads.emplace_back(work);
  for (std::thread& t : threads) t.join();
  std::printf("  output check: %zu served jobs replayed in %.3f s, %ld of "
              "%ld decisions invalid, %zu jobs failed%s%s\n",
              jobs.size(), NowSeconds() - start, invalid.load(),
              decisions.load(), bad.size(), bad.empty() ? "" : "; first: ",
              first_problem.c_str());
  return bad;
}

double HistogramMs(const obs::MetricsRegistry::Snapshot& snap,
                   const char* name,
                   double obs::MetricsRegistry::HistogramView::*quantile) {
  auto it = snap.histograms.find(name);
  return it == snap.histograms.end() ? 0.0 : it->second.*quantile * 1e3;
}

/// Replays open-loop jobs one at a time through
/// Simulator::ReplayJobIsolated with the service's options and per-job
/// seeds, from the first open-loop job, until `seconds` pass. Returns the
/// replay wall time per job, less the time `scheduler` reports as the
/// benchmark's own (*own_s, advanced by the scheduler).
std::vector<double> ReplayJobs(const ServeState& state,
                               const Simulator& simulator,
                               const Simulator::SchedulerFn& scheduler,
                               const double* own_s, double seconds,
                               const std::function<void(int, double)>& begin,
                               SimResult* outcomes, Report* report) {
  std::vector<double> per_job;
  const double end = NowSeconds() + seconds;
  for (int k = 0; k < static_cast<int>(state.arrivals.size()) &&
                  NowSeconds() < end;
       ++k) {
    const int job = state.open_job(static_cast<size_t>(k));
    const double t0 = NowSeconds();
    if (begin) begin(k, t0);
    const double own_before = *own_s;
    Result<std::vector<StageOutcome>> replay = simulator.ReplayJobIsolated(
        scheduler, job,
        MixSeed(state.sim.seed, static_cast<uint64_t>(job)));
    per_job.push_back(NowSeconds() - t0 - (*own_s - own_before));
    if (!replay.ok()) {
      report->Incorrect("replay failed: " + replay.status().ToString());
      break;
    }
    if (outcomes != nullptr) {
      for (StageOutcome& o : replay.value()) outcomes->outcomes.push_back(o);
    }
  }
  return per_job;
}

/// Traced replays for half of --seconds: the open loop's jobs again, one at
/// a time, with a scheduler that times every Optimize call, checks its
/// decision, and recomposes it from the optimizer's public parts. An
/// untraced replay of the leading jobs first gives the tracing overhead.
void TraceReplays(const ServeState& state, const Args& args, PerLayer* p,
                  Report* report) {
  const double seconds = 0.5 * args.seconds;
  const StageOptimizer::Config config =
      StageOptimizer::IpaRaaPathWithFallback();
  const StageOptimizer so(config);
  double no_own = 0.0;

  // Fresh caches for every pass: the open loop already decided these jobs,
  // and warm frontiers would turn the replays' misses into hits.
  std::vector<double> plain;
  {
    FrontierCache frontier;
    PredictionMemo memo;
    SimOptions sim = state.sim;
    sim.frontier_cache = &frontier;
    sim.memo = &memo;
    const Simulator simulator(&state.workload, state.model.get(), sim);
    plain = ReplayJobs(
        state, simulator,
        [&](const SchedulingContext& ctx) { return so.Optimize(ctx); },
        &no_own, 0.2 * seconds, nullptr, nullptr, report);
  }

  FrontierCache frontier, twin_frontier;
  PredictionMemo memo, twin_memo;
  // Unwired twins of every model a decision is solved with (the served one
  // and each reconfiguration fine-tune), keyed by params_tag: copies share
  // the tag, so they predict identically and read the same memo entries.
  std::map<uint64_t, std::unique_ptr<LatencyModel>> twin_models;
  obs::MetricsRegistry registry;
  const obs::Obs obs{&registry, nullptr};
  SimOptions sim = state.sim;
  sim.frontier_cache = &frontier;
  sim.memo = &memo;
  sim.obs = obs;
  state.model->set_obs(obs);
  memo.set_obs(obs);
  const Simulator simulator(&state.workload, state.model.get(), sim);

  SpanLog log;
  long calls = 0, mismatches = 0, invalid = 0;
  int job_span = -1;
  long op = 0;
  double decide_s = 0.0, own_s = 0.0;
  AllocCounts decide_allocs, own_allocs;
  std::string first_problem;
  auto scheduler = [&](const SchedulingContext& ctx) {
    const AllocCounts a0 = ReadAllocCounts();
    const double t0 = NowSeconds();
    StageDecision decision = so.Optimize(ctx);
    const double t1 = NowSeconds();
    const AllocCounts a1 = ReadAllocCounts();
    decide_allocs.count += a1.count - a0.count;
    decide_allocs.bytes += a1.bytes - a0.bytes;
    decide_s += t1 - t0;
    ++calls;
    const int parent = log.Record("optimizer.decide", job_span, op, t0, t1);
    // Everything below is the benchmark's own work: timed, and taken out of
    // the job's replay time and allocation tally.
    SchedulingContext twin = ctx;
    if (ctx.model != nullptr) {
      std::unique_ptr<LatencyModel>& copy =
          twin_models[ctx.model->params_tag()];
      if (copy == nullptr) {
        copy = std::make_unique<LatencyModel>(*ctx.model);
        copy->set_obs(obs::Obs{});
      }
      twin.model = copy.get();
    }
    if (twin.frontier_cache != nullptr) twin.frontier_cache = &twin_frontier;
    if (twin.memo != nullptr) twin.memo = &twin_memo;
    twin.obs = obs::Obs{};
    const StageDecision composed =
        ComposeDecision(config, twin, &log, parent, op);
    if (!SameDecision(decision, composed)) ++mismatches;
    const std::string problem = CheckDecision(ctx, decision);
    if (!problem.empty()) {
      ++invalid;
      if (first_problem.empty()) first_problem = problem;
    }
    const AllocCounts a2 = ReadAllocCounts();
    own_allocs.count += a2.count - a1.count;
    own_allocs.bytes += a2.bytes - a1.bytes;
    own_s += NowSeconds() - t1;
    return decision;
  };

  SimResult outcomes;
  std::vector<int> job_spans;
  SetAllocCounting(true);
  const AllocCounts start_allocs = ReadAllocCounts();
  const std::vector<double> traced = ReplayJobs(
      state, simulator, scheduler, &own_s, 0.8 * seconds,
      [&](int k, double t0) {
        op = k;
        job_span = log.Record("sim.job", -1, k, t0, t0);
        job_spans.push_back(job_span);
      },
      &outcomes, report);
  const AllocCounts end_allocs = ReadAllocCounts();
  SetAllocCounting(false);
  state.model->set_obs(obs::Obs{});
  // Job spans end where their replay time (less the benchmark's own work)
  // ends, so their self time is the simulator's.
  for (size_t k = 0; k < job_spans.size() && k < traced.size(); ++k) {
    log.SetEnd(job_spans[k], log.spans()[static_cast<size_t>(job_spans[k])]
                                     .start +
                                 traced[k]);
  }
  const long jobs_replayed = static_cast<long>(traced.size());
  if (jobs_replayed == 0) {
    report->Incorrect("no job replayed in the traced phase");
    return;
  }
  if (mismatches > 0) {
    report->Incorrect(std::to_string(mismatches) +
                      " composed decisions differ from Optimize's");
  }
  if (invalid > 0) {
    std::printf("  output check: %ld of %ld traced decisions invalid "
                "(first: %s)\n",
                invalid, calls, first_problem.c_str());
  }
  report->attempted = calls;
  report->failed = invalid;

  const double jobs = static_cast<double>(jobs_replayed);
  const double n_calls = static_cast<double>(std::max(1L, calls));
  double replay_s = 0.0;
  for (double t : traced) replay_s += t;
  SummarizeDecisionSpans(log, p);
  p->replay_ms_per_job = replay_s * 1e3 / jobs;
  p->decide_ms_per_job = decide_s * 1e3 / jobs;
  p->sim_self_ms_per_job = (replay_s - decide_s) * 1e3 / jobs;
  p->decide_calls_per_job = static_cast<double>(calls) / jobs;
  p->alloc_count_per_decision =
      static_cast<double>(decide_allocs.count) / n_calls;
  p->alloc_bytes_per_decision =
      static_cast<double>(decide_allocs.bytes) / n_calls;
  p->alloc_count_per_job =
      static_cast<double>(end_allocs.count - start_allocs.count -
                          own_allocs.count) /
      jobs;
  p->alloc_bytes_per_job =
      static_cast<double>(end_allocs.bytes - start_allocs.bytes -
                          own_allocs.bytes) /
      jobs;
  // Overhead: the same leading jobs, traced (less the benchmark's own
  // work) against untraced.
  const size_t common = std::min(plain.size(), traced.size());
  double plain_s = 0.0, traced_s = 0.0;
  for (size_t k = 0; k < common; ++k) {
    plain_s += plain[k];
    traced_s += traced[k];
  }
  p->overhead_frac = plain_s > 0.0 ? traced_s / plain_s - 1.0 : 0.0;

  const RoSummary s = Summarize(outcomes);
  p->retries_per_job = static_cast<double>(s.total_retries) / jobs;
  p->failovers_per_job = static_cast<double>(s.total_failovers) / jobs;
  p->speculative_copies_per_job =
      static_cast<double>(s.speculative_copies) / jobs;
  p->failed_instances_per_job = s.failed_instances / jobs;
  p->goodput = s.goodput;
  p->replans_per_job = static_cast<double>(s.total_replans) / jobs;
  p->migrations_per_job = static_cast<double>(s.migrations) / jobs;
  p->fine_tunes_per_job = static_cast<double>(s.fine_tunes) / jobs;
  p->stale_drops_per_job = static_cast<double>(s.stale_decision_drops) / jobs;

  const obs::MetricsRegistry::Snapshot snap = registry.Snap();
  auto counter = [&](const char* name) {
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0
                                     : static_cast<double>(it->second);
  };
  const double hits = counter("so.frontier.hits");
  const double misses = counter("so.frontier.misses");
  p->frontier_hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  p->frontier_builds_per_decision = counter("so.frontier.builds") / n_calls;
  p->frontier_corrections_per_decision =
      counter("so.frontier.corrections") / n_calls;
  const double memo_hits = counter("model.memo.hits");
  const double memo_misses = counter("model.memo.misses");
  p->memo_hit_ratio = memo_hits + memo_misses > 0
                          ? memo_hits / (memo_hits + memo_misses)
                          : 0.0;
  p->predict_rows_per_decision =
      counter("model.predict_batch_rows") / n_calls;
  auto batch = snap.histograms.find("model.predict_batch_size");
  if (batch != snap.histograms.end()) p->rows_per_batch = batch->second.p50;

  log.PrintLedger("serve-churn (traced replays)");
  const std::string path = OutputDir() + "/spans-serve-churn-" +
                           std::to_string(args.seed) + ".jsonl";
  if (!log.WriteJsonLines(path)) report->Incorrect("cannot write " + path);
  std::printf("  %ld traced job replays (%zu untraced), %ld decisions; "
              "spans in %s\n",
              jobs_replayed, plain.size(), calls, path.c_str());
}

}  // namespace

void RunServeChurn(const Args& args, Report* report) {
  ServeState state;
  SetupTimes times;
  const double setup_s = RepeatSetup(
      kSetupRepetitions, [&](SetupTimes* t) { Setup(args, &state, t); },
      &times);
  std::printf("serve-churn: %zu open-loop jobs at %.0f/s, burst of %d, "
              "%d workers, setup %.3f s (median of %d)\n",
              state.arrivals.size(), kOfferedRps, state.burst_jobs, kWorkers,
              setup_s, kSetupRepetitions);

  if (!args.trace) {
    const OpenLoop open =
        RunOpenLoop(state, std::numeric_limits<double>::infinity());
    const Burst burst = RunBurst(state);
    for (const std::string& problem : {open.problem, burst.problem}) {
      if (!problem.empty()) report->Incorrect(problem);
    }
    std::vector<int> served = open.served;
    served.insert(served.end(), burst.served.begin(), burst.served.end());
    const std::set<int> bad = CheckServedJobs(state, served);
    EndToEnd e;
    e.setup_s = setup_s;
    // Timings at the probe's reference speed: requests were scaled in the
    // open loop; solve times by their phase's probes, rates by the burst's.
    // A request with an invalid decision counts as a miss.
    const double miss_s = open.seconds * open.probe.Scale();
    e.request_p50_ms =
        SlicedRequestQuantile(open, bad, 1, 0.50, miss_s) * 1e3;
    e.request_p95_ms =
        SlicedRequestQuantile(open, bad, kRequestSlices, 0.95, miss_s) * 1e3;
    std::vector<double> solve;
    for (double t : open.tally.solve_s) {
      solve.push_back(t * open.probe.Scale());
    }
    for (double t : burst.tally.solve_s) {
      solve.push_back(t * burst.probe.Scale());
    }
    e.decide_p50_ms = Quantile(solve, 0.50) * 1e3;
    e.decide_p95_ms = Quantile(solve, 0.95) * 1e3;
    const double burst_s = burst.seconds * burst.probe.Scale();
    e.capacity_rps = static_cast<double>(burst.attempted) / burst_s;
    e.decisions_per_s = static_cast<double>(burst.tally.stages) / burst_s;
    report->attempted = open.attempted + burst.attempted;
    report->failed =
        open.misses + burst.misses + static_cast<long>(bad.size());
    e.ok_frac = 1.0 - static_cast<double>(report->failed) /
                          static_cast<double>(report->attempted);
    const long stages = open.tally.stages + burst.tally.stages;
    const long feasible = open.tally.feasible + burst.tally.feasible;
    e.primary_frac =
        static_cast<double>(open.tally.primary + burst.tally.primary) /
        static_cast<double>(std::max(1L, stages));
    e.plan_latency_s = (open.tally.latency_sum + burst.tally.latency_sum) /
                       static_cast<double>(std::max(1L, feasible));
    e.plan_cost_mdollar = (open.tally.cost_sum + burst.tally.cost_sum) /
                          static_cast<double>(std::max(1L, feasible)) * 1e3;
    e.peak_rss_mb = PeakRssMb();
    std::printf("  speed probe: scale %.4f open loop (%ld samples), %.4f "
                "burst (%ld); unscaled capacity %.3f /s\n",
                open.probe.Scale(), open.probe.samples(), burst.probe.Scale(),
                burst.probe.samples(),
                static_cast<double>(burst.attempted) / burst.seconds);
    std::printf("  open loop: %ld requests in %.3f s (lag p99 %.3f ms, "
                "codel demoted %ld+%ld, shed %ld); burst: %ld jobs in "
                "%.3f s\n",
                open.attempted, open.seconds,
                Quantile(open.lag_s, 0.99) * 1e3, open.stats.codel_theta0_jobs,
                open.stats.codel_fuxi_jobs, open.stats.jobs_shed,
                burst.attempted, burst.seconds);
    AddEndToEnd(e, report);
    return;
  }

  // Traced run: half the time in the open loop (service numbers from the
  // service's own registry and counters), half in traced replays.
  PerLayer p;
  p.setup = times;
  const OpenLoop open = RunOpenLoop(state, 0.5 * args.seconds);
  if (!open.problem.empty()) report->Incorrect(open.problem);
  using View = obs::MetricsRegistry::HistogramView;
  const auto& svc = open.service_metrics;
  p.queue_wait_p50_ms = HistogramMs(svc, "svc.queue_wait_seconds", &View::p50);
  p.queue_wait_p99_ms = HistogramMs(svc, "svc.queue_wait_seconds", &View::p99);
  p.service_p50_ms = HistogramMs(svc, "svc.service_seconds", &View::p50);
  auto service = svc.histograms.find("svc.service_seconds");
  if (service != svc.histograms.end() && open.seconds > 0) {
    p.busy_frac = service->second.sum / (kWorkers * open.seconds);
  }
  const double offered = static_cast<double>(open.stats.jobs_offered);
  if (offered > 0) {
    p.shed_frac = static_cast<double>(open.stats.jobs_shed) / offered;
    p.codel_demoted_frac = static_cast<double>(open.stats.codel_theta0_jobs +
                                               open.stats.codel_fuxi_jobs) /
                           offered;
  }
  p.max_queue_depth = open.stats.max_queue_depth;
  p.lag_p99_ms = Quantile(open.lag_s, 0.99) * 1e3;

  TraceReplays(state, args, &p, report);

  // Unit costs on the first stage of the leading open-loop jobs, on a
  // fleet like the one each replay builds.
  Cluster fleet(state.sim.cluster);
  const Hbo hbo(state.workload.profile.hbo);
  std::vector<SchedulingContext> sample;
  for (int k = 0; k < 16; ++k) {
    const Stage& stage =
        state.workload.jobs[static_cast<size_t>(state.open_job(k))]
            .stages.front();
    SchedulingContext ctx;
    ctx.stage = &stage;
    ctx.cluster = &fleet;
    ctx.model = state.model.get();
    ctx.theta0 = hbo.Recommend(stage).theta0;
    sample.push_back(ctx);
  }
  MeasureUnitCosts(StageOptimizer::IpaRaaPathWithFallback(), sample, &p);
  AddPerLayer(p, report);
}

}  // namespace fgro::perfbench
