// decide-hot and decide-wide-sharded: one caller runs a closed loop of
// StageOptimizer::Optimize (IPA+RAA(Path) with the fallback ladder) against
// a static fleet. NOTES.md says why these two shapes exist.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "alloc.h"
#include "checks.h"
#include "common/rng.h"
#include "hbo/hbo.h"
#include "obs/metrics.h"
#include "optimizer/frontier_cache.h"
#include "tracing.h"
#include "workloads.h"

namespace fgro::perfbench {
namespace {

constexpr int kSetupRepetitions = 5;
/// The fleet is part of the workload's definition, like the stage pool: its
/// hardware mix and utilization set how many machine groups IPA and RAA
/// see, so a per-seed fleet would make decision cost a property of the
/// seed.
constexpr uint64_t kFleetSeed = 17;
/// The timed phase is cut into this many equal slices of wall time. Each
/// call's times are scaled to the probe's reference speed with the probe
/// median of its slice, and decisions_per_s is the median of the slices'
/// rates, so a slow stretch of the host shorter than half the phase does
/// not move it.
constexpr int kWindows = 10;

struct DecideShape {
  const char* name;
  WorkloadId workload;
  double train_scale;
  double serve_scale;
  double width_scale;
  int fleet;
  int shard_count;
  /// Stages outside [min_instances, max_instances] are skipped when picking
  /// the inputs (the upper bound keeps every stage placeable on the fleet).
  int min_instances;
  int max_instances;
  /// How many stages the seed picks from the pool: one from each of this
  /// many equal strata of the pool sorted by width, so every seed's set has
  /// nearly the same width mix but different stages (a plain random pick
  /// moved decide-wide-sharded's plan_cost by 16% between seeds). The
  /// loop cycles them in a seed-shuffled order.
  int stages;
  /// false: a working set both caches hold for the whole run. true: a
  /// novel stream, whose every lap starts with fresh caches, so each
  /// decision is of a stage the caches have not seen.
  bool novel;
  /// Warm-up before timing: passes over the working set, or (novel stream)
  /// this many stages from outside the stream, decided once.
  int warmup;
};

// Re-decisions of unchanged stages: 100 workload-A stages on the seed
// experiments' 128-machine fleet; both caches hold the whole working set.
constexpr DecideShape kHot = {"decide-hot", WorkloadId::kA, 0.15, 0.35, 1.0,
                              128, 1, 16, 256, 100, false, 2};
// Paper-scale novel stages: workload C widened 10x on a 10x fleet, solved
// POP-style in 4 shards, 300 of the pool's 716 stages. The shards
// run serially (no worker pool, as bench_shard_scale's gate does): on a
// shared 4-vCPU machine, a fan over every core waits for whichever core the
// host stole, and that spread the 10-run quartiles of decide_p95_ms to 0.36
// of the median.
constexpr DecideShape kWide = {"decide-wide-sharded", WorkloadId::kC, 0.08,
                               8.5, 10.0, 1280, 4, 64, 1 << 30, 300, true, 3};

struct DecideState {
  std::unique_ptr<LatencyModel> model;
  Workload workload;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<FrontierCache> frontier;
  std::unique_ptr<PredictionMemo> memo;
  std::vector<SchedulingContext> warmup;  // novel stream: warm-up stages
  /// The working set or the novel stream. Every run decides each of these
  /// stages at least once whatever the clock says (the ones the timed phase
  /// did not reach are decided untimed after it), so the checks and the
  /// plan-quality metrics cover the same stages on every run of a seed.
  std::vector<SchedulingContext> timed;
  std::vector<StageDecision> warm;  // working set: last warm-up pass

  /// Points the timed stages at fresh caches (a novel stream's new lap).
  void FreshCaches() {
    frontier = std::make_unique<FrontierCache>();
    memo = std::make_unique<PredictionMemo>();
    for (SchedulingContext& ctx : timed) {
      ctx.frontier_cache = frontier.get();
      ctx.memo = memo.get();
    }
  }
};

SchedulingContext MakeContext(const Stage& stage, const DecideState& state,
                              const Hbo& hbo, const DecideShape& shape) {
  SchedulingContext ctx;
  ctx.stage = &stage;
  ctx.cluster = state.cluster.get();
  ctx.model = state.model.get();
  ctx.theta0 = hbo.Recommend(stage).theta0;
  ctx.memo = state.memo.get();
  ctx.frontier_cache = state.frontier.get();
  ctx.shard_count = shape.shard_count;
  return ctx;
}

void Setup(const DecideShape& shape, uint64_t seed,
           const StageOptimizer& so, DecideState* state, SetupTimes* times) {
  *state = DecideState{};
  state->model =
      TrainModel(shape.workload, shape.train_scale, kModelSeed, times);
  state->workload = GenerateWorkload(shape.workload, shape.serve_scale,
                                     shape.width_scale, kServePoolSeed,
                                     times);
  double t = NowSeconds();
  ClusterOptions fleet;
  fleet.num_machines = shape.fleet;
  fleet.seed = kFleetSeed;
  state->cluster = std::make_unique<Cluster>(fleet);
  state->frontier = std::make_unique<FrontierCache>();
  state->memo = std::make_unique<PredictionMemo>();
  const Hbo hbo(state->workload.profile.hbo);
  std::vector<const Stage*> pool;
  for (const Job& job : state->workload.jobs) {
    for (const Stage& stage : job.stages) {
      if (stage.instance_count() >= shape.min_instances &&
          stage.instance_count() <= shape.max_instances) {
        pool.push_back(&stage);
      }
    }
  }
  std::stable_sort(pool.begin(), pool.end(),
                   [](const Stage* a, const Stage* b) {
                     return a->instance_count() < b->instance_count();
                   });
  Rng rng(MixSeed(seed, 2));
  const size_t strata = std::min<size_t>(shape.stages, pool.size());
  std::vector<int> picked, rest;
  for (size_t k = 0; k < strata; ++k) {
    const size_t lo = k * pool.size() / strata;
    const size_t hi = (k + 1) * pool.size() / strata;
    const size_t pick = lo + static_cast<size_t>(rng.UniformInt(
                                      0, static_cast<int64_t>(hi - lo) - 1));
    for (size_t i = lo; i < hi; ++i) {
      (i == pick ? picked : rest).push_back(static_cast<int>(i));
    }
  }
  SeededShuffle(&picked, MixSeed(seed, 3));
  SeededShuffle(&rest, MixSeed(seed, 4));
  for (int i : picked) {
    state->timed.push_back(
        MakeContext(*pool[static_cast<size_t>(i)], *state, hbo, shape));
  }
  if (shape.novel) {
    for (size_t k = 0;
         k < rest.size() && k < static_cast<size_t>(shape.warmup); ++k) {
      state->warmup.push_back(MakeContext(*pool[static_cast<size_t>(rest[k])],
                                          *state, hbo, shape));
    }
  }
  times->trace_gen_s += NowSeconds() - t;

  t = NowSeconds();
  if (!shape.novel) {
    for (int pass = 0; pass < shape.warmup; ++pass) {
      state->warm.clear();
      for (const SchedulingContext& ctx : state->timed) {
        state->warm.push_back(so.Optimize(ctx));
      }
    }
  } else {
    for (const SchedulingContext& ctx : state->warmup) (void)so.Optimize(ctx);
  }
  times->warmup_s += NowSeconds() - t;
}

/// The distinct decisions of a run: each stage's first decision (on a
/// working set, its warm-up decision) and any later one that differs from
/// it. Each is checked once, and attempted and failed count them, so both
/// are the same on every run of a seed however far the clock let the loop
/// go.
struct Distinct {
  std::vector<StageDecision> decisions;
  std::vector<int> stage;  // context index per decision
  std::vector<int> first;  // per context: its first decision, -1 = none

  explicit Distinct(size_t contexts) : first(contexts, -1) {}

  void Add(int i, StageDecision decision) {
    int& f = first[static_cast<size_t>(i)];
    if (f >= 0 &&
        SameDecision(decision, decisions[static_cast<size_t>(f)])) {
      return;
    }
    if (f < 0) f = static_cast<int>(decisions.size());
    decisions.push_back(std::move(decision));
    stage.push_back(i);
  }
};

/// One closed-loop phase: decides the timed contexts in order, cycling,
/// until `seconds` pass. On a novel stream every lap starts with fresh
/// caches; their replacement and the speed probes are not timed.
struct Phase {
  std::vector<double> decide_s;   // per timed call
  std::vector<double> request_s;  // closed loop: completion to completion
  std::vector<double> done_at;    // when each call completed
  double start = 0.0;             // wall span of the phase
  double stop = 0.0;
  double seconds = 0.0;           // the span less the untimed pauses
  SpeedProbe probe;

  /// Scales each call's times to the probe's reference speed.
  void ScaleToReference() {
    const std::vector<double> scales =
        probe.WindowScales(start, stop, kWindows);
    for (size_t k = 0; k < done_at.size(); ++k) {
      const double scale = scales[static_cast<size_t>(
          WindowOf(done_at[k], start, stop, kWindows))];
      decide_s[k] *= scale;
      request_s[k] *= scale;
    }
  }

  /// Median over the slices of calls per second of (scaled) busy time.
  double WindowedRate() const {
    std::vector<double> calls(kWindows, 0.0), busy(kWindows, 0.0);
    for (size_t k = 0; k < done_at.size(); ++k) {
      const size_t w = static_cast<size_t>(
          WindowOf(done_at[k], start, stop, kWindows));
      calls[w] += 1.0;
      busy[w] += request_s[k];
    }
    std::vector<double> rates;
    for (size_t w = 0; w < calls.size(); ++w) {
      if (busy[w] > 0.0) rates.push_back(calls[w] / busy[w]);
    }
    return Median(rates);
  }
};

/// Seconds between speed probes in the closed loop (about 1% of its time).
constexpr double kProbeEvery = 0.03;

Phase RunClosedLoop(const DecideShape& shape, const StageOptimizer& so,
                    DecideState* state, size_t* next, double seconds,
                    Distinct* distinct) {
  const std::vector<SchedulingContext>& contexts = state->timed;
  Phase phase;
  phase.decide_s.reserve(1 << 16);
  phase.request_s.reserve(1 << 16);
  const double start = NowSeconds();
  phase.start = start;
  double end = start + seconds;
  double ready = start;
  double paused = 0.0;
  while (ready < end) {
    if (*next == contexts.size()) {
      *next = 0;
      if (shape.novel) {
        const double p0 = NowSeconds();
        state->FreshCaches();
        const double dp = NowSeconds() - p0;
        paused += dp;
        end += dp;
        ready += dp;
      }
    }
    const int i = static_cast<int>(*next);
    const double t0 = NowSeconds();
    StageDecision decision = so.Optimize(contexts[static_cast<size_t>(i)]);
    const double t1 = NowSeconds();
    phase.decide_s.push_back(t1 - t0);
    if (distinct != nullptr) distinct->Add(i, std::move(decision));
    ++*next;
    const double done = NowSeconds();
    phase.request_s.push_back(done - ready);
    phase.done_at.push_back(done);
    ready = done;
    const double dp = phase.probe.MaybeSample(kProbeEvery);
    if (dp > 0.0) {
      const double resumed = NowSeconds();
      paused += resumed - ready;
      end += resumed - ready;
      ready = resumed;
    }
  }
  phase.stop = ready;
  phase.seconds = ready - start - paused;
  return phase;
}

/// Decides, untimed, the stages the timed phase did not reach, so every run
/// decides every stage.
void CompleteStages(const StageOptimizer& so, const DecideState& state,
                    Distinct* distinct) {
  for (size_t i = 0; i < state.timed.size(); ++i) {
    if (distinct->first[i] < 0) {
      distinct->Add(static_cast<int>(i), so.Optimize(state.timed[i]));
    }
  }
}

/// Checks every distinct decision and fills the decision-derived end-to-end
/// metrics. Plan quality averages over each stage's first decision.
void CheckDecisions(const DecideState& state, const Distinct& distinct,
                    EndToEnd* e, Report* report) {
  const GroundTruthEnv env(state.workload.profile.env);
  const size_t n = distinct.decisions.size();
  long failed = 0, primary = 0, scored_feasible = 0;
  double latency_sum = 0.0, cost_sum = 0.0;
  std::string first_problem;
  for (size_t k = 0; k < n; ++k) {
    const int i = distinct.stage[k];
    const SchedulingContext& ctx = state.timed[static_cast<size_t>(i)];
    const StageDecision& d = distinct.decisions[k];
    const std::string problem = CheckDecision(ctx, d);
    if (!problem.empty()) {
      ++failed;
      if (first_problem.empty()) first_problem = problem;
    }
    if (d.fallback == FallbackLevel::kPrimary) ++primary;
    if (distinct.first[static_cast<size_t>(i)] == static_cast<int>(k) &&
        d.feasible) {
      const PlanQuality quality = ExpectedPlanQuality(env, ctx, d);
      ++scored_feasible;
      latency_sum += quality.latency_s;
      cost_sum += quality.cost;
    }
  }
  if (!first_problem.empty()) {
    std::printf("  output check: %ld of %zu decisions invalid (first: %s)\n",
                failed, n, first_problem.c_str());
  }
  report->attempted = static_cast<long>(n);
  report->failed = failed;
  const double dn = static_cast<double>(std::max<size_t>(1, n));
  e->ok_frac = static_cast<double>(static_cast<long>(n) - failed) / dn;
  e->primary_frac = static_cast<double>(primary) / dn;
  const double feasible = static_cast<double>(std::max(1L, scored_feasible));
  e->plan_latency_s = latency_sum / feasible;
  e->plan_cost_mdollar = cost_sum / feasible * 1e3;
}

void RunDecide(const DecideShape& shape, const Args& args, Report* report) {
  const StageOptimizer::Config config =
      StageOptimizer::IpaRaaPathWithFallback();
  const StageOptimizer so(config);
  DecideState state;
  SetupTimes times;
  const double setup_s = RepeatSetup(
      kSetupRepetitions,
      [&](SetupTimes* t) { Setup(shape, args.seed, so, &state, t); }, &times);
  int total_instances = 0;
  for (const SchedulingContext& ctx : state.timed) {
    total_instances += ctx.stage->instance_count();
  }
  std::printf("%s: %zu timed stages (%.0f instances avg), fleet %d, "
              "shards %d, setup %.3f s (median of %d)\n",
              shape.name, state.timed.size(),
              static_cast<double>(total_instances) /
                  std::max<size_t>(1, state.timed.size()),
              shape.fleet, shape.shard_count, setup_s, kSetupRepetitions);
  if (state.timed.empty()) {
    report->Incorrect("the generated workload has no stage to decide");
    return;
  }

  size_t next = 0;
  if (!args.trace) {
    Distinct distinct(state.timed.size());
    for (size_t i = 0; i < state.warm.size(); ++i) {
      distinct.Add(static_cast<int>(i), state.warm[i]);
    }
    Phase phase =
        RunClosedLoop(shape, so, &state, &next, args.seconds, &distinct);
    const size_t reached = distinct.decisions.size();
    CompleteStages(so, state, &distinct);
    const double raw_p50_ms = Quantile(phase.decide_s, 0.50) * 1e3;
    phase.ScaleToReference();
    EndToEnd e;
    e.setup_s = setup_s;
    e.decide_p50_ms = Quantile(phase.decide_s, 0.50) * 1e3;
    e.decide_p95_ms = Quantile(phase.decide_s, 0.95) * 1e3;
    e.decisions_per_s = phase.WindowedRate();
    e.request_p50_ms = Quantile(phase.request_s, 0.50) * 1e3;
    e.request_p95_ms = Quantile(phase.request_s, 0.95) * 1e3;
    // One closed-loop caller saturates the optimizer: its completion rate
    // is the capacity.
    e.capacity_rps = e.decisions_per_s;
    CheckDecisions(state, distinct, &e, report);
    std::printf("  speed probe: %ld samples, scale %.4f (unscaled decide p50 "
                "%.4f ms)\n",
                phase.probe.samples(), phase.probe.Scale(), raw_p50_ms);
    std::printf("  %zu decisions in %.3f s (%zu laps of %zu stages), %zu "
                "stages decided untimed after it\n",
                phase.decide_s.size(), phase.seconds,
                phase.decide_s.size() / state.timed.size(),
                state.timed.size(), distinct.decisions.size() - reached);
    e.peak_rss_mb = PeakRssMb();
    AddEndToEnd(e, report);
    return;
  }

  // Traced run. A twin of the model (copies share the params_tag, so they
  // compute identical predictions) and twin caches, warmed identically,
  // serve the composed solves, so the Optimize path's caches and counters
  // see exactly what the timed run's do.
  PerLayer p;
  p.setup = times;
  auto twin_model = std::make_unique<LatencyModel>(*state.model);
  FrontierCache twin_frontier;
  PredictionMemo twin_memo;
  auto twin = [&](SchedulingContext ctx) {
    ctx.model = twin_model.get();
    ctx.frontier_cache = &twin_frontier;
    ctx.memo = &twin_memo;
    return ctx;
  };
  std::vector<SchedulingContext> twins;
  for (const SchedulingContext& ctx : state.timed) twins.push_back(twin(ctx));
  if (!shape.novel) {
    for (int pass = 0; pass < shape.warmup; ++pass) {
      for (const SchedulingContext& ctx : twins) (void)so.Optimize(ctx);
    }
  } else {
    for (const SchedulingContext& ctx : state.warmup) {
      (void)so.Optimize(twin(ctx));
    }
  }

  // Tracing overhead compares untraced with traced Optimize calls on the
  // same stages. A working set repeats, so an untraced quarter of the time
  // comes first; a novel stream never repeats, so untraced and traced calls
  // alternate, each side seeing the same stage mix.
  const bool alternate = shape.novel;
  std::vector<double> plain_s;
  if (!alternate) {
    plain_s = RunClosedLoop(shape, so, &state, &next, 0.25 * args.seconds,
                            nullptr)
                  .decide_s;
  }

  obs::MetricsRegistry registry;
  const obs::Obs obs{&registry, nullptr};
  auto wire = [&](const obs::Obs& o) {
    state.model->set_obs(o);
    state.memo->set_obs(o);
  };
  std::vector<SchedulingContext> wired = state.timed;
  for (SchedulingContext& ctx : wired) ctx.obs = obs;

  SpanLog log;
  std::vector<double> traced_s;
  long mismatches = 0;
  AllocCounts allocs;
  wire(obs);
  SetAllocCounting(true);
  const double end =
      NowSeconds() + (alternate ? 1.0 : 0.75) * args.seconds;
  long op = 0;
  for (long step = 0; NowSeconds() < end; ++step) {
    // A working set cycles; a novel stream ends after one lap here.
    if (next == wired.size()) {
      if (shape.novel) break;
      next = 0;
    }
    const size_t i = next++;
    if (alternate && step % 2 == 0) {
      SetAllocCounting(false);
      wire(obs::Obs{});
      const double t0 = NowSeconds();
      (void)so.Optimize(state.timed[i]);
      plain_s.push_back(NowSeconds() - t0);
      wire(obs);
      SetAllocCounting(true);
      continue;
    }
    const AllocCounts a0 = ReadAllocCounts();
    const double t0 = NowSeconds();
    const StageDecision decision = so.Optimize(wired[i]);
    const double t1 = NowSeconds();
    const AllocCounts a1 = ReadAllocCounts();
    allocs.count += a1.count - a0.count;
    allocs.bytes += a1.bytes - a0.bytes;
    traced_s.push_back(t1 - t0);
    const int parent = log.Record("optimizer.decide", -1, op, t0, t1);
    const StageDecision composed =
        ComposeDecision(config, twins[i], &log, parent, op);
    if (!SameDecision(decision, composed)) ++mismatches;
    ++op;
  }
  SetAllocCounting(false);
  wire(obs::Obs{});
  if (op == 0) {
    report->Incorrect("no decision completed in the traced phase");
    return;
  }
  if (mismatches > 0) {
    report->Incorrect(std::to_string(mismatches) +
                      " composed decisions differ from Optimize's");
  }
  report->attempted = op;

  const double decisions = static_cast<double>(op);
  SummarizeDecisionSpans(log, &p);
  const obs::MetricsRegistry::Snapshot snap = registry.Snap();
  auto counter = [&](const char* name) {
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0
                                     : static_cast<double>(it->second);
  };
  const double hits = counter("so.frontier.hits");
  const double misses = counter("so.frontier.misses");
  p.frontier_hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  p.frontier_builds_per_decision = counter("so.frontier.builds") / decisions;
  p.frontier_corrections_per_decision =
      counter("so.frontier.corrections") / decisions;
  const double memo_hits = counter("model.memo.hits");
  const double memo_misses = counter("model.memo.misses");
  p.memo_hit_ratio = memo_hits + memo_misses > 0
                         ? memo_hits / (memo_hits + memo_misses)
                         : 0.0;
  p.shard_refined_moves_per_decision =
      counter("so.shard.refined_moves") / decisions;
  p.predict_rows_per_decision =
      counter("model.predict_batch_rows") / decisions;
  auto batch = snap.histograms.find("model.predict_batch_size");
  if (batch != snap.histograms.end()) p.rows_per_batch = batch->second.p50;
  p.alloc_count_per_decision = static_cast<double>(allocs.count) / decisions;
  p.alloc_bytes_per_decision = static_cast<double>(allocs.bytes) / decisions;
  // Means: a novel stream's stage mix makes a median of a few hundred
  // heterogeneous calls jumpy; the sums weigh every call.
  double plain_sum = 0.0, traced_sum = 0.0;
  for (double t : plain_s) plain_sum += t;
  for (double t : traced_s) traced_sum += t;
  if (!plain_s.empty() && plain_sum > 0.0) {
    p.overhead_frac = (traced_sum / static_cast<double>(traced_s.size())) /
                          (plain_sum / static_cast<double>(plain_s.size())) -
                      1.0;
  }

  std::vector<SchedulingContext> sample(
      state.timed.begin(),
      state.timed.begin() +
          std::min<size_t>(state.timed.size(), shape.novel ? 4 : 16));
  MeasureUnitCosts(config, sample, &p);

  log.PrintLedger(shape.name);
  const std::string path = OutputDir() + "/spans-" + shape.name + "-" +
                           std::to_string(args.seed) + ".jsonl";
  if (!log.WriteJsonLines(path)) report->Incorrect("cannot write " + path);
  std::printf("  %ld traced decisions (%zu untraced); spans in %s\n", op,
              plain_s.size(), path.c_str());
  AddPerLayer(p, report);
}

}  // namespace

void RunDecideHot(const Args& args, Report* report) {
  RunDecide(kHot, args, report);
}

void RunDecideWideSharded(const Args& args, Report* report) {
  RunDecide(kWide, args, report);
}

}  // namespace fgro::perfbench
