// Two-arm overload sweep for the concurrent RO service: the same request
// stream offered at a rising multiple of the measured saturation rate,
// against a fixed worker pool, once per admission-control arm:
//
//   none   — bounded queue only (no CoDel),
//   codel  — adaptive sojourn-time CoDel with online target learning.
//
// The claim under test: the adaptive arm keeps the p95/p99 queue wait flat
// across offered load — the none arm lets waits grow to the queue bound
// past saturation, so "flat" is judged by the worst point of the sweep
// (a spread metric would reward an arm that is uniformly saturated) —
// without giving up goodput at saturation. The bench exits non-zero unless
// CoDel's worst p95 AND worst p99 across the sweep are no higher than the
// none arm's and its goodput at the 1.0x (saturation) point stays within
// 0.95 of the none arm's.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "obs/snapshot.h"
#include "optimizer/stage_optimizer.h"
#include "service/ro_service.h"

using namespace fgro;
using namespace fgro::bench;

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

std::string FlagValue(int argc, char** argv, const char* prefix) {
  const std::size_t len = std::strlen(prefix);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix, len) == 0) return argv[i] + len;
  }
  return "";
}

struct SweepPoint {
  double multiplier = 0.0;
  double offered_rate = 0.0;   // requests/s offered
  double goodput = 0.0;        // completions/s achieved
  double wait_p95_ms = 0.0;    // all-lanes queue wait
  double wait_p99_ms = 0.0;
  double ls_wait_p95_ms = 0.0;  // latency-sensitive lane only
  RoSummary summary;
  std::string breakdown_json;  // per-phase rollup incl. queue wait
};

struct Arm {
  const char* name;
  std::vector<SweepPoint> points;
  double worst_p95_ms = 0.0;  // max across the sweep
  double worst_p99_ms = 0.0;
};

double WorstMs(const std::vector<SweepPoint>& points,
               double SweepPoint::*field) {
  double hi = 0.0;
  for (const SweepPoint& p : points) hi = std::max(hi, p.*field);
  return hi;
}

// Quantile over the bucket-count difference of two snapshots of the same
// histogram — the steady-state tail with the warmup samples subtracted.
// Mirrors Histogram::Quantile: ceil-rank over cumulative counts, linear
// interpolation inside the winning bucket, overflow pinned to the last
// finite bound.
double DiffQuantile(const obs::MetricsRegistry::HistogramView& warm,
                    const obs::MetricsRegistry::HistogramView& full,
                    double q) {
  const std::size_t n = full.buckets.size();
  uint64_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const uint64_t before = i < warm.buckets.size() ? warm.buckets[i].second
                                                    : 0;
    total += full.buckets[i].second - before;
  }
  if (total == 0) return 0.0;
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(total))));
  uint64_t cumulative = 0;
  double last_finite = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const uint64_t before = i < warm.buckets.size() ? warm.buckets[i].second
                                                    : 0;
    const uint64_t in_bucket = full.buckets[i].second - before;
    const double upper = full.buckets[i].first;
    if (std::isfinite(upper)) last_finite = upper;
    if (in_bucket == 0) continue;
    if (cumulative + in_bucket < rank) {
      cumulative += in_bucket;
      continue;
    }
    if (!std::isfinite(upper)) return last_finite;
    const double lower = i == 0 ? 0.0 : full.buckets[i - 1].first;
    const double fraction = static_cast<double>(rank - cumulative) /
                            static_cast<double>(in_bucket);
    return lower + (upper - lower) * fraction;
  }
  return last_finite;
}

// The sweep point at the calibrated saturation rate (multiplier closest to
// 1.0) — where "goodput holds" is judged.
const SweepPoint& SaturationPoint(const std::vector<SweepPoint>& points) {
  const SweepPoint* best = &points.front();
  for (const SweepPoint& p : points) {
    if (std::abs(p.multiplier - 1.0) < std::abs(best->multiplier - 1.0)) {
      best = &p;
    }
  }
  return *best;
}

}  // namespace

int main(int argc, char** argv) {
  SetLogLevel(LogLevel::kWarning);
  const bool quick = HasFlag(argc, argv, "--quick");
  const std::string json_out = FlagValue(argc, argv, "--json_out=");
  PrintHeader("Overload: none vs adaptive CoDel");

  ExperimentEnv::Options options = DefaultOptions(
      WorkloadId::kA, quick ? BenchScale::kSmoke : BenchScale::kAblation);
  Result<std::unique_ptr<ExperimentEnv>> env = ExperimentEnv::Build(options);
  FGRO_CHECK_OK(env.status());
  const Workload& workload = (*env)->workload();
  const int num_jobs = static_cast<int>(workload.jobs.size());

  const int kWorkers = 2;
  // Deep enough that a full queue means real pain: the none arm lets the
  // wait grow to ~capacity * service / workers past saturation, which is
  // exactly the headroom CoDel's sojourn control is supposed to not use.
  const std::size_t kQueueCapacity = 32;
  SimOptions sim;
  sim.outcome = OutcomeMode::kEnvironment;
  sim.service_threads = kWorkers;
  const StageOptimizer::Config config =
      StageOptimizer::IpaRaaPathWithFallback();

  // Calibrate: drive the same kWorkers pool the sweep uses, unthrottled,
  // and measure its completion rate. A single-threaded calibration
  // over-estimates capacity — the sweep's workers contend with each other
  // and with the pacing thread, so "1.0x" would silently mean 2x real
  // overload. Median of three passes, since every arm is judged at
  // multiples of this rate.
  double saturation;  // requests/s at full decision quality
  {
    const int calib_total = std::max(128, 8 * num_jobs);
    double rates[3];
    for (double& rate : rates) {
      RoServiceOptions calib_options;
      calib_options.queue_capacity = static_cast<std::size_t>(calib_total);
      RoService service(&workload, &(*env)->model(), sim, config,
                        calib_options);
      const double start = NowSeconds();
      for (int r = 0; r < calib_total; ++r) {
        (void)service.Submit(r % num_jobs, RequestPriority::kBatch);
      }
      service.Drain();
      rate = calib_total / (NowSeconds() - start);
      service.Stop();
    }
    std::sort(rates, rates + 3);
    saturation = rates[1];
  }
  const double mean_service = kWorkers / saturation;  // effective, per job
  std::printf("  calibration: %d-worker pool saturates at ~%.1f req/s"
              " (effective %.1f ms per job, %d distinct jobs)\n",
              kWorkers, saturation, mean_service * 1e3, num_jobs);

  const std::vector<double> multipliers =
      quick ? std::vector<double>{1.0, 4.0}
            : std::vector<double>{0.5, 1.0, 2.0, 4.0};
  // Each point offers a fixed *duration* of arrivals, not a fixed count: a
  // count-based point at 4x saturation finishes submitting in tens of
  // milliseconds — before any controller has reacted — and then just
  // measures the drain. A time window long enough for the control loop to
  // converge keeps the startup transient out of the p99 at every rate.
  const double window_seconds = quick ? 2.0 : 3.0;

  std::vector<Arm> arms = {{"none", {}, 0, 0}, {"codel", {}, 0, 0}};
  for (Arm& arm : arms) {
    std::printf("\n  arm: %s\n", arm.name);
    std::printf("  %-6s %8s %8s %6s %7s %9s %9s %9s %s\n", "load", "offered",
                "admit", "shed%", "good/s", "waitP95", "waitP99", "lsP95",
                "ladder[P/th0/Fuxi]");
    for (double multiplier : multipliers) {
      RoServiceOptions service_options;
      service_options.queue_capacity = kQueueCapacity;
      if (std::strcmp(arm.name, "codel") == 0) {
        service_options.codel.enabled = true;
        service_options.codel_clock = CodelClockMode::kWallClock;
        // Deliberately calibration-free constants: deriving them from the
        // measured service time just inherits the calibration's noise —
        // finding the right latency target is the adaptive layer's job. The interval is several service times so
        // a fast drain of an above-target backlog cannot fire an
        // escalation per dequeue; demote early (a two-worker pool, not a
        // router with thousands of flows), shed late — demotion
        // multiplies capacity, so the controller spends the whole rung
        // ladder before it starts refusing work.
        service_options.codel.interval_seconds = 0.010;
        service_options.codel.theta0_count = 1;
        service_options.codel.fuxi_count = 2;
        service_options.codel.shed_count = 8;
        service_options.codel.protect_margin = 2;
        service_options.adaptive_target.enabled = true;
        service_options.adaptive_target.initial_target_seconds = 0.010;
        service_options.adaptive_target.min_target_seconds = 0.001;
        service_options.adaptive_target.max_target_seconds = 0.050;
        service_options.adaptive_target.window = 16;
      }
      // One registry per sweep point: the service's queue-wait / service-
      // time histograms and the replay-path phase timings all land here, so
      // the JSON breakdown is per-(arm, multiplier) rather than cumulative.
      obs::MetricsRegistry registry;
      SimOptions point_sim = sim;
      point_sim.obs.metrics = &registry;
      RoService service(&workload, &(*env)->model(), point_sim, config,
                        service_options);

      const double rate = multiplier * saturation;
      const double interval = 1.0 / rate;
      const int offered_total =
          std::max(200, static_cast<int>(rate * window_seconds));
      // Tail quantiles are judged on the steady state: the first chunk of
      // every point is warmup, snapshotted and subtracted out. Sojourn
      // control can only react after requests have waited and been
      // dequeued, so the initial queue-fill (admitted before any
      // controller has seen a single sojourn) is a fixed startup artifact
      // every arm pays once — it measures the cold start, not the
      // control law the sweep compares.
      const int warm_total = offered_total / 4;
      obs::MetricsRegistry::Snapshot warm_snap;
      const double start = NowSeconds();
      for (int r = 0; r < offered_total; ++r) {
        // Paced open-loop arrivals: a shed request is gone, not retried —
        // exactly the regime where an unbounded queue would melt down.
        const double due = start + r * interval;
        const double now = NowSeconds();
        if (due > now) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(due - now));
        }
        // Every 5th request is latency-sensitive, the rest are batch.
        (void)service.Submit(r % num_jobs,
                             r % 5 == 0 ? RequestPriority::kLatencySensitive
                                        : RequestPriority::kBatch);
        if (r + 1 == warm_total) warm_snap = registry.Snap();
      }
      service.Drain();
      const double elapsed = NowSeconds() - start;
      service.Stop();

      SweepPoint point;
      point.multiplier = multiplier;
      point.offered_rate = rate;
      point.summary = service.Summary();
      point.goodput = point.summary.jobs_completed / elapsed;
      const obs::MetricsRegistry::Snapshot full_snap = registry.Snap();
      const obs::MetricsRegistry::HistogramView& wait =
          full_snap.histograms.at("svc.queue_wait_seconds");
      const obs::MetricsRegistry::HistogramView& ls_wait =
          full_snap.histograms.at("svc.queue_wait_ls_seconds");
      const obs::MetricsRegistry::HistogramView empty_view;
      const obs::MetricsRegistry::HistogramView& wait_warm =
          warm_snap.histograms.count("svc.queue_wait_seconds")
              ? warm_snap.histograms.at("svc.queue_wait_seconds")
              : empty_view;
      const obs::MetricsRegistry::HistogramView& ls_wait_warm =
          warm_snap.histograms.count("svc.queue_wait_ls_seconds")
              ? warm_snap.histograms.at("svc.queue_wait_ls_seconds")
              : empty_view;
      point.wait_p95_ms = DiffQuantile(wait_warm, wait, 0.95) * 1e3;
      point.wait_p99_ms = DiffQuantile(wait_warm, wait, 0.99) * 1e3;
      point.ls_wait_p95_ms = DiffQuantile(ls_wait_warm, ls_wait, 0.95) * 1e3;
      point.breakdown_json = obs::PhaseBreakdownJson(registry);
      const RoSummary& s = point.summary;
      std::printf(
          "  %4.1fx %8.1f %8ld %5.1f%% %7.1f %7.1fms %7.1fms %7.1fms"
          " %d/%d/%d\n",
          multiplier, rate, s.jobs_admitted,
          100.0 * s.jobs_shed / s.jobs_offered, point.goodput,
          point.wait_p95_ms, point.wait_p99_ms, point.ls_wait_p95_ms,
          s.fallback_histogram[0], s.fallback_histogram[1],
          s.fallback_histogram[2]);
      if (std::strcmp(arm.name, "codel") == 0) {
        std::printf("        codel: shed %ld theta0 %ld fuxi %ld"
                    " | target %.2fms after %ld adaptations, %ld resets\n",
                    s.codel_shed_jobs, s.codel_theta0_jobs,
                    s.codel_fuxi_jobs, s.codel_target_ms,
                    s.codel_target_adaptations, s.codel_interval_resets);
      }
      arm.points.push_back(std::move(point));
    }
    arm.worst_p95_ms = WorstMs(arm.points, &SweepPoint::wait_p95_ms);
    arm.worst_p99_ms = WorstMs(arm.points, &SweepPoint::wait_p99_ms);
  }

  // Verdict. Flatness: CoDel's worst p95/p99 across the sweep must be no
  // higher than the none arm's worst (small absolute slack for
  // histogram-bucket granularity) — worst-of-sweep, because a spread
  // metric would score an arm that is pinned at the queue bound at every
  // multiplier as perfectly flat. Goodput: at the saturation point CoDel
  // must hold at least ~the none arm's completion rate — flat latency
  // bought by refusing all the work would be cheating.
  const Arm& none = arms[0];
  const Arm& codel = arms[1];
  // Slack: absolute for histogram-bucket granularity, proportional for
  // scheduler noise on a shared machine — the claim is "no worse tails",
  // not "wins a coin-flip-sized margin".
  auto no_worse = [](double codel_ms, double base_ms) {
    return codel_ms <= std::max(base_ms + 10.0, 1.25 * base_ms);
  };
  const bool flat_p95 = no_worse(codel.worst_p95_ms, none.worst_p95_ms);
  const bool flat_p99 = no_worse(codel.worst_p99_ms, none.worst_p99_ms);
  const SweepPoint& codel_sat = SaturationPoint(codel.points);
  const SweepPoint& none_sat = SaturationPoint(none.points);
  const bool goodput_holds = codel_sat.goodput >= 0.95 * none_sat.goodput;
  const bool pass = flat_p95 && flat_p99 && goodput_holds;

  std::printf("\n  worst p95: none %.1fms codel %.1fms\n", none.worst_p95_ms,
              codel.worst_p95_ms);
  std::printf("  worst p99: none %.1fms codel %.1fms\n", none.worst_p99_ms,
              codel.worst_p99_ms);
  std::printf("  goodput @ %.1fx: codel %.1f/s vs none %.1f/s\n",
              codel_sat.multiplier, codel_sat.goodput, none_sat.goodput);
  std::printf("  verdict: codel flat p95: %s | flat p99: %s"
              " | goodput holds: %s -> %s\n",
              flat_p95 ? "yes" : "NO", flat_p99 ? "yes" : "NO",
              goodput_holds ? "yes" : "NO", pass ? "PASS" : "FAIL");

  if (!json_out.empty()) {
    std::string json = "{\"arms\": [";
    char buf[512];
    for (std::size_t a = 0; a < arms.size(); ++a) {
      const Arm& arm = arms[a];
      if (a > 0) json += ",";
      std::snprintf(buf, sizeof(buf),
                    "{\"arm\": \"%s\", \"worst_p95_ms\": %.17g, "
                    "\"worst_p99_ms\": %.17g, \"points\": [",
                    arm.name, arm.worst_p95_ms, arm.worst_p99_ms);
      json += buf;
      for (std::size_t i = 0; i < arm.points.size(); ++i) {
        const SweepPoint& p = arm.points[i];
        if (i > 0) json += ",";
        std::snprintf(
            buf, sizeof(buf),
            "{\"multiplier\": %.17g, \"offered_rate\": %.17g, "
            "\"goodput\": %.17g, \"shed\": %ld, \"wait_p95_ms\": %.17g, "
            "\"wait_p99_ms\": %.17g, \"ls_wait_p95_ms\": %.17g, "
            "\"codel_shed\": %ld, \"codel_theta0\": %ld, "
            "\"codel_fuxi\": %ld, \"codel_target_ms\": %.17g, "
            "\"breakdown\": ",
            p.multiplier, p.offered_rate, p.goodput, p.summary.jobs_shed,
            p.wait_p95_ms, p.wait_p99_ms, p.ls_wait_p95_ms,
            p.summary.codel_shed_jobs, p.summary.codel_theta0_jobs,
            p.summary.codel_fuxi_jobs, p.summary.codel_target_ms);
        json += buf;
        json += p.breakdown_json;
        json += "}";
      }
      json += "]}";
    }
    std::snprintf(buf, sizeof(buf),
                  "], \"verdict\": {\"flat_p95\": %s, \"flat_p99\": %s, "
                  "\"goodput_holds\": %s, \"pass\": %s}}\n",
                  flat_p95 ? "true" : "false", flat_p99 ? "true" : "false",
                  goodput_holds ? "true" : "false", pass ? "true" : "false");
    json += buf;
    FGRO_CHECK_OK(obs::WriteJsonFile(json, json_out));
    std::printf("  wrote %s\n", json_out.c_str());
  }
  return pass ? 0 : 1;
}
