#include "harness.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>

#include "common/logging.h"
#include "common/rng.h"
#include "trace/data_split.h"
#include "trace/trace_collector.h"

namespace fgro::perfbench {
namespace {

double g_process_start = 0.0;

}  // namespace

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void MarkProcessStart() { g_process_start = NowSeconds(); }

double SinceStartSeconds() { return NowSeconds() - g_process_start; }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double QuantileWithMisses(std::vector<double> values, long misses, double q,
                          double miss_value) {
  const double lowest_miss = std::max(
      miss_value,
      values.empty() ? 0.0 : *std::max_element(values.begin(), values.end()));
  for (long i = 0; i < misses; ++i) values.push_back(lowest_miss);
  return Quantile(std::move(values), q);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

namespace {

/// The probe's data, allocated once, so that no probe depends on the
/// allocator's state, and a buffer written over before each probe, untimed,
/// so that every probe starts with the per-core caches holding none of its
/// data: back-to-back probes (after a set-up) and probes between program
/// calls then time the same thing.
struct ProbeData {
  static constexpr int kDim = 48;
  static constexpr int kKeys = 1024;
  static constexpr int kSlots = 2048;  // open-addressing table, power of 2
  std::vector<float> matrix, vec, out;
  std::vector<double> source, keys;
  std::vector<uint64_t> table;
  std::vector<uint64_t> flush;

  ProbeData()
      : matrix(kDim * kDim), vec(kDim), out(kDim), source(kKeys),
        keys(kKeys), table(kSlots), flush((4u << 20) / sizeof(uint64_t)) {
    uint64_t x = 88172645463325252ull;
    auto next = [&x] {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      return static_cast<double>(x >> 11) * 0x1.0p-53;
    };
    for (float& a : matrix) a = static_cast<float>(next() - 0.5);
    for (double& k : source) k = next();
  }
};

ProbeData& Probe() {
  thread_local ProbeData data;
  return data;
}

/// The probe's fixed work: a 48x48 matrix-vector product repeated 24 times,
/// a sort of 1,024 doubles, and 512 hash-table inserts with 1,024 lookups.
/// Returns a value that depends on all of it.
double ProbeWork(ProbeData& d) {
  constexpr int kDim = ProbeData::kDim;
  std::fill(d.vec.begin(), d.vec.end(), 1.0f);
  for (int rep = 0; rep < 24; ++rep) {
    for (int i = 0; i < kDim; ++i) {
      float acc = 0.0f;
      for (int j = 0; j < kDim; ++j) acc += d.matrix[i * kDim + j] * d.vec[j];
      d.out[i] = acc > 0.0f ? acc : 0.01f * acc;
    }
    std::swap(d.vec, d.out);
  }
  std::copy(d.source.begin(), d.source.end(), d.keys.begin());
  std::sort(d.keys.begin(), d.keys.end());
  std::fill(d.table.begin(), d.table.end(), 0);
  const uint64_t mask = ProbeData::kSlots - 1;
  auto hash = [](uint64_t k) { return (k * 0x9E3779B97F4A7C15ull) >> 40; };
  for (uint64_t k = 1; k <= 512; ++k) {
    uint64_t slot = hash(k * 7919) & mask;
    while (d.table[slot] != 0) slot = (slot + 1) & mask;
    d.table[slot] = k * 7919;
  }
  long found = 0;
  for (uint64_t k = 1; k <= 1024; ++k) {
    for (uint64_t slot = hash(k * 3967) & mask; d.table[slot] != 0;
         slot = (slot + 1) & mask) {
      if (d.table[slot] == k * 3967) {
        ++found;
        break;
      }
    }
  }
  return static_cast<double>(d.vec[0]) + d.keys[512] +
         static_cast<double>(found);
}

thread_local volatile double g_probe_sink = 0.0;

/// Median probe time on a calm stretch of the reference machine (the
/// 4-vCPU VM in harness.h), for a probe run between the program's calls:
/// it sets the reference speed and claims nothing about any other host.
constexpr double kReferenceSeconds = 100e-6;

/// Seconds between the probes of each CPU during a set-up repetition.
constexpr double kSetupProbeEverySeconds = 0.03;

}  // namespace

double SpeedProbe::MaybeSample(double every) {
  return NowSeconds() - last_ >= every ? Sample() : 0.0;
}

double SpeedProbe::Sample() {
  ProbeData& data = Probe();
  for (size_t i = 0; i < data.flush.size(); i += 8) data.flush[i] += i;
  const double t0 = NowSeconds();
  g_probe_sink = g_probe_sink + ProbeWork(data);
  last_ = NowSeconds();
  at_.push_back(last_);
  took_.push_back(last_ - t0);
  return last_ - t0;
}

double SpeedProbe::Scale() const {
  return took_.empty() ? 1.0 : kReferenceSeconds / Median(took_);
}

std::vector<double> SpeedProbe::WindowScales(double from, double to,
                                             int n) const {
  std::vector<std::vector<double>> slices(static_cast<size_t>(n));
  for (size_t i = 0; i < took_.size(); ++i) {
    if (at_[i] >= from && at_[i] < to) {
      slices[static_cast<size_t>(WindowOf(at_[i], from, to, n))].push_back(
          took_[i]);
    }
  }
  std::vector<double> scales;
  for (const std::vector<double>& slice : slices) {
    scales.push_back(static_cast<int>(slice.size()) < kMinWindowSamples
                         ? Scale()
                         : kReferenceSeconds / Median(slice));
  }
  return scales;
}

void SpeedProbe::Merge(const SpeedProbe& other) {
  at_.insert(at_.end(), other.at_.begin(), other.at_.end());
  took_.insert(took_.end(), other.took_.begin(), other.took_.end());
}

CpuProbes::CpuProbes(double every) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof(allowed), &allowed);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  }
  probes_.resize(cpus.size());
  for (size_t i = 0; i < cpus.size(); ++i) {
    threads_.emplace_back([this, every, i, cpu = cpus[i]] {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
      while (!stop_.load()) {
        std::this_thread::sleep_for(std::chrono::duration<double>(every));
        if (!stop_.load()) probes_[i].Sample();
      }
    });
  }
}

SpeedProbe CpuProbes::Stop() {
  stop_ = true;
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  SpeedProbe all;
  for (const SpeedProbe& p : probes_) all.Merge(p);
  return all;
}

int WindowOf(double t, double from, double to, int n) {
  const int w = to > from ? static_cast<int>((t - from) / (to - from) * n) : 0;
  return std::clamp(w, 0, n - 1);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    Incorrect("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

void Report::Incorrect(const std::string& why) { problems_.push_back(why); }

void Report::Print() const {
  std::printf("\n  %-44s %18s  %s\n", "metric", "value", "unit");
  for (const Metric& m : metrics_) {
    std::printf("  %-44s %18.6f  %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  attempted=%ld failed=%ld correct=%s\n", attempted, failed,
              correct() ? "true" : "false");
  for (const std::string& p : problems_) {
    std::printf("  INCORRECT: %s\n", p.c_str());
  }
  std::string json = std::string("{\"correct\": ") +
                     (correct() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    json += (i > 0 ? ", \"" : "\"") + metrics_[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int SpanLog::Record(const char* name, int parent, long op, double start,
                    double end) {
  spans_.push_back({name, start, end, parent, op});
  return static_cast<int>(spans_.size()) - 1;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                 "\"parent\": %d, \"op\": %ld}\n",
                 s.name, s.start, s.end, s.parent, s.op);
  }
  return std::fclose(f) == 0;
}

void SpanLog::PrintLedger(const char* title) const {
  std::vector<std::vector<int>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<size_t>(spans_[i].parent)].push_back(
          static_cast<int>(i));
    }
  }
  struct Row {
    long count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Row> rows;
  std::vector<std::string> order;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double duration = s.end - s.start;
    // Children inside the parent's interval cover the union of their
    // intervals; logical children timed outside it (a decision's composed
    // parts) cover their own durations.
    std::vector<std::pair<double, double>> inside;
    double outside = 0.0;
    for (int c : children[i]) {
      const Span& child = spans_[static_cast<size_t>(c)];
      if (child.start >= s.start && child.end <= s.end) {
        inside.emplace_back(child.start, child.end);
      } else {
        outside += child.end - child.start;
      }
    }
    std::sort(inside.begin(), inside.end());
    double covered = outside;
    double reach = s.start;
    for (const auto& [a, b] : inside) {
      const double from = std::max(a, reach);
      if (b > from) {
        covered += b - from;
        reach = b;
      }
    }
    if (rows.find(s.name) == rows.end()) order.push_back(s.name);
    Row& row = rows[s.name];
    row.count++;
    row.total += duration;
    row.self += duration - covered;
  }
  std::printf("\n  traced ledger: %s\n  %-24s %8s %12s %12s %12s %8s\n",
              title, "span", "count", "total_ms", "mean_ms", "self_ms",
              "self%");
  for (const std::string& name : order) {
    const Row& row = rows[name];
    std::printf("  %-24s %8ld %12.3f %12.4f %12.3f %7.1f%%\n", name.c_str(),
                row.count, row.total * 1e3, row.total * 1e3 / row.count,
                row.self * 1e3,
                row.total > 0.0 ? 100.0 * row.self / row.total : 0.0);
  }
}

std::unique_ptr<LatencyModel> TrainModel(WorkloadId workload, double scale,
                                         uint64_t seed, SetupTimes* times) {
  double t = NowSeconds();
  WorkloadProfile profile = GetWorkloadProfile(workload, scale);
  profile.seed = kTrainPoolSeed;
  Result<Workload> generated = WorkloadGenerator(profile).Generate();
  FGRO_CHECK_OK(generated.status());
  const Workload train_workload = std::move(generated).value();
  ClusterOptions collect_cluster;
  collect_cluster.seed = MixSeed(seed, 1);
  Result<TraceDataset> dataset =
      TraceCollector(collect_cluster, MixSeed(seed, 2)).Collect(train_workload);
  FGRO_CHECK_OK(dataset.status());
  double now = NowSeconds();
  times->trace_gen_s += now - t;
  t = now;

  Rng split_rng(MixSeed(seed, 3));
  const DataSplit split = SplitByTemplateFrequency(dataset.value(), &split_rng);
  LatencyModel::Options model_options;
  model_options.kind = ModelKind::kMciGtn;
  model_options.featurizer = Featurizer(ChannelMask{}, 10);
  model_options.seed = MixSeed(seed, 4);
  auto model = std::make_unique<LatencyModel>(model_options);
  // Smoke-sized training (BenchScale::kSmoke in bench/): the benchmark
  // measures the optimizer that consumes the model, and a competent model
  // is enough for that; training time is reported under setup.train_s.
  TrainOptions train;
  train.epochs = 3;
  train.max_train_samples = 3000;
  train.seed = MixSeed(seed, 5);
  FGRO_CHECK_OK(
      model->Train(dataset.value(), split.train, split.val, train));
  times->train_s += NowSeconds() - t;
  return model;
}

Workload GenerateWorkload(WorkloadId workload, double scale,
                          double width_scale, uint64_t pool_seed,
                          SetupTimes* times) {
  const double t = NowSeconds();
  WorkloadProfile profile = GetWorkloadProfile(workload, scale, width_scale);
  profile.seed = pool_seed;
  Result<Workload> generated = WorkloadGenerator(profile).Generate();
  FGRO_CHECK_OK(generated.status());
  times->trace_gen_s += NowSeconds() - t;
  return std::move(generated).value();
}

void SeededShuffle(std::vector<int>* values, uint64_t seed) {
  Rng rng(seed);
  for (size_t i = values->size(); i > 1; --i) {
    const size_t j = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(i) - 1));
    std::swap((*values)[i - 1], (*values)[j]);
  }
}

double RepeatSetup(int reps, const std::function<void(SetupTimes*)>& setup,
                   SetupTimes* times) {
  std::vector<double> walls;
  for (int r = 0; r < reps; ++r) {
    const double start = r == 0 ? NowSeconds() - SinceStartSeconds()
                                : NowSeconds();
    *times = SetupTimes{};
    CpuProbes probes(kSetupProbeEverySeconds);
    setup(times);
    const double wall = NowSeconds() - start;
    walls.push_back(wall * probes.Stop().Scale());
  }
  return Median(walls);
}

void AddSetupMetrics(const SetupTimes& times, Report* report) {
  report->Add("setup.trace_gen_s", times.trace_gen_s, "s");
  report->Add("setup.train_s", times.train_s, "s");
  report->Add("setup.warmup_s", times.warmup_s, "s");
}

std::string OutputDir() {
  const std::string dir = ".bench_out";
  mkdir(dir.c_str(), 0755);
  return dir;
}

}  // namespace fgro::perfbench
