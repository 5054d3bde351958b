#ifndef FGRO_PERFBENCH_HARNESS_H_
#define FGRO_PERFBENCH_HARNESS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "model/latency_model.h"
#include "trace/workload_gen.h"

namespace fgro::perfbench {

/// Command line of one benchmark run (see run.py).
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Steady-clock seconds since an arbitrary epoch.
double NowSeconds();

/// Seconds since main() started (the origin of the first set-up).
double SinceStartSeconds();
void MarkProcessStart();

/// Exact sample quantile with linear interpolation between order
/// statistics (0 when empty).
double Quantile(std::vector<double> values, double q);

/// Quantile over `values` plus `misses` operations that never produced a
/// valid result. A miss counts as missing every latency limit, so it sorts
/// above every value; when the quantile lands on a miss the result is
/// `miss_value` (a lower bound on how late it was).
double QuantileWithMisses(std::vector<double> values, long misses, double q,
                          double miss_value);

double Median(std::vector<double> values);

/// Host speed probe. The shared 4-vCPU VM this benchmark was tuned on
/// changes speed by up to 1.8x, in stretches from seconds to longer than a
/// run (set-up, the same work on every run, took 0.85-1.53 s), and every
/// timing metric moved with it. The probe times a fixed computation of the
/// benchmark's own between the program's calls: dense float arithmetic, a
/// sort and hashing, the kinds of work the optimizer does. The end-to-end
/// timings are reported at the probe's reference speed: a time measured
/// while the probe ran at median time p is multiplied by reference / p, a
/// rate divided by it.
class SpeedProbe {
 public:
  /// Runs one timed probe (~0.1 ms) if `every` seconds have passed since
  /// the last one; returns the seconds it took (0 when not due).
  double MaybeSample(double every);
  double Sample();
  long samples() const { return static_cast<long>(took_.size()); }
  /// Reference probe time / median probe time (1 without samples).
  double Scale() const;
  /// Scale() of the samples in each of `n` equal slices of [from, to), or
  /// of all samples for a slice with fewer than kMinWindowSamples.
  std::vector<double> WindowScales(double from, double to, int n) const;
  /// Adds the other probe's samples.
  void Merge(const SpeedProbe& other);

  static constexpr int kMinWindowSamples = 5;

 private:
  std::vector<double> at_;    // when each sample ended (NowSeconds)
  std::vector<double> took_;  // its duration
  double last_ = -1e300;
};

/// A SpeedProbe on every CPU this process may use: one thread pinned to
/// each, asleep except for one probe every `every` seconds, from
/// construction until Stop(). For phases whose program threads run on every
/// CPU (serve-churn): the host slows single CPUs, and a probe on the main
/// thread's CPU missed a burst that ran 40% slower on the workers' CPUs.
class CpuProbes {
 public:
  explicit CpuProbes(double every);
  ~CpuProbes() { Stop(); }
  /// Stops and joins the threads; returns the samples of every CPU.
  SpeedProbe Stop();

 private:
  std::atomic<bool> stop_{false};
  std::vector<SpeedProbe> probes_;
  std::vector<std::thread> threads_;
};

/// The slice of [from, to) cut into `n` equal parts that `t` falls in
/// (clamped to [0, n)).
int WindowOf(double t, double from, double to, int n);

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// The named metrics, counts and verdict of one run. Printed as a table and
/// as the final JSON line, the run's machine-readable result.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// A check the run cannot attribute to `failed` (the benchmark's own
  /// premise broke): the run is reported as not correct.
  void Incorrect(const std::string& why);

  long attempted = 0;
  long failed = 0;

  bool correct() const { return problems_.empty(); }
  void Print() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> problems_;
};

/// One traced interval. `parent` indexes the span that caused it (-1 =
/// root); `op` identifies the operation (decision or job) it belongs to.
struct Span {
  const char* name = "";
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  long op = 0;
};

/// In-memory span store, written out once at exit. Single-threaded: spans
/// of parallel work are timed into per-slot locals and recorded afterwards
/// by the calling thread.
class SpanLog {
 public:
  int Record(const char* name, int parent, long op, double start,
             double end);
  void SetEnd(int id, double end) {
    spans_[static_cast<size_t>(id)].end = end;
  }
  const std::vector<Span>& spans() const { return spans_; }
  /// Writes one JSON object per span (name, start_s, end_s, parent, op).
  bool WriteJsonLines(const std::string& path) const;

  /// Total and self time per span name (self = duration minus the time its
  /// children cover: the union of child intervals that lie inside the
  /// parent's, plus the full duration of logical children timed outside
  /// it, such as the composed parts of a decision), printed as the traced
  /// ledger.
  void PrintLedger(const char* title) const;

 private:
  std::vector<Span> spans_;
};

/// Wall time of each set-up phase, summed over its steps.
struct SetupTimes {
  double trace_gen_s = 0.0;
  double train_s = 0.0;
  double warmup_s = 0.0;
};

/// Generator seeds of the fixed job pools the runs draw from. A run's seed
/// decides the rest (which pool entries are used and in what order,
/// arrivals, faults), so two seeds see different inputs from one
/// population, and a metric's spread over seeds measures the program, not
/// how heavy one seed's job templates happened to be. Training and serving
/// pools never share a seed.
inline constexpr uint64_t kTrainPoolSeed = 101;
inline constexpr uint64_t kServePoolSeed = 7101;
/// Training seed of every workload's model (collection fleet, split,
/// initialization, sampling), fixed like the pools. With a model trained
/// from the run's seed, the model alone moved decide-wide-sharded's mean
/// plan latency over one stage set from 74 to 121 s and its share of
/// over-booked decisions from 0 to 20%, so those metrics measured the
/// seed's model, not the program.
inline constexpr uint64_t kModelSeed = 23;

/// A model trained the way the paper's model server trains one: generate a
/// workload (the training pool), collect its instance traces under HBO +
/// Fuxi-style placement on a fleet drawn from `seed`, split by template
/// frequency, and fit MCI+GTN with `seed`-derived initialization and
/// sampling. The training workload is dropped once trained (the model keeps
/// only its weights).
std::unique_ptr<LatencyModel> TrainModel(WorkloadId workload, double scale,
                                         uint64_t seed, SetupTimes* times);

/// Generates a workload from `pool_seed`; timed into trace_gen_s.
Workload GenerateWorkload(WorkloadId workload, double scale,
                          double width_scale, uint64_t pool_seed,
                          SetupTimes* times);

/// Fisher-Yates shuffle driven by `seed`.
void SeededShuffle(std::vector<int>* values, uint64_t seed);

/// Runs `setup` `reps` times (each a complete, independent set-up that
/// replaces the previous one) and returns the median wall time at the
/// probe's reference speed (each repetition scaled by CpuProbes run during
/// it); the first repetition is timed from process start. `times` receives
/// the phase split of the last repetition, unscaled.
double RepeatSetup(int reps, const std::function<void(SetupTimes*)>& setup,
                   SetupTimes* times);

/// Adds setup.* metrics.
void AddSetupMetrics(const SetupTimes& times, Report* report);

/// Directory for trace files (created on demand, inside the checkout).
std::string OutputDir();

}  // namespace fgro::perfbench

#endif  // FGRO_PERFBENCH_HARNESS_H_
