#include "sim/fault_injector.h"

#include <cmath>

#include "common/rng.h"

namespace fgro {

namespace {

// SplitMix64 finalizer: a cheap, well-mixed hash for counter-based draws.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Poisson process over [0, horizon): exponential inter-arrival times with
// the given events-per-second rate, each event opening a fixed-length
// window. Windows are already sorted and non-overlapping by construction
// (the next arrival is drawn after the previous window closes).
std::vector<FaultWindow> DrawWindows(Rng* rng, double rate_per_second,
                                     double window_seconds, double horizon) {
  std::vector<FaultWindow> windows;
  if (rate_per_second <= 0.0 || horizon <= 0.0) return windows;
  double t = 0.0;
  while (true) {
    double u = rng->Uniform(1e-12, 1.0);
    t += -std::log(u) / rate_per_second;
    if (t >= horizon) break;
    windows.push_back({t, t + window_seconds});
    t += window_seconds;
  }
  return windows;
}

bool InWindow(const std::vector<FaultWindow>& windows, double now) {
  for (const FaultWindow& w : windows) {
    if (now < w.start) return false;  // sorted: no later window covers now
    if (now < w.end) return true;
  }
  return false;
}

}  // namespace

FaultInjector::FaultInjector(const FaultOptions& options, int num_machines)
    : options_(options) {
  if (!options_.active()) return;
  machine_windows_.resize(static_cast<size_t>(num_machines));
  const double crash_rate = options_.machine_failure_rate_per_day / 86400.0;
  for (int m = 0; m < num_machines; ++m) {
    Rng rng(Mix64(options_.seed ^ Mix64(0x6d61636800ULL + m)));
    machine_windows_[static_cast<size_t>(m)] =
        DrawWindows(&rng, crash_rate, options_.machine_recovery_seconds,
                    options_.horizon_seconds);
  }
  Rng model_rng(Mix64(options_.seed ^ 0x6d6f64656cULL));
  model_windows_ =
      DrawWindows(&model_rng, options_.model_outage_rate_per_day / 86400.0,
                  options_.model_outage_seconds, options_.horizon_seconds);
}

bool FaultInjector::MachineUp(int machine_id, double now) const {
  if (machine_windows_.empty()) return true;
  return !InWindow(machine_windows_[static_cast<size_t>(machine_id)], now);
}

bool FaultInjector::ModelAvailable(double now) const {
  return !InWindow(model_windows_, now);
}

double FaultInjector::MachineRecoveryTime(int machine_id, double now) const {
  if (machine_windows_.empty()) return now;
  for (const FaultWindow& w :
       machine_windows_[static_cast<size_t>(machine_id)]) {
    if (now < w.start) break;
    if (now < w.end) return w.end;
  }
  return now;
}

bool FaultInjector::MachineCrashesWithin(int machine_id, double start,
                                         double duration,
                                         double* crash_at) const {
  if (machine_windows_.empty()) return false;
  for (const FaultWindow& w :
       machine_windows_[static_cast<size_t>(machine_id)]) {
    if (w.start >= start + duration) break;
    if (w.start >= start) {
      if (crash_at != nullptr) *crash_at = w.start;
      return true;
    }
  }
  return false;
}

double FaultInjector::UnitDraw(uint64_t stream, int job, int stage,
                               int instance, int attempt) const {
  uint64_t h = Mix64(options_.seed ^ stream);
  h = Mix64(h ^ static_cast<uint64_t>(job));
  h = Mix64(h ^ (static_cast<uint64_t>(stage) << 20));
  h = Mix64(h ^ (static_cast<uint64_t>(instance) << 40));
  h = Mix64(h ^ (static_cast<uint64_t>(attempt) << 52));
  // 53-bit mantissa -> uniform double in [0, 1).
  return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
}

bool FaultInjector::InstanceFails(int job, int stage, int instance,
                                  int attempt) const {
  if (!active() || options_.instance_failure_prob <= 0.0) return false;
  return UnitDraw(0x6661696cULL, job, stage, instance, attempt) <
         options_.instance_failure_prob;
}

double FaultInjector::FailurePointFraction(int job, int stage, int instance,
                                           int attempt) const {
  double u = UnitDraw(0x706f696e74ULL, job, stage, instance, attempt);
  // Avoid the degenerate endpoints: a failure always wastes some work but
  // never a full completed run.
  return 0.02 + 0.96 * u;
}

double FaultInjector::StragglerMultiplier(int job, int stage, int instance,
                                          int attempt) const {
  if (!active() || options_.straggler_prob <= 0.0) return 1.0;
  if (UnitDraw(0x736c6f77ULL, job, stage, instance, attempt) <
      options_.straggler_prob) {
    return options_.straggler_slowdown;
  }
  return 1.0;
}

}  // namespace fgro
