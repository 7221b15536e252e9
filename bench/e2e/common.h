// Shared plumbing for the end-to-end benchmark: run options, the result a
// workload fills in, wall-clock helpers and the statistics every metric is
// reported with.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  // length of the timed region
  bool trace = false;   // per-layer run: spans, allocation counting, passes
  std::string out;      // result JSON path; the trace lands beside it
};

struct Metric {
  double value = 0;
  std::string unit;
};

// What one workload run reports. End-to-end and per-layer metrics share one
// map; run.py picks the names BENCHMARK.json lists for the run's mode.
struct RunResult {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;  // timed operations (served requests, calls)
  std::uint64_t failed = 0;     // failed operations plus failed checks
  std::vector<std::string> failures;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  // A correctness gate: a failure counts in `failed` and is reported by
  // name, so the run exits non-zero.
  bool Check(bool ok, const std::string& what);
  // `ops` timed operations failed for the same reason (none: no-op).
  void FailOps(std::uint64_t ops, const std::string& what);
};

// Wall clock on the steady clock, in microseconds.
[[nodiscard]] double NowUs();

// Peak resident set of this process so far, in MiB.
[[nodiscard]] double PeakRssMb();

// Linear-interpolated percentile, p in [0, 1]; 0 for an empty sample.
[[nodiscard]] double Percentile(std::vector<double> values, double p);
[[nodiscard]] inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}
[[nodiscard]] double Mean(const std::vector<double>& values);
[[nodiscard]] double GeoMean(const std::vector<double>& values);

// Set-ups per untraced run. setup_s is their median: one set-up is too
// noisy to bound, and a later change that moves work into set-up still
// shows in every one of them.
inline constexpr int kSetups = 3;

// Builds the workload's state `count` times from nothing, destroying the
// previous state first, and records setup_s as the median wall time of one
// set-up. Returns the last state, which the timed region then uses.
template <typename State, typename Make>
std::unique_ptr<State> SetUp(RunResult& result, int count, Make make) {
  std::unique_ptr<State> state;
  std::vector<double> seconds;
  for (int i = 0; i < count; ++i) {
    state.reset();
    const double t0 = NowUs();
    state = make();
    seconds.push_back((NowUs() - t0) / 1e6);
  }
  result.Set("setup_s", Median(seconds), "s");
  return state;
}

// The benchmark shares its host, whose interference (other tenants' cache
// and memory traffic) slows a varying share of operations — up to half of
// them in a busy minute — by 10-50%. The calls it does not hit are the
// program's own cost, so every timing of a timed region is taken at the
// least disturbed quarter: the lower quartile of a latency sample, the
// upper quartile of a sample of rates. In a busy period the per-cell median
// of replay_2x8 spread twice as wide as its lower quartile (README.md).
inline constexpr double kUndisturbed = 0.25;

// A closed loop's metrics. `cell_of_op[i]` is op i's cell (empty: one
// cell); a cell's latency is the kUndisturbed percentile of its calls.
// Cells differ in latency by up to 100x, so percentiles of the pooled
// sample would only say which cell sits at that rank. op_ms is the
// geometric mean over cells, op_tail_ms the slowest cell, and ops_per_s
// the rate at which the loop's calls would run at their cells' latencies.
void SetOpMetrics(RunResult& result, const std::vector<double>& latency_us,
                  const std::vector<std::size_t>& cell_of_op);

}  // namespace e2e
