#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>

namespace e2e {

bool RunResult::Check(bool ok, const std::string& what) {
  if (!ok) {
    ++failed;
    failures.push_back(what);
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  return ok;
}

void RunResult::FailOps(std::uint64_t ops, const std::string& what) {
  if (ops == 0) return;
  failed += ops;
  failures.push_back(std::to_string(ops) + " ops: " + what);
  std::fprintf(stderr, "FAILED %llu ops: %s\n",
               static_cast<unsigned long long>(ops), what.c_str());
}

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double GeoMean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double log_sum = 0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

void SetOpMetrics(RunResult& result, const std::vector<double>& latency_us,
                  const std::vector<std::size_t>& cell_of_op) {
  const auto cell = [&](std::size_t i) {
    return cell_of_op.empty() ? 0 : cell_of_op[i];
  };
  std::map<std::size_t, std::vector<double>> by_cell;
  for (std::size_t i = 0; i < latency_us.size(); ++i) {
    by_cell[cell(i)].push_back(latency_us[i]);
  }
  std::map<std::size_t, double> typical_of;
  std::vector<double> typical;
  for (const auto& [c, sample] : by_cell) {
    typical_of[c] = Percentile(sample, kUndisturbed);
    typical.push_back(typical_of[c]);
  }
  double loop_us = 0;
  for (std::size_t i = 0; i < latency_us.size(); ++i) {
    loop_us += typical_of[cell(i)];
  }
  result.Set("ops_per_s",
             static_cast<double>(latency_us.size()) / (loop_us / 1e6), "1/s");
  result.Set("op_ms", GeoMean(typical) / 1e3, "ms");
  result.Set("op_tail_ms",
             *std::max_element(typical.begin(), typical.end()) / 1e3, "ms");
}

}  // namespace e2e
