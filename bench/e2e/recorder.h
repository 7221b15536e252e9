// Span recorder for the traced run (--trace).
//
// Spans are recorded from the benchmark's own code around each public call
// into a layer — name, begin, end, parent span and request id — kept in
// memory and written out once at exit as a Chrome trace. A disabled
// recorder records nothing; Timed() still measures, so the traced passes
// and the untraced ones share one code path.
//
// The binary also replaces the global operator new with a counting one.
// Counting is gated on one relaxed flag that only --trace sets, so the
// untraced run pays one relaxed load per allocation.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace e2e {

void SetAllocCounting(bool on);
[[nodiscard]] std::uint64_t AllocCount();

class Recorder {
 public:
  explicit Recorder(bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }

  // Opens a span nested under the innermost open one; -1 when disabled.
  int Open(const char* name, double begin_us, std::int64_t request = -1);
  // Closes the innermost open span, which must be `span`.
  void Close(int span, double end_us);
  // Records a finished span with explicit bounds — for spans that overlap
  // their siblings, like the serving workload's per-request spans. `lane`
  // becomes the Chrome-trace thread, so overlapping spans do not nest.
  int Add(const char* name, double begin_us, double end_us, int parent,
          std::int64_t request, int lane);

  struct Totals {
    std::uint64_t count = 0;
    double total_us = 0;
    double self_us = 0;  // duration minus the time its children cover
  };
  [[nodiscard]] std::map<std::string, Totals> Summarize() const;

  bool WriteChromeTrace(const std::string& path) const;
  void PrintSelfTimes(std::FILE* out) const;

 private:
  struct Span {
    const char* name = "";
    double begin_us = 0;
    double end_us = 0;
    int parent = -1;
    std::int64_t request = -1;
    int lane = 0;
  };

  bool enabled_ = false;
  double epoch_us_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Runs `fn` inside a span named `name` and returns its wall time in µs.
template <typename Fn>
double Timed(Recorder& rec, const char* name, Fn&& fn,
             std::int64_t request = -1) {
  const double t0 = NowUs();
  const int span = rec.Open(name, t0, request);
  fn();
  const double t1 = NowUs();
  rec.Close(span, t1);
  return t1 - t0;
}

}  // namespace e2e
