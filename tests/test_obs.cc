// Unit tests for the observability layer: JSON escaping/number formatting,
// the metrics registry, publication, and the trace-export correctness
// fixes (precision past 1 s of simulated time, zero-duration transfers as
// instant events, hostile strings escaped).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algorithms/hierarchical.h"
#include "json_checker.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/publish.h"
#include "obs/timeline.h"
#include "runtime/backend.h"
#include "runtime/multi_job.h"
#include "runtime/trace.h"
#include "sim/machine.h"
#include "topology/topology.h"

namespace resccl {
namespace {

using tests::CountOccurrences;
using tests::JsonChecker;

TEST(JsonEscapeTest, HostileStrings) {
  EXPECT_EQ(obs::EscapeJson("plain"), "plain");
  EXPECT_EQ(obs::EscapeJson("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(obs::EscapeJson("back\\slash"), "back\\\\slash");
  EXPECT_EQ(obs::EscapeJson("line\nfeed"), "line\\nfeed");
  EXPECT_EQ(obs::EscapeJson("tab\there"), "tab\\there");
  EXPECT_EQ(obs::EscapeJson(std::string("nul\0byte", 8)), "nul\\u0000byte");
  EXPECT_EQ(obs::EscapeJson("\x01\x1f"), "\\u0001\\u001f");
  // UTF-8 passes through untouched.
  EXPECT_EQ(obs::EscapeJson("émoji ✓"), "émoji ✓");

  // Embedding any escaped string in a literal yields valid JSON.
  for (const std::string& hostile :
       {std::string("a\"b\\c\nd\re\tf"), std::string("\x01\x02\x1f"),
        std::string("x\0y", 3)}) {
    const std::string doc = "{\"k\":\"" + obs::EscapeJson(hostile) + "\"}";
    EXPECT_TRUE(JsonChecker(doc).Valid()) << doc;
  }
}

TEST(JsonFormatDoubleTest, RoundTripsExactly) {
  const double values[] = {0.0,
                           1.0 / 3.0,
                           -12345.678901234567,
                           2e6 + 0.123456789,
                           1e-300,
                           9.875e250,
                           -0.0,
                           313.32515309834986};
  for (const double v : values) {
    const std::string text = obs::FormatDouble(v);
    char* end = nullptr;
    const double back = std::strtod(text.c_str(), &end);
    EXPECT_EQ(*end, '\0') << text;
    EXPECT_EQ(back, v) << text;
  }
  // Non-finite values are not valid JSON; they clamp to 0.
  EXPECT_EQ(obs::FormatDouble(std::numeric_limits<double>::infinity()), "0");
  EXPECT_EQ(obs::FormatDouble(std::nan("")), "0");
}

TEST(MetricsRegistryTest, CountersGaugesHistograms) {
  obs::MetricsRegistry reg;  // instance registries start enabled
  ASSERT_TRUE(reg.enabled());

  reg.counter("c").Add(2.5);
  reg.counter("c").Increment();
  EXPECT_DOUBLE_EQ(reg.counter("c").value(), 3.5);

  reg.gauge("g").Set(7.0);
  reg.gauge("g").Set(-1.5);
  EXPECT_DOUBLE_EQ(reg.gauge("g").value(), -1.5);

  obs::MetricsRegistry::Histogram& h = reg.histogram("h", {1.0, 10.0, 100.0});
  h.Observe(0.5);    // bucket 0 (le 1)
  h.Observe(10.0);   // bucket 1 (le 10, bounds are upper-inclusive)
  h.Observe(50.0);   // bucket 2
  h.Observe(1e6);    // overflow bucket
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 10.0 + 50.0 + 1e6);
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);  // overflow

  // Find-or-register returns the same handle; later bounds are ignored.
  EXPECT_EQ(&reg.histogram("h", {5.0}), &h);

  const std::string json = reg.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"c\""), std::string::npos);
  EXPECT_NE(json.find("\"le\": \"inf\""), std::string::npos);

  reg.Reset();
  EXPECT_DOUBLE_EQ(reg.counter("c").value(), 0.0);
  EXPECT_EQ(h.count(), 0u);
}

TEST(MetricsRegistryTest, DisabledUpdatesAreDropped) {
  obs::MetricsRegistry reg;
  obs::MetricsRegistry::Counter& c = reg.counter("c");
  reg.Enable(false);
  c.Increment();
  reg.gauge("g").Set(5.0);
  reg.histogram("h", {1.0}).Observe(0.5);
  EXPECT_DOUBLE_EQ(c.value(), 0.0);
  EXPECT_DOUBLE_EQ(reg.gauge("g").value(), 0.0);
  EXPECT_EQ(reg.histogram("h", {1.0}).count(), 0u);
  reg.Enable(true);
  c.Increment();
  EXPECT_DOUBLE_EQ(c.value(), 1.0);
}

TEST(MetricsRegistryTest, ConcurrentUpdatesAreExact) {
  obs::MetricsRegistry reg;
  obs::MetricsRegistry::Counter& c = reg.counter("c");
  obs::MetricsRegistry::Histogram& h = reg.histogram("h", {0.5});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c.Increment();
        h.Observe(1.0);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  constexpr auto kTotal = static_cast<std::uint64_t>(kThreads) * kPerThread;
  EXPECT_DOUBLE_EQ(c.value(), kThreads * kPerThread);
  EXPECT_EQ(h.count(), kTotal);
  EXPECT_EQ(h.bucket_count(1), kTotal);
}

TEST(MetricsPublishTest, ExecutePublishesStableNames) {
  const Topology topo(presets::A100(2, 4));
  const Algorithm algo = algorithms::HierarchicalMeshAllReduce(topo);
  const PreparedPlan prepared =
      Prepare(algo, topo, BackendKind::kResCCL).value();
  RunRequest request;
  request.launch.buffer = Size::MiB(4);
  const CollectiveReport report = Execute(*prepared, request);

  obs::MetricsRegistry reg;
  obs::PublishCollectiveReport(reg, report);
  EXPECT_DOUBLE_EQ(reg.counter("run.count").value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.counter("run.sim_us").value(),
                   report.sim.makespan.us());
  EXPECT_DOUBLE_EQ(reg.counter("sim.events").value(),
                   static_cast<double>(report.sim.events));
  EXPECT_GT(reg.counter("sim.tb.busy_us").value(), 0.0);
  EXPECT_GT(reg.gauge("links.carriers").value(), 0.0);
  EXPECT_EQ(reg.histogram("run.makespan_us", {}).count(), 1u);
  EXPECT_TRUE(JsonChecker(reg.ToJson()).Valid());

  // Disabled registries swallow publication entirely.
  obs::MetricsRegistry off;
  off.Enable(false);
  obs::PublishCollectiveReport(off, report);
  EXPECT_DOUBLE_EQ(off.counter("run.count").value(), 0.0);
}

// Metric names in a registry snapshot that start with `prefix`.
std::set<std::string> NamesWithPrefix(const std::string& json,
                                      const std::string& prefix) {
  std::set<std::string> names;
  const std::string needle = "\"" + prefix;
  for (std::size_t at = json.find(needle); at != std::string::npos;
       at = json.find(needle, at + 1)) {
    const std::size_t end = json.find('"', at + 1);
    names.insert(json.substr(at + 1, end - at - 1));
  }
  return names;
}

// Pins the co-run rows of docs/observability.md: one merged Execute plus
// one isolated Execute per job publish run.*, then PublishCoRun adds
// multi_job.* and the plan-cache counters.
TEST(MetricsPublishTest, CoRunPublishesDocumentedSamples) {
  const Topology topo(presets::A100(2, 4));
  std::vector<JobSpec> jobs(2);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    jobs[j].name = "job" + std::to_string(j);
    jobs[j].algorithm = algorithms::HierarchicalMeshAllReduce(topo);
    jobs[j].options = DefaultCompileOptions(BackendKind::kResCCL);
    jobs[j].launch.buffer = Size::MiB(4);
  }
  PlanCache cache;
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.Reset();
  reg.Enable(true);
  // Serial baselines, so the run.last_* gauges come from the last job's.
  const CoRunReport report = RunConcurrently(jobs, topo, &cache, 1);
  reg.Enable(false);

  const std::string json = reg.ToJson();
  EXPECT_EQ(NamesWithPrefix(json, "run."),
            (std::set<std::string>{"run.algo_bw_gbps", "run.count",
                                   "run.last_algo_bw_gbps",
                                   "run.last_makespan_us", "run.makespan_us",
                                   "run.microbatches", "run.sim_us",
                                   "run.tbs"}));
  EXPECT_EQ(NamesWithPrefix(json, "multi_job."),
            (std::set<std::string>{"multi_job.jobs",
                                   "multi_job.last_makespan_us",
                                   "multi_job.runs", "multi_job.slowdown"}));

  EXPECT_DOUBLE_EQ(reg.counter("run.count").value(), 3.0);
  EXPECT_EQ(reg.histogram("run.makespan_us", {}).count(), 3u);
  EXPECT_EQ(reg.histogram("run.algo_bw_gbps", {}).count(), 3u);
  double sim_us = report.merged.elapsed.us();
  for (const JobOutcome& job : report.jobs) sim_us += job.isolated.us();
  EXPECT_DOUBLE_EQ(reg.counter("run.sim_us").value(), sim_us);
  EXPECT_DOUBLE_EQ(reg.gauge("run.last_makespan_us").value(),
                   report.jobs[1].isolated.us());
  // Identical jobs: the merged run counts both jobs' TBs, each baseline one.
  EXPECT_DOUBLE_EQ(reg.counter("run.tbs").value(),
                   2.0 * report.merged.total_tbs);
  EXPECT_DOUBLE_EQ(reg.counter("run.microbatches").value(),
                   3.0 * report.merged.nmicrobatches);
  EXPECT_DOUBLE_EQ(reg.counter("sim.protocol.Simple").value(), 3.0);

  EXPECT_DOUBLE_EQ(reg.counter("multi_job.runs").value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.counter("multi_job.jobs").value(), 2.0);
  EXPECT_DOUBLE_EQ(reg.gauge("multi_job.last_makespan_us").value(),
                   report.merged.elapsed.us());
  EXPECT_EQ(reg.histogram("multi_job.slowdown", {}).count(), 2u);
  EXPECT_DOUBLE_EQ(reg.counter("plan_cache.miss_runs").value(), 1.0);
  EXPECT_DOUBLE_EQ(reg.counter("plan_cache.hit_runs").value(), 1.0);
  reg.Reset();
}

// One small observed collective; the trace tests mutate copies of its
// report.
struct ObservedRun {
  Topology topo;
  CompiledCollective compiled;
  LoweredProgram lowered;
  SimRunReport report;
};

ObservedRun MakeObservedRun() {
  Topology topo(presets::A100(2, 4));
  const Algorithm algo = algorithms::HierarchicalMeshAllReduce(topo);
  CompiledCollective compiled =
      Compile(algo, topo, DefaultCompileOptions(BackendKind::kResCCL)).value();
  const CostModel cost;
  LaunchConfig launch;
  launch.buffer = Size::MiB(4);
  LoweredProgram lowered = Lower(compiled, cost, launch);
  SimMachine machine(topo, cost);
  machine.set_observe(true);
  SimRunReport report = machine.Run(lowered.program);
  return {std::move(topo), std::move(compiled), std::move(lowered),
          std::move(report)};
}

// Regression for the double-precision export bug: past 1 s of simulated
// time (1e6 µs), 6-significant-digit formatting collapses sub-µs placement
// (2000123.456 µs would print as 2.00012e+06). The exporter must emit
// timestamps that strtod back to the exact double.
TEST(TraceExportTest, TimestampsSurviveBeyondOneSecond) {
  ObservedRun run = MakeObservedRun();
  SimRunReport shifted = run.report;
  const SimTime offset = SimTime::Us(2e6);
  for (TransferStats& t : shifted.transfers) {
    t.start += offset;
    t.complete += offset;
  }
  shifted.makespan += offset;

  const std::string json =
      ExportChromeTrace(run.compiled, run.lowered, shifted);
  EXPECT_TRUE(JsonChecker(json).Valid());

  // Every ts in the document, parsed back, must equal one of the shifted
  // event times exactly — any precision loss breaks the equality.
  std::vector<double> emitted;
  for (std::size_t pos = json.find("\"ts\":"); pos != std::string::npos;
       pos = json.find("\"ts\":", pos + 1)) {
    emitted.push_back(std::strtod(json.c_str() + pos + 5, nullptr));
  }
  ASSERT_FALSE(emitted.empty());
  for (const TransferStats& t : shifted.transfers) {
    EXPECT_NE(std::find(emitted.begin(), emitted.end(), t.start.us()),
              emitted.end())
        << "exact start time " << t.start.us() << " missing from trace";
  }
}

// Regression for dropped zero-duration transfers: they must surface as
// instant events so the trace keeps count parity with report.transfers.
TEST(TraceExportTest, ZeroDurationTransfersBecomeInstants) {
  ObservedRun run = MakeObservedRun();
  SimRunReport zeroed = run.report;
  ASSERT_GE(zeroed.transfers.size(), 2u);
  zeroed.transfers[0].complete = zeroed.transfers[0].start;
  zeroed.transfers[1].complete = zeroed.transfers[1].start;

  const std::string json = ExportChromeTrace(run.compiled, run.lowered, zeroed);
  EXPECT_TRUE(JsonChecker(json).Valid());
  const std::size_t slices = CountOccurrences(json, "\"ph\":\"X\"");
  const std::size_t instants = CountOccurrences(json, "\"ph\":\"i\"");
  EXPECT_EQ(instants, 4u);  // two transfers x sender + receiver rows
  EXPECT_EQ(slices + instants, 2 * zeroed.transfers.size());
}

TEST(TraceExportTest, EnrichedTraceHasCountersAndFlows) {
  ObservedRun run = MakeObservedRun();
  ASSERT_FALSE(run.report.link_rates.empty());

  TraceOptions options;
  options.topo = &run.topo;
  options.flow_arrows = true;
  const std::string json =
      ExportChromeTrace(run.compiled, run.lowered, run.report, options);
  EXPECT_TRUE(JsonChecker(json).Valid());

  EXPECT_GT(CountOccurrences(json, "\"ph\":\"C\""), 0u);
  EXPECT_NE(json.find("\"name\":\"network\""), std::string::npos);
  const std::size_t starts = CountOccurrences(json, "\"ph\":\"s\"");
  const std::size_t finishes = CountOccurrences(json, "\"ph\":\"f\"");
  EXPECT_GT(starts, 0u);
  EXPECT_EQ(starts, finishes);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);

  // Without options the enrichment stays off.
  const std::string plain =
      ExportChromeTrace(run.compiled, run.lowered, run.report);
  EXPECT_EQ(CountOccurrences(plain, "\"ph\":\"C\""), 0u);
  EXPECT_EQ(CountOccurrences(plain, "\"ph\":\"s\""), 0u);
}

TEST(TimelineTest, RequiresObservedRun) {
  const Topology topo(presets::A100(2, 4));
  const Algorithm algo = algorithms::HierarchicalMeshAllReduce(topo);
  const PreparedPlan prepared =
      Prepare(algo, topo, BackendKind::kResCCL).value();
  RunRequest request;
  request.launch.buffer = Size::MiB(4);

  // observe defaults to false: no rate log, no timelines, no lowered.
  const CollectiveReport plain = Execute(*prepared, request);
  EXPECT_TRUE(plain.sim.link_rates.empty());
  EXPECT_EQ(plain.lowered, nullptr);
  EXPECT_TRUE(obs::BuildLinkTimelines(topo, plain.sim).empty());

  request.observe = true;
  const CollectiveReport observed = Execute(*prepared, request);
  EXPECT_FALSE(observed.sim.link_rates.empty());
  ASSERT_NE(observed.lowered, nullptr);
  const std::vector<obs::LinkTimeline> timelines =
      obs::BuildLinkTimelines(topo, observed.sim);
  EXPECT_FALSE(timelines.empty());
  // CSV has one row per sample plus the header.
  std::size_t samples = 0;
  for (const obs::LinkTimeline& tl : timelines) samples += tl.samples.size();
  const std::string csv = obs::TimelinesToCsv(timelines);
  EXPECT_EQ(CountOccurrences(csv, "\n"), samples + 1);
  EXPECT_EQ(csv.rfind("resource,name,t_us,rate_bytes_per_us\n", 0), 0u);
}

}  // namespace
}  // namespace resccl
