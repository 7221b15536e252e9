#include "runtime/trace.h"

#include <sstream>

#include "common/check.h"
#include "obs/json.h"
#include "obs/timeline.h"

namespace resccl {

namespace {

using obs::EscapeJson;
using obs::FormatDouble;

// Complete ("ph":"X") slice. Timestamps go through FormatDouble so sub-µs
// placement survives arbitrarily long simulations (default ostream
// precision is 6 significant digits — past 1 s of simulated time adjacent
// slices would merge or invert).
void EmitEvent(std::ostringstream& os, bool& first, const std::string& name,
               int pid, int tid, double ts_us, double dur_us,
               const std::string& args) {
  if (!first) os << ",\n";
  first = false;
  os << R"(  {"name":")" << EscapeJson(name) << R"(","ph":"X","pid":)" << pid
     << R"(,"tid":)" << tid << R"(,"ts":)" << FormatDouble(ts_us)
     << R"(,"dur":)" << FormatDouble(dur_us);
  if (!args.empty()) os << R"(,"args":{)" << args << "}";
  os << "}";
}

// Thread-scoped instant ("ph":"i") event — how zero-duration transfers
// stay visible on the timeline instead of being dropped.
void EmitInstant(std::ostringstream& os, bool& first, const std::string& name,
                 int pid, int tid, double ts_us, const std::string& args) {
  if (!first) os << ",\n";
  first = false;
  os << R"(  {"name":")" << EscapeJson(name)
     << R"(","ph":"i","s":"t","pid":)" << pid << R"(,"tid":)" << tid
     << R"(,"ts":)" << FormatDouble(ts_us);
  if (!args.empty()) os << R"(,"args":{)" << args << "}";
  os << "}";
}

// Flow arrow endpoint ("ph":"s" start / "ph":"f" finish), binding the
// send-side slice to the recv-side slice of one transfer.
void EmitFlow(std::ostringstream& os, bool& first, char ph, std::size_t id,
              int pid, int tid, double ts_us) {
  if (!first) os << ",\n";
  first = false;
  os << R"(  {"name":"rendezvous","cat":"flow","ph":")" << ph
     << R"(","id":)" << id << R"(,"pid":)" << pid << R"(,"tid":)" << tid
     << R"(,"ts":)" << FormatDouble(ts_us);
  if (ph == 'f') os << R"(,"bp":"e")";
  os << "}";
}

}  // namespace

std::string ExportChromeTrace(const CompiledCollective& compiled,
                              const LoweredProgram& lowered,
                              const SimRunReport& report,
                              const TraceOptions& options) {
  const std::size_t nmb = static_cast<std::size_t>(lowered.nmicrobatches);
  RESCCL_CHECK(report.transfers.size() == lowered.program.transfers.size());
  RESCCL_CHECK(report.transfers.size() == compiled.algo.transfers.size() * nmb);

  std::ostringstream os;
  os << "[\n";
  bool first = true;

  // Process/thread naming metadata: pid = rank, tid = TB index on the rank.
  // Compute a rank-local TB numbering for readable rows.
  std::vector<int> tb_local(lowered.program.tbs.size(), 0);
  {
    std::vector<int> next_per_rank(
        static_cast<std::size_t>(compiled.algo.nranks), 0);
    for (std::size_t i = 0; i < lowered.program.tbs.size(); ++i) {
      const Rank r = lowered.program.tbs[i].rank;
      tb_local[i] = next_per_rank[static_cast<std::size_t>(r)]++;
    }
  }
  for (Rank r = 0; r < compiled.algo.nranks; ++r) {
    if (!first) os << ",\n";
    first = false;
    os << R"(  {"name":"process_name","ph":"M","pid":)" << r
       << R"(,"args":{"name":"rank )" << r << R"("}})";
  }
  // One named row per TB, even for TBs that never carried a slice.
  for (std::size_t i = 0; i < lowered.program.tbs.size(); ++i) {
    const Rank r = lowered.program.tbs[i].rank;
    os << ",\n"
       << R"(  {"name":"thread_name","ph":"M","pid":)" << r << R"(,"tid":)"
       << tb_local[i] << R"(,"args":{"name":"tb )" << tb_local[i] << R"("}})";
  }

  // One slice per transfer on both participating TB rows; zero-duration
  // transfers become instant events so the trace stays in count parity
  // with report.transfers (2 events per transfer either way).
  for (std::size_t i = 0; i < report.transfers.size(); ++i) {
    const TransferStats& stats = report.transfers[i];
    const double dur = (stats.complete - stats.start).us();
    const std::size_t task = i / nmb;
    const std::size_t mb = i % nmb;
    const Transfer& t = compiled.algo.transfers[task];
    std::ostringstream name;
    name << TransferOpName(t.op) << " c" << t.chunk << " mb" << mb;
    std::ostringstream args;
    args << R"("task":)" << task << R"(,"mb":)" << mb << R"(,"src":)" << t.src
         << R"(,"dst":)" << t.dst << R"(,"wave":)"
         << compiled.wave_of_task[task];
    const int send_tb = compiled.tbs.send_tb[task];
    const int recv_tb = compiled.tbs.recv_tb[task];
    const int send_row = tb_local[static_cast<std::size_t>(send_tb)];
    const int recv_row = tb_local[static_cast<std::size_t>(recv_tb)];
    if (dur > 0) {
      EmitEvent(os, first, name.str(), t.src, send_row, stats.start.us(), dur,
                args.str());
      EmitEvent(os, first, name.str(), t.dst, recv_row, stats.start.us(), dur,
                args.str());
      if (options.flow_arrows && !(t.src == t.dst && send_row == recv_row)) {
        EmitFlow(os, first, 's', i, t.src, send_row, stats.start.us());
        EmitFlow(os, first, 'f', i, t.dst, recv_row, stats.complete.us());
      }
    } else {
      EmitInstant(os, first, name.str(), t.src, send_row, stats.start.us(),
                  args.str());
      EmitInstant(os, first, name.str(), t.dst, recv_row, stats.start.us(),
                  args.str());
    }
  }

  // Injected straggler pauses get their own phase so fault time is visually
  // distinct from sync (busy-wait) and transfer slices.
  for (const SimRunReport::StallSlice& s : report.stalls) {
    if (s.duration <= SimTime::Zero()) continue;
    const auto tb = static_cast<std::size_t>(s.tb);
    EmitEvent(os, first, "fault-stall", lowered.program.tbs[tb].rank,
              tb_local[tb], s.start.us(), s.duration.us(),
              R"("phase":"fault_stall")");
  }

  // Counter tracks: per-resource aggregate rate over time, under one
  // dedicated "network" process. Exact — the samples are the fluid model's
  // own piecewise-constant rate changes, not a sampling grid.
  if (options.topo != nullptr && !report.link_rates.empty()) {
    const int net_pid = compiled.algo.nranks;
    if (!first) os << ",\n";
    first = false;
    os << R"(  {"name":"process_name","ph":"M","pid":)" << net_pid
       << R"(,"args":{"name":"network"}})";
    const std::vector<obs::LinkTimeline> timelines =
        obs::BuildLinkTimelines(*options.topo, report);
    for (const obs::LinkTimeline& tl : timelines) {
      for (const obs::LinkTimeline::Sample& sample : tl.samples) {
        os << ",\n"
           << R"(  {"name":")" << EscapeJson(tl.name)
           << R"(","ph":"C","pid":)" << net_pid << R"(,"ts":)"
           << FormatDouble(sample.t.us()) << R"(,"args":{"GBps":)"
           << FormatDouble(sample.rate * 1e-3) << "}}";
      }
    }
  }

  os << "\n]\n";
  return os.str();
}

}  // namespace resccl
