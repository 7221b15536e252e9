// Execution trace export (Chrome trace-event JSON).
//
// Converts a simulated run into the `chrome://tracing` / Perfetto JSON
// format: one row per thread block (grouped by rank), one slice per
// transfer the TB participated in, and — on faulted runs — one slice per
// injected straggler pause (phase "fault_stall").
// The result is the visual counterpart of Fig. 5(d)'s pipeline — open it in
// a trace viewer to see sub-pipelines streaming micro-batches.
//
// Formatting correctness: timestamps/durations are emitted with
// max_digits10 precision (default ostream precision collapses sub-µs
// placement past ~1 s of simulated time), zero-duration transfers become
// instant events ("ph":"i") instead of being dropped (slice + instant
// count always equals 2 × transfers), and every string field is escaped
// through obs::EscapeJson.
#pragma once

#include <string>

#include "core/compiler.h"
#include "runtime/lowering.h"
#include "sim/machine.h"
#include "topology/topology.h"

namespace resccl {

// Optional enrichment for the profile exporter.
struct TraceOptions {
  // When set and the report carries link_rates (RunRequest.observe), emits
  // one counter track ("ph":"C", in GB/s) per resource that carried data,
  // under a dedicated "network" process.
  const Topology* topo = nullptr;
  // Emits flow arrows ("ph":"s"/"f") from each transfer's send-side slice
  // to its recv-side slice, visualizing rendezvous pairs across ranks.
  bool flow_arrows = false;
};

// Renders the run as trace-event JSON. `lowered` must be the program the
// report came from, lowered from `compiled` alone: transfer i is task
// i / nmicrobatches on micro-batch i % nmicrobatches.
[[nodiscard]] std::string ExportChromeTrace(const CompiledCollective& compiled,
                                            const LoweredProgram& lowered,
                                            const SimRunReport& report,
                                            const TraceOptions& options = {});

}  // namespace resccl
