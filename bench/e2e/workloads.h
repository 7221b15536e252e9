// The five workloads (bench/e2e/README.md says why each exists). Each one
// sets up kSetups times (once under --trace), runs its timed region, checks
// its outputs, and under --trace runs the layer passes of layers.h.
#pragma once

#include "common.h"
#include "recorder.h"

namespace e2e {

void RunReplay(const Options& opts, Recorder& rec, RunResult& result);
void RunFaulted(const Options& opts, Recorder& rec, RunResult& result);
void RunScale(const Options& opts, Recorder& rec, RunResult& result);
void RunPrepare(const Options& opts, Recorder& rec, RunResult& result);
void RunServe(const Options& opts, Recorder& rec, RunResult& result);

}  // namespace e2e
