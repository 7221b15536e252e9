// Prints the simulated makespan of every AlgorithmCases() algorithm ×
// TopoCases() topology × backend × {1, 64} MiB × {Simple, LL, LL128}
// cell, one line each, in hex floating point (%a), so the last bit of
// every number shows. The `makespan_golden` ctest diffs this output
// against tests/golden/makespans.txt: any drift in a simulated number,
// down to one ulp, fails it.
//
//   makespan_golden > makespans.txt
#include <cstdio>
#include <memory>
#include <string>

#include "algo_cases.h"
#include "runtime/exec_context.h"

int main() {
  using namespace resccl;
  for (const tests::TopoCase& tc : tests::TopoCases()) {
    const auto topo = std::make_shared<const Topology>(tc.make());
    for (const tests::AlgoCase& ac : tests::AlgorithmCases()) {
      const Algorithm algo = ac.make(*topo);
      const std::string name(ac.name);
      for (const BackendKind kind :
           {BackendKind::kResCCL, BackendKind::kMscclLike,
            BackendKind::kNcclLike}) {
        const Result<PreparedPlan> prepared =
            Prepare(algo, topo, DefaultCompileOptions(kind), BackendName(kind));
        if (!prepared.ok()) {
          std::printf("%s %s %s prepare-error %s\n", tc.label.c_str(),
                      name.c_str(), BackendName(kind),
                      prepared.status().ToString().c_str());
          continue;
        }
        ExecContext ctx;
        for (const int mib : {1, 64}) {
          for (const Protocol protocol :
               {Protocol::kSimple, Protocol::kLL, Protocol::kLL128}) {
            RunRequest request;
            request.launch.buffer = Size::MiB(mib);
            request.launch.protocol = protocol;
            const CollectiveReport& report =
                ctx.Execute(prepared.value(), request);
            std::printf("%s %s %s %dMiB %s %a\n", tc.label.c_str(),
                        name.c_str(), BackendName(kind), mib,
                        ProtocolName(protocol), report.elapsed.us());
          }
        }
      }
    }
  }
  return 0;
}
