// One round of a workload (see round.cpp).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct RoundResult {
  double setup_s = 0.0;
  double timed_s = 0.0;          // wall time of the timed phase
  double cpu_s = 0.0;            // process CPU time of the timed phase
  std::uint64_t steal_ticks = 0; // host steal ticks over the timed phase
  std::vector<double> observe_us, predict_us;  // per-batch latencies
  std::size_t retrains = 0, audits = 0;
  std::map<std::string, double> m;      // end-to-end metrics
  std::map<std::string, double> layer;  // per-layer metrics
  std::vector<std::string> errors;      // failed checks or operations
};

// Runs one round in `dir` (emptied first).  With `probes`, the layer probes
// run on the final engine and fill RoundResult::layer.
[[nodiscard]] RoundResult run_round(const Params& p, const Plan& plan,
                                    const fs::path& dir, Tracer& tracer,
                                    OpCounts& ops, bool probes);

}  // namespace perfbench
