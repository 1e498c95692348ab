#pragma once
// The benchmark's workloads. Each builds its inputs from RunOptions::seed,
// measures, checks its outputs and fills a Result; see README.md for what
// each metric means on each workload.

#include "report.hpp"

namespace perfbench {

/// ldc_sgm / annular_sgms: time-to-accuracy training of a full-scale
/// scenario with the SGM sampler (Tables 1-2 of the paper).
Result run_training_workload(const RunOptions& opt);

/// serve_http: POST /v1/query over loopback to the epoll reactor.
Result run_serve_workload(const RunOptions& opt);

/// Runs a short serve_http session with its layer probes and adds the
/// serving per-layer metrics, its figures (as info lines), its checks and
/// its request counts to `r`. Leaves the process pinned to one CPU.
void add_serving_layers(Result& r, std::uint64_t seed);

}  // namespace perfbench
