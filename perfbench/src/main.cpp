// perfbench — the repository benchmark program.
//
//   perfbench --workload <ldc_sgm|annular_sgms|serve_http> --seed <n>
//             --seconds <s> --trace <0|1> [--commit <id>]
//
// Prints a host/build stamp, the metrics by name with their units, the
// check outcome, and as its last line one JSON object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// holding every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). Every workload reports the same names; a per-layer metric
// of a layer the workload does not exercise reads 0. See README.md.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "report.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json.
const MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"time_to_target_s", "s"},
    {"latency_p50_ms", "ms"},
    {"peak_rss_mb", "MiB"},
};

const MetricSpec kPerLayer[] = {
    {"cfd.reference_solve_s", "s"},
    {"core.sampler_init_s", "s"},
    {"core.build_pgm_s", "s"},
    {"graph.er_embedding_s", "s"},
    {"graph.lrd_s", "s"},
    {"spade.isr_s", "s"},
    {"core.score_clusters_s", "s"},
    {"core.build_epoch_s", "s"},
    {"samplers.refresh_s", "s"},
    {"samplers.refresh_calls", "count"},
    {"samplers.rebuilds", "count"},
    {"samplers.next_batch_s", "s"},
    {"samplers.loss_eval_rows_per_iter", "rows"},
    {"pinn.batch_loss_s", "s"},
    {"pinn.residual_eval_s", "s"},
    {"pinn.validate_s", "s"},
    {"pinn.min_error", "ratio"},
    {"tensor.backward_s", "s"},
    {"nn.collect_grads_s", "s"},
    {"nn.adam_step_s", "s"},
    {"nn.forward_batched_us", "us"},
    {"nn.forward_batched_1row_us", "us"},
    {"serve.parse_head_ns", "ns"},
    {"serve.json_parse_ns", "ns"},
    {"serve.render_body_ns", "ns"},
    {"serve.batcher_query_us", "us"},
    {"serve.mean_batch", "rows"},
    {"serve.full_flush_fraction", "ratio"},
    {"serve.registry_acquire_us", "us"},
    {"serve.registry_publish_ms", "ms"},
    {"serve.rejected", "count"},
    {"serve.gen_late_ms", "ms"},
    {"trace.overhead_s", "s"},
    {"trace.stage_coverage", "ratio"},
};

/// Reorders `got` into the table's order and units. Metrics the workload
/// did not produce read 0 when `fill_zero` (per-layer) and fail the run
/// otherwise (end-to-end); a produced metric missing from the table or
/// with another unit fails it too.
std::vector<Metric> normalize(const std::vector<Metric>& got,
                              const MetricSpec* table, std::size_t n,
                              bool fill_zero, Result& r) {
  std::vector<Metric> out;
  std::set<std::string> known;
  for (std::size_t i = 0; i < n; ++i) {
    known.insert(table[i].name);
    const Metric* found = nullptr;
    for (const auto& m : got)
      if (m.name == table[i].name) found = &m;
    if (found && found->unit != table[i].unit)
      r.fail(std::string("metric ") + table[i].name + " has unit " +
             found->unit);
    if (!found && !fill_zero)
      r.fail(std::string("workload did not report ") + table[i].name);
    out.push_back({table[i].name, found ? found->value : 0.0, table[i].unit});
  }
  for (const auto& m : got)
    if (!known.count(m.name)) r.fail("unlisted metric " + m.name);
  return out;
}

std::string isa_flags() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("flags", 0) != 0) continue;
    std::string out;
    for (const char* f : {"sse4_2", "avx", "avx2", "fma", "avx512f"}) {
      if ((line + " ").find(std::string(" ") + f + " ") == std::string::npos)
        continue;
      if (!out.empty()) out += ',';
      out += f;
    }
    return out.empty() ? "baseline" : out;
  }
  return "unknown";
}

void print_stamp(const RunOptions& o, const std::string& commit) {
  std::printf("stamp: workload=%s seed=%llu seconds=%g trace=%d cores=%u "
              "isa=%s compiler=\"%s\" build_type=%s commit=%s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0,
              std::thread::hardware_concurrency(), isa_flags().c_str(),
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, commit.c_str());
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <ldc_sgm|annular_sgms|"
               "serve_http> --seed <n> --seconds <s> --trace <0|1> "
               "[--commit <id>]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions o;
  std::string commit = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") o.seconds = std::atof(v.c_str());
    else if (k == "--trace") o.trace = v == "1";
    else if (k == "--commit") commit = v;
    else return usage();
  }
  if (argc % 2 == 0 || !(o.seconds > 0.0)) return usage();
  if (o.workload != "ldc_sgm" && o.workload != "annular_sgms" &&
      o.workload != "serve_http")
    return usage();

  print_stamp(o, commit);
  Result r;
  try {
    r = o.workload == "serve_http" ? run_serve_workload(o)
                                   : run_training_workload(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  r.end_to_end.push_back({"peak_rss_mb", peak_rss_mb(), "MiB"});
  r.end_to_end = normalize(r.end_to_end, kEndToEnd,
                           std::size(kEndToEnd), false, r);
  r.per_layer = normalize(r.per_layer, kPerLayer, std::size(kPerLayer),
                          true, r);
  print_result(r, o.trace);
  return 0;
}
