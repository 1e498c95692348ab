// One full training step of the PINN engine — tape record, forward with
// input-derivative propagation, backward, Adam update — swept over
// (batch, width, depth, n_deriv, threads), plus the Fourier-encoded 3-output
// net of the gated workloads. This is the denominator of every
// wall-clock result in the paper's tables, benchmarked in isolation from the
// samplers so kernel/tape changes show up undiluted.
//
// The loss mirrors a second-order PDE residual: mean((u_x0x0 + u_x1x1)^2)
// at n_deriv=2 (the lid-driven-cavity configuration: the Laplacian stream
// over both dimensions, n_lap=2), mean(u_x0^2) at n_deriv=1 and mean(u^2)
// at n_deriv=0 (n_lap=0 for both).
//
// scripts/check.sh --bench runs every row 5 times and keeps the aggregates
// (--benchmark_repetitions=5 --benchmark_report_aggregates_only=true):
// compare medians, since one sweep on a shared host can move a row by a
// third.
//
// SGM_BENCH_JSON=1 routes google-benchmark's JSON reporter to
// BENCH_train_step.json (the perf-trajectory artifact uploaded by the
// perf-smoke CI job).

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "nn/encoding.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "tensor/ops.hpp"
#include "tensor/tape.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

using namespace sgm;

namespace {

tensor::Matrix random_batch(std::size_t rows, std::size_t cols,
                            util::Rng& rng) {
  tensor::Matrix x(rows, cols);
  for (std::size_t i = 0; i < x.size(); ++i)
    x.data()[i] = rng.uniform(-1.0, 1.0);
  return x;
}

void run_train_step(benchmark::State& state, const nn::MlpConfig& cfg,
                    std::size_t batch, int n_deriv, std::size_t threads) {
  util::Rng rng(42);
  nn::Mlp net(cfg, rng);
  const tensor::Matrix x = random_batch(batch, cfg.input_dim, rng);
  nn::Adam adam(1e-3);
  const std::vector<tensor::Matrix*> params = net.parameters();

  // The steady-state step exactly as Trainer::run performs it: one hoisted
  // tape cleared per step (pooled buffers, zero allocations), reused
  // binding/outputs/grads, threaded kernels.
  const int n_lap = n_deriv >= 2 ? 2 : 0;
  tensor::Tape tape;
  tape.set_num_threads(threads);
  nn::Mlp::Binding binding;
  nn::Mlp::TapeOutputs out;
  std::vector<tensor::Matrix> grads;

  for (auto _ : state) {
    tape.clear();
    net.bind(tape, &binding);
    net.forward_on_tape(tape, binding, x, n_deriv, n_lap, &out);
    tensor::VarId residual = out.y;
    if (n_deriv == 1) residual = out.dy[0];
    if (n_lap > 0) residual = out.lap;
    const tensor::VarId loss =
        tensor::mean_all(tape, tensor::square(tape, residual));
    tape.backward(loss);
    net.collect_grads_into(tape, binding, &grads);
    adam.step(params, grads);
    benchmark::DoNotOptimize(tape.value(loss)(0, 0));
  }
  state.counters["params"] =
      benchmark::Counter(static_cast<double>(net.num_parameters()));
}

void BM_TrainStep(benchmark::State& state) {
  nn::MlpConfig cfg;
  cfg.input_dim = 2;
  cfg.output_dim = 1;
  cfg.width = static_cast<std::size_t>(state.range(1));
  cfg.depth = static_cast<std::size_t>(state.range(2));
  run_train_step(state, cfg, static_cast<std::size_t>(state.range(0)),
                 static_cast<int>(state.range(3)),
                 static_cast<std::size_t>(state.range(4)));
}

// The net of the gated full-scale LDC and annular workloads: Fourier
// features 2 -> 26 (12 frequencies), width 48, depth 4, 3 outputs. Its first
// layer (26 rows of dW) and its 3-wide output layer run in the GEMM edge
// paths, which the square configurations above never reach.
void BM_TrainStepFourier3Out(benchmark::State& state) {
  util::Rng enc_rng(4242);
  nn::MlpConfig cfg;
  cfg.input_dim = 2;
  cfg.output_dim = 3;
  cfg.width = 48;
  cfg.depth = 4;
  cfg.encoding = std::make_shared<nn::FourierEncoding>(2, 12, 1.5, enc_rng);
  run_train_step(state, cfg, static_cast<std::size_t>(state.range(0)),
                 static_cast<int>(state.range(1)),
                 static_cast<std::size_t>(state.range(2)));
}

// args: {batch, width, depth, n_deriv, threads}
BENCHMARK(BM_TrainStep)
    ->Args({512, 64, 4, 2, 1})    // lid-driven-cavity smoke configuration
    ->Args({512, 64, 4, 2, 4})
    ->Args({512, 64, 4, 0, 1})
    ->Args({512, 64, 4, 1, 1})
    ->Args({128, 64, 4, 2, 1})
    ->Args({2048, 64, 4, 2, 1})
    ->Args({2048, 64, 4, 2, 4})
    ->Args({512, 128, 4, 2, 1})
    ->Args({512, 64, 8, 2, 1})
    ->Unit(benchmark::kMillisecond);

// args: {batch, n_deriv, threads}
BENCHMARK(BM_TrainStepFourier3Out)
    ->Args({128, 2, 1})  // ldc_sgm / annular_sgms step shape
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main mirroring bench_overhead_sampling: SGM_BENCH_JSON=1 writes the
// machine-readable run to BENCH_train_step.json next to the binary.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_train_step.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (const char* env = std::getenv("SGM_BENCH_JSON");
      env && std::string(env) != "0") {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int argc2 = static_cast<int>(args.size());
  benchmark::Initialize(&argc2, args.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
