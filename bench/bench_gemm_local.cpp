// Local GEMM scaling (google-benchmark), the dense sibling of
// bench_spmm_local: the paper reports local GEMM under "misc", and the 2D/
// 3D partitions make the dense operands skinny (f/sqrt(P) or f/P^(1/3)
// columns), so both the kernel rate and its thread scaling matter.
//
//   1. GFlop/s vs matrix shape: the Z = T W shapes (tall-skinny
//      times small-square), the weight-gradient shape (skinny^T times
//      tall) at paper-like widths, and the GCN's first layer (128 input
//      features to 16 hidden), whose weight gradient runs on a dense or a
//      post-ReLU (half-zero) operand, and the backward U W^T (B
//      transposed).
//   2. Thread scaling of the row-block-parallel kernel at fixed shape
//      (explicit counts override the automatic budget, like the SpMM
//      bench). "speedup_vs_1t" is serial seconds / per-iteration seconds.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "src/dense/gemm.hpp"
#include "src/dense/matrix.hpp"
#include "src/util/cli.hpp"
#include "src/util/parallel.hpp"
#include "src/util/rng.hpp"
#include "src/util/timer.hpp"

namespace cagnet {
namespace {

Matrix random_matrix(Index rows, Index cols, std::uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  m.fill_uniform(rng, -1, 1);
  return m;
}

// (1) The forward shape T(n x f) * W(f x f) at widths f/sqrt(P) for the
// paper's f = 16 middle layer across P = 1..64.
void BM_GemmForwardShape(benchmark::State& state) {
  const Index n = 16384;
  const Index f = state.range(0);
  const Matrix t = random_matrix(n, f, 21);
  const Matrix w = random_matrix(f, f, 22);
  Matrix z(n, f);
  for (auto _ : state) {
    gemm(Trans::kNo, Trans::kNo, Real{1}, t, w, Real{0}, z);
    benchmark::DoNotOptimize(z.data());
  }
  const double flops = 2.0 * static_cast<double>(n) *
                       static_cast<double>(f) * static_cast<double>(f);
  state.counters["GFlop/s"] = benchmark::Counter(
      flops * static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmForwardShape)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(64)
    ->Arg(300);

// (1b) The weight-gradient shape H^T(f x n) * U(n x f): the transposed-A
// rank-1-update path.
void BM_GemmGradientShape(benchmark::State& state) {
  const Index n = 16384;
  const Index f = state.range(0);
  const Matrix h = random_matrix(n, f, 23);
  const Matrix u = random_matrix(n, f, 24);
  Matrix y(f, f);
  for (auto _ : state) {
    gemm(Trans::kYes, Trans::kNo, Real{1}, h, u, Real{0}, y);
    benchmark::DoNotOptimize(y.data());
  }
  const double flops = 2.0 * static_cast<double>(n) *
                       static_cast<double>(f) * static_cast<double>(f);
  state.counters["GFlop/s"] = benchmark::Counter(
      flops * static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmGradientShape)->Arg(4)->Arg(16)->Arg(64)->Arg(300);

// (1c) Layer 1's forward product T (n x 128) * W (128 x 16), one thread.
void BM_GemmLayer1Forward(benchmark::State& state) {
  const Index n = 16384;
  const Index f = 128;
  const Index h = 16;
  const Matrix t = random_matrix(n, f, 27);
  const Matrix w = random_matrix(f, h, 28);
  Matrix z(n, h);
  override_thread_budget(1);
  for (auto _ : state) {
    gemm(Trans::kNo, Trans::kNo, Real{1}, t, w, Real{0}, z);
    benchmark::DoNotOptimize(z.data());
    benchmark::ClobberMemory();
  }
  override_thread_budget(0);
  const double flops = 2.0 * static_cast<double>(n) *
                       static_cast<double>(f) * static_cast<double>(h);
  state.counters["GFlop/s"] = benchmark::Counter(
      flops * static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmLayer1Forward);

// (1d) Layer 1's weight gradient H^T U, H (n x 128), U (n x 16), one
// thread. Arg 1 clamps H's negative entries to zero, as ReLU leaves the
// activations of the deeper layers: about half of H is exactly zero.
void BM_GemmLayer1Gradient(benchmark::State& state) {
  const Index n = 16384;
  const Index f = 128;
  const Index h = 16;
  Matrix hidden = random_matrix(n, f, 29);
  if (state.range(0) != 0) {
    for (Real& v : hidden.flat()) v = std::max(v, Real{0});
  }
  const Matrix u = random_matrix(n, h, 30);
  Matrix y(f, h);
  override_thread_budget(1);
  for (auto _ : state) {
    gemm(Trans::kYes, Trans::kNo, Real{1}, hidden, u, Real{0}, y);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  override_thread_budget(0);
  const double flops = 2.0 * static_cast<double>(n) *
                       static_cast<double>(f) * static_cast<double>(h);
  state.counters["GFlop/s"] = benchmark::Counter(
      flops * static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmLayer1Gradient)->ArgName("half_zero")->Arg(0)->Arg(1);

// (1e) The backward activation gradient U W^T, U (n x 16), W (16 x 16),
// one thread: the B-transposed call, which copies W^T into scratch and
// runs the no-transpose fold.
void BM_GemmBackwardUWt(benchmark::State& state) {
  const Index n = 16384;
  const Index h = 16;
  const Matrix u = random_matrix(n, h, 31);
  const Matrix w = random_matrix(h, h, 32);
  Matrix dh(n, h);
  override_thread_budget(1);
  for (auto _ : state) {
    gemm(Trans::kNo, Trans::kYes, Real{1}, u, w, Real{0}, dh);
    benchmark::DoNotOptimize(dh.data());
    benchmark::ClobberMemory();
  }
  override_thread_budget(0);
  const double flops = 2.0 * static_cast<double>(n) *
                       static_cast<double>(h) * static_cast<double>(h);
  state.counters["GFlop/s"] = benchmark::Counter(
      flops * static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GemmBackwardUWt);

// (2) Thread scaling at a fixed forward shape via the budget override.
double serial_gemm_seconds(const Matrix& t, const Matrix& w, Matrix& z) {
  static double cached = -1;
  if (cached >= 0) return cached;
  override_thread_budget(1);
  gemm(Trans::kNo, Trans::kNo, Real{1}, t, w, Real{0}, z);  // warm-up
  WallTimer timer;
  for (int i = 0; i < 3; ++i) {
    gemm(Trans::kNo, Trans::kNo, Real{1}, t, w, Real{0}, z);
  }
  cached = timer.seconds() / 3;
  override_thread_budget(0);
  return cached;
}

void BM_GemmThreadScaling(benchmark::State& state) {
  const Index n = 16384;
  const Index f = 64;
  const int threads = static_cast<int>(state.range(0));
  const Matrix t = random_matrix(n, f, 25);
  const Matrix w = random_matrix(f, f, 26);
  Matrix z(n, f);
  const double serial_seconds = serial_gemm_seconds(t, w, z);
  override_thread_budget(threads);
  for (auto _ : state) {
    gemm(Trans::kNo, Trans::kNo, Real{1}, t, w, Real{0}, z);
    benchmark::DoNotOptimize(z.data());
  }
  override_thread_budget(0);
  const double flops = 2.0 * static_cast<double>(n) *
                       static_cast<double>(f) * static_cast<double>(f);
  state.counters["GFlop/s"] = benchmark::Counter(
      flops * static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
  state.counters["speedup_vs_1t"] = benchmark::Counter(
      serial_seconds * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_GemmThreadScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->UseRealTime();

}  // namespace
}  // namespace cagnet

int main(int argc, char** argv) {
  return cagnet::run_main(argc, argv, [](int n, char** args) {
    benchmark::Initialize(&n, args);
    if (benchmark::ReportUnrecognizedArguments(n, args)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
  });
}
