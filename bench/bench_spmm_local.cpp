// Regenerates the Section VI-a local-SpMM observations (google-benchmark):
//
//   1. SpMM throughput degrades as the matrix gets sparser — Yang et al.
//      report a ~3x GFlops drop from average degree 62 to 8 for cuSPARSE
//      csrmm2; the same trend holds for any SpMM kernel, including this
//      CPU one.
//   2. Throughput degrades as the dense operand gets skinnier — the 2D
//      partition makes the middle layer's dense operand f/sqrt(P) wide
//      (16 columns at P=1 down to 2 at P=64 in the paper).
//   3. Hypersparsity: 2D-partitioning on a g x g grid divides the block's
//      average degree by ~g, compounding effect (1) — "a multiplicative
//      detrimental impact" (Section VI-a).
#include <benchmark/benchmark.h>

#include <vector>

#include "src/dense/matrix.hpp"
#include "src/sparse/csr.hpp"
#include "src/sparse/generate.hpp"
#include "src/sparse/spmm_kernel.hpp"
#include "src/sparse/stats.hpp"
#include "src/util/cli.hpp"
#include "src/util/rng.hpp"
#include "src/util/timer.hpp"

namespace cagnet {
namespace {

Csr make_er(Index n, double degree, std::uint64_t seed) {
  Rng rng(seed);
  return Csr::from_coo(erdos_renyi(n, degree, rng));
}

// (1) GFlop/s vs average degree, fixed dense width 64.
void BM_SpmmVsDegree(benchmark::State& state) {
  const Index n = 16384;
  const double degree = static_cast<double>(state.range(0));
  const Index f = 64;
  const Csr a = make_er(n, degree, 11);
  Matrix x(n, f);
  Rng rng(12);
  x.fill_uniform(rng, -1, 1);
  Matrix y(n, f);
  for (auto _ : state) {
    a.spmm(x, y, /*accumulate=*/false);
    benchmark::DoNotOptimize(y.data());
  }
  const double flops = 2.0 * static_cast<double>(a.nnz()) *
                       static_cast<double>(f);
  state.counters["GFlop/s"] = benchmark::Counter(
      flops * static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
  state.counters["avg_degree"] =
      static_cast<double>(a.nnz()) / static_cast<double>(n);
}
BENCHMARK(BM_SpmmVsDegree)->Arg(8)->Arg(16)->Arg(32)->Arg(62)->Arg(128);

// (2) GFlop/s vs dense width, fixed amazon-like degree 24. f = 128, 16 and
// 8 are the GCN's input, hidden and output widths.
void BM_SpmmVsWidth(benchmark::State& state) {
  const Index n = 16384;
  const Index f = state.range(0);
  const Csr a = make_er(n, 24, 13);
  Matrix x(n, f);
  Rng rng(14);
  x.fill_uniform(rng, -1, 1);
  Matrix y(n, f);
  for (auto _ : state) {
    a.spmm(x, y, /*accumulate=*/false);
    benchmark::DoNotOptimize(y.data());
  }
  const double flops = 2.0 * static_cast<double>(a.nnz()) *
                       static_cast<double>(f);
  state.counters["GFlop/s"] = benchmark::Counter(
      flops * static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SpmmVsWidth)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(64)->Arg(128)
    ->Arg(300);

// (3) Hypersparse 2D blocks: one diagonal block of a g x g partition.
// Reported avg_degree falls as ~d/g while per-block GFlop/s sinks.
void BM_SpmmHypersparseBlock(benchmark::State& state) {
  const Index n = 16384;
  const int g = static_cast<int>(state.range(0));
  const Csr a = make_er(n, 24, 15);
  const Csr block = a.block(0, n / g, 0, n / g);
  const Index f = 16;
  Matrix x(block.cols(), f);
  Rng rng(16);
  x.fill_uniform(rng, -1, 1);
  Matrix y(block.rows(), f);
  for (auto _ : state) {
    block.spmm(x, y, /*accumulate=*/false);
    benchmark::DoNotOptimize(y.data());
  }
  const double flops = 2.0 * static_cast<double>(block.nnz()) *
                       static_cast<double>(f);
  state.counters["GFlop/s"] = benchmark::Counter(
      flops * static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
  state.counters["block_avg_degree"] =
      static_cast<double>(block.nnz()) / static_cast<double>(block.rows());
}
BENCHMARK(BM_SpmmHypersparseBlock)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// fp32 vs fp64 of the raw kernel (the paper's GPUs run fp32).
template <typename T>
void BM_SpmmKernelPrecision(benchmark::State& state) {
  const Index n = 8192;
  const Index f = 64;
  const Csr a = make_er(n, 32, 17);
  std::vector<Index> row_ptr(a.row_ptr().begin(), a.row_ptr().end());
  std::vector<Index> col_idx(a.col_idx().begin(), a.col_idx().end());
  std::vector<T> vals(a.values().begin(), a.values().end());
  std::vector<T> x(static_cast<std::size_t>(n * f), T{1});
  std::vector<T> y(static_cast<std::size_t>(n * f), T{0});
  for (auto _ : state) {
    spmm_csr_kernel<T>(n, row_ptr.data(), col_idx.data(), vals.data(),
                       x.data(), f, y.data(), /*accumulate=*/false);
    benchmark::DoNotOptimize(y.data());
  }
  const double flops = 2.0 * static_cast<double>(a.nnz()) *
                       static_cast<double>(f);
  state.counters["GFlop/s"] = benchmark::Counter(
      flops * static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SpmmKernelPrecision<float>);
BENCHMARK(BM_SpmmKernelPrecision<double>);

// (4) Thread scaling of the row-block-parallel kernel. The paper's kernel
// runs on a saturated GPU; here the CPU kernel splits contiguous,
// nnz-balanced row blocks into chunks run on the persistent process-wide
// pool (CAGNET_THREADS caps the automatic choice; the benchmark passes
// explicit counts). The "speedup" counter is serial seconds /
// per-iteration seconds.
double serial_spmm_seconds(const Csr& a, const Matrix& x, Matrix& y) {
  // One warm-up plus three timed runs of the single-threaded kernel.
  static double cached = -1;
  if (cached >= 0) return cached;
  const auto run = [&] {
    spmm_csr_kernel<Real>(a.rows(), a.row_ptr().data(), a.col_idx().data(),
                          a.values().data(), x.data(), x.cols(), y.data(),
                          /*accumulate=*/false, /*num_threads=*/1);
  };
  run();
  WallTimer timer;
  for (int i = 0; i < 3; ++i) run();
  cached = timer.seconds() / 3;
  return cached;
}

void BM_SpmmThreadScaling(benchmark::State& state) {
  const Index n = 16384;
  const Index f = 64;
  const int threads = static_cast<int>(state.range(0));
  const Csr a = make_er(n, 24, 18);
  Matrix x(n, f);
  Rng rng(19);
  x.fill_uniform(rng, -1, 1);
  Matrix y(n, f);
  const double serial_seconds = serial_spmm_seconds(a, x, y);
  for (auto _ : state) {
    spmm_csr_kernel<Real>(a.rows(), a.row_ptr().data(), a.col_idx().data(),
                          a.values().data(), x.data(), f, y.data(),
                          /*accumulate=*/false, threads);
    benchmark::DoNotOptimize(y.data());
  }
  const double flops = 2.0 * static_cast<double>(a.nnz()) *
                       static_cast<double>(f);
  state.counters["GFlop/s"] = benchmark::Counter(
      flops * static_cast<double>(state.iterations()) * 1e-9,
      benchmark::Counter::kIsRate);
  // kIsRate divides by total elapsed: serial_secs * iters / elapsed
  // = serial seconds per iteration seconds = the parallel speedup.
  state.counters["speedup_vs_1t"] = benchmark::Counter(
      serial_seconds * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  state.counters["threads"] = static_cast<double>(threads);
}
BENCHMARK(BM_SpmmThreadScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
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
