// Collective-communication microbenchmarks (google-benchmark).
//
// Every cost expression in Section IV is built from broadcast, all-gather,
// reduce-scatter, and all-reduce; this bench validates the runtime's
// metered word counts against the textbook formulas (reported as counters)
// and exercises the collectives at several world sizes and payloads.
#include <benchmark/benchmark.h>

#include <vector>

#include "src/comm/comm.hpp"
#include "src/util/cli.hpp"

namespace cagnet {
namespace {

void BM_Broadcast(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const auto words = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    std::vector<CostMeter> meters;
    run_world(p, [&](Comm& comm) {
      std::vector<Real> data(words, static_cast<Real>(comm.rank()));
      comm.broadcast(std::span<Real>(data), 0, CommCategory::kDense);
      benchmark::DoNotOptimize(data.data());
    }, &meters);
    state.counters["words/rank"] = meters[0].words(CommCategory::kDense);
    state.counters["alpha_units/rank"] =
        meters[0].latency_units(CommCategory::kDense);
  }
}
BENCHMARK(BM_Broadcast)
    ->ArgsProduct({{2, 4, 16}, {128, 8192, 131072}})
    ->Unit(benchmark::kMicrosecond);

void BM_Allreduce(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const auto words = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    std::vector<CostMeter> meters;
    run_world(p, [&](Comm& comm) {
      std::vector<Real> data(words, 1.0);
      comm.allreduce_sum(std::span<Real>(data), CommCategory::kDense);
      benchmark::DoNotOptimize(data.data());
    }, &meters);
    state.counters["words/rank"] = meters[0].words(CommCategory::kDense);
  }
}
BENCHMARK(BM_Allreduce)
    ->ArgsProduct({{2, 4, 16}, {128, 8192, 131072}})
    ->Unit(benchmark::kMicrosecond);

void BM_ReduceScatter(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const auto words = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    std::vector<CostMeter> meters;
    run_world(p, [&](Comm& comm) {
      std::vector<Real> contrib(words, 1.0);
      std::vector<Real> out(words / static_cast<std::size_t>(p));
      // Uniform chunking: every rank keeps words/p entries.
      comm.reduce_scatter_sum(std::span<const Real>(contrib),
                              std::span<Real>(out), CommCategory::kDense);
      benchmark::DoNotOptimize(out.data());
    }, &meters);
    state.counters["words/rank"] = meters[0].words(CommCategory::kDense);
  }
}
BENCHMARK(BM_ReduceScatter)
    ->ArgsProduct({{2, 4, 16}, {1024, 16384, 131072}})
    ->Unit(benchmark::kMicrosecond);

void BM_Allgather(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const auto words = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    std::vector<CostMeter> meters;
    run_world(p, [&](Comm& comm) {
      std::vector<Real> mine(words / static_cast<std::size_t>(p),
                             static_cast<Real>(comm.rank()));
      const auto all =
          comm.allgather(std::span<const Real>(mine), CommCategory::kDense);
      benchmark::DoNotOptimize(all.data());
    }, &meters);
    state.counters["words/rank"] = meters[0].words(CommCategory::kDense);
  }
}
BENCHMARK(BM_Allgather)
    ->ArgsProduct({{2, 4, 16}, {1024, 16384, 131072}})
    ->Unit(benchmark::kMicrosecond);

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
