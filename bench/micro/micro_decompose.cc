// Microbenchmark: multilevel decomposition / recomposition throughput.

#include <benchmark/benchmark.h>

#include "decompose/decomposer.h"
#include "decompose/interleaver.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace {

using namespace mgardp;

Array3Dd RandomField(Dims3 dims) {
  Rng rng(1);
  Array3Dd a(dims);
  for (double& v : a.vector()) {
    v = rng.NextGaussian();
  }
  return a;
}

void BM_Decompose3D(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Dims3 dims{n, n, n};
  auto h = GridHierarchy::Create(dims);
  h.status().Abort("hierarchy");
  Decomposer dec(h.value());
  Array3Dd data = RandomField(dims);
  for (auto _ : state) {
    Array3Dd copy = data;
    benchmark::DoNotOptimize(dec.Decompose(&copy));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(dims.size()));
}
BENCHMARK(BM_Decompose3D)->Arg(17)->Arg(33)->Arg(65)->Arg(129);

void BM_Recompose3D(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Dims3 dims{n, n, n};
  auto h = GridHierarchy::Create(dims);
  h.status().Abort("hierarchy");
  Decomposer dec(h.value());
  Array3Dd data = RandomField(dims);
  dec.Decompose(&data).Abort("decompose");
  for (auto _ : state) {
    Array3Dd copy = data;
    benchmark::DoNotOptimize(dec.Recompose(&copy));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(dims.size()));
}
BENCHMARK(BM_Recompose3D)->Arg(17)->Arg(33)->Arg(65)->Arg(129);

void BM_DecomposeNoCorrection(benchmark::State& state) {
  const Dims3 dims{33, 33, 33};
  auto h = GridHierarchy::Create(dims);
  h.status().Abort("hierarchy");
  DecomposeOptions opts;
  opts.use_correction = false;
  Decomposer dec(h.value(), opts);
  Array3Dd data = RandomField(dims);
  for (auto _ : state) {
    Array3Dd copy = data;
    benchmark::DoNotOptimize(dec.Decompose(&copy));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(dims.size()));
}
BENCHMARK(BM_DecomposeNoCorrection);

// Level gather / scatter of an n^3 grid with the default hierarchy: the
// refactor side's Extract and the retrieve side's Deposit.
Interleaver MakeInterleaver(std::size_t n) {
  auto h = GridHierarchy::Create(Dims3{n, n, n});
  h.status().Abort("hierarchy");
  return Interleaver(h.value());
}

void BM_InterleaverExtract(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Interleaver il = MakeInterleaver(n);
  const Array3Dd data = RandomField(il.hierarchy().dims());
  for (auto _ : state) {
    auto levels = il.Extract(data);
    benchmark::DoNotOptimize(levels);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_InterleaverExtract)->Arg(65)->Arg(129);

void BM_InterleaverDeposit(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const Interleaver il = MakeInterleaver(n);
  const auto levels = il.Extract(RandomField(il.hierarchy().dims()));
  Array3Dd out(il.hierarchy().dims());
  for (auto _ : state) {
    benchmark::DoNotOptimize(il.Deposit(levels, &out));
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(out.size()));
}
BENCHMARK(BM_InterleaverDeposit)->Arg(65)->Arg(129);

// Thread-count sweep over the 65^3 decomposition (line solves fan out
// across the pool per axis).
void BM_Decompose3DThreads(benchmark::State& state) {
  const int ambient = GlobalThreadCount();
  SetGlobalThreadCount(static_cast<int>(state.range(0)));
  const Dims3 dims{65, 65, 65};
  auto h = GridHierarchy::Create(dims);
  h.status().Abort("hierarchy");
  Decomposer dec(h.value());
  Array3Dd data = RandomField(dims);
  for (auto _ : state) {
    Array3Dd copy = data;
    benchmark::DoNotOptimize(dec.Decompose(&copy));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(dims.size()));
  SetGlobalThreadCount(ambient);
}
BENCHMARK(BM_Decompose3DThreads)->Arg(1)->Arg(4)->Arg(8)
    ->UseRealTime();

}  // namespace
