// Microbenchmark: full refactor (compression side) and full retrieval
// (planning + decode + recompose) end to end.

#include <benchmark/benchmark.h>

#include <cmath>

#include "progressive/reconstructor.h"
#include "progressive/refactorer.h"
#include "sim/warpx.h"
#include "util/parallel.h"

namespace {

using namespace mgardp;

Array3Dd TestData(std::size_t n) {
  WarpXSimulator sim(Dims3{n, n, n});
  return sim.Field(WarpXField::kEx, 8);
}

void BM_Refactor(benchmark::State& state) {
  const Array3Dd data = TestData(static_cast<std::size_t>(state.range(0)));
  Refactorer refactorer;
  for (auto _ : state) {
    auto field = refactorer.Refactor(data);
    benchmark::DoNotOptimize(field);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_Refactor)->Arg(17)->Arg(33);

void BM_Retrieve(benchmark::State& state) {
  const Array3Dd data = TestData(33);
  Refactorer refactorer;
  auto field = refactorer.Refactor(data);
  field.status().Abort("refactor");
  TheoryEstimator theory;
  Reconstructor rec(&theory);
  const double bound =
      std::pow(10.0, -static_cast<double>(state.range(0))) *
      field.value().data_summary.range();
  for (auto _ : state) {
    RetrievalPlan plan;
    auto out = rec.Retrieve(field.value(), bound, &plan);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_Retrieve)->Arg(2)->Arg(4)->Arg(6);

// Thread-count sweep over the full refactor + reconstruct round trip; the
// ratio of Arg(1) to Arg(8) is the pipeline's parallel speedup.
void BM_PipelineRoundTripThreads(benchmark::State& state) {
  const int ambient = GlobalThreadCount();
  SetGlobalThreadCount(static_cast<int>(state.range(0)));
  const Array3Dd data = TestData(33);
  Refactorer refactorer;
  TheoryEstimator theory;
  Reconstructor rec(&theory);
  for (auto _ : state) {
    auto field = refactorer.Refactor(data);
    field.status().Abort("refactor");
    const double bound = 1e-4 * field.value().data_summary.range();
    RetrievalPlan plan;
    auto out = rec.Retrieve(field.value(), bound, &plan);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.size()));
  SetGlobalThreadCount(ambient);
}
BENCHMARK(BM_PipelineRoundTripThreads)->Arg(1)->Arg(4)->Arg(8)
    ->UseRealTime();

void BM_RefactorThreads(benchmark::State& state) {
  const int ambient = GlobalThreadCount();
  SetGlobalThreadCount(static_cast<int>(state.range(0)));
  const Array3Dd data = TestData(33);
  Refactorer refactorer;
  for (auto _ : state) {
    auto field = refactorer.Refactor(data);
    benchmark::DoNotOptimize(field);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(data.size()));
  SetGlobalThreadCount(ambient);
}
BENCHMARK(BM_RefactorThreads)->Arg(1)->Arg(4)->Arg(8)
    ->UseRealTime();

void BM_PlanOnly(benchmark::State& state) {
  const Array3Dd data = TestData(33);
  Refactorer refactorer;
  auto field = refactorer.Refactor(data);
  field.status().Abort("refactor");
  TheoryEstimator theory;
  Reconstructor rec(&theory);
  const double bound = 1e-5 * field.value().data_summary.range();
  for (auto _ : state) {
    auto plan = rec.Plan(field.value(), bound);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_PlanOnly);

}  // namespace
