// Microbenchmark: bit-plane encode/decode throughput and error-matrix
// collection cost.

#include <benchmark/benchmark.h>

#include "encode/bitplane.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace {

using namespace mgardp;

std::vector<double> RandomCoefs(std::size_t n) {
  Rng rng(2);
  std::vector<double> v(n);
  for (double& x : v) {
    x = rng.NextGaussian();
  }
  return v;
}

void BM_BitplaneEncode(benchmark::State& state) {
  const auto coefs = RandomCoefs(static_cast<std::size_t>(state.range(0)));
  BitplaneEncoder enc(32);
  for (auto _ : state) {
    auto set = enc.Encode(coefs, nullptr);
    benchmark::DoNotOptimize(set);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(coefs.size()));
}
BENCHMARK(BM_BitplaneEncode)->Arg(4096)->Arg(32768)->Arg(262144);

void BM_BitplaneEncodeWithErrorMatrix(benchmark::State& state) {
  const auto coefs = RandomCoefs(static_cast<std::size_t>(state.range(0)));
  BitplaneEncoder enc(32);
  for (auto _ : state) {
    LevelErrorStats stats;
    auto set = enc.Encode(coefs, &stats);
    benchmark::DoNotOptimize(set);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(coefs.size()));
}
BENCHMARK(BM_BitplaneEncodeWithErrorMatrix)->Arg(4096)->Arg(32768);

// The 64x64 SWAR bit-matrix transpose at the heart of the word-parallel
// kernels, on a batch of blocks sized like one plane-set pass.
void BM_BitplaneTranspose(benchmark::State& state) {
  const std::size_t blocks = static_cast<std::size_t>(state.range(0)) / 64;
  Rng rng(7);
  std::vector<std::uint64_t> words(blocks * 64);
  for (auto& w : words) {
    w = rng.NextUint64();
  }
  for (auto _ : state) {
    for (std::size_t b = 0; b < blocks; ++b) {
      internal::Transpose64x64(words.data() + b * 64);
    }
    benchmark::DoNotOptimize(words.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(blocks * 64));
}
BENCHMARK(BM_BitplaneTranspose)->Arg(4096)->Arg(262144);

// Args: (coefficient count, prefix planes). 1,872,064 is the finest level
// of a 129^3 grid.
void BM_BitplaneDecode(benchmark::State& state) {
  const auto coefs = RandomCoefs(static_cast<std::size_t>(state.range(0)));
  BitplaneEncoder enc(32);
  auto set = enc.Encode(coefs, nullptr);
  set.status().Abort("encode");
  const int planes = static_cast<int>(state.range(1));
  for (auto _ : state) {
    auto decoded = enc.Decode(set.value(), planes);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(coefs.size()));
}
BENCHMARK(BM_BitplaneDecode)
    ->Args({32768, 4})
    ->Args({32768, 16})
    ->Args({32768, 32})
    ->Args({1872064, 8})
    ->Args({1872064, 32});

// Thread-count sweep on the stats-collecting encode (the heaviest variant:
// quantization + plane slicing + the O(planes x n) error matrix).
void BM_BitplaneEncodeThreads(benchmark::State& state) {
  const int ambient = GlobalThreadCount();
  SetGlobalThreadCount(static_cast<int>(state.range(0)));
  const auto coefs = RandomCoefs(262144);
  BitplaneEncoder enc(32);
  for (auto _ : state) {
    LevelErrorStats stats;
    auto set = enc.Encode(coefs, &stats);
    benchmark::DoNotOptimize(set);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(coefs.size()));
  SetGlobalThreadCount(ambient);
}
BENCHMARK(BM_BitplaneEncodeThreads)->Arg(1)->Arg(4)->Arg(8)
    ->UseRealTime();

void BM_BitplaneDecodeThreads(benchmark::State& state) {
  const int ambient = GlobalThreadCount();
  SetGlobalThreadCount(static_cast<int>(state.range(0)));
  const auto coefs = RandomCoefs(262144);
  BitplaneEncoder enc(32);
  auto set = enc.Encode(coefs, nullptr);
  set.status().Abort("encode");
  for (auto _ : state) {
    auto decoded = enc.Decode(set.value(), 32);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(coefs.size()));
  SetGlobalThreadCount(ambient);
}
BENCHMARK(BM_BitplaneDecodeThreads)->Arg(1)->Arg(4)->Arg(8)
    ->UseRealTime();

}  // namespace
