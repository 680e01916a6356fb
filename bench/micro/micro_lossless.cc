// Microbenchmark: lossless codec throughput on bit-plane-like payloads.

#include <benchmark/benchmark.h>

#include "lossless/codec.h"
#include "util/rng.h"

namespace {

using namespace mgardp;

// Sparse payload resembling a high-significance bit-plane.
std::string SparsePayload(std::size_t n, double density) {
  Rng rng(3);
  std::string s(n, '\0');
  for (char& c : s) {
    if (rng.NextDouble() < density) {
      c = static_cast<char>(rng.NextBounded(256));
    }
  }
  return s;
}

void BM_CompressSparse(benchmark::State& state) {
  const std::string payload =
      SparsePayload(static_cast<std::size_t>(state.range(0)), 0.02);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lossless::CompressWith(payload, "pipeline").value());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(payload.size()));
}
BENCHMARK(BM_CompressSparse)->Arg(4096)->Arg(65536)->Arg(1048576);

void BM_CompressDense(benchmark::State& state) {
  const std::string payload =
      SparsePayload(static_cast<std::size_t>(state.range(0)), 0.9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lossless::CompressWith(payload, "pipeline").value());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(payload.size()));
}
BENCHMARK(BM_CompressDense)->Arg(65536);

void BM_Decompress(benchmark::State& state) {
  const std::string payload = SparsePayload(65536, 0.02);
  const std::string compressed =
      lossless::CompressWith(payload, "pipeline").value();
  for (auto _ : state) {
    auto out = lossless::Decompress(compressed);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(payload.size()));
}
BENCHMARK(BM_Decompress);

// Registered-codec family: compress and decompress a high-significance
// (sparse) bit-plane payload through each codec name the refactorer can be
// pointed at, auto included. Arg 0/1/2 = pipeline/rice/auto.
const char* CodecNameForArg(std::int64_t arg) {
  switch (arg) {
    case 0: return "pipeline";
    case 1: return "rice";
    default: return "auto";
  }
}

void BM_LosslessCodecCompress(benchmark::State& state) {
  const std::string name = CodecNameForArg(state.range(0));
  const std::string payload = SparsePayload(65536, 0.02);
  for (auto _ : state) {
    auto out = lossless::CompressWith(payload, name);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(payload.size()));
  state.SetLabel(name);
}
BENCHMARK(BM_LosslessCodecCompress)->Arg(0)->Arg(1)->Arg(2);

void BM_LosslessCodecDecompress(benchmark::State& state) {
  const std::string name = CodecNameForArg(state.range(0));
  const std::string payload = SparsePayload(65536, 0.02);
  auto compressed = lossless::CompressWith(payload, name);
  compressed.status().Abort("compress");
  for (auto _ : state) {
    auto out = lossless::Decompress(compressed.value());
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(payload.size()));
  state.SetLabel(name);
}
BENCHMARK(BM_LosslessCodecDecompress)->Arg(0)->Arg(1)->Arg(2);

}  // namespace
