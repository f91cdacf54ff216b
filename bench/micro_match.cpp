// Micro-benchmarks (google-benchmark): the MPI matching engine.
// Matching is on the critical path of every message in every transport.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "mpi/match.hpp"

namespace {

using namespace comb;
using comb::mpi::Envelope;
// The held record is a plain id, as a driver's small record would be.
using MatchEngine = comb::mpi::MatchEngine<std::uint64_t>;
using comb::mpi::Pattern;

void BM_PostAndMatchExact(benchmark::State& state) {
  for (auto _ : state) {
    MatchEngine m;
    m.postRecv(Pattern{0, 1, 7}, 1024, 1);
    auto hit = m.matchArrival(Envelope{0, 1, 7}, 1024);
    benchmark::DoNotOptimize(hit);
  }
}
BENCHMARK(BM_PostAndMatchExact);

void BM_MatchScanDepth(benchmark::State& state) {
  // Worst case: arrival matches only the LAST of N posted receives.
  const auto depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    MatchEngine m;
    for (int i = 0; i < depth; ++i)
      m.postRecv(Pattern{0, 1, i}, 1024, static_cast<std::uint64_t>(i + 1));
    state.ResumeTiming();
    auto hit = m.matchArrival(Envelope{0, 1, depth - 1}, 1024);
    benchmark::DoNotOptimize(hit);
  }
  state.SetItemsProcessed(state.iterations() * depth);
}
BENCHMARK(BM_MatchScanDepth)->Arg(8)->Arg(64)->Arg(512);

void BM_UnexpectedQueueChurn(benchmark::State& state) {
  const auto depth = static_cast<int>(state.range(0));
  MatchEngine m;
  std::uint64_t id = 1;
  for (auto _ : state) {
    for (int i = 0; i < depth; ++i)
      m.addUnexpected(Envelope{0, 0, i}, 1024, id++);
    for (int i = 0; i < depth; ++i) {
      auto hit = m.matchUnexpected(Pattern{0, 0, i}, 1024);
      benchmark::DoNotOptimize(hit);
    }
  }
  state.SetItemsProcessed(state.iterations() * depth);
}
BENCHMARK(BM_UnexpectedQueueChurn)->Arg(8)->Arg(64);

void BM_WildcardMatch(benchmark::State& state) {
  for (auto _ : state) {
    MatchEngine m;
    m.postRecv(Pattern{0, mpi::kAnySource, mpi::kAnyTag}, 1024, 1);
    auto hit = m.matchArrival(Envelope{0, 3, 99}, 1024);
    benchmark::DoNotOptimize(hit);
  }
}
BENCHMARK(BM_WildcardMatch);

}  // namespace

BENCHMARK_MAIN();
