/**
 * @file
 * Microbenchmark: TAGE predict+update throughput, which bounds the
 * timing simulator's own speed on branch-heavy workloads.
 *
 * Two variants: independent biased branches, which the bimodal table
 * mostly serves, and periodic, history-correlated branches, which the
 * tagged tables serve (hits, allocations and useful-bit decay).
 */

#include <benchmark/benchmark.h>

#include "common/random.hh"
#include "cpu/tage.hh"

using namespace aos;
using namespace aos::cpu;

namespace {

void
BM_TagePredictUpdate(benchmark::State &state)
{
    Tage tage;
    Rng rng(1);
    const unsigned branches = static_cast<unsigned>(state.range(0));
    std::vector<double> bias;
    for (unsigned b = 0; b < branches; ++b)
        bias.push_back(rng.uniform());
    for (auto _ : state) {
        const u64 b = rng.below(branches);
        const Addr pc = 0x400000 + b * 4;
        const bool taken = rng.chance(bias[b]);
        benchmark::DoNotOptimize(tage.predict(pc));
        tage.update(pc, taken);
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["mispredict_rate"] = tage.stats().mispredictRate();
}

void
BM_TagePredictUpdateCorrelated(benchmark::State &state)
{
    // Branches visited round-robin. Branch b repeats a random pattern
    // of period 2 + b % 31; every fourth branch instead copies the
    // outcome of the branch before it.
    Tage tage;
    Rng rng(1);
    const unsigned branches = static_cast<unsigned>(state.range(0));
    std::vector<std::vector<bool>> patterns(branches);
    for (unsigned b = 0; b < branches; ++b) {
        for (unsigned i = 0; i < 2 + b % 31; ++i)
            patterns[b].push_back(rng.chance(0.5));
    }
    std::vector<std::pair<Addr, bool>> trace;
    bool last = false;
    for (unsigned i = 0; i < (1u << 16); ++i) {
        const unsigned b = i % branches;
        const auto &pattern = patterns[b];
        if (b % 4 != 3)
            last = pattern[(i / branches) % pattern.size()];
        trace.emplace_back(0x400000 + b * 4, last);
    }
    size_t next = 0;
    for (auto _ : state) {
        const auto [pc, taken] = trace[next];
        next = (next + 1) % trace.size();
        benchmark::DoNotOptimize(tage.predict(pc));
        tage.update(pc, taken);
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["mispredict_rate"] = tage.stats().mispredictRate();
    state.counters["tagged_share"] =
        static_cast<double>(tage.stats().providerTagged) /
        static_cast<double>(tage.stats().lookups);
}

} // namespace

BENCHMARK(BM_TagePredictUpdate)
    ->Arg(16)
    ->Arg(256)
    ->Arg(4096)
    ->ArgName("branches");
BENCHMARK(BM_TagePredictUpdateCorrelated)
    ->Arg(16)
    ->Arg(256)
    ->ArgName("branches");
