/**
 * @file
 * Microbenchmark: QARMA-64 throughput — the PAC computation cost per
 * signing instruction, across S-boxes and round counts, and the
 * batched QarmaSliced cost per PAC across batch sizes (the sweep
 * behind its per-chunk cut-offs, DESIGN.md §14).
 */

#include <benchmark/benchmark.h>

#include <vector>

#include "common/random.hh"
#include "qarma/qarma64.hh"
#include "qarma/qarma_sliced.hh"

using namespace aos;
using namespace aos::qarma;

namespace {

constexpr Key128 kKey{0x84be85ce9804e94bull, 0xec2802d4e0a488e9ull};

void
BM_QarmaEncrypt(benchmark::State &state)
{
    const Qarma64 cipher(static_cast<Sbox>(state.range(0)),
                         static_cast<unsigned>(state.range(1)));
    u64 plaintext = 0xfb623599da6e8127ull;
    u64 tweak = 0x477d469dec0b8762ull;
    for (auto _ : state) {
        plaintext = cipher.encrypt(plaintext, tweak, kKey);
        benchmark::DoNotOptimize(plaintext);
        ++tweak;
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_QarmaRoundTrip(benchmark::State &state)
{
    const Qarma64 cipher(Sbox::kSigma1, 7);
    u64 value = 0x123456789abcdefull;
    for (auto _ : state) {
        const u64 ct = cipher.encrypt(value, 0x77, kKey);
        value = cipher.decrypt(ct, 0x77, kKey);
        benchmark::DoNotOptimize(value);
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_QarmaBatch(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    const QarmaSliced sliced;
    const auto ks = Qarma64::expandKey(kKey);
    Rng rng(0xba7c4'0004ull);
    std::vector<u64> pt(n), tw(n), ct(n);
    for (size_t i = 0; i < n; ++i) {
        pt[i] = rng.next();
        tw[i] = rng.next();
    }
    for (auto _ : state) {
        sliced.encrypt(pt.data(), tw.data(), n, ks, ct.data());
        benchmark::DoNotOptimize(ct.data());
        benchmark::ClobberMemory();
    }
    state.counters["ns_per_pac"] = benchmark::Counter(
        static_cast<double>(n),
        benchmark::Counter::kIsIterationInvariantRate |
            benchmark::Counter::kInvert);
}

} // namespace

BENCHMARK(BM_QarmaEncrypt)
    ->ArgsProduct({{0, 1, 2}, {5, 6, 7}})
    ->ArgNames({"sbox", "rounds"});
BENCHMARK(BM_QarmaRoundTrip);
BENCHMARK(BM_QarmaBatch)
    ->Arg(8)->Arg(16)->Arg(32)->Arg(48)->Arg(64)->Arg(96)->Arg(128)
    ->Arg(200)->Arg(256)->Arg(341)->Arg(512)->Arg(2048)
    ->ArgName("n");
