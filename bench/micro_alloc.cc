/**
 * @file
 * Microbenchmark: heap-allocator model throughput (malloc/free churn
 * across size classes, and the malloc-only build-up of a large live
 * set), which bounds Table II replay speed.
 */

#include <benchmark/benchmark.h>

#include "alloc/heap_allocator.hh"
#include "common/random.hh"

using namespace aos;
using namespace aos::alloc;

namespace {

void
BM_MallocFreeFastbin(benchmark::State &state)
{
    HeapAllocator heap;
    for (auto _ : state) {
        const Addr p = heap.malloc(48);
        benchmark::DoNotOptimize(p);
        heap.free(p);
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_MallocFreeLarge(benchmark::State &state)
{
    HeapAllocator heap;
    for (auto _ : state) {
        const Addr p = heap.malloc(8192);
        benchmark::DoNotOptimize(p);
        heap.free(p);
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_ChurnSteadyState(benchmark::State &state)
{
    const u64 live_target = static_cast<u64>(state.range(0));
    HeapAllocator heap;
    Rng rng(1);
    while (heap.liveCount() < live_target)
        heap.malloc(16 + rng.below(1024));
    for (auto _ : state) {
        heap.free(heap.liveChunk(rng.below(heap.liveCount())));
        benchmark::DoNotOptimize(heap.malloc(16 + rng.below(1024)));
    }
    state.SetItemsProcessed(state.iterations());
}

/**
 * Fast-forward build-up of omnetpp's live set: malloc-only, so every
 * chunk is carved from the top of the heap in ascending address order.
 */
void
BM_WarmBuildUp(benchmark::State &state)
{
    const u64 live_target = static_cast<u64>(state.range(0));
    HeapAllocator heap;
    heap.reserveLive(live_target);
    for (auto _ : state) {
        // Emptying the tables is not build-up work; time the mallocs.
        state.PauseTiming();
        heap.reset();
        Rng rng(1);
        state.ResumeTiming();
        for (u64 i = 0; i < live_target; ++i)
            benchmark::DoNotOptimize(heap.malloc(32 + rng.below(481)));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(live_target));
}

} // namespace

BENCHMARK(BM_MallocFreeFastbin);
BENCHMARK(BM_MallocFreeLarge);
BENCHMARK(BM_ChurnSteadyState)->Arg(1000)->Arg(100000)->ArgName("live");
BENCHMARK(BM_WarmBuildUp)
    ->Arg(700000)
    ->ArgName("live")
    ->Unit(benchmark::kMillisecond);
