/**
 * @file
 * Tests for the bounded MPMC work ring (common/mpmc_ring.hh): the
 * bounded tryPush/tryPop contract (full rejects, empty rejects, FIFO
 * when single-threaded), capacity rounding, and a multi-producer/
 * multi-consumer stress — every element pushed is popped exactly once.
 */

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/mpmc_ring.hh"

namespace aos {
namespace {

TEST(MpmcRing, CapacityRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(MpmcRing<u32>(1).capacity(), 2u);
    EXPECT_EQ(MpmcRing<u32>(2).capacity(), 2u);
    EXPECT_EQ(MpmcRing<u32>(3).capacity(), 4u);
    EXPECT_EQ(MpmcRing<u32>(64).capacity(), 64u);
    EXPECT_EQ(MpmcRing<u32>(65).capacity(), 128u);
}

TEST(MpmcRing, BoundedContractBothModes)
{
    MpmcRing<u32> ring(4);

    u32 out = 0;
    EXPECT_FALSE(ring.tryPop(out)); // Empty rejects.

    for (u32 i = 0; i < 4; ++i)
        EXPECT_TRUE(ring.tryPush(i)) << i;
    EXPECT_FALSE(ring.tryPush(99)); // Full rejects.
    EXPECT_EQ(ring.size(), 4u);

    for (u32 i = 0; i < 4; ++i) {
        ASSERT_TRUE(ring.tryPop(out));
        EXPECT_EQ(out, i); // FIFO when single-threaded.
    }
    EXPECT_FALSE(ring.tryPop(out));
    EXPECT_EQ(ring.size(), 0u);
}

TEST(MpmcRing, WrapsAcrossManyRefills)
{
    // Push/pop far past the capacity so the sequence numbers lap the
    // ring repeatedly — the classic place for an off-by-one in the
    // Vyukov cell-sequence arithmetic.
    MpmcRing<u32> ring(8);
    u32 out = 0;
    for (u32 round = 0; round < 1000; ++round) {
        for (u32 i = 0; i < 5; ++i)
            ASSERT_TRUE(ring.tryPush(round * 5 + i));
        for (u32 i = 0; i < 5; ++i) {
            ASSERT_TRUE(ring.tryPop(out));
            EXPECT_EQ(out, round * 5 + i);
        }
    }
}

/**
 * The contract the campaign pool relies on: N producers and M
 * consumers hammering one ring concurrently lose nothing and
 * duplicate nothing.
 */
TEST(MpmcRing, StressLockFree)
{
    constexpr unsigned kProducers = 4;
    constexpr unsigned kConsumers = 4;
    constexpr u32 kPerProducer = 20'000;
    constexpr u32 kTotal = kProducers * kPerProducer;

    MpmcRing<u32> ring(1024);
    std::atomic<u32> popped{0};
    std::atomic<u32> bogus{0}; // Values outside [0, kTotal).
    std::vector<std::atomic<u32>> seen(kTotal);
    for (auto &s : seen)
        s.store(0, std::memory_order_relaxed);

    std::vector<std::thread> threads;
    for (unsigned p = 0; p < kProducers; ++p) {
        threads.emplace_back([&ring, p]() {
            for (u32 i = 0; i < kPerProducer; ++i) {
                const u32 value = p * kPerProducer + i;
                while (!ring.tryPush(value))
                    std::this_thread::yield(); // Full: consumers lag.
            }
        });
    }
    for (unsigned c = 0; c < kConsumers; ++c) {
        threads.emplace_back([&]() {
            u32 value = 0;
            while (popped.load(std::memory_order_relaxed) < kTotal) {
                if (!ring.tryPop(value)) {
                    std::this_thread::yield();
                    continue;
                }
                if (value < kTotal)
                    seen[value].fetch_add(1, std::memory_order_relaxed);
                else
                    bogus.fetch_add(1, std::memory_order_relaxed);
                popped.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(popped.load(), kTotal);
    EXPECT_EQ(bogus.load(), 0u);
    u32 missing = 0, duplicated = 0;
    for (u32 v = 0; v < kTotal; ++v) {
        const u32 n = seen[v].load(std::memory_order_relaxed);
        missing += n == 0;
        duplicated += n > 1;
    }
    EXPECT_EQ(missing, 0u);
    EXPECT_EQ(duplicated, 0u);
    u32 leftover = 0;
    EXPECT_FALSE(ring.tryPop(leftover));
}

} // namespace
} // namespace aos
