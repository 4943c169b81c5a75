/**
 * @file
 * Unit tests for FlatU64Map: a differential test against
 * std::unordered_map under both slot indexes, the grow-only-on-insert
 * rule of operator[], and probe-length bounds for the key patterns
 * each index is chosen for.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "common/flat_map.hh"
#include "common/random.hh"

namespace aos {
namespace {

constexpr Addr kHeapBase = 0x20000000ull;
constexpr Addr kTenantStride = 0x4'0000'0000ull; // 16 GiB

template <typename Index>
class FlatMapIndexTest : public ::testing::Test
{};

using Indexes = ::testing::Types<FibonacciIndex, HeapAddrIndex>;
TYPED_TEST_SUITE(FlatMapIndexTest, Indexes);

/** Candidate keys: 0, aligned heap addresses in two heaps, dense
 *  integers and full-width random values. */
std::vector<u64>
keyPool(Rng &rng)
{
    std::vector<u64> pool{0};
    Addr top = kHeapBase;
    for (int i = 0; i < 1500; ++i) {
        pool.push_back(top);
        pool.push_back(top + kTenantStride);
        top += 16 * (2 + rng.below(64));
    }
    for (u64 k = 1; k <= 500; ++k)
        pool.push_back(k);
    for (int i = 0; i < 500; ++i)
        pool.push_back(rng.next());
    return pool;
}

TYPED_TEST(FlatMapIndexTest, MatchesUnorderedMap)
{
    Rng rng(7);
    const std::vector<u64> pool = keyPool(rng);
    FlatU64Map<u64, TypeParam> map;
    std::unordered_map<u64, u64> ref;
    size_t max_cap = map.capacity();

    for (int step = 0; step < 200000; ++step) {
        const u64 key = pool[rng.below(pool.size())];
        const u64 op = rng.below(100);
        if (op < 45) {
            const u64 val = rng.next();
            map[key] = val;
            ref[key] = val;
        } else if (op < 60) {
            // operator[] on a maybe-absent key default-constructs.
            EXPECT_EQ(map[key], ref[key]);
        } else if (op < 80) {
            const u64 *got = map.find(key);
            const auto it = ref.find(key);
            ASSERT_EQ(got != nullptr, it != ref.end()) << key;
            if (got) {
                EXPECT_EQ(*got, it->second);
            }
            EXPECT_EQ(map.count(key), ref.count(key));
        } else if (op < 99 || step % 50000 != 0) {
            EXPECT_EQ(map.erase(key), ref.erase(key)) << key;
        } else {
            map.clear();
            ref.clear();
            EXPECT_TRUE(map.empty());
        }
        ASSERT_EQ(map.size(), ref.size());
        max_cap = std::max(max_cap, map.capacity());
    }
    // Growth from the default 32 slots went through several rehashes.
    EXPECT_GE(max_cap, 32u << 6);

    for (const u64 key : pool) {
        const u64 *got = map.find(key);
        const auto it = ref.find(key);
        ASSERT_EQ(got != nullptr, it != ref.end()) << key;
        if (got) {
            EXPECT_EQ(*got, it->second);
        }
    }
}

TYPED_TEST(FlatMapIndexTest, ReserveAndClearKeepContents)
{
    FlatU64Map<u64, TypeParam> map;
    for (u64 i = 0; i < 100; ++i)
        map[kHeapBase + 48 * i] = i;
    map.reserve(5000);
    EXPECT_GE(map.capacity() * 3, 5000u * 4);
    ASSERT_EQ(map.size(), 100u);
    for (u64 i = 0; i < 100; ++i) {
        ASSERT_NE(map.find(kHeapBase + 48 * i), nullptr);
        EXPECT_EQ(*map.find(kHeapBase + 48 * i), i);
    }
    const size_t cap = map.capacity();
    map.reserve(10);
    EXPECT_EQ(map.capacity(), cap);

    map[0] = 9;
    EXPECT_EQ(map.size(), 101u);
    map.clear();
    EXPECT_EQ(map.size(), 0u);
    EXPECT_EQ(map.capacity(), cap);
    EXPECT_EQ(map.find(0), nullptr);
    EXPECT_EQ(map.find(kHeapBase), nullptr);
    EXPECT_EQ(map.erase(kHeapBase), 0u);
}

TYPED_TEST(FlatMapIndexTest, KeyZeroLivesBesideTheTable)
{
    FlatU64Map<u64, TypeParam> map;
    EXPECT_EQ(map.find(0), nullptr);
    EXPECT_EQ(map[0], 0u);
    map[0] = 5;
    map[16] = 6;
    EXPECT_EQ(map.size(), 2u);
    EXPECT_EQ(*map.find(0), 5u);
    EXPECT_EQ(map.erase(0), 1u);
    EXPECT_EQ(map.erase(0), 0u);
    EXPECT_EQ(*map.find(16), 6u);
    EXPECT_EQ(map.size(), 1u);
}

TYPED_TEST(FlatMapIndexTest, AssigningAPresentKeyNeverGrows)
{
    FlatU64Map<u64, TypeParam> map(12);
    ASSERT_EQ(map.capacity(), 16u);
    // 12 keys fill 16 slots to exactly the 3/4 load threshold.
    for (u64 i = 1; i <= 12; ++i)
        map[kHeapBase + 32 * i] = i;
    ASSERT_EQ(map.capacity(), 16u);
    for (u64 i = 1; i <= 12; ++i)
        map[kHeapBase + 32 * i] = i + 100;
    EXPECT_EQ(map.capacity(), 16u);
    EXPECT_EQ(map.size(), 12u);
    EXPECT_EQ(*map.find(kHeapBase + 32 * 7), 107u);
    // The 13th key is a real insert and grows the table.
    map[kHeapBase + 32 * 13] = 13;
    EXPECT_EQ(map.capacity(), 32u);
    EXPECT_EQ(map.size(), 13u);
}

constexpr size_t kPatternKeys = 40000;

/**
 * Insert @p keys in order into a default-sized map and bound their
 * displacement. Linear probing with a uniform index has an expected
 * mean displacement of a / (2 (1 - a)) at load a, which is 1.5 at the
 * 3/4 load ceiling; an index suited to a pattern must do no worse.
 */
template <typename Index>
void
expectShortProbes(const char *pattern, const std::vector<u64> &keys)
{
    FlatU64Map<u64, Index> map;
    for (const u64 k : keys)
        map[k] = k;
    ASSERT_EQ(map.size(), keys.size()) << pattern;
    double sum = 0;
    size_t max_probe = 0;
    for (const u64 k : keys) {
        const size_t p = map.probeLength(k);
        sum += static_cast<double>(p);
        max_probe = std::max(max_probe, p);
    }
    EXPECT_LE(sum / static_cast<double>(keys.size()), 1.5) << pattern;
    EXPECT_LE(max_probe, 64u) << pattern;
}

/** User addresses of an ascending carve of 16-aligned chunks. */
std::vector<u64>
ascendingCarve(Addr base, size_t n, u64 (*chunk_bytes)(Rng &), Rng &rng)
{
    std::vector<u64> keys;
    Addr top = base;
    for (size_t i = 0; i < n; ++i) {
        keys.push_back(top + 16);
        top += chunk_bytes(rng);
    }
    return keys;
}

u64
randomChunk(Rng &rng)
{
    // malloc(16 + below(1024)) plus a 16-byte header, 16-aligned.
    return (16 + rng.below(1024) + 16 + 15) & ~u64{15};
}

TEST(FlatMapProbe, HeapAddrIndexOnAscendingCarves)
{
    Rng rng(3);
    struct Pattern
    {
        const char *name;
        u64 (*chunk)(Rng &);
    };
    const Pattern patterns[] = {
        {"random sizes", randomChunk},
        {"32-byte chunks", [](Rng &) -> u64 { return 32; }},
        {"4 KiB stride", [](Rng &) -> u64 { return 4096; }},
        {"64 KiB stride", [](Rng &) -> u64 { return 65536; }},
    };
    for (const Pattern &p : patterns) {
        expectShortProbes<HeapAddrIndex>(
            p.name, ascendingCarve(kHeapBase, kPatternKeys, p.chunk, rng));
    }
}

TEST(FlatMapProbe, HeapAddrIndexOnTwoTenantHeaps)
{
    Rng rng(4);
    std::vector<u64> keys;
    Addr tops[2] = {kHeapBase, kHeapBase + kTenantStride};
    for (size_t i = 0; i < kPatternKeys; ++i) {
        Addr &top = tops[rng.below(2)];
        keys.push_back(top + 16);
        top += randomChunk(rng);
    }
    expectShortProbes<HeapAddrIndex>("two heaps 16 GiB apart", keys);
}

TEST(FlatMapProbe, FibonacciIndexOnDenseIntegers)
{
    std::vector<u64> keys;
    for (u64 k = 1; k <= kPatternKeys; ++k)
        keys.push_back(k);
    expectShortProbes<FibonacciIndex>("dense integers", keys);
}

} // namespace
} // namespace aos
