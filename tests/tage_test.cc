/**
 * @file
 * Tests for the TAGE branch predictor.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "cpu/tage.hh"

namespace aos::cpu {
namespace {

double
trainAndMeasure(Tage &tage, const std::vector<std::pair<Addr, bool>> &trace,
                size_t warmup)
{
    u64 wrong = 0, measured = 0;
    for (size_t i = 0; i < trace.size(); ++i) {
        const bool pred = tage.predict(trace[i].first);
        if (i >= warmup) {
            ++measured;
            wrong += pred != trace[i].second;
        }
        tage.update(trace[i].first, trace[i].second);
    }
    return measured ? static_cast<double>(wrong) / measured : 0.0;
}

TEST(Tage, LearnsAlwaysTaken)
{
    Tage tage;
    std::vector<std::pair<Addr, bool>> trace;
    for (int i = 0; i < 2000; ++i)
        trace.emplace_back(0x400100, true);
    EXPECT_LT(trainAndMeasure(tage, trace, 100), 0.01);
}

TEST(Tage, LearnsAlwaysNotTaken)
{
    Tage tage;
    std::vector<std::pair<Addr, bool>> trace;
    for (int i = 0; i < 2000; ++i)
        trace.emplace_back(0x400200, false);
    EXPECT_LT(trainAndMeasure(tage, trace, 100), 0.01);
}

TEST(Tage, LearnsShortAlternation)
{
    // T N T N ... needs one bit of history; the bimodal alone cannot
    // learn it, the tagged tables must.
    Tage tage;
    std::vector<std::pair<Addr, bool>> trace;
    for (int i = 0; i < 4000; ++i)
        trace.emplace_back(0x400300, (i & 1) == 0);
    EXPECT_LT(trainAndMeasure(tage, trace, 1000), 0.05);
    EXPECT_GT(tage.stats().providerTagged, 0u);
}

TEST(Tage, LearnsLongerPeriodicPattern)
{
    // Period-7 pattern: requires several history bits.
    Tage tage;
    const bool pattern[7] = {true, true, false, true, false, false, true};
    std::vector<std::pair<Addr, bool>> trace;
    for (int i = 0; i < 20000; ++i)
        trace.emplace_back(0x400400, pattern[i % 7]);
    EXPECT_LT(trainAndMeasure(tage, trace, 6000), 0.10);
}

TEST(Tage, BiasedRandomApproachesBias)
{
    // A 90%-taken branch with no pattern: ~10% mispredictions is the
    // information-theoretic floor.
    Tage tage;
    Rng rng(1);
    std::vector<std::pair<Addr, bool>> trace;
    for (int i = 0; i < 20000; ++i)
        trace.emplace_back(0x400500, rng.chance(0.9));
    const double mr = trainAndMeasure(tage, trace, 2000);
    EXPECT_LT(mr, 0.16);
    EXPECT_GT(mr, 0.04);
}

TEST(Tage, ManyIndependentBranches)
{
    // Hundreds of static branches with distinct biases must not
    // destructively alias.
    Tage tage;
    Rng rng(2);
    std::vector<bool> bias;
    for (int b = 0; b < 512; ++b)
        bias.push_back(rng.chance(0.5));
    std::vector<std::pair<Addr, bool>> trace;
    for (int i = 0; i < 60000; ++i) {
        const u64 b = rng.below(512);
        trace.emplace_back(0x400000 + b * 4, bias[b]);
    }
    EXPECT_LT(trainAndMeasure(tage, trace, 10000), 0.03);
}

TEST(Tage, HistoryCorrelatedBranches)
{
    // Branch B repeats the outcome of branch A: pure history
    // correlation, invisible to a bimodal predictor.
    Tage tage;
    Rng rng(3);
    std::vector<std::pair<Addr, bool>> trace;
    for (int i = 0; i < 30000; ++i) {
        const bool a = rng.chance(0.5);
        trace.emplace_back(0x400600, a);
        trace.emplace_back(0x400700, a);
    }
    // Overall mispredict rate: branch A is unpredictable (~50%),
    // branch B should approach 0% -> combined ~25%.
    const double mr = trainAndMeasure(tage, trace, 10000);
    EXPECT_LT(mr, 0.35);
}

// --- Pinned digests ---------------------------------------------------
//
// Three fixed-seed traces of 1M+ branches each. Every prediction is
// folded into an FNV-1a digest; the digest and the final TageStats are
// pinned, so any change to the folded history, the index/tag hashes or
// the allocation policy shows up as a digest mismatch.

struct TraceDigest
{
    u64 digest = 0;
    TageStats stats;
};

template <typename NextBranch>
TraceDigest
digestTrace(u64 branches, NextBranch next)
{
    Tage tage;
    u64 h = 0xcbf29ce484222325ull;
    for (u64 i = 0; i < branches; ++i) {
        const auto [pc, taken] = next(i);
        const bool pred = tage.predict(pc);
        h = (h ^ (pred ? 1u : 0u)) * 0x100000001b3ull;
        tage.update(pc, taken);
    }
    return {h, tage.stats()};
}

/** ~100 static branches, each with its own random bias. */
TraceDigest
biasedRandomTrace()
{
    Rng rng(11);
    std::vector<double> bias;
    for (int b = 0; b < 100; ++b)
        bias.push_back(rng.uniform());
    return digestTrace(1u << 20, [&](u64) {
        const u64 b = rng.below(bias.size());
        return std::pair<Addr, bool>{0x400000 + b * 4, rng.chance(bias[b])};
    });
}

/**
 * Periodic patterns of several lengths plus branches that repeat or
 * combine recent outcomes: served mostly by the tagged tables.
 */
TraceDigest
correlatedTrace()
{
    Rng rng(12);
    static constexpr unsigned kPeriods[] = {3, 7, 12, 31};
    std::vector<std::vector<bool>> patterns;
    for (unsigned p : kPeriods) {
        std::vector<bool> pat;
        for (unsigned i = 0; i < p; ++i)
            pat.push_back(rng.chance(0.5));
        patterns.push_back(pat);
    }
    bool last_a = false, last_b = false;
    u64 step = 0;
    return digestTrace(1u << 20, [&](u64 i) {
        const unsigned slot = i % 7;
        if (slot < 4) {
            const auto &pat = patterns[slot];
            return std::pair<Addr, bool>{0x401000 + slot * 4,
                                         pat[(step + slot) % pat.size()]};
        }
        if (slot == 4) {
            last_a = rng.chance(0.5);
            return std::pair<Addr, bool>{0x402000, last_a};
        }
        if (slot == 5) {
            last_b = rng.chance(0.7);
            return std::pair<Addr, bool>{0x402040, last_a != last_b};
        }
        ++step;
        return std::pair<Addr, bool>{0x402080, last_a};
    });
}

/** 4096 static branches: stresses index and tag aliasing. */
TraceDigest
manyPcTrace()
{
    Rng rng(13);
    std::vector<double> bias;
    for (int b = 0; b < 4096; ++b)
        bias.push_back(rng.chance(0.5) ? rng.uniform() : (b & 1) ? 0.97 : 0.03);
    return digestTrace(1u << 20, [&](u64) {
        const u64 b = rng.skewed(bias.size());
        return std::pair<Addr, bool>{0x400000 + b * 4, rng.chance(bias[b])};
    });
}

void
expectPinned(const TraceDigest &d, u64 digest, u64 mispredicts,
             u64 provider_tagged)
{
    EXPECT_EQ(d.digest, digest);
    EXPECT_EQ(d.stats.lookups, 1u << 20);
    EXPECT_EQ(d.stats.mispredicts, mispredicts);
    EXPECT_EQ(d.stats.providerTagged, provider_tagged);
}

TEST(TageDigest, BiasedRandom)
{
    expectPinned(biasedRandomTrace(), 0xb3120ed3d1d1cb82ull, 296829, 48896);
}

TEST(TageDigest, Correlated)
{
    const TraceDigest d = correlatedTrace();
    expectPinned(d, 0x4435ba91fa8878eaull, 359360, 491422);
    // The tagged tables must serve a sizeable share, so the digest
    // covers the folds, the tags and allocation, not only the bimodal.
    EXPECT_GT(d.stats.providerTagged, d.stats.lookups / 4);
}

TEST(TageDigest, ManyPcs)
{
    expectPinned(manyPcTrace(), 0x3eff7f2f578e0aebull, 167067, 40228);
}

TEST(TageDeathTest, UpdateWithoutPredictPanics)
{
    Tage tage;
    EXPECT_DEATH(tage.update(0x400100, true), "without a matching predict");
    tage.predict(0x400100);
    EXPECT_DEATH(tage.update(0x400104, true), "without a matching predict");
    tage.update(0x400100, true);
    EXPECT_DEATH(tage.update(0x400100, true), "without a matching predict");
}

TEST(Tage, StatsAccumulate)
{
    Tage tage;
    tage.predict(0x400100);
    tage.update(0x400100, true);
    EXPECT_EQ(tage.stats().lookups, 1u);
    EXPECT_LE(tage.stats().mispredicts, 1u);
}

} // namespace
} // namespace aos::cpu
