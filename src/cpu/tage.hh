/**
 * @file
 * A TAGE conditional branch predictor (Seznec's L-TAGE family, which
 * Table IV lists as the simulated core's predictor).
 *
 * A bimodal base predictor is backed by several partially tagged
 * tables indexed with geometrically increasing global-history lengths.
 * The longest-history matching table provides the prediction; useful
 * counters and the standard allocation-on-mispredict policy manage the
 * entries. The loop predictor of full L-TAGE is omitted (it contributes
 * little on non-loop-dominated streams and nothing to the AOS/baseline
 * relative comparison).
 *
 * Folded history. Each table hashes the newest len bits of global
 * history h[0..len) (h[0] newest) into three values: the index fold
 * (10 bits), the tag fold (9 bits) and the tag-1 fold (8 bits). A fold
 * of width w cuts the history into F = len - len%w bits of full w-bit
 * chunks and one partial chunk of r = len%w bits, and XORs them:
 *   - in a full chunk the newest bit is the MSB, so h[i] (i < F) sits
 *     at bit w-1-(i mod w);
 *   - the partial chunk is right-aligned, so h[i] (i >= F) sits at bit
 *     len-1-i.
 * Each fold is kept as two registers, fold = full ^ part, updated in
 * O(1) per branch when the outcome is pushed:
 *   - full rotates right by one within w bits, takes the new outcome
 *     in at bit w-1 and XORs out, also at bit w-1, the old h[F-1] that
 *     crosses into the partial chunk;
 *   - part shifts right by one (dropping h[len-1]) and takes the
 *     crossing bit in at bit r-1. With F = 0 the crossing bit is the
 *     new outcome itself, and full stays zero.
 * This is not the textbook L-TAGE circular fold, which puts h[i] at
 * bit i mod w for every i, partial chunk included. The chunked layout
 * above is the hash this model has always used; keeping it keeps every
 * index, tag and prediction (and every campaign number downstream)
 * bit-identical. tests/tage_test.cc pins digests of it.
 * The global history itself is packed into u64 words; a push is one
 * shift per word.
 */

#ifndef AOS_CPU_TAGE_HH
#define AOS_CPU_TAGE_HH

#include <array>
#include <vector>

#include "common/types.hh"

namespace aos::cpu {

/** Predictor statistics. */
struct TageStats
{
    u64 lookups = 0;
    u64 mispredicts = 0;
    u64 providerTagged = 0; //!< Predictions from a tagged table.

    double
    mispredictRate() const
    {
        return lookups ? static_cast<double>(mispredicts) / lookups : 0.0;
    }
};

class Tage
{
  public:
    static constexpr unsigned kNumTables = 4;

    Tage();

    /** Predict the direction of the branch at @p pc. */
    bool predict(Addr pc);

    /**
     * Train with the actual @p taken outcome for @p pc and push it into
     * the global history. Must follow the matching predict() call, whose
     * indices and tags it reuses (single in-flight branch per train,
     * which the core's resolve-at-execute model guarantees); anything
     * else panics.
     */
    void update(Addr pc, bool taken);

    const TageStats &stats() const { return _stats; }

  private:
    struct TaggedEntry
    {
        u16 tag = 0;
        i8 ctr = 0;      //!< 3-bit signed counter, taken if >= 0.
        u8 useful = 0;   //!< 2-bit usefulness.
        bool valid = false;
    };

    /** One fold of the newest len history bits down to width bits. */
    struct FoldedHistory
    {
        unsigned width = 0;
        unsigned fullBits = 0; //!< F: history bits in full chunks.
        unsigned partBits = 0; //!< r: history bits in the partial chunk.
        u64 full = 0;
        u64 part = 0;

        FoldedHistory() = default;
        FoldedHistory(unsigned len, unsigned w)
            : width(w), fullBits(len - len % w), partBits(len % w)
        {
        }

        u64 value() const { return full ^ part; }

        /** Shift in @p newest; @p crossing is the old h[F-1]. */
        void
        push(bool newest, bool crossing)
        {
            full = (full >> 1) | ((full & 1) << (width - 1));
            full ^= static_cast<u64>(newest != crossing) << (width - 1);
            part = (part | (static_cast<u64>(crossing) << partBits)) >> 1;
        }
    };

    static constexpr unsigned kBaseBits = 13;
    static constexpr unsigned kTableBits = 10;
    static constexpr unsigned kTagBits = 9;
    static constexpr std::array<unsigned, kNumTables> kHistLen{5, 15, 44,
                                                               130};
    static constexpr unsigned kHistoryWords = (kHistLen.back() + 63) / 64;

    bool
    historyBit(unsigned i) const
    {
        return (_history[i / 64] >> (i % 64)) & 1;
    }
    void pushHistory(bool taken);

    TaggedEntry &
    providerEntry()
    {
        return _tables[_providerTable][_index[_providerTable]];
    }

    std::vector<u8> _bimodal; //!< 2-bit counters.
    std::array<std::vector<TaggedEntry>, kNumTables> _tables;
    /** Global history, newest outcome at bit 0 of word 0. */
    std::array<u64, kHistoryWords> _history{};
    std::array<FoldedHistory, kNumTables> _indexFold;
    std::array<FoldedHistory, kNumTables> _tagFold;
    std::array<FoldedHistory, kNumTables> _tagFoldShort; //!< kTagBits-1.

    // Lookup context carried from predict() to update().
    std::array<u16, kNumTables> _index{};
    std::array<u16, kNumTables> _tag{};
    int _providerTable = -1;
    bool _providerPred = false;
    bool _altPred = false;
    bool _lastPrediction = false;
    bool _predicted = false; //!< A predict() awaits its update().
    Addr _lastPc = 0;

    u64 _useAltOnNa = 0; //!< "use alt on newly allocated" counter.
    u64 _tick = 0;       //!< Periodic useful-bit aging.

    TageStats _stats;
};

} // namespace aos::cpu

#endif // AOS_CPU_TAGE_HH
