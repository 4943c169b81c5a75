#include "cpu/tage.hh"

#include "common/bitfield.hh"
#include "common/logging.hh"

namespace aos::cpu {

Tage::Tage() : _bimodal(u64{1} << kBaseBits, 2)
{
    for (unsigned t = 0; t < kNumTables; ++t) {
        _tables[t].resize(u64{1} << kTableBits);
        _indexFold[t] = FoldedHistory(kHistLen[t], kTableBits);
        _tagFold[t] = FoldedHistory(kHistLen[t], kTagBits);
        _tagFoldShort[t] = FoldedHistory(kHistLen[t], kTagBits - 1);
    }
}

void
Tage::pushHistory(bool taken)
{
    // The folds read the bit crossing from full into partial chunk
    // before the history shifts under them.
    const auto push = [&](FoldedHistory &f) {
        f.push(taken, f.fullBits ? historyBit(f.fullBits - 1) : taken);
    };
    for (unsigned t = 0; t < kNumTables; ++t) {
        push(_indexFold[t]);
        push(_tagFold[t]);
        push(_tagFoldShort[t]);
    }
    for (unsigned w = kHistoryWords - 1; w > 0; --w)
        _history[w] = (_history[w] << 1) | (_history[w - 1] >> 63);
    _history[0] = (_history[0] << 1) | static_cast<u64>(taken);
}

bool
Tage::predict(Addr pc)
{
    ++_stats.lookups;
    _lastPc = pc;
    _providerTable = -1;

    const u64 base_idx = (pc >> 2) & mask(kBaseBits);
    const bool base_pred = _bimodal[base_idx] >= 2;
    bool pred = base_pred;
    bool alt = base_pred;

    for (unsigned t = 0; t < kNumTables; ++t) {
        _index[t] = static_cast<u16>(
            ((pc >> 2) ^ (pc >> (kTableBits - t)) ^ _indexFold[t].value()) &
            mask(kTableBits));
        _tag[t] = static_cast<u16>(((pc >> 2) ^ _tagFold[t].value() ^
                                    (_tagFoldShort[t].value() << 1)) &
                                   mask(kTagBits));
    }

    // Longest history match provides; second longest is the alternate.
    for (int t = kNumTables - 1; t >= 0; --t) {
        const TaggedEntry &entry = _tables[t][_index[t]];
        if (entry.valid && entry.tag == _tag[t]) {
            if (_providerTable < 0) {
                _providerTable = t;
                _providerPred = entry.ctr >= 0;
            } else {
                alt = entry.ctr >= 0;
                break;
            }
        }
    }

    if (_providerTable >= 0) {
        ++_stats.providerTagged;
        const TaggedEntry &entry = providerEntry();
        const bool weak = entry.ctr == 0 || entry.ctr == -1;
        // Newly allocated, weak entries may be less reliable than the
        // alternate prediction (TAGE's use_alt_on_na heuristic).
        if (weak && entry.useful == 0 && _useAltOnNa >= 8)
            pred = alt;
        else
            pred = _providerPred;
        _altPred = alt;
    } else {
        _altPred = base_pred;
        pred = base_pred;
    }

    _lastPrediction = pred;
    _predicted = true;
    return pred;
}

void
Tage::update(Addr pc, bool taken)
{
    panic_if(!_predicted || pc != _lastPc,
             "Tage::update(%#llx) without a matching predict()",
             static_cast<unsigned long long>(pc));
    _predicted = false;

    if (_lastPrediction != taken)
        ++_stats.mispredicts;

    const u64 base_idx = (pc >> 2) & mask(kBaseBits);

    // Update the provider (or the bimodal table).
    if (_providerTable >= 0) {
        TaggedEntry &entry = providerEntry();
        if (taken && entry.ctr < 3)
            ++entry.ctr;
        else if (!taken && entry.ctr > -4)
            --entry.ctr;
        if (_providerPred != _altPred) {
            if (_providerPred == taken) {
                if (entry.useful < 3)
                    ++entry.useful;
            } else if (entry.useful > 0) {
                --entry.useful;
            }
            // Track whether alt would have been better for new entries.
            const bool weak = entry.ctr == 0 || entry.ctr == -1;
            if (weak && entry.useful == 0) {
                if (_altPred == taken) {
                    if (_useAltOnNa < 15)
                        ++_useAltOnNa;
                } else if (_useAltOnNa > 0) {
                    --_useAltOnNa;
                }
            }
        }
    } else {
        u8 &ctr = _bimodal[base_idx];
        if (taken && ctr < 3)
            ++ctr;
        else if (!taken && ctr > 0)
            --ctr;
    }

    // Allocate a longer-history entry on a mispredict.
    if (_lastPrediction != taken && _providerTable < 3) {
        bool allocated = false;
        for (unsigned t = _providerTable + 1; t < kNumTables && !allocated;
             ++t) {
            TaggedEntry &entry = _tables[t][_index[t]];
            if (!entry.valid || entry.useful == 0) {
                entry.valid = true;
                entry.tag = _tag[t];
                entry.ctr = taken ? 0 : -1;
                entry.useful = 0;
                allocated = true;
            }
        }
        if (!allocated) {
            // Decay usefulness so future allocations can succeed.
            for (unsigned t = _providerTable + 1; t < kNumTables; ++t) {
                TaggedEntry &entry = _tables[t][_index[t]];
                if (entry.useful > 0)
                    --entry.useful;
            }
        }
    }

    // Periodic aging of useful bits.
    if (++_tick % 262144 == 0) {
        for (auto &table : _tables) {
            for (auto &entry : table)
                entry.useful >>= 1;
        }
    }

    pushHistory(taken);
}

} // namespace aos::cpu
