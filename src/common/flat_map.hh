/**
 * @file
 * Open-addressed u64-keyed hash map for hot simulator paths.
 *
 * The instrumentation passes, the heap allocator and the MCU all keep
 * address/sequence-keyed side tables that are hit once or more per
 * micro-op. std::unordered_map spends most of its time in node
 * allocation, pointer chasing and rehash storms there (it was ~40% of
 * a throughput-bench profile); this map stores slots inline in one
 * power-of-two array with linear probing and backward-shift deletion,
 * so lookups are an index computation and a short scan.
 *
 * The slot index is a policy type, as std::unordered_map's Hash is.
 * FibonacciIndex (the default) scatters keys over the table, which
 * suits dense integers such as sequence numbers. HeapAddrIndex keeps
 * 16-byte-aligned heap addresses in address order, so a heap built by
 * an ascending carve streams through the table instead of missing the
 * host cache on every insert.
 *
 * Semantics match the std::unordered_map subset the simulator uses:
 * find/operator[]/erase/count/clear/size. No iteration is provided on
 * purpose — hot-path tables must not grow order-dependent behavior, and
 * so the choice of index can never reach a simulated statistic.
 * Key 0 is valid (kept in a dedicated side slot).
 */

#ifndef AOS_COMMON_FLAT_MAP_HH
#define AOS_COMMON_FLAT_MAP_HH

#include <bit>
#include <cstddef>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace aos {

/**
 * Largest log2(table size) a FlatU64Map reaches. A slot is at least 16
 * bytes, so a table of 2^58 slots would already span 2^62 bytes.
 */
inline constexpr unsigned kFlatMapMaxBits = 58;

/**
 * Default slot index: Fibonacci hashing, the top @p bits of the key
 * times 2^64 / phi. The multiply spreads dense or low-entropy keys
 * (sequence numbers) evenly across the table. Any index that drops low
 * key bits would pile runs of such keys onto one slot.
 */
struct FibonacciIndex
{
    static size_t
    index(u64 key, unsigned bits)
    {
        return static_cast<size_t>((key * 0x9e3779b97f4a7c15ull) >>
                                   (64 - bits));
    }
};

/**
 * Slot index for 16-byte-aligned heap addresses: key >> 4 puts
 * consecutive chunks in neighbouring slots, and xoring in the wrap
 * count (key >> (4 + bits)) spreads keys that alias modulo the table
 * size, such as power-of-two strides or heaps a power of two apart.
 */
struct HeapAddrIndex
{
    static_assert(4 + kFlatMapMaxBits < 64,
                  "the wrap-count shift must stay below the key width");

    static size_t
    index(u64 key, unsigned bits)
    {
        return static_cast<size_t>((key >> 4) ^ (key >> (4 + bits)));
    }
};

template <typename V, typename Index = FibonacciIndex>
class FlatU64Map
{
  public:
    explicit FlatU64Map(size_t initial_capacity = 16)
    {
        rehash(tableFor(initial_capacity));
    }

    /** Value for @p key, default-constructing it if absent. */
    V &
    operator[](u64 key)
    {
        if (key == 0) {
            if (!_hasZero) {
                _hasZero = true;
                _zeroVal = V{};
                ++_size;
            }
            return _zeroVal;
        }
        size_t i = slotFor(key);
        if (_slots[i].key == key)
            return _slots[i].val;
        // Grow only on a real insert: assigning to a present key must
        // not double a table that sits at the load threshold.
        if ((_size + 1) * 4 > _slots.size() * 3) {
            rehash(_slots.size() * 2);
            i = slotFor(key);
        }
        _slots[i].key = key;
        _slots[i].val = V{};
        ++_size;
        return _slots[i].val;
    }

    /** Pointer to @p key's value, or nullptr when absent. */
    V *
    find(u64 key)
    {
        if (key == 0)
            return _hasZero ? &_zeroVal : nullptr;
        Slot &s = _slots[slotFor(key)];
        return s.key == key ? &s.val : nullptr;
    }

    const V *
    find(u64 key) const
    {
        return const_cast<FlatU64Map *>(this)->find(key);
    }

    size_t count(u64 key) const { return find(key) ? 1 : 0; }

    /** Remove @p key; returns 1 if it was present, 0 otherwise. */
    size_t
    erase(u64 key)
    {
        if (key == 0) {
            if (!_hasZero)
                return 0;
            _hasZero = false;
            --_size;
            return 1;
        }
        size_t i = slotFor(key);
        if (_slots[i].key != key)
            return 0;
        --_size;
        // Backward-shift deletion: pull displaced entries over the
        // hole so probe chains never see a tombstone.
        size_t j = i;
        for (;;) {
            _slots[i].key = 0;
            for (;;) {
                j = (j + 1) & _mask;
                if (_slots[j].key == 0)
                    return 1;
                const size_t k = idealIndex(_slots[j].key);
                if (!cyclicBetween(i, j, k))
                    break;
            }
            _slots[i] = _slots[j];
            i = j;
        }
    }

    /** Drop all entries, keeping the table allocation. */
    void
    clear()
    {
        for (Slot &s : _slots)
            s.key = 0;
        _hasZero = false;
        _size = 0;
    }

    /** Pre-size the table for @p n entries without rehash churn. */
    void
    reserve(size_t n)
    {
        const size_t want = tableFor(n);
        if (want > _slots.size())
            rehash(want);
    }

    size_t size() const { return _size; }
    bool empty() const { return _size == 0; }

    /** Number of slots in the table (a power of two). */
    size_t capacity() const { return _slots.size(); }

    /**
     * Slots a lookup of nonzero @p key scans past its ideal slot: a
     * present key's displacement, or an absent key's distance to the
     * empty slot that ends its probe chain.
     */
    size_t
    probeLength(u64 key) const
    {
        const size_t home = idealIndex(key);
        return (slotFor(key) - home) & _mask;
    }

  private:
    struct Slot
    {
        u64 key = 0;
        V val{};
    };

    /** Table size (power of two) that holds @p n at <= 3/4 load. */
    static size_t
    tableFor(size_t n)
    {
        size_t cap = 16;
        while (cap * 3 < n * 4)
            cap *= 2;
        return cap;
    }

    size_t
    idealIndex(u64 key) const
    {
        return Index::index(key, _bits) & _mask;
    }

    /** Slot holding nonzero @p key, or the empty slot ending its chain. */
    size_t
    slotFor(u64 key) const
    {
        size_t i = idealIndex(key);
        while (_slots[i].key != 0 && _slots[i].key != key)
            i = (i + 1) & _mask;
        return i;
    }

    /** True when @p k lies cyclically in (i, j]. */
    static bool
    cyclicBetween(size_t i, size_t j, size_t k)
    {
        return i <= j ? (i < k && k <= j) : (i < k || k <= j);
    }

    void
    rehash(size_t new_cap)
    {
        const unsigned bits = static_cast<unsigned>(std::countr_zero(new_cap));
        panic_if(bits > kFlatMapMaxBits,
                 "FlatU64Map table of 2^%u slots exceeds 2^%u", bits,
                 kFlatMapMaxBits);
        std::vector<Slot> old = std::move(_slots);
        _slots.assign(new_cap, Slot{});
        _mask = new_cap - 1;
        _bits = bits;
        for (const Slot &s : old) {
            if (s.key == 0)
                continue;
            size_t i = idealIndex(s.key);
            while (_slots[i].key != 0)
                i = (i + 1) & _mask;
            _slots[i] = s;
        }
    }

    std::vector<Slot> _slots;
    size_t _mask = 0;
    unsigned _bits = 0;
    size_t _size = 0;
    bool _hasZero = false;
    V _zeroVal{};
};

} // namespace aos

#endif // AOS_COMMON_FLAT_MAP_HH
