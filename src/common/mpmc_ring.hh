/**
 * @file
 * Bounded lock-free multi-producer/multi-consumer ring.
 *
 * The campaign engine's intra-process work pool used to be one
 * mutex-guarded deque per worker with stealing; jobs are whole
 * simulations so that was never a bottleneck, but the fabric
 * coordinator wants a queue it can also drain from its event loop
 * without lock-ordering concerns, and the ROADMAP called for the
 * upgrade. This is the classic Vyukov bounded MPMC queue: one atomic
 * sequence number per cell, producers CAS the tail, consumers CAS the
 * head, and the sequence tells each side whether the cell is ready for
 * it — no locks, no spurious failures, FIFO per producer. The contract
 * is bounded tryPush/tryPop: a full ring rejects the push, an empty
 * ring rejects the pop, nothing blocks and nothing is lost or
 * duplicated.
 *
 * The element type must be trivially copyable — indices and small POD
 * records; the campaign stores job ids (u32).
 */

#ifndef AOS_COMMON_MPMC_RING_HH
#define AOS_COMMON_MPMC_RING_HH

#include <atomic>
#include <cstddef>
#include <memory>
#include <type_traits>

#include "common/types.hh"

namespace aos {

template <typename T>
class MpmcRing
{
    static_assert(std::is_trivially_copyable_v<T>,
                  "MpmcRing elements must be trivially copyable");

  public:
    /** @p capacity is rounded up to a power of two (min 2). */
    explicit MpmcRing(size_t capacity)
        : _mask(roundUpPow2(capacity) - 1),
          _cells(std::make_unique<Cell[]>(_mask + 1))
    {
        for (size_t i = 0; i <= _mask; ++i)
            _cells[i].seq.store(i, std::memory_order_relaxed);
    }

    MpmcRing(const MpmcRing &) = delete;
    MpmcRing &operator=(const MpmcRing &) = delete;

    size_t capacity() const { return _mask + 1; }

    /** False when the ring is full. */
    bool
    tryPush(const T &value)
    {
        size_t pos = _tail.load(std::memory_order_relaxed);
        for (;;) {
            Cell &cell = _cells[pos & _mask];
            const size_t seq = cell.seq.load(std::memory_order_acquire);
            const intptr_t diff = static_cast<intptr_t>(seq) -
                                  static_cast<intptr_t>(pos);
            if (diff == 0) {
                if (_tail.compare_exchange_weak(
                        pos, pos + 1, std::memory_order_relaxed)) {
                    cell.value = value;
                    cell.seq.store(pos + 1, std::memory_order_release);
                    return true;
                }
            } else if (diff < 0) {
                return false; // Full: the cell still holds an element.
            } else {
                pos = _tail.load(std::memory_order_relaxed);
            }
        }
    }

    /** False when the ring is empty. */
    bool
    tryPop(T &out)
    {
        size_t pos = _head.load(std::memory_order_relaxed);
        for (;;) {
            Cell &cell = _cells[pos & _mask];
            const size_t seq = cell.seq.load(std::memory_order_acquire);
            const intptr_t diff = static_cast<intptr_t>(seq) -
                                  static_cast<intptr_t>(pos + 1);
            if (diff == 0) {
                if (_head.compare_exchange_weak(
                        pos, pos + 1, std::memory_order_relaxed)) {
                    out = cell.value;
                    cell.seq.store(pos + _mask + 1,
                                   std::memory_order_release);
                    return true;
                }
            } else if (diff < 0) {
                return false; // Empty: no producer has filled the cell.
            } else {
                pos = _head.load(std::memory_order_relaxed);
            }
        }
    }

    /**
     * Instantaneous element count (racy under concurrency; exact when
     * quiescent — used by tests and for diagnostics only).
     */
    size_t
    size() const
    {
        const size_t tail = _tail.load(std::memory_order_acquire);
        const size_t head = _head.load(std::memory_order_acquire);
        return tail >= head ? tail - head : 0;
    }

  private:
    struct Cell
    {
        std::atomic<size_t> seq;
        T value;
    };

    static size_t
    roundUpPow2(size_t n)
    {
        size_t p = 2;
        while (p < n)
            p <<= 1;
        return p;
    }

    const size_t _mask;
    std::unique_ptr<Cell[]> _cells;
    alignas(64) std::atomic<size_t> _head{0};
    alignas(64) std::atomic<size_t> _tail{0};
};

} // namespace aos

#endif // AOS_COMMON_MPMC_RING_HH
