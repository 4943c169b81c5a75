/**
 * @file
 * AosRuntime — the functional (architectural) view of AOS heap
 * protection, and the library's primary public API.
 *
 * It composes the substrates exactly as the instrumented program of
 * Fig. 7 would at run time:
 *
 *   malloc(size)  -> heap allocation, pacma signing, bndstr into the
 *                    HBT; returns the *signed* pointer;
 *   free(ptr)     -> bndclr (detecting double/invalid frees), xpacm,
 *                    heap release, re-signing of the dangling pointer;
 *   load/store    -> the MCU's bounds check: unsigned pointers pass
 *                    unchecked, signed pointers must hit valid bounds.
 *
 * Violations follow the OS policy: kReport logs and continues (the
 * default, so callers can inspect the returned Status), kTerminate
 * throws os::ProcessTerminated.
 *
 * This is what the examples and the security analysis (paper SVII,
 * Figs. 1 and 12) run against; the cycle-level counterpart is
 * AosSystem.
 */

#ifndef AOS_CORE_AOS_RUNTIME_HH
#define AOS_CORE_AOS_RUNTIME_HH

#include "alloc/heap_allocator.hh"
#include "memsim/sparse_memory.hh"
#include "os/os_model.hh"
#include "pa/pa_context.hh"

namespace aos::core {

/** Result of a runtime operation. */
enum class Status
{
    kOk,
    kBoundsViolation, //!< Signed access outside every bounds record.
    kDoubleFree,      //!< bndclr found no bounds for a signed pointer.
    kInvalidFree,     //!< free() of an unsigned/crafted pointer.
    kAuthFailure,     //!< autm on a pointer with a zero AHC.
    kOutOfMemory,
};

const char *statusName(Status status);

/** Finer-grained classification of a bounds violation (reporting). */
enum class ViolationClass
{
    kNone,
    kSpatial,  //!< Address inside the heap but outside the object.
    kTemporal, //!< Address inside a freed object (UAF/dangling).
};

/** Runtime configuration. */
struct RuntimeConfig
{
    unsigned pacBits = 16;
    unsigned vaBits = 46;
    unsigned initialHbtAssoc = 1;
    os::FaultPolicy policy = os::FaultPolicy::kReport;
    u64 keySeed = 0x6a09e667f3bcc908ull;
    u64 spModifier = 0x7ffff000; //!< Stand-in SP signing modifier.
};

/** Aggregate runtime statistics. */
struct RuntimeStats
{
    u64 mallocs = 0;
    u64 frees = 0;
    u64 checkedAccesses = 0;
    u64 uncheckedAccesses = 0;
    u64 boundsViolations = 0;
    u64 doubleFrees = 0;
    u64 invalidFrees = 0;
    u64 hbtResizes = 0;
    u64 stackProtects = 0;
    u64 narrows = 0;
};

class AosRuntime
{
  public:
    explicit AosRuntime(const RuntimeConfig &config = RuntimeConfig());

    /** Allocate and sign; returns the signed pointer (0 on OOM). */
    Addr malloc(u64 size);

    /** Free a signed pointer (the Fig. 7b sequence). */
    Status free(Addr signed_ptr);

    /** The bounds check a load at @p ptr would undergo. */
    Status load(Addr ptr);

    /** The bounds check a store at @p ptr would undergo. */
    Status store(Addr ptr);

    /** Check an access of @p len bytes starting at @p ptr. */
    Status checkRange(Addr ptr, u64 len);

    /**
     * Checked, value-carrying accesses against the process's data
     * memory (the precise-exception property of SIII-C4: a failed
     * check leaks no data and corrupts nothing).
     */
    Status read64(Addr ptr, u64 *out);
    Status write64(Addr ptr, u64 value);

    /** Raw (unchecked) data memory — the attacker's view. */
    memsim::SparseMemory &dataMemory() { return _data; }

    /** autm authentication (Fig. 13 on-load check). */
    Status authenticate(Addr ptr) const;

    // ---- Extensions the paper leaves as future work ----

    /**
     * Stack-object protection (SIII-D: "our approach can be applied to
     * other data-pointer types (e.g., stack pointers) in a similar
     * manner"). Signs a stack object at @p frame_addr of @p size bytes
     * with the B-family key and registers its bounds; the returned
     * signed pointer is checked exactly like a heap pointer.
     */
    Addr protectStack(Addr frame_addr, u64 size);

    /** Release a protected stack object at scope exit. */
    Status unprotectStack(Addr signed_ptr);

    /**
     * Bounds narrowing (SVII-F future work): derive a sub-object
     * pointer whose own bounds cover only [offset, offset+len) of the
     * parent object, so intra-object overflows become detectable.
     * The narrowed pointer is signed from the field's address and
     * must be released with widen() before the parent is freed.
     */
    Addr narrow(Addr signed_parent, u64 offset, u64 len);

    /** Drop a narrowed sub-object's bounds. */
    Status widen(Addr narrowed_ptr);

    /** Strip PAC/AHC (xpacm). */
    Addr strip(Addr ptr) const { return _pa.xpacm(ptr); }

    bool isSigned(Addr ptr) const { return _pa.layout().signed_(ptr); }

    /** Classify the most plausible cause of a failed check. */
    ViolationClass classify(Addr ptr) const;

    // Substrate access for tests, examples and benches.
    alloc::HeapAllocator &heap() { return _heap; }
    os::OsModel &osModel() { return _os; }
    const pa::PaContext &paContext() const { return _pa; }
    bounds::HashedBoundsTable &hbt() { return _os.hbt(); }
    const RuntimeStats &stats() const { return _stats; }

  private:
    Status check(Addr ptr);
    Status reportViolation(Status status, Addr ptr);
    /** bndstr, counting the resizes a full row forces. */
    void storeBounds(u64 pac, Addr base, u64 size);

    RuntimeConfig _config;
    pa::PaContext _pa;
    alloc::HeapAllocator _heap;
    os::OsModel _os;
    memsim::SparseMemory _data;
    RuntimeStats _stats;
};

} // namespace aos::core

#endif // AOS_CORE_AOS_RUNTIME_HH
