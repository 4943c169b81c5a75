/**
 * @file
 * The two AOS instrumentation passes (paper SIV-B, Fig. 7).
 *
 * AosOptPass mirrors AOS-opt-pass: it detects allocation and
 * deallocation markers and inserts the aos_malloc / aos_free intrinsic
 * ops right after them.
 *
 * AosBackendPass mirrors AOS-backend-pass: it lowers the intrinsics to
 * the new instructions —
 *
 *   malloc:  pacma ptr, sp, size ; bndstr ptr, size          (Fig. 7a)
 *   free:    bndclr ptr ; xpacm ptr ; free ; pacma ptr,sp,xzr (Fig. 7b)
 *
 * — and, because from that point on the program variable holds a
 * *signed* pointer, rewrites the addresses of every subsequent
 * load/store to that chunk to carry the PAC/AHC bits (the hardware
 * propagates them for free; the rewrite models the data flow the
 * signed register value would take).
 */

#ifndef AOS_COMPILER_AOS_PASSES_HH
#define AOS_COMPILER_AOS_PASSES_HH

#include "common/flat_map.hh"
#include "compiler/pass.hh"
#include "pa/pa_context.hh"

namespace aos::compiler {

/** Optimizer-level pass: inserts aos_malloc / aos_free intrinsics. */
class AosOptPass : public Pass
{
  public:
    using Pass::Pass;

    std::string name() const override { return "aos-opt-pass"; }

  protected:
    void transform(const ir::MicroOp &in) override;

    /**
     * Bulk specialization: allocation marks are rare, so copy the
     * untouched runs between them in one go.
     */
    void transformBatch(const ir::MicroOp *in, size_t n) override;
};

/**
 * Backend pass: lowers intrinsics and signs heap addresses.
 *
 * Signing is batched (DESIGN.md §14): the pass widens its refill
 * window, prescans each block for malloc/free intrinsics, signs all of
 * them in one PaContext::batchPac sweep through the bit-sliced QARMA
 * kernel, then lowers the block in order consuming the precomputed
 * slots — replacing one synchronous cipher call per intrinsic.
 */
class AosBackendPass : public Pass
{
  public:
    /**
     * Input window per refill: wide enough that a block carries a
     * sliceable number of sign requests (intrinsics are a few percent
     * of the op mix).
     */
    static constexpr size_t kSignWindow = 2048;

    /**
     * @param source Upstream (normally an AosOptPass).
     * @param pa Per-process PA state used for signing.
     * @param sp_modifier Modifier value standing in for the stack
     *        pointer at the instrumentation site.
     */
    AosBackendPass(ir::InstStream *source, const pa::PaContext *pa,
                   u64 sp_modifier = 0x7ffff000);

    std::string name() const override { return "aos-backend-pass"; }

    /** Signed pointer currently associated with @p chunk_base. */
    Addr signedFor(Addr chunk_base) const;

  protected:
    void transform(const ir::MicroOp &in) override;
    void transformBatch(const ir::MicroOp *in, size_t n) override;

  private:
    /** Lower a malloc/free intrinsic given its signed pointer. */
    void lowerIntrinsic(const ir::MicroOp &in, Addr signed_ptr);

    const pa::PaContext *_pa;
    u64 _spModifier;
    pa::PacBatch _batch;
    // chunk base -> signed pointer for all signed (incl. freed) chunks.
    // Hit on every heap load/store; flat map keeps it off the profile.
    FlatU64Map<Addr, HeapAddrIndex> _signedPtrs;
    // One-entry memo over _signedPtrs for the load/store rewrite:
    // accesses arrive in long same-chunk runs (a chunk walked word by
    // word), so the common case is a compare instead of a hash probe.
    // _memoChunk == 0 means empty; invalidated on every intrinsic
    // lowering because those overwrite _signedPtrs entries.
    Addr _memoChunk = 0;
    Addr _memoSigned = 0; // 0 = chunk absent from _signedPtrs
};

} // namespace aos::compiler

#endif // AOS_COMPILER_AOS_PASSES_HH
