/**
 * @file
 * AosElidePass — static elision of provably-redundant autm checks.
 *
 * The PA+AOS configuration authenticates every loaded data pointer with
 * autm (Fig. 13). Most of those authentications are redundant: autm is
 * a pure predicate of the pointer's metadata bits (nonzero AHC), and
 * every pointer derived from one signed chunk pointer carries the same
 * AHC/PAC upper bits — so once one value of a chunk's signed pointer
 * has been authenticated, re-authenticating any same-metadata value of
 * the same chunk cannot change the outcome until the chunk is freed or
 * re-signed.
 *
 * This pass runs a forward dataflow analysis over the instrumented
 * stream with a per-chunk lattice:
 *
 *   bottom  — nothing proven for the chunk;
 *   (pac, ahc) — a value carrying exactly this metadata has been
 *             authenticated and nothing invalidated it since;
 *
 * and the transfer function:
 *
 *   autm v (signed, chunk known):  elide if state(chunk) == meta(v),
 *                                  else execute and join to meta(v);
 *   bndclr / pacma / free of chunk: kill state(chunk);
 *   everything else:               identity.
 *
 * Anything not provably redundant — unsigned operands (autm must fail
 * on them: that failure IS the AHC-stripping detection), values with
 * unknown provenance, first use after any re-sign — is left untouched,
 * which is the soundness argument: an elided check is always a repeat
 * of an executed check on identical metadata with no intervening
 * event that could alter its verdict. This is the static-check-
 * elimination idea of ASan/CryptSan applied to AOS, and a new
 * Fig. 15-style ablation axis (bench/elision_ablation).
 */

#ifndef AOS_COMPILER_AOS_ELIDE_PASS_HH
#define AOS_COMPILER_AOS_ELIDE_PASS_HH

#include "common/flat_map.hh"

#include "compiler/pass.hh"
#include "pa/pointer_layout.hh"

namespace aos::compiler {

/** Elision statistics (exported into the run's StatSet). */
struct ElideStats
{
    u64 autmSeen = 0;      //!< autm ops reaching the pass.
    u64 autmElided = 0;    //!< Removed as provably redundant.
    u64 autmKept = 0;      //!< Emitted (first auth, unsigned, unknown).
    u64 invalidations = 0; //!< Chunk states killed by free/re-sign.

    double
    elisionRate() const
    {
        return autmSeen ? static_cast<double>(autmElided) / autmSeen : 0.0;
    }
};

/** Forward-dataflow autm redundancy elimination. */
class AosElidePass : public Pass
{
  public:
    AosElidePass(ir::InstStream *source, pa::PointerLayout layout)
        : Pass(source), _layout(layout)
    {
    }

    std::string name() const override { return "aos-elide-pass"; }

    const ElideStats &stats() const { return _stats; }

  protected:
    void transform(const ir::MicroOp &in) override;

  private:
    /** PAC and AHC fields packed into one comparable word. */
    u64
    metaOf(Addr addr) const
    {
        return (_layout.ahc(addr) << _layout.pacSize()) | _layout.pac(addr);
    }

    void invalidate(Addr chunk);

    pa::PointerLayout _layout;
    // chunk base -> metadata of the value last proven authentic.
    FlatU64Map<u64, HeapAddrIndex> _authed;
    ElideStats _stats;
};

} // namespace aos::compiler

#endif // AOS_COMPILER_AOS_ELIDE_PASS_HH
