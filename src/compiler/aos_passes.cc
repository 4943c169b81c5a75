#include "compiler/aos_passes.hh"

#include "common/logging.hh"

namespace aos::compiler {

void
AosOptPass::transform(const ir::MicroOp &in)
{
    emit(in);
    if (in.kind == ir::OpKind::kMallocMark) {
        ir::MicroOp intr = in;
        intr.kind = ir::OpKind::kAosMallocIntr;
        emit(intr);
    } else if (in.kind == ir::OpKind::kFreeMark) {
        ir::MicroOp intr = in;
        intr.kind = ir::OpKind::kAosFreeIntr;
        emit(intr);
    }
}

void
AosOptPass::transformBatch(const ir::MicroOp *in, size_t n)
{
    size_t run = 0;
    for (size_t i = 0; i < n; ++i) {
        const ir::OpKind k = in[i].kind;
        if (k != ir::OpKind::kMallocMark && k != ir::OpKind::kFreeMark)
            continue;
        // Emit up to and including the mark, then its intrinsic twin.
        emitAll(in + run, i - run + 1);
        ir::MicroOp intr = in[i];
        intr.kind = k == ir::OpKind::kMallocMark
                        ? ir::OpKind::kAosMallocIntr
                        : ir::OpKind::kAosFreeIntr;
        emit(intr);
        run = i + 1;
    }
    emitAll(in + run, n - run);
}

AosBackendPass::AosBackendPass(ir::InstStream *source,
                               const pa::PaContext *pa, u64 sp_modifier)
    : Pass(source, kSignWindow), _pa(pa), _spModifier(sp_modifier),
      _batch(pa)
{
    panic_if(!pa, "AOS backend pass needs a PaContext");
}

Addr
AosBackendPass::signedFor(Addr chunk_base) const
{
    const Addr *p = _signedPtrs.find(chunk_base);
    return p ? *p : chunk_base;
}

void
AosBackendPass::lowerIntrinsic(const ir::MicroOp &in, Addr signed_ptr)
{
    // Intrinsics overwrite _signedPtrs entries; drop the memo.
    _memoChunk = 0;
    if (in.kind == ir::OpKind::kAosMallocIntr) {
        // pacma ptr, sp, size ; bndstr ptr, size
        _signedPtrs[in.chunkBase] = signed_ptr;
        ir::MicroOp pacma = makeOp(ir::OpKind::kPacma, signed_ptr, in.size);
        pacma.chunkBase = in.chunkBase;
        emit(pacma);
        ir::MicroOp bndstr =
            makeOp(ir::OpKind::kBndstr, signed_ptr, in.size);
        bndstr.chunkBase = in.chunkBase;
        emit(bndstr);
        return;
    }

    // bndclr ptr ; xpacm ptr ; free() ; pacma ptr, sp, xzr
    // signed_ptr here is the xzr *re-sign*; the pointer being cleared
    // is whatever the chunk was signed with at malloc time.
    const Addr old_signed = signedFor(in.chunkBase);
    ir::MicroOp bndclr = makeOp(ir::OpKind::kBndclr, old_signed, 0);
    bndclr.chunkBase = in.chunkBase;
    emit(bndclr);
    emit(makeOp(ir::OpKind::kXpacm, old_signed));
    // (the free() body itself was already emitted by the workload
    // around the kFreeMark marker)
    _signedPtrs[in.chunkBase] = signed_ptr;
    emit(makeOp(ir::OpKind::kPacma, signed_ptr));
}

void
AosBackendPass::transformBatch(const ir::MicroOp *in, size_t n)
{
    // Prescan: every intrinsic in the window becomes one slot of a
    // single batchPac sweep (malloc signs with the allocation size,
    // free re-signs with xzr). The requests' inputs never depend on
    // pass state, so precomputing them and lowering in order emits
    // exactly the per-op sequence.
    _batch.clear();
    for (size_t i = 0; i < n; ++i) {
        if (in[i].kind == ir::OpKind::kAosMallocIntr)
            _batch.enqueue(in[i].chunkBase, _spModifier, in[i].size);
        else if (in[i].kind == ir::OpKind::kAosFreeIntr)
            _batch.enqueue(in[i].chunkBase, _spModifier, 0);
    }
    _batch.flush();
    size_t slot = 0;
    for (size_t i = 0; i < n; ++i) {
        if (in[i].kind == ir::OpKind::kAosMallocIntr ||
            in[i].kind == ir::OpKind::kAosFreeIntr)
            lowerIntrinsic(in[i], _batch.result(slot++));
        else
            transform(in[i]);
    }
}

void
AosBackendPass::transform(const ir::MicroOp &in)
{
    switch (in.kind) {
      case ir::OpKind::kAosMallocIntr:
      case ir::OpKind::kAosFreeIntr:
        // transformBatch signs and lowers every intrinsic itself.
        panic("AOS backend: intrinsic reached per-op transform");

      case ir::OpKind::kLoad:
      case ir::OpKind::kStore: {
        ir::MicroOp out = in;
        if (in.chunkBase != 0) {
            if (in.chunkBase != _memoChunk) {
                const Addr *sp = _signedPtrs.find(in.chunkBase);
                _memoChunk = in.chunkBase;
                _memoSigned = sp ? *sp : 0;
            }
            if (_memoSigned != 0) {
                // The register holding this pointer is signed; the
                // PAC/AHC upper bits ride along with the address.
                const auto &layout = _pa->layout();
                out.addr =
                    layout.compose(in.addr, layout.pac(_memoSigned),
                                   layout.ahc(_memoSigned));
            }
        }
        emit(out);
        return;
      }

      default:
        emit(in);
        return;
    }
}

} // namespace aos::compiler
