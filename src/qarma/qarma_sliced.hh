/**
 * @file
 * Batched bit-sliced QARMA-64 (DESIGN.md §14).
 *
 * The scalar Qarma64 signs one 64-bit block at a time; the PAC batch
 * path (pa::PaContext::batchPac) signs whole windows of pointers under
 * one key. The sliced kernel transposes a chunk of blocks into 64
 * bit-planes — plane p holds bit p of every block — and evaluates the
 * cipher once over the planes: the cell shuffle, MixColumns and the
 * tweak update become plane-permutation/XOR networks, the S-box
 * becomes a 16-term minterm gate network per cell, and key/round
 * constants (equal across the batch) reduce to conditional plane
 * complements.
 *
 * All linear layers are *derived from the scalar implementation* at
 * first use: each is probed with single-bit inputs and verified for
 * GF(2)-linearity, so the sliced kernel is bit-exact with Qarma64 by
 * construction, not by parallel maintenance. The frozen PAC vectors
 * and the batch-vs-scalar property test in tests/pac_vectors_test.cc
 * pin this down.
 *
 * Three paths, chosen per chunk by how many blocks remain:
 *  - a 512-lane chunk (one template instantiation over an 8x64
 *    generic vector, compiled for AVX-512 through a target attribute)
 *    when more than 128 remain and the host has avx512f;
 *  - a 128-lane chunk over a 2x64 generic vector (SSE2/NEON) when at
 *    least 64 remain;
 *  - the scalar Qarma64 otherwise, which also serves as the reference.
 * The cut-offs come from bench/micro_qarma's BM_QarmaBatch sweep.
 */

#ifndef AOS_QARMA_QARMA_SLICED_HH
#define AOS_QARMA_QARMA_SLICED_HH

#include <cstddef>

#include "qarma/qarma64.hh"

namespace aos::qarma {

/** The widest kernel a QarmaSliced instance dispatches to. */
enum class SlicedKernel
{
    kAuto,     //!< Never reported; kept only for simbench's provenance.
    kScalar,   //!< Never reported; kept only for simbench's provenance.
    kSliced64, //!< Never reported; kept only for simbench's provenance.
    kSimd128,  //!< 128-lane bit-sliced over 2x64 vector planes.
    kSimd512,  //!< 512-lane bit-sliced over 8x64 vector planes (AVX-512).
};

/** Batched QARMA-64 encryption, bit-exact with Qarma64. */
class QarmaSliced
{
  public:
    /**
     * @param sbox S-box family (must match the scalar instance).
     * @param rounds Forward rounds r.
     */
    explicit QarmaSliced(Sbox sbox = Sbox::kSigma1, unsigned rounds = 7);

    /**
     * Encrypt @p n blocks: ct[i] = Qarma64::encrypt(pt[i], tw[i], ks).
     * Arbitrary n; each chunk goes to the path its remaining size
     * picks. In-place operation (ct == pt) is allowed.
     */
    void encrypt(const u64 *pt, const u64 *tw, size_t n,
                 const Qarma64::Schedule &ks, u64 *ct) const;

    /** kSimd512 on an avx512f host, kSimd128 otherwise. */
    SlicedKernel kernel() const { return _kernel; }

  private:
    Sbox _sbox;
    unsigned _rounds;
    SlicedKernel _kernel;
    Qarma64 _scalar;
};

} // namespace aos::qarma

#endif // AOS_QARMA_QARMA_SLICED_HH
