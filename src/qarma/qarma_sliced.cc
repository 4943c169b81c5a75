#include "qarma/qarma_sliced.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/random.hh"

namespace aos::qarma {

namespace {

/** The portable 128-lane plane word; lowered to SSE2/NEON. */
typedef u64 Vec128 __attribute__((vector_size(16)));

/**
 * One GF(2)-linear layer over the 64 bit-planes: output plane o is the
 * XOR of srcs[o][0..nsrc[o]). MixColumns contributes at most three
 * terms per bit (the three nonzero rho-powers of one column), the
 * tweak LFSR at most two.
 */
struct LinTab
{
    u8 nsrc[64];
    u8 src[64][3];
};

/** The 4-bit S-box pair for one sigma instance. */
struct SboxTab
{
    u8 fwd[16];
    u8 inv[16];
};

struct LinTabs
{
    LinTab fwdLin;   //!< mixColumns ∘ shuffleCells (forward full round).
    LinTab bwdLin;   //!< shuffleCellsInv ∘ mixColumns (backward round).
    LinTab reflLin;  //!< shuffleCellsInv ∘ mixColumns ∘ shuffleCells.
    LinTab fwdTweak; //!< forwardTweak.
    LinTab bwdTweak; //!< backwardTweak.
};

/** In-place butterfly transpose: bit j of out[p] = bit p of in[j]. */
inline void
transpose64(u64 a[64])
{
    for (unsigned j = 32; j != 0; j >>= 1) {
        const u64 m = ~u64{0} / ((u64{1} << j) + 1);
        for (unsigned k = 0; k < 64; k = (k + j + 1) & ~j) {
            const u64 t = ((a[k] >> j) ^ a[k + j]) & m;
            a[k + j] ^= t;
            a[k] ^= t << j;
        }
    }
}

/**
 * XOR a batch-constant word in: bit b set complements plane b. The
 * all-ones/all-zeros plane mask is computed branchlessly, and inline
 * rather than in a helper: a helper returning an 8x64 vector by value
 * would change the ABI for non-AVX-512 callers (-Wpsabi).
 */
template <typename W>
inline void
xorConst(W *p, u64 c)
{
    for (unsigned b = 0; b < 64; ++b)
        p[b] ^= W{} + (u64{0} - ((c >> b) & 1));
}

/** One fused pass for s ^= tweak-planes ^ batch-constant. */
template <typename W>
inline void
xorTweakey(W *s, const W *t, u64 c)
{
    for (unsigned b = 0; b < 64; ++b)
        s[b] ^= t[b] ^ (W{} + (u64{0} - ((c >> b) & 1)));
}

template <typename W>
inline void
applyLinear(const LinTab &tab, W *p)
{
    W tmp[64];
    for (unsigned b = 0; b < 64; ++b)
        tmp[b] = p[b];
    for (unsigned o = 0; o < 64; ++o) {
        W acc = tmp[tab.src[o][0]];
        for (unsigned k = 1; k < tab.nsrc[o]; ++k)
            acc ^= tmp[tab.src[o][k]];
        p[o] = acc;
    }
}

/**
 * The S-box as a minterm network: per cell, the 16 products of the
 * four input planes and their complements select which inputs map to
 * each value; output plane k ORs the (disjoint) minterms whose S-box
 * image has bit k set.
 */
template <typename W>
inline void
subLayer(const u8 *box, W *p)
{
    for (unsigned g = 0; g < 16; ++g) {
        W *q = p + 4 * g;
        const W a0 = q[0], a1 = q[1], a2 = q[2], a3 = q[3];
        const W n0 = ~a0, n1 = ~a1, n2 = ~a2, n3 = ~a3;
        const W lo[4] = {n1 & n0, n1 & a0, a1 & n0, a1 & a0};
        const W hi[4] = {n3 & n2, n3 & a2, a3 & n2, a3 & a2};
        W o0{}, o1{}, o2{}, o3{};
        for (unsigned v = 0; v < 16; ++v) {
            const W m = hi[v >> 2] & lo[v & 3];
            const u8 s = box[v];
            if (s & 1)
                o0 |= m;
            if (s & 2)
                o1 |= m;
            if (s & 4)
                o2 |= m;
            if (s & 8)
                o3 |= m;
        }
        q[0] = o0;
        q[1] = o1;
        q[2] = o2;
        q[3] = o3;
    }
}

/**
 * Encrypt one chunk of up to 64 * sizeof(W)/8 blocks, mirroring
 * Qarma64::encrypt step for step in the plane domain. Whitening with
 * w0/w1 happens lane-wise around the transposes (cheaper than two
 * plane passes).
 */
template <typename W>
void
encryptChunk(const LinTabs &lt, const SboxTab &sb, unsigned rounds,
             const Qarma64::Schedule &ks, const u64 *pt, const u64 *tw,
             size_t n, u64 *ct)
{
    constexpr unsigned kSubWords = sizeof(W) / sizeof(u64);
    W state[64]{}, tweak[64]{};
    u64 buf[64];

    for (unsigned s = 0; s < kSubWords; ++s) {
        for (unsigned j = 0; j < 64; ++j) {
            const size_t idx = s * u64{64} + j;
            buf[j] = idx < n ? (pt[idx] ^ ks.w0) : 0;
        }
        transpose64(buf);
        for (unsigned p = 0; p < 64; ++p)
            state[p][s] = buf[p];
        for (unsigned j = 0; j < 64; ++j) {
            const size_t idx = s * u64{64} + j;
            buf[j] = idx < n ? tw[idx] : 0;
        }
        transpose64(buf);
        for (unsigned p = 0; p < 64; ++p)
            tweak[p][s] = buf[p];
    }

    for (unsigned i = 0; i < rounds; ++i) {
        xorTweakey(state, tweak, ks.k0 ^ Qarma64::roundConst(i));
        if (i != 0)
            applyLinear(lt.fwdLin, state);
        subLayer(sb.fwd, state);
        applyLinear(lt.fwdTweak, tweak);
    }

    xorTweakey(state, tweak, ks.w1);
    applyLinear(lt.fwdLin, state);
    subLayer(sb.fwd, state);

    applyLinear(lt.reflLin, state);
    xorConst(state, Qarma64::shuffleCellsInv(ks.k1));

    subLayer(sb.inv, state);
    applyLinear(lt.bwdLin, state);
    xorTweakey(state, tweak, ks.w0);

    for (unsigned i = rounds; i-- > 0;) {
        applyLinear(lt.bwdTweak, tweak);
        subLayer(sb.inv, state);
        if (i != 0)
            applyLinear(lt.bwdLin, state);
        xorTweakey(state, tweak,
                   ks.k0 ^ Qarma64::roundConst(i) ^ Qarma64::alpha());
    }

    for (unsigned s = 0; s < kSubWords; ++s) {
        for (unsigned p = 0; p < 64; ++p)
            buf[p] = state[p][s];
        transpose64(buf);
        for (unsigned j = 0; j < 64; ++j) {
            const size_t idx = s * u64{64} + j;
            if (idx < n)
                ct[idx] = buf[j] ^ ks.w1;
        }
    }
}

#if defined(__x86_64__)
typedef u64 Vec512 __attribute__((vector_size(64)));

/**
 * The same kernel over 8x64 vector planes. flatten inlines the whole
 * template into this one function, so all of it is compiled for
 * AVX-512 while the rest of the file stays runnable on any x86-64.
 */
__attribute__((target("avx512f"), flatten)) void
encryptChunk512(const LinTabs &lt, const SboxTab &sb, unsigned rounds,
                const Qarma64::Schedule &ks, const u64 *pt, const u64 *tw,
                size_t n, u64 *ct)
{
    encryptChunk<Vec512>(lt, sb, rounds, ks, pt, tw, n, ct);
}
#endif

bool
hostHasAvx512()
{
#if defined(__x86_64__)
    return __builtin_cpu_supports("avx512f");
#else
    return false;
#endif
}

/**
 * Encrypt one chunk of n <= @p lanes blocks on the @p lanes-wide
 * kernel: 128, or 512 when hostHasAvx512().
 */
void
encryptLanes(unsigned lanes, const LinTabs &lt, const SboxTab &sb,
             unsigned rounds, const Qarma64::Schedule &ks, const u64 *pt,
             const u64 *tw, size_t n, u64 *ct)
{
#if defined(__x86_64__)
    if (lanes == 512) {
        encryptChunk512(lt, sb, rounds, ks, pt, tw, n, ct);
        return;
    }
#endif
    encryptChunk<Vec128>(lt, sb, rounds, ks, pt, tw, n, ct);
}

// ---------------------------------------------------------------------
// Plane-network tables, derived from the scalar implementation.
// ---------------------------------------------------------------------

/**
 * Probe @p f with every single-bit input to recover its matrix, and
 * verify GF(2)-linearity on random pairs so a non-linear layer can
 * never be silently mis-sliced.
 */
LinTab
deriveLinear(u64 (*f)(u64), const char *what)
{
    u64 col[64];
    for (unsigned i = 0; i < 64; ++i)
        col[i] = f(u64{1} << i);

    panic_if(f(0) != 0, "qarma sliced: %s is not linear (f(0) != 0)",
             what);
    Rng rng(0x51ced0001ull);
    for (unsigned trial = 0; trial < 16; ++trial) {
        const u64 a = rng.next(), b = rng.next();
        panic_if(f(a ^ b) != (f(a) ^ f(b)),
                 "qarma sliced: %s is not GF(2)-linear", what);
    }

    LinTab tab{};
    for (unsigned o = 0; o < 64; ++o) {
        unsigned n = 0;
        for (unsigned i = 0; i < 64; ++i) {
            if ((col[i] >> o) & 1) {
                panic_if(n >= 3,
                         "qarma sliced: %s has >3 terms for bit %u",
                         what, o);
                tab.src[o][n++] = static_cast<u8>(i);
            }
        }
        panic_if(n == 0, "qarma sliced: %s drops bit %u", what, o);
        tab.nsrc[o] = static_cast<u8>(n);
    }
    return tab;
}

u64
probeFwdLin(u64 x)
{
    return Qarma64::mixColumns(Qarma64::shuffleCells(x));
}

u64
probeBwdLin(u64 x)
{
    return Qarma64::shuffleCellsInv(Qarma64::mixColumns(x));
}

u64
probeReflLin(u64 x)
{
    return Qarma64::shuffleCellsInv(
        Qarma64::mixColumns(Qarma64::shuffleCells(x)));
}

// ---------------------------------------------------------------------
// 64x64 bit transpose (lane-major words <-> bit planes).
// ---------------------------------------------------------------------

void
verifyTranspose()
{
    Rng rng(0x51ced0002ull);
    u64 a[64], ref[64];
    for (unsigned i = 0; i < 64; ++i)
        ref[i] = a[i] = rng.next();
    transpose64(a);
    for (unsigned p = 0; p < 64; ++p) {
        for (unsigned j = 0; j < 64; ++j) {
            panic_if(((a[p] >> j) & 1) != ((ref[j] >> p) & 1),
                     "qarma sliced: transpose self-check failed");
        }
    }
}

const LinTabs &
linTabs()
{
    static const LinTabs tabs = [] {
        verifyTranspose();
        LinTabs t;
        t.fwdLin = deriveLinear(probeFwdLin, "mix∘shuffle");
        t.bwdLin = deriveLinear(probeBwdLin, "shuffleInv∘mix");
        t.reflLin = deriveLinear(probeReflLin, "reflector");
        t.fwdTweak = deriveLinear(Qarma64::forwardTweak, "forward tweak");
        t.bwdTweak = deriveLinear(Qarma64::backwardTweak, "backward tweak");
        return t;
    }();
    return tabs;
}

/**
 * Per-sigma S-box tables recovered by probing the scalar subCells on
 * single-cell values, followed by a one-time end-to-end check of the
 * sliced kernel against the scalar cipher for that sigma.
 */
SboxTab
makeSboxTab(Sbox sbox)
{
    const unsigned idx = static_cast<unsigned>(sbox);
    SboxTab tab{};
    const Qarma64 probe(sbox, 7);
    for (unsigned v = 0; v < 16; ++v) {
        // Feeding a single-nibble value puts it in cell 15 (the LSB
        // nibble), so the LSB nibble of the output is its image.
        tab.fwd[v] = static_cast<u8>(probe.subCells(v) & 0xf);
        tab.inv[v] = static_cast<u8>(probe.subCellsInv(v) & 0xf);
    }
    // End-to-end self-check: one full chunk of every width encrypt()
    // can dispatch to against the scalar cipher, for the round counts
    // AOS instantiates.
    Rng rng(0x51ced0003ull ^ idx);
    u64 pt[512], tw[512], ct[512];
    for (unsigned j = 0; j < 512; ++j) {
        pt[j] = rng.next();
        tw[j] = rng.next();
    }
    for (unsigned r : {5u, 7u}) {
        const Qarma64 scalar(sbox, r);
        const auto ks = Qarma64::expandKey({rng.next(), rng.next()});
        for (const unsigned lanes : {128u, 512u}) {
            if (lanes == 512 && !hostHasAvx512())
                continue;
            encryptLanes(lanes, linTabs(), tab, r, ks, pt, tw, lanes, ct);
            for (unsigned j = 0; j < lanes; ++j) {
                panic_if(ct[j] != scalar.encrypt(pt[j], tw[j], ks),
                         "qarma sliced: %u-lane kernel disagrees with "
                         "scalar (sigma%u, r=%u, lane %u)",
                         lanes, idx, r, j);
            }
        }
    }
    return tab;
}

const SboxTab &
sboxTab(Sbox sbox)
{
    switch (sbox) {
      case Sbox::kSigma0: {
        static const SboxTab tab = makeSboxTab(Sbox::kSigma0);
        return tab;
      }
      case Sbox::kSigma1: {
        static const SboxTab tab = makeSboxTab(Sbox::kSigma1);
        return tab;
      }
      case Sbox::kSigma2: {
        static const SboxTab tab = makeSboxTab(Sbox::kSigma2);
        return tab;
      }
    }
    panic("invalid QARMA S-box selector");
}

} // namespace

QarmaSliced::QarmaSliced(Sbox sbox, unsigned rounds)
    : _sbox(sbox), _rounds(rounds),
      _kernel(hostHasAvx512() ? SlicedKernel::kSimd512
                              : SlicedKernel::kSimd128),
      _scalar(sbox, rounds)
{
    // Force table derivation (and its self-checks) up front.
    linTabs();
    sboxTab(sbox);
}

void
QarmaSliced::encrypt(const u64 *pt, const u64 *tw, size_t n,
                     const Qarma64::Schedule &ks, u64 *ct) const
{
    // Per-chunk cut-offs from bench/micro_qarma's BM_QarmaBatch sweep
    // (DESIGN.md §14.2). A 128-lane chunk costs about as much as 65
    // scalar blocks. A 512-lane chunk costs less than two 128-lane
    // chunks, so it takes over as soon as one 128-lane chunk is full.
    constexpr size_t kMin128 = 64;
    constexpr size_t kMin512 = 129;

    const LinTabs &lt = linTabs();
    const SboxTab &sb = sboxTab(_sbox);
    size_t i = 0;
    while (n - i >= kMin128) {
        const unsigned lanes =
            _kernel == SlicedKernel::kSimd512 && n - i >= kMin512 ? 512
                                                                  : 128;
        const size_t take = std::min<size_t>(lanes, n - i);
        encryptLanes(lanes, lt, sb, _rounds, ks, pt + i, tw + i, take,
                     ct + i);
        i += take;
    }
    for (; i < n; ++i)
        ct[i] = _scalar.encrypt(pt[i], tw[i], ks);
}

} // namespace aos::qarma
