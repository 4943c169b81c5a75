/**
 * @file
 * The five evaluated system configurations (paper SVIII):
 *
 *   Baseline  — no security features;
 *   Watchdog  — prior hardware bounds + use-after-free checking via
 *               check/metadata micro-ops and 24-byte records;
 *   PA        — Liljestrand-style code- and data-pointer integrity;
 *   AOS       — this paper's bounds-checking mechanism;
 *   PA+AOS    — AOS integrated with pointer integrity (SVII-B).
 *
 * Plus the AOS optimization toggles ablated in Fig. 15 and the DESIGN.md
 * extras (BWB off, forwarding off).
 */

#ifndef AOS_BASELINES_SYSTEM_CONFIG_HH
#define AOS_BASELINES_SYSTEM_CONFIG_HH

#include <span>
#include <string_view>

#include "common/types.hh"
#include "faultinject/fault.hh"

namespace aos {
class CancelToken;
}

namespace aos::baselines {

enum class Mechanism
{
    kBaseline,
    kWatchdog,
    kPa,
    kAos,
    kPaAos,
    kAsan, //!< ASan-style software checking (motivation, SI).
};

/**
 * One instrumentation pass of a mechanism's pipeline, in the order the
 * pipeline runs them (os::ProtectionDomain builds the passes; the
 * OpCounter always follows the last one).
 */
enum class PassKind : u8
{
    kWatchdog,    //!< WatchdogPass.
    kPaOnly,      //!< PaPass, PA-only mode.
    kAosOpt,      //!< AosOptPass.
    kAosBackend,  //!< AosBackendPass: pacma/bndstr/bndclr lowering.
    kPaAos,       //!< PaPass, PA+AOS mode.
    kBoundsElide, //!< AosBoundsElidePass, with options.aosBoundsElision.
    kAutmElide,   //!< AosElidePass, with options.aosElision.
    kAsan,        //!< AsanPass.
};

/**
 * Everything the simulator knows about one mechanism, in one table row:
 * a new backend is one row here plus its pass.
 */
struct MechanismSpec
{
    Mechanism mech;
    const char *name; //!< Stat prefixes, campaign JSON, command lines.
    std::span<const PassKind> passes;
    bool hasHbt; //!< HBT, MCU, BWB and L1-B: the AOS hardware.
    bool usesPa; //!< Pointer-integrity signing of pointers.
    faultinject::ProtectionModel protection; //!< Fault grading model.
    u32 faultClasses; //!< Applicable faultinject::FaultType bits.
};

/** The table, indexed by Mechanism value. */
std::span<const MechanismSpec> mechanismSpecs();
const MechanismSpec &mechanismSpec(Mechanism mech);
/** Case-insensitive lookup by name; null when no row matches. */
const MechanismSpec *mechanismByName(std::string_view name);

inline const char *
mechanismName(Mechanism mech)
{
    return mechanismSpec(mech).name;
}

/** Full system configuration for one simulation run. */
struct SystemOptions
{
    Mechanism mech = Mechanism::kAos;

    // AOS optimization toggles (Fig. 15 + extra ablations).
    bool boundsCompression = true;
    bool useL1B = true;
    bool useBwb = true;
    bool boundsForwarding = true;

    unsigned pacBits = 16;       //!< Table IV.
    unsigned initialHbtAssoc = 1;//!< Table IV (empirical).

    u64 measureOps = 1'000'000;  //!< Committed micro-ops to simulate.

    /**
     * Extra workload-RNG entropy (src/campaign job seeds). The
     * synthetic stream is a pure function of (profile, seedSalt), so
     * two runs with equal options are bit-identical regardless of
     * which thread executes them.
     */
    u64 seedSalt = 0;

    // Static-analysis layer (DESIGN.md "Static analysis layer").
    bool aosElision = false;  //!< Elide provably-redundant autm ops.
    /**
     * Dataflow-driven bounds elision (DESIGN.md §11): drop the whole
     * pacma/bndstr/bndclr/autm quadruple for chunks the abstract
     * interpreter proves non-escaping with all accesses in bounds.
     */
    bool aosBoundsElision = false;
    bool verifyStream = false;//!< Lint the instrumented stream online.

    /**
     * Cooperative-cancellation token polled by the simulation loops
     * (common/cancel.hh); null disables the checks. Not owned. Raises
     * CancelledException from the core, the warmup loop and the
     * bounds-elision analysis — callers (the campaign engine) map it
     * to kTimeout/kCancelled.
     */
    const CancelToken *cancel = nullptr;

    // Fault injection (DESIGN.md §8). faultTypes is a bitmask of
    // faultinject::FaultType bits; zero disarms the injector. Bits
    // outside the mechanism's MechanismSpec::faultClasses are dropped.
    u32 faultTypes = 0;       //!< Which fault classes to schedule.
    unsigned faultCount = 1;  //!< Scheduled faults per selected class.
    u64 faultSeed = 0;        //!< Fault-plan RNG seed.

    const MechanismSpec &spec() const { return mechanismSpec(mech); }
    bool usesAos() const { return spec().hasHbt; }
    bool usesPa() const { return spec().usesPa; }
};

} // namespace aos::baselines

#endif // AOS_BASELINES_SYSTEM_CONFIG_HH
