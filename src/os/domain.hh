/**
 * @file
 * Protection domains and the machine they run on (DESIGN.md §15.1).
 *
 * A ProtectionDomain is one protected process, owning what the
 * CryptSan/PACSan per-process key model says a process owns privately:
 * its five PA keys, its OsModel and hashed bounds table, its workload
 * with allocator and heap range, and its instrumented stream (the pass
 * pipeline its MechanismSpec lists, plus the optional elision plan,
 * stream verifier, attack injector and fault injector).
 *
 * A Machine is the shared hardware of one core: PA key registers,
 * caches and DRAM, BWB, MCU and the out-of-order core. bind() is the
 * context switch. core::AosSystem is a machine bound once to one domain;
 * os::Scheduler binds N TenantContexts in turn.
 */

#ifndef AOS_OS_DOMAIN_HH
#define AOS_OS_DOMAIN_HH

#include <memory>
#include <string>
#include <vector>

#include "analysis/dataflow/elision_plan.hh"
#include "baselines/system_config.hh"
#include "bounds/bounds_way_buffer.hh"
#include "common/random.hh"
#include "compiler/aos_bounds_elide_pass.hh"
#include "compiler/aos_elide_pass.hh"
#include "compiler/op_counter.hh"
#include "compiler/pass.hh"
#include "cpu/ooo_core.hh"
#include "faultinject/fault_plan.hh"
#include "faultinject/faulting_stream.hh"
#include "faultinject/injector.hh"
#include "mcu/memory_check_unit.hh"
#include "memsim/memory_system.hh"
#include "os/os_model.hh"
#include "pa/pa_context.hh"
#include "staticcheck/stream_verifier.hh"
#include "workloads/synthetic_workload.hh"

namespace aos {
class CancelToken;
}

namespace aos::os {

/** The attack catalog an adversarial tenant draws from. */
enum class AttackKind : u8
{
    kOutOfBounds,  //!< Overflow a validly signed chunk pointer.
    kPacForge,     //!< Flip a PAC bit: signature under the wrong key.
    kAhcStrip,     //!< Clear PAC/AHC: dodge the checks entirely.
    kUseAfterFree, //!< Dangling signed pointer after bndclr.
    kCrossTenant,  //!< Probe a neighbour's heap range.
    kNumKinds,
};

inline constexpr unsigned kNumAttackKinds =
    static_cast<unsigned>(AttackKind::kNumKinds);

const char *attackKindName(AttackKind kind);

struct AttackStats
{
    u64 launched = 0;
    u64 perKind[kNumAttackKinds] = {};
    /** Attacks that are detectable by AOS (everything but AHC strip). */
    u64 detectable = 0;
};

/**
 * Stream adapter that injects attack micro-ops into an instrumented
 * tenant stream (after the phase mark, at a seeded per-mille rate).
 * Attacks are *extra* ops: the tenant's own program stream is passed
 * through untouched, so its functional behaviour stays comparable to
 * a benign run of the same profile.
 */
class AttackStream : public ir::InstStream
{
  public:
    AttackStream(ir::InstStream *inner, const pa::PointerLayout &layout,
                 const alloc::HeapAllocator *alloc, u64 seed,
                 u64 per_mille);

    /** Neighbour heap ranges for cross-tenant probes. */
    void
    setForeignRanges(std::vector<std::pair<Addr, Addr>> ranges)
    {
        _foreign = std::move(ranges);
    }

    bool next(ir::MicroOp &op) override;

    std::string name() const override { return _inner->name(); }

    const AttackStats &stats() const { return _stats; }

  private:
    void observe(const ir::MicroOp &op);
    bool buildAttack(ir::MicroOp &op);

    ir::InstStream *_inner;
    pa::PointerLayout _layout;
    const alloc::HeapAllocator *_alloc;
    Rng _rng;
    u64 _perMille;
    bool _measuring = false;
    bool _havePending = false;
    ir::MicroOp _pending;

    // Last signed heap access seen flowing by: the raw material every
    // attack is forged from (the attacker perturbs pointers it owns).
    Addr _lastSigned = 0;
    Addr _lastChunk = 0;
    // Recently bndclr'd (freed) signed pointers for UAF attacks.
    static constexpr unsigned kFreedRing = 8;
    Addr _freed[kFreedRing] = {};
    unsigned _freedPos = 0;
    unsigned _freedCount = 0;

    std::vector<std::pair<Addr, Addr>> _foreign;
    AttackStats _stats;
};

/** One protected process's configuration (a tenant, or a solo run). */
struct TenantConfig
{
    workloads::WorkloadProfile profile;
    /** Workload salt and attack/fault seed (tenants: also their keys). */
    u64 seed = 1;
    /**
     * Steady-phase source ops before the stream ends. Fixed-work mode
     * (the isolation audit) bounds this so a tenant's functional stats
     * are comparable against a solo reference; request mode leaves it
     * 0 (unbounded) and lets the arrival process bound the run.
     */
    u64 measureOps = 0;
    bool adversarial = false;
    u64 attackPerMille = 30; //!< Attack injection rate (adversarial).
    FaultPolicy policy = FaultPolicy::kReport;

    // Tenant-targeted fault injection (0 = none).
    u32 faultTypes = 0;
    u32 faultCount = 3;
    u64 faultSeed = 0;

    /**
     * Address-space slot (heap/global/HBT base selection). The default
     * uses the scheduler slot the tenant lands in; the isolation audit
     * pins it so a solo reference run occupies the same addresses as
     * the fleet run it is compared against.
     */
    static constexpr u32 kAutoSlot = 0xffffffffu;
    u32 addressSlot = kAutoSlot;
};

class Machine;

/** One protected process: private state plus its instrumented stream. */
class ProtectionDomain
{
  public:
    /**
     * @param tenant_id Tag on this domain's FaultEvents (0 = outside a
     *        fleet).
     * @param slot Address-space slot: heap, global and HBT bases.
     * @param keys PA keys the machine installs when binding the domain.
     * @param config Workload, seed, OS policy, attack and fault knobs.
     * @param options Machine options: the mechanism spec, PAC width,
     *        HBT shape, elision/verifier toggles and the cancel token.
     * @param pa The machine's signing context (the core's key
     *        registers), which the AOS backend pass signs through.
     */
    ProtectionDomain(u32 tenant_id, u32 slot, const pa::KeySet &keys,
                     const TenantConfig &config,
                     const baselines::SystemOptions &options,
                     const pa::PaContext *pa);
    // The injector's chunk lookup holds this domain's address.
    ProtectionDomain(const ProtectionDomain &) = delete;
    ProtectionDomain &operator=(const ProtectionDomain &) = delete;

    const TenantConfig &config() const { return _config; }
    const pa::KeySet &keys() const { return _keys; }
    /** This domain's heap range [lo, hi) for neighbours' probes. */
    std::pair<Addr, Addr> heapRange() const;

    // Null once released, and where the mechanism has no such part.
    OsModel *osModel() const { return _os.get(); }
    const compiler::OpCounter *counter() const { return _counter; }
    const compiler::AosElidePass *autmElide() const { return _elide; }
    const analysis::dataflow::ElisionPlan *boundsPlan() const
    {
        return _boundsPlan.get();
    }
    const compiler::AosBoundsElidePass *boundsElide() const
    {
        return _belide;
    }
    const staticcheck::StreamVerifier *verifier() const
    {
        return _verifier.get();
    }
    AttackStream *attack() const { return _attack.get(); }
    faultinject::FaultInjector *injector() const { return _injector.get(); }
    /** What the core consumes: the outermost stream adapter. */
    ir::InstStream *stream() const { return _stream; }

    /**
     * Fast-forward the warmup (heap build-up) functionally on
     * @p machine, which must have this domain bound: bounds are
     * inserted, caches and the branch predictor warmed, up to the
     * phase mark. Ops pulled past the mark are re-served to the core.
     * Polls the cancel token once per batch.
     */
    void warmup(Machine &machine);

    /**
     * Deterministic teardown, in dependency order: the OS releases the
     * HBT storage, then stream adapters, pipeline and the workload
     * (with its allocator and heap) are freed.
     */
    void release();

    /** Per-slot address-space placement (46-bit VA partitioning). */
    static Addr heapBaseFor(u32 slot);
    static Addr globalBaseFor(u32 slot);
    static Addr hbtBaseFor(u32 slot);

  private:
    void buildPipeline(const baselines::SystemOptions &options,
                       const pa::PaContext *pa);

    TenantConfig _config;
    u32 _addressSlot;
    pa::KeySet _keys;
    const CancelToken *_cancel;

    std::unique_ptr<OsModel> _os;
    std::unique_ptr<workloads::SyntheticWorkload> _workload;
    std::unique_ptr<analysis::dataflow::ElisionPlan> _boundsPlan;
    std::unique_ptr<compiler::PassManager> _pipeline;
    compiler::OpCounter *_counter = nullptr;
    compiler::AosElidePass *_elide = nullptr;
    compiler::AosBoundsElidePass *_belide = nullptr;
    std::unique_ptr<staticcheck::StreamVerifier> _verifier;
    std::unique_ptr<staticcheck::VerifyingStream> _verified;
    std::unique_ptr<AttackStream> _attack;
    std::unique_ptr<faultinject::FaultPlan> _faultPlan;
    std::unique_ptr<faultinject::FaultInjector> _injector;
    std::unique_ptr<faultinject::FaultingStream> _faulting;
    std::unique_ptr<ir::CarryStream> _carry;
    ir::InstStream *_stream = nullptr;
};

/** The shared hardware of one core, bound to one domain at a time. */
class Machine
{
  public:
    /**
     * @param options Mechanism spec (whether the AOS hardware exists),
     *        PAC width, L1-B/BWB/forwarding toggles and cancel token.
     * @param code_footprint The core's synthetic instruction footprint.
     */
    explicit Machine(const baselines::SystemOptions &options,
                     u64 code_footprint = cpu::CoreConfig().codeFootprint);

    /**
     * The context switch (the CryptSan/PACSan key swap): install
     * @p domain's keys, rebind the MCU to its HBT, OS fault handler and
     * fault hooks, point the bounds tap at its injector, and invalidate
     * the BWB, whose way predictions are keyed by PAC values that mean
     * something only under one process's keys and table. Cache and DRAM
     * state carries over. Returns false, doing nothing, when @p domain
     * is already bound.
     */
    bool bind(ProtectionDomain &domain);
    /** Park the machine with no domain bound. */
    void unbind();
    ProtectionDomain *bound() const { return _bound; }

    pa::PaContext &pa() { return *_pa; }
    memsim::MemorySystem &memory() { return *_mem; }
    cpu::OoOCore &core() { return *_core; }
    const cpu::OoOCore &core() const { return *_core; }
    mcu::MemoryCheckUnit *mcu() { return _mcu.get(); }
    bounds::BoundsWayBuffer *bwb() { return _bwb.get(); }

  private:
    std::unique_ptr<pa::PaContext> _pa;
    std::unique_ptr<memsim::MemorySystem> _mem;
    std::unique_ptr<bounds::BoundsWayBuffer> _bwb;
    std::unique_ptr<mcu::MemoryCheckUnit> _mcu;
    std::unique_ptr<cpu::OoOCore> _core;
    ProtectionDomain *_bound = nullptr;
};

} // namespace aos::os

#endif // AOS_OS_DOMAIN_HH
