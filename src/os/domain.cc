#include "os/domain.hh"

#include <algorithm>

#include "analysis/dataflow/engine.hh"
#include "bounds/compression.hh"
#include "common/cancel.hh"
#include "common/logging.hh"
#include "common/profiler.hh"
#include "compiler/aos_passes.hh"
#include "compiler/asan_pass.hh"
#include "compiler/pa_pass.hh"
#include "compiler/watchdog_pass.hh"

namespace aos::os {

namespace {

// 46-bit VA partitioning (DESIGN.md §15): per-process ranges placed so
// no two tenants — nor any tenant and any resized HBT — ever share a
// cache line. Slot 0 keeps the single-process defaults, so a solo
// AosSystem run and a one-tenant fleet are address-identical.
constexpr Addr kHeapStride = 0x4'0000'0000ull;        //!< 16 GiB.
constexpr Addr kGlobalRegion = 0x2000'0000'0000ull;   //!< Slots > 0.
constexpr Addr kGlobalStride = 0x1'0000'0000ull;      //!< 4 GiB.
constexpr Addr kHbtStride = 0x20'0000'0000ull;        //!< 128 GiB.

} // namespace

const char *
attackKindName(AttackKind kind)
{
    switch (kind) {
      case AttackKind::kOutOfBounds: return "oob";
      case AttackKind::kPacForge: return "pac_forge";
      case AttackKind::kAhcStrip: return "ahc_strip";
      case AttackKind::kUseAfterFree: return "uaf";
      case AttackKind::kCrossTenant: return "cross_tenant";
      case AttackKind::kNumKinds: break;
    }
    return "unknown";
}

// ---------------------------------------------------------------------
// AttackStream

AttackStream::AttackStream(ir::InstStream *inner,
                           const pa::PointerLayout &layout,
                           const alloc::HeapAllocator *alloc, u64 seed,
                           u64 per_mille)
    : _inner(inner), _layout(layout), _alloc(alloc),
      _rng(0xadfeed ^ (seed * 0x9e3779b97f4a7c15ull)),
      _perMille(per_mille)
{
}

void
AttackStream::observe(const ir::MicroOp &op)
{
    if (op.kind == ir::OpKind::kPhaseMark) {
        _measuring = true;
        return;
    }
    if (op.kind == ir::OpKind::kBndclr && _layout.signed_(op.addr)) {
        // A freed chunk's signed pointer: UAF raw material.
        _freed[_freedPos] = op.addr;
        _freedPos = (_freedPos + 1) % kFreedRing;
        if (_freedCount < kFreedRing)
            ++_freedCount;
        return;
    }
    if (op.isMem() && _layout.signed_(op.addr) && op.chunkBase != 0) {
        _lastSigned = op.addr;
        _lastChunk = op.chunkBase;
    }
}

bool
AttackStream::buildAttack(ir::MicroOp &op)
{
    if (_lastSigned == 0)
        return false;

    op = ir::MicroOp();
    op.kind = _rng.chance(0.5) ? ir::OpKind::kLoad : ir::OpKind::kStore;
    op.size = 8;

    const auto kind =
        static_cast<AttackKind>(_rng.below(kNumAttackKinds));
    switch (kind) {
      case AttackKind::kOutOfBounds: {
        // Walk a validly signed pointer past its allocation: the PAC
        // still matches the chunk's row, so the MCU finds the record
        // and the range check fails (paper Fig. 12 semantics).
        const u64 size = std::max<u64>(_alloc->usableSize(_lastChunk), 8);
        op.addr = _lastSigned + size + 64;
        break;
      }
      case AttackKind::kPacForge:
        // Wrong signature: the check walks the (wrong) row and misses.
        op.addr = _layout.flipMetaBit(_lastSigned, 0);
        break;
      case AttackKind::kAhcStrip:
        // Stripped pointer: unsigned, so the MCU never checks it. The
        // per-process address space contains the access; it counts as
        // launched but is undetectable by design (xpacm rationale).
        op.addr = _layout.strip(_lastSigned);
        break;
      case AttackKind::kUseAfterFree:
        if (_freedCount == 0)
            return false;
        op.addr = _freed[_rng.below(_freedCount)];
        break;
      case AttackKind::kCrossTenant: {
        // Probe a neighbour's heap: per-process translation would
        // fault the raw access, so the attacker forges its own signed
        // pointer over the foreign VA — which its own HBT has no
        // bounds for.
        if (_foreign.empty())
            return false;
        const auto &[lo, hi] = _foreign[_rng.below(_foreign.size())];
        const Addr raw = lo + (_rng.below(hi - lo) & ~u64{7});
        op.addr = _layout.compose(raw, _layout.pac(_lastSigned),
                                  _layout.ahc(_lastSigned));
        break;
      }
      case AttackKind::kNumKinds:
        return false;
    }

    ++_stats.launched;
    ++_stats.perKind[static_cast<unsigned>(kind)];
    if (kind != AttackKind::kAhcStrip)
        ++_stats.detectable;
    return true;
}

bool
AttackStream::next(ir::MicroOp &op)
{
    if (_havePending) {
        op = _pending;
        _havePending = false;
        return true;
    }
    if (!_inner->next(op))
        return false;
    observe(op);
    if (_measuring && op.kind != ir::OpKind::kPhaseMark &&
        _rng.below(1000) < _perMille) {
        ir::MicroOp attack;
        if (buildAttack(attack)) {
            // Attack goes first; the program op it displaced follows.
            _pending = op;
            _havePending = true;
            op = attack;
        }
    }
    return true;
}

// ---------------------------------------------------------------------
// ProtectionDomain

Addr
ProtectionDomain::heapBaseFor(u32 slot)
{
    return workloads::SyntheticWorkload::kDefaultHeapBase +
           Addr{slot} * kHeapStride;
}

Addr
ProtectionDomain::globalBaseFor(u32 slot)
{
    return slot == 0 ? workloads::SyntheticWorkload::kDefaultGlobalBase
                     : kGlobalRegion + Addr{slot} * kGlobalStride;
}

Addr
ProtectionDomain::hbtBaseFor(u32 slot)
{
    return OsModel::kDefaultHbtBase + Addr{slot} * kHbtStride;
}

std::pair<Addr, Addr>
ProtectionDomain::heapRange() const
{
    const Addr base = heapBaseFor(_addressSlot);
    return {base, base + kHeapStride / 2};
}

ProtectionDomain::ProtectionDomain(u32 tenant_id, u32 slot,
                                   const pa::KeySet &keys,
                                   const TenantConfig &config,
                                   const baselines::SystemOptions &options,
                                   const pa::PaContext *pa)
    : _config(config), _addressSlot(slot), _keys(keys),
      _cancel(options.cancel)
{
    const baselines::MechanismSpec &spec = options.spec();
    const pa::PointerLayout &layout = pa->layout();

    if (spec.hasHbt) {
        const unsigned records = options.boundsCompression
                                     ? bounds::kSlotsPerWay
                                     : bounds::kWideSlotsPerWay;
        _os = std::make_unique<OsModel>(options.pacBits,
                                        options.initialHbtAssoc, records,
                                        config.policy, hbtBaseFor(slot));
    }

    _workload = std::make_unique<workloads::SyntheticWorkload>(
        config.profile, config.measureOps, config.seed, heapBaseFor(slot),
        globalBaseFor(slot));

    if (options.aosBoundsElision && spec.hasHbt) {
        fatal_if(config.measureOps == 0,
                 "bounds elision needs a bounded workload stream");
        // The synthetic stream is a pure function of its constructor
        // arguments, so abstractly interpreting a regenerated duplicate
        // is an exact model of the stream the pipeline will instrument.
        prof::Scope scope("sys.boundsplan");
        workloads::SyntheticWorkload analysis_copy(
            config.profile, config.measureOps, config.seed,
            heapBaseFor(slot), globalBaseFor(slot));
        analysis::dataflow::DataflowEngine engine(layout);
        engine.run(analysis_copy, options.cancel);
        _boundsPlan = std::make_unique<analysis::dataflow::ElisionPlan>(
            analysis::dataflow::planBoundsElision(engine));
    }

    buildPipeline(options, pa);
    _stream = _pipeline.get();

    if (options.verifyStream) {
        staticcheck::VerifierOptions verify_options;
        verify_options.layout = layout;
        verify_options.requireAosLowering = spec.hasHbt;
        verify_options.elisionPlan = _boundsPlan.get();
        _verifier =
            std::make_unique<staticcheck::StreamVerifier>(verify_options);
        _verified = std::make_unique<staticcheck::VerifyingStream>(
            _stream, _verifier.get());
        _stream = _verified.get();
    }

    if (config.adversarial) {
        _attack = std::make_unique<AttackStream>(
            _stream, layout, &_workload->allocator(), config.seed,
            config.attackPerMille);
        _stream = _attack.get();
    }

    if (config.faultTypes != 0) {
        faultinject::FaultPlanConfig plan_config;
        plan_config.types = config.faultTypes & spec.faultClasses;
        plan_config.perType = config.faultCount;
        // An unbounded stream (request mode) still needs a finite
        // op-index trigger window for the plan to be well-defined.
        plan_config.opWindow =
            config.measureOps ? config.measureOps : 1'000'000;
        // Same per-(workload, seed, faultSeed) schedule for every
        // mechanism, and bit-identical regardless of worker placement.
        plan_config.seed = config.faultSeed ^
                           Rng::hashName(config.profile.name) ^
                           config.seed;
        _faultPlan =
            std::make_unique<faultinject::FaultPlan>(plan_config);

        faultinject::InjectorEnv env;
        env.layout = layout;
        env.model = spec.protection;
        env.hbt = _os ? &_os->hbt() : nullptr;
        env.tenantId = tenant_id;
        env.inChunk = [this](Addr base, Addr addr) {
            return _workload->allocator().inBounds(base, addr);
        };
        _injector = std::make_unique<faultinject::FaultInjector>(
            *_faultPlan, env);
        // Outermost, so the op-mix counters and the stream verifier
        // observe the clean program: injected corruption models
        // hardware faults, not miscompilation.
        _faulting = std::make_unique<faultinject::FaultingStream>(
            _stream, _injector.get());
        _stream = _faulting.get();
    }
}

void
ProtectionDomain::buildPipeline(const baselines::SystemOptions &options,
                                const pa::PaContext *pa)
{
    using baselines::PassKind;
    const pa::PointerLayout &layout = pa->layout();
    _pipeline = std::make_unique<compiler::PassManager>(_workload.get());
    for (const PassKind pass : options.spec().passes) {
        switch (pass) {
          case PassKind::kWatchdog:
            _pipeline->add<compiler::WatchdogPass>();
            break;
          case PassKind::kPaOnly:
            _pipeline->add<compiler::PaPass>(compiler::PaMode::kPaOnly);
            break;
          case PassKind::kAosOpt:
            _pipeline->add<compiler::AosOptPass>();
            break;
          case PassKind::kAosBackend:
            _pipeline->add<compiler::AosBackendPass>(pa);
            break;
          case PassKind::kPaAos:
            _pipeline->add<compiler::PaPass>(compiler::PaMode::kPaAos);
            break;
          case PassKind::kBoundsElide:
            if (_boundsPlan) {
                _belide = _pipeline->add<compiler::AosBoundsElidePass>(
                    layout, _boundsPlan.get());
            }
            break;
          case PassKind::kAutmElide:
            if (options.aosElision)
                _elide = _pipeline->add<compiler::AosElidePass>(layout);
            break;
          case PassKind::kAsan:
            _pipeline->add<compiler::AsanPass>();
            break;
        }
    }
    _counter = _pipeline->add<compiler::OpCounter>(layout);
}

void
ProtectionDomain::warmup(Machine &machine)
{
    panic_if(machine.bound() != this,
             "warmup() needs the domain bound: passes sign through the "
             "machine's key registers");
    const pa::PointerLayout &layout = machine.pa().layout();
    memsim::MemorySystem &mem = machine.memory();
    cpu::OoOCore &core = machine.core();
    // Pull in blocks: one pipeline dispatch per block instead of two
    // virtual calls per op. Warmup is the bulk of a job's wall time
    // and this loop consumes tens of millions of ops, so per-op
    // dispatch overhead is measurable.
    constexpr size_t kBlock = 1024;
    std::vector<ir::MicroOp> buf(kBlock);
    for (;;) {
        // Fast-forward has no cycle loop to poll cancellation in.
        if (_cancel)
            _cancel->throwIfCancelled();
        const size_t n = _stream->nextBatch(buf.data(), kBlock);
        if (n == 0)
            break;
        for (size_t i = 0; i < n; ++i) {
            const ir::MicroOp &op = buf[i];
            switch (op.kind) {
              case ir::OpKind::kPhaseMark:
                // Ops over-pulled past the mark belong to the measured
                // phase: splice them back in front of the stream.
                if (i + 1 < n) {
                    _carry = std::make_unique<ir::CarryStream>(
                        std::vector<ir::MicroOp>(buf.begin() + i + 1,
                                                 buf.begin() + n),
                        _stream);
                    _stream = _carry.get();
                }
                return;
              case ir::OpKind::kBndstr: {
                auto &hbt = _os->hbt();
                const u64 pac = layout.pac(op.addr);
                const unsigned way = hbt.insertGrowing(
                    pac, bounds::compress(layout.strip(op.addr), op.size));
                mem.boundsAccess(hbt.wayAddr(pac, way), true);
                break;
              }
              case ir::OpKind::kBndclr:
                _os->hbt().clear(layout.pac(op.addr),
                                 layout.strip(op.addr));
                break;
              case ir::OpKind::kLoad:
              case ir::OpKind::kWdMetaLoad:
                mem.dataAccess(layout.strip(op.addr), false);
                break;
              case ir::OpKind::kStore:
              case ir::OpKind::kWdMetaStore:
                mem.dataAccess(layout.strip(op.addr), true);
                break;
              case ir::OpKind::kBranch:
                core.observeBranch(op.branchId, op.taken);
                break;
              default:
                break;
            }
        }
    }
    panic("%s: workload stream ended before the phase mark",
          _config.profile.name.c_str());
}

void
ProtectionDomain::release()
{
    if (_os)
        _os->retire();
    _carry.reset();
    _faulting.reset();
    _injector.reset();
    _faultPlan.reset();
    _attack.reset();
    _verified.reset();
    _verifier.reset();
    _pipeline.reset();
    _counter = nullptr;
    _elide = nullptr;
    _belide = nullptr;
    _boundsPlan.reset();
    _workload.reset();
    _os.reset();
    _stream = nullptr;
}

// ---------------------------------------------------------------------
// Machine

Machine::Machine(const baselines::SystemOptions &options,
                 u64 code_footprint)
{
    // Narrow the VA when a wide PAC would not fit the 64-bit layout.
    const unsigned va_bits =
        options.pacBits <= 16 ? 46 : 62 - options.pacBits;
    const pa::PointerLayout layout(options.pacBits, va_bits);
    _pa = std::make_unique<pa::PaContext>(layout);

    memsim::MemoryConfig mem_config;
    mem_config.useBoundsCache = options.usesAos() && options.useL1B;
    _mem = std::make_unique<memsim::MemorySystem>(mem_config);

    if (options.usesAos()) {
        _bwb = std::make_unique<bounds::BoundsWayBuffer>(64);
        mcu::McuConfig mcu_config;
        mcu_config.useBwb = options.useBwb;
        mcu_config.boundsForwarding = options.boundsForwarding;
        // Unbound until bind(): no table is walked before a domain is.
        _mcu = std::make_unique<mcu::MemoryCheckUnit>(
            mcu_config, layout, nullptr, _bwb.get(), _mem.get());
    }

    cpu::CoreConfig core_config;
    core_config.codeFootprint = code_footprint;
    core_config.cancel = options.cancel;
    _core = std::make_unique<cpu::OoOCore>(core_config, layout, _mem.get(),
                                           _mcu.get());
}

bool
Machine::bind(ProtectionDomain &domain)
{
    if (_bound == &domain)
        return false;
    _bound = &domain;

    // Every pacma/autm after this point signs and verifies under the
    // arriving process's keys.
    _pa->installKeys(domain.keys());

    faultinject::FaultInjector *injector = domain.injector();
    if (_mcu) {
        OsModel *os = domain.osModel();
        _mcu->bind(&os->hbt());
        _mcu->onFault = [os](mcu::FaultKind kind,
                             const mcu::McqEntry &entry) {
            return os->handleFault(kind, entry);
        };
        _mcu->faultHooks = injector;
        _bwb->invalidate();
    }
    if (injector) {
        _mem->boundsTap = [injector](Addr addr, bool write) {
            injector->onBoundsAccess(addr, write);
        };
    } else {
        _mem->boundsTap = nullptr;
    }
    return true;
}

void
Machine::unbind()
{
    _bound = nullptr;
    if (_mcu) {
        _mcu->bind(nullptr);
        _mcu->onFault = nullptr;
        _mcu->faultHooks = nullptr;
    }
    _mem->boundsTap = nullptr;
}

} // namespace aos::os
