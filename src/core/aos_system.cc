#include "core/aos_system.hh"

#include <exception>

#include "common/cancel.hh"
#include "common/profiler.hh"

namespace aos::core {

namespace {

ir::OpMixStats
mixDelta(const ir::OpMixStats &after, const ir::OpMixStats &before)
{
    ir::OpMixStats delta;
    delta.total = after.total - before.total;
    delta.unsignedLoads = after.unsignedLoads - before.unsignedLoads;
    delta.unsignedStores = after.unsignedStores - before.unsignedStores;
    delta.signedLoads = after.signedLoads - before.signedLoads;
    delta.signedStores = after.signedStores - before.signedStores;
    delta.boundsOps = after.boundsOps - before.boundsOps;
    delta.pacOps = after.pacOps - before.pacOps;
    delta.autms = after.autms - before.autms;
    delta.branches = after.branches - before.branches;
    delta.wdOps = after.wdOps - before.wdOps;
    return delta;
}

} // namespace

StatSet
RunResult::toStatSet() const
{
    StatSet set(workload + "." + baselines::mechanismName(mech));
    set.scalar("cycles") = static_cast<double>(core.cycles);
    set.scalar("committed_ops") = static_cast<double>(core.committed);
    set.scalar("ipc") = core.ipc();
    set.scalar("loads") = static_cast<double>(core.loads);
    set.scalar("stores") = static_cast<double>(core.stores);
    set.scalar("branches") = static_cast<double>(core.branches);
    set.scalar("branch_mpki") = branchMpki;
    set.scalar("rob_full_stalls") = static_cast<double>(core.robFullStalls);
    set.scalar("lsq_full_stalls") = static_cast<double>(core.lsqFullStalls);
    set.scalar("mcq_full_stalls") = static_cast<double>(core.mcqFullStalls);
    set.scalar("retire_delayed") = static_cast<double>(core.retireDelayed);
    set.scalar("network_traffic_bytes") =
        static_cast<double>(networkTraffic);
    set.scalar("dram_accesses") = static_cast<double>(dramAccesses);
    set.scalar("dram_writes") = static_cast<double>(dramWrites);
    set.scalar("mix_total") = static_cast<double>(mix.total);
    set.scalar("mix_signed_loads") = static_cast<double>(mix.signedLoads);
    set.scalar("mix_signed_stores") =
        static_cast<double>(mix.signedStores);
    set.scalar("mix_unsigned_loads") =
        static_cast<double>(mix.unsignedLoads);
    set.scalar("mix_unsigned_stores") =
        static_cast<double>(mix.unsignedStores);
    set.scalar("mix_bounds_ops") = static_cast<double>(mix.boundsOps);
    set.scalar("mix_pac_ops") = static_cast<double>(mix.pacOps);
    set.scalar("mix_autms") = static_cast<double>(mix.autms);
    set.scalar("mcu_checked_ops") =
        static_cast<double>(mcuStats.checkedOps);
    set.scalar("mcu_unchecked_ops") =
        static_cast<double>(mcuStats.uncheckedOps);
    set.scalar("mcu_ways_per_check") = mcuStats.avgWaysPerCheck();
    set.scalar("mcu_forwards") = static_cast<double>(mcuStats.forwards);
    set.scalar("mcu_replays") = static_cast<double>(mcuStats.replays);
    set.scalar("bwb_hit_rate") = bwb.hitRate();
    set.scalar("hbt_inserts") = static_cast<double>(hbt.inserts);
    set.scalar("hbt_clears") = static_cast<double>(hbt.clears);
    set.scalar("hbt_occupied") = static_cast<double>(hbt.occupied);
    set.scalar("hbt_resizes") = static_cast<double>(hbt.resizes);
    set.scalar("violations") = static_cast<double>(violations);
    if (elide.autmSeen) {
        set.scalar("elide_autm_seen") = static_cast<double>(elide.autmSeen);
        set.scalar("elide_autm_elided") =
            static_cast<double>(elide.autmElided);
        set.scalar("elide_autm_kept") = static_cast<double>(elide.autmKept);
        set.scalar("elide_invalidations") =
            static_cast<double>(elide.invalidations);
        set.scalar("elide_rate") = elide.elisionRate();
    }
    if (belide.bndstrSeen) {
        set.scalar("belide_chunks_seen") =
            static_cast<double>(belidePlan.chunksSeen);
        set.scalar("belide_chunks_elided") =
            static_cast<double>(belidePlan.chunksElided);
        set.scalar("belide_plan_rate") = belidePlan.elisionRate();
        set.scalar("belide_reject_escaped") =
            static_cast<double>(belidePlan.rejectEscaped);
        set.scalar("belide_reject_oob") =
            static_cast<double>(belidePlan.rejectOutOfBounds);
        set.scalar("belide_reject_widened") =
            static_cast<double>(belidePlan.rejectWidened);
        set.scalar("belide_reject_temporal") =
            static_cast<double>(belidePlan.rejectTemporal);
        set.scalar("belide_reject_zero_size") =
            static_cast<double>(belidePlan.rejectZeroSize);
        set.scalar("belide_pacma_seen") =
            static_cast<double>(belide.pacmaSeen);
        set.scalar("belide_pacma_elided") =
            static_cast<double>(belide.pacmaElided);
        set.scalar("belide_bndstr_seen") =
            static_cast<double>(belide.bndstrSeen);
        set.scalar("belide_bndstr_elided") =
            static_cast<double>(belide.bndstrElided);
        set.scalar("belide_bndstr_rate") = belide.bndstrElisionRate();
        set.scalar("belide_bndclr_seen") =
            static_cast<double>(belide.bndclrSeen);
        set.scalar("belide_bndclr_elided") =
            static_cast<double>(belide.bndclrElided);
        set.scalar("belide_xpacm_elided") =
            static_cast<double>(belide.xpacmElided);
        set.scalar("belide_autm_elided") =
            static_cast<double>(belide.autmElided);
        set.scalar("belide_accesses_stripped") =
            static_cast<double>(belide.accessesStripped);
    }
    if (verified) {
        set.scalar("verify_total") =
            static_cast<double>(verifyDiagnostics);
        set.scalar("verify_suppressed") =
            static_cast<double>(verifySuppressed);
        for (const auto &[rule, count] : verifyRuleCounts) {
            set.scalar(std::string("verify_") + staticcheck::ruleId(rule) +
                       "_" + staticcheck::ruleName(rule)) =
                static_cast<double>(count);
        }
    }
    if (faults.armed) {
        set.scalar("fault_scheduled") =
            static_cast<double>(faults.scheduled);
        set.scalar("fault_injected") = static_cast<double>(faults.injected);
        set.scalar("fault_detected_autm") =
            static_cast<double>(faults.detectedAutm);
        set.scalar("fault_detected_bounds") =
            static_cast<double>(faults.detectedBounds);
        set.scalar("fault_tolerated") =
            static_cast<double>(faults.tolerated);
        set.scalar("fault_silent") = static_cast<double>(faults.silent);
        set.scalar("fault_sim_fault") = static_cast<double>(faults.simFault);
        set.scalar("fault_coverage") = faults.coverage();
        for (unsigned t = 0; t < faultinject::kNumFaultTypes; ++t) {
            if (!faults.perType[t])
                continue;
            const std::string name = faultinject::faultTypeName(
                static_cast<faultinject::FaultType>(t));
            set.scalar("fault_" + name + "_injected") =
                static_cast<double>(faults.perType[t]);
            set.scalar("fault_" + name + "_detected") =
                static_cast<double>(faults.perTypeDetected[t]);
        }
    }
    for (const auto &[name, stat] : extra.scalars())
        set.scalar(name) = stat.value();
    return set;
}

void
RunResult::dump(std::ostream &os) const
{
    toStatSet().dump(os);
}

AosSystem::AosSystem(const workloads::WorkloadProfile &profile,
                     const baselines::SystemOptions &options)
    : _mech(options.mech), _machine(options, profile.codeFootprint),
      _domain(0, 0, _machine.pa().keys(),
              {.profile = profile,
               .seed = options.seedSalt,
               .measureOps = options.measureOps,
               .policy = os::FaultPolicy::kReport,
               .faultTypes = options.faultTypes,
               .faultCount = options.faultCount,
               .faultSeed = options.faultSeed,
               .addressSlot = 0},
              options, &_machine.pa())
{
    _machine.bind(_domain);
}

AosSystem::~AosSystem() = default;

RunResult
AosSystem::run()
{
    {
        prof::Scope scope("sys.fastforward");
        _domain.warmup(_machine);
    }

    cpu::OoOCore &core = _machine.core();
    memsim::MemorySystem &mem = _machine.memory();
    faultinject::FaultInjector *injector = _domain.injector();
    // Snapshot at the measurement boundary. The op mix comes from the
    // counter's own phase-mark latch: the pass pipeline runs ahead of
    // the consumer by up to a block, so mix() here already includes
    // measured-phase ops sitting in pending buffers.
    const ir::OpMixStats mix_before = _domain.counter()->mixAtPhaseMark();
    const u64 traffic_before = mem.networkTraffic();
    const u64 dram_accesses_before = mem.dramAccesses();
    const u64 dram_writes_before = mem.dramWrites();
    const u64 mispred_before = core.predictor().stats().mispredicts;

    {
        prof::Scope scope("sys.measure");
        // Run until the bounded source stream ends: every configuration
        // executes the same program work; instrumented instructions are
        // extra, exactly as in the paper's methodology.
        if (injector) {
            // Graceful-degradation contract: corrupted state must never
            // escape as an exception. (panic() aborts and is out of
            // scope; anything catchable is tallied as a simulator fault
            // instead of killing the sweep.)
            try {
                core.run(*_domain.stream(), 0);
            } catch (const CancelledException &) {
                // Not a simulator fault: cancellation is the campaign
                // preempting this job, and must reach its engine.
                throw;
            } catch (const std::exception &) {
                injector->noteSimulatorFault(
                    faultinject::FaultType::kNumTypes);
            }
        } else {
            core.run(*_domain.stream(), 0);
        }
    }

    RunResult result;
    result.workload = _domain.config().profile.name;
    result.mech = _mech;
    result.core = core.stats();
    result.networkTraffic = mem.networkTraffic() - traffic_before;
    result.dramAccesses = mem.dramAccesses() - dram_accesses_before;
    result.dramWrites = mem.dramWrites() - dram_writes_before;
    result.mix = mixDelta(_domain.counter()->mix(), mix_before);
    if (const mcu::MemoryCheckUnit *mcu = _machine.mcu())
        result.mcuStats = mcu->stats();
    if (const bounds::BoundsWayBuffer *bwb = _machine.bwb())
        result.bwb = bwb->stats();
    if (os::OsModel *os = _domain.osModel()) {
        result.hbt = os->hbt().stats();
        result.violations = os->violationCount();
    }
    if (_domain.autmElide())
        result.elide = _domain.autmElide()->stats();
    if (_domain.boundsPlan())
        result.belidePlan = _domain.boundsPlan()->stats();
    if (_domain.boundsElide())
        result.belide = _domain.boundsElide()->stats();
    if (const staticcheck::StreamVerifier *verifier = _domain.verifier()) {
        result.verified = true;
        result.verifyDiagnostics = verifier->totalDiagnostics();
        result.verifySuppressed = verifier->suppressedDiagnostics();
        result.verifyRuleCounts = verifier->ruleCounts();
        result.verifyFindings = verifier->diagnostics();
    }
    if (injector) {
        result.faults = injector->stats();
        result.faultEvents = injector->events();
    }
    const u64 mispredicts =
        core.predictor().stats().mispredicts - mispred_before;
    result.branchMpki =
        result.core.committed
            ? 1000.0 * static_cast<double>(mispredicts) /
                  static_cast<double>(result.core.committed)
            : 0.0;
    return result;
}

} // namespace aos::core
