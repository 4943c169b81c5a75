/**
 * @file
 * AosSystem — one full timing simulation: a workload profile run on the
 * Table IV machine under one of the five system configurations.
 *
 * The run is a one-domain machine (os/domain.hh): an os::Machine
 * bound once to a single os::ProtectionDomain in address slot 0, under
 * the PaContext's default keys.
 *
 *   SyntheticWorkload -> instrumentation passes -> OpCounter -> OoOCore
 *                                   |                             |
 *                                PaContext                  MCU <-> HBT/BWB
 *                                                                 |
 *                                                           MemorySystem
 *
 * It mirrors the paper's methodology: the warmup phase (heap build-up)
 * is fast-forwarded functionally — bounds inserted, caches and branch
 * predictor warmed — and statistics are collected over the measured
 * window only.
 */

#ifndef AOS_CORE_AOS_SYSTEM_HH
#define AOS_CORE_AOS_SYSTEM_HH

#include <memory>
#include <ostream>

#include "common/stats.hh"
#include "os/domain.hh"

namespace aos::core {

/** Everything a figure harness needs from one run. */
struct RunResult
{
    std::string workload;
    baselines::Mechanism mech = baselines::Mechanism::kBaseline;

    cpu::CoreStats core;
    u64 networkTraffic = 0;       //!< Bytes moved, measured phase only.
    u64 dramAccesses = 0;         //!< DRAM link accesses, measured phase.
    u64 dramWrites = 0;           //!< DRAM writes (LLC writebacks).
    ir::OpMixStats mix;           //!< Op mix, measured phase only.
    mcu::McuStats mcuStats;
    bounds::BwbStats bwb;
    bounds::HbtStats hbt;
    double branchMpki = 0;
    u64 violations = 0;           //!< AOS exceptions logged by the OS.

    compiler::ElideStats elide;   //!< autm elision (options.aosElision).

    // Bounds elision (options.aosBoundsElision, DESIGN.md §11).
    analysis::dataflow::PlanStats belidePlan; //!< Dataflow plan verdicts.
    compiler::BoundsElideStats belide;        //!< Ops actually dropped.

    // Stream-verifier findings (options.verifyStream).
    bool verified = false;        //!< The run was linted online.
    u64 verifyDiagnostics = 0;    //!< Total findings (0 = clean).
    u64 verifySuppressed = 0;     //!< Findings deduplicated or capped.
    std::map<staticcheck::RuleId, u64> verifyRuleCounts;
    std::vector<staticcheck::Diagnostic> verifyFindings;

    // Fault injection (options.faultTypes != 0, DESIGN.md §8).
    faultinject::FaultStats faults;
    std::vector<faultinject::FaultEvent> faultEvents;

    /**
     * Campaign-body extension point: scalars a custom job body injects
     * here flow through toStatSet() into JobResult.stats, the
     * checkpoint, and the canonical JSON — so body-level outcomes
     * (e.g. the chaos audit's per-scenario verdicts) survive resume
     * and reduce exactly like simulator stats.
     */
    StatSet extra = StatSet("extra");

    /** Flatten into a named stat set (gem5-style dump). */
    StatSet toStatSet() const;

    /** Write "workload.mech.stat value" lines (gem5 stats.txt style). */
    void dump(std::ostream &os) const;
};

class AosSystem
{
  public:
    AosSystem(const workloads::WorkloadProfile &profile,
              const baselines::SystemOptions &options);
    ~AosSystem();

    /** Fast-forward the warmup, run the measured window, report. */
    RunResult run();

    memsim::MemorySystem &memory() { return _machine.memory(); }
    cpu::OoOCore &core() { return _machine.core(); }

  private:
    baselines::Mechanism _mech;
    os::Machine _machine;
    os::ProtectionDomain _domain;
};

} // namespace aos::core

#endif // AOS_CORE_AOS_SYSTEM_HH
