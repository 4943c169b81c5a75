/**
 * @file
 * Elision ablation (DESIGN.md §11): PA+AOS against its two static
 * elision passes across the SPEC profiles.
 *
 * AosElidePass proves most on-load autm authentications redundant (the
 * same chunk's metadata was already authenticated and nothing
 * invalidated the proof). AosBoundsElidePass drops the whole
 * pacma/bndstr/bndclr/autm quadruple of chunks the dataflow engine
 * proves non-escaping with every access in bounds. Each profile runs
 * three timing jobs (base, autm elision, bounds elision) as one
 * campaign on the work-stealing pool (AOS_CAMPAIGN_JOBS workers); the
 * bounds-elided job runs with the online stream verifier (SC15-SC18
 * elided-region contracts). The functional checks after the campaign
 * stay serial:
 *
 *   - attack parity: the attack-gallery classes (and an AHC strip of
 *     a chunk's first loaded pointer) lowered with and without autm
 *     elision are detected identically;
 *   - fault parity: a 12-chunk program mixing elidable, escaping,
 *     out-of-bounds and use-after-free chunks, tried in the
 *     ObligationChecker under aligned fault injection;
 *   - obligation court: every profile's bounds-elision plan tried in
 *     the ObligationChecker (ground-truth parity, obligation replay,
 *     aligned fault injection).
 *
 * Both checker trials fail when no fault could be injected, since a
 * replay with nothing injected proves nothing.
 *
 * Exit status is the gate scripts/check.sh relies on: non-zero when a
 * job fails, an attack or fault class loses a detection, the checker
 * rejects a plan, the verifier reports a diagnostic, fewer than two
 * profiles have at least 10% of bndstr elided, or the JSON cannot be
 * written.
 *
 * Build & run:  ./build/bench/elision_ablation
 */

#include "bench/harness.hh"

#include <algorithm>

#include "analysis/dataflow/engine.hh"
#include "compiler/aos_bounds_elide_pass.hh"
#include "compiler/aos_elide_pass.hh"
#include "compiler/aos_passes.hh"
#include "compiler/pa_pass.hh"
#include "pa/pa_context.hh"
#include "staticcheck/obligation_checker.hh"
#include "staticcheck/stream_executor.hh"
#include "workloads/synthetic_workload.hh"

using namespace aos;
using namespace aos::bench;
using baselines::Mechanism;
using baselines::SystemOptions;

namespace {

/** Profiles that must clear the 10% bndstr-elision bar. */
constexpr double kCoverageFloor = 0.10;
constexpr unsigned kCoverageProfiles = 2;

ir::MicroOp
src(ir::OpKind kind, Addr addr = 0, Addr chunk = 0, u32 size = 0,
    bool loads_pointer = false)
{
    ir::MicroOp op;
    op.kind = kind;
    op.addr = addr;
    op.chunkBase = chunk;
    op.size = size;
    op.loadsPointer = loads_pointer;
    return op;
}

/** Every op a stream produces, in order. */
std::vector<ir::MicroOp>
drain(ir::InstStream &stream)
{
    std::vector<ir::MicroOp> out;
    ir::MicroOp next;
    while (stream.next(next))
        out.push_back(next);
    return out;
}

/** Lower a source stream through the full PA+AOS pipeline. */
std::vector<ir::MicroOp>
lower(std::vector<ir::MicroOp> input, pa::PaContext &pa)
{
    ir::VectorStream source(std::move(input));
    compiler::AosOptPass opt(&source);
    compiler::AosBackendPass backend(&opt, &pa);
    compiler::PaPass pa_pass(&backend, compiler::PaMode::kPaAos);
    return drain(pa_pass);
}

/**
 * Zero the AHC of the first autm and of the pointer load it
 * authenticates: the attacker strips the signature before its first
 * use, so only that autm can detect it.
 */
void
stripFirstAhc(std::vector<ir::MicroOp> &ops,
              const pa::PointerLayout &layout)
{
    for (size_t i = 1; i < ops.size(); ++i) {
        if (ops[i].kind != ir::OpKind::kAutm)
            continue;
        for (ir::MicroOp *op : {&ops[i - 1], &ops[i]})
            op->addr = layout.compose(layout.strip(op->addr),
                                      layout.pac(op->addr), 0);
        return;
    }
}

/**
 * One attack class: detections with and without elision must match.
 * @p corrupt, when set, mutates the lowered stream (the attacker
 * corrupts pointer values, not the program) before elision runs.
 */
bool
attackParity(const char *name, std::vector<ir::MicroOp> source,
             void (*corrupt)(std::vector<ir::MicroOp> &,
                             const pa::PointerLayout &) = nullptr)
{
    pa::PaContext pa(pa::PointerLayout(16, 46));
    auto full = lower(std::move(source), pa);
    if (corrupt)
        corrupt(full, pa.layout());
    ir::VectorStream full_stream(full);
    compiler::AosElidePass elide(&full_stream, pa.layout());
    const auto elided = drain(elide);
    staticcheck::StreamExecutor full_exec(pa.layout());
    staticcheck::StreamExecutor elided_exec(pa.layout());
    const auto fs = full_exec.run(full);
    const auto es = elided_exec.run(elided);
    const bool parity = es.sameDetections(fs) && fs.detections() > 0;
    std::printf("  %-24s %9llu %9llu %9llu %9llu   %s\n", name,
                static_cast<unsigned long long>(fs.autms),
                static_cast<unsigned long long>(es.autms),
                static_cast<unsigned long long>(fs.detections()),
                static_cast<unsigned long long>(es.detections()),
                parity ? "PARITY" : "MISMATCH");
    return parity;
}

/** A bounds-elision plan and the ObligationChecker's verdict on it. */
struct PlanTrial
{
    analysis::dataflow::ElisionPlan plan;
    staticcheck::ObligationReport report;
};

/**
 * Plan bounds elision for a source program, lower it with and without
 * AosBoundsElidePass, and let the ObligationChecker try the proofs. A
 * trial that injected no fault tried nothing and fails.
 */
PlanTrial
tryPlan(std::vector<ir::MicroOp> program)
{
    pa::PaContext pa(pa::PointerLayout(16, 46));
    ir::VectorStream analysis_stream(program);
    analysis::dataflow::DataflowEngine engine(pa.layout());
    engine.run(analysis_stream);
    PlanTrial trial{analysis::dataflow::planBoundsElision(engine), {}};

    const auto full = lower(std::move(program), pa);
    ir::VectorStream full_stream(full);
    compiler::AosBoundsElidePass belide(&full_stream, pa.layout(),
                                        &trial.plan);
    const auto belided = drain(belide);
    trial.report =
        staticcheck::ObligationChecker().check(full, belided, trial.plan);
    if (trial.report.faultsInjectedFull == 0) {
        trial.report.ok = false;
        trial.report.failures.push_back(
            "no fault injected: nothing was tried");
    }
    return trial;
}

void
printFailures(const staticcheck::ObligationReport &report)
{
    for (const auto &failure : report.failures)
        std::printf("    %s\n", failure.c_str());
}

} // namespace

int
main()
{
    setQuiet(true);
    const u64 ops = simOps();

    std::printf("Elision ablation: PA+AOS vs autm elision vs dataflow "
                "bounds elision, %llu ops/run\n\n",
                static_cast<unsigned long long>(ops));
    std::printf("%-12s %10s %10s %7s %7s %8s %8s %8s %10s %10s %8s "
                "%8s %7s\n",
                "workload", "autm", "autm-el", "rate", "cover", "ipc",
                "ipc-el", "ipc-bel", "mcq-stall", "mcq-st-el", "norm",
                "norm-bel", "verify");
    rule(120);

    SystemOptions with_elision;
    with_elision.aosElision = true;
    SystemOptions with_belide;
    with_belide.aosBoundsElision = true;
    // Online lint with the SC15-SC18 elided-region contracts: any
    // residual instrumentation or out-of-plan access in the elided
    // stream is a diagnostic, and diagnostics fail this harness.
    with_belide.verifyStream = true;

    campaign::Campaign sweep(campaignOptions("elision_ablation"));
    const auto &profiles = workloads::specProfiles();
    for (const auto &profile : profiles) {
        // Three jobs per profile: [3p] = PA+AOS base, [3p+1] = autm
        // elision, [3p+2] = dataflow bounds elision.
        campaign::Job base;
        base.name = profile.name + "/pa_aos";
        base.profile = profile;
        base.mech = Mechanism::kPaAos;
        base.ops = ops;
        sweep.add(std::move(base));

        campaign::Job elided;
        elided.name = profile.name + "/pa_aos_elide";
        elided.profile = profile;
        elided.mech = Mechanism::kPaAos;
        elided.options = with_elision;
        elided.ops = ops;
        sweep.add(std::move(elided));

        campaign::Job belided;
        belided.name = profile.name + "/pa_aos_belide";
        belided.profile = profile;
        belided.mech = Mechanism::kPaAos;
        belided.options = with_belide;
        belided.ops = ops;
        sweep.add(std::move(belided));
    }
    campaign::CampaignResult result = sweep.run();
    exitIfInterrupted(result);
    if (!result.allOk()) {
        std::fprintf(stderr, "elision_ablation: %u job(s) failed\n",
                     result.count(campaign::JobStatus::kFailed) +
                         result.count(campaign::JobStatus::kTimeout));
        return 1;
    }

    unsigned covered = 0;
    u64 verify_diags = 0;
    for (size_t p = 0; p < profiles.size(); ++p) {
        // Read the flattened stats, not run.*: a job restored from a
        // checkpoint carries stats only.
        const StatSet &base = result.jobs[3 * p].stats;
        campaign::JobResult &elided_job = result.jobs[3 * p + 1];
        campaign::JobResult &belided_job = result.jobs[3 * p + 2];
        const StatSet &elided = elided_job.stats;
        const StatSet &belided = belided_job.stats;
        // A missing stat reads 0.
        const double elision_rate = elided.value("elide_rate");
        const double cover = belided.value("belide_bndstr_rate");
        const double verify = belided.value("verify_total");
        const double norm =
            elided.value("cycles") / base.value("cycles");
        const double belide_norm =
            belided.value("cycles") / base.value("cycles");
        elided_job.stats.scalar("norm_exec_time") = norm;
        elided_job.stats.scalar("kept_autm_fraction") = 1.0 - elision_rate;
        belided_job.stats.scalar("norm_exec_time_belide") = belide_norm;
        if (cover >= kCoverageFloor)
            ++covered;
        verify_diags += static_cast<u64>(verify);
        std::printf("%-12s %10.0f %10.0f %6.1f%% %6.1f%% %8.3f %8.3f "
                    "%8.3f %10.0f %10.0f %8.3f %8.3f %7.0f\n",
                    profiles[p].name.c_str(), base.value("mix_autms"),
                    elided.value("mix_autms"), 100.0 * elision_rate,
                    100.0 * cover, base.value("ipc"),
                    elided.value("ipc"), belided.value("ipc"),
                    base.value("mcq_full_stalls"),
                    elided.value("mcq_full_stalls"), norm, belide_norm,
                    verify);
        std::fflush(stdout);
    }
    rule(120);

    const auto elided_only = [](const campaign::JobResult &job) {
        return job.stats.has("norm_exec_time");
    };
    const auto belided_only = [](const campaign::JobResult &job) {
        return job.stats.has("norm_exec_time_belide");
    };
    campaign::computeReducers(
        result,
        {{"geomean_norm_elided", campaign::ReduceOp::kGeomean,
          "norm_exec_time", elided_only},
         {"geomean_kept_autm_fraction", campaign::ReduceOp::kGeomean,
          "kept_autm_fraction", elided_only},
         {"geomean_norm_belide", campaign::ReduceOp::kGeomean,
          "norm_exec_time_belide", belided_only},
         {"mean_bndstr_coverage", campaign::ReduceOp::kMean,
          "belide_bndstr_rate", belided_only}});
    std::printf("%-12s geomean exec time elided/base: %.3f, "
                "belide/base: %.3f, geomean kept-autm fraction: "
                "%.3f\n",
                "", result.reducer("geomean_norm_elided")->value,
                result.reducer("geomean_norm_belide")->value,
                result.reducer("geomean_kept_autm_fraction")->value);
    std::printf("%-12s %u/%zu profiles above %.0f%% bndstr coverage, "
                "%llu verifier diagnostic(s)\n\n",
                "", covered, profiles.size(), 100.0 * kCoverageFloor,
                static_cast<unsigned long long>(verify_diags));
    const bool json_ok = emitCampaignJson(result, "elision_ablation");

    // --- Detection parity on the attack-gallery classes ---
    constexpr Addr kChunk = 0x20001000;
    std::vector<ir::MicroOp> prelude{
        src(ir::OpKind::kMallocMark, 0, kChunk, 64)};
    for (int i = 0; i < 4; ++i)
        prelude.push_back(
            src(ir::OpKind::kLoad, kChunk + 8, kChunk, 8, true));

    std::printf("Attack parity (autm count may drop; detections may "
                "not):\n");
    std::printf("  %-24s %9s %9s %9s %9s\n", "attack", "autm", "autm-el",
                "det", "det-el");

    bool all_parity = true;
    {
        auto s = prelude;
        s.push_back(src(ir::OpKind::kLoad, kChunk + 4096, kChunk, 8));
        all_parity &= attackParity("heap-overflow", std::move(s));
    }
    {
        auto s = prelude;
        s.push_back(src(ir::OpKind::kFreeMark, 0, kChunk));
        s.push_back(src(ir::OpKind::kLoad, kChunk + 16, kChunk, 8));
        all_parity &= attackParity("use-after-free", std::move(s));
    }
    {
        auto s = prelude;
        s.push_back(src(ir::OpKind::kFreeMark, 0, kChunk));
        s.push_back(src(ir::OpKind::kFreeMark, 0, kChunk));
        all_parity &= attackParity("double-free", std::move(s));
    }
    {
        auto s = prelude;
        s.push_back(src(ir::OpKind::kFreeMark, 0, 0x00601000));
        all_parity &= attackParity("invalid-free", std::move(s));
    }
    all_parity &= attackParity("ahc-stripping", prelude, stripFirstAhc);

    std::printf("\n%s\n", all_parity
                              ? "All attacks detected identically with "
                                "elision enabled."
                              : "PARITY FAILURE: elision dropped a "
                                "security-relevant check!");

    // --- Fault-matrix parity under bounds elision ---
    // A representative program mixing elidable private chunks with an
    // escaping, an out-of-bounds and a use-after-free chunk; the
    // ObligationChecker injects the aligned fault matrix into the full
    // and the bounds-elided lowering, and per fault class the elided
    // stream must detect at least as much as the full one.
    bool fault_ok = true;
    {
        std::vector<ir::MicroOp> program;
        constexpr Addr kBase = 0x20100000;
        constexpr Addr kStride = 0x2000;
        for (int c = 0; c < 12; ++c) {
            const Addr chunk = kBase + c * kStride;
            program.push_back(src(ir::OpKind::kMallocMark, 0, chunk, 96));
            for (int a = 0; a < 6; ++a)
                program.push_back(src(ir::OpKind::kLoad, chunk + 8 * a,
                                      chunk, 8,
                                      /*loads_pointer=*/c % 4 == 1));
            if (c % 4 == 2) // out-of-bounds probe: spatially unsafe.
                program.push_back(src(ir::OpKind::kStore, chunk + 4096,
                                      chunk, 8));
            program.push_back(src(ir::OpKind::kFreeMark, 0, chunk));
            if (c % 4 == 3) // use-after-free probe: temporally unsafe.
                program.push_back(src(ir::OpKind::kLoad, chunk + 16,
                                      chunk, 8));
        }

        const PlanTrial trial = tryPlan(std::move(program));
        const auto &report = trial.report;
        fault_ok = report.ok;

        std::printf("\nFault-matrix parity under bounds elision "
                    "(%zu/%llu chunks elided, aligned injection):\n",
                    trial.plan.obligations().size(),
                    static_cast<unsigned long long>(
                        trial.plan.stats().chunksSeen));
        std::printf("  %-16s %9s %9s %9s %9s\n", "fault class", "inj",
                    "inj-el", "det", "det-el");
        for (unsigned t = 0; t < faultinject::kNumFaultTypes; ++t) {
            const auto &fs = report.fullFaultStats;
            const auto &es = report.elidedFaultStats;
            if (fs.perType[t] == 0 && es.perType[t] == 0)
                continue;
            std::printf("  %-16s %9llu %9llu %9llu %9llu   %s\n",
                        faultinject::faultTypeName(
                            static_cast<faultinject::FaultType>(t)),
                        static_cast<unsigned long long>(fs.perType[t]),
                        static_cast<unsigned long long>(es.perType[t]),
                        static_cast<unsigned long long>(
                            fs.perTypeDetected[t]),
                        static_cast<unsigned long long>(
                            es.perTypeDetected[t]),
                        es.perTypeDetected[t] >= fs.perTypeDetected[t]
                            ? "PARITY"
                            : "MISMATCH");
        }
        std::printf("%s\n", fault_ok
                                ? "  bounds elision lost no fault "
                                  "detections."
                                : "  FAULT PARITY FAILURE: an elided "
                                  "check was load-bearing!");
        if (!fault_ok)
            printFailures(report);
    }

    // --- Obligation court: every profile's plan tried in the checker ---
    // Functional, not timed; capped so the serial replay stays a smoke
    // even when the campaign above runs with a large AOS_SIM_OPS.
    const u64 replay_ops = std::min<u64>(ops, 40'000);
    std::printf("\nObligation replay (%llu ops/profile, aligned fault "
                "injection):\n",
                static_cast<unsigned long long>(replay_ops));
    std::printf("  %-12s %6s %5s %9s %9s %9s %9s\n", "workload", "oblig",
                "viol", "inj-full", "inj-el", "det-full", "det-el");

    bool plans_ok = true;
    for (const auto &profile : profiles) {
        workloads::SyntheticWorkload source(profile, replay_ops);
        const auto report = tryPlan(drain(source)).report;
        plans_ok &= report.ok;
        std::printf("  %-12s %6llu %5llu %9llu %9llu %9llu %9llu   %s\n",
                    profile.name.c_str(),
                    static_cast<unsigned long long>(
                        report.obligationsChecked),
                    static_cast<unsigned long long>(
                        report.obligationsViolated),
                    static_cast<unsigned long long>(
                        report.faultsInjectedFull),
                    static_cast<unsigned long long>(
                        report.faultsInjectedElided),
                    static_cast<unsigned long long>(
                        report.faultsDetectedFull),
                    static_cast<unsigned long long>(
                        report.faultsDetectedElided),
                    report.ok ? "OK" : "FAIL");
        if (!report.ok)
            printFailures(report);
        std::fflush(stdout);
    }

    bool ok = json_ok && all_parity && fault_ok && plans_ok;
    if (covered < kCoverageProfiles) {
        std::fprintf(stderr,
                     "elision_ablation: only %u profile(s) above %.0f%% "
                     "bndstr coverage (need %u)\n",
                     covered, 100.0 * kCoverageFloor, kCoverageProfiles);
        ok = false;
    }
    if (verify_diags != 0) {
        std::fprintf(stderr,
                     "elision_ablation: %llu stream-verifier "
                     "diagnostic(s) in bounds-elided runs\n",
                     static_cast<unsigned long long>(verify_diags));
        ok = false;
    }
    std::printf("\n%s\n",
                ok ? "All elision gates hold: attack, fault and plan "
                     "parity, verifier and coverage."
                   : "ELISION GATE FAILURE (see above).");
    return ok ? 0 : 1;
}
