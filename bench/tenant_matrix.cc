/**
 * @file
 * Multi-tenant scheduling campaign (DESIGN.md §15): request-latency
 * degradation and per-mechanism overhead versus tenant count, plus the
 * cross-tenant isolation audit.
 *
 * Matrix family: for each mechanism in {baseline, AOS, PA+AOS} and
 * each fleet size in {1, 2, 4, 8}, one shared core runs a mixed fleet
 * — rotating benign micro profiles plus one adversarial tenant once
 * the fleet has a neighbour to attack — under a seeded open-loop
 * arrival process with admission control. Each job reports p50/p99
 * request latency (core cycles), served/shed request accounting,
 * context-switch counts and the benign-tenant violation tally; after
 * the sweep the harness derives the per-mechanism p50/p99 overhead
 * against the baseline job of the same fleet size.
 *
 * Audit family: 500 seeded fleet scenarios through
 * campaign::tenant_audit, batched into campaign jobs. The gate is
 * absolute, chaos_audit-style: every job kOk, at least 500 scenarios,
 * zero fingerprint mismatches (cross-tenant silent corruption), zero
 * benign violations and zero misattributed fault detections — and
 * zero violations on benign tenants of the matrix fleets.
 *
 * Fixed shape: 2000-op slices, 3 open-loop arrivals per 1000 cycles,
 * 240 requests per matrix job. Knob: AOS_TENANT_AUDIT_SEED rotates
 * the audit's scenario universe. Every job is a pure function of its
 * spec, so the canonical JSON is byte-identical at any
 * AOS_CAMPAIGN_JOBS.
 */

#include "bench/harness.hh"

#include "campaign/tenant_audit.hh"
#include "os/scheduler.hh"

using namespace aos;
using namespace aos::bench;
using namespace aos::campaign;

namespace {

struct MechSpec
{
    baselines::Mechanism mech;
    const char *name;
};

constexpr MechSpec kMechs[] = {
    {baselines::Mechanism::kBaseline, "baseline"},
    {baselines::Mechanism::kAos, "aos"},
    {baselines::Mechanism::kPaAos, "pa_aos"},
};

constexpr unsigned kFleetSizes[] = {1, 2, 4, 8};

constexpr u64 kQuantumOps = 2000;     //!< Scheduler slice, issued ops.
constexpr u64 kArrivalsPerKCycle = 3; //!< Open-loop request arrivals.
constexpr u64 kRequests = 240;        //!< Requests per matrix job.

/** The audit gate's floor, run as batches of kScenariosPerJob. */
constexpr unsigned kAuditScenarios = 500;
constexpr unsigned kScenariosPerJob = 10;
static_assert(kAuditScenarios % kScenariosPerJob == 0);

/** Small rotating tenant profiles: alloc-heavy, memory-heavy, branchy. */
workloads::WorkloadProfile
tenantProfile(unsigned idx)
{
    workloads::WorkloadProfile p;
    p.targetActive = 48 + 16 * (idx % 3);
    p.heapChunkMin = 32;
    p.heapChunkMax = 512;
    p.globalFootprint = 64 * 1024;
    p.codeFootprint = 8 * 1024;
    p.numBranches = 64;
    switch (idx % 3) {
      case 0:
        p.name = "mt_alloc";
        p.allocsPerKOp = 40;
        break;
      case 1:
        p.name = "mt_mem";
        p.allocsPerKOp = 8;
        p.loadPerMille = 380;
        p.storePerMille = 180;
        break;
      default:
        p.name = "mt_branch";
        p.allocsPerKOp = 12;
        p.branchPerMille = 220;
        p.hardBranchFraction = 0.4;
        break;
    }
    return p;
}

std::string
matrixJobName(const char *mech, unsigned tenants)
{
    return csprintf("matrix/%s/t%u", mech, tenants);
}

core::RunResult
runFleet(const MechSpec &spec, unsigned tenants, const CancelToken &cancel)
{
    os::SchedulerConfig config;
    config.options.mech = spec.mech;
    config.options.cancel = &cancel;
    config.quantumOps = kQuantumOps;
    config.seed = 0x7e'a417 + tenants;
    config.totalRequests = kRequests;
    config.arrivalsPerKCycle = static_cast<double>(kArrivalsPerKCycle);

    os::Scheduler scheduler(config);
    for (unsigned i = 0; i < tenants; ++i) {
        os::TenantConfig tenant;
        tenant.profile = tenantProfile(i);
        tenant.seed = 100 + i;
        // The last slot turns adversarial once it has a neighbour whose
        // heap it can probe; solo fleets stay all-benign.
        tenant.adversarial = tenants >= 2 && i == tenants - 1;
        tenant.attackPerMille = 40;
        scheduler.spawn(tenant);
    }
    const os::SchedulerResult sched = scheduler.run();

    u64 benignViolations = 0;
    u64 attackDetections = 0;
    u64 attacksLaunched = 0;
    u64 attacksDetectable = 0;
    for (const os::TenantStats &t : sched.tenants) {
        if (t.adversarial) {
            attackDetections += t.violations;
            attacksLaunched += t.attacks.launched;
            attacksDetectable += t.attacks.detectable;
        } else {
            benignViolations += t.violations;
        }
    }

    core::RunResult run;
    run.workload = "tenant_matrix";
    run.extra.scalar("tenants") = static_cast<double>(tenants);
    run.extra.scalar("p50_cycles") =
        static_cast<double>(sched.latencyP50());
    run.extra.scalar("p99_cycles") =
        static_cast<double>(sched.latencyP99());
    run.extra.scalar("requests_arrived") =
        static_cast<double>(sched.requestsArrived);
    run.extra.scalar("requests_served") =
        static_cast<double>(sched.requestsServed);
    run.extra.scalar("requests_shed") =
        static_cast<double>(sched.requestsShed);
    run.extra.scalar("busy_cycles") = static_cast<double>(sched.cycles);
    run.extra.scalar("idle_cycles") =
        static_cast<double>(sched.idleCycles);
    run.extra.scalar("context_switches") =
        static_cast<double>(sched.contextSwitches);
    run.extra.scalar("slices") = static_cast<double>(sched.slices);
    run.extra.scalar("terminations") =
        static_cast<double>(sched.terminations);
    run.extra.scalar("benign_violations") =
        static_cast<double>(benignViolations);
    run.extra.scalar("attacks_launched") =
        static_cast<double>(attacksLaunched);
    run.extra.scalar("attacks_detectable") =
        static_cast<double>(attacksDetectable);
    run.extra.scalar("attack_detections") =
        static_cast<double>(attackDetections);
    return run;
}

core::RunResult
runAuditBatch(u64 firstSeed, unsigned count, const CancelToken &cancel)
{
    const tenant_audit::AuditSummary summary =
        tenant_audit::auditBatch(firstSeed, count, &cancel);
    if (!summary.pass()) {
        // Raw stderr: must surface even under setQuiet() — a broken
        // isolation invariant IS the finding.
        std::fprintf(stderr,
                     "tenant_matrix ISOLATION FAILURE (seeds %llu..%llu):"
                     " %s\n",
                     static_cast<unsigned long long>(firstSeed),
                     static_cast<unsigned long long>(firstSeed + count - 1),
                     summary.firstFailure.c_str());
    }
    core::RunResult run;
    run.workload = "tenant_audit";
    run.extra.scalar("audit_scenarios") =
        static_cast<double>(summary.scenarios);
    run.extra.scalar("audit_failed") =
        static_cast<double>(summary.failedScenarios);
    run.extra.scalar("audit_tenants") =
        static_cast<double>(summary.tenantsAudited);
    run.extra.scalar("audit_benign_compared") =
        static_cast<double>(summary.benignCompared);
    run.extra.scalar("audit_fingerprint_mismatches") =
        static_cast<double>(summary.fingerprintMismatches);
    run.extra.scalar("audit_benign_violations") =
        static_cast<double>(summary.benignViolations);
    run.extra.scalar("audit_misattributed_faults") =
        static_cast<double>(summary.misattributedFaults);
    run.extra.scalar("audit_attacks_launched") =
        static_cast<double>(summary.attacksLaunched);
    run.extra.scalar("audit_attacks_detectable") =
        static_cast<double>(summary.attacksDetectable);
    run.extra.scalar("audit_attack_detections") =
        static_cast<double>(summary.attackDetections);
    run.extra.scalar("audit_faults_injected") =
        static_cast<double>(summary.faultsInjected);
    return run;
}

} // namespace

int
main()
{
    setQuiet(true);

    const u64 auditSeed = envU64("AOS_TENANT_AUDIT_SEED", 0x7e'4a47);

    campaign::CampaignOptions options = campaignOptions("tenant_matrix");
    if (options.timeoutSec <= 0)
        options.timeoutSec = 300; // A wedged fleet is a finding.
    campaign::Campaign sweep(options);

    for (const MechSpec &spec : kMechs) {
        for (unsigned tenants : kFleetSizes) {
            Job job;
            job.name = matrixJobName(spec.name, tenants);
            job.profile.name = "tenant_matrix";
            job.mech = spec.mech;
            job.seed = tenants;
            job.cancellableBody = [spec, tenants](const CancelToken &cancel) {
                return runFleet(spec, tenants, cancel);
            };
            sweep.add(std::move(job));
        }
    }

    for (unsigned i = 0; i < kAuditScenarios / kScenariosPerJob; ++i) {
        Job job;
        job.name = csprintf("audit/%03u", i);
        job.profile.name = "tenant_audit";
        job.seed = auditSeed + u64{i} * kScenariosPerJob;
        job.cancellableBody = [seed = job.seed](const CancelToken &cancel) {
            return runAuditBatch(seed, kScenariosPerJob, cancel);
        };
        sweep.add(std::move(job));
    }

    const auto auditOnly = [](const JobResult &r) {
        return r.profile == "tenant_audit";
    };
    const auto matrixOnly = [](const JobResult &r) {
        return r.profile == "tenant_matrix";
    };
    for (const char *stat :
         {"audit_scenarios", "audit_failed", "audit_fingerprint_mismatches",
          "audit_benign_violations", "audit_misattributed_faults",
          "audit_attacks_launched", "audit_attacks_detectable",
          "audit_attack_detections", "audit_faults_injected"}) {
        sweep.addReducer({stat, campaign::ReduceOp::kSum, stat, auditOnly});
    }
    sweep.addReducer({"matrix_benign_violations", campaign::ReduceOp::kSum,
                      "benign_violations", matrixOnly});
    sweep.addReducer({"matrix_requests_served", campaign::ReduceOp::kSum,
                      "requests_served", matrixOnly});
    sweep.addReducer({"matrix_requests_shed", campaign::ReduceOp::kSum,
                      "requests_shed", matrixOnly});

    campaign::CampaignResult result = sweep.run();
    exitIfInterrupted(result);

    // Derive per-mechanism latency overhead against the baseline fleet
    // of the same size. Pure arithmetic over deterministic stats, so
    // the canonical JSON stays byte-identical at any worker count.
    for (JobResult &job : result.jobs) {
        if (!job.ok() || job.profile != "tenant_matrix")
            continue;
        const unsigned tenants =
            static_cast<unsigned>(job.stats.value("tenants"));
        const JobResult *base =
            result.find(matrixJobName("baseline", tenants));
        if (!base || !base->ok() || &job == base)
            continue;
        const double baseP50 = base->stats.value("p50_cycles");
        const double baseP99 = base->stats.value("p99_cycles");
        if (baseP50 > 0)
            job.stats.scalar("overhead_p50_pct") =
                (job.stats.value("p50_cycles") / baseP50 - 1.0) * 100.0;
        if (baseP99 > 0)
            job.stats.scalar("overhead_p99_pct") =
                (job.stats.value("p99_cycles") / baseP99 - 1.0) * 100.0;
    }
    computeReducers(result, sweep.reducers());

    std::printf("%-10s %8s %12s %12s %9s %9s %8s %10s\n", "mech",
                "tenants", "p50(cy)", "p99(cy)", "served", "shed",
                "ovh_p50", "switches");
    rule(84);
    for (const MechSpec &spec : kMechs) {
        for (unsigned tenants : kFleetSizes) {
            const JobResult *job =
                result.find(matrixJobName(spec.name, tenants));
            if (!job || !job->ok())
                continue;
            const bool hasOvh = job->stats.has("overhead_p50_pct");
            std::printf("%-10s %8u %12.0f %12.0f %9.0f %9.0f %7.1f%% "
                        "%10.0f\n",
                        spec.name, tenants,
                        job->stats.value("p50_cycles"),
                        job->stats.value("p99_cycles"),
                        job->stats.value("requests_served"),
                        job->stats.value("requests_shed"),
                        hasOvh ? job->stats.value("overhead_p50_pct") : 0.0,
                        job->stats.value("context_switches"));
        }
    }

    const double scenarios = result.reducer("audit_scenarios")->value;
    const double failed = result.reducer("audit_failed")->value;
    const double fingerprintMismatches =
        result.reducer("audit_fingerprint_mismatches")->value;
    const double benignViolations =
        result.reducer("audit_benign_violations")->value;
    const double misattributed =
        result.reducer("audit_misattributed_faults")->value;
    const double matrixBenignViolations =
        result.reducer("matrix_benign_violations")->value;
    std::printf("\nisolation audit: %.0f scenarios, %.0f failed "
                "(%.0f fingerprint mismatches, %.0f benign violations, "
                "%.0f misattributed faults); adversaries launched %.0f "
                "attacks, %.0f detected\n",
                scenarios, failed, fingerprintMismatches, benignViolations,
                misattributed,
                result.reducer("audit_attacks_launched")->value,
                result.reducer("audit_attack_detections")->value);
    emitCampaignJson(result, "tenant_matrix");

    bool pass = true;
    if (!result.allOk()) {
        std::fprintf(stderr,
                     "tenant matrix: %u job(s) did not finish ok\n",
                     static_cast<unsigned>(result.jobs.size()) -
                         result.count(campaign::JobStatus::kOk));
        pass = false;
    }
    if (scenarios < kAuditScenarios) {
        std::fprintf(stderr,
                     "tenant matrix: only %.0f audit scenarios (gate "
                     "needs >= %u)\n",
                     scenarios, kAuditScenarios);
        pass = false;
    }
    if (failed != 0 || fingerprintMismatches != 0 ||
        benignViolations != 0 || misattributed != 0) {
        std::fprintf(stderr,
                     "tenant matrix: isolation audit FAILED (%.0f "
                     "scenario(s); %.0f mismatches, %.0f benign "
                     "violations, %.0f misattributed)\n",
                     failed, fingerprintMismatches, benignViolations,
                     misattributed);
        pass = false;
    }
    if (matrixBenignViolations != 0) {
        std::fprintf(stderr,
                     "tenant matrix: %.0f violation(s) logged by benign "
                     "matrix tenants — cross-tenant containment broke\n",
                     matrixBenignViolations);
        pass = false;
    }
    return pass ? 0 : 1;
}
