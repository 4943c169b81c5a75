/**
 * @file
 * Fig. 15 — AOS optimization ablation: no optimization, L1 B-cache
 * only, bounds compression only, and both (the shipping config), each
 * normalized to the Baseline.
 *
 * Paper reference: vs no-optimization, the L1-B reduces overhead by
 * ~10% and compression by a further ~3% on average; gcc and omnetpp
 * improve by 60%/68% with both. Extra rows (DESIGN.md ablations):
 * BWB off and bounds forwarding off on the shipping config, and the
 * per-workload HBT resize counts observed during the run (SIX-A.1).
 */

#include "bench/harness.hh"

using namespace aos;
using namespace aos::bench;
using baselines::Mechanism;
using baselines::SystemOptions;

int
main()
{
    setQuiet(true);
    const u64 ops = simOps();

    SystemOptions none;
    none.useL1B = false;
    none.boundsCompression = false;
    SystemOptions l1b_only;
    l1b_only.boundsCompression = false;
    SystemOptions comp_only;
    comp_only.useL1B = false;
    SystemOptions both; // defaults: both optimizations on
    SystemOptions no_bwb;
    no_bwb.useBwb = false;
    SystemOptions no_fwd;
    no_fwd.boundsForwarding = false;

    struct Row
    {
        const char *name;
        const SystemOptions *options;
    };
    const Row rows[] = {
        {"no-opt", &none},       {"L1-B", &l1b_only},
        {"compress", &comp_only}, {"both", &both},
        {"both-noBWB", &no_bwb}, {"both-noFWD", &no_fwd},
    };

    std::printf("Fig. 15: AOS normalized execution time by optimization "
                "(lower is better), %llu ops/run\n\n",
                static_cast<unsigned long long>(ops));
    std::printf("%-12s", "workload");
    for (const Row &row : rows)
        std::printf(" %11s", row.name);
    std::printf(" %8s\n", "resizes");
    rule(96);

    GeoAccum geo[6];
    for (const auto &profile : workloads::specProfiles()) {
        const core::RunResult base =
            runConfig(profile, Mechanism::kBaseline, ops);
        std::printf("%-12s", profile.name.c_str());
        u64 resizes = 0;
        for (unsigned i = 0; i < 6; ++i) {
            const core::RunResult r = runConfig(
                profile, Mechanism::kAos, ops, *rows[i].options);
            const double norm = static_cast<double>(r.core.cycles) /
                                static_cast<double>(base.core.cycles);
            geo[i].add(norm);
            if (i == 3)
                resizes = r.hbt.resizes;
            std::printf(" %11.3f", norm);
            std::fflush(stdout);
        }
        std::printf(" %8llu\n", static_cast<unsigned long long>(resizes));
    }
    rule(96);
    std::printf("%-12s", "geomean");
    for (unsigned i = 0; i < 6; ++i)
        std::printf(" %11.3f", geo[i].geomean());
    std::printf("\n\npaper: L1-B cuts ~10%% of the no-opt overhead, "
                "compression a further ~3%%; gcc/omnetpp gain 60%%/68%% "
                "with both; resizes: sphinx3=1, omnetpp=2\n");
    return 0;
}
