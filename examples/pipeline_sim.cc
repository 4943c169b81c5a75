/**
 * @file
 * Full pipeline simulation: run one workload profile on the Table IV
 * machine under any of the five system configurations and dump the
 * detailed statistics (the gem5-stats view of a single cell of
 * Fig. 14).
 *
 * Usage:  ./build/examples/pipeline_sim [workload] [mechanism] [ops]
 *         mechanism: baseline | watchdog | pa | aos | pa+aos | asan-style
 *         (any MechanismSpec name, case-insensitive)
 * e.g.:   ./build/examples/pipeline_sim hmmer aos 500000
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/logging.hh"
#include "core/aos_system.hh"

using namespace aos;
using baselines::Mechanism;

namespace {

Mechanism
parseMechanism(const char *name)
{
    if (const baselines::MechanismSpec *spec =
            baselines::mechanismByName(name))
        return spec->mech;
    std::string names;
    for (const baselines::MechanismSpec &spec :
         baselines::mechanismSpecs()) {
        names += names.empty() ? "" : "|";
        names += spec.name;
    }
    fatal("unknown mechanism '%s' (%s)", name, names.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const char *workload = argc > 1 ? argv[1] : "hmmer";
    const Mechanism mech =
        argc > 2 ? parseMechanism(argv[2]) : Mechanism::kAos;
    const u64 ops = argc > 3 ? std::strtoull(argv[3], nullptr, 0)
                             : 500'000;

    const auto &profile = workloads::profileByName(workload);
    baselines::SystemOptions options;
    options.mech = mech;
    options.measureOps = ops;

    std::printf("== pipeline_sim: %s under %s, %lu source ops ==\n\n",
                workload, baselines::mechanismName(mech), ops);

    core::AosSystem system(profile, options);
    const core::RunResult r = system.run();

    std::printf("core:\n");
    std::printf("  cycles                 %12lu\n", r.core.cycles);
    std::printf("  committed micro-ops    %12lu\n", r.core.committed);
    std::printf("  IPC                    %12.3f\n", r.core.ipc());
    std::printf("  loads / stores         %12lu / %lu\n", r.core.loads,
                r.core.stores);
    std::printf("  branches (MPKI)        %12lu (%.2f)\n",
                r.core.branches, r.branchMpki);
    std::printf("  stalls: rob/lsq/mcq    %12lu / %lu / %lu\n",
                r.core.robFullStalls, r.core.lsqFullStalls,
                r.core.mcqFullStalls);
    std::printf("  retire delayed (MCQ)   %12lu\n", r.core.retireDelayed);

    std::printf("\ninstruction mix (measured window):\n");
    std::printf("  total                  %12lu\n", r.mix.total);
    std::printf("  unsigned load/store    %12lu / %lu\n",
                r.mix.unsignedLoads, r.mix.unsignedStores);
    std::printf("  signed   load/store    %12lu / %lu\n",
                r.mix.signedLoads, r.mix.signedStores);
    std::printf("  bndstr+bndclr          %12lu\n", r.mix.boundsOps);
    std::printf("  pac*/aut*/xpac*        %12lu\n", r.mix.pacOps);
    std::printf("  watchdog micro-ops     %12lu\n", r.mix.wdOps);

    const auto &mem = system.memory();
    std::printf("\nmemory system:\n");
    std::printf("  L1-D hit rate          %12.2f%% (%lu accesses)\n",
                100.0 * (1.0 - mem.l1d().stats().missRate()),
                mem.l1d().stats().accesses());
    if (mem.l1b()) {
        std::printf("  L1-B hit rate          %12.2f%% (%lu accesses)\n",
                    100.0 * (1.0 - mem.l1b()->stats().missRate()),
                    mem.l1b()->stats().accesses());
    }
    std::printf("  L2 hit rate            %12.2f%% (%lu accesses)\n",
                100.0 * (1.0 - mem.l2().stats().missRate()),
                mem.l2().stats().accesses());
    std::printf("  network traffic        %12lu bytes (measured window)\n",
                r.networkTraffic);

    if (baselines::mechanismSpec(mech).hasHbt) {
        std::printf("\nMCU / bounds:\n");
        std::printf("  checked ops            %12lu\n",
                    r.mcuStats.checkedOps);
        std::printf("  unchecked ops          %12lu\n",
                    r.mcuStats.uncheckedOps);
        std::printf("  HBT accesses per check %12.3f\n",
                    r.mcuStats.avgWaysPerCheck());
        std::printf("  BWB hit rate           %12.2f%%\n",
                    100.0 * r.bwb.hitRate());
        std::printf("  bounds forwards        %12lu\n",
                    r.mcuStats.forwards);
        std::printf("  replays                %12lu\n",
                    r.mcuStats.replays);
        std::printf("  HBT resizes            %12lu\n", r.hbt.resizes);
        std::printf("  HBT occupied records   %12lu\n", r.hbt.occupied);
        std::printf("  violations             %12lu\n", r.violations);
    }
    return 0;
}
