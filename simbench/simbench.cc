/**
 * @file
 * The simulator benchmark runner (see simbench/README.md).
 *
 * One process runs one repetition of one named workload — a fixed set
 * of simulation jobs — as a closed loop on a single campaign worker: the
 * next job starts when the previous one ends. The job set is a pure
 * function of the workload name and --seed. simbench/run.py repeats the
 * process, so every repetition starts from a fresh host heap, as a
 * user's campaign run does.
 *
 *   untraced mode  reports end-to-end host-time figures;
 *   traced mode    also times each simulator layer from outside, by
 *                  replaying the job's streams through fresh instances
 *                  of the layer's public API (generator, pass pipeline,
 *                  allocator, QARMA batch signing, HBT, memory
 *                  hierarchy, TAGE) after the timed campaign.
 *
 * The program under test is never modified: every span is taken here,
 * around calls into public interfaces. The fast-forward / measure split
 * of a job comes from the simulator's own prof::Scope labels, which are
 * live only when the caller sets AOS_PROFILE=1 (simbench/run.py does so
 * for traced runs only).
 *
 * stdout is one JSON document: correctness checks, provenance,
 * end-to-end and (traced) per-layer and per-job figures. simbench/run.py
 * turns it into the benchmark report.
 */

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cpuid.h>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bounds/compression.hh"
#include "campaign/campaign.hh"
#include "campaign/json.hh"
#include "common/logging.hh"
#include "common/profiler.hh"
#include "common/stats.hh"
#include "compiler/aos_passes.hh"
#include "compiler/op_counter.hh"
#include "compiler/pa_pass.hh"
#include "compiler/watchdog_pass.hh"
#include "core/aos_system.hh"
#include "cpu/tage.hh"
#include "os/os_model.hh"
#include "os/scheduler.hh"
#include "os/tenant.hh"
#include "pa/pa_context.hh"
#include "qarma/qarma_sliced.hh"
#include "workloads/synthetic_workload.hh"
#include "workloads/workload_profile.hh"

using namespace aos;
using baselines::Mechanism;
using campaign::JsonValue;

extern char **environ;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

u64
fnv1a(const std::string &s)
{
    u64 h = 0xcbf29ce484222325ull;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

// ---------------------------------------------------------------------
// Workloads.

const Mechanism kAllMechs[] = {Mechanism::kBaseline, Mechanism::kWatchdog,
                               Mechanism::kPa, Mechanism::kAos,
                               Mechanism::kPaAos};
const Mechanism kAosMechs[] = {Mechanism::kBaseline, Mechanism::kAos,
                               Mechanism::kPaAos};

// Measured windows (source micro-ops after the phase mark) and fleet
// shape. Chosen so one repetition of each job set takes 1-8 host
// seconds; see README.md for the sizing.
constexpr u64 kFig14Ops = 60'000;
constexpr u64 kWarmBuildOps = 20'000;
constexpr u64 kCoreTimedOps = 300'000;
constexpr unsigned kFleetTenants = 8;
constexpr u64 kTenantOps = 60'000;
constexpr u64 kTenantQuantum = 2000;
constexpr unsigned kFleetsPerMech = 2;

/** tenant_matrix's rotating profiles: alloc-, memory- and branch-heavy. */
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

/** One generated instruction stream of a job (a tenant, or the job). */
struct Unit
{
    workloads::WorkloadProfile profile;
    Mechanism mech = Mechanism::kBaseline;
    u64 ops = 0;
    u64 seed = 0;
    Addr heapBase = 0;   //!< 0 = generator default.
    Addr globalBase = 0; //!< 0 = generator default.
    Addr hbtBase = os::OsModel::kDefaultHbtBase;
    std::optional<pa::KeySet> keys; //!< Tenant keys; default otherwise.
};

struct JobSpec
{
    std::string name;
    Mechanism mech = Mechanism::kBaseline;
    u64 seed = 0;
    bool fleet = false;
    std::vector<Unit> units; //!< One for a single run, N for a fleet.
};

bool
isAos(Mechanism mech)
{
    return mech == Mechanism::kAos || mech == Mechanism::kPaAos;
}

std::vector<JobSpec>
buildJobs(const std::string &workload, u64 seed)
{
    std::vector<JobSpec> jobs;
    auto single = [&](const workloads::WorkloadProfile &profile,
                      Mechanism mech, u64 ops, u64 salt) {
        JobSpec job;
        job.name = csprintf("%s/%s/s%llu", profile.name.c_str(),
                            baselines::mechanismName(mech),
                            static_cast<unsigned long long>(salt));
        job.mech = mech;
        job.seed = salt;
        Unit unit;
        unit.profile = profile;
        unit.mech = mech;
        unit.ops = ops;
        unit.seed = salt;
        job.units.push_back(unit);
        jobs.push_back(std::move(job));
    };

    if (workload == "fig14") {
        for (const auto &profile : workloads::specProfiles())
            for (const Mechanism mech : kAllMechs)
                single(profile, mech, kFig14Ops, seed);
    } else if (workload == "warm_build") {
        for (const char *name : {"omnetpp", "astar", "sphinx3"})
            for (const u64 salt : {2 * seed, 2 * seed + 1})
                for (const Mechanism mech : kAosMechs)
                    single(workloads::profileByName(name), mech,
                           kWarmBuildOps, salt);
    } else if (workload == "core_timed") {
        for (const char *name : {"hmmer", "mcf", "lbm", "sjeng"})
            for (const Mechanism mech : kAllMechs)
                single(workloads::profileByName(name), mech,
                       kCoreTimedOps, seed);
    } else if (workload == "tenant_churn") {
        for (unsigned f = 0; f < kFleetsPerMech; ++f) {
            for (const Mechanism mech : kAosMechs) {
                JobSpec job;
                job.fleet = true;
                job.mech = mech;
                job.seed = seed * kFleetsPerMech + f;
                job.name = csprintf("fleet%u/%s/s%llu", f,
                                    baselines::mechanismName(mech),
                                    static_cast<unsigned long long>(
                                        job.seed));
                for (unsigned i = 0; i < kFleetTenants; ++i) {
                    Unit unit;
                    // Rotate the profile order per fleet so each fleet
                    // mixes the three behaviours differently.
                    unit.profile = tenantProfile(i + f);
                    unit.mech = mech;
                    unit.ops = kTenantOps;
                    unit.seed = job.seed * 64 + i + 1;
                    unit.heapBase = os::TenantContext::heapBaseFor(i);
                    unit.globalBase = os::TenantContext::globalBaseFor(i);
                    unit.hbtBase = os::TenantContext::hbtBaseFor(i);
                    job.units.push_back(unit);
                }
                jobs.push_back(std::move(job));
            }
        }
    }
    return jobs;
}

// ---------------------------------------------------------------------
// Running the job set.

/** Host-side figures of one executed job, gathered by its body. */
struct JobHost
{
    double setupS = 0;   //!< AosSystem ctor, or Scheduler ctor + spawns.
    double ffS = 0;      //!< sys.fastforward (AOS_PROFILE) / spawns.
    double measureS = 0; //!< sys.measure (AOS_PROFILE) / Scheduler::run.
    double fleetS = 0;   //!< Scheduler::run (fleets only).
    u64 slices = 0;
    u64 switches = 0;
    u64 cycles = 0;
    u64 committed = 0;
    core::RunResult run;                //!< Single-run jobs only.
    memsim::CacheStats l1d, l1b, l2;    //!< Whole-job cache counters.
    u64 dramAccesses = 0;
    std::vector<u64> tenantMixTotals;   //!< Fleets: per-tenant mix.
};

double
profMs(const char *label)
{
    const auto snap = prof::snapshot();
    const auto it = snap.find(label);
    return it == snap.end() ? 0.0 : it->second.wallMs;
}

core::RunResult
runSingle(const JobSpec &job, const CancelToken &cancel, JobHost &host)
{
    const Unit &unit = job.units.front();
    baselines::SystemOptions options;
    options.mech = unit.mech;
    options.measureOps = unit.ops;
    options.seedSalt = unit.seed;
    options.cancel = &cancel;

    const Clock::time_point t0 = Clock::now();
    core::AosSystem system(unit.profile, options);
    host.setupS = secondsSince(t0);

    const double ff0 = profMs("sys.fastforward");
    const double ms0 = profMs("sys.measure");
    core::RunResult run = system.run();
    host.ffS = (profMs("sys.fastforward") - ff0) / 1e3;
    host.measureS = (profMs("sys.measure") - ms0) / 1e3;

    const memsim::MemorySystem &mem = system.memory();
    host.l1d = mem.l1d().stats();
    if (mem.l1b())
        host.l1b = mem.l1b()->stats();
    host.l2 = mem.l2().stats();
    host.dramAccesses = mem.dramAccesses();
    host.cycles = run.core.cycles;
    host.committed = run.core.committed;
    host.run = run;
    return run;
}

core::RunResult
runFleet(const JobSpec &job, const CancelToken &cancel, JobHost &host)
{
    os::SchedulerConfig config;
    config.options.mech = job.mech;
    config.options.cancel = &cancel;
    config.quantumOps = kTenantQuantum;
    config.seed = job.seed + 1;

    const Clock::time_point t0 = Clock::now();
    os::Scheduler scheduler(config);
    const Clock::time_point t1 = Clock::now();
    for (const Unit &unit : job.units) {
        os::TenantConfig tenant;
        tenant.profile = unit.profile;
        tenant.seed = unit.seed;
        tenant.measureOps = unit.ops;
        scheduler.spawn(tenant);
    }
    host.ffS = secondsSince(t1);
    host.setupS = secondsSince(t0);

    const Clock::time_point t2 = Clock::now();
    const os::SchedulerResult sched = scheduler.run();
    host.fleetS = secondsSince(t2);
    host.measureS = host.fleetS;
    host.slices = sched.slices;
    host.switches = sched.contextSwitches;
    host.cycles = sched.cycles;
    host.committed = sched.core.committed;

    core::RunResult run;
    run.workload = "fleet";
    run.mech = job.mech;
    run.core = sched.core;
    run.extra.scalar("busy_cycles") = static_cast<double>(sched.cycles);
    run.extra.scalar("context_switches") =
        static_cast<double>(sched.contextSwitches);
    run.extra.scalar("slices") = static_cast<double>(sched.slices);
    run.extra.scalar("terminations") =
        static_cast<double>(sched.terminations);
    // 32 bits so the value is exact as a double.
    run.extra.scalar("fingerprint_fnv32") = static_cast<double>(
        fnv1a(sched.functionalFingerprint()) & 0xffffffffu);
    for (const os::TenantStats &t : sched.tenants) {
        run.extra.scalar(csprintf("tenant%u_mix_total", t.id)) =
            static_cast<double>(t.mixTotal);
        run.extra.scalar(csprintf("tenant%u_violations", t.id)) =
            static_cast<double>(t.violations);
        run.extra.scalar(csprintf("tenant%u_hbt_inserts", t.id)) =
            static_cast<double>(t.hbtInserts);
        host.tenantMixTotals.push_back(t.mixTotal);
    }
    return run;
}

struct Rep
{
    double wallS = 0;
    double campaignSetupS = 0; //!< Rep start to first job body.
    double jobS = 0;           //!< Sum of the campaign's job wall times.
    double ctorS = 0;          //!< Sum of JobHost::setupS.
    std::string digest;        //!< FNV-1a of the canonical campaign JSON.
    campaign::CampaignResult result;
    std::vector<JobHost> hosts;
};

Rep
runRep(const std::string &workload, const std::vector<JobSpec> &specs)
{
    Rep rep;
    rep.hosts.resize(specs.size());
    std::optional<Clock::time_point> firstBody;

    const Clock::time_point t0 = Clock::now();
    campaign::CampaignOptions options;
    options.name = "simbench_" + workload;
    options.workers = 1;
    options.progress = false;
    options.timeoutSec = 170; // A wedged job is a failure, not a hang.
    campaign::Campaign sweep(options);
    for (size_t i = 0; i < specs.size(); ++i) {
        campaign::Job job;
        job.name = specs[i].name;
        job.profile = specs[i].units.front().profile;
        job.mech = specs[i].mech;
        job.seed = specs[i].seed;
        job.ops = specs[i].units.front().ops;
        JobHost *host = &rep.hosts[i];
        const JobSpec *spec = &specs[i];
        job.cancellableBody = [spec, host,
                               &firstBody](const CancelToken &cancel) {
            if (!firstBody)
                firstBody = Clock::now();
            *host = JobHost();
            return spec->fleet ? runFleet(*spec, cancel, *host)
                               : runSingle(*spec, cancel, *host);
        };
        sweep.add(std::move(job));
    }
    rep.result = sweep.run();
    rep.wallS = secondsSince(t0);
    rep.campaignSetupS =
        firstBody ? std::chrono::duration<double>(*firstBody - t0).count()
                  : rep.wallS;
    for (size_t i = 0; i < specs.size(); ++i) {
        rep.jobS += rep.result.jobs[i].wallMs / 1e3;
        rep.ctorS += rep.hosts[i].setupS;
    }
    rep.digest = csprintf("%016llx", static_cast<unsigned long long>(
                                         fnv1a(rep.result.json(false))));
    return rep;
}

// ---------------------------------------------------------------------
// Outside replays (traced mode).

/** A stream tap that counts source ops and records malloc/free events. */
class SourceTap : public ir::InstStream
{
  public:
    struct AllocEvent
    {
        Addr base = 0;
        u32 size = 0;
        bool free = false;
    };

    explicit SourceTap(ir::InstStream *below) : _below(below) {}

    bool
    next(ir::MicroOp &op) override
    {
        return nextBatch(&op, 1) == 1;
    }

    size_t
    nextBatch(ir::MicroOp *out, size_t max) override
    {
        const size_t n = _below->nextBatch(out, max);
        for (size_t i = 0; i < n; ++i) {
            const ir::MicroOp &op = out[i];
            if (op.kind == ir::OpKind::kPhaseMark) {
                warmMallocs = mallocs;
                continue;
            }
            ++ops;
            if (op.kind == ir::OpKind::kMallocMark) {
                ++mallocs;
                allocEvents.push_back({op.chunkBase, op.size, false});
            } else if (op.kind == ir::OpKind::kFreeMark) {
                allocEvents.push_back({op.chunkBase, 0, true});
            }
        }
        return n;
    }

    u64 ops = 0;
    u64 mallocs = 0;
    u64 warmMallocs = 0;
    std::vector<AllocEvent> allocEvents;

  private:
    ir::InstStream *_below;
};

/** What the mechanism pipeline emitted, as the fast-forward sees it. */
struct OutputTrace
{
    struct BoundsEvent
    {
        u64 pac = 0;
        Addr raw = 0;
        u32 size = 0;
        bool clear = false;
    };
    /** Warm-phase memory events in order; bounds writes carry no addr. */
    struct MemEvent
    {
        Addr addr = 0;
        u8 kind = 0; //!< 0 load, 1 store, 2 bounds write (next way).
    };

    std::vector<BoundsEvent> bounds;
    size_t warmBounds = 0;
    std::vector<MemEvent> warmMem;
    std::vector<u32> warmBranches; //!< branchId << 1 | taken.
    std::vector<u32> measureBranches;
    u64 outOps = 0;
    ir::OpMixStats warmMix, finalMix;
};

/** The mechanism pipeline, built as AosSystem / TenantContext build it. */
struct Pipeline
{
    std::unique_ptr<pa::PaContext> pa;
    std::unique_ptr<workloads::SyntheticWorkload> gen;
    std::unique_ptr<SourceTap> tap;
    std::unique_ptr<compiler::PassManager> passes;
    compiler::OpCounter *counter = nullptr;

    Pipeline(const Unit &unit, bool tapped)
    {
        pa = std::make_unique<pa::PaContext>(pa::PointerLayout(16, 46));
        if (unit.keys)
            pa->installKeys(*unit.keys);
        gen = std::make_unique<workloads::SyntheticWorkload>(
            unit.profile, unit.ops, unit.seed, unit.heapBase,
            unit.globalBase);
        ir::InstStream *source = gen.get();
        if (tapped) {
            tap = std::make_unique<SourceTap>(gen.get());
            source = tap.get();
        }
        passes = std::make_unique<compiler::PassManager>(source);
        switch (unit.mech) {
          case Mechanism::kWatchdog:
            passes->add<compiler::WatchdogPass>();
            break;
          case Mechanism::kPa:
            passes->add<compiler::PaPass>(compiler::PaMode::kPaOnly);
            break;
          case Mechanism::kAos:
            passes->add<compiler::AosOptPass>();
            passes->add<compiler::AosBackendPass>(pa.get());
            break;
          case Mechanism::kPaAos:
            passes->add<compiler::AosOptPass>();
            passes->add<compiler::AosBackendPass>(pa.get());
            passes->add<compiler::PaPass>(compiler::PaMode::kPaAos);
            break;
          default:
            break;
        }
        counter = passes->add<compiler::OpCounter>(pa->layout());
    }
};

void
busyWait(double ms)
{
    if (ms <= 0)
        return;
    const Clock::time_point t0 = Clock::now();
    while (secondsSince(t0) * 1e3 < ms) {
    }
}

/** Drain @p stream in fast-forward-sized blocks, timing each phase. */
void
timedDrain(ir::InstStream &stream, double &warmS, double &measureS,
           double busyMs)
{
    constexpr size_t kBlock = 1024;
    std::vector<ir::MicroOp> buf(kBlock);
    bool warm = true;
    Clock::time_point t0 = Clock::now();
    busyWait(busyMs);
    for (size_t n; (n = stream.nextBatch(buf.data(), kBlock)) != 0;) {
        if (!warm)
            continue;
        for (size_t i = 0; i < n; ++i) {
            if (buf[i].kind == ir::OpKind::kPhaseMark) {
                warmS += secondsSince(t0);
                warm = false;
                t0 = Clock::now();
                break;
            }
        }
    }
    if (warm)
        warmS += secondsSince(t0);
    else
        measureS += secondsSince(t0);
}

void
recordOutput(Pipeline &pipe, OutputTrace &out)
{
    const pa::PointerLayout &layout = pipe.pa->layout();
    constexpr size_t kBlock = 1024;
    std::vector<ir::MicroOp> buf(kBlock);
    bool warm = true;
    for (size_t n; (n = pipe.passes->nextBatch(buf.data(), kBlock)) != 0;) {
        for (size_t i = 0; i < n; ++i) {
            const ir::MicroOp &op = buf[i];
            if (op.kind == ir::OpKind::kPhaseMark) {
                warm = false;
                out.warmBounds = out.bounds.size();
                continue;
            }
            ++out.outOps;
            switch (op.kind) {
              case ir::OpKind::kBndstr:
                out.bounds.push_back({layout.pac(op.addr),
                                      layout.strip(op.addr), op.size,
                                      false});
                if (warm)
                    out.warmMem.push_back({0, 2});
                break;
              case ir::OpKind::kBndclr:
                out.bounds.push_back({layout.pac(op.addr),
                                      layout.strip(op.addr), 0, true});
                break;
              case ir::OpKind::kLoad:
              case ir::OpKind::kWdMetaLoad:
                if (warm)
                    out.warmMem.push_back({layout.strip(op.addr), 0});
                break;
              case ir::OpKind::kStore:
              case ir::OpKind::kWdMetaStore:
                if (warm)
                    out.warmMem.push_back({layout.strip(op.addr), 1});
                break;
              case ir::OpKind::kBranch:
                (warm ? out.warmBranches : out.measureBranches)
                    .push_back(op.branchId << 1 | (op.taken ? 1u : 0u));
                break;
              default:
                break;
            }
        }
    }
    out.warmMix = pipe.counter->mixAtPhaseMark();
    out.finalMix = pipe.counter->mix();
}

/** Layer figures from the outside replays (one job, or summed). */
struct Layers
{
    double genWarmS = 0, genMeasureS = 0;
    double pipeWarmS = 0, pipeMeasureS = 0; //!< Generator + passes.
    double allocS = 0;
    u64 allocCalls = 0;
    double signS = 0;
    u64 pacs = 0;
    double hbtWarmS = 0, hbtChurnS = 0;
    double memWarmS = 0;
    double tageWarmS = 0, tageS = 0;
    u64 srcOps = 0, outOps = 0, warmMallocs = 0;

    double passesWarmS() const { return pipeWarmS - genWarmS; }
    double passesMeasureS() const { return pipeMeasureS - genMeasureS; }
    /** The fast-forward work the replays account for. */
    double
    replayedFfS() const
    {
        return pipeWarmS + hbtWarmS + memWarmS + tageWarmS;
    }

    void
    add(const Layers &o)
    {
        genWarmS += o.genWarmS;
        genMeasureS += o.genMeasureS;
        pipeWarmS += o.pipeWarmS;
        pipeMeasureS += o.pipeMeasureS;
        allocS += o.allocS;
        allocCalls += o.allocCalls;
        signS += o.signS;
        pacs += o.pacs;
        hbtWarmS += o.hbtWarmS;
        hbtChurnS += o.hbtChurnS;
        memWarmS += o.memWarmS;
        tageWarmS += o.tageWarmS;
        tageS += o.tageS;
        srcOps += o.srcOps;
        outOps += o.outOps;
        warmMallocs += o.warmMallocs;
    }
};

/** Per-stream results of a replay that the correctness checks read. */
struct UnitCheck
{
    ir::OpMixStats warmMix, finalMix;
};

struct CheckLog
{
    std::vector<std::string> failures;
    void
    fail(const std::string &what)
    {
        if (failures.size() < 20)
            failures.push_back(what);
        else if (failures.size() == 20)
            failures.push_back("(further failures suppressed)");
    }
};

double
replayTage(const std::vector<u32> &branches)
{
    cpu::Tage tage;
    const Clock::time_point t0 = Clock::now();
    for (const u32 b : branches) {
        const Addr pc = 0x400000 + static_cast<Addr>(b >> 1) * 4;
        tage.predict(pc);
        tage.update(pc, b & 1);
    }
    return secondsSince(t0);
}

UnitCheck
replayUnit(const JobSpec &job, const Unit &unit, double busyMs,
           Layers &layers, CheckLog &checks)
{
    // 1. Generator alone.
    {
        workloads::SyntheticWorkload gen(unit.profile, unit.ops, unit.seed,
                                         unit.heapBase, unit.globalBase);
        timedDrain(gen, layers.genWarmS, layers.genMeasureS, busyMs);
    }
    // 2. Generator + mechanism passes + op counter.
    {
        Pipeline pipe(unit, false);
        timedDrain(*pipe.passes, layers.pipeWarmS, layers.pipeMeasureS,
                   busyMs);
    }
    // 3. Record (untimed): source events via a tap, output events.
    Pipeline pipe(unit, true);
    OutputTrace trace;
    recordOutput(pipe, trace);
    const SourceTap &tap = *pipe.tap;
    layers.srcOps += tap.ops;
    layers.outOps += trace.outOps;
    layers.warmMallocs += tap.warmMallocs;

    // 4. Allocator: the malloc/free sequence on a fresh HeapAllocator.
    {
        alloc::HeapAllocator heap(unit.heapBase
                                      ? unit.heapBase
                                      : workloads::SyntheticWorkload::
                                            kDefaultHeapBase);
        heap.reserveLive(unit.profile.targetActive + 16);
        u64 mismatches = 0;
        const Clock::time_point t0 = Clock::now();
        for (const SourceTap::AllocEvent &e : tap.allocEvents) {
            if (e.free) {
                if (heap.free(e.base) != alloc::FreeResult::kOk)
                    ++mismatches;
            } else if (heap.malloc(e.size) != e.base) {
                ++mismatches;
            }
        }
        layers.allocS += secondsSince(t0);
        layers.allocCalls += tap.allocEvents.size();
        if (mismatches)
            checks.fail(csprintf("%s: allocator replay diverged on %llu "
                                 "of %zu calls",
                                 job.name.c_str(),
                                 static_cast<unsigned long long>(
                                     mismatches),
                                 tap.allocEvents.size()));
    }

    // 5. QARMA: one PAC per AOS malloc/free, through the batch API in
    //    the backend pass's window size.
    if (isAos(unit.mech)) {
        pa::PacBatch batch(pipe.pa.get());
        constexpr u64 kSp = 0x7ffff000; // AosBackendPass default.
        const Clock::time_point t0 = Clock::now();
        for (const SourceTap::AllocEvent &e : tap.allocEvents) {
            batch.enqueue(e.base, kSp, e.free ? 0 : e.size);
            if (batch.pending() == compiler::AosBackendPass::kSignWindow) {
                batch.flush();
                batch.clear();
            }
        }
        if (batch.pending())
            batch.flush();
        layers.signS += secondsSince(t0);
        layers.pacs += tap.allocEvents.size();
    }

    // 6. HBT: warm bndstr/bndclr (with resizes), then the churn phase.
    std::vector<Addr> wayAddrs;
    if (isAos(unit.mech)) {
        os::OsModel osm(16, 1, bounds::kSlotsPerWay,
                        os::FaultPolicy::kReport, unit.hbtBase);
        bounds::HashedBoundsTable &hbt = osm.hbt();
        wayAddrs.reserve(trace.warmBounds);
        auto apply = [&](const OutputTrace::BoundsEvent &e, bool warm) {
            if (e.clear) {
                hbt.clear(e.pac, e.raw);
                return;
            }
            auto way = hbt.insert(e.pac, bounds::compress(e.raw, e.size));
            while (!way) {
                if (!hbt.resizing())
                    hbt.beginResize();
                hbt.finishResize();
                way = hbt.insert(e.pac, bounds::compress(e.raw, e.size));
            }
            if (warm)
                wayAddrs.push_back(hbt.wayAddr(e.pac, *way));
        };
        Clock::time_point t0 = Clock::now();
        for (size_t i = 0; i < trace.warmBounds; ++i)
            apply(trace.bounds[i], true);
        layers.hbtWarmS += secondsSince(t0);
        t0 = Clock::now();
        for (size_t i = trace.warmBounds; i < trace.bounds.size(); ++i)
            apply(trace.bounds[i], false);
        layers.hbtChurnS += secondsSince(t0);
    }

    // 7. Memory hierarchy: warm data accesses and bounds-way writes.
    {
        memsim::MemoryConfig config;
        config.useBoundsCache = isAos(unit.mech);
        memsim::MemorySystem mem(config);
        size_t nextWay = 0;
        const Clock::time_point t0 = Clock::now();
        for (const OutputTrace::MemEvent &e : trace.warmMem) {
            if (e.kind == 2) {
                if (nextWay < wayAddrs.size())
                    mem.boundsAccess(wayAddrs[nextWay++], true);
            } else {
                mem.dataAccess(e.addr, e.kind == 1);
            }
        }
        layers.memWarmS += secondsSince(t0);
    }

    // 8. TAGE: warm and measured-window branch sequences.
    layers.tageWarmS += replayTage(trace.warmBranches);
    layers.tageS += replayTage(trace.measureBranches);
    return {trace.warmMix, trace.finalMix};
}

// ---------------------------------------------------------------------
// Provenance.

std::string
cpuBrand()
{
    unsigned regs[12] = {};
    unsigned max = __get_cpuid_max(0x80000000, nullptr);
    if (max < 0x80000004)
        return "unknown";
    for (unsigned i = 0; i < 3; ++i)
        __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]);
    std::string brand(reinterpret_cast<const char *>(regs), 48);
    brand = brand.c_str();
    const size_t lo = brand.find_first_not_of(' ');
    return lo == std::string::npos ? "unknown" : brand.substr(lo);
}

std::string
cpuFlags()
{
    std::string flags;
    __builtin_cpu_init();
#define SIMBENCH_FLAG(name)                                                 \
    if (__builtin_cpu_supports(name))                                       \
        flags += std::string(flags.empty() ? "" : " ") + name;
    SIMBENCH_FLAG("sse4.2")
    SIMBENCH_FLAG("popcnt")
    SIMBENCH_FLAG("avx")
    SIMBENCH_FLAG("avx2")
    SIMBENCH_FLAG("bmi2")
    SIMBENCH_FLAG("avx512f")
    SIMBENCH_FLAG("avx512bw")
    SIMBENCH_FLAG("avx512vl")
#undef SIMBENCH_FLAG
    return flags;
}

const char *
kernelName(qarma::SlicedKernel kernel)
{
    switch (kernel) {
      case qarma::SlicedKernel::kAuto: return "auto";
      case qarma::SlicedKernel::kScalar: return "scalar";
      case qarma::SlicedKernel::kSliced64: return "sliced64";
      case qarma::SlicedKernel::kSimd128: return "simd128";
      case qarma::SlicedKernel::kSimd512: return "simd512";
    }
    return "unknown";
}

JsonValue
provenance()
{
#if defined(__SANITIZE_ADDRESS__)
    const char *sanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
    const char *sanitizer = "thread";
#else
    const char *sanitizer = "none";
#endif
#if defined(__OPTIMIZE__)
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
    JsonValue aosEnv = JsonValue::object();
    for (char **e = environ; *e; ++e) {
        const std::string kv = *e;
        if (kv.rfind("AOS_", 0) == 0) {
            const size_t eq = kv.find('=');
            aosEnv.set(kv.substr(0, eq), kv.substr(eq + 1));
        }
    }
    std::string why;
    if (std::strcmp(sanitizer, "none") != 0)
        why = std::string("sanitizer build (") + sanitizer + ")";
    else if (!optimized)
        why = "unoptimized build";
    return JsonValue::object()
        .set("build_type", SIMBENCH_BUILD_TYPE)
        .set("cxx_flags", SIMBENCH_CXX_FLAGS)
        .set("compiler", SIMBENCH_COMPILER)
        .set("sanitizer", sanitizer)
        .set("optimized", optimized)
        .set("qarma_kernel", kernelName(qarma::QarmaSliced().kernel()))
        .set("cpu_model", cpuBrand())
        .set("cpu_flags", cpuFlags())
        .set("nproc", std::thread::hardware_concurrency())
        .set("aos_env", aosEnv)
        .set("comparable", why.empty())
        .set("not_comparable_reason", why);
}

// ---------------------------------------------------------------------
// Reporting.

double
peakRssMb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** Fig. 14 geomean normalized execution time per mechanism. */
std::map<Mechanism, double>
fig14Geomeans(const campaign::CampaignResult &result,
              const std::vector<JobSpec> &specs)
{
    std::map<Mechanism, std::vector<double>> norm;
    std::map<std::string, double> baseCycles;
    for (size_t i = 0; i < specs.size(); ++i)
        if (specs[i].mech == Mechanism::kBaseline)
            baseCycles[specs[i].units.front().profile.name] =
                result.jobs[i].stats.value("cycles");
    for (size_t i = 0; i < specs.size(); ++i) {
        if (specs[i].mech == Mechanism::kBaseline)
            continue;
        const double base =
            baseCycles[specs[i].units.front().profile.name];
        norm[specs[i].mech].push_back(
            result.jobs[i].stats.value("cycles") / base);
    }
    std::map<Mechanism, double> out;
    for (const auto &[mech, values] : norm)
        out[mech] = geomean(values);
    return out;
}

struct Args
{
    std::string workload;
    u64 seed = 1;
    bool traced = false;
    unsigned maxJobs = 0;   //!< Test hook: truncate the job set.
    double busyMs = 0;      //!< Test hook: busy-wait at the start of
                            //!< each generator and pipeline drain.
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: simbench --workload fig14|warm_build|core_timed|"
                 "tenant_churn [--seed N] [--traced]\n"
                 "                [--max-jobs N] [--inject-gen-busy-ms MS]\n");
    return 2;
}

/** @p srcOpsAgree is empty when the check could not run (null). */
JsonValue
checksJson(const CheckLog &log, bool allOk,
           std::optional<bool> srcOpsAgree)
{
    JsonValue failures = JsonValue::array();
    for (const std::string &f : log.failures)
        failures.push(f);
    return JsonValue::object()
        .set("jobs_ok", allOk)
        .set("src_ops_match_generator",
             srcOpsAgree ? JsonValue(*srcOpsAgree) : JsonValue())
        .set("failures", failures);
}

std::optional<Args>
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--traced") {
            args.traced = true;
            continue;
        }
        if (i + 1 >= argc)
            return std::nullopt;
        const char *v = argv[++i];
        if (a == "--workload")
            args.workload = v;
        else if (a == "--seed")
            args.seed = std::strtoull(v, nullptr, 10);
        else if (a == "--max-jobs")
            args.maxJobs = static_cast<unsigned>(std::atoi(v));
        else if (a == "--inject-gen-busy-ms")
            args.busyMs = std::atof(v);
        else
            return std::nullopt;
    }
    return args;
}

/**
 * Fleet tenants sign under per-tenant keys: take them from a
 * TenantContext, which mints them exactly as the scheduler does.
 */
void
mintTenantKeys(std::vector<JobSpec> &specs)
{
    const pa::PaContext pa(pa::PointerLayout(16, 46));
    baselines::SystemOptions machine;
    for (JobSpec &job : specs) {
        if (!job.fleet)
            continue;
        machine.mech = job.mech;
        for (u32 i = 0; i < job.units.size(); ++i) {
            os::TenantConfig tc;
            tc.profile = job.units[i].profile;
            tc.seed = job.units[i].seed;
            tc.measureOps = job.units[i].ops;
            const os::TenantContext ctx(i, tc, machine, &pa);
            job.units[i].keys = ctx.keys();
        }
    }
}

std::string
streamKey(const Unit &u)
{
    return csprintf("%s/%llu/%llu/%llx", u.profile.name.c_str(),
                    static_cast<unsigned long long>(u.ops),
                    static_cast<unsigned long long>(u.seed),
                    static_cast<unsigned long long>(u.heapBase));
}

/** Source micro-ops of one generated stream, without the phase mark. */
struct StreamOps
{
    u64 total = 0;  //!< Warmup plus measured window.
    u64 window = 0; //!< After kPhaseMark.
};

/**
 * Source micro-ops of every unit of every job, counted once before
 * timing on the generator alone. The stream is a pure function of
 * profile, window, seed and placement, so the count is the same for
 * every mechanism; checkSourceOps holds each job to it.
 */
std::vector<std::vector<StreamOps>>
countSourceOps(const std::vector<JobSpec> &specs)
{
    std::vector<std::vector<StreamOps>> out(specs.size());
    std::map<std::string, StreamOps> cache;
    std::vector<ir::MicroOp> buf(1024);
    for (size_t i = 0; i < specs.size(); ++i) {
        for (const Unit &u : specs[i].units) {
            auto it = cache.find(streamKey(u));
            if (it == cache.end()) {
                workloads::SyntheticWorkload gen(u.profile, u.ops, u.seed,
                                                 u.heapBase, u.globalBase);
                StreamOps n;
                bool window = false;
                for (size_t k;
                     (k = gen.nextBatch(buf.data(), buf.size())) != 0;) {
                    for (size_t j = 0; j < k; ++j) {
                        if (buf[j].kind == ir::OpKind::kPhaseMark) {
                            window = true;
                            continue;
                        }
                        ++n.total;
                        n.window += window;
                    }
                }
                it = cache.emplace(streamKey(u), n).first;
            }
            out[i].push_back(it->second);
        }
    }
    return out;
}

u64
sourceOps(const std::vector<StreamOps> &units)
{
    u64 n = 0;
    for (const StreamOps &u : units)
        n += u.total;
    return n;
}

/**
 * The source ops src_mops_per_s counts must be the ones each job
 * consumed. A single-run job reports its measured-window op mix; less
 * the ops its mechanism's passes insert (bounds, PAC and Watchdog ops),
 * that is the window's source ops, which must equal the generator's
 * count for every mechanism. A Baseline fleet inserts nothing, so each
 * tenant's mixTotal must equal its whole stream (plus the phase mark,
 * which the tenant's counter tallies too). Instrumented fleets
 * report no breakdown of mixTotal; the traced run's mix check covers
 * them. Returns false on a mismatch.
 */
bool
checkSourceOps(const std::vector<JobSpec> &specs, const Rep &rep,
               const std::vector<std::vector<StreamOps>> &streams,
               CheckLog &checks)
{
    bool agree = true;
    const auto expect = [&](const JobSpec &job, const char *what,
                            u64 reported, u64 generated) {
        if (reported == generated)
            return;
        agree = false;
        checks.fail(csprintf("%s: %s %llu source ops, the generator %llu",
                             job.name.c_str(), what,
                             static_cast<unsigned long long>(reported),
                             static_cast<unsigned long long>(generated)));
    };
    for (size_t i = 0; i < specs.size(); ++i) {
        const JobSpec &job = specs[i];
        const JobHost &host = rep.hosts[i];
        if (!job.fleet) {
            const ir::OpMixStats &m = host.run.mix;
            expect(job, "window mix less inserted ops gives",
                   m.total - m.boundsOps - m.pacOps - m.wdOps,
                   streams[i].front().window);
        } else if (job.mech == Mechanism::kBaseline) {
            for (size_t u = 0; u < streams[i].size(); ++u)
                expect(job, "a tenant's mix_total less the mark gives",
                       u < host.tenantMixTotals.size()
                           ? host.tenantMixTotals[u] - 1
                           : 0,
                       streams[i][u].total);
        }
    }
    return agree;
}

/** Paper Fig. 14 error, plus the simulated geomeans, into @p e2e/doc. */
void
addPaperError(const campaign::CampaignResult &result,
              const std::vector<JobSpec> &specs, JsonValue &e2e,
              JsonValue &doc)
{
    // Paper Fig. 14 geomeans; PA+AOS is AOS + 1.5%.
    const std::map<Mechanism, double> paper = {
        {Mechanism::kWatchdog, 1.194},
        {Mechanism::kPa, 1.005},
        {Mechanism::kAos, 1.084},
        {Mechanism::kPaAos, 1.084 * 1.015}};
    const auto sim = fig14Geomeans(result, specs);
    double err = 0;
    JsonValue geo = JsonValue::object();
    for (const auto &[mech, ref] : paper) {
        const double v = sim.count(mech) ? sim.at(mech) : 0.0;
        geo.set(baselines::mechanismName(mech), v);
        err += std::fabs(v - ref) / ref;
    }
    e2e.set("paper_err_pct", 100.0 * err / paper.size());
    doc.set("fig14_geomeans", geo);
}

/**
 * Per-mechanism throughput of one rep: source ops (what this benchmark
 * reports) next to committed ops (what the older ops-per-second figure
 * counted).
 */
JsonValue
byMechJson(const std::vector<JobSpec> &specs, const Rep &rep,
           const std::vector<u64> &srcOps)
{
    std::map<std::string, std::array<double, 3>> byMech;
    for (size_t i = 0; i < specs.size(); ++i) {
        auto &acc = byMech[baselines::mechanismName(specs[i].mech)];
        acc[0] += static_cast<double>(srcOps[i]);
        acc[1] += static_cast<double>(rep.hosts[i].committed);
        acc[2] += rep.result.jobs[i].wallMs / 1e3;
    }
    JsonValue out = JsonValue::object();
    for (const auto &[name, acc] : byMech)
        out.set(name, JsonValue::object()
                          .set("src_mops_per_s", acc[0] / acc[2] / 1e6)
                          .set("committed_mops_per_s", acc[1] / acc[2] / 1e6)
                          .set("job_s", acc[2]));
    return out;
}

/** Host and simulated figures of a traced rep, summed over its jobs. */
struct JobTotals
{
    double setupS = 0, ffS = 0, measureS = 0, fleetS = 0;
    u64 slices = 0, switches = 0, cycles = 0, committed = 0;
    u64 hbtInserts = 0, hbtResizes = 0, bwbHits = 0, bwbLookups = 0;
    u64 robStalls = 0, lsqStalls = 0, mcqStalls = 0;
    u64 mcuChecked = 0, mcuWays = 0, mcuForwards = 0, dram = 0;
    memsim::CacheStats l1d, l1b, l2;

    void
    add(const JobSpec &job, const JobHost &host,
        const campaign::JobResult &jr)
    {
        setupS += host.setupS;
        ffS += host.ffS;
        measureS += host.measureS;
        fleetS += host.fleetS;
        slices += host.slices;
        switches += host.switches;
        cycles += host.cycles;
        committed += host.committed;
        robStalls += static_cast<u64>(jr.stats.value("rob_full_stalls"));
        lsqStalls += static_cast<u64>(jr.stats.value("lsq_full_stalls"));
        mcqStalls += static_cast<u64>(jr.stats.value("mcq_full_stalls"));
        if (job.fleet) {
            // The scheduler exposes per-tenant table counts only.
            for (size_t u = 0; u < job.units.size(); ++u)
                hbtInserts += static_cast<u64>(jr.stats.value(
                    csprintf("tenant%zu_hbt_inserts", u)));
            return;
        }
        const core::RunResult &run = host.run;
        hbtInserts += run.hbt.inserts;
        hbtResizes += run.hbt.resizes;
        bwbHits += run.bwb.hits;
        bwbLookups += run.bwb.hits + run.bwb.misses;
        mcuChecked += run.mcuStats.checkedOps;
        mcuWays += run.mcuStats.waysTouchedTotal;
        mcuForwards += run.mcuStats.forwards;
        dram += host.dramAccesses;
        for (auto [acc, s] : {std::pair{&l1d, &host.l1d},
                              std::pair{&l1b, &host.l1b},
                              std::pair{&l2, &host.l2}}) {
            acc->hits += s->hits;
            acc->misses += s->misses;
        }
    }
};

double
ratio(double a, double b)
{
    return b > 0 ? a / b : 0.0;
}

/**
 * The benchmark's own pipeline must reproduce the job's measured-window
 * op mix (single runs) or each tenant's whole-stream mix (fleets).
 */
void
checkMix(const JobSpec &job, const JobHost &host,
         const campaign::JobResult &jr, const std::vector<UnitCheck> &units,
         CheckLog &checks)
{
    if (job.fleet) {
        for (size_t u = 0; u < units.size(); ++u) {
            const double want = u < host.tenantMixTotals.size()
                                    ? static_cast<double>(
                                          host.tenantMixTotals[u])
                                    : -1.0;
            if (want != static_cast<double>(units[u].finalMix.total))
                checks.fail(csprintf(
                    "%s: tenant %zu mix_total %.0f, benchmark pipeline "
                    "gives %llu",
                    job.name.c_str(), u, want,
                    static_cast<unsigned long long>(
                        units[u].finalMix.total)));
        }
        return;
    }
    const ir::OpMixStats &w = units[0].warmMix;
    const ir::OpMixStats &f = units[0].finalMix;
    const std::pair<const char *, u64> mix[] = {
        {"mix_total", f.total - w.total},
        {"mix_signed_loads", f.signedLoads - w.signedLoads},
        {"mix_signed_stores", f.signedStores - w.signedStores},
        {"mix_unsigned_loads", f.unsignedLoads - w.unsignedLoads},
        {"mix_unsigned_stores", f.unsignedStores - w.unsignedStores},
        {"mix_bounds_ops", f.boundsOps - w.boundsOps},
        {"mix_pac_ops", f.pacOps - w.pacOps},
        {"mix_autms", f.autms - w.autms}};
    for (const auto &[stat, value] : mix) {
        if (jr.stats.value(stat) != static_cast<double>(value))
            checks.fail(csprintf("%s: %s is %.0f, benchmark pipeline "
                                 "gives %llu",
                                 job.name.c_str(), stat,
                                 jr.stats.value(stat),
                                 static_cast<unsigned long long>(value)));
    }
}

JsonValue
jobRow(const JobSpec &job, const campaign::JobResult &jr,
       const JobHost &host, const Layers &l)
{
    return JsonValue::object()
        .set("job", job.name)
        .set("job_s", jr.wallMs / 1e3)
        .set("setup_s", host.setupS)
        .set("fastforward_s", host.ffS)
        .set("measure_s", host.measureS)
        .set("ff_unattributed_s", host.ffS - l.replayedFfS())
        .set("gen_warm_s", l.genWarmS)
        .set("gen_measure_s", l.genMeasureS)
        .set("passes_warm_s", l.passesWarmS())
        .set("passes_measure_s", l.passesMeasureS())
        .set("alloc_replay_s", l.allocS)
        .set("qarma_sign_s", l.signS)
        .set("hbt_warm_s", l.hbtWarmS)
        .set("hbt_churn_s", l.hbtChurnS)
        .set("memsim_warm_s", l.memWarmS)
        .set("tage_warm_s", l.tageWarmS)
        .set("tage_s", l.tageS)
        .set("cpu_timed_s",
             host.measureS - l.genMeasureS - l.passesMeasureS())
        .set("src_ops", static_cast<double>(l.srcOps))
        .set("cycles", static_cast<double>(host.cycles));
}

JsonValue
layersJson(const Rep &rep, const JobTotals &t, const Layers &l,
           unsigned failed)
{
    const double timedS = t.measureS - l.genMeasureS - l.passesMeasureS();
    const auto d = [](u64 v) { return static_cast<double>(v); };
    return JsonValue::object()
        .set("campaign.overhead_s", rep.wallS - rep.jobS)
        .set("campaign.job_fail_ratio",
             ratio(failed, d(rep.result.jobs.size())))
        .set("core.setup_s", t.setupS)
        .set("core.fastforward_s", t.ffS)
        .set("core.measure_s", t.measureS)
        .set("core.warm_kchunks_per_s", ratio(d(l.warmMallocs), t.ffS) / 1e3)
        .set("core.ff_unattributed_s", t.ffS - l.replayedFfS())
        .set("workloads.gen_warm_s", l.genWarmS)
        .set("workloads.gen_measure_s", l.genMeasureS)
        .set("workloads.src_ops", d(l.srcOps))
        .set("alloc.calls", d(l.allocCalls))
        .set("alloc.replay_s", l.allocS)
        .set("alloc.ns_per_call", ratio(l.allocS, d(l.allocCalls)) * 1e9)
        .set("compiler.passes_warm_s", l.passesWarmS())
        .set("compiler.passes_measure_s", l.passesMeasureS())
        .set("compiler.expansion", ratio(d(l.outOps), d(l.srcOps)))
        .set("qarma.pacs", d(l.pacs))
        .set("qarma.sign_s", l.signS)
        .set("bounds.hbt_warm_s", l.hbtWarmS)
        .set("bounds.hbt_churn_s", l.hbtChurnS)
        .set("bounds.hbt_inserts", d(t.hbtInserts))
        .set("bounds.hbt_resizes", d(t.hbtResizes))
        .set("bounds.bwb_hit_rate", ratio(d(t.bwbHits), d(t.bwbLookups)))
        .set("memsim.warm_s", l.memWarmS)
        .set("memsim.l1d_miss_rate", ratio(d(t.l1d.misses),
                                           d(t.l1d.accesses())))
        .set("memsim.l1b_miss_rate", ratio(d(t.l1b.misses),
                                           d(t.l1b.accesses())))
        .set("memsim.l2_miss_rate", ratio(d(t.l2.misses),
                                          d(t.l2.accesses())))
        .set("memsim.dram_accesses", d(t.dram))
        .set("cpu.timed_s", timedS)
        .set("cpu.host_ns_per_cycle", ratio(timedS, d(t.cycles)) * 1e9)
        .set("cpu.tage_warm_s", l.tageWarmS)
        .set("cpu.tage_s", l.tageS)
        .set("cpu.cycles", d(t.cycles))
        .set("cpu.ipc", ratio(d(t.committed), d(t.cycles)))
        .set("cpu.rob_full_stalls", d(t.robStalls))
        .set("cpu.lsq_full_stalls", d(t.lsqStalls))
        .set("mcu.checked_ops", d(t.mcuChecked))
        .set("mcu.ways_per_check", ratio(d(t.mcuWays), d(t.mcuChecked)))
        .set("mcu.forwards", d(t.mcuForwards))
        .set("mcu.mcq_full_stalls", d(t.mcqStalls))
        .set("os.fleet_s", t.fleetS)
        .set("os.context_switches", d(t.switches))
        .set("os.host_us_per_slice", ratio(t.fleetS, d(t.slices)) * 1e6);
}

/**
 * Traced mode: replay every job's streams through fresh layer instances
 * (after the timed campaign, so the replays never inflate job time),
 * run the replay-side correctness checks, and add the per-layer and
 * per-job figures to @p doc.
 */
void
traceLayers(const Args &args, const std::vector<JobSpec> &specs,
            const Rep &rep, const std::vector<u64> &srcOps,
            unsigned failed, CheckLog &checks, JsonValue &doc)
{
    Layers total;
    JobTotals totals;
    JsonValue rows = JsonValue::array();
    for (size_t i = 0; i < specs.size(); ++i) {
        const JobSpec &job = specs[i];
        const JobHost &host = rep.hosts[i];
        const campaign::JobResult &jr = rep.result.jobs[i];
        Layers l;
        std::vector<UnitCheck> units;
        for (const Unit &unit : job.units)
            units.push_back(replayUnit(job, unit, args.busyMs, l, checks));

        // The replays only mean something if they saw the whole stream.
        if (l.srcOps != srcOps[i]) {
            checks.fail(csprintf(
                "%s: replay pipeline consumed %llu source ops, generator "
                "alone %llu",
                job.name.c_str(), static_cast<unsigned long long>(l.srcOps),
                static_cast<unsigned long long>(srcOps[i])));
        }
        checkMix(job, host, jr, units, checks);

        rows.push(jobRow(job, jr, host, l));
        total.add(l);
        totals.add(job, host, jr);
    }
    doc.set("per_layer", layersJson(rep, totals, total, failed))
        .set("per_job", rows);
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    // Pin glibc's mmap and trim thresholds high, so every job's multi-MB
    // tables are recycled heap pages, as in a long campaign process once
    // glibc has settled. Left dynamic, the thresholds rise after the
    // first large free, and whether a job's tables are fresh mappings or
    // recycled pages depends on the order of earlier frees: that made
    // tenant_churn's set-up time flip between two levels by seed.
    mallopt(M_MMAP_THRESHOLD, 32 << 20); // glibc's maximum.
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
    const std::optional<Args> parsed = parseArgs(argc, argv);
    if (!parsed)
        return usage();
    const Args &args = *parsed;
    std::vector<JobSpec> specs = buildJobs(args.workload, args.seed);
    if (specs.empty())
        return usage();
    if (args.maxJobs && args.maxJobs < specs.size())
        specs.resize(args.maxJobs);
    if (args.traced && !prof::enabled()) {
        std::fprintf(stderr, "simbench: --traced needs AOS_PROFILE=1 for "
                             "the fast-forward/measure split\n");
        return 2;
    }
    if (args.traced)
        mintTenantKeys(specs);

    const std::vector<std::vector<StreamOps>> streams =
        countSourceOps(specs);
    std::vector<u64> srcOps;
    for (const std::vector<StreamOps> &units : streams)
        srcOps.push_back(sourceOps(units));
    const Rep rep = runRep(args.workload, specs);
    const campaign::CampaignResult &result = rep.result;

    CheckLog checks;
    const bool allOk = result.allOk();
    unsigned failed = 0;
    for (const campaign::JobResult &job : result.jobs) {
        if (!job.ok()) {
            ++failed;
            checks.fail(csprintf("%s ended %s: %s", job.name.c_str(),
                                 campaign::jobStatusName(job.status),
                                 job.error.c_str()));
        }
    }

    u64 totalSrc = 0, totalCycles = 0;
    for (size_t i = 0; i < specs.size(); ++i) {
        totalSrc += srcOps[i];
        totalCycles += rep.hosts[i].cycles;
    }
    JsonValue doc = JsonValue::object();
    doc.set("workload", args.workload)
        .set("seed", static_cast<double>(args.seed))
        .set("mode", args.traced ? "traced" : "untraced")
        .set("provenance", provenance());
    const unsigned attempted = static_cast<unsigned>(result.jobs.size());
    JsonValue e2e = JsonValue::object();
    e2e.set("wall_s", rep.wallS)
        .set("setup_s", rep.campaignSetupS + rep.ctorS)
        .set("src_mops_per_s", static_cast<double>(totalSrc) / rep.jobS / 1e6)
        .set("sim_mcycles_per_s",
             static_cast<double>(totalCycles) / rep.jobS / 1e6)
        .set("peak_rss_mb", peakRssMb())
        .set("job_fail_ratio", ratio(failed, attempted))
        .set("job_s", rep.jobS);
    if (args.workload == "fig14" && allOk)
        addPaperError(result, specs, e2e, doc);
    doc.set("by_mech", byMechJson(specs, rep, srcOps));

    // A failed job's report is incomplete, so it is not checked.
    std::optional<bool> srcOpsAgree;
    if (allOk)
        srcOpsAgree = checkSourceOps(specs, rep, streams, checks);
    if (args.traced && allOk)
        traceLayers(args, specs, rep, srcOps, failed, checks, doc);

    const bool correct = allOk && srcOpsAgree.value_or(false) &&
                         checks.failures.empty();
    doc.set("correct", correct)
        .set("attempted", attempted)
        .set("failed", failed)
        .set("digest", rep.digest)
        .set("checks", checksJson(checks, allOk, srcOpsAgree))
        .set("end_to_end", e2e);
    std::printf("%s\n", doc.str().c_str());
    return 0;
}
