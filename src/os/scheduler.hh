/**
 * @file
 * Multi-tenant round-robin scheduler over one shared AOS core
 * (DESIGN.md §15).
 *
 * The scheduler owns one Machine (os/domain.hh: PA key registers,
 * caches, DRAM, BWB, MCU and the out-of-order core) and time-slices N
 * TenantContexts over it. Every context switch is Machine::bind(), the
 * CryptSan/PACSan per-process key swap: the arriving tenant's five PA
 * keys are installed, the MCU is rebound to its hashed bounds table,
 * and the BWB is invalidated. Cache and DRAM state is shared and
 * carries over — that contention is the multi-tenant experiment.
 *
 * Slices run on drained-machine boundaries: the core's run() loop only
 * returns once the ROB and MCQ are empty, so no in-flight check of
 * tenant A can ever consult tenant B's bounds table. A tenant killed
 * mid-slice by an AOS exception (FaultPolicy::kTerminate) takes the
 * process-kill path instead: pipeline flush, deterministic teardown
 * via TenantContext::retire(), and its scheduler slot becomes
 * reusable.
 *
 * Two driving modes:
 *
 *  - fixed-work: round-robin until every tenant's bounded stream runs
 *    dry (the isolation audit and the determinism tests — per-tenant
 *    functional stats must match a solo run of the same config);
 *  - request-arrival: a seeded open-loop arrival process feeds each
 *    tenant's bounded run queue; admission control sheds (counts,
 *    never silently drops) requests that find the queue full, and
 *    per-request latencies feed the p50/p99 overload-degradation
 *    curves of bench/tenant_matrix.
 */

#ifndef AOS_OS_SCHEDULER_HH
#define AOS_OS_SCHEDULER_HH

#include <memory>
#include <vector>

#include "os/tenant.hh"

namespace aos::os {

/** Fleet-wide scheduler configuration. */
struct SchedulerConfig
{
    /**
     * Shared machine options, applied to every tenant (one SoC, many
     * processes). A fleet honours mech, boundsCompression, useL1B,
     * useBwb, boundsForwarding, pacBits, initialHbtAssoc, aosElision,
     * aosBoundsElision (bounded tenants only: TenantConfig::measureOps
     * must be nonzero), verifyStream and cancel. It ignores the per-run
     * fields measureOps, seedSalt, faultTypes, faultCount and faultSeed:
     * each TenantConfig carries its own.
     */
    baselines::SystemOptions options;

    u64 quantumOps = 2000; //!< Issued micro-ops per time slice.
    u64 seed = 1;          //!< Arrival-process RNG seed.

    /**
     * Open-loop arrivals to generate (0 selects fixed-work mode, where
     * tenants simply run their bounded streams dry).
     */
    u64 totalRequests = 0;
    double arrivalsPerKCycle = 2.0; //!< Mean arrival rate (per 1000 cy).
    u64 requestOpsMin = 200;  //!< Service demand (committed ops) low.
    u64 requestOpsMax = 2000; //!< Service demand high.
    unsigned runQueueDepth = 8; //!< Admission-control queue bound.
};

/** Aggregate outcome of one scheduled fleet run. */
struct SchedulerResult
{
    u64 cycles = 0;     //!< Core cycles consumed by slices.
    u64 idleCycles = 0; //!< Clock jumps while every queue was empty.
    u64 contextSwitches = 0;
    u64 slices = 0;
    u64 terminations = 0;

    u64 requestsArrived = 0;
    u64 requestsServed = 0;
    u64 requestsShed = 0;

    /** Completion latency (scheduler clock cycles) per served request. */
    std::vector<u64> latencies;

    std::vector<TenantStats> tenants;
    cpu::CoreStats core;

    /** Nearest-rank percentile over latencies (0 when none served). */
    u64 latencyPercentile(unsigned pct) const;
    u64 latencyP50() const { return latencyPercentile(50); }
    u64 latencyP99() const { return latencyPercentile(99); }

    /**
     * Concatenated per-tenant functional fingerprints — the isolation
     * invariant: independent of quantum, neighbours and interleaving.
     */
    std::string functionalFingerprint() const;
};

class Scheduler
{
  public:
    /** HBT address-space partitioning bounds the fleet (DESIGN.md §15). */
    static constexpr u32 kMaxTenants = 64;

    explicit Scheduler(const SchedulerConfig &config);
    ~Scheduler();

    /**
     * Create a tenant, warm up its heap (functional fast-forward under
     * its own keys), and return its scheduler slot. Retired slots are
     * reused — the terminated tenant's final stats are folded into the
     * result first.
     */
    u32 spawn(const TenantConfig &config);

    /** Explicitly terminate a tenant (process kill without a fault). */
    void kill(u32 slot);

    TenantContext *tenant(u32 slot);
    size_t liveTenants() const;

    /** Drive the configured mode to completion. */
    SchedulerResult run();

    const SchedulerConfig &config() const { return _config; }

  private:
    u64 now() const;
    void switchTo(TenantContext &tenant);
    /** One time slice; returns committed-op delta (0 = stream dry). */
    u64 runSlice(TenantContext &tenant);
    void terminate(TenantContext &tenant);
    void refreshForeignRanges();
    void creditService(TenantContext &tenant, u64 delta);

    void runFixedWork();
    void runRequests();
    void collect(SchedulerResult &out);

    SchedulerConfig _config;
    Machine _machine;

    std::vector<std::unique_ptr<TenantContext>> _slots;

    Rng _arrivalRng;
    u64 _idleCycles = 0;
    /** Requests that arrived with no live tenant to take them. */
    u64 _orphanShed = 0;
    SchedulerResult _result;
    /** Final stats of retired tenants whose slots were reused. */
    std::vector<TenantStats> _retiredStats;
};

} // namespace aos::os

#endif // AOS_OS_SCHEDULER_HH
