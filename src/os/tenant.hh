/**
 * @file
 * TenantContext: one protected process in the multi-tenant scheduler
 * (DESIGN.md §15) — a ProtectionDomain (os/domain.hh) plus the
 * scheduler's bookkeeping: slot id, run queue, service accounting and
 * the final-stats snapshot taken at teardown.
 *
 * Its keys are derived per (seed, address slot), so every tenant signs
 * under its own keys. Two tenant flavours extend the plain benign
 * process:
 *
 *  - adversarial tenants wrap their stream in an AttackStream that
 *    injects the security_test attack catalog (OOB, PAC forging, AHC
 *    stripping, use-after-free, cross-tenant probes) at a seeded rate;
 *  - fault-targeted tenants carry their own FaultPlan/FaultInjector
 *    (the tenant-targeting injection domain): faults perturb only this
 *    tenant's stream and HBT, and every FaultEvent is tagged with the
 *    tenant id so misattributed detections are auditable.
 */

#ifndef AOS_OS_TENANT_HH
#define AOS_OS_TENANT_HH

#include <deque>
#include <string>
#include <vector>

#include "os/domain.hh"

namespace aos::os {

/**
 * Functional per-tenant outcome. Everything in the fingerprint() is a
 * pure function of the tenant's own (config, seed) — independent of
 * neighbours, quantum and interleaving — which is what the
 * cross-tenant isolation audit asserts.
 */
struct TenantStats
{
    u32 id = 0;
    std::string profile;
    bool adversarial = false;
    bool terminated = false;

    u64 committedOps = 0; //!< Micro-ops committed in this tenant's slices.
    u64 slices = 0;

    u64 violations = 0; //!< AOS exceptions this tenant's OS logged.
    u64 violationsDropped = 0;
    u64 hbtInserts = 0;
    u64 hbtClears = 0;
    u64 hbtOccupied = 0;
    u64 hbtResizes = 0;
    u64 mixTotal = 0; //!< Instrumented ops generated (incl. warmup).

    u64 requestsServed = 0;
    u64 requestsShed = 0;

    AttackStats attacks;
    faultinject::FaultStats faults;
    std::vector<faultinject::FaultEvent> faultEvents;

    /**
     * Canonical functional fingerprint: identical across fleet
     * compositions, quanta and solo reference runs when isolation
     * holds. Excludes timing, shared-unit stats and request
     * accounting by construction.
     */
    std::string fingerprint() const;
};

/** One request flowing through the bounded run queue. */
struct Request
{
    u64 arrival = 0;   //!< Scheduler clock at admission.
    u64 ops = 0;       //!< Service demand in committed micro-ops.
    u64 remaining = 0; //!< Demand not yet served.
};

/** One protected process: a domain plus scheduler bookkeeping. */
class TenantContext : public ProtectionDomain
{
  public:
    /**
     * @param id Scheduler slot (also the default address-space slot).
     * @param config Tenant description.
     * @param options Machine options (mechanism, PAC width, HBT shape,
     *        elision/verifier toggles).
     * @param pa Shared signing context (the core's key registers).
     */
    TenantContext(u32 id, const TenantConfig &config,
                  const baselines::SystemOptions &options,
                  const pa::PaContext *pa);

    u32 id() const { return _id; }
    bool terminated() const { return _terminated; }
    bool streamDry() const { return _streamDry; }
    void markStreamDry() { _streamDry = true; }

    /**
     * Terminate and tear down: snapshot the functional stats, then
     * release() the domain (HBT storage, workload, allocator and
     * pipeline). Idempotent; the slot is reusable after.
     */
    void retire();

    /** Live stats (snapshot at retire() time once terminated). */
    TenantStats stats() const;

    // Scheduler-side accounting.
    u64 committedOps = 0;
    u64 slices = 0;
    u64 requestsServed = 0;
    u64 requestsShed = 0;
    std::deque<Request> runQueue;

  private:
    u32 _id;
    bool _terminated = false;
    bool _streamDry = false;

    TenantStats _finalStats; //!< Valid once _terminated.
};

} // namespace aos::os

#endif // AOS_OS_TENANT_HH
