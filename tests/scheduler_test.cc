/**
 * @file
 * Multi-tenant scheduler tests: per-process PA key-swap isolation,
 * scheduler determinism, fleet-vs-solo functional invariance,
 * adversarial containment, terminated-tenant teardown/slot reuse and
 * overload shedding accounting (DESIGN.md §15).
 */

#include <gtest/gtest.h>

#include "campaign/tenant_audit.hh"
#include "common/cancel.hh"
#include "os/scheduler.hh"

namespace aos::os {
namespace {

workloads::WorkloadProfile
tinyProfile(const std::string &name, double allocs_per_kop = 25)
{
    workloads::WorkloadProfile p;
    p.name = name;
    p.targetActive = 48;
    p.allocsPerKOp = allocs_per_kop;
    p.heapFraction = 0.7;
    p.heapChunkMin = 32;
    p.heapChunkMax = 512;
    p.globalFootprint = 64 * 1024;
    p.codeFootprint = 8 * 1024;
    p.numBranches = 64;
    return p;
}

SchedulerConfig
fixedWorkConfig(u64 quantum = 2000)
{
    SchedulerConfig config;
    config.options.mech = baselines::Mechanism::kAos;
    config.quantumOps = quantum;
    config.seed = 7;
    return config;
}

// ---------------------------------------------------------------------
// Key-swap isolation property (CryptSan/PACSan semantics): a pointer
// signed under tenant A's keys must fail key-dependent authentication
// under tenant B's keys, and pass again once A's keys are reinstalled.

TEST(KeySwap, SignedPointerFailsUnderForeignKeys)
{
    pa::PaContext pa;
    const pa::KeySet keys_a = pa::PaContext::deriveKeys(0xA11CE);
    const pa::KeySet keys_b = pa::PaContext::deriveKeys(0xB0B);
    const Addr raw = 0x20001000;
    const u64 modifier = 0x42;

    pa.installKeys(keys_a);
    const Addr signed_a = pa.pacma(raw, modifier, 64);
    ASSERT_TRUE(pa.layout().signed_(signed_a));
    EXPECT_EQ(pa.autmKeyed(signed_a, modifier), pa::AuthResult::kPass);

    // Context switch to tenant B: same pointer, wrong keys.
    pa.installKeys(keys_b);
    EXPECT_EQ(pa.autmKeyed(signed_a, modifier), pa::AuthResult::kFail)
        << "tenant A's pointer must not authenticate under B's keys";
    // The paper's AHC-only autm is key-independent and still passes —
    // the key-dependent check is strictly stronger, not a replacement.
    EXPECT_EQ(pa.autm(signed_a), pa::AuthResult::kPass);

    // Switch back: A's pointer authenticates again.
    pa.installKeys(keys_a);
    EXPECT_EQ(pa.autmKeyed(signed_a, modifier), pa::AuthResult::kPass);
}

TEST(KeySwap, DeriveKeysIsDeterministicAndSeedSensitive)
{
    const pa::KeySet one = pa::PaContext::deriveKeys(123);
    const pa::KeySet two = pa::PaContext::deriveKeys(123);
    const pa::KeySet other = pa::PaContext::deriveKeys(124);
    for (unsigned i = 0; i < 5; ++i) {
        EXPECT_EQ(one.keys[i].w0, two.keys[i].w0);
        EXPECT_EQ(one.keys[i].k0, two.keys[i].k0);
    }
    bool any_differs = false;
    for (unsigned i = 0; i < 5; ++i)
        any_differs |= one.keys[i].w0 != other.keys[i].w0;
    EXPECT_TRUE(any_differs);
}

// ---------------------------------------------------------------------
// Scheduler determinism: same seed + tenant mix => bit-identical
// outcome, at any time-slice quantum.

TEST(Scheduler, RequestModeIsDeterministic)
{
    const auto runOnce = [] {
        SchedulerConfig config = fixedWorkConfig();
        config.totalRequests = 60;
        config.arrivalsPerKCycle = 4.0;
        config.runQueueDepth = 4;

        Scheduler sched(config);
        TenantConfig a;
        a.profile = tinyProfile("det_a");
        a.seed = 11;
        TenantConfig b;
        b.profile = tinyProfile("det_b", 10);
        b.seed = 22;
        sched.spawn(a);
        sched.spawn(b);
        return sched.run();
    };

    const SchedulerResult one = runOnce();
    const SchedulerResult two = runOnce();
    EXPECT_EQ(one.functionalFingerprint(), two.functionalFingerprint());
    EXPECT_EQ(one.cycles, two.cycles);
    EXPECT_EQ(one.idleCycles, two.idleCycles);
    EXPECT_EQ(one.contextSwitches, two.contextSwitches);
    EXPECT_EQ(one.latencies, two.latencies);
    EXPECT_EQ(one.requestsServed, two.requestsServed);
    EXPECT_EQ(one.requestsShed, two.requestsShed);
}

TEST(Scheduler, FunctionalFingerprintIsQuantumInvariant)
{
    const auto fingerprintAt = [](u64 quantum) {
        Scheduler sched(fixedWorkConfig(quantum));
        TenantConfig a;
        a.profile = tinyProfile("quant_a");
        a.seed = 5;
        a.measureOps = 4000;
        TenantConfig b;
        b.profile = tinyProfile("quant_b", 8);
        b.seed = 6;
        b.measureOps = 3000;
        sched.spawn(a);
        sched.spawn(b);
        return sched.run().functionalFingerprint();
    };

    const std::string at_500 = fingerprintAt(500);
    EXPECT_EQ(at_500, fingerprintAt(2000));
    EXPECT_EQ(at_500, fingerprintAt(8000));
}

// ---------------------------------------------------------------------
// Isolation: a tenant's functional outcome in a shared fleet matches a
// solo run of the same config pinned to the same address-space slot.

TEST(Scheduler, FleetTenantMatchesSoloReference)
{
    SchedulerConfig config = fixedWorkConfig();

    TenantConfig a;
    a.profile = tinyProfile("iso_a");
    a.seed = 31;
    a.measureOps = 4000;
    TenantConfig b;
    b.profile = tinyProfile("iso_b", 12);
    b.seed = 32;
    b.measureOps = 3000;

    Scheduler fleet(config);
    fleet.spawn(a);
    fleet.spawn(b);
    const SchedulerResult shared = fleet.run();
    ASSERT_EQ(shared.tenants.size(), 2u);

    for (u32 slot = 0; slot < 2; ++slot) {
        Scheduler solo(config);
        TenantConfig pinned = slot == 0 ? a : b;
        pinned.addressSlot = slot;
        solo.spawn(pinned);
        const SchedulerResult alone = solo.run();
        ASSERT_EQ(alone.tenants.size(), 1u);
        EXPECT_EQ(shared.tenants[slot].fingerprint(),
                  alone.tenants[0].fingerprint())
            << "slot " << slot;
        EXPECT_EQ(shared.tenants[slot].violations, 0u);
    }
}

TEST(Scheduler, AdversarialTenantIsContained)
{
    SchedulerConfig config = fixedWorkConfig();

    TenantConfig victim;
    victim.profile = tinyProfile("victim");
    victim.seed = 41;
    victim.measureOps = 4000;
    TenantConfig attacker;
    attacker.profile = tinyProfile("attacker");
    attacker.seed = 42;
    attacker.measureOps = 4000;
    attacker.adversarial = true;
    attacker.attackPerMille = 80;

    Scheduler fleet(config);
    const u32 victim_slot = fleet.spawn(victim);
    const u32 attacker_slot = fleet.spawn(attacker);
    const SchedulerResult result = fleet.run();

    const TenantStats &atk = result.tenants.at(attacker_slot);
    const TenantStats &vic = result.tenants.at(victim_slot);

    EXPECT_GT(atk.attacks.launched, 0u);
    EXPECT_GT(atk.attacks.detectable, 0u);
    EXPECT_GT(atk.violations, 0u)
        << "detectable attacks must raise AOS violations";
    // Containment: every detection lands on the attacker; the victim
    // is functionally untouched.
    EXPECT_EQ(vic.violations, 0u);
    EXPECT_EQ(atk.attacks.launched,
              atk.attacks.perKind[0] + atk.attacks.perKind[1] +
                  atk.attacks.perKind[2] + atk.attacks.perKind[3] +
                  atk.attacks.perKind[4]);

    Scheduler solo(config);
    TenantConfig pinned = victim;
    pinned.addressSlot = victim_slot;
    solo.spawn(pinned);
    EXPECT_EQ(result.tenants.at(victim_slot).fingerprint(),
              solo.run().tenants.at(0).fingerprint())
        << "sharing the machine with an attacker must not change the "
           "victim's functional outcome";
}

// ---------------------------------------------------------------------
// Termination, teardown and slot reuse.

TEST(Scheduler, TerminatePolicyKillsAndFreesSlot)
{
    SchedulerConfig config = fixedWorkConfig();

    TenantConfig benign;
    benign.profile = tinyProfile("surv");
    benign.seed = 51;
    benign.measureOps = 3000;
    TenantConfig doomed;
    doomed.profile = tinyProfile("doomed");
    doomed.seed = 52;
    doomed.measureOps = 4000;
    doomed.adversarial = true;
    doomed.attackPerMille = 120;
    doomed.policy = FaultPolicy::kTerminate;

    Scheduler sched(config);
    const u32 benign_slot = sched.spawn(benign);
    const u32 doomed_slot = sched.spawn(doomed);
    const SchedulerResult result = sched.run();

    EXPECT_EQ(result.terminations, 1u);
    ASSERT_TRUE(sched.tenant(doomed_slot)->terminated());
    EXPECT_FALSE(sched.tenant(benign_slot)->terminated());
    EXPECT_TRUE(result.tenants.at(doomed_slot).terminated);
    EXPECT_GE(result.tenants.at(doomed_slot).violations, 1u);
    // The survivor is functionally unaffected by the mid-run kill.
    EXPECT_EQ(result.tenants.at(benign_slot).violations, 0u);
    EXPECT_EQ(sched.liveTenants(), 1u);

    // The dead tenant's slot is reusable: a new process lands in it
    // with a fresh HBT and allocator.
    TenantConfig fresh;
    fresh.profile = tinyProfile("fresh");
    fresh.seed = 53;
    fresh.measureOps = 1000;
    const u32 reused = sched.spawn(fresh);
    EXPECT_EQ(reused, doomed_slot);
    EXPECT_FALSE(sched.tenant(reused)->terminated());
    EXPECT_EQ(sched.liveTenants(), 2u);
}

TEST(Scheduler, ExplicitKillShedsQueuedRequests)
{
    SchedulerConfig config = fixedWorkConfig();
    Scheduler sched(config);
    TenantConfig t;
    t.profile = tinyProfile("killme");
    t.seed = 61;
    const u32 slot = sched.spawn(t);

    sched.tenant(slot)->runQueue.push_back(Request{0, 100, 100});
    sched.tenant(slot)->runQueue.push_back(Request{0, 100, 100});
    sched.kill(slot);

    EXPECT_TRUE(sched.tenant(slot)->terminated());
    EXPECT_EQ(sched.tenant(slot)->stats().requestsShed, 2u)
        << "queued requests on a killed tenant are shed, not dropped";
    EXPECT_EQ(sched.liveTenants(), 0u);
}

// Tenants build the pipeline a solo AosSystem run builds, so a fleet
// honours the static-analysis options: bounds elision drops planned
// bndstr/bndclr quadruples before the HBT and the op counter see them.
TEST(Scheduler, FleetHonoursBoundsElision)
{
    const auto runTenant = [](bool elide) {
        SchedulerConfig config = fixedWorkConfig();
        config.options.aosBoundsElision = elide;
        config.options.verifyStream = true;
        Scheduler sched(config);
        TenantConfig t;
        t.profile = tinyProfile("elided");
        t.seed = 81;
        t.measureOps = 4000;
        sched.spawn(t);
        return sched.run().tenants.at(0);
    };
    const TenantStats plain = runTenant(false);
    const TenantStats elided = runTenant(true);
    EXPECT_LT(elided.hbtInserts, plain.hbtInserts);
    EXPECT_LT(elided.mixTotal, plain.mixTotal);
    EXPECT_EQ(elided.violations, 0u);
    EXPECT_EQ(plain.violations, 0u);
}

TEST(Scheduler, SpawnUnderCancelledTokenThrows)
{
    // Warmup has no cycle loop of its own, so it must poll the token
    // itself: a cancelled campaign job may not fast-forward a tenant.
    CancelToken cancel;
    cancel.requestCancel();
    SchedulerConfig config = fixedWorkConfig();
    config.options.cancel = &cancel;
    Scheduler sched(config);
    TenantConfig t;
    t.profile = tinyProfile("cancelled");
    t.seed = 71;
    t.measureOps = 1000;
    EXPECT_THROW(sched.spawn(t), CancelledException);
}

// ---------------------------------------------------------------------
// Overload: admission control counts every shed request.

TEST(Scheduler, OverloadShedsButNeverLosesRequests)
{
    SchedulerConfig config = fixedWorkConfig();
    config.totalRequests = 40;
    config.arrivalsPerKCycle = 2000.0; //!< Far beyond service capacity.
    config.runQueueDepth = 2;
    config.requestOpsMin = 3000;
    config.requestOpsMax = 6000;

    Scheduler sched(config);
    TenantConfig t;
    t.profile = tinyProfile("overload");
    t.seed = 71;
    sched.spawn(t);
    const SchedulerResult result = sched.run();

    EXPECT_EQ(result.requestsArrived, 40u);
    EXPECT_EQ(result.requestsServed + result.requestsShed, 40u)
        << "every arrival is either served or counted as shed";
    EXPECT_GT(result.requestsShed, 0u);
    EXPECT_EQ(result.latencies.size(), result.requestsServed);
}

// ---------------------------------------------------------------------
// The audit scenario generator itself (the bench gates on batches).

TEST(TenantAudit, ScenarioBatchHoldsIsolationInvariants)
{
    const auto summary =
        campaign::tenant_audit::auditBatch(2026, 6, nullptr);
    EXPECT_EQ(summary.scenarios, 6u);
    EXPECT_TRUE(summary.pass()) << summary.firstFailure;
    EXPECT_GT(summary.benignCompared, 0u);
    EXPECT_GT(summary.attacksLaunched, 0u);
}

} // namespace
} // namespace aos::os
