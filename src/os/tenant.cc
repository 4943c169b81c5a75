#include "os/tenant.hh"

#include <cstdio>

namespace aos::os {

namespace {

/** Per-tenant key-derivation tweak (golden-ratio mixing). */
u64
keySeed(u64 seed, u32 slot)
{
    return 0x517cc1b727220a95ull ^ (seed * 0x9e3779b97f4a7c15ull) ^
           ((u64{slot} + 1) * 0xbf58476d1ce4e5b9ull);
}

u32
slotFor(const TenantConfig &config, u32 id)
{
    return config.addressSlot == TenantConfig::kAutoSlot
               ? id
               : config.addressSlot;
}

} // namespace

// ---------------------------------------------------------------------
// TenantStats

std::string
TenantStats::fingerprint() const
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "ops=%llu mix=%llu hbt=%llu/%llu/%llu/%llu "
                  "viol=%llu term=%d",
                  static_cast<unsigned long long>(committedOps),
                  static_cast<unsigned long long>(mixTotal),
                  static_cast<unsigned long long>(hbtInserts),
                  static_cast<unsigned long long>(hbtClears),
                  static_cast<unsigned long long>(hbtOccupied),
                  static_cast<unsigned long long>(hbtResizes),
                  static_cast<unsigned long long>(violations),
                  terminated ? 1 : 0);
    return buf;
}

// ---------------------------------------------------------------------
// TenantContext

TenantContext::TenantContext(u32 id, const TenantConfig &config,
                             const baselines::SystemOptions &options,
                             const pa::PaContext *pa)
    : ProtectionDomain(
          id + 1, // FaultEvent tenant 0 marks events from outside a fleet.
          slotFor(config, id),
          pa::PaContext::deriveKeys(keySeed(config.seed,
                                            slotFor(config, id))),
          config, options, pa),
      _id(id)
{
}

TenantStats
TenantContext::stats() const
{
    if (_terminated)
        return _finalStats;

    TenantStats stats;
    stats.id = _id;
    stats.profile = config().profile.name;
    stats.adversarial = config().adversarial;
    stats.terminated = false;
    stats.committedOps = committedOps;
    stats.slices = slices;
    stats.requestsServed = requestsServed;
    stats.requestsShed = requestsShed;
    if (OsModel *os = osModel()) {
        stats.violations = os->violationCount();
        stats.violationsDropped = os->violationsDropped();
        const auto &hbt = os->hbt().stats();
        stats.hbtInserts = hbt.inserts;
        stats.hbtClears = hbt.clears;
        stats.hbtOccupied = hbt.occupied;
        stats.hbtResizes = hbt.resizes;
    }
    if (counter())
        stats.mixTotal = counter()->mix().total;
    if (attack())
        stats.attacks = attack()->stats();
    if (const faultinject::FaultInjector *inj = injector()) {
        stats.faults = inj->stats();
        stats.faultEvents = inj->events();
    }
    return stats;
}

void
TenantContext::retire()
{
    if (_terminated)
        return;
    _finalStats = stats();
    _finalStats.terminated = true;
    _terminated = true;
    // The slot holds nothing afterwards but the final stats snapshot.
    release();
    runQueue.clear();
}

} // namespace aos::os
