#include "baselines/system_config.hh"

#include <algorithm>
#include <cctype>

#include "common/logging.hh"

namespace aos::baselines {

namespace {

using faultinject::ProtectionModel;

constexpr PassKind kWatchdogPasses[] = {PassKind::kWatchdog};
constexpr PassKind kPaPasses[] = {PassKind::kPaOnly};
// Bounds elision runs after PaPass so elided regions are dropped before
// autm elision sees them; both run before the OpCounter, so the op mix
// reflects what executes.
constexpr PassKind kAosPasses[] = {PassKind::kAosOpt, PassKind::kAosBackend,
                                   PassKind::kBoundsElide};
constexpr PassKind kPaAosPasses[] = {
    PassKind::kAosOpt, PassKind::kAosBackend, PassKind::kPaAos,
    PassKind::kBoundsElide, PassKind::kAutmElide};
constexpr PassKind kAsanPasses[] = {PassKind::kAsan};

// Faults against structures a configuration does not have are
// meaningless; restricting plans to the applicable classes keeps
// per-cell schedules comparable across mechanisms.
constexpr u32 kNoAosFaults = faultinject::kAllFaults &
                             ~(faultinject::kMetadataFaults |
                               faultinject::kMcuFaults);

// One row per Mechanism, in enum order: mechanismSpec() indexes by value.
constexpr MechanismSpec kSpecs[] = {
    {Mechanism::kBaseline, "Baseline", {}, false, false,
     ProtectionModel::kNone, kNoAosFaults},
    {Mechanism::kWatchdog, "Watchdog", kWatchdogPasses, false, false,
     ProtectionModel::kWatchdog, kNoAosFaults},
    {Mechanism::kPa, "PA", kPaPasses, false, true, ProtectionModel::kPa,
     kNoAosFaults},
    {Mechanism::kAos, "AOS", kAosPasses, true, false, ProtectionModel::kAos,
     faultinject::kAllFaults},
    {Mechanism::kPaAos, "PA+AOS", kPaAosPasses, true, true,
     ProtectionModel::kPaAos, faultinject::kAllFaults},
    // ASan detection is not modeled by the fault injector.
    {Mechanism::kAsan, "ASan-style", kAsanPasses, false, false,
     ProtectionModel::kNone, kNoAosFaults},
};

} // namespace

std::span<const MechanismSpec>
mechanismSpecs()
{
    return kSpecs;
}

const MechanismSpec &
mechanismSpec(Mechanism mech)
{
    const auto idx = static_cast<size_t>(mech);
    panic_if(idx >= std::size(kSpecs), "unknown mechanism %zu", idx);
    return kSpecs[idx];
}

const MechanismSpec *
mechanismByName(std::string_view name)
{
    const auto same = [](char a, char b) {
        return std::tolower(static_cast<unsigned char>(a)) ==
               std::tolower(static_cast<unsigned char>(b));
    };
    for (const MechanismSpec &spec : kSpecs)
        if (std::ranges::equal(name, std::string_view(spec.name), same))
            return &spec;
    return nullptr;
}

} // namespace aos::baselines
