/**
 * @file
 * The MechanismSpec table (baselines/system_config.hh): one row per
 * mechanism, read by every layer that needs mechanism facts. Pins each
 * row's facts to the values the per-file switches it replaced encoded,
 * and checks the name lookup and the checkpoint decoder's range check
 * against the table's size.
 */

#include <gtest/gtest.h>

#include "baselines/system_config.hh"
#include "campaign/checkpoint.hh"

namespace aos::baselines {
namespace {

using faultinject::ProtectionModel;

constexpr u32 kNoAosFaults =
    faultinject::kAllFaults &
    ~(faultinject::kMetadataFaults | faultinject::kMcuFaults);

struct Expected
{
    Mechanism mech;
    const char *name;
    bool usesAos;
    bool usesPa;
    ProtectionModel protection;
    u32 faultClasses;
};

const Expected kExpected[] = {
    {Mechanism::kBaseline, "Baseline", false, false,
     ProtectionModel::kNone, kNoAosFaults},
    {Mechanism::kWatchdog, "Watchdog", false, false,
     ProtectionModel::kWatchdog, kNoAosFaults},
    {Mechanism::kPa, "PA", false, true, ProtectionModel::kPa,
     kNoAosFaults},
    {Mechanism::kAos, "AOS", true, false, ProtectionModel::kAos,
     faultinject::kAllFaults},
    {Mechanism::kPaAos, "PA+AOS", true, true,
     ProtectionModel::kPaAos, faultinject::kAllFaults},
    {Mechanism::kAsan, "ASan-style", false, false,
     ProtectionModel::kNone, kNoAosFaults},
};

TEST(MechanismSpec, EveryRowMatchesItsMechanism)
{
    ASSERT_EQ(mechanismSpecs().size(), std::size(kExpected));
    for (const Expected &want : kExpected) {
        const MechanismSpec &spec = mechanismSpec(want.mech);
        SCOPED_TRACE(want.name);
        EXPECT_EQ(spec.mech, want.mech);
        EXPECT_STREQ(spec.name, want.name);
        EXPECT_STREQ(mechanismName(want.mech), want.name);
        EXPECT_EQ(spec.protection, want.protection);
        EXPECT_EQ(spec.faultClasses, want.faultClasses);

        SystemOptions options;
        options.mech = want.mech;
        EXPECT_EQ(options.usesAos(), want.usesAos);
        EXPECT_EQ(options.usesPa(), want.usesPa);
    }
}

TEST(MechanismSpec, NameLookupRoundTrips)
{
    for (const MechanismSpec &spec : mechanismSpecs()) {
        const MechanismSpec *found = mechanismByName(spec.name);
        ASSERT_NE(found, nullptr) << spec.name;
        EXPECT_EQ(found->mech, spec.mech);
    }
    // Case-insensitive: the command-line spelling pipeline_sim takes.
    ASSERT_NE(mechanismByName("pa+aos"), nullptr);
    EXPECT_EQ(mechanismByName("pa+aos")->mech, Mechanism::kPaAos);
    EXPECT_EQ(mechanismByName("pa_aos"), nullptr);
    EXPECT_EQ(mechanismByName("pa"), &mechanismSpec(Mechanism::kPa));
    EXPECT_EQ(mechanismByName(""), nullptr);
}

TEST(MechanismSpec, CheckpointDecoderRejectsFirstValuePastTable)
{
    const auto roundTrips = [](u8 mech_value) {
        campaign::JobResult r;
        r.id = 1;
        r.name = "spec";
        r.profile = "mcf";
        r.status = campaign::JobStatus::kOk;
        r.mech = static_cast<Mechanism>(mech_value);
        const std::string record = campaign::encodeCheckpointRecord(r);
        campaign::JobResult back;
        return campaign::decodeCheckpointRecord(record.data(),
                                                record.size(), back) &&
               back.mech == r.mech;
    };
    const auto rows = static_cast<u8>(mechanismSpecs().size());
    EXPECT_TRUE(roundTrips(0));
    EXPECT_TRUE(roundTrips(rows - 1));
    EXPECT_FALSE(roundTrips(rows));
}

} // namespace
} // namespace aos::baselines
