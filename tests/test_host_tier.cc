/**
 * @file
 * Host-tier invariance: every core::HostTier must be observationally
 * equal to the reference tier on the guest Olden kernels, under every
 * prefetch policy.
 *
 *  - Free running (HostTierInvariance, kernel x prefetch policy): each
 *    instance runs its kernel at all three tiers. The checksum and
 *    every simulated counter (Machine::counters()) are identical at
 *    every tier. The superblock tier retires most of the kernel in
 *    blocks, and the lower tiers enter no block at all.
 *  - Lockstep: at every tier and prefetch policy the kernel runs
 *    against the reference CPU to BREAK with zero divergence, and
 *    each tier above the reference ends with the reference tier's
 *    counters — so no tier's accelerators and no prefetch decision can
 *    leak into simulated state. LockstepOlden and DataLockstepOlden
 *    run without a prefetcher, LockstepPrefetch with each one. In
 *    their instance names, `fast` is a tier above the reference, `sb`
 *    the superblock tier and `slow` the reference tier.
 *  - Geometry (HostTierGeometry): the accelerator sizes must be powers
 *    of two at every tier, also where their arrays are not built.
 */

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "cache/prefetch.h"
#include "check/lockstep.h"
#include "core/machine.h"
#include "isa/assembler.h"
#include "support/stats.h"
#include "workloads/guest_olden.h"

namespace
{

using namespace cheri;
using core::HostTier;

/** Reference first: the other tiers compare against its counters. */
constexpr HostTier kTiers[] = {HostTier::kReference, HostTier::kFast,
                               HostTier::kSuperblock};

workloads::GuestProgram
kernelByName(const std::string &name)
{
    if (name == "treeadd")
        return workloads::guestTreeadd(8, 2);
    if (name == "bisort")
        return workloads::guestBisort(64);
    if (name == "mst")
        return workloads::guestMst(12);
    return workloads::guestEm3d(10, 3, 2);
}

/** A machine at tier with prefetcher policy and prog loaded. */
std::unique_ptr<core::Machine>
machineAt(const workloads::GuestProgram &prog, const std::string &policy,
          HostTier tier)
{
    core::MachineConfig config;
    config.dram_bytes = 8 * 1024 * 1024;
    EXPECT_TRUE(cache::parsePrefetchPolicy(
        policy.c_str(), config.caches.prefetch.policy));
    config.caches.prefetch.degree = 4;
    config.accel.tier = tier;
    auto machine = std::make_unique<core::Machine>(config);
    workloads::loadGuestProgram(*machine, prog);
    return machine;
}

// --- free running ----------------------------------------------------

class HostTierInvariance
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>>
{
};

TEST_P(HostTierInvariance, FreeRunning)
{
    const auto &[name, policy] = GetParam();
    workloads::GuestProgram prog = kernelByName(name);
    support::StatSet reference;
    for (HostTier tier : kTiers) {
        SCOPED_TRACE(core::hostTierName(tier));
        std::unique_ptr<core::Machine> machine =
            machineAt(prog, policy, tier);
        core::RunResult result =
            workloads::runGuestProgram(*machine, prog);
        EXPECT_EQ(result.reason, core::StopReason::kBreak);
        EXPECT_EQ(machine->cpu().gpr(isa::reg::v0),
                  prog.expected_checksum);
        // Full counter-by-counter equality: one extra or missing
        // cache, TLB, tag or prefetch event at any tier shows here.
        support::StatSet counters = machine->counters();
        if (tier == HostTier::kReference)
            reference = counters;
        EXPECT_EQ(counters.all(), reference.all());

        const core::SuperblockStats &sb =
            machine->cpu().superblockStats();
        if (tier == HostTier::kSuperblock) {
            EXPECT_GT(sb.instructions, result.instructions / 2);
        } else {
            EXPECT_EQ(sb.entered, 0u);
            EXPECT_EQ(sb.instructions, 0u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, HostTierInvariance,
    ::testing::Combine(::testing::Values("treeadd", "bisort", "mst",
                                         "em3d"),
                       ::testing::Values("none", "nextline",
                                         "capchase")),
    [](const auto &info) {
        return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

// --- lockstep --------------------------------------------------------

/** Counters of one clean lockstep run of kernel at tier. */
support::StatSet
lockstepCounters(const std::string &name, const std::string &policy,
                 HostTier tier)
{
    SCOPED_TRACE(core::hostTierName(tier));
    workloads::GuestProgram prog = kernelByName(name);
    std::unique_ptr<core::Machine> machine = machineAt(prog, policy, tier);
    check::Lockstep lockstep(*machine);
    check::LockstepResult result = lockstep.run();
    EXPECT_FALSE(result.diverged) << result.divergence;
    EXPECT_TRUE(result.hit_break);
    EXPECT_FALSE(result.trapped);
    EXPECT_GT(result.instructions, 100u);
    // The kernel's own self-check still holds under the oracle.
    EXPECT_EQ(machine->cpu().gpr(isa::reg::v0), prog.expected_checksum);
    return machine->counters();
}

/** Kernel runs clean under the oracle at tier, with the reference
 *  tier's counters. */
void
expectLockstepClean(const std::string &name, const std::string &policy,
                    HostTier tier)
{
    support::StatSet counters = lockstepCounters(name, policy, tier);
    if (tier != HostTier::kReference) {
        EXPECT_EQ(counters.all(),
                  lockstepCounters(name, policy, HostTier::kReference)
                      .all());
    }
}

class LockstepOlden
    : public ::testing::TestWithParam<std::tuple<std::string, bool>>
{
};

TEST_P(LockstepOlden, ZeroDivergence)
{
    const auto &[name, fast] = GetParam();
    expectLockstepClean(name, "none",
                        fast ? HostTier::kSuperblock
                             : HostTier::kReference);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, LockstepOlden,
    ::testing::Combine(::testing::Values("treeadd", "bisort", "mst",
                                         "em3d"),
                       ::testing::Bool()),
    [](const auto &info) {
        return std::get<0>(info.param) +
               (std::get<1>(info.param) ? "_fast" : "_slow");
    });

class DataLockstepOlden : public ::testing::TestWithParam<std::string>
{
};

TEST_P(DataLockstepOlden, ZeroDivergenceAndCounterEquality)
{
    expectLockstepClean(GetParam(), "none", HostTier::kFast);
}

INSTANTIATE_TEST_SUITE_P(AllKernels, DataLockstepOlden,
                         ::testing::Values("treeadd", "bisort", "mst",
                                           "em3d"),
                         [](const auto &info) { return info.param; });

class LockstepPrefetch
    : public ::testing::TestWithParam<
          std::tuple<std::string, bool, bool, std::string>>
{
};

TEST_P(LockstepPrefetch, ZeroDivergence)
{
    const auto &[name, fast, superblocks, policy] = GetParam();
    expectLockstepClean(name, policy,
                        !fast         ? HostTier::kReference
                        : superblocks ? HostTier::kSuperblock
                                      : HostTier::kFast);
}

/** Every kernel x prefetcher at each tier: fast_sb, fast_nosb and
 *  slow_nosb. */
std::vector<std::tuple<std::string, bool, bool, std::string>>
lockstepPrefetchPoints()
{
    std::vector<std::tuple<std::string, bool, bool, std::string>> points;
    for (const char *name : {"treeadd", "bisort", "mst", "em3d"})
        for (bool fast : {false, true})
            for (bool superblocks : {false, true})
                for (const char *policy : {"nextline", "capchase"})
                    if (fast || !superblocks)
                        points.emplace_back(name, fast, superblocks,
                                            policy);
    return points;
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, LockstepPrefetch,
    ::testing::ValuesIn(lockstepPrefetchPoints()),
    [](const auto &info) {
        return std::get<0>(info.param) +
               (std::get<1>(info.param) ? "_fast" : "_slow") +
               (std::get<2>(info.param) ? "_sb" : "_nosb") + "_" +
               std::get<3>(info.param);
    });

/** A tier builds only its own accelerator arrays, but the geometry of
 *  all of them is checked at every tier, so a config that builds at
 *  one tier builds at all. */
TEST(HostTierGeometry, PowersOfTwoAtEveryTier)
{
    for (HostTier tier : kTiers) {
        SCOPED_TRACE(core::hostTierName(tier));
        core::MachineConfig lines;
        lines.accel.tier = tier;
        lines.accel.decode_cache_lines = 96;
        EXPECT_DEATH(core::Machine{lines}, "decode_cache_lines");
        core::MachineConfig entries;
        entries.accel.tier = tier;
        entries.accel.superblock_entries = 96;
        EXPECT_DEATH(core::Machine{entries}, "superblock_entries");
    }
}

} // namespace
