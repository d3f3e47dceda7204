/**
 * @file
 * Targeted hazards for the data-side memory fast path (translation
 * memo + L1D-hit short-circuit, DESIGN.md §9), each run at every host
 * tier: tag semantics through the fast store path, TLB remap +
 * flushPage invalidating the translation memo, and L1D eviction
 * invalidating the line handle. Kernel-level tier invariance, free
 * running and under the lockstep oracle, lives in test_host_tier.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/machine.h"
#include "isa/assembler.h"
#include "support/stats.h"
#include "tlb/page_table.h"

namespace cheri
{
namespace
{

using isa::Assembler;
namespace reg = isa::reg;

constexpr std::uint64_t kCodeBase = 0x10000;
constexpr std::uint64_t kArena = 0x100000;

constexpr core::HostTier kTiers[] = {core::HostTier::kReference,
                                     core::HostTier::kFast,
                                     core::HostTier::kSuperblock};

core::Machine
machineAt(core::HostTier tier)
{
    core::MachineConfig config;
    config.accel.tier = tier;
    return core::Machine(config);
}

/**
 * Tag semantics through the fast store path: a data store taken by the
 * memoized L1D short-circuit must clear the line's capability tag, and
 * a fast CSC must set it — both observable by a subsequent CLC.
 * Result register encodes both checks: v0 = tag_after_data_store +
 * 2 * tag_after_csc, expected 0 + 2*1 = 2.
 */
TEST(DataFastPathHazards, TagSemanticsThroughFastStores)
{
    Assembler a(kCodeBase);
    a.li64(reg::t0, kArena);
    a.cincbase(1, 0, reg::t0);
    a.li(reg::t1, 0x1000);
    a.csetlen(1, 1, reg::t1);
    a.move(reg::t2, reg::zero);
    a.li(reg::t3, 0x5a5a);
    a.csd(reg::t3, 1, reg::t2, 0); // slow store, mints the memo
    a.csc(1, 1, reg::t2, 0);       // fast CSC: tag = 1
    a.csd(reg::t3, 1, reg::t2, 0); // fast data store: tag must clear
    a.clc(2, 1, reg::t2, 0);
    a.cgettag(reg::t4, 2); // expect 0
    a.csc(1, 1, reg::t2, 0); // fast CSC again: tag = 1
    a.clc(3, 1, reg::t2, 0);
    a.cgettag(reg::t5, 3); // expect 1
    a.daddu(reg::v0, reg::t4, reg::t5);
    a.daddu(reg::v0, reg::v0, reg::t5);
    a.break_();
    std::vector<std::uint32_t> text = a.finish();

    for (core::HostTier tier : kTiers) {
        core::Machine machine = machineAt(tier);
        machine.mapRange(kArena, 0x1000);
        machine.loadProgram(kCodeBase, text);
        machine.reset(kCodeBase);
        core::RunResult result = machine.cpu().run(10'000);
        EXPECT_EQ(result.reason, core::StopReason::kBreak);
        EXPECT_EQ(machine.cpu().gpr(reg::v0), 2u)
            << core::hostTierName(tier);
    }
}

/**
 * Remapping a page and flushing its TLB entry must invalidate the
 * translation memo: the next access through the memoized virtual line
 * must see the new physical page, not the old one.
 */
TEST(DataFastPathHazards, TlbRemapInvalidatesMemo)
{
    constexpr std::uint64_t kPageA = kArena;
    constexpr std::uint64_t kPageB = kArena + 2 * tlb::kPageBytes;
    constexpr std::uint64_t kPhase2 = kCodeBase + 0x2000;

    Assembler phase1(kCodeBase);
    phase1.li64(reg::t0, kPageA);
    phase1.li(reg::t1, 0x1111);
    phase1.sd(reg::t1, reg::t0, 0);
    phase1.li64(reg::t2, kPageB);
    phase1.li(reg::t3, 0x2222);
    phase1.sd(reg::t3, reg::t2, 0);
    phase1.ld(reg::s0, reg::t0, 0); // mints the memo for page A
    phase1.ld(reg::s0, reg::t0, 0); // fast read
    phase1.break_();

    Assembler phase2(kPhase2);
    phase2.li64(reg::t0, kPageA);
    phase2.ld(reg::v0, reg::t0, 0);
    phase2.break_();

    for (core::HostTier tier : kTiers) {
        core::Machine machine = machineAt(tier);
        machine.mapRange(kArena, 4 * tlb::kPageBytes);
        machine.loadProgram(kCodeBase, phase1.finish());
        machine.loadProgram(kPhase2, phase2.finish());
        machine.reset(kCodeBase);
        core::RunResult result = machine.cpu().run(10'000);
        ASSERT_EQ(result.reason, core::StopReason::kBreak);
        EXPECT_EQ(machine.cpu().gpr(reg::s0), 0x1111u);

        // Host remaps page A onto page B's frame and flushes the stale
        // TLB entry; the generation bump must kill the data memo.
        auto pte_b = machine.pageTable().lookup(kPageB / tlb::kPageBytes);
        ASSERT_TRUE(pte_b.has_value());
        machine.pageTable().map(kPageA / tlb::kPageBytes, pte_b->pfn);
        machine.tlb().flushPage(kPageA);

        machine.cpu().setPc(kPhase2);
        result = machine.cpu().run(10'000);
        ASSERT_EQ(result.reason, core::StopReason::kBreak);
        EXPECT_EQ(machine.cpu().gpr(reg::v0), 0x2222u)
            << core::hostTierName(tier);
    }
}

/**
 * Evicting the memoized line from the L1D must invalidate the line
 * handle: the next access falls back to the slow path (refill) and
 * still reads the line's last value. Counter equality across tiers
 * proves the fast path neither skipped the refill nor miscounted it.
 */
TEST(DataFastPathHazards, L1dEvictionInvalidatesHandle)
{
    // L1D: 16 KB, 4 ways, 32 B lines -> 128 sets; lines 4096 bytes
    // apart share a set, so 7 extra lines overflow the 4 ways.
    Assembler a(kCodeBase);
    a.li64(reg::t0, kArena);
    a.li(reg::t1, 0x7777);
    a.sd(reg::t1, reg::t0, 0);  // mints the memo
    a.ld(reg::s0, reg::t0, 0);  // fast read
    for (int k = 1; k <= 7; ++k)
        a.ld(reg::t2, reg::t0, k * 4096); // conflict: evicts the line
    a.ld(reg::v0, reg::t0, 0); // stale handle -> slow refill
    a.break_();
    std::vector<std::uint32_t> text = a.finish();

    support::StatSet reference;
    for (core::HostTier tier : kTiers) {
        SCOPED_TRACE(core::hostTierName(tier));
        core::Machine machine = machineAt(tier);
        machine.mapRange(kArena, 8 * tlb::kPageBytes);
        machine.loadProgram(kCodeBase, text);
        machine.reset(kCodeBase);
        core::RunResult result = machine.cpu().run(10'000);
        EXPECT_EQ(result.reason, core::StopReason::kBreak);
        EXPECT_EQ(machine.cpu().gpr(reg::v0), 0x7777u);
        support::StatSet counters = machine.counters();
        if (tier == core::HostTier::kReference)
            reference = counters;
        EXPECT_EQ(counters.all(), reference.all());
    }
}

} // namespace
} // namespace cheri
