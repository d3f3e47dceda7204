/**
 * @file
 * Superblock-tier hazards and invariance. The tier is a host
 * accelerator: chained straight-line blocks with hoisted guards must
 * be invisible to guest semantics and to simulated timing.
 *
 *  - Self-modifying code landing mid-superblock: a store that
 *    overwrites a later instruction of the very block it executes
 *    from must abort the block before the stale slot dispatches, and
 *    the next entry must fail the guard and re-mint fresh bytes.
 *  - Rollback: Machine::restoreFrom drops every minted block (never
 *    copies one), and the counter-invisible re-mint replays the
 *    identical tail.
 *  - Geometry invariance: every guest Olden kernel retires identical
 *    counters under a deliberately tiny accelerator geometry that
 *    forces eviction and re-minting. (Invariance across tiers lives
 *    in test_host_tier.)
 */

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/machine.h"
#include "isa/assembler.h"
#include "support/stats.h"
#include "workloads/guest_olden.h"

namespace
{

using namespace cheri;
using isa::Assembler;
namespace reg = isa::reg;

constexpr std::uint64_t kCodeBase = 0x10000;

core::Machine
makeMachine(core::CpuAccelConfig accel = {})
{
    core::MachineConfig config;
    config.dram_bytes = 8 * 1024 * 1024;
    config.accel = accel;
    return core::Machine(config);
}

core::Machine
machineAt(core::HostTier tier)
{
    core::CpuAccelConfig accel;
    accel.tier = tier;
    return makeMachine(accel);
}

/*
 * A loop whose store patches an instruction BELOW it in the SAME
 * block execution. Iteration 1 runs per-instruction (the loop head
 * is not yet a leader) and stores the site's existing bytes, so
 * nothing changes semantically; the taken back-branch makes the head
 * a mint leader, and iteration 2 enters a freshly minted block whose
 * slots still encode `daddiu v0, zero, 7`. The store this time
 * writes the 99-encoding — the tier must abort the block after the
 * store retires, before the stale predecoded slot behind it can
 * dispatch. s0 accumulates 7 + 99 = 106 iff the fresh bytes ran;
 * a stale mid-block slot would leave 7 + 7 = 14. Layout is assembled
 * to a fixpoint because the li64 length depends on the patch address.
 */
struct MidBlockSmc
{
    std::vector<std::uint32_t> text;
    static constexpr std::uint64_t kExpected = 106; // 7 + 99
};

MidBlockSmc
makeMidBlockSmc()
{
    std::uint32_t old_word, new_word;
    {
        Assembler enc(0);
        enc.daddiu(reg::v0, reg::zero, 7);
        old_word = enc.finish()[0];
    }
    {
        Assembler enc(0);
        enc.daddiu(reg::v0, reg::zero, 99);
        new_word = enc.finish()[0];
    }

    std::uint64_t patch_addr = kCodeBase;
    for (int iter = 0; iter < 8; ++iter) {
        Assembler a(kCodeBase);
        auto loop = a.newLabel();
        a.li64(reg::t1, patch_addr);
        a.li(reg::t0, static_cast<std::int32_t>(old_word));
        a.li(reg::t2, static_cast<std::int32_t>(new_word));
        a.li(reg::s1, 2);
        a.move(reg::s0, reg::zero);
        a.bind(loop);
        a.sw(reg::t0, reg::t1, 0); // iter 1: same bytes; iter 2: patch
        a.move(reg::t0, reg::t2);  // next pass stores the 99-encoding
        std::uint64_t actual = a.here();
        a.daddiu(reg::v0, reg::zero, 7); // the patch site
        a.daddu(reg::s0, reg::s0, reg::v0);
        a.daddiu(reg::s1, reg::s1, -1);
        a.bgtz(reg::s1, loop);
        a.nop();
        a.move(reg::v0, reg::s0);
        a.break_();

        MidBlockSmc prog;
        prog.text = a.finish();
        if (actual == patch_addr)
            return prog;
        patch_addr = actual;
    }
    ADD_FAILURE() << "mid-block SMC layout did not converge";
    return {};
}

std::uint64_t
runMidBlockSmc(core::HostTier tier,
               core::SuperblockStats *stats = nullptr)
{
    MidBlockSmc prog = makeMidBlockSmc();
    core::Machine machine = machineAt(tier);
    machine.loadProgram(kCodeBase, prog.text);
    machine.reset(kCodeBase);
    core::RunResult result = machine.cpu().run(10'000);
    EXPECT_EQ(result.reason, core::StopReason::kBreak);
    if (stats != nullptr)
        *stats = machine.cpu().superblockStats();
    return machine.cpu().gpr(reg::v0);
}

TEST(SuperblockSmc, StoreIntoOwnBlockExecutesFreshBytes)
{
    core::SuperblockStats stats;
    EXPECT_EQ(runMidBlockSmc(core::HostTier::kSuperblock, &stats),
              MidBlockSmc::kExpected);
    // The run actually went through the tier and the covered store
    // aborted a live block.
    EXPECT_GT(stats.entered, 0u);
    EXPECT_GT(stats.invalidated, 0u);
}

TEST(SuperblockSmc, StoreIntoOwnBlockExecutesFreshBytesTierOff)
{
    EXPECT_EQ(runMidBlockSmc(core::HostTier::kFast),
              MidBlockSmc::kExpected);
}

/**
 * The full stale-block life cycle, one event per loop iteration: a
 * six-pass loop whose body is patched exactly once, on the third
 * pass. Pass 1 warms the decode; pass 2 mints the block; pass 3
 * patches the site from INSIDE the running block (SMC abort); pass 4
 * finds the stale block, fails the entry guard, and re-warms; pass 5
 * re-mints with the fresh bytes; pass 6 re-enters the new block. The
 * accumulated sum proves the fresh bytes ran from the patch on:
 * 3 x 7 + 3 x 99 = 318.
 */
TEST(SuperblockSmc, PatchedBlockRemintsBeforeNextEntry)
{
    std::uint32_t new_word;
    {
        Assembler enc(0);
        enc.daddiu(reg::v0, reg::zero, 99);
        new_word = enc.finish()[0];
    }
    std::uint64_t patch_addr = kCodeBase;
    std::vector<std::uint32_t> text;
    for (int iter = 0; iter < 8; ++iter) {
        Assembler a(kCodeBase);
        auto loop = a.newLabel();
        auto skip = a.newLabel();
        a.li64(reg::t1, patch_addr);
        a.li(reg::t0, static_cast<std::int32_t>(new_word));
        a.li(reg::s1, 6);
        a.li(reg::t3, 4); // patch when s1 == 4 (the third pass)
        a.move(reg::s0, reg::zero);
        a.bind(loop);
        std::uint64_t actual = a.here();
        a.daddiu(reg::v0, reg::zero, 7); // the patch site
        a.daddu(reg::s0, reg::s0, reg::v0);
        a.bne(reg::s1, reg::t3, skip);
        a.nop();
        a.sw(reg::t0, reg::t1, 0); // one-time patch, mid-block
        a.bind(skip);
        a.daddiu(reg::s1, reg::s1, -1);
        a.bgtz(reg::s1, loop);
        a.nop();
        a.move(reg::v0, reg::s0);
        a.break_();
        text = a.finish();
        if (actual == patch_addr)
            break;
        patch_addr = actual;
        text.clear();
    }
    ASSERT_FALSE(text.empty()) << "SMC loop layout did not converge";

    for (core::HostTier tier :
         {core::HostTier::kSuperblock, core::HostTier::kFast}) {
        core::Machine machine = machineAt(tier);
        machine.loadProgram(kCodeBase, text);
        machine.reset(kCodeBase);
        core::RunResult result = machine.cpu().run(10'000);
        ASSERT_EQ(result.reason, core::StopReason::kBreak);
        EXPECT_EQ(machine.cpu().gpr(reg::v0), 3u * 7u + 3u * 99u);
        if (tier != core::HostTier::kSuperblock)
            continue;
        const core::SuperblockStats &stats =
            machine.cpu().superblockStats();
        EXPECT_GT(stats.entered, 0u);
        EXPECT_GT(stats.invalidated, 0u); // the mid-block abort
        EXPECT_GT(stats.guard_fails, 0u); // the stale next entry
        EXPECT_GT(stats.minted, 1u);      // the fresh re-mint
    }
}

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

struct GeometryRun
{
    std::uint64_t checksum = 0;
    support::StatSet counters;
    core::SuperblockStats sb;
};

/** Run a kernel at the superblock tier under the given geometry. */
GeometryRun
runKernel(const workloads::GuestProgram &prog,
          core::CpuAccelConfig accel = {})
{
    core::Machine machine = makeMachine(accel);
    workloads::loadGuestProgram(machine, prog);
    workloads::runGuestProgram(machine, prog);
    GeometryRun run;
    run.checksum = machine.cpu().gpr(reg::v0);
    run.counters = machine.counters();
    run.sb = machine.cpu().superblockStats();
    return run;
}

class SuperblockTimingInvariance
    : public ::testing::TestWithParam<std::string>
{
};

/**
 * Tiny accelerator geometry: 4 decode-cache lines (128 bytes of code
 * coverage), 4 superblock entries, 4-slot blocks. Every kernel is
 * larger than that, so blocks are continually evicted, guard-failed,
 * and re-minted — and none of it may leak into simulated state.
 */
TEST_P(SuperblockTimingInvariance, TinyGeometryIdenticalToDefault)
{
    workloads::GuestProgram prog = kernelByName(GetParam());
    core::CpuAccelConfig tiny;
    tiny.decode_cache_lines = 4;
    tiny.superblock_entries = 4;
    tiny.superblock_max_slots = 4;
    GeometryRun small = runKernel(prog, tiny);
    GeometryRun big = runKernel(prog);

    EXPECT_EQ(small.checksum, prog.expected_checksum);
    EXPECT_EQ(small.counters.all(), big.counters.all());
    // The squeeze was real: conflicting blocks were evicted and
    // re-minted far more often than under the default geometry.
    // (Evictions surface as cold re-mints, not guard failures —
    // those are covered deterministically by SuperblockSmc.)
    EXPECT_GT(small.sb.minted, big.sb.minted);
}

INSTANTIATE_TEST_SUITE_P(AllKernels, SuperblockTimingInvariance,
                         ::testing::Values("treeadd", "bisort", "mst",
                                           "em3d"),
                         [](const auto &info) { return info.param; });

/**
 * Rolling back to a checkpoint drops all superblock state: the
 * rolled-back machine re-mints from scratch and replays the identical
 * tail, bit for bit.
 */
TEST(SuperblockSnapshot, RestoreLeavesNoSuperblockState)
{
    workloads::GuestProgram prog = workloads::guestTreeadd(8, 2);

    // Uninterrupted baseline, tier on.
    core::Machine baseline = makeMachine();
    workloads::loadGuestProgram(baseline, prog);
    core::RunResult clean = baseline.cpu().run(core::RunLimits{});
    ASSERT_EQ(clean.reason, core::StopReason::kBreak);
    ASSERT_EQ(baseline.cpu().gpr(reg::v0), prog.expected_checksum);
    support::StatSet expected = baseline.counters();
    std::uint64_t clean_instructions =
        baseline.cpu().totalInstructions();

    // Checkpoint mid-kernel — mid-superblock-working-set by
    // construction, since the tier covers essentially every retired
    // instruction of the kernel.
    core::Machine machine = makeMachine();
    workloads::loadGuestProgram(machine, prog);
    core::RunLimits half;
    half.max_instructions = clean_instructions / 2;
    core::RunResult mid = machine.cpu().run(half);
    ASSERT_EQ(mid.reason, core::StopReason::kInstLimit);
    ASSERT_GT(machine.cpu().superblockStats().entered, 0u);
    std::unique_ptr<core::Machine> checkpoint = machine.fork();

    // Taking the checkpoint must not perturb the continuation.
    core::RunResult rest = machine.cpu().run(core::RunLimits{});
    ASSERT_EQ(rest.reason, core::StopReason::kBreak);
    EXPECT_EQ(machine.counters().all(), expected.all());

    // Rolling back must replay the identical tail, twice, re-minting
    // every block it needs (counter-invisibly).
    for (int round = 0; round < 2; ++round) {
        machine.restoreFrom(*checkpoint);
        EXPECT_EQ(machine.cpu().totalInstructions(),
                  half.max_instructions);
        std::uint64_t minted_before =
            machine.cpu().superblockStats().minted;
        core::RunResult replay = machine.cpu().run(core::RunLimits{});
        ASSERT_EQ(replay.reason, core::StopReason::kBreak);
        EXPECT_EQ(machine.counters().all(), expected.all())
            << "round " << round;
        EXPECT_EQ(machine.cpu().gpr(reg::v0), prog.expected_checksum);
        // The tail re-minted blocks from scratch: the rollback left
        // none.
        EXPECT_GT(machine.cpu().superblockStats().minted,
                  minted_before)
            << "round " << round;
    }
}

} // namespace
