/**
 * @file
 * Tests for the fetch fast path: the predecoded-instruction cache and
 * its invalidation machinery must be invisible to guest semantics and
 * to simulated timing.
 *
 *  - Self-modifying code: a program that overwrites its own upcoming
 *    instruction must execute the new bytes at every host tier
 *    (generation/listener invalidation plus the L1I/L1D coherence
 *    push), with identical counters at every tier. Kernel-level tier
 *    invariance lives in test_host_tier.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/machine.h"
#include "isa/assembler.h"
#include "support/stats.h"

namespace cheri
{
namespace
{

using isa::Assembler;
namespace reg = isa::reg;

constexpr std::uint64_t kCodeBase = 0x10000;

/** A guest program that patches its own loop body. */
struct SmcProgram
{
    std::vector<std::uint32_t> text;
    std::uint64_t patch_addr = 0;
    /** v0 at BREAK when the patch takes effect (7 + 99). */
    static constexpr std::uint64_t kExpected = 106;
    /** v0 at BREAK if stale bytes were executed (7 + 7). */
    static constexpr std::uint64_t kStale = 14;
};

/**
 * Build: loop twice over a body whose first instruction starts as
 * `daddiu v0, zero, 7` and is overwritten during the first iteration
 * with `daddiu v0, zero, 99`. The accumulated sum distinguishes fresh
 * decode (7 + 99) from stale decode (7 + 7). The patch address feeds
 * back into an li64, whose length depends on the value, so assemble to
 * a fixpoint.
 */
SmcProgram
makeSmcProgram()
{
    std::uint32_t new_word;
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
        a.li(reg::t0, static_cast<std::int32_t>(new_word));
        a.li(reg::s1, 2);
        a.move(reg::s0, reg::zero);
        a.bind(loop);
        std::uint64_t actual = a.here();
        a.daddiu(reg::v0, reg::zero, 7); // the patch site
        a.daddu(reg::s0, reg::s0, reg::v0);
        a.sw(reg::t0, reg::t1, 0); // overwrite the patch site
        a.daddiu(reg::s1, reg::s1, -1);
        a.bgtz(reg::s1, loop);
        a.nop();
        a.move(reg::v0, reg::s0);
        a.break_();

        SmcProgram prog;
        prog.text = a.finish();
        prog.patch_addr = actual;
        if (actual == patch_addr)
            return prog;
        patch_addr = actual;
    }
    ADD_FAILURE() << "SMC program layout did not converge";
    return {};
}

/** Run the SMC program to BREAK on a fresh machine at tier. */
std::unique_ptr<core::Machine>
runSmc(core::HostTier tier)
{
    SmcProgram prog = makeSmcProgram();
    core::MachineConfig config;
    config.accel.tier = tier;
    auto machine = std::make_unique<core::Machine>(config);
    machine->loadProgram(kCodeBase, prog.text);
    machine->reset(kCodeBase);
    core::RunResult result = machine->cpu().run(10'000);
    EXPECT_EQ(result.reason, core::StopReason::kBreak);
    return machine;
}

TEST(SelfModifyingCode, NewBytesExecuteWithDecodeCache)
{
    EXPECT_EQ(runSmc(core::HostTier::kSuperblock)->cpu().gpr(reg::v0),
              SmcProgram::kExpected);
}

TEST(SelfModifyingCode, NewBytesExecuteWithoutDecodeCache)
{
    EXPECT_EQ(runSmc(core::HostTier::kReference)->cpu().gpr(reg::v0),
              SmcProgram::kExpected);
}

/**
 * The SMC kernel also exercises the coherence push and decode-line
 * invalidation; its timing must likewise match at every tier.
 */
TEST(TimingInvariance, SelfModifyingCodeIdenticalAcrossModes)
{
    support::StatSet reference;
    for (core::HostTier tier :
         {core::HostTier::kReference, core::HostTier::kFast,
          core::HostTier::kSuperblock}) {
        SCOPED_TRACE(core::hostTierName(tier));
        std::unique_ptr<core::Machine> machine = runSmc(tier);
        EXPECT_EQ(machine->cpu().gpr(reg::v0), SmcProgram::kExpected);
        support::StatSet counters = machine->counters();
        if (tier == core::HostTier::kReference)
            reference = counters;
        EXPECT_EQ(counters.all(), reference.all());
    }
}

} // namespace
} // namespace cheri
