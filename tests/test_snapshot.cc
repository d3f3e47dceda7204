/**
 * @file
 * Checkpoint/rollback determinism. The core guarantee the
 * fault-injection campaign rests on: forking a checkpoint mid-kernel
 * (Machine::fork) and rolling the running machine back to it later
 * (Machine::restoreFrom) must be invisible to the simulation — the
 * rolled-back run retires the same instructions, burns the same
 * cycles, and takes the same cache/TLB/tag hits as an uninterrupted
 * run, bit for bit, at the reference and superblock host tiers
 * (MachineCopy in test_cow_fork.cc adds the fast tier and DRAM).
 * Also covers the watchdog budgets (structured kInstLimit /
 * kCycleLimit results), the structured allocation errors on
 * core::Machine, and the fault-campaign engine's reproducibility.
 */

#include <memory>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "check/fault_campaign.h"
#include "check/fault_plan.h"
#include "isa/assembler.h"
#include "workloads/guest_olden.h"

namespace
{

using namespace cheri;

workloads::GuestProgram
kernelByName(const std::string &name)
{
    if (name == "treeadd")
        return workloads::guestTreeadd(5, 2);
    if (name == "bisort")
        return workloads::guestBisort(48);
    if (name == "mst")
        return workloads::guestMst(12);
    return workloads::guestEm3d(10, 3, 2);
}

core::Machine
makeMachine(core::HostTier tier = core::HostTier::kSuperblock)
{
    core::MachineConfig config;
    config.dram_bytes = 8 * 1024 * 1024;
    config.accel.tier = tier;
    return core::Machine(config);
}

/** Parameter: kernel x (superblock tier, else the reference tier). */
class SnapshotOlden
    : public ::testing::TestWithParam<std::tuple<std::string, bool>>
{
};

TEST_P(SnapshotOlden, SaveAndRestoreAreInvisible)
{
    const auto &[name, fast] = GetParam();
    core::HostTier tier =
        fast ? core::HostTier::kSuperblock : core::HostTier::kReference;
    workloads::GuestProgram prog = kernelByName(name);

    // Uninterrupted baseline. Two runs are "the same" iff every
    // simulated counter (Machine::counters()) is equal.
    core::Machine baseline = makeMachine(tier);
    workloads::loadGuestProgram(baseline, prog);
    core::RunResult clean = baseline.cpu().run(core::RunLimits{});
    ASSERT_EQ(clean.reason, core::StopReason::kBreak);
    ASSERT_EQ(baseline.cpu().gpr(isa::reg::v0), prog.expected_checksum);
    support::StatSet expected = baseline.counters();
    std::uint64_t clean_instructions =
        baseline.cpu().totalInstructions();
    ASSERT_GT(clean_instructions, 100u);

    // Same run, but fork a checkpoint mid-kernel. Taking it must not
    // perturb the continuation...
    core::Machine machine = makeMachine(tier);
    workloads::loadGuestProgram(machine, prog);
    core::RunLimits half;
    half.max_instructions = clean_instructions / 2;
    core::RunResult mid = machine.cpu().run(half);
    ASSERT_EQ(mid.reason, core::StopReason::kInstLimit);
    std::unique_ptr<core::Machine> checkpoint = machine.fork();
    core::RunResult rest = machine.cpu().run(core::RunLimits{});
    ASSERT_EQ(rest.reason, core::StopReason::kBreak);
    EXPECT_EQ(machine.counters().all(), expected.all());
    EXPECT_EQ(machine.cpu().gpr(isa::reg::v0), prog.expected_checksum);

    // ...and rolling the same machine back to it must replay the
    // identical tail, twice.
    for (int round = 0; round < 2; ++round) {
        machine.restoreFrom(*checkpoint);
        EXPECT_EQ(machine.cpu().totalInstructions(),
                  half.max_instructions);
        core::RunResult replay = machine.cpu().run(core::RunLimits{});
        ASSERT_EQ(replay.reason, core::StopReason::kBreak);
        EXPECT_EQ(machine.counters().all(), expected.all())
            << "round " << round;
        EXPECT_EQ(machine.cpu().gpr(isa::reg::v0),
                  prog.expected_checksum);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, SnapshotOlden,
    ::testing::Combine(::testing::Values("treeadd", "bisort", "mst",
                                         "em3d"),
                       ::testing::Bool()),
    [](const auto &info) {
        return std::get<0>(info.param) +
               (std::get<1>(info.param) ? "_fast" : "_slow");
    });

TEST(Snapshot, RollbackAndRetryAfterFault)
{
    // Rollback-and-retry: corrupt the machine, observe the damage,
    // roll back, and the clean run must complete as if nothing
    // happened.
    workloads::GuestProgram prog = kernelByName("bisort");
    core::Machine machine = makeMachine();
    workloads::loadGuestProgram(machine, prog);
    std::unique_ptr<core::Machine> checkpoint = machine.fork();

    core::RunLimits prefix;
    prefix.max_instructions = 500;
    ASSERT_EQ(machine.cpu().run(prefix).reason,
              core::StopReason::kInstLimit);
    check::FaultPlan plan;
    plan.fault = check::FaultClass::kDramBitFlip;
    plan.pick = 12345;
    check::FaultOutcome outcome = check::applyFault(machine, plan);
    ASSERT_TRUE(outcome.applied);

    machine.restoreFrom(*checkpoint);
    core::RunResult replay = machine.cpu().run(core::RunLimits{});
    ASSERT_EQ(replay.reason, core::StopReason::kBreak);
    EXPECT_EQ(machine.cpu().gpr(isa::reg::v0), prog.expected_checksum);
}

TEST(Watchdog, CycleBudgetReturnsStructuredResult)
{
    // An infinite loop must come back as kCycleLimit, not hang.
    isa::Assembler a(0x10000);
    isa::Assembler::Label spin = a.newLabel();
    a.bind(spin);
    a.b(spin);
    a.nop();

    core::Machine machine;
    machine.loadProgram(0x10000, a.finish());
    machine.reset(0x10000);

    core::RunLimits limits;
    limits.max_cycles = 10'000;
    core::RunResult result = machine.cpu().run(limits);
    EXPECT_EQ(result.reason, core::StopReason::kCycleLimit);
    EXPECT_GE(machine.cpu().totalCycles(), limits.max_cycles);

    // The instruction budget fires the same way.
    core::RunLimits insts;
    insts.max_instructions = 100;
    result = machine.cpu().run(insts);
    EXPECT_EQ(result.reason, core::StopReason::kInstLimit);
}

TEST(MachineAlloc, StructuredErrorsInsteadOfAbort)
{
    core::MachineConfig config;
    config.dram_bytes = 4 * tlb::kPageBytes; // four frames only
    core::Machine machine(config);

    // Mapping more than DRAM can back fails cleanly...
    EXPECT_FALSE(machine.tryMapRange(0x100000, 8 * tlb::kPageBytes));

    // ...and frame allocation reports exhaustion via nullopt.
    while (machine.tryAllocFrame())
        ;
    EXPECT_EQ(machine.tryAllocFrame(), std::nullopt);
    EXPECT_EQ(machine.allocatedFrames(), 4u);
}

TEST(FaultCampaign, ReportIsReproducible)
{
    workloads::GuestProgram prog = kernelByName("treeadd");
    check::CampaignGuest guest{
        "treeadd", [prog](core::Machine &machine) {
            workloads::loadGuestProgram(machine, prog);
        }};
    check::CampaignConfig config;
    config.trials = 5;
    config.seed = 42;

    check::CampaignReport first =
        check::runCampaign(config, {guest});
    check::CampaignReport second =
        check::runCampaign(config, {guest});
    EXPECT_EQ(first.toJson(), second.toJson());
    ASSERT_EQ(first.guests.size(), 1u);
    EXPECT_FALSE(first.guests[0].restore_perturbed);
    EXPECT_EQ(first.guests[0].trials.size(), config.trials);
}

} // namespace
