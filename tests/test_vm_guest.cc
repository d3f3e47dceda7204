/**
 * @file
 * The managed-runtime guest: a stack-bytecode VM with a semispace
 * copying GC, run as real guest code under all three compilation
 * models. Covers the host mirror's model-independent checksum, plain
 * execution, the lockstep oracle (zero divergence across fast-path
 * modes), the tag-preserving evacuation invariant, the deliberate
 * integer-copy tag-stripping pitfall (must trap, deterministically),
 * and a fault-injection campaign that must classify every perturbed
 * trial as detected — never silent corruption.
 */

#include <gtest/gtest.h>

#include "check/fault_campaign.h"
#include "check/lockstep.h"
#include "core/machine.h"
#include "isa/assembler.h"
#include "workloads/vm_guest.h"

namespace
{

using namespace cheri;
using workloads::VmConfig;
using workloads::VmGcCopy;
using workloads::VmMirror;
using workloads::VmModel;
using workloads::VmProgram;

constexpr std::uint64_t kDramBytes = 8 * 1024 * 1024;
constexpr std::uint64_t kMaxInsts = 20'000'000;

VmConfig
configFor(VmModel model, VmProgram program)
{
    VmConfig config;
    config.model = model;
    config.program = program;
    if (program == VmProgram::kTreeChurn) {
        // Tree rounds keep 2*units+1 objects live at peak.
        config.rounds = 5;
        config.units = 8;
        config.semispace_objects = 24;
    }
    return config;
}

core::Machine
makeMachine(core::HostTier tier = core::HostTier::kSuperblock)
{
    core::MachineConfig config;
    config.dram_bytes = kDramBytes;
    config.accel.tier = tier;
    return core::Machine(config);
}

// --- host mirror ---

TEST(VmMirror, ListChurnArithmetic)
{
    VmConfig config; // defaults: list, rounds 6, units 12, capacity 18
    VmMirror mirror = workloads::vmMirror(config);
    EXPECT_EQ(mirror.result, 6ull * (12 * 13 / 2));
    EXPECT_EQ(mirror.allocations, 6ull * 12);
    // The churn must actually force collections, or the GC (and its
    // tag-preservation invariant) would go unexercised.
    EXPECT_GT(mirror.collections, 0u);
    EXPECT_EQ(mirror.checksum,
              (mirror.result * 31 + mirror.collections) * 31 +
                  mirror.allocations);
}

TEST(VmMirror, TreeChurnArithmetic)
{
    VmConfig config = configFor(VmModel::kCheri, VmProgram::kTreeChurn);
    VmMirror mirror = workloads::vmMirror(config);
    EXPECT_EQ(mirror.result, 5ull * (8 * 9 / 2));
    EXPECT_EQ(mirror.allocations, 5ull * (2 * 8 + 1));
    EXPECT_GT(mirror.collections, 0u);
}

TEST(VmMirror, ChecksumIsModelIndependent)
{
    // The expected checksum depends only on the program shape, so all
    // three compilation models of the same program must agree.
    for (VmProgram program :
         {VmProgram::kListChurn, VmProgram::kTreeChurn}) {
        VmMirror cheri =
            workloads::vmMirror(configFor(VmModel::kCheri, program));
        VmMirror mips =
            workloads::vmMirror(configFor(VmModel::kMips, program));
        VmMirror ccured =
            workloads::vmMirror(configFor(VmModel::kCcured, program));
        EXPECT_EQ(cheri.checksum, mips.checksum);
        EXPECT_EQ(cheri.checksum, ccured.checksum);
    }
}

// --- direct execution, all models x both programs ---

class VmRuns
    : public ::testing::TestWithParam<std::tuple<VmModel, VmProgram>>
{
};

TEST_P(VmRuns, CompletesWithMirrorChecksum)
{
    const auto &[model, program] = GetParam();
    workloads::GuestProgram prog =
        workloads::guestVm(configFor(model, program));

    core::Machine machine = makeMachine();
    workloads::loadGuestProgram(machine, prog);
    core::RunResult result = machine.cpu().run(kMaxInsts);

    ASSERT_EQ(result.reason, core::StopReason::kBreak)
        << "guest " << prog.name << " stopped: "
        << core::stopReasonName(result.reason);
    EXPECT_EQ(machine.cpu().gpr(isa::reg::v0), prog.expected_checksum)
        << "guest " << prog.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, VmRuns,
    ::testing::Combine(::testing::Values(VmModel::kMips,
                                         VmModel::kCcured,
                                         VmModel::kCheri),
                       ::testing::Values(VmProgram::kListChurn,
                                         VmProgram::kTreeChurn)),
    [](const auto &info) {
        return std::string(
                   workloads::vmModelName(std::get<0>(info.param))) +
               (std::get<1>(info.param) == VmProgram::kListChurn
                    ? "_list"
                    : "_tree");
    });

// --- lockstep oracle: VM guest x 3 models x 2 host tiers ---

/** Parameter: model x (superblock tier, else the reference tier). */
class VmLockstep
    : public ::testing::TestWithParam<std::tuple<VmModel, bool>>
{
};

TEST_P(VmLockstep, ZeroDivergence)
{
    const auto &[model, fast] = GetParam();
    core::HostTier tier =
        fast ? core::HostTier::kSuperblock : core::HostTier::kReference;
    workloads::GuestProgram prog = workloads::guestVm(
        configFor(model, VmProgram::kListChurn));

    core::Machine machine = makeMachine(tier);
    workloads::loadGuestProgram(machine, prog);

    check::Lockstep lockstep(machine);
    check::LockstepResult result = lockstep.run();

    EXPECT_FALSE(result.diverged) << result.divergence;
    EXPECT_TRUE(result.hit_break);
    EXPECT_FALSE(result.trapped);
    EXPECT_GT(result.instructions, 1000u);
    EXPECT_EQ(machine.cpu().gpr(isa::reg::v0), prog.expected_checksum);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, VmLockstep,
    ::testing::Combine(::testing::Values(VmModel::kMips,
                                         VmModel::kCcured,
                                         VmModel::kCheri),
                       ::testing::Bool()),
    [](const auto &info) {
        return std::string(
                   workloads::vmModelName(std::get<0>(info.param))) +
               (std::get<1>(info.param) ? "_fast" : "_slow");
    });

// --- the integer-copy pitfall ---

TEST(VmIntegerCopy, DeterministicallyTrapsAsTagViolation)
{
    // The CRuby-on-CHERI scenario: the collector copies objects with
    // integer loads/stores, architecturally stripping every copied
    // reference's tag. The mutator's next dereference of a moved
    // reference must raise a tag violation — never read through the
    // stale bits. Run under lockstep so the reference CPU agrees the
    // trap (and its cause and register) is architecturally right.
    VmConfig config = configFor(VmModel::kCheri, VmProgram::kListChurn);
    config.gc_copy = VmGcCopy::kInteger;
    workloads::GuestProgram prog = workloads::guestVm(config);

    core::Machine machine = makeMachine();
    workloads::loadGuestProgram(machine, prog);

    check::Lockstep lockstep(machine);
    check::LockstepResult result = lockstep.run();

    EXPECT_FALSE(result.diverged) << result.divergence;
    EXPECT_FALSE(result.hit_break);
    ASSERT_TRUE(result.trapped);
    EXPECT_EQ(result.trap.cap_cause, cap::CapCause::kTagViolation);
    // The faulting register is the reference the field load went
    // through (c9 in the kGetF0/kGetF1 handler).
    EXPECT_EQ(result.trap.cap_reg, 9u);

    // Deterministic: a second run faults at the identical pc.
    core::Machine again = makeMachine();
    workloads::loadGuestProgram(again, prog);
    check::LockstepResult second = check::Lockstep(again).run();
    ASSERT_TRUE(second.trapped);
    EXPECT_EQ(second.trap.epc, result.trap.epc);
    EXPECT_EQ(second.instructions, result.instructions);
}

TEST(VmIntegerCopy, CapabilityCopyModeReachesBreakInstead)
{
    // Same shape, capability-copying collector: tags survive and the
    // run completes. This pair of tests is the evacuation invariant.
    VmConfig config = configFor(VmModel::kCheri, VmProgram::kListChurn);
    config.gc_copy = VmGcCopy::kCapability;
    workloads::GuestProgram prog = workloads::guestVm(config);

    core::Machine machine = makeMachine();
    workloads::loadGuestProgram(machine, prog);
    core::RunResult result = machine.cpu().run(kMaxInsts);
    ASSERT_EQ(result.reason, core::StopReason::kBreak);
    EXPECT_EQ(machine.cpu().gpr(isa::reg::v0), prog.expected_checksum);
}

// --- fault campaign over the VM guest ---

TEST(VmFaultCampaign, NoSilentCorruptionAcross200Injections)
{
    workloads::GuestProgram prog = workloads::guestVm(
        configFor(VmModel::kCheri, VmProgram::kListChurn));

    check::CampaignConfig config;
    config.trials = 200;
    config.seed = 0x5e12;
    config.dram_bytes = kDramBytes;
    config.jobs = 4;

    std::vector<check::CampaignGuest> guests;
    guests.push_back(check::CampaignGuest{
        prog.name, [prog](core::Machine &machine) {
            workloads::loadGuestProgram(machine, prog);
        }});

    check::CampaignReport report = runCampaign(config, guests);
    ASSERT_EQ(report.guests.size(), 1u);
    const check::GuestReport &guest = report.guests[0];
    EXPECT_FALSE(guest.restore_perturbed);
    EXPECT_EQ(guest.trials.size(), 200u);

    std::uint64_t tag_flip_trials = 0;
    for (const check::TrialRecord &trial : guest.trials) {
        EXPECT_NE(trial.outcome, check::TrialOutcome::kSilentCorruption)
            << "trial " << trial.index << " (" << trial.target << "): "
            << trial.detail;
        if (trial.applied == check::FaultClass::kTagTableFlip)
            ++tag_flip_trials;
    }
    // Tag-table flips during evacuation are the scenario this guest
    // exists to cover; the plan mix must actually include them.
    EXPECT_GT(tag_flip_trials, 0u);
}

} // namespace
