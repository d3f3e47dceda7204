/**
 * @file
 * Guest-program tests for the CHERI instruction set on the CPU: every
 * Table 1 instruction executes in a real program, and every
 * capability-violation path raises the right CP2 exception.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cap/perms.h"
#include "check/lockstep.h"
#include "core/machine.h"
#include "isa/assembler.h"

namespace cheri::core
{
namespace
{

using namespace isa::reg;
using isa::Assembler;

constexpr std::uint64_t kCodeBase = 0x10000;
constexpr std::uint64_t kDataBase = 0x20000;

struct GuestFixture
{
    Machine machine;

    explicit GuestFixture(Assembler &assembler)
    {
        machine.mapRange(kDataBase, 64 * 1024);
        machine.loadProgram(kCodeBase, assembler.finish());
        machine.reset(kCodeBase);
    }

    RunResult
    run(std::uint64_t max_insts = 100000)
    {
        return machine.cpu().run(max_insts);
    }

    Cpu &cpu() { return machine.cpu(); }
};

/** Emit code deriving c1 = [kDataBase, +len) from almighty c0. */
void
deriveDataCap(Assembler &a, std::int32_t len)
{
    a.li(t0, static_cast<std::int32_t>(kDataBase));
    a.cincbase(1, 0, t0);
    a.li(t1, len);
    a.csetlen(1, 1, t1);
}

TEST(CheriCpu, InspectionInstructions)
{
    Assembler a(kCodeBase);
    deriveDataCap(a, 0x100);
    a.cgetbase(s0, 1);
    a.cgetlen(s1, 1);
    a.cgettag(s2, 1);
    a.cgetperm(s3, 1);
    a.ccleartag(2, 1);
    a.cgettag(s4, 2);
    a.break_();

    GuestFixture guest(a);
    ASSERT_EQ(guest.run().reason, StopReason::kBreak);
    EXPECT_EQ(guest.cpu().gpr(s0), kDataBase);
    EXPECT_EQ(guest.cpu().gpr(s1), 0x100u);
    EXPECT_EQ(guest.cpu().gpr(s2), 1u);
    EXPECT_EQ(guest.cpu().gpr(s3), cap::kPermAll);
    EXPECT_EQ(guest.cpu().gpr(s4), 0u);
}

TEST(CheriCpu, CGetPccReturnsPcAndPcc)
{
    Assembler a(kCodeBase);
    a.nop();
    a.cgetpcc(2, s0); // at kCodeBase + 4
    a.cgetbase(s1, 2);
    a.break_();

    GuestFixture guest(a);
    guest.run();
    EXPECT_EQ(guest.cpu().gpr(s0), kCodeBase + 4);
    EXPECT_EQ(guest.cpu().gpr(s1), 0u); // almighty PCC base
}

TEST(CheriCpu, CapLoadStoreData)
{
    Assembler a(kCodeBase);
    deriveDataCap(a, 0x100);
    a.li64(t2, 0x0123456789abcdefULL);
    a.csd(t2, 1, zero, 0);
    a.cld(s0, 1, zero, 0);
    a.clw(s1, 1, zero, 0);
    a.clwu(s2, 1, zero, 4);
    a.clh(s3, 1, zero, 0);
    a.clhu(s4, 1, zero, 0);
    a.clb(s5, 1, zero, 1);
    a.clbu(s6, 1, zero, 1);
    // Register-indexed addressing.
    a.li(t3, 8);
    a.csd(t2, 1, t3, 0);
    a.cld(s7, 1, t3, 0);
    a.break_();

    GuestFixture guest(a);
    ASSERT_EQ(guest.run().reason, StopReason::kBreak);
    EXPECT_EQ(guest.cpu().gpr(s0), 0x0123456789abcdefULL);
    EXPECT_EQ(guest.cpu().gpr(s1), 0xffffffff89abcdefULL);
    EXPECT_EQ(guest.cpu().gpr(s2), 0x01234567ULL);
    EXPECT_EQ(guest.cpu().gpr(s3), 0xffffffffffffcdefULL);
    EXPECT_EQ(guest.cpu().gpr(s4), 0xcdefULL);
    EXPECT_EQ(guest.cpu().gpr(s5), 0xffffffffffffffcdULL);
    EXPECT_EQ(guest.cpu().gpr(s6), 0xcdULL);
    EXPECT_EQ(guest.cpu().gpr(s7), 0x0123456789abcdefULL);
}

TEST(CheriCpu, BoundsViolationTraps)
{
    Assembler a(kCodeBase);
    deriveDataCap(a, 16);
    a.cld(s0, 1, zero, 8);  // in bounds
    a.cld(s1, 1, zero, 16); // one past the end -> trap
    a.break_();

    GuestFixture guest(a);
    RunResult result = guest.run();
    EXPECT_EQ(result.reason, StopReason::kTrap);
    EXPECT_EQ(result.trap.code, ExcCode::kCp2);
    EXPECT_EQ(result.trap.cap_cause, cap::CapCause::kLengthViolation);
    EXPECT_EQ(result.trap.cap_reg, 1);
    EXPECT_EQ(result.trap.bad_vaddr, kDataBase + 16);
}

TEST(CheriCpu, NegativeOffsetTraps)
{
    Assembler a(kCodeBase);
    deriveDataCap(a, 16);
    a.li(t2, -8);
    a.cld(s0, 1, t2, 0); // below base -> trap
    a.break_();

    GuestFixture guest(a);
    RunResult result = guest.run();
    EXPECT_EQ(result.reason, StopReason::kTrap);
    EXPECT_EQ(result.trap.cap_cause, cap::CapCause::kLengthViolation);
}

TEST(CheriCpu, StorePermissionTraps)
{
    Assembler a(kCodeBase);
    deriveDataCap(a, 0x100);
    // const-qualify: drop the store permission (Section 5.1).
    a.li(t2, static_cast<std::int32_t>(cap::kPermLoad));
    a.candperm(1, 1, t2);
    a.cld(s0, 1, zero, 0); // load still fine
    a.csd(s0, 1, zero, 0); // store traps
    a.break_();

    GuestFixture guest(a);
    RunResult result = guest.run();
    EXPECT_EQ(result.reason, StopReason::kTrap);
    EXPECT_EQ(result.trap.cap_cause,
              cap::CapCause::kPermitStoreViolation);
}

TEST(CheriCpu, UntaggedDereferenceTraps)
{
    Assembler a(kCodeBase);
    deriveDataCap(a, 0x100);
    a.ccleartag(1, 1);
    a.cld(s0, 1, zero, 0);
    a.break_();

    GuestFixture guest(a);
    RunResult result = guest.run();
    EXPECT_EQ(result.reason, StopReason::kTrap);
    EXPECT_EQ(result.trap.cap_cause, cap::CapCause::kTagViolation);
}

TEST(CheriCpu, MonotonicityViolationsTrap)
{
    // Growing length traps.
    Assembler a(kCodeBase);
    deriveDataCap(a, 16);
    a.li(t2, 32);
    a.csetlen(1, 1, t2);
    a.break_();

    GuestFixture guest(a);
    RunResult result = guest.run();
    EXPECT_EQ(result.reason, StopReason::kTrap);
    EXPECT_EQ(result.trap.cap_cause,
              cap::CapCause::kMonotonicityViolation);
}

TEST(CheriCpu, CapabilityStoreLoadRoundTrip)
{
    Assembler a(kCodeBase);
    deriveDataCap(a, 0x100);
    // Derive an inner capability and store it at [c1 + 0x40].
    a.li(t2, 0x20);
    a.cincbase(2, 1, t2);
    a.li(t3, 8);
    a.csetlen(2, 2, t3);
    a.csc(2, 1, zero, 0x40);
    // Load it back into c3 and inspect.
    a.clc(3, 1, zero, 0x40);
    a.cgettag(s0, 3);
    a.cgetbase(s1, 3);
    a.cgetlen(s2, 3);
    a.break_();

    GuestFixture guest(a);
    ASSERT_EQ(guest.run().reason, StopReason::kBreak);
    EXPECT_EQ(guest.cpu().gpr(s0), 1u);
    EXPECT_EQ(guest.cpu().gpr(s1), kDataBase + 0x20);
    EXPECT_EQ(guest.cpu().gpr(s2), 8u);
}

TEST(CheriCpu, DataStoreInvalidatesStoredCapability)
{
    // The unforgeability guarantee end-to-end: overwrite one byte of
    // a stored capability with a data store; the tag must be gone.
    Assembler a(kCodeBase);
    deriveDataCap(a, 0x100);
    a.csc(1, 1, zero, 0x40);
    a.li(t2, 0xff);
    a.csb(t2, 1, zero, 0x44); // data store into the cap's line
    a.clc(3, 1, zero, 0x40);
    a.cgettag(s0, 3);
    a.break_();

    GuestFixture guest(a);
    ASSERT_EQ(guest.run().reason, StopReason::kBreak);
    EXPECT_EQ(guest.cpu().gpr(s0), 0u);
}

TEST(CheriCpu, DereferencingForgedCapabilityTraps)
{
    // Forge attempt: craft capability-looking bytes with data stores,
    // CLC it (tag stays clear), then dereference.
    Assembler a(kCodeBase);
    deriveDataCap(a, 0x100);
    a.li64(t2, kDataBase);
    a.csd(t2, 1, zero, 0x50); // fake "base" field at word 2... any data
    a.clc(3, 1, zero, 0x40);  // loads untagged bits
    a.cld(s0, 3, zero, 0);    // dereference -> tag violation
    a.break_();

    GuestFixture guest(a);
    RunResult result = guest.run();
    EXPECT_EQ(result.reason, StopReason::kTrap);
    EXPECT_EQ(result.trap.cap_cause, cap::CapCause::kTagViolation);
}

TEST(CheriCpu, CapBranchesOnTag)
{
    Assembler a(kCodeBase);
    deriveDataCap(a, 0x100);
    a.li(s0, 0);
    a.li(s1, 0);
    auto not_tagged = a.newLabel();
    auto after1 = a.newLabel();
    a.cbts(1, after1); // c1 tagged -> taken
    a.nop();
    a.b(not_tagged);
    a.nop();
    a.bind(after1);
    a.li(s0, 1);
    a.bind(not_tagged);

    a.ccleartag(2, 1);
    auto after2 = a.newLabel();
    a.cbtu(2, after2); // c2 untagged -> taken
    a.nop();
    a.b(after2);
    a.li(s1, 100); // only on fall-through path's delay slot
    a.bind(after2);
    a.break_();

    GuestFixture guest(a);
    ASSERT_EQ(guest.run().reason, StopReason::kBreak);
    EXPECT_EQ(guest.cpu().gpr(s0), 1u);
    EXPECT_EQ(guest.cpu().gpr(s1), 0u);
}

TEST(CheriCpu, ToPtrFromPtrInterop)
{
    Assembler a(kCodeBase);
    deriveDataCap(a, 0x100);
    a.ctoptr(s0, 1, 0); // pointer relative to almighty c0
    a.cfromptr(3, 0, s0);
    a.cgetbase(s1, 3);
    // NULL round trip.
    a.cfromptr(4, 0, zero);
    a.cgettag(s2, 4);
    a.ccleartag(5, 1);
    a.ctoptr(s3, 5, 0); // untagged -> 0
    a.break_();

    GuestFixture guest(a);
    ASSERT_EQ(guest.run().reason, StopReason::kBreak);
    EXPECT_EQ(guest.cpu().gpr(s0), kDataBase);
    EXPECT_EQ(guest.cpu().gpr(s1), kDataBase);
    EXPECT_EQ(guest.cpu().gpr(s2), 0u);
    EXPECT_EQ(guest.cpu().gpr(s3), 0u);
}

TEST(CheriCpu, CapLlScRoundTrip)
{
    Assembler a(kCodeBase);
    deriveDataCap(a, 0x100);
    a.li(t2, 41);
    a.csd(t2, 1, zero, 0);
    a.li(t3, 0);
    a.clld(s0, 1, t3);
    a.daddiu(s0, s0, 1);
    a.cscd(s0, 1, t3);
    a.cld(s1, 1, zero, 0);
    a.break_();

    GuestFixture guest(a);
    ASSERT_EQ(guest.run().reason, StopReason::kBreak);
    EXPECT_EQ(guest.cpu().gpr(s0), 1u); // store-conditional success
    EXPECT_EQ(guest.cpu().gpr(s1), 42u);
}

/**
 * A CSC breaks an LL reservation anywhere in the line it writes, as any
 * store to the reserved address does; a CSC to another line leaves it
 * standing. Checked at every host tier, free running and under the
 * lockstep oracle, whose reference CPU must agree.
 */
TEST(CheriCpu, CapStoreBreaksLinkedReservation)
{
    Assembler a(kCodeBase);
    a.li(t2, static_cast<std::int32_t>(kDataBase));
    a.li(t3, static_cast<std::int32_t>(kDataBase + 8));
    a.clld(v1, 0, t3);
    a.csc(0, 0, t2, 0); // the reserved line
    a.cscd(t1, 0, t3);  // fails: t1 = 0
    a.clld(v1, 0, t3);
    a.csc(0, 0, t2, 32); // the next line
    a.cscd(s1, 0, t3);   // succeeds: s1 = 1
    a.break_();
    std::vector<std::uint32_t> text = a.finish();

    for (HostTier tier : {HostTier::kReference, HostTier::kFast,
                          HostTier::kSuperblock}) {
        for (bool oracle : {false, true}) {
            SCOPED_TRACE(std::string(hostTierName(tier)) +
                         (oracle ? " under the oracle" : ""));
            MachineConfig config;
            config.accel.tier = tier;
            Machine machine(config);
            machine.mapRange(kDataBase, 64 * 1024);
            machine.loadProgram(kCodeBase, text);
            machine.reset(kCodeBase);
            if (oracle) {
                check::Lockstep lockstep(machine);
                check::LockstepResult result = lockstep.run();
                EXPECT_FALSE(result.diverged) << result.divergence;
                EXPECT_TRUE(result.hit_break);
            } else {
                EXPECT_EQ(machine.cpu().run(1000).reason,
                          StopReason::kBreak);
            }
            EXPECT_EQ(machine.cpu().gpr(t1), 0u);
            EXPECT_EQ(machine.cpu().gpr(s1), 1u);
        }
    }
}

TEST(CheriCpu, CJalrSwitchesPccAfterDelaySlot)
{
    // Call through a restricted code capability and return.
    Assembler a(kCodeBase);
    auto func = a.newLabel();
    auto end = a.newLabel();

    // c2 = code capability over the whole code segment.
    a.li(t0, static_cast<std::int32_t>(kCodeBase));
    a.cincbase(2, 0, t0);
    a.li(t1, 0x1000);
    a.csetlen(2, 2, t1);
    a.li(t2, static_cast<std::int32_t>(
                 cap::kPermExecute | cap::kPermLoad));
    a.candperm(2, 2, t2);

    // Call with a register offset: func sits at word 13 of the
    // program (verified against the assembler below).
    a.li(t3, 13 * 4);
    a.cjalr(4, 2, t3); // word 7
    a.nop();           // word 8: delay slot
    // Return lands here (cjalr's pc + 8).
    a.li(s1, 7); // word 9
    a.b(end);    // word 10
    a.nop();     // word 11
    a.nop();     // word 12
    ASSERT_EQ(a.here(), kCodeBase + 13 * 4);
    a.bind(func); // word 13
    a.li(s0, 5);
    a.cjr(4, ra); // return: PC = c4.base + ra
    a.nop();
    a.bind(end);
    a.break_();

    GuestFixture guest(a);
    RunResult result = guest.run();
    ASSERT_EQ(result.reason, StopReason::kBreak)
        << result.trap.toString();
    EXPECT_EQ(guest.cpu().gpr(s0), 5u); // function body ran
    EXPECT_EQ(guest.cpu().gpr(s1), 7u); // returned correctly
    // After returning via CJR on the saved PCC, the live PCC is the
    // caller's capability (almighty in this test).
}

TEST(CheriCpu, ExecutePermissionEnforcedOnFetch)
{
    // Jump through a capability lacking execute permission: CJR traps
    // immediately.
    Assembler a(kCodeBase);
    a.li(t0, static_cast<std::int32_t>(kCodeBase));
    a.cincbase(2, 0, t0);
    a.li(t2, static_cast<std::int32_t>(cap::kPermLoad));
    a.candperm(2, 2, t2);
    a.cjr(2, zero);
    a.nop();
    a.break_();

    GuestFixture guest(a);
    RunResult result = guest.run();
    EXPECT_EQ(result.reason, StopReason::kTrap);
    EXPECT_EQ(result.trap.cap_cause,
              cap::CapCause::kPermitExecuteViolation);
}

TEST(CheriCpu, PccBoundsConfineFetch)
{
    // Restrict PCC to the first 5 instructions; running off the end
    // traps with a length violation against PCC.
    Assembler a(kCodeBase);
    a.li(t0, static_cast<std::int32_t>(kCodeBase));
    a.cincbase(2, 0, t0);
    a.li(t1, 5 * 4);
    a.csetlen(2, 2, t1);
    a.cjr(2, zero); // jump to the start of the window (word 4... )
    a.nop();
    // Words 0..4 re-execute; at word 5 the fetch exceeds PCC.

    GuestFixture guest(a);
    RunResult result = guest.run(100);
    EXPECT_EQ(result.reason, StopReason::kTrap);
    EXPECT_EQ(result.trap.code, ExcCode::kCp2);
    EXPECT_EQ(result.trap.cap_reg, kCapRegPcc);
    EXPECT_EQ(result.trap.cap_cause, cap::CapCause::kLengthViolation);
}

TEST(CheriCpu, Cp2DisabledTraps)
{
    // With CP2 off every CHERI opcode traps as coprocessor-unusable,
    // the capability loads and stores included, and those count no
    // inst.capmem. Each op heads a loop that addresses the data page
    // through c0, and traps both cold (CP2 off from the start) and
    // warm (CP2 switched off once the loop ran, which at the
    // superblock tier is inside a chained superblock).
    using Emit = void (*)(Assembler &);
    const std::pair<const char *, Emit> ops[] = {
        {"cgetbase", [](Assembler &a) { a.cgetbase(t0, 0); }},
        {"clc", [](Assembler &a) { a.clc(1, 0, t3, 0); }},
        {"csc", [](Assembler &a) { a.csc(0, 0, t3, 0); }},
        {"clw", [](Assembler &a) { a.clw(v0, 0, t3, 0); }},
        {"csd", [](Assembler &a) { a.csd(v0, 0, t3, 0); }},
        {"clld", [](Assembler &a) { a.clld(v0, 0, t3); }},
        {"cscd", [](Assembler &a) { a.cscd(v0, 0, t3); }},
    };
    for (HostTier tier : {HostTier::kReference, HostTier::kFast,
                          HostTier::kSuperblock}) {
        for (const auto &[name, emit] : ops) {
            for (bool warm : {false, true}) {
                SCOPED_TRACE(std::string(name) + " at " +
                             hostTierName(tier) +
                             (warm ? ", warm" : ", cold"));
                Assembler a(kCodeBase);
                a.li(t3, static_cast<std::int32_t>(kDataBase));
                Assembler::Label loop = a.newLabel();
                a.bind(loop);
                emit(a);
                a.daddiu(s0, s0, 1);
                a.b(loop);
                a.nop();

                MachineConfig config;
                config.accel.tier = tier;
                Machine machine(config);
                machine.mapRange(kDataBase, 64 * 1024);
                machine.loadProgram(kCodeBase, a.finish());
                machine.reset(kCodeBase);
                Cpu &cpu = machine.cpu();
                if (warm) {
                    ASSERT_EQ(cpu.run(64).reason, StopReason::kInstLimit);
                }
                std::uint64_t capmem = cpu.stats().get("inst.capmem");
                std::uint64_t entered = cpu.superblockStats().entered;

                cpu.setCp2Enabled(false);
                RunResult result = cpu.run(100);
                EXPECT_EQ(result.reason, StopReason::kTrap);
                EXPECT_EQ(result.trap.code, ExcCode::kCoprocessorUnusable);
                EXPECT_EQ(cpu.stats().get("inst.capmem"), capmem);
                if (warm && tier == HostTier::kSuperblock) {
                    EXPECT_GT(cpu.superblockStats().entered, entered);
                }
            }
        }
    }
}

TEST(CheriCpu, UnalignedCapabilityAccessTraps)
{
    Assembler a(kCodeBase);
    deriveDataCap(a, 0x100);
    a.li(t2, 8);
    a.cincbase(2, 1, t2); // base now 8 mod 32
    a.clc(3, 2, zero, 0);
    a.break_();

    GuestFixture guest(a);
    RunResult result = guest.run();
    EXPECT_EQ(result.reason, StopReason::kTrap);
    EXPECT_EQ(result.trap.cap_cause,
              cap::CapCause::kAlignmentViolation);
}

TEST(CheriCpu, SealedCapabilityRoundTripsThroughMemory)
{
    // Seal bits live in the 256-bit image, so CSC/CLC preserve them:
    // a sealed capability fished out of memory is still sealed with
    // the same otype and still not dereferenceable.
    Assembler a(kCodeBase);
    deriveDataCap(a, 0x100);
    // Sealing authority c2 with otype 5.
    a.li(t2, 5);
    a.cincbase(2, 0, t2);
    a.li(t3, 1);
    a.csetlen(2, 2, t3);
    a.li(t4, static_cast<std::int32_t>(cap::kPermSeal));
    a.candperm(2, 2, t4);
    // Seal c1 into c3, store, reload into c4, inspect.
    a.cseal(3, 1, 2);
    a.csc(3, 1, zero, 0x40);
    a.clc(4, 1, zero, 0x40);
    a.cgettag(s0, 4);
    a.cgettype(s1, 4);
    a.cunseal(5, 4, 2); // unseal the reloaded copy
    a.cld(s2, 5, zero, 0);
    a.cld(s3, 4, zero, 0); // sealed reloaded copy: trap
    a.break_();

    GuestFixture guest(a);
    RunResult result = guest.run();
    EXPECT_EQ(result.reason, StopReason::kTrap);
    EXPECT_EQ(result.trap.cap_cause, cap::CapCause::kSealViolation);
    EXPECT_EQ(guest.cpu().gpr(s0), 1u);
    EXPECT_EQ(guest.cpu().gpr(s1), 5u);
}

TEST(CheriCpu, TraceHookSeesEveryInstruction)
{
    Assembler a(kCodeBase);
    a.li(t0, 3);
    auto loop = a.newLabel();
    a.bind(loop);
    a.daddiu(t0, t0, -1);
    a.bne(t0, zero, loop);
    a.nop();
    a.break_();

    GuestFixture guest(a);
    std::vector<std::uint64_t> pcs;
    guest.cpu().setTraceHook(
        [&](std::uint64_t pc, const isa::Instruction &) {
            pcs.push_back(pc);
        });
    RunResult result = guest.run();
    EXPECT_EQ(result.reason, StopReason::kBreak);
    EXPECT_EQ(pcs.size(), result.instructions);
    EXPECT_EQ(pcs.front(), kCodeBase);
}

TEST(CheriCpu, TlbCapStoreBitGatesCsc)
{
    Assembler a(kCodeBase);
    deriveDataCap(a, 0x100);
    a.csc(1, 1, zero, 0);
    a.break_();

    GuestFixture guest(a);
    // Clear the cap_store PTE bit on the data page.
    tlb::PteFlags flags;
    flags.cap_store = false;
    guest.machine.pageTable().protect(kDataBase / tlb::kPageBytes,
                                      flags);
    guest.machine.tlb().flush();

    RunResult result = guest.run();
    EXPECT_EQ(result.reason, StopReason::kTrap);
    EXPECT_EQ(result.trap.cap_cause, cap::CapCause::kTlbNoStoreCap);
}

TEST(CheriCpu, TlbCapLoadBitGatesClc)
{
    Assembler a(kCodeBase);
    deriveDataCap(a, 0x100);
    a.clc(2, 1, zero, 0);
    a.break_();

    GuestFixture guest(a);
    tlb::PteFlags flags;
    flags.cap_load = false;
    guest.machine.pageTable().protect(kDataBase / tlb::kPageBytes,
                                      flags);
    guest.machine.tlb().flush();

    RunResult result = guest.run();
    EXPECT_EQ(result.reason, StopReason::kTrap);
    EXPECT_EQ(result.trap.cap_cause, cap::CapCause::kTlbNoLoadCap);
}

} // namespace
} // namespace cheri::core
