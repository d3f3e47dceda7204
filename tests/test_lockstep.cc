/**
 * @file
 * Self-tests of the differential co-simulation oracle (the optimized
 * Cpu in lockstep against the optimization-free RefCpu, every
 * architectural state element diffed at every retire): traps must
 * match, a deliberately injected tag-clear fault in the cache
 * hierarchy must be detected and shrink to a minimal reproducer, and
 * the final sweep's zero-page skip must still catch a byte or tag
 * flipped behind its back on any page. The guest Olden kernels under
 * the oracle at every host tier live in test_host_tier.
 */

#include <cstdio>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "check/fuzz.h"
#include "check/lockstep.h"
#include "isa/assembler.h"
#include "isa/text_assembler.h"

namespace
{

using namespace cheri;

TEST(LockstepOracle, TrapsMatchOnFaultingProgram)
{
    // A program that runs a few instructions and then takes a
    // capability length fault: both machines must raise the identical
    // trap (code, CapCause, register, EPC) with no divergence.
    isa::Assembler a(0x10000);
    a.li64(isa::reg::t0, 0x100000);
    a.cincbase(1, 0, isa::reg::t0);
    a.li(isa::reg::t1, 64);
    a.csetlen(1, 1, isa::reg::t1);
    a.li(isa::reg::t2, 64); // one past the end
    a.cld(isa::reg::t3, 1, isa::reg::t2, 0);
    a.break_();

    core::Machine machine;
    machine.mapRange(0x100000, 0x1000);
    machine.loadProgram(0x10000, a.finish());
    machine.reset(0x10000);

    check::Lockstep lockstep(machine);
    check::LockstepResult result = lockstep.run();
    EXPECT_FALSE(result.diverged) << result.divergence;
    EXPECT_TRUE(result.trapped);
    EXPECT_EQ(result.trap.cap_cause, cap::CapCause::kLengthViolation);
    EXPECT_EQ(result.trap.cap_reg, 1);
}

TEST(LockstepOracle, InjectedTagClearFaultIsCaught)
{
    // Self-test: arm the hierarchy fault that skips the tag clear on
    // data stores. The oracle must diverge on a fuzz program that
    // stores over a tagged line, and the divergence must survive
    // shrinking down to a small reproducer. The seed is any one whose
    // generated program stores over a tagged line; re-pin it if the
    // generator's op mix changes.
    const std::uint64_t seed = 2;
    check::FuzzRunConfig faulty;
    faulty.suppress_tag_clear = true;
    check::FuzzSpec spec = check::generateSpec(seed);
    check::FuzzRunResult result =
        check::runFuzzWords(check::assembleFuzzProgram(spec), faulty);
    ASSERT_TRUE(result.diverged);
    EXPECT_NE(result.divergence.find("tag="), std::string::npos)
        << result.divergence;

    std::vector<check::FuzzOp> shrunk = check::shrinkOps(spec, faulty);
    ASSERT_FALSE(shrunk.empty());
    EXPECT_LT(shrunk.size(), spec.ops.size());

    check::FuzzSpec small = spec;
    small.ops = shrunk;
    std::vector<std::uint32_t> words =
        check::assembleFuzzProgram(small);
    check::FuzzRunResult small_result =
        check::runFuzzWords(words, faulty);
    EXPECT_TRUE(small_result.diverged);

    // The dumped reproducer round-trips through the text assembler.
    std::string repro =
        check::dumpReproducer(words, seed, small_result.divergence);
    isa::AsmResult assembled =
        isa::assembleText(repro, check::kFuzzCodeBase);
    ASSERT_TRUE(assembled.ok());
    EXPECT_EQ(assembled.words, words);
}

TEST(LockstepOracle, CleanWithoutInjection)
{
    // The same seed runs divergence-free when no fault is armed.
    check::FuzzSpec spec = check::generateSpec(2);
    check::FuzzRunResult result =
        check::runFuzzWords(check::assembleFuzzProgram(spec));
    EXPECT_FALSE(result.diverged) << result.divergence;
}

// --- the final sweep's zero-page skip rule ---------------------------

constexpr std::uint64_t kCodeBase = 0x10000;
constexpr std::uint64_t kDataBase = 0x100000;

/** Physical address behind a mapped virtual address. */
std::uint64_t
physOf(core::Machine &machine, std::uint64_t vaddr)
{
    return machine.pageTable().lookup(vaddr / tlb::kPageBytes)->pfn *
               tlb::kPageBytes +
           vaddr % tlb::kPageBytes;
}

/** Load a program that stores one dword to the data page, then BREAK. */
void
loadStoreProgram(core::Machine &machine)
{
    isa::Assembler a(kCodeBase);
    a.li64(isa::reg::t0, kDataBase);
    a.li(isa::reg::t1, 0x1234);
    a.sd(isa::reg::t1, isa::reg::t0, 8);
    a.break_();
    machine.mapRange(kDataBase, tlb::kPageBytes);
    machine.loadProgram(kCodeBase, a.finish());
    machine.reset(kCodeBase);
}

/** "memory line 0x..." as the sweep names the line holding paddr. */
std::string
lineName(std::uint64_t paddr)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "memory line 0x%llx:",
                  static_cast<unsigned long long>(
                      paddr & ~(mem::kLineBytes - 1)));
    return buf;
}

/**
 * After a clean run, corrupt the fast machine's memory behind the
 * oracle's back: whether or not the page was still the shared zero
 * page when the Lockstep was built, the final sweep must catch it.
 */
class SweepSkipRule
    : public ::testing::TestWithParam<std::tuple<bool, bool>>
{
};

TEST_P(SweepSkipRule, FlipAfterCleanRunIsNamed)
{
    const auto [flip_tag, on_zero_page] = GetParam();
    core::MachineConfig config;
    config.dram_bytes = 2 * 1024 * 1024;
    core::Machine machine(config);
    loadStoreProgram(machine);

    // Frames come from the bottom of DRAM, so 1 MB up is untouched.
    std::uint64_t paddr = on_zero_page
                              ? 1024 * 1024 + 3 * mem::kLineBytes + 5
                              : physOf(machine, kCodeBase + 4);
    ASSERT_EQ(machine.cowStore().isZeroPage(paddr / mem::kCowPageBytes),
              on_zero_page);

    check::Lockstep lockstep(machine);
    check::LockstepResult run = lockstep.runFor(1000);
    ASSERT_FALSE(run.diverged) << run.divergence;
    ASSERT_TRUE(run.hit_break);
    std::string detail;
    ASSERT_TRUE(lockstep.finalStateMatches(detail)) << detail;

    mem::CowStore &store = machine.cowStore();
    if (flip_tag)
        store.setTag(paddr, !store.tag(paddr));
    else
        store.writeByte(paddr, store.readByte(paddr) ^ 0x10);
    EXPECT_FALSE(lockstep.finalStateMatches(detail));
    EXPECT_NE(detail.find(lineName(paddr)), std::string::npos) << detail;
}

INSTANTIATE_TEST_SUITE_P(
    FlipKinds, SweepSkipRule,
    ::testing::Combine(::testing::Bool(), ::testing::Bool()),
    [](const auto &info) {
        return std::string(std::get<0>(info.param) ? "tag" : "byte") +
               (std::get<1>(info.param) ? "_on_zero_page"
                                        : "_on_loaded_page");
    });

TEST(LockstepSweep, TrailingPartialPageSetsUpAndSweepsClean)
{
    // 256 whole COW pages plus a 5-line partial page at the top.
    core::MachineConfig config;
    config.dram_bytes = 1024 * 1024 + 5 * mem::kLineBytes;
    core::Machine machine(config);
    std::uint64_t last_line = config.dram_bytes - mem::kLineBytes;
    machine.cowStore().writeByte(last_line + 3, 0x77);
    machine.cowStore().setTag(last_line, true);
    loadStoreProgram(machine);

    check::Lockstep lockstep(machine);
    check::LockstepResult run = lockstep.run();
    EXPECT_FALSE(run.diverged) << run.divergence;
    EXPECT_TRUE(run.hit_break);

    machine.cowStore().setTag(last_line, false);
    std::string detail;
    EXPECT_FALSE(lockstep.finalStateMatches(detail));
    EXPECT_NE(detail.find(lineName(last_line)), std::string::npos)
        << detail;
}

TEST(RefMemory, LineAccessesPanicOutOfRange)
{
    check::RefMemory memory(mem::kCowPageBytes + 2 * mem::kLineBytes);
    const std::uint64_t end = memory.size();
    EXPECT_DEATH(memory.readCapLine(end), "out of range");
    EXPECT_DEATH(memory.lineTag(end + mem::kCowPageBytes),
                 "out of range");

    // In range but never written: absent, and read as zero.
    EXPECT_FALSE(memory.pageAllocated(1));
    mem::TaggedLine line = memory.readCapLine(end - mem::kLineBytes);
    EXPECT_EQ(line.data, mem::Line{});
    EXPECT_FALSE(line.tag);
    memory.write(end - 8, 8, 0x0102030405060708ULL);
    EXPECT_TRUE(memory.pageAllocated(1));
    EXPECT_EQ(memory.read(end - 8, 8), 0x0102030405060708ULL);
}

} // namespace
