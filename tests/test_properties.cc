/**
 * @file
 * Property-based tests of the DESIGN.md invariants, using randomized
 * sequences and parameterized sweeps (TEST_P):
 *
 *  1. monotonicity — no capability-op sequence grows rights;
 *  2. unforgeability — data stores always clear tags, through every
 *     cache geometry;
 *  3. guarded dereference — checkDataAccess agrees with interval
 *     arithmetic;
 *  5. tag coherence — cache hierarchy vs flat reference model;
 *  6. atomicity — capability load/store moves all fields together.
 */

#include <gtest/gtest.h>

#include <map>

#include "cache/hierarchy.h"
#include "cap/cap128.h"
#include "cap/cap_ops.h"
#include "check/ref_cpu.h"
#include "core/machine.h"
#include "isa/assembler.h"
#include "isa/decoder.h"
#include "os/cap_allocator.h"
#include "support/rng.h"

namespace cheri
{
namespace
{

using cap::CapCause;
using cap::Capability;

/** True when b's authority is a subset of a's. */
bool
subsumes(const Capability &a, const Capability &b)
{
    if (!b.tag())
        return true; // untagged has no authority
    if (!a.tag())
        return false;
    return b.base() >= a.base() && b.top() <= a.top() &&
           (b.perms() & ~a.perms()) == 0;
}

/** Apply a random monotonic capability op. */
Capability
randomOp(support::Xoshiro256 &rng, const Capability &cap)
{
    cap::CapOpResult result;
    switch (rng.nextBelow(4)) {
      case 0:
        result = cap::incBase(cap, rng.nextBelow(1 << 16));
        break;
      case 1:
        result = cap::setLen(cap, rng.nextBelow(1 << 16));
        break;
      case 2:
        result = cap::andPerm(cap,
                              static_cast<std::uint32_t>(rng.next()));
        break;
      default: {
        Capability cleared = cap;
        cleared.clearTag();
        return cleared;
      }
    }
    // Faults leave the register unchanged in our executor model.
    return result.ok() ? result.value : cap;
}

/** Invariant 1: monotonicity over random op chains. */
class MonotonicitySweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(MonotonicitySweep, RightsNeverGrow)
{
    support::Xoshiro256 rng(GetParam());
    Capability root = Capability::make(
        rng.nextBelow(1 << 20), rng.nextBelow(1 << 20),
        static_cast<std::uint32_t>(rng.next()) & cap::kPermMask);

    Capability current = root;
    for (int step = 0; step < 200; ++step) {
        Capability next = randomOp(rng, current);
        ASSERT_TRUE(subsumes(current, next))
            << "step " << step << ": " << current.toString() << " -> "
            << next.toString();
        ASSERT_TRUE(subsumes(root, next));
        current = next;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MonotonicitySweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34,
                                           55, 89));

/** Invariant 3: guarded dereference vs interval arithmetic. */
class DereferenceSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(DereferenceSweep, CheckAgreesWithIntervals)
{
    support::Xoshiro256 rng(GetParam());
    for (int i = 0; i < 2000; ++i) {
        std::uint64_t base = rng.nextBelow(1 << 20);
        std::uint64_t length = rng.nextBelow(1 << 12);
        Capability cap = Capability::make(base, length, cap::kPermLoad);
        std::uint64_t offset = rng.nextBelow(1 << 13);
        std::uint64_t size = 1ULL << rng.nextBelow(4);

        CapCause cause =
            cap::checkDataAccess(cap, offset, size, cap::kPermLoad);
        bool fits = offset + size <= length;
        EXPECT_EQ(cause == CapCause::kNone, fits)
            << cap.toString() << " offset " << offset << " size "
            << size;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DereferenceSweep,
                         ::testing::Values(7, 11, 13));

/** Invariants 2+5: tag semantics and coherence across geometries. */
struct GeometryParam
{
    std::uint64_t l1_bytes;
    unsigned l1_ways;
    std::uint64_t l2_bytes;
    unsigned l2_ways;
};

class TagCoherenceSweep
    : public ::testing::TestWithParam<GeometryParam>
{
};

TEST_P(TagCoherenceSweep, HierarchyMatchesFlatReference)
{
    GeometryParam geometry = GetParam();
    mem::CowStore store(1 << 20);
    mem::TagManager manager(store);
    cache::HierarchyConfig config;
    config.l1d = {"l1d", geometry.l1_bytes, geometry.l1_ways, 1};
    config.l2 = {"l2", geometry.l2_bytes, geometry.l2_ways, 4};
    cache::CacheHierarchy hierarchy(manager, config);

    struct RefLine
    {
        std::array<std::uint8_t, 32> data{};
        bool tag = false;
    };
    std::map<std::uint64_t, RefLine> reference;
    support::Xoshiro256 rng(geometry.l1_bytes + geometry.l2_ways);
    std::uint64_t cycles = 0;

    for (int i = 0; i < 30000; ++i) {
        std::uint64_t line_addr = rng.nextBelow(512) * 32;
        RefLine &ref = reference[line_addr];
        switch (rng.nextBelow(4)) {
          case 0: { // data store: must clear the tag
            unsigned offset = static_cast<unsigned>(rng.nextBelow(32));
            std::uint8_t value = static_cast<std::uint8_t>(rng.next());
            hierarchy.write(line_addr + offset, 1, value, cycles);
            ref.data[offset] = value;
            ref.tag = false;
            break;
          }
          case 1: { // capability store: sets tag and full line
            mem::TaggedLine line;
            line.tag = rng.nextBool();
            for (auto &byte : line.data)
                byte = static_cast<std::uint8_t>(rng.next());
            hierarchy.writeCapLine(line_addr, line, cycles);
            ref.data = line.data;
            ref.tag = line.tag;
            break;
          }
          case 2: { // capability load: full 257-bit view
            mem::TaggedLine line =
                hierarchy.readCapLine(line_addr, cycles);
            ASSERT_EQ(line.tag, ref.tag) << "line " << line_addr;
            ASSERT_EQ(line.data, ref.data);
            break;
          }
          default: { // data load
            unsigned offset = static_cast<unsigned>(rng.nextBelow(32));
            ASSERT_EQ(hierarchy.read(line_addr + offset, 1, cycles),
                      ref.data[offset]);
            break;
          }
        }
    }

    // Invariant: after write-back, DRAM and the tag table agree with
    // the reference exactly.
    hierarchy.flushAll();
    for (const auto &[addr, ref] : reference) {
        mem::TaggedLine line = store.readLine(addr);
        EXPECT_EQ(line.tag, ref.tag);
        EXPECT_EQ(line.data, ref.data);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TagCoherenceSweep,
    ::testing::Values(GeometryParam{256, 1, 1024, 2},
                      GeometryParam{512, 2, 2048, 4},
                      GeometryParam{1024, 4, 4096, 4},
                      GeometryParam{4096, 4, 16384, 8}));

/** Invariant 6: capability fields move atomically through memory. */
TEST(Atomicity, CapabilityRoundTripsAllFieldsTogether)
{
    support::Xoshiro256 rng(42);
    mem::CowStore store(1 << 16);
    mem::TagManager manager(store);
    cache::CacheHierarchy hierarchy(manager);
    std::uint64_t cycles = 0;

    for (int i = 0; i < 1000; ++i) {
        Capability original = Capability::make(
            rng.next(), rng.next(),
            static_cast<std::uint32_t>(rng.next()) & cap::kPermMask);
        std::uint64_t addr = rng.nextBelow(1 << 11) * 32;
        hierarchy.writeCapLine(
            addr, mem::TaggedLine{original.raw(), original.tag()},
            cycles);
        mem::TaggedLine line = hierarchy.readCapLine(addr, cycles);
        Capability loaded = Capability::fromRaw(line.data, line.tag);
        EXPECT_EQ(loaded, original);
    }
}

/**
 * End-to-end unforgeability: random guest programs that mix data
 * stores and capability stores over a small arena; at the end, every
 * tagged line must trace back to a CSC, never to data stores.
 */
class GuestTagFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(GuestTagFuzz, DataStoresNeverCreateTags)
{
    using namespace isa::reg;
    support::Xoshiro256 rng(GetParam());

    isa::Assembler a(0x10000);
    // c1 = [0x20000, +0x400)
    a.li(t0, 0x20000);
    a.cincbase(1, 0, t0);
    a.li(t1, 0x400);
    a.csetlen(1, 1, t1);

    // Reference tag state for the 32 lines of the arena.
    bool expected_tags[32] = {};
    for (int op = 0; op < 120; ++op) {
        unsigned line = static_cast<unsigned>(rng.nextBelow(32));
        if (rng.nextBool(0.4)) {
            // CSC of a valid capability.
            a.csc(1, 1, zero, static_cast<std::int32_t>(line * 32));
            expected_tags[line] = true;
        } else {
            // Data store somewhere in the line.
            unsigned offset = static_cast<unsigned>(
                rng.nextBelow(4) * 8);
            a.csd(t0, 1, zero,
                  static_cast<std::int32_t>(line * 32 + offset));
            expected_tags[line] = false;
        }
    }
    a.break_();

    core::Machine machine;
    machine.mapRange(0x20000, 0x1000);
    machine.loadProgram(0x10000, a.finish());
    machine.reset(0x10000);
    core::RunResult result = machine.cpu().run(10000);
    ASSERT_EQ(result.reason, core::StopReason::kBreak)
        << result.trap.toString();

    for (unsigned line = 0; line < 32; ++line) {
        Capability loaded;
        ASSERT_TRUE(machine.cpu().debugReadCap(0x20000 + line * 32,
                                               loaded));
        EXPECT_EQ(loaded.tag(), expected_tags[line]) << "line " << line;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GuestTagFuzz,
                         ::testing::Values(101, 202, 303, 404, 505));

/**
 * Executor totality fuzz: programs of random instruction words run on
 * the machine without host-level failure — every word either executes
 * or raises an architectural exception. (Memory-operand registers are
 * seeded to point at mapped memory so some accesses succeed too.)
 */
class GuestInstructionFuzz
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(GuestInstructionFuzz, RandomWordsNeverPanic)
{
    support::Xoshiro256 rng(GetParam());
    core::Machine machine;
    machine.mapRange(0x20000, 0x10000);

    isa::Assembler a(0x10000);
    for (int i = 0; i < 200; ++i)
        a.emit(static_cast<std::uint32_t>(rng.next()));
    machine.loadProgram(0x10000, a.finish());
    machine.reset(0x10000);
    for (unsigned r = 8; r < 16; ++r)
        machine.cpu().setGpr(r, 0x20000 + rng.nextBelow(0x8000) * 8);

    // Run a bounded number of instructions; any stop reason is fine,
    // the property is simply "no panic, no crash".
    core::RunResult result = machine.cpu().run(5000);
    (void)result;
    SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, GuestInstructionFuzz,
                         ::testing::Values(1001, 2002, 3003, 4004,
                                           5005, 6006, 7007, 8008));

/** Decoder fuzz: no word may panic the decoder or disassembler. */
TEST(DecoderFuzz, TotalOverRandomWords)
{
    support::Xoshiro256 rng(77);
    for (int i = 0; i < 100000; ++i) {
        isa::Instruction inst =
            isa::decode(static_cast<std::uint32_t>(rng.next()));
        // Decoded register fields stay in range by construction.
        EXPECT_LT(inst.rs, 32);
        EXPECT_LT(inst.rt, 32);
        EXPECT_LT(inst.rd, 32);
        EXPECT_LT(inst.cd, 32);
        EXPECT_LT(inst.cb, 32);
        EXPECT_LT(inst.ct, 32);
    }
}

/**
 * Allocator fuzz: random allocate/free sequences keep the
 * CapAllocator's invariants — live blocks never overlap, never
 * escape the heap capability, and byte accounting balances.
 */
class AllocatorFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(AllocatorFuzz, InvariantsHoldUnderRandomTraffic)
{
    support::Xoshiro256 rng(GetParam());
    Capability heap = Capability::make(0x40000, 64 * 1024,
                                       cap::kPermAll);
    os::CapAllocator allocator(heap);

    std::vector<Capability> live;
    std::uint64_t live_bytes = 0;
    for (int step = 0; step < 2000; ++step) {
        if (live.empty() || rng.nextBool(0.6)) {
            std::uint64_t size = 1 + rng.nextBelow(512);
            auto block = allocator.allocate(size);
            if (!block)
                continue; // heap momentarily full: acceptable
            ASSERT_TRUE(block->tag());
            ASSERT_EQ(block->length(), size);
            ASSERT_GE(block->base(), heap.base());
            ASSERT_LE(block->top(), heap.top());
            // No overlap with any live block.
            for (const Capability &other : live) {
                ASSERT_TRUE(block->top() <= other.base() ||
                            other.top() <= block->base())
                    << block->toString() << " vs "
                    << other.toString();
            }
            live_bytes += (size + 31) / 32 * 32;
            live.push_back(*block);
        } else {
            std::size_t index = rng.nextBelow(live.size());
            std::uint64_t size = live[index].length();
            allocator.free(live[index]);
            live_bytes -= (size + 31) / 32 * 32;
            live.erase(live.begin() +
                       static_cast<std::ptrdiff_t>(index));
        }
        ASSERT_EQ(allocator.bytesInUse(), live_bytes);
    }

    // Draining everything must make the whole heap available again.
    for (const Capability &block : live)
        allocator.free(block);
    EXPECT_EQ(allocator.bytesInUse(), 0u);
    EXPECT_TRUE(allocator.allocate(64 * 1024).has_value());
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorFuzz,
                         ::testing::Values(11, 22, 33, 44));

/**
 * Harness for driving the co-simulation reference interpreter
 * (check/ref_cpu.h) directly: flat tagged memory, identity-mapped
 * pages, a program loaded at 0x10000.
 */
struct RefHarness
{
    check::RefMemory memory{1 << 20};
    tlb::PageTable table;
    check::RefCpu cpu{memory, table};

    explicit RefHarness(const std::vector<std::uint32_t> &words)
    {
        for (std::uint64_t vpn = 0;
             vpn < memory.size() / tlb::kPageBytes; ++vpn)
            table.map(vpn, vpn);
        std::vector<std::uint8_t> bytes;
        bytes.reserve(words.size() * 4);
        for (std::uint32_t word : words) {
            for (unsigned i = 0; i < 4; ++i)
                bytes.push_back(
                    static_cast<std::uint8_t>(word >> (8 * i)));
        }
        memory.writeBlock(0x10000, bytes.data(), bytes.size());
        cpu.setPc(0x10000);
    }

    /** Step to BREAK/trap; fails the test on a trap or a timeout. */
    void runToBreak(std::uint64_t max_steps = 100000)
    {
        for (std::uint64_t i = 0; i < max_steps; ++i) {
            check::RefStep step = cpu.step();
            if (step.hit_break)
                return;
            ASSERT_FALSE(step.trapped) << step.trap.toString();
        }
        FAIL() << "reference CPU did not reach BREAK";
    }
};

/**
 * Invariant 1, end to end through the reference interpreter: a guest
 * program deriving a chain c1 = op(c0), c2 = op(c1), ... with random
 * valid CIncBase/CSetLen/CAndPerm parameters leaves every register
 * subsumed by its predecessor — executed derivation never widens
 * bounds or permissions.
 */
class RefMonotonicitySweep
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RefMonotonicitySweep, ExecutedDerivesNeverWiden)
{
    using namespace isa::reg;
    support::Xoshiro256 rng(GetParam());
    constexpr unsigned kChain = 20;

    isa::Assembler a(0x10000);
    // Host mirror of the current capability's length so every emitted
    // op is valid (faults would end the chain early).
    std::uint64_t cur_len = Capability::almighty().length();
    for (unsigned k = 0; k < kChain; ++k) {
        switch (rng.nextBelow(3)) {
          case 0: { // shrink from below
            std::uint64_t delta = rng.nextBelow(cur_len / 2 + 1);
            a.li64(t0, delta);
            a.cincbase(k + 1, k, t0);
            cur_len -= delta;
            break;
          }
          case 1: { // shrink from above (cur_len + 1 may wrap to 0
                    // when the chain still has almighty length)
            std::uint64_t len = cur_len == ~0ULL
                                    ? rng.next()
                                    : rng.nextBelow(cur_len + 1);
            a.li64(t0, len);
            a.csetlen(k + 1, k, t0);
            cur_len = len;
            break;
          }
          default: // drop permissions
            a.li64(t0, rng.next());
            a.candperm(k + 1, k, t0);
            break;
        }
    }
    a.break_();

    RefHarness ref(a.finish());
    ref.runToBreak();

    for (unsigned k = 0; k < kChain; ++k) {
        ASSERT_TRUE(subsumes(ref.cpu.caps().read(k),
                             ref.cpu.caps().read(k + 1)))
            << "c" << k << " = " << ref.cpu.caps().read(k).toString()
            << " -> c" << k + 1 << " = "
            << ref.cpu.caps().read(k + 1).toString();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RefMonotonicitySweep,
                         ::testing::Values(3, 14, 15, 92, 65, 35));

/**
 * Invariant 2 through the reference interpreter: a data store of every
 * size at every aligned offset within a capability-sized line clears
 * the tag a CSC put there, as observed both by a CLC readback in the
 * guest and by the reference memory's tag bit.
 */
TEST(RefTagClear, EveryStoreSizeAndAlignmentClearsTheTag)
{
    using namespace isa::reg;
    constexpr std::uint64_t kLineAddr = 0x20000;

    // Control: without the data store the readback stays tagged.
    {
        isa::Assembler a(0x10000);
        a.li64(t8, kLineAddr);
        a.csc(0, 0, t8, 0);
        a.clc(2, 0, t8, 0);
        a.cgettag(v0, 2);
        a.break_();
        RefHarness ref(a.finish());
        ref.runToBreak();
        ASSERT_EQ(ref.cpu.gpr(v0), 1u);
        ASSERT_TRUE(ref.memory.lineTag(kLineAddr));
    }

    for (unsigned size : {1u, 2u, 4u, 8u}) {
        for (unsigned offset = 0; offset < mem::kLineBytes;
             offset += size) {
            SCOPED_TRACE("size " + std::to_string(size) + " offset " +
                         std::to_string(offset));
            isa::Assembler a(0x10000);
            a.li64(t8, kLineAddr);
            a.csc(0, 0, t8, 0); // plant a tagged capability
            switch (size) {
              case 1:
                a.sb(zero, t8, static_cast<std::int32_t>(offset));
                break;
              case 2:
                a.sh(zero, t8, static_cast<std::int32_t>(offset));
                break;
              case 4:
                a.sw(zero, t8, static_cast<std::int32_t>(offset));
                break;
              default:
                a.sd(zero, t8, static_cast<std::int32_t>(offset));
                break;
            }
            a.clc(2, 0, t8, 0); // read the line back as a capability
            a.cgettag(v0, 2);
            a.break_();

            RefHarness ref(a.finish());
            ref.runToBreak();
            EXPECT_EQ(ref.cpu.gpr(v0), 0u);
            EXPECT_FALSE(ref.memory.lineTag(kLineAddr));
            EXPECT_FALSE(ref.cpu.caps().read(2).tag());
        }
    }
}

/** Cap128 never expands to more authority than the original. */
TEST(Cap128Property, CompressionNeverAmplifies)
{
    support::Xoshiro256 rng(31);
    for (int i = 0; i < 5000; ++i) {
        Capability original = Capability::make(
            rng.nextBelow(1ULL << 41), rng.nextBelow(1ULL << 41),
            static_cast<std::uint32_t>(rng.next()) & cap::kPermMask);
        auto compressed = cap::Cap128::compress(original);
        if (!compressed)
            continue;
        EXPECT_TRUE(subsumes(original, compressed->expand()));
        EXPECT_EQ(compressed->expand(), original);
    }
}

} // namespace
} // namespace cheri
