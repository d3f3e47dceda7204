/**
 * @file
 * Unit tests for the cache hierarchy: hit/miss behaviour, write-back,
 * LRU, and the CHERI tag semantics — tags travel with lines, general
 * stores clear them, capability stores set them.
 */

#include <gtest/gtest.h>

#include <map>

#include "cache/cache.h"
#include "cache/hierarchy.h"
#include "support/rng.h"

namespace cheri::cache
{
namespace
{

struct TestMemory
{
    mem::CowStore store{1024 * 1024};
    mem::TagManager manager{store};
};

TEST(Cache, MissThenHit)
{
    TestMemory memory;
    DramSource dram(memory.manager);
    Cache cache(CacheConfig{"l1", 1024, 2, 1}, dram);

    LineAccess first = cache.readLine(0);
    EXPECT_GT(first.cycles, DramTiming{}.row_hit_latency);
    EXPECT_EQ(cache.stats().get("l1.misses"), 1u);

    LineAccess second = cache.readLine(0);
    EXPECT_EQ(second.cycles, 1u);
    EXPECT_EQ(cache.stats().get("l1.hits"), 1u);
}

TEST(Cache, WriteBackOnEviction)
{
    TestMemory memory;
    DramSource dram(memory.manager);
    // Direct-mapped, 2 sets: lines 0 and 64 collide in set 0.
    Cache cache(CacheConfig{"l1", 64, 1, 1}, dram);

    mem::TaggedLine line;
    line.data[0] = 0xaa;
    cache.writeLine(0, line);
    EXPECT_EQ(cache.stats().get("l1.writebacks"), 0u);

    cache.readLine(64); // evicts dirty line 0
    EXPECT_EQ(cache.stats().get("l1.writebacks"), 1u);
    EXPECT_EQ(memory.store.readByte(0), 0xaa);
}

TEST(Cache, FlushWritesDirtyLines)
{
    TestMemory memory;
    DramSource dram(memory.manager);
    Cache cache(CacheConfig{"l1", 1024, 2, 1}, dram);

    mem::TaggedLine line;
    line.data[3] = 0x55;
    line.tag = true;
    cache.writeLine(96, line);
    EXPECT_EQ(memory.store.readByte(99), 0); // still only in cache

    cache.flush();
    EXPECT_EQ(memory.store.readByte(99), 0x55);
    EXPECT_TRUE(memory.store.tag(96));
}

TEST(Cache, LruReplacement)
{
    TestMemory memory;
    DramSource dram(memory.manager);
    // One set, 2 ways; lines 0, 1024, 2048 all collide.
    Cache cache(CacheConfig{"l1", 64, 2, 1}, dram);

    cache.readLine(0);
    cache.readLine(1024);
    cache.readLine(0);    // 0 most recent
    cache.readLine(2048); // evicts 1024

    cache.resetStats();
    cache.readLine(0);
    EXPECT_EQ(cache.stats().get("l1.hits"), 1u);
    cache.readLine(1024);
    EXPECT_EQ(cache.stats().get("l1.misses"), 1u);
}

TEST(Cache, TagPreservedThroughLevels)
{
    TestMemory memory;
    DramSource dram(memory.manager);
    Cache l2(CacheConfig{"l2", 4096, 4, 8}, dram);
    Cache l1(CacheConfig{"l1", 1024, 2, 1}, l2);

    mem::TaggedLine line;
    line.tag = true;
    line.data[0] = 7;
    l1.writeLine(256, line);

    // Push through both levels.
    l1.flush();
    l2.flush();
    EXPECT_TRUE(memory.store.tag(256));

    LineAccess readback = l1.readLine(256);
    EXPECT_TRUE(readback.line->tag);
    EXPECT_EQ(readback.line->data[0], 7);
}

TEST(Hierarchy, SubLineReadWrite)
{
    TestMemory memory;
    CacheHierarchy hierarchy(memory.manager);
    std::uint64_t cycles = 0;

    hierarchy.write(128, 8, 0x1122334455667788ULL, cycles);
    EXPECT_EQ(hierarchy.read(128, 8, cycles), 0x1122334455667788ULL);
    EXPECT_EQ(hierarchy.read(128, 4, cycles), 0x55667788ULL);
    EXPECT_EQ(hierarchy.read(132, 2, cycles), 0x3344ULL);
    EXPECT_EQ(hierarchy.read(135, 1, cycles), 0x11ULL);
}

TEST(Hierarchy, GeneralStoreClearsTag)
{
    TestMemory memory;
    CacheHierarchy hierarchy(memory.manager);
    std::uint64_t cycles = 0;

    mem::TaggedLine cap_line;
    cap_line.tag = true;
    hierarchy.writeCapLine(64, cap_line, cycles);
    EXPECT_TRUE(hierarchy.readCapLine(64, cycles).tag);

    // A one-byte store anywhere in the line clears its tag.
    hierarchy.write(95, 1, 0xff, cycles);
    EXPECT_FALSE(hierarchy.readCapLine(64, cycles).tag);
}

TEST(Hierarchy, CapStoreSetsTagAndData)
{
    TestMemory memory;
    CacheHierarchy hierarchy(memory.manager);
    std::uint64_t cycles = 0;

    mem::TaggedLine line;
    line.tag = true;
    for (unsigned i = 0; i < mem::kLineBytes; ++i)
        line.data[i] = static_cast<std::uint8_t>(i);
    hierarchy.writeCapLine(32, line, cycles);

    mem::TaggedLine readback = hierarchy.readCapLine(32, cycles);
    EXPECT_TRUE(readback.tag);
    EXPECT_EQ(readback.data, line.data);

    // Data view of the same bytes matches (memcpy obliviousness).
    EXPECT_EQ(hierarchy.read(32, 1, cycles), 0u);
    EXPECT_EQ(hierarchy.read(33, 1, cycles), 1u);
}

TEST(Hierarchy, TagReachesDramAfterFlush)
{
    TestMemory memory;
    CacheHierarchy hierarchy(memory.manager);
    std::uint64_t cycles = 0;

    mem::TaggedLine line;
    line.tag = true;
    hierarchy.writeCapLine(512, line, cycles);
    EXPECT_FALSE(memory.store.tag(512)); // still cached

    hierarchy.flushAll();
    EXPECT_TRUE(memory.store.tag(512));
}

TEST(Hierarchy, FetchReadsThroughL1I)
{
    TestMemory memory;
    memory.store.write(0x400, 4, 0xdeadbeef);
    CacheHierarchy hierarchy(memory.manager);
    std::uint64_t cycles = 0;
    EXPECT_EQ(hierarchy.fetch32(0x400, cycles), 0xdeadbeefu);
    EXPECT_EQ(hierarchy.collectStats().get("l1i.misses"), 1u);

    cycles = 0;
    hierarchy.fetch32(0x404, cycles); // same line
    EXPECT_EQ(cycles, 1u);
}

TEST(Hierarchy, LatencyOrdering)
{
    TestMemory memory;
    CacheHierarchy hierarchy(memory.manager);

    std::uint64_t cold = 0, warm = 0;
    hierarchy.read(0x2000, 8, cold); // miss to DRAM
    hierarchy.read(0x2000, 8, warm); // L1 hit
    EXPECT_GT(cold, warm);
    EXPECT_EQ(warm, 1u);

    // L2 hit: evict from tiny... instead read a line that's in L2 but
    // not L1 by filling L1 set conflicts.
    HierarchyConfig small;
    small.l1d = CacheConfig{"l1d", 64, 1, 1}; // 2 sets, direct mapped
    CacheHierarchy tiny(memory.manager, small);
    std::uint64_t c1 = 0, c2 = 0, c3 = 0;
    tiny.read(0, 8, c1);    // miss both
    tiny.read(128, 8, c2);  // conflicts with 0 in L1 (set 0), fills L2
    tiny.read(0, 8, c3);    // L1 miss, L2 hit
    EXPECT_LT(c3, c1);
    EXPECT_GT(c3, 1u);
}

TEST(Hierarchy, RandomizedDataConsistency)
{
    TestMemory memory;
    HierarchyConfig small;
    small.l1d = CacheConfig{"l1d", 256, 2, 1};
    small.l2 = CacheConfig{"l2", 1024, 2, 8};
    CacheHierarchy hierarchy(memory.manager, small);

    support::Xoshiro256 rng(17);
    std::map<std::uint64_t, std::uint8_t> reference;
    std::uint64_t cycles = 0;

    for (int i = 0; i < 20000; ++i) {
        std::uint64_t addr = rng.nextBelow(16 * 1024);
        if (rng.nextBool()) {
            std::uint8_t value = static_cast<std::uint8_t>(rng.next());
            hierarchy.write(addr, 1, value, cycles);
            reference[addr] = value;
        } else {
            std::uint8_t expected = 0;
            auto it = reference.find(addr);
            if (it != reference.end())
                expected = it->second;
            EXPECT_EQ(hierarchy.read(addr, 1, cycles), expected)
                << "at address " << addr;
        }
    }

    // After a full flush DRAM must agree with the reference model.
    hierarchy.flushAll();
    for (const auto &[addr, value] : reference)
        EXPECT_EQ(memory.store.readByte(addr), value);
}

/**
 * A read, a store and a full-line write through a handle whose line
 * was evicted cost exactly what the same access with no handle costs —
 * counters, cycles and bytes — and re-point the handle at the line, so
 * the next access through it replays the hit alike too.
 */
TEST(Hierarchy, StaleHandleCountsLikeNoHandle)
{
    // Four more lines 4 KB apart fill kLine's set in the 4-way L1D and
    // evict it.
    constexpr std::uint64_t kLine = 0x1040;
    auto evict = [](CacheHierarchy &hierarchy, std::uint64_t &cycles) {
        for (std::uint64_t k = 1; k <= 4; ++k)
            hierarchy.read(kLine + k * 4096, 8, cycles);
    };
    enum class Access { kRead, kStore, kLineWrite };
    for (Access access : {Access::kRead, Access::kStore,
                          Access::kLineWrite}) {
        SCOPED_TRACE(static_cast<int>(access));
        TestMemory memory_with, memory_without;
        CacheHierarchy with(memory_with.manager);
        CacheHierarchy without(memory_without.manager);
        std::uint64_t scratch = 0;
        Cache::LineHandle handle;
        with.read(kLine, 8, scratch, &handle);
        without.read(kLine, 8, scratch);
        ASSERT_TRUE(with.l1d().handleValid(handle));
        evict(with, scratch);
        evict(without, scratch);
        ASSERT_FALSE(with.l1d().handleValid(handle));

        for (std::uint64_t pass = 0; pass < 2; ++pass) { // stale, valid
            std::uint64_t cycles_with = 0, cycles_without = 0;
            mem::TaggedLine line;
            line.data[3] = static_cast<std::uint8_t>(0x40 + pass);
            line.tag = true;
            switch (access) {
              case Access::kRead:
                EXPECT_EQ(with.read(kLine + 8, 8, cycles_with, &handle),
                          without.read(kLine + 8, 8, cycles_without));
                break;
              case Access::kStore:
                with.write(kLine + 8, 4, 0x1234 + pass, cycles_with,
                           &handle);
                without.write(kLine + 8, 4, 0x1234 + pass, cycles_without);
                break;
              case Access::kLineWrite:
                with.writeCapLine(kLine, line, cycles_with, &handle);
                without.writeCapLine(kLine, line, cycles_without);
                break;
            }
            EXPECT_EQ(cycles_with, cycles_without) << "pass " << pass;
            EXPECT_TRUE(with.l1d().handleValid(handle));
            EXPECT_EQ(with.collectStats().all(),
                      without.collectStats().all());
        }
        mem::TaggedLine got = with.readCapLine(kLine, scratch);
        mem::TaggedLine want = without.readCapLine(kLine, scratch);
        EXPECT_EQ(got.data, want.data);
        EXPECT_EQ(got.tag, want.tag);
    }
}

} // namespace
} // namespace cheri::cache
