/**
 * @file
 * Unit tests for the memory substrate: tagged physical memory
 * (CowStore, under the PhysicalMemory and TagTable suite names) and
 * the tag manager's 257-bit interface and tag-cache accounting.
 */

#include <gtest/gtest.h>

#include <map>

#include "mem/cow_store.h"
#include "mem/tag_manager.h"
#include "support/rng.h"

namespace cheri::mem
{
namespace
{

TEST(PhysicalMemory, ZeroInitialized)
{
    CowStore dram(4096);
    for (std::uint64_t addr = 0; addr < 4096; addr += 512)
        EXPECT_EQ(dram.readByte(addr), 0);
}

TEST(PhysicalMemory, ByteRoundTrip)
{
    CowStore dram(4096);
    dram.writeByte(100, 0xab);
    EXPECT_EQ(dram.readByte(100), 0xab);
    EXPECT_EQ(dram.readByte(99), 0);
    EXPECT_EQ(dram.readByte(101), 0);
}

TEST(PhysicalMemory, LittleEndianValues)
{
    CowStore dram(4096);
    dram.write(64, 8, 0x0123456789abcdefULL);
    EXPECT_EQ(dram.readByte(64), 0xef);
    EXPECT_EQ(dram.readByte(71), 0x01);
    EXPECT_EQ(dram.read(64, 8), 0x0123456789abcdefULL);
    EXPECT_EQ(dram.read(64, 4), 0x89abcdefULL);
    EXPECT_EQ(dram.read(68, 4), 0x01234567ULL);
    EXPECT_EQ(dram.read(64, 2), 0xcdefULL);
    EXPECT_EQ(dram.read(64, 1), 0xefULL);
}

TEST(PhysicalMemory, LineRoundTrip)
{
    CowStore dram(4096);
    TaggedLine line;
    for (unsigned i = 0; i < kLineBytes; ++i)
        line.data[i] = static_cast<std::uint8_t>(i * 3);
    line.tag = true;
    dram.writeLine(128, line);
    TaggedLine readback = dram.readLine(128);
    EXPECT_EQ(readback.data, line.data);
    EXPECT_TRUE(readback.tag);
    // Bytes visible through the scalar interface too, which leaves
    // the tag alone (clearing it is the cache hierarchy's job).
    EXPECT_EQ(dram.readByte(128 + 5), 15);
    dram.writeByte(128 + 5, 0);
    EXPECT_TRUE(dram.tag(128));
    // The neighbouring lines keep their own (clear) tags.
    EXPECT_FALSE(dram.readLine(96).tag);
    EXPECT_FALSE(dram.readLine(160).tag);
    line.tag = false;
    dram.writeLine(128, line);
    EXPECT_FALSE(dram.tag(128));
}

TEST(PhysicalMemory, BlockWrite)
{
    CowStore dram(4096);
    std::uint8_t data[10] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    dram.writeBytes(200, data, 10);
    EXPECT_EQ(dram.readByte(200), 1);
    EXPECT_EQ(dram.readByte(209), 10);
}

TEST(PhysicalMemory, OutOfRangePanics)
{
    CowStore dram(4096);
    EXPECT_DEATH(dram.readByte(4096), "beyond DRAM");
    EXPECT_DEATH(dram.write(4090, 8, 0), "beyond DRAM");
    EXPECT_DEATH(dram.readLine(4096), "beyond DRAM");
    EXPECT_DEATH(dram.writeLine(4096, TaggedLine{}), "beyond DRAM");
    EXPECT_DEATH(dram.tag(4096), "beyond DRAM");
    EXPECT_DEATH(dram.setTag(4096, true), "beyond DRAM");
    EXPECT_DEATH(dram.readLine(16), "unaligned");
    EXPECT_DEATH(dram.writeLine(48, TaggedLine{}), "unaligned");
    // A value is 1, 2, 4 or 8 bytes; anything else would overrun the
    // 8-byte staging buffer.
    EXPECT_DEATH(dram.read(0, 16), "1, 2, 4 or 8");
    EXPECT_DEATH(dram.write(0, 3, 0), "1, 2, 4 or 8");
}

TEST(TagTable, StartsClear)
{
    CowStore tags(4096);
    EXPECT_EQ(tags.tagPopCount(), 0u);
    for (std::uint64_t addr = 0; addr < 4096; addr += 32)
        EXPECT_FALSE(tags.tag(addr));
}

TEST(TagTable, SetClearPerLine)
{
    CowStore tags(4096);
    tags.setTag(64, true);
    EXPECT_TRUE(tags.tag(64));
    // Same line, any byte address within it.
    EXPECT_TRUE(tags.tag(65));
    EXPECT_TRUE(tags.tag(95));
    // Adjacent lines unaffected.
    EXPECT_FALSE(tags.tag(63));
    EXPECT_FALSE(tags.tag(96));
    tags.setTag(64, false);
    EXPECT_FALSE(tags.tag(64));
}

TEST(TagTable, PopCount)
{
    CowStore tags(64 * 1024);
    for (std::uint64_t addr = 0; addr < 64 * 1024; addr += 1024)
        tags.setTag(addr, true);
    EXPECT_EQ(tags.tagPopCount(), 64u);
}

TEST(TagTable, CoverageRatioMatchesPaper)
{
    // One tag bit per 256-bit line: 4 MB of tag space per GB of
    // memory (Section 4.2): 1 GB / 32 B = 2^25 bits = 4 MB.
    CowStore tags(1ULL << 30);
    EXPECT_EQ(tags.lineCount() / 8, 4ULL * 1024 * 1024);
}

TEST(TagManager, TagTravelsWithLine)
{
    CowStore store(64 * 1024);
    TagManager manager(store);

    TaggedLine line;
    line.data[0] = 0x42;
    line.tag = true;
    manager.writeLine(1024, line);

    TaggedLine readback = manager.readLine(1024);
    EXPECT_TRUE(readback.tag);
    EXPECT_EQ(readback.data[0], 0x42);

    // Untagged overwrite clears the stored tag.
    line.tag = false;
    manager.writeLine(1024, line);
    EXPECT_FALSE(manager.readLine(1024).tag);
}

TEST(TagManager, TagCacheHitsOnLocality)
{
    CowStore store(1024 * 1024);
    TagManager manager(store);

    // Repeated access to the same line: 1 compulsory tag-table read.
    for (int i = 0; i < 100; ++i)
        manager.readLine(4096);
    EXPECT_EQ(manager.stats().get("tag.table_reads"), 1u);
    EXPECT_EQ(manager.stats().get("tag.cache_hits"), 99u);
}

TEST(TagManager, TagCacheEvictsBeyondCapacity)
{
    CowStore store(256ULL * 1024 * 1024);
    // Tiny tag cache: 2 entries of 32 tag-table bytes each.
    TagManager manager(store, TagCacheConfig{64});

    // Each 32-byte tag-table entry covers 32*8 lines * 32 bytes = 8 KB
    // of data; touch three distinct 8 KB regions round-robin.
    for (int round = 0; round < 3; ++round) {
        manager.readLine(0);
        manager.readLine(8192);
        manager.readLine(16384);
    }
    // With 2 entries and 3 hot regions in LRU rotation, every access
    // misses.
    EXPECT_EQ(manager.stats().get("tag.cache_hits"), 0u);
    EXPECT_EQ(manager.stats().get("tag.cache_misses"), 9u);
}

TEST(TagManager, StatsCountTransactions)
{
    CowStore store(64 * 1024);
    TagManager manager(store);
    manager.readLine(0);
    manager.writeLine(32, TaggedLine{});
    manager.readLine(64);
    EXPECT_EQ(manager.stats().get("dram.reads"), 2u);
    EXPECT_EQ(manager.stats().get("dram.writes"), 1u);
}

TEST(TagManager, RandomizedConsistencyWithReference)
{
    CowStore store(1024 * 1024);
    TagManager manager(store, TagCacheConfig{128});
    support::Xoshiro256 rng(99);

    // Reference model: plain map of line -> (byte0, tag).
    struct Ref
    {
        std::uint8_t byte;
        bool tag;
    };
    std::map<std::uint64_t, Ref> reference;

    for (int i = 0; i < 5000; ++i) {
        std::uint64_t line_addr = rng.nextBelow(1024 * 1024 / 32) * 32;
        if (rng.nextBool()) {
            TaggedLine line;
            line.data[0] = static_cast<std::uint8_t>(rng.next());
            line.tag = rng.nextBool();
            manager.writeLine(line_addr, line);
            reference[line_addr] = Ref{line.data[0], line.tag};
        } else {
            TaggedLine line = manager.readLine(line_addr);
            auto it = reference.find(line_addr);
            if (it == reference.end()) {
                EXPECT_EQ(line.data[0], 0);
                EXPECT_FALSE(line.tag);
            } else {
                EXPECT_EQ(line.data[0], it->second.byte);
                EXPECT_EQ(line.tag, it->second.tag);
            }
        }
    }
}

} // namespace
} // namespace cheri::mem
