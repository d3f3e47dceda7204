/**
 * @file
 * Unit tests for the page table and TLB, including the CHERI PTE
 * extension bits that gate capability loads and stores.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>

#include "tlb/page_table.h"
#include "tlb/tlb.h"

namespace cheri::tlb
{
namespace
{

PteFlags
flagsAll()
{
    return PteFlags{};
}

TEST(PageTable, MapLookupUnmap)
{
    PageTable table;
    EXPECT_FALSE(table.lookup(5).has_value());
    table.map(5, 100);
    auto pte = table.lookup(5);
    ASSERT_TRUE(pte.has_value());
    EXPECT_EQ(pte->pfn, 100u);
    table.unmap(5);
    EXPECT_FALSE(table.lookup(5).has_value());
}

TEST(PageTable, ProtectUpdatesFlags)
{
    PageTable table;
    table.map(1, 2);
    PteFlags flags;
    flags.writable = false;
    EXPECT_TRUE(table.protect(1, flags));
    EXPECT_FALSE(table.lookup(1)->flags.writable);
    EXPECT_FALSE(table.protect(9, flags));
}

TEST(Tlb, TranslatesThroughPageTable)
{
    PageTable table;
    table.map(0x10, 0x20, flagsAll());
    Tlb tlb(table);
    TlbResult result =
        tlb.translate(0x10 * kPageBytes + 0x123, Access::kLoad);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.paddr, 0x20 * kPageBytes + 0x123);
}

TEST(Tlb, MissThenHit)
{
    PageTable table;
    table.map(1, 1, flagsAll());
    Tlb tlb(table);

    TlbResult first = tlb.translate(kPageBytes, Access::kLoad);
    EXPECT_TRUE(first.ok());
    EXPECT_GT(first.penalty_cycles, 0u);
    EXPECT_EQ(tlb.stats().get("tlb.misses"), 1u);

    TlbResult second = tlb.translate(kPageBytes + 8, Access::kLoad);
    EXPECT_TRUE(second.ok());
    EXPECT_EQ(second.penalty_cycles, 0u);
    EXPECT_EQ(tlb.stats().get("tlb.hits"), 1u);
}

TEST(Tlb, UnmappedFaults)
{
    PageTable table;
    Tlb tlb(table);
    TlbResult result = tlb.translate(0x5000, Access::kLoad);
    EXPECT_EQ(result.fault, TlbFault::kNoMapping);
}

TEST(Tlb, PermissionFaults)
{
    PageTable table;
    PteFlags read_only;
    read_only.writable = false;
    read_only.executable = false;
    table.map(0, 0, read_only);
    Tlb tlb(table);

    EXPECT_TRUE(tlb.translate(0, Access::kLoad).ok());
    EXPECT_EQ(tlb.translate(4, Access::kStore).fault,
              TlbFault::kNotWritable);
    EXPECT_EQ(tlb.translate(8, Access::kFetch).fault,
              TlbFault::kNotExecutable);
}

TEST(Tlb, CapabilityPteBitsGateCapAccess)
{
    PageTable table;
    PteFlags no_caps;
    no_caps.cap_load = false;
    no_caps.cap_store = false;
    table.map(0, 0, no_caps);
    Tlb tlb(table);

    // Ordinary data access is unaffected (Section 6.1: shared memory
    // that cannot act as a capability channel).
    EXPECT_TRUE(tlb.translate(0, Access::kLoad).ok());
    EXPECT_TRUE(tlb.translate(0, Access::kStore).ok());
    EXPECT_EQ(tlb.translate(0, Access::kCapLoad).fault,
              TlbFault::kCapLoadDenied);
    EXPECT_EQ(tlb.translate(0, Access::kCapStore).fault,
              TlbFault::kCapStoreDenied);
}

TEST(Tlb, CapacityEviction)
{
    PageTable table;
    for (std::uint64_t vpn = 0; vpn < 10; ++vpn)
        table.map(vpn, vpn, flagsAll());
    Tlb tlb(table, TlbConfig{4, 30});

    // Touch 5 pages; with 4 entries the first one is evicted.
    for (std::uint64_t vpn = 0; vpn < 5; ++vpn)
        tlb.translate(vpn * kPageBytes, Access::kLoad);
    EXPECT_EQ(tlb.stats().get("tlb.misses"), 5u);

    TlbResult result = tlb.translate(0, Access::kLoad);
    EXPECT_TRUE(result.ok());
    EXPECT_GT(result.penalty_cycles, 0u); // refilled again
    EXPECT_EQ(tlb.stats().get("tlb.misses"), 6u);
}

TEST(Tlb, DefaultCoversOneMegabyte)
{
    // 256 entries x 4 KB pages = 1 MB, the Figure 5 knee.
    TlbConfig config;
    EXPECT_EQ(config.entries * kPageBytes, 1024u * 1024u);
}

TEST(Tlb, FlushDropsEntries)
{
    PageTable table;
    table.map(0, 0, flagsAll());
    Tlb tlb(table);
    tlb.translate(0, Access::kLoad);
    tlb.flush();
    TlbResult result = tlb.translate(0, Access::kLoad);
    EXPECT_GT(result.penalty_cycles, 0u);
}

TEST(Tlb, FlushPageIsSelective)
{
    PageTable table;
    table.map(0, 0, flagsAll());
    table.map(1, 1, flagsAll());
    Tlb tlb(table);
    tlb.translate(0, Access::kLoad);
    tlb.translate(kPageBytes, Access::kLoad);

    tlb.flushPage(0);
    EXPECT_EQ(tlb.translate(kPageBytes, Access::kLoad).penalty_cycles,
              0u);
    EXPECT_GT(tlb.translate(0, Access::kLoad).penalty_cycles, 0u);
}

TEST(Tlb, RevocationViaUnmapTakesEffectAfterFlush)
{
    // The OS revocation path (Section 6.1): unmap the page, flush the
    // TLB; stale capabilities then fault on use.
    PageTable table;
    table.map(0, 0, flagsAll());
    Tlb tlb(table);
    EXPECT_TRUE(tlb.translate(0, Access::kLoad).ok());

    table.unmap(0);
    tlb.flush();
    EXPECT_EQ(tlb.translate(0, Access::kLoad).fault,
              TlbFault::kNoMapping);
}

TEST(Tlb, SetTableSwitchesAddressSpace)
{
    PageTable a, b;
    a.map(0, 1, flagsAll());
    b.map(0, 2, flagsAll());
    Tlb tlb(a);
    EXPECT_EQ(tlb.translate(0, Access::kLoad).paddr, kPageBytes);
    tlb.setTable(b);
    EXPECT_EQ(tlb.translate(0, Access::kLoad).paddr, 2 * kPageBytes);
}

/**
 * A handle minted by a successful translation stays current while its
 * entry cannot have changed, and every event that drops or rewrites a
 * cached entry retires it; a failed translation leaves it untouched.
 */
TEST(Tlb, HandleStaysCurrentUntilItsEntryCanChange)
{
    PageTable table;
    for (std::uint64_t vpn = 0; vpn < 8; ++vpn)
        table.map(vpn, 100 + vpn, flagsAll());
    PteFlags read_only;
    read_only.writable = false;
    table.map(8, 108, read_only);
    Tlb tlb(table, TlbConfig{4, 30});

    Tlb::Handle handle;
    EXPECT_FALSE(tlb.current(handle)); // default handles never are
    auto mint = [&] {
        handle = Tlb::Handle{};
        ASSERT_TRUE(tlb.translate(0x10, Access::kLoad, &handle).ok());
        ASSERT_TRUE(tlb.current(handle));
        EXPECT_EQ(handle.vpn, 0u);
    };

    mint();
    EXPECT_EQ(handle.frame_base, 100 * kPageBytes);
    EXPECT_TRUE(tlb.translate(kPageBytes, Access::kLoad).ok());
    EXPECT_TRUE(tlb.translate(2 * kPageBytes, Access::kStore).ok());
    EXPECT_TRUE(tlb.current(handle)) << "hits to other pages";
    TlbResult hit = tlb.translate(0x123, Access::kStore, &handle);
    EXPECT_TRUE(hit.ok());
    EXPECT_EQ(hit.paddr, 100 * kPageBytes + 0x123);
    EXPECT_EQ(hit.penalty_cycles, 0u);

    tlb.flush();
    EXPECT_FALSE(tlb.current(handle)) << "flush";
    mint();
    tlb.flushPage(0);
    EXPECT_FALSE(tlb.current(handle)) << "flushPage of its page";
    mint();
    for (std::uint64_t vpn = 1; vpn <= 4; ++vpn)
        tlb.translate(vpn * kPageBytes, Access::kLoad);
    EXPECT_FALSE(tlb.current(handle)) << "capacity eviction";
    mint();
    tlb.setTable(table);
    EXPECT_FALSE(tlb.current(handle)) << "setTable";
    mint();
    EXPECT_TRUE(tlb.corruptEntry(0, Pte{7, flagsAll()}));
    EXPECT_FALSE(tlb.current(handle)) << "corruptEntry";
    mint();
    Tlb other(table);
    tlb.copyStateFrom(other);
    EXPECT_FALSE(tlb.current(handle)) << "copyStateFrom";

    mint();
    const Tlb::Handle before = handle;
    EXPECT_EQ(tlb.translate(50 * kPageBytes, Access::kLoad, &handle).fault,
              TlbFault::kNoMapping);
    EXPECT_EQ(tlb.translate(8 * kPageBytes, Access::kStore, &handle).fault,
              TlbFault::kNotWritable);
    EXPECT_EQ(handle.vpn, before.vpn);
    EXPECT_EQ(handle.generation, before.generation);
    EXPECT_EQ(handle.entry, before.entry);
    EXPECT_EQ(handle.frame_base, before.frame_base);
}

/**
 * The same translations with and without caller-held hints give the
 * same results, counters and LRU order: a hint is a host shortcut only.
 * The sequence strides across more pages than the TLB holds, hits
 * pages whose PTEs deny stores or capability loads and an unmapped
 * page, and mixes a hint per page with one shared by every page.
 */
TEST(Tlb, HintedAndUnhintedTranslationsCountAlike)
{
    PageTable table;
    for (std::uint64_t vpn = 0; vpn < 12; ++vpn) {
        PteFlags flags;
        flags.writable = vpn % 5 != 0;
        flags.cap_load = vpn % 3 != 0;
        table.map(vpn, 200 + vpn, flags);
    }
    Tlb plain(table, TlbConfig{4, 30});
    Tlb hinted(table, TlbConfig{4, 30});
    std::array<Tlb::Handle, 14> hints{}; // one per page, one shared

    const Access kinds[] = {Access::kLoad, Access::kStore, Access::kCapLoad,
                            Access::kFetch};
    std::uint64_t x = 12345;
    for (int i = 0; i < 4000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        std::uint64_t vpn = (x >> 33) % 13; // page 12 is unmapped
        std::uint64_t vaddr = vpn * kPageBytes + (x >> 20) % kPageBytes;
        Access access = kinds[(x >> 40) % 4];
        TlbResult want = plain.translate(vaddr, access);
        Tlb::Handle &hint = (x >> 50) % 4 == 0 ? hints[13] : hints[vpn];
        TlbResult got = hinted.translate(vaddr, access, &hint);
        ASSERT_EQ(got.fault, want.fault) << "step " << i;
        ASSERT_EQ(got.paddr, want.paddr) << "step " << i;
        ASSERT_EQ(got.penalty_cycles, want.penalty_cycles) << "step " << i;
    }
    EXPECT_EQ(hinted.stats().all(), plain.stats().all());
    EXPECT_EQ(hinted.cachedVpns(), plain.cachedVpns());
    EXPECT_GT(plain.stats().get("tlb.hits"), 1000u);
    EXPECT_GT(plain.stats().get("tlb.faults"), 100u);
}

} // namespace
} // namespace cheri::tlb
