/**
 * @file
 * Prefetcher subsystem tests (DESIGN.md §14). The prefetchers are
 * micro-architectural accelerators: they may only move lines up the
 * hierarchy early, never change architectural state, and their
 * decisions must fire identically at every host tier because every
 * demand miss funnels through the same fill path.
 *
 *  - Cache-level mechanics: prefetchFill installs a line without
 *    touching hit/miss counters or the access memo; a later demand
 *    touch counts it useful exactly once; a prefetch of a resident
 *    line counts late; eviction or invalidation of a never-touched
 *    prefetched line counts inaccurate.
 *  - Tag semantics: prefetched lines carry their capability tag
 *    unchanged, and the store-clears-tag rule is untouched.
 *  - Hierarchy-level: a demand miss triggers next-line fills that turn
 *    the next sequential read into a hit; the pointer-chase prefetcher
 *    decodes base/length from a tagged line as it fills and pulls the
 *    pointee's lines in through a side-effect-free TLB probe.
 *  - Default off: a machine without prefetching mints no prefetch
 *    counters at all, so seed stats output is byte-identical.
 *
 * The guest Olden kernels under the lockstep oracle with each
 * prefetcher on, at every host tier, live in test_host_tier.
 */

#include <string>

#include <gtest/gtest.h>

#include "cache/cache.h"
#include "cache/hierarchy.h"
#include "cap/capability.h"
#include "cap/perms.h"
#include "core/machine.h"
#include "workloads/olden.h"
#include "workloads/timing_context.h"

namespace cheri
{
namespace
{

struct TestMemory
{
    mem::CowStore store{1024 * 1024};
    mem::TagManager manager{store};
};

// --- cache-level mechanics ---

TEST(PrefetchCache, FillInstallsWithoutHitMissBump)
{
    TestMemory memory;
    cache::DramSource dram(memory.manager);
    cache::Cache cache(cache::CacheConfig{"l1", 1024, 2, 1}, dram);
    cache.armPrefetch();

    ASSERT_NE(cache.prefetchFill(64), nullptr);
    EXPECT_EQ(cache.stats().get("l1.prefetch_issued"), 1u);
    EXPECT_EQ(cache.stats().get("l1.hits"), 0u);
    EXPECT_EQ(cache.stats().get("l1.misses"), 0u);

    // The demand read now hits and counts the prefetch useful.
    cache::LineAccess access = cache.readLine(64);
    EXPECT_EQ(access.cycles, 1u);
    EXPECT_EQ(cache.stats().get("l1.hits"), 1u);
    EXPECT_EQ(cache.stats().get("l1.prefetch_useful"), 1u);

    // Useful is counted once, not per touch.
    cache.readLine(64);
    EXPECT_EQ(cache.stats().get("l1.prefetch_useful"), 1u);
}

TEST(PrefetchCache, ResidentLineCountsLate)
{
    TestMemory memory;
    cache::DramSource dram(memory.manager);
    cache::Cache cache(cache::CacheConfig{"l1", 1024, 2, 1}, dram);
    cache.armPrefetch();

    cache.readLine(0);
    EXPECT_EQ(cache.prefetchFill(0), nullptr);
    EXPECT_EQ(cache.stats().get("l1.prefetch_late"), 1u);
    EXPECT_EQ(cache.stats().get("l1.prefetch_issued"), 0u);
}

TEST(PrefetchCache, EvictedUntouchedLineCountsInaccurate)
{
    TestMemory memory;
    cache::DramSource dram(memory.manager);
    // One set, 2 ways: lines 0, 1024, 2048 collide.
    cache::Cache cache(cache::CacheConfig{"l1", 64, 2, 1}, dram);
    cache.armPrefetch();

    ASSERT_NE(cache.prefetchFill(0), nullptr);
    cache.readLine(1024);
    cache.readLine(2048); // evicts the LRU way
    // The prefetched line was newest at install (MRU), so the two
    // demand fills evict each other first; force it out too.
    cache.readLine(1024);
    cache.readLine(2048);
    EXPECT_EQ(cache.stats().get("l1.prefetch_inaccurate"), 1u);
    EXPECT_EQ(cache.stats().get("l1.prefetch_useful"), 0u);
}

TEST(PrefetchCache, FlushCountsUntouchedPrefetchInaccurate)
{
    TestMemory memory;
    cache::DramSource dram(memory.manager);
    cache::Cache cache(cache::CacheConfig{"l1", 1024, 2, 1}, dram);
    cache.armPrefetch();

    ASSERT_NE(cache.prefetchFill(32), nullptr);
    cache.flush();
    EXPECT_EQ(cache.stats().get("l1.prefetch_inaccurate"), 1u);
}

TEST(PrefetchCache, PrefetchPreservesCapabilityTag)
{
    TestMemory memory;
    memory.store.setTag(128, true);
    cache::DramSource dram(memory.manager);
    cache::Cache cache(cache::CacheConfig{"l1", 1024, 2, 1}, dram);
    cache.armPrefetch();

    const mem::TaggedLine *line = cache.prefetchFill(128);
    ASSERT_NE(line, nullptr);
    EXPECT_TRUE(line->tag);

    cache::LineAccess readback = cache.readLine(128);
    EXPECT_TRUE(readback.line->tag);
}

// --- hierarchy-level behaviour ---

TEST(PrefetchHierarchy, NextLineTurnsSequentialMissIntoHit)
{
    TestMemory memory;
    cache::HierarchyConfig config;
    config.prefetch.policy = cache::PrefetchPolicy::kNextLine;
    config.prefetch.degree = 2;
    cache::CacheHierarchy hierarchy(memory.manager, config);
    hierarchy.setPrefetchPhysLimit(1024 * 1024);

    std::uint64_t cycles = 0;
    hierarchy.read(0, 8, cycles); // miss; prefetches lines 32 and 64

    support::StatSet stats = hierarchy.collectStats();
    EXPECT_GE(stats.get("l1d.prefetch_issued"), 2u);

    std::uint64_t miss_count = stats.get("l1d.misses");
    std::uint64_t next_cycles = 0;
    hierarchy.read(32, 8, next_cycles);
    stats = hierarchy.collectStats();
    EXPECT_EQ(stats.get("l1d.misses"), miss_count); // it hit
    EXPECT_GE(stats.get("l1d.prefetch_useful"), 1u);
}

TEST(PrefetchHierarchy, PhysLimitZeroDropsEverything)
{
    TestMemory memory;
    cache::HierarchyConfig config;
    config.prefetch.policy = cache::PrefetchPolicy::kNextLine;
    cache::CacheHierarchy hierarchy(memory.manager, config);
    // No setPrefetchPhysLimit: a bare hierarchy must not speculate
    // past unknown DRAM bounds.

    std::uint64_t cycles = 0;
    hierarchy.read(0, 8, cycles);
    support::StatSet stats = hierarchy.collectStats();
    EXPECT_EQ(stats.get("l1d.prefetch_issued"), 0u);
    EXPECT_EQ(stats.get("l2.prefetch_issued"), 0u);
}

TEST(PrefetchHierarchy, CapChaseFollowsStoredCapability)
{
    TestMemory memory;
    cache::HierarchyConfig config;
    config.prefetch.policy = cache::PrefetchPolicy::kCapChase;
    config.prefetch.degree = 2;
    cache::CacheHierarchy hierarchy(memory.manager, config);
    hierarchy.setPrefetchPhysLimit(1024 * 1024);
    hierarchy.setPrefetchTranslator(
        [](std::uint64_t vaddr, std::uint64_t &paddr) {
            paddr = vaddr; // identity: physical == virtual
            return true;
        });

    // Plant a capability image at line 0x1000 pointing at a 64-byte
    // object at 0x8000, then push it to DRAM and empty the caches.
    cap::Capability capability =
        cap::Capability::make(0x8000, 64, cap::kPermAll);
    mem::TaggedLine image;
    image.data = capability.raw();
    image.tag = true;
    std::uint64_t cycles = 0;
    hierarchy.writeCapLine(0x1000, image, cycles);
    hierarchy.flushAll();
    hierarchy.resetStats();

    // Demand-loading the capability line must chase the pointer and
    // prefetch the pointee's two lines.
    mem::TaggedLine loaded = hierarchy.readCapLine(0x1000, cycles);
    EXPECT_TRUE(loaded.tag);
    support::StatSet stats = hierarchy.collectStats();
    EXPECT_GE(stats.get("l1d.prefetch_issued"), 2u);

    std::uint64_t miss_count = stats.get("l1d.misses");
    std::uint64_t deref_cycles = 0;
    hierarchy.read(0x8000, 8, deref_cycles);
    hierarchy.read(0x8020, 8, deref_cycles);
    stats = hierarchy.collectStats();
    EXPECT_EQ(stats.get("l1d.misses"), miss_count); // both hit
    EXPECT_GE(stats.get("l1d.prefetch_useful"), 2u);
}

TEST(PrefetchHierarchy, CapChaseIgnoresUntaggedLines)
{
    TestMemory memory;
    cache::HierarchyConfig config;
    config.prefetch.policy = cache::PrefetchPolicy::kCapChase;
    cache::CacheHierarchy hierarchy(memory.manager, config);
    hierarchy.setPrefetchPhysLimit(1024 * 1024);
    hierarchy.setPrefetchTranslator(
        [](std::uint64_t vaddr, std::uint64_t &paddr) {
            paddr = vaddr;
            return true;
        });

    std::uint64_t cycles = 0;
    hierarchy.read(0x2000, 8, cycles); // untagged line: no chase
    support::StatSet stats = hierarchy.collectStats();
    EXPECT_EQ(stats.get("l1d.prefetch_issued"), 0u);
}

TEST(PrefetchHierarchy, DefaultOffMintsNoCounters)
{
    TestMemory memory;
    cache::CacheHierarchy hierarchy(memory.manager);
    std::uint64_t cycles = 0;
    hierarchy.read(0, 8, cycles);
    support::StatSet stats = hierarchy.collectStats();
    for (const auto &[name, value] : stats.all())
        EXPECT_EQ(name.find("prefetch"), std::string::npos) << name;
}

TEST(PrefetchHierarchy, StoreStillClearsTagOnPrefetchedLine)
{
    TestMemory memory;
    memory.store.setTag(0x3000, true);
    cache::HierarchyConfig config;
    config.prefetch.policy = cache::PrefetchPolicy::kNextLine;
    config.prefetch.degree = 1;
    cache::CacheHierarchy hierarchy(memory.manager, config);
    hierarchy.setPrefetchPhysLimit(1024 * 1024);

    // Miss on the previous line prefetches the tagged line 0x3000.
    std::uint64_t cycles = 0;
    hierarchy.read(0x2fe0, 8, cycles);
    // A data store into the prefetched line must clear its tag,
    // exactly as on any resident line.
    hierarchy.write(0x3000, 8, 0x1234, cycles);
    mem::TaggedLine line = hierarchy.readCapLine(0x3000, cycles);
    EXPECT_FALSE(line.tag);
}

// --- machine-level: the timing model the sweep uses ---

TEST(PrefetchTiming, CapChaseFiresOnlyUnderCheri)
{
    workloads::Treeadd treeadd;
    workloads::WorkloadParams params{8, 0, 1};

    auto statsFor = [&](workloads::CompileModel model) {
        core::MachineConfig config;
        config.caches.prefetch.policy =
            cache::PrefetchPolicy::kCapChase;
        config.caches.prefetch.degree = 4;
        workloads::TimingContext ctx(model, config);
        treeadd.run(ctx, params);
        return ctx.machine().memory().collectStats();
    };

    support::StatSet cheri = statsFor(workloads::CompileModel::kCheri);
    EXPECT_GT(cheri.get("l1d.prefetch_issued"), 0u);
    EXPECT_GT(cheri.get("l1d.prefetch_useful"), 0u);

    // MIPS pointers are plain data: no tagged lines, no chasing.
    support::StatSet mips = statsFor(workloads::CompileModel::kMips);
    EXPECT_EQ(mips.get("l1d.prefetch_issued"), 0u);
    EXPECT_EQ(mips.get("l2.prefetch_issued"), 0u);
}

} // namespace
} // namespace cheri
