/**
 * @file
 * Machine copies: fork() and restoreFrom() share one copy path, and
 * this file proves it observationally invisible (MachineCopy: across
 * kernels and host tiers, a fork and a rolled-back machine finish bit
 * for bit equal to an uninterrupted run; ForkVsClone: a fork and a
 * fresh machine rolled back to the same parent finish bit for bit
 * equal to each other). Siblings must be fully
 * isolated (randomized interleaved writes in K forks swept against
 * per-fork models over every DRAM line and tag), and so must a
 * rolled-back machine and its live checkpoint; fork must chain
 * (fork-of-fork sees ancestor writes made before its mint, never
 * after), the COW accounting (CowStore::cowFaults / sharedPages) must
 * tick exactly on first writes, the shared zero page must never be
 * written in place, a fork must run at its parent's host tier, and a
 * rollback to a checkpoint of another MachineConfig must panic.
 */

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/machine.h"
#include "isa/assembler.h"
#include "mem/cow_store.h"
#include "support/rng.h"
#include "support/stats.h"
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

core::MachineConfig
smallConfig()
{
    core::MachineConfig config;
    config.dram_bytes = 8 * 1024 * 1024;
    return config;
}

/**
 * Compare all of a machine's DRAM, line by line and tags included,
 * with expect(paddr). Returns the first mismatching line as a
 * message, or "" when every line matches.
 */
template <typename Expect>
std::string
dramMismatch(core::Machine &machine, Expect &&expect)
{
    for (std::uint64_t paddr = 0; paddr < machine.cowStore().sizeBytes();
         paddr += mem::kLineBytes) {
        mem::TaggedLine got = machine.cowStore().readLine(paddr);
        mem::TaggedLine want = expect(paddr);
        if (got.data != want.data || got.tag != want.tag)
            return "DRAM line " + std::to_string(paddr) + " differs";
    }
    return "";
}

// --- CowStore unit behaviour -----------------------------------------

TEST(CowStore, FreshStoreSharesOneZeroPage)
{
    mem::CowStore store(16 * mem::kCowPageBytes);
    EXPECT_EQ(store.cowFaults(), 0u);
    EXPECT_EQ(store.sharedPages(), 16u);
    for (std::uint64_t paddr = 0; paddr < 16 * mem::kCowPageBytes;
         paddr += 997)
        EXPECT_EQ(store.readByte(paddr), 0u);
}

TEST(CowStore, FirstWriteFaultsOncePerPage)
{
    mem::CowStore store(16 * mem::kCowPageBytes);
    store.writeByte(5, 0xaa);
    EXPECT_EQ(store.cowFaults(), 1u);
    // Second write to the same page: already private, no new fault.
    store.writeByte(mem::kCowPageBytes - 1, 0xbb);
    EXPECT_EQ(store.cowFaults(), 1u);
    // A tag write for a line of the same page: still private.
    store.setTag(1 * mem::kLineBytes, true);
    EXPECT_EQ(store.cowFaults(), 1u);
    EXPECT_TRUE(store.tag(1 * mem::kLineBytes));
    // A different page faults separately.
    store.writeByte(3 * mem::kCowPageBytes + 7, 0xcc);
    EXPECT_EQ(store.cowFaults(), 2u);
    EXPECT_EQ(store.sharedPages(), 14u);
    EXPECT_EQ(store.readByte(5), 0xaa);
    EXPECT_EQ(store.readByte(mem::kCowPageBytes - 1), 0xbb);

    // Reading a line or a tag of a page on the zero page faults
    // nothing.
    EXPECT_FALSE(store.readLine(5 * mem::kCowPageBytes).tag);
    EXPECT_FALSE(store.tag(5 * mem::kCowPageBytes + mem::kLineBytes));
    EXPECT_TRUE(store.isZeroPage(5));
    EXPECT_EQ(store.cowFaults(), 2u);
    // A line write to a fresh page faults once and lands data and tag
    // together; a tag write to that page afterwards faults nothing.
    const std::uint64_t line = 6 * mem::kCowPageBytes + 3 * mem::kLineBytes;
    mem::TaggedLine tagged;
    tagged.data.fill(0x5c);
    tagged.tag = true;
    store.writeLine(line, tagged);
    EXPECT_EQ(store.cowFaults(), 3u);
    mem::TaggedLine back = store.readLine(line);
    EXPECT_EQ(back.data, tagged.data);
    EXPECT_TRUE(back.tag);
    store.setTag(line + mem::kLineBytes, true);
    EXPECT_EQ(store.cowFaults(), 3u);
    EXPECT_EQ(store.sharedPages(), 13u);
}

TEST(CowStore, TagWordsNeverStraddlePages)
{
    // Global tag word w covers 64 lines = half a page, so page p owns
    // exactly tag words 2p and 2p+1. Setting the last line of page 0
    // and the first line of page 1 must fault the two pages
    // independently.
    mem::CowStore store(4 * mem::kCowPageBytes);
    store.setTag(mem::kCowPageBytes - mem::kLineBytes, true);
    EXPECT_EQ(store.cowFaults(), 1u);
    store.setTag(mem::kCowPageBytes, true);
    EXPECT_EQ(store.cowFaults(), 2u);
    EXPECT_EQ(store.tagPopCount(), 2u);
}

TEST(CowStore, ForkIsolatesWritesBothWays)
{
    mem::CowStore parent(8 * mem::kCowPageBytes);
    parent.writeByte(100, 1);
    parent.setTag(0, true);
    std::shared_ptr<mem::CowStore> child = parent.fork();
    EXPECT_EQ(child->cowFaults(), 0u);
    EXPECT_EQ(child->readByte(100), 1u);
    EXPECT_TRUE(child->tag(0));

    child->writeByte(100, 2);
    EXPECT_EQ(child->cowFaults(), 1u);
    EXPECT_EQ(parent.readByte(100), 1u);

    // The parent's page went shared again at fork time, so its next
    // write faults a private copy too — invisible to the child.
    parent.writeByte(101, 3);
    EXPECT_EQ(parent.readByte(100), 1u);
    EXPECT_EQ(child->readByte(101), 0u);
    child->setTag(0, false);
    EXPECT_TRUE(parent.tag(0));
}

TEST(CowStore, ZeroPageIsNeverWrittenInPlace)
{
    // Once every other slot has gone private, the last slot on the
    // zero page is its only slot reference; a write must still clone.
    for (std::uint64_t pages : {1u, 3u}) {
        mem::CowStore store(pages * mem::kCowPageBytes);
        for (std::uint64_t p = 0; p < pages; ++p) {
            ASSERT_TRUE(store.isZeroPage(p));
            store.writeByte(p * mem::kCowPageBytes + 9, 0x5a);
            store.setTag(p * mem::kCowPageBytes, true);
            EXPECT_FALSE(store.isZeroPage(p));
        }
        EXPECT_EQ(store.cowFaults(), pages);
        const mem::CowPage zero{};
        EXPECT_EQ(store.zeroPage().data, zero.data);
        EXPECT_EQ(store.zeroPage().tags, zero.tags);
        EXPECT_EQ(store.readByte(9), 0x5au);
    }
}

TEST(MachineFork, ForkAndRestoreKeepUntouchedSlotsOnTheZeroPage)
{
    core::Machine parent(smallConfig());
    const std::uint64_t written = 3, untouched = 5, later = 7;
    parent.cowStore().writeByte(written * mem::kCowPageBytes, 1);
    std::unique_ptr<core::Machine> checkpoint = parent.fork();
    EXPECT_TRUE(checkpoint->cowStore().isZeroPage(untouched));
    EXPECT_FALSE(checkpoint->cowStore().isZeroPage(written));

    parent.cowStore().writeByte(later * mem::kCowPageBytes, 2);
    parent.cowStore().setTag(untouched * mem::kCowPageBytes, true);
    EXPECT_FALSE(parent.cowStore().isZeroPage(later));
    parent.restoreFrom(*checkpoint);
    EXPECT_TRUE(parent.cowStore().isZeroPage(untouched));
    EXPECT_TRUE(parent.cowStore().isZeroPage(later));
    EXPECT_FALSE(parent.cowStore().isZeroPage(written));
    EXPECT_EQ(parent.cowStore().readByte(later * mem::kCowPageBytes), 0u);
    EXPECT_EQ(parent.cowStore().readByte(written * mem::kCowPageBytes), 1u);
    EXPECT_FALSE(parent.cowStore().tag(untouched * mem::kCowPageBytes));

    // A fresh machine rolled back to another machine's checkpoint
    // adopts that machine's zero page too.
    core::Machine restored(smallConfig());
    restored.restoreFrom(*checkpoint);
    EXPECT_TRUE(restored.cowStore().isZeroPage(untouched));
    EXPECT_FALSE(restored.cowStore().isZeroPage(written));
}

/**
 * Every layer copies state sized by its own config, so a checkpoint
 * built from a different MachineConfig must panic rather than leave a
 * small TLB over-full, a predictor resized or a small tag cache with
 * an over-full LRU.
 */
TEST(MachineFork, RestoreFromRejectsADifferentConfig)
{
    core::Machine checkpoint(smallConfig());
    core::MachineConfig tlb = smallConfig();
    tlb.tlb.entries /= 2;
    core::MachineConfig predictor = smallConfig();
    predictor.timing.predictor_entries /= 2;
    core::MachineConfig tag_cache = smallConfig();
    tag_cache.tag_cache.capacity_bytes /= 2;
    for (const core::MachineConfig &config : {tlb, predictor, tag_cache}) {
        core::Machine machine(config);
        EXPECT_DEATH(machine.restoreFrom(checkpoint),
                     "different MachineConfig");
    }
}

/**
 * A rolled-back machine shares every page with its checkpoint, and the
 * checkpoint is a live Machine that can still be written: a write on
 * either side must clone the page first and stay invisible to the
 * other.
 */
TEST(MachineFork, RestoreFromIsIsolatedFromItsCheckpoint)
{
    core::Machine checkpoint(smallConfig());
    const std::uint64_t page = 4 * mem::kCowPageBytes;
    checkpoint.cowStore().writeByte(page, 0x11);
    checkpoint.cowStore().setTag(page, true);
    core::Machine machine(smallConfig());
    machine.restoreFrom(checkpoint);
    ASSERT_EQ(machine.cowStore().readByte(page), 0x11u);
    ASSERT_TRUE(machine.cowStore().tag(page));

    // Each side writes a byte and a tag of the shared page: one the
    // other side has, one it does not.
    machine.cowStore().writeByte(page, 0x22);
    machine.cowStore().setTag(page, false);
    checkpoint.cowStore().writeByte(page + 1, 0x33);
    checkpoint.cowStore().setTag(page + mem::kLineBytes, true);

    EXPECT_EQ(checkpoint.cowStore().readByte(page), 0x11u);
    EXPECT_TRUE(checkpoint.cowStore().tag(page));
    EXPECT_EQ(machine.cowStore().readByte(page + 1), 0u);
    EXPECT_FALSE(machine.cowStore().tag(page + mem::kLineBytes));
    EXPECT_EQ(machine.cowStore().readByte(page), 0x22u);
    EXPECT_FALSE(machine.cowStore().tag(page));
    EXPECT_EQ(checkpoint.cowStore().readByte(page + 1), 0x33u);
    EXPECT_TRUE(checkpoint.cowStore().tag(page + mem::kLineBytes));
}

// --- Machine::fork basics --------------------------------------------

TEST(MachineFork, ChildStartsWithZeroCowFaults)
{
    core::Machine parent(smallConfig());
    parent.cowStore().writeByte(0x1000, 0x42);
    std::unique_ptr<core::Machine> child = parent.fork();
    EXPECT_EQ(child->cowStore().cowFaults(), 0u);
    EXPECT_EQ(child->cowStore().readByte(0x1000), 0x42u);
    child->cowStore().writeByte(0x1000, 0x43);
    EXPECT_EQ(child->cowStore().cowFaults(), 1u);
    EXPECT_EQ(parent.cowStore().readByte(0x1000), 0x42u);
}

TEST(MachineFork, SnapshotRoundTripsOnAFork)
{
    core::Machine parent(smallConfig());
    workloads::GuestProgram prog = kernelByName("treeadd");
    workloads::loadGuestProgram(parent, prog);
    std::unique_ptr<core::Machine> child = parent.fork();
    std::unique_ptr<core::Machine> mid = child->fork();
    core::RunLimits limits;
    limits.max_instructions = 500;
    child->cpu().run(limits);
    child->restoreFrom(*mid);
    core::RunResult done = child->cpu().run(core::RunLimits{});
    EXPECT_EQ(done.reason, core::StopReason::kBreak);
    EXPECT_EQ(child->cpu().gpr(isa::reg::v0), prog.expected_checksum);
}

TEST(MachineFork, ForkChainSeesAncestorWritesNotDescendants)
{
    core::Machine root(smallConfig());
    std::vector<std::unique_ptr<core::Machine>> chain;
    core::Machine *parent = &root;
    for (std::uint64_t depth = 0; depth < 8; ++depth) {
        parent->cowStore().writeByte(depth * mem::kCowPageBytes,
                                 static_cast<std::uint8_t>(depth + 1));
        chain.push_back(parent->fork());
        parent = chain.back().get();
    }
    // The deepest fork sees every ancestor write...
    for (std::uint64_t depth = 0; depth < 8; ++depth)
        EXPECT_EQ(parent->cowStore().readByte(depth * mem::kCowPageBytes),
                  depth + 1);
    // ...and a write at the bottom never propagates up the chain.
    parent->cowStore().writeByte(0, 0xff);
    EXPECT_EQ(root.cowStore().readByte(0), 1u);
    for (std::size_t i = 0; i + 1 < chain.size(); ++i)
        EXPECT_EQ(chain[i]->cowStore().readByte(0), 1u);
}

// --- one copy path: fork and restoreFrom are invisible --------------

/** Parameter: kernel x host tier. */
class MachineCopy
    : public ::testing::TestWithParam<std::tuple<std::string, core::HostTier>>
{
};

TEST_P(MachineCopy, ForkAndRestoreFromAreInvisible)
{
    const auto &[kernel, tier] = GetParam();
    const bool superblocks = tier == core::HostTier::kSuperblock;
    workloads::GuestProgram prog = kernelByName(kernel);
    core::MachineConfig config = smallConfig();
    config.accel.tier = tier;

    // Uninterrupted baseline. Two runs are "the same" iff every
    // simulated counter (Machine::counters()) is equal.
    core::Machine baseline(config);
    workloads::loadGuestProgram(baseline, prog);
    ASSERT_EQ(baseline.cpu().run(core::RunLimits{}).reason,
              core::StopReason::kBreak);
    ASSERT_EQ(baseline.cpu().gpr(isa::reg::v0), prog.expected_checksum);
    support::StatSet expected = baseline.counters();
    std::uint64_t clean_instructions = baseline.cpu().totalInstructions();
    ASSERT_GT(clean_instructions, 100u);

    // Fork mid-kernel — mid-superblock-working-set at kSuperblock. The
    // fork never runs: it is the checkpoint.
    core::Machine parent(config);
    workloads::loadGuestProgram(parent, prog);
    core::RunLimits half;
    half.max_instructions = clean_instructions / 2;
    ASSERT_EQ(parent.cpu().run(half).reason, core::StopReason::kInstLimit);
    if (superblocks) {
        ASSERT_GT(parent.cpu().superblockStats().entered, 0u);
    }
    std::unique_ptr<core::Machine> checkpoint = parent.fork();

    // Forking must not perturb the parent's continuation...
    ASSERT_EQ(parent.cpu().run(core::RunLimits{}).reason,
              core::StopReason::kBreak);
    EXPECT_EQ(parent.counters().all(), expected.all());
    EXPECT_EQ(parent.cpu().gpr(isa::reg::v0), prog.expected_checksum);

    // ...and a fork of the fork finishes bit for bit equal to it: all
    // counters, every DRAM line with its tag.
    std::unique_ptr<core::Machine> replay = checkpoint->fork();
    ASSERT_EQ(replay->cpu().run(core::RunLimits{}).reason,
              core::StopReason::kBreak);
    EXPECT_EQ(replay->counters().all(), expected.all());
    EXPECT_EQ(replay->cpu().gpr(isa::reg::v0), prog.expected_checksum);
    EXPECT_EQ(dramMismatch(*replay,
                           [&](std::uint64_t paddr) {
                               return parent.cowStore().readLine(paddr);
                           }),
              "");

    // Rolling back to the checkpoint must replay the identical tail,
    // twice, to the same DRAM. The rollback keeps no superblock: the
    // tail mints every block it needs afresh, counter-invisibly.
    for (int round = 0; round < 2; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        replay->restoreFrom(*checkpoint);
        EXPECT_EQ(replay->cpu().totalInstructions(), half.max_instructions);
        core::SuperblockStats before = replay->cpu().superblockStats();
        ASSERT_EQ(replay->cpu().run(core::RunLimits{}).reason,
                  core::StopReason::kBreak);
        EXPECT_EQ(replay->counters().all(), expected.all());
        EXPECT_EQ(replay->cpu().gpr(isa::reg::v0), prog.expected_checksum);
        EXPECT_EQ(dramMismatch(*replay,
                               [&](std::uint64_t paddr) {
                                   return parent.cowStore().readLine(paddr);
                               }),
                  "");
        if (superblocks) {
            // A block kept across the rollback would fail its entry
            // guard; the kernels modify no code, so none may.
            const core::SuperblockStats &after =
                replay->cpu().superblockStats();
            EXPECT_GT(after.minted, before.minted);
            EXPECT_EQ(after.guard_fails, before.guard_fails);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, MachineCopy,
    ::testing::Combine(::testing::Values("treeadd", "bisort", "mst",
                                         "em3d"),
                       ::testing::Values(core::HostTier::kReference,
                                         core::HostTier::kFast,
                                         core::HostTier::kSuperblock)),
    [](const auto &info) {
        return std::get<0>(info.param) + "_" +
               core::hostTierName(std::get<1>(info.param));
    });

// --- fork vs restoreFrom clone differential -------------------------

/** Parameter: kernel x (above the reference tier, superblock tier). */
class ForkVsClone
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::tuple<bool, bool>>>
{
};

TEST_P(ForkVsClone, ForkedRunMatchesDeepCloneBitForBit)
{
    const std::string &kernel = std::get<0>(GetParam());
    auto [fast, superblocks] = std::get<1>(GetParam());
    workloads::GuestProgram prog = kernelByName(kernel);

    core::MachineConfig config = smallConfig();
    config.accel.tier = !fast        ? core::HostTier::kReference
                        : superblocks ? core::HostTier::kSuperblock
                                      : core::HostTier::kFast;
    core::Machine parent(config);
    workloads::loadGuestProgram(parent, prog);
    core::RunLimits warm;
    warm.max_instructions = 300;
    ASSERT_EQ(parent.cpu().run(warm).reason,
              core::StopReason::kInstLimit);

    // Clone: a fresh machine of the parent's config (host tier
    // included, its own store and zero page) rolled back to the
    // parent. fork() reaches the same state over store_->fork()
    // instead, so the two builds must agree.
    core::Machine clone(parent.config());
    clone.restoreFrom(parent);

    std::unique_ptr<core::Machine> fork = parent.fork();

    core::RunResult clone_done = clone.cpu().run(core::RunLimits{});
    core::RunResult fork_done = fork->cpu().run(core::RunLimits{});
    ASSERT_EQ(clone_done.reason, core::StopReason::kBreak);
    ASSERT_EQ(fork_done.reason, core::StopReason::kBreak);
    EXPECT_EQ(fork->cpu().gpr(isa::reg::v0), prog.expected_checksum);
    EXPECT_EQ(fork->counters().all(), clone.counters().all());
    EXPECT_EQ(dramMismatch(*fork,
                           [&](std::uint64_t paddr) {
                               return clone.cowStore().readLine(paddr);
                           }),
              "");
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, ForkVsClone,
    ::testing::Combine(
        ::testing::Values("treeadd", "bisort", "mst", "em3d"),
        ::testing::Values(std::make_tuple(false, false),
                          std::make_tuple(true, false),
                          std::make_tuple(true, true))));

/**
 * A fork runs at its parent's tier. Tiers are counter-invisible by
 * design, so no counter comparison can catch a fork that drops its
 * tier: only the fork's own config and its host-side superblock
 * counters show which tier it runs at.
 */
TEST(MachineFork, ForkKeepsItsHostTier)
{
    workloads::GuestProgram prog = kernelByName("treeadd");
    for (core::HostTier tier :
         {core::HostTier::kReference, core::HostTier::kFast,
          core::HostTier::kSuperblock}) {
        SCOPED_TRACE(core::hostTierName(tier));
        core::MachineConfig config = smallConfig();
        config.accel.tier = tier;
        core::Machine parent(config);
        workloads::loadGuestProgram(parent, prog);
        std::unique_ptr<core::Machine> fork = parent.fork();
        EXPECT_EQ(fork->cpu().accelConfig().tier, tier);

        core::RunResult done = fork->cpu().run(core::RunLimits{});
        ASSERT_EQ(done.reason, core::StopReason::kBreak);
        EXPECT_EQ(fork->cpu().gpr(isa::reg::v0), prog.expected_checksum);
        EXPECT_EQ(fork->cpu().superblockStats().entered > 0,
                  tier == core::HostTier::kSuperblock);
    }
}

// --- randomized sibling isolation ------------------------------------

TEST(MachineFork, SiblingWritesAreInvisibleToEachOther)
{
    constexpr std::uint64_t kDram = 2 * 1024 * 1024;
    constexpr int kSiblings = 6;
    core::MachineConfig config;
    config.dram_bytes = kDram;
    core::Machine parent(config);

    // Seed the parent with a nonzero background pattern, modelled
    // independently of the COW store.
    std::vector<std::uint8_t> base_bytes(kDram);
    std::vector<bool> base_tags(kDram / mem::kLineBytes);
    support::Xoshiro256 seed_rng(7);
    for (int i = 0; i < 512; ++i) {
        std::uint64_t addr = seed_rng.next() % kDram;
        auto value = static_cast<std::uint8_t>(seed_rng.next());
        parent.cowStore().writeByte(addr, value);
        base_bytes[addr] = value;
        std::uint64_t line = (seed_rng.next() % kDram) &
                             ~(mem::kLineBytes - 1);
        parent.cowStore().setTag(line, true);
        base_tags[line / mem::kLineBytes] = true;
    }
    // Expected line 'paddr' of a machine holding these bytes and tags.
    auto modelLine = [](const std::vector<std::uint8_t> &bytes,
                        const std::vector<bool> &tags,
                        std::uint64_t paddr) {
        mem::TaggedLine line;
        std::copy_n(bytes.begin() + static_cast<std::ptrdiff_t>(paddr),
                    mem::kLineBytes, line.data.begin());
        line.tag = tags[paddr / mem::kLineBytes];
        return line;
    };

    std::vector<std::unique_ptr<core::Machine>> siblings;
    for (int s = 0; s < kSiblings; ++s)
        siblings.push_back(parent.fork());

    // Interleave randomized writes round-robin across the siblings,
    // tracking what each one should see in a private model.
    std::vector<std::map<std::uint64_t, std::uint8_t>> byte_model(
        kSiblings);
    std::vector<std::map<std::uint64_t, bool>> tag_model(kSiblings);
    support::Xoshiro256 rng(11);
    for (int round = 0; round < 400; ++round) {
        int s = round % kSiblings;
        std::uint64_t addr = rng.next() % kDram;
        auto value = static_cast<std::uint8_t>(rng.next());
        siblings[s]->cowStore().writeByte(addr, value);
        byte_model[s][addr] = value;
        std::uint64_t line = (rng.next() % kDram) &
                             ~(mem::kLineBytes - 1);
        bool tag = (rng.next() & 1) != 0;
        siblings[s]->cowStore().setTag(line, tag);
        tag_model[s][line] = tag;
    }

    // Exit sweep: every DRAM line and its tag, all siblings and the
    // parent, against base-pattern-plus-own-model.
    EXPECT_EQ(dramMismatch(parent,
                           [&](std::uint64_t paddr) {
                               return modelLine(base_bytes, base_tags,
                                                paddr);
                           }),
              "");
    for (int s = 0; s < kSiblings; ++s) {
        std::vector<std::uint8_t> expect_bytes = base_bytes;
        for (const auto &[addr, value] : byte_model[s])
            expect_bytes[addr] = value;
        std::vector<bool> expect_tags = base_tags;
        for (const auto &[line, tag] : tag_model[s])
            expect_tags[line / mem::kLineBytes] = tag;
        EXPECT_EQ(dramMismatch(*siblings[s],
                               [&](std::uint64_t paddr) {
                                   return modelLine(expect_bytes,
                                                    expect_tags, paddr);
                               }),
                  "")
            << "sibling " << s;
    }
}

} // namespace
