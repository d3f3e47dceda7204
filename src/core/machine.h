/**
 * @file
 * Machine facade: wires tagged DRAM (one COW store) and the tag
 * manager, the cache hierarchy, the page table and TLB, and the CPU
 * into one CHERI system, and provides the loader conveniences the OS
 * layer, examples and tests build on.
 */

#ifndef CHERI_CORE_MACHINE_H
#define CHERI_CORE_MACHINE_H

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cache/hierarchy.h"
#include "core/cpu.h"
#include "mem/cow_store.h"
#include "mem/tag_manager.h"
#include "support/stats.h"
#include "tlb/page_table.h"
#include "tlb/tlb.h"

namespace cheri::core
{

/** Top-level machine parameters. */
struct MachineConfig
{
    std::uint64_t dram_bytes = 64 * 1024 * 1024;
    mem::TagCacheConfig tag_cache;
    cache::HierarchyConfig caches;
    tlb::TlbConfig tlb;
    CpuTiming timing;
    CpuAccelConfig accel;

    bool operator==(const MachineConfig &) const = default;
};

/** A complete emulated CHERI system. */
class Machine
{
  public:
    explicit Machine(MachineConfig config = {});

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /**
     * Tagged physical memory: DRAM bytes and tags, below the caches
     * (flush first to see guest stores), plus COW metrics and
     * zero-page slots.
     */
    mem::CowStore &cowStore() { return *store_; }
    const mem::CowStore &cowStore() const { return *store_; }
    mem::TagManager &tagManager() { return tag_manager_; }
    cache::CacheHierarchy &memory() { return hierarchy_; }
    tlb::PageTable &pageTable() { return page_table_; }
    tlb::Tlb &tlb() { return tlb_; }
    Cpu &cpu() { return cpu_; }

    /**
     * Allocate one physical frame (bump allocator); nullopt when DRAM
     * is exhausted. The structured form — callers that can surface the
     * error to a user (loaders, CLIs) should prefer it over
     * allocFrame().
     */
    std::optional<std::uint64_t> tryAllocFrame();

    /**
     * Allocate one physical frame; exits via fatal() when DRAM is
     * exhausted (a configuration error: the guest asked for more
     * memory than the machine was given).
     */
    std::uint64_t allocFrame();

    /**
     * Map [vaddr, vaddr+bytes) with fresh frames and the given flags;
     * pages already mapped are left untouched. Returns false (with no
     * partial bookkeeping beyond the pages already mapped) when DRAM
     * runs out of frames.
     */
    [[nodiscard]] bool tryMapRange(std::uint64_t vaddr,
                                   std::uint64_t bytes,
                                   tlb::PteFlags flags = {});

    /**
     * Map [vaddr, vaddr+bytes); exits via fatal() when DRAM is
     * exhausted.
     */
    void mapRange(std::uint64_t vaddr, std::uint64_t bytes,
                  tlb::PteFlags flags = {});

    /** Frames handed out so far (fault injection bounds its DRAM
     *  corruption targets to allocated memory). */
    std::uint64_t allocatedFrames() const { return next_frame_; }

    /**
     * Load a program image at vaddr: maps executable pages and writes
     * the words straight into DRAM (before caches warm, so the L1I
     * never observes stale lines).
     */
    void loadProgram(std::uint64_t vaddr,
                     const std::vector<std::uint32_t> &words);

    /** Point the CPU at an entry point with a fresh register state. */
    void reset(std::uint64_t entry_pc);

    const MachineConfig &config() const { return config_; }

    /**
     * Every simulated counter of the machine in one set, in name
     * order: "instructions" and "cycles", the CPU's instruction-class
     * counters, the memory system's (caches, DRAM and tag manager,
     * see CacheHierarchy::collectStats) and the TLB's. The set is
     * identical at every HostTier and across forks and rollbacks;
     * host-tier counters (Cpu::superblockStats) stay out of it.
     * Returned by value: bind it to a local before iterating all().
     */
    support::StatSet counters() const;

    /**
     * Mint a child machine sharing this machine's DRAM and tag pages
     * copy-on-write. Cost is O(page count) pointer copies plus one
     * copy of the small state (tag cache, caches with dirty lines and
     * LRU, DRAM open-row state, page table, TLB, CPU core and every
     * counter) — no DRAM bytes move until one side writes, when the
     * faulting store clones just that 4 KB page and its tag slice.
     *
     * The child is an exact simulated-state clone: it replays the
     * identical transaction, hit/miss, and cycle sequence the parent
     * would from this point. It is built from this machine's
     * MachineConfig, so it runs at the same HostTier. Host-only
     * accelerator state (decode cache, fetch/data memos, superblocks)
     * is not copied: the child's cache Way storage is a fresh copy, so
     * no LineHandle memo pointing into the parent's ways may survive
     * into it. Host-side hooks (syscall handler, store observers,
     * armed behavioural faults) are NOT copied; re-arm them on the
     * child if needed.
     *
     * A fork that never runs is a checkpoint: restoreFrom() rolls any
     * same-config machine back to it, as often as needed.
     *
     * Forking a quiescent parent is thread-safe (shared pages are
     * never written in place); the parent must outlive no one, but
     * keeping it alive keeps every child's COW fault count — and so
     * any report derived from it — deterministic.
     */
    std::unique_ptr<Machine> fork() const;

    /**
     * Roll this machine back to checkpoint's state in place: adopt its
     * DRAM and tag pages copy-on-write (CowStore::adopt, O(page
     * count); pages on the shared zero page stay there) and copy its
     * small state exactly as fork() does, dropping this machine's host
     * accelerators. Nothing is built or flushed, so this machine then
     * replays the identical transaction, hit/miss, and cycle sequence
     * checkpoint would. Both sides stay isolated: a later write on
     * either clones the page first. This machine keeps its own host
     * hooks. checkpoint must be another machine with an identical
     * MachineConfig (anything else panics) and must not run
     * concurrently; several machines may restore from one quiescent
     * checkpoint at once.
     */
    void restoreFrom(const Machine &checkpoint);

  private:
    Machine(const MachineConfig &config,
            std::shared_ptr<mem::CowStore> store);

    /** Everything but DRAM and tags: the half fork() and
     *  restoreFrom() share. */
    void copyStateFrom(const Machine &other);

    MachineConfig config_;
    std::shared_ptr<mem::CowStore> store_;
    mem::TagManager tag_manager_;
    cache::CacheHierarchy hierarchy_;
    tlb::PageTable page_table_;
    tlb::Tlb tlb_;
    Cpu cpu_;
    std::uint64_t next_frame_ = 0;
};

} // namespace cheri::core

#endif // CHERI_CORE_MACHINE_H
