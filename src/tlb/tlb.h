/**
 * @file
 * Translation lookaside buffer. R4000-flavoured in spirit but with a
 * hardware-assisted refill from the PageTable (at a modeled cycle
 * cost) so the emulator does not need a software refill handler on the
 * hot path. Default capacity covers 1 MB of 4 KB pages, matching the
 * knee the paper observes in Figure 5.
 *
 * Capability addressing occurs *before* translation (Section 1): the
 * CPU bounds-checks the virtual address against a capability, then
 * asks the TLB for the physical address. The TLB additionally gates
 * capability loads and stores on the CHERI PTE bits.
 */

#ifndef CHERI_TLB_TLB_H
#define CHERI_TLB_TLB_H

#include <array>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <utility>
#include <vector>

#include "support/bits.h"
#include "support/stats.h"
#include "tlb/page_table.h"

namespace cheri::tlb
{

/** What kind of access is being translated. */
enum class Access
{
    kFetch,
    kLoad,
    kStore,
    kCapLoad,  ///< CLC: loads a capability (checks PTE cap_load)
    kCapStore, ///< CSC: stores a capability (checks PTE cap_store)
};

/** Why a translation failed. */
enum class TlbFault
{
    kNone,
    kNoMapping,   ///< page not present in the page table
    kNotReadable,
    kNotWritable,
    kNotExecutable,
    kCapLoadDenied,  ///< CHERI PTE bit absent for a capability load
    kCapStoreDenied, ///< CHERI PTE bit absent for a capability store
};

/** Result of a translation. */
struct TlbResult
{
    TlbFault fault = TlbFault::kNone;
    std::uint64_t paddr = 0;
    /** Extra cycles charged for this translation (refill cost). */
    std::uint64_t penalty_cycles = 0;

    bool ok() const { return fault == TlbFault::kNone; }
};

/** TLB configuration. */
struct TlbConfig
{
    /** Entries; 256 x 4 KB pages = 1 MB of coverage (Figure 5). */
    unsigned entries = 256;
    /** Modeled refill penalty on a miss that hits the page table. */
    std::uint64_t refill_cycles = 30;

    bool operator==(const TlbConfig &) const = default;
};

/**
 * The fault an access of kind `access` takes on a page with `flags`,
 * or kNone when the PTE grants it.
 */
constexpr TlbFault
pteFault(const PteFlags &flags, Access access)
{
    switch (access) {
      case Access::kFetch:
        return flags.executable ? TlbFault::kNone
                                : TlbFault::kNotExecutable;
      case Access::kLoad:
        return flags.readable ? TlbFault::kNone : TlbFault::kNotReadable;
      case Access::kStore:
        return flags.writable ? TlbFault::kNone : TlbFault::kNotWritable;
      case Access::kCapLoad:
        return !flags.readable  ? TlbFault::kNotReadable
               : !flags.cap_load ? TlbFault::kCapLoadDenied
                                 : TlbFault::kNone;
      case Access::kCapStore:
        return !flags.writable   ? TlbFault::kNotWritable
               : !flags.cap_store ? TlbFault::kCapStoreDenied
                                  : TlbFault::kNone;
    }
    return TlbFault::kNone;
}

/**
 * Fully associative, LRU-replaced TLB backed by a PageTable.
 *
 * Stats: "tlb.hits", "tlb.misses", "tlb.faults".
 */
class Tlb
{
  private:
    struct CachedEntry;

  public:
    explicit Tlb(const PageTable &table, TlbConfig config = {});

    /**
     * A host-side shortcut to one cached entry: its page, frame and
     * PTE flags as copied when the handle was minted. A handle is
     * current while no cached entry has been dropped or rewritten
     * since (flush, flushPage, setTable, a capacity eviction,
     * corruptEntry and copyStateFrom all bump the generation), so a
     * current handle's entry pointer is live and its copies match the
     * entry. Callers keep one per stream they translate (the CPU's
     * fetch stream, each data-memo line); the TLB keeps a table of
     * them for callers that hold none. Default-constructed handles
     * are never current.
     */
    struct Handle
    {
        std::uint64_t vpn = ~0ULL;
        std::uint64_t generation = ~0ULL;
        CachedEntry *entry = nullptr;
        std::uint64_t frame_base = 0;
        PteFlags flags{};
    };

    /** True while the handle names its live entry. */
    bool current(const Handle &handle) const
    {
        return handle.generation == generation_;
    }

    /**
     * Translate vaddr for the given access kind. A hint that is current
     * for the page and whose flags grant the access replays the hit
     * (stat bump, LRU move) right here; failing that the memo slot for
     * the page does, with the PTE check; anything else falls through
     * to translateSlow. A successful translation re-mints the hint, a
     * failed one leaves it untouched. The hint half is forced inline,
     * so the access kind folds to a constant on the CPU's per-access
     * hot path.
     */
    CHERI_FORCE_INLINE TlbResult
    translate(std::uint64_t vaddr, Access access, Handle *hint = nullptr)
    {
        std::uint64_t vpn = vaddr / kPageBytes;
        if (hint != nullptr && hint->vpn == vpn && current(*hint) &&
            pteFault(hint->flags, access) == TlbFault::kNone) {
            hit(*hint);
            TlbResult result;
            result.paddr = hint->frame_base + vaddr % kPageBytes;
            return result;
        }
        return translateMemo(vaddr, access, hint);
    }

    /**
     * Mint a handle for the page containing vaddr if it is cached and
     * its PTE grants the access. Pure host-side probe: no stats, no LRU
     * movement, no penalty — the superblock tier uses it at block mint
     * and entry, where nothing simulated has happened yet.
     */
    bool
    probe(std::uint64_t vaddr, Access access, Handle &out)
    {
        auto it = cached_.find(vaddr / kPageBytes);
        if (it == cached_.end() ||
            pteFault(it->second.pte.flags, access) != TlbFault::kNone)
            return false;
        out = handleFor(it->first, it->second);
        return true;
    }

    /**
     * The LRU half of a hit on a current handle's entry. The
     * superblock tier replays each fetch as a touch and settles the
     * stat half through countHits on block exit, so the hit counter and
     * the LRU order match the per-instruction path at every commit
     * boundary.
     */
    void
    touch(const Handle &handle)
    {
        auto &lru_it = handle.entry->lru_it;
        if (lru_.begin() != lru_it)
            lru_.splice(lru_.begin(), lru_, lru_it);
    }

    /** Settle n hits whose LRU half was replayed by touch. */
    void countHits(std::uint64_t n) { *hits_ += n; }

    /**
     * Side-effect-free translation probe for the cache prefetcher: if
     * the page containing vaddr is currently TLB-resident and
     * readable, produce the physical address. No stats, no LRU
     * movement, no page-table refill, and no fault — a prefetch is a
     * hint, so a miss simply returns false. Residency at any demand
     * miss point is host-tier invariant (hits through handles maintain
     * hits, LRU, and evictions identically), so prefetch
     * decisions gated on this probe cannot diverge across tiers.
     */
    bool
    probePrefetch(std::uint64_t vaddr, std::uint64_t &paddr) const
    {
        auto it = cached_.find(vaddr / kPageBytes);
        if (it == cached_.end() || !it->second.pte.flags.readable)
            return false;
        paddr = it->second.pte.pfn * kPageBytes + vaddr % kPageBytes;
        return true;
    }

    /**
     * Switch to another address space's page table (context switch);
     * flushes all cached entries.
     */
    void setTable(const PageTable &table);

    /** Drop every cached entry (context switch, unmap/revocation). */
    void flush();

    /** Drop any cached entry for the page containing vaddr. */
    void flushPage(std::uint64_t vaddr);

    const support::StatSet &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }

    // --- fault-injection introspection (host-side; no stats) ---

    /** Cached vpns, most-recently-used first — a deterministic
     *  enumeration for fault-candidate selection. */
    std::vector<std::uint64_t> cachedVpns() const;

    /**
     * Overwrite the cached PTE for vpn (fault injection). Bumps the
     * generation, so every outstanding handle, whose flags and frame
     * copy the old PTE, is dropped and all subsequent translations
     * consistently observe the corrupted entry. Returns false when vpn
     * is not cached.
     */
    bool corruptEntry(std::uint64_t vpn, const Pte &pte);

    /**
     * Copy other's cached entries (LRU order kept) and statistics;
     * the backing PageTable is copied separately by its owner. Bumps
     * the generation, so handles re-mint through the slow path —
     * which replays hits exactly, leaving counters unperturbed.
     */
    void copyStateFrom(const Tlb &other);

  private:
    /**
     * The memo half of translate. Not forced inline: callers that hold
     * a hint reach it only when the hint is stale, while those that
     * hold none (the reference tier, TimingContext) still inline it.
     */
    TlbResult
    translateMemo(std::uint64_t vaddr, Access access, Handle *hint)
    {
        std::uint64_t vpn = vaddr / kPageBytes;
        const Handle &memo = memo_[vpn & (memo_.size() - 1)];
        if (memo.vpn == vpn && current(memo)) {
            hit(memo);
            TlbResult result = check(memo, vaddr, access, 0);
            if (hint != nullptr && result.ok())
                *hint = memo;
            return result;
        }
        return translateSlow(vaddr, access, hint);
    }

    /** Out-of-line half of translate: hash find, refill, fault. */
    TlbResult translateSlow(std::uint64_t vaddr, Access access,
                            Handle *hint);

    Handle
    handleFor(std::uint64_t vpn, CachedEntry &entry) const
    {
        return Handle{vpn, generation_, &entry, entry.pte.pfn * kPageBytes,
                      entry.pte.flags};
    }

    /** A hit on a current handle's entry: stat bump and LRU move. */
    CHERI_FORCE_INLINE void
    hit(const Handle &handle)
    {
        ++*hits_;
        touch(handle);
    }

    /** Permission check + physical-address assembly for a handle's
     *  page. Inline: runs on every translation. */
    TlbResult
    check(const Handle &handle, std::uint64_t vaddr, Access access,
          std::uint64_t penalty)
    {
        TlbResult result;
        result.penalty_cycles = penalty;
        result.paddr = handle.frame_base + vaddr % kPageBytes;
        result.fault = pteFault(handle.flags, access);
        if (result.fault != TlbFault::kNone)
            ++*faults_;
        return result;
    }

    const PageTable *table_;
    TlbConfig config_;

    std::list<std::uint64_t> lru_; ///< vpns, most recent first
    struct CachedEntry
    {
        Pte pte;
        std::list<std::uint64_t>::iterator lru_it;
    };
    std::unordered_map<std::uint64_t, CachedEntry> cached_;

    /**
     * Direct-mapped memo of handles in front of cached_, indexed by
     * vpn, for callers that hold no handle of their own (the
     * reference tier, TimingContext, debug accesses). 64 slots: the
     * Olden working sets touch dozens of data pages and a 4-entry
     * memo thrashed (over half of data translations fell through to
     * the hash find).
     */
    std::array<Handle, 64> memo_{};

    /** Bumped whenever any cached entry is erased or rewritten; guards
     *  every Handle. CachedEntry pointers are stable under rehash and
     *  under insert/erase of *other* keys, so a handle whose generation
     *  still matches is guaranteed to point at its live entry. */
    std::uint64_t generation_ = 0;

    support::StatSet stats_;
    // Pre-resolved counter slots for the per-access hot path.
    std::uint64_t *hits_ = nullptr;
    std::uint64_t *misses_ = nullptr;
    std::uint64_t *faults_ = nullptr;
};

} // namespace cheri::tlb

#endif // CHERI_TLB_TLB_H
