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
     * Translate vaddr for the given access kind. Inline: the memo-hit
     * path (the common case on the interpreter's per-access hot path)
     * replays the full hit — stat bump, LRU move, permission check —
     * without a cross-TU call; everything else falls through to
     * translateSlow.
     */
    TlbResult
    translate(std::uint64_t vaddr, Access access)
    {
        std::uint64_t vpn = vaddr / kPageBytes;
        TranslateMemo &memo = memo_[vpn & (memo_.size() - 1)];
        if (memo.generation == generation_ && memo.vpn == vpn) {
            // Replay of the hit path in translateSlow without the
            // hash find; the splice guard is a no-op difference
            // (front-to-front splices do nothing).
            ++*hits_;
            auto &lru_it = memo.entry->lru_it;
            if (lru_.begin() != lru_it)
                lru_.splice(lru_.begin(), lru_, lru_it);
            return checkPte(memo.entry->pte, vaddr, access, 0);
        }
        return translateSlow(vaddr, access);
    }

    /**
     * Caller-held accelerator for instruction-fetch translations.
     * Sequential fetches hit the same page almost every cycle, so the
     * CPU keeps one of these per fetch stream and translateFetch can
     * skip the hash lookup while the hint is fresh. Hints are
     * invalidated wholesale by a generation bump whenever any cached
     * entry is dropped (flush, flushPage, setTable, or capacity
     * eviction), so a stale hint can never alias a different page.
     * Default-constructed hints never match and are always safe.
     */
    struct FetchHint
    {
        std::uint64_t vpn = ~0ULL;
        std::uint64_t paddr_base = 0;
        std::uint64_t generation = ~0ULL;
        CachedEntry *entry = nullptr;
    };

    /**
     * Translate vaddr for instruction fetch, consulting and refreshing
     * the hint. Exactly equivalent to translate(vaddr, kFetch) in
     * stats, LRU state, penalty cycles, and result — the hint only
     * short-circuits the host-side hash find on the hit path. Inline:
     * this runs once per simulated instruction.
     */
    TlbResult
    translateFetch(std::uint64_t vaddr, FetchHint &hint)
    {
        std::uint64_t vpn = vaddr / kPageBytes;
        if (hint.generation == generation_ && hint.vpn == vpn) {
            // Replay of the translate() hit path: same stat bump, same
            // LRU outcome (splicing the front element to the front is
            // a no-op, so the guard below changes nothing observable),
            // zero penalty. checkPte is skipped because the hint is
            // only minted for entries that passed the executable
            // check, and cached PTEs never mutate in place.
            ++*hits_;
            auto &lru_it = hint.entry->lru_it;
            if (lru_.begin() != lru_it)
                lru_.splice(lru_.begin(), lru_, lru_it);
            TlbResult result;
            result.paddr = hint.paddr_base + vaddr % kPageBytes;
            return result;
        }
        return translateFetchMiss(vaddr, hint);
    }

    /**
     * Mint a fetch hint for the page containing vaddr if it is
     * currently cached with execute permission. Pure host-side probe
     * (no stats, no LRU movement, no penalty): the superblock tier
     * uses it at block mint/entry so a block on a page the fetch
     * stream has not touched recently can still validate its
     * translation without simulated effects. The executable check
     * matters — hints skip checkPte on replay, so one may only be
     * minted for entries that would pass it.
     */
    bool probeFetchHint(std::uint64_t vaddr, FetchHint &hint)
    {
        auto it = cached_.find(vaddr / kPageBytes);
        if (it == cached_.end() || !it->second.pte.flags.executable)
            return false;
        hint.vpn = vaddr / kPageBytes;
        hint.paddr_base = it->second.pte.pfn * kPageBytes;
        hint.generation = generation_;
        hint.entry = &it->second;
        return true;
    }

    /**
     * Replay the LRU half of the translateFetch() hit path for a
     * still-valid hint (caller checked the generation): same LRU
     * outcome, zero penalty. checkPte is skipped for the same reason
     * translateFetch skips it — hints are only minted for entries
     * that passed the executable check and cached PTEs never mutate
     * in place. The stat half is deferred: the superblock tier counts
     * hits locally and settles them through applyDeferredFetchHits on
     * block exit, so the TLB hit counter and LRU order stay
     * bit-identical to the per-instruction path at every commit
     * boundary.
     */
    void replayFetchHitLru(const FetchHint &hint)
    {
        auto &lru_it = hint.entry->lru_it;
        if (lru_.begin() != lru_it)
            lru_.splice(lru_.begin(), lru_, lru_it);
    }

    /**
     * Settle n deferred fetch hits counted by the superblock tier.
     * Pure counter arithmetic — increments commute with the data-side
     * translations that may have interleaved, so the total equals n
     * individual bumps at the original points.
     */
    void applyDeferredFetchHits(std::uint64_t n) { *hits_ += n; }

    /**
     * Caller-held memo for data-side translations — the CPU's data
     * fast path keeps one per memoized line. Like FetchHint it is
     * guarded by the generation counter, so any flush, flushPage,
     * setTable (address-space / ASID change) or capacity eviction
     * invalidates every outstanding hint wholesale. Unlike FetchHint
     * it additionally snapshots the PTE permission flags at mint time
     * (cached PTEs never mutate in place), so the holder can pick the
     * bit its access kind needs and fall back to the slow path — which
     * replays the hit *and* the fault — when it is clear.
     */
    struct DataHint
    {
        std::uint64_t paddr_base = 0;
        std::uint64_t generation = ~0ULL;
        CachedEntry *entry = nullptr;
        PteFlags flags{};
    };

    /** Host-side generation guarding caller-held hints: a hint whose
     *  generation still equals this points at its live entry. */
    std::uint64_t generation() const { return generation_; }

    /**
     * Mint a data hint for the page containing vaddr if it is
     * currently cached. Pure host-side probe: no stats, no LRU
     * movement, no penalty — call it after a successful translate()
     * so the simulated effects have already been counted.
     */
    bool probeDataHint(std::uint64_t vaddr, DataHint &hint)
    {
        auto it = cached_.find(vaddr / kPageBytes);
        if (it == cached_.end())
            return false;
        hint.paddr_base = it->second.pte.pfn * kPageBytes;
        hint.generation = generation_;
        hint.entry = &it->second;
        hint.flags = it->second.pte.flags;
        return true;
    }

    /**
     * Replay the translate() hit path for an entry named by a
     * still-valid hint (caller checked generation and the permission
     * bit): same stat bump, same LRU outcome, zero penalty. checkPte
     * is skipped for exactly the reason translateFetch may skip it —
     * the flags snapshot was taken from the live entry and cached
     * PTEs never mutate in place. Inline: this runs once per
     * memoized data access.
     */
    void replayHit(const DataHint &hint)
    {
        ++*hits_;
        auto &lru_it = hint.entry->lru_it;
        if (lru_.begin() != lru_it)
            lru_.splice(lru_.begin(), lru_, lru_it);
    }

    /**
     * Side-effect-free translation probe for the cache prefetcher: if
     * the page containing vaddr is currently TLB-resident and
     * readable, produce the physical address. No stats, no LRU
     * movement, no page-table refill, and no fault — a prefetch is a
     * hint, so a miss simply returns false. Residency at any demand
     * miss point is host-tier invariant (the fast-path replays
     * maintain hits, LRU, and evictions identically), so prefetch
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
     * generation and clears the memo so every outstanding host hint is
     * dropped and all subsequent translations consistently observe the
     * corrupted entry. Returns false when vpn is not cached.
     */
    bool corruptEntry(std::uint64_t vpn, const Pte &pte);

    /**
     * Copy other's cached entries (LRU order kept) and statistics;
     * the backing PageTable is copied separately by its owner. Bumps
     * the generation and clears the memo, so host-side hints re-mint
     * through the slow path — which replays hits exactly, leaving
     * counters unperturbed.
     */
    void copyStateFrom(const Tlb &other);

  private:
    /** Out-of-line halves of translate/translateFetch. */
    TlbResult translateSlow(std::uint64_t vaddr, Access access);
    TlbResult translateFetchMiss(std::uint64_t vaddr, FetchHint &hint);

    /** Permission check + physical-address assembly for a cached or
     *  freshly refilled PTE. Inline: runs on every translation. */
    TlbResult
    checkPte(const Pte &pte, std::uint64_t vaddr, Access access,
             std::uint64_t penalty)
    {
        TlbResult result;
        result.penalty_cycles = penalty;
        result.paddr = pte.pfn * kPageBytes + vaddr % kPageBytes;

        const PteFlags &f = pte.flags;
        switch (access) {
          case Access::kFetch:
            if (!f.executable)
                result.fault = TlbFault::kNotExecutable;
            break;
          case Access::kLoad:
            if (!f.readable)
                result.fault = TlbFault::kNotReadable;
            break;
          case Access::kStore:
            if (!f.writable)
                result.fault = TlbFault::kNotWritable;
            break;
          case Access::kCapLoad:
            if (!f.readable)
                result.fault = TlbFault::kNotReadable;
            else if (!f.cap_load)
                result.fault = TlbFault::kCapLoadDenied;
            break;
          case Access::kCapStore:
            if (!f.writable)
                result.fault = TlbFault::kNotWritable;
            else if (!f.cap_store)
                result.fault = TlbFault::kCapStoreDenied;
            break;
        }
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
     * Small direct-mapped memo in front of cached_ for data-side
     * translations (the fetch side has its own caller-held hint).
     * Guarded by the same generation as FetchHints; purely a host
     * shortcut — the hit path replays the full translate() hit
     * (stat, LRU, checkPte) so simulated behaviour is unchanged.
     */
    struct TranslateMemo
    {
        std::uint64_t vpn = ~0ULL;
        std::uint64_t generation = ~0ULL;
        CachedEntry *entry = nullptr;
    };
    // 64 slots: the Olden working sets touch dozens of data pages and
    // a 4-entry memo thrashed (over half of data translations fell
    // through to the hash find).
    std::array<TranslateMemo, 64> memo_{};

    /** Bumped whenever any cached entry is erased; guards FetchHints.
     *  CachedEntry pointers are stable under rehash and under
     *  insert/erase of *other* keys, so a hint whose generation still
     *  matches is guaranteed to point at its live entry. */
    std::uint64_t generation_ = 0;

    support::StatSet stats_;
    // Pre-resolved counter slots for the per-access hot path.
    std::uint64_t *hits_ = nullptr;
    std::uint64_t *misses_ = nullptr;
    std::uint64_t *faults_ = nullptr;
};

} // namespace cheri::tlb

#endif // CHERI_TLB_TLB_H
