/**
 * @file
 * Write-back set-associative cache carrying the 257-bit tagged lines
 * of the CHERI memory interface (Section 4.2): every cached 32-byte
 * line travels with its capability tag, so tags accompany data through
 * the hierarchy and reach the CPU without extra table lookups.
 */

#ifndef CHERI_CACHE_CACHE_H
#define CHERI_CACHE_CACHE_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "mem/tag_manager.h"
#include "support/stats.h"

namespace cheri::cache
{

/**
 * Result of a line read from some level: a view of the line plus its
 * cost. The pointer refers into the source's storage and stays valid
 * only until the next operation on that source (or anything below
 * it); callers needing the data past that point must copy. Returning
 * a reference instead of a 32-byte struct keeps the interpreter's
 * fetch/load hot path free of per-access line copies.
 */
struct LineAccess
{
    const mem::TaggedLine *line = nullptr;
    std::uint64_t cycles = 0;
};

/**
 * Anything that can source and sink tagged lines: a lower cache level
 * or the DRAM/tag-manager endpoint.
 */
class LineSource
{
  public:
    virtual ~LineSource() = default;

    /** Read the aligned 32-byte line containing paddr. */
    virtual LineAccess readLine(std::uint64_t paddr) = 0;

    /** Write an aligned 32-byte line; returns the cycle cost. */
    virtual std::uint64_t writeLine(std::uint64_t paddr,
                                    const mem::TaggedLine &line) = 0;
};

/** log2(kLineBytes), for shift-based line indexing. */
inline constexpr unsigned kLineShift = 5;
static_assert((1ULL << kLineShift) == mem::kLineBytes);

class Cache;

/**
 * Notified when a *demand* read/RMW miss fills a line into a cache —
 * the prefetcher trigger point. Deliberately not fired for writeLine
 * fills (writebacks from above, coherence pushes, and full-line
 * capability stores allocate without wanting the old data) nor for
 * prefetch fills themselves. The listener must not recurse into the
 * cache synchronously; the hierarchy queues the trigger and issues
 * prefetches after the demand access completes (off the critical
 * path, which is also why prefetch fills charge no cycles).
 */
class FillListener
{
  public:
    virtual ~FillListener() = default;

    /** line_paddr is 32-byte aligned; line is the content as filled. */
    virtual void onDemandFill(Cache &cache, std::uint64_t line_paddr,
                              const mem::TaggedLine &line) = 0;
};

/**
 * DRAM timing parameters: a simple open-row model, calibrated to the
 * paper's 100 MHz FPGA core, where DDR2 is only on the order of ten
 * CPU cycles away — the reason capability-size overheads stay modest
 * even for miss-dominated traversals (Section 8).
 */
struct DramTiming
{
    /** Cycles for an access that opens a new row. */
    std::uint64_t row_miss_latency = 12;
    /** Cycles for an access falling in the currently open row —
     *  models row-buffer hits and burst locality, which is why
     *  adjacent lines of a large capability-bearing object do not
     *  each pay a full DRAM access (Section 8's observation that the
     *  linear case "would be alleviated with cache prefetching"). */
    std::uint64_t row_hit_latency = 3;
    /** Row size in bytes. */
    std::uint64_t row_bytes = 2048;

    bool operator==(const DramTiming &) const = default;
};

/** DRAM endpoint: TagManager access behind an open-row timing model. */
class DramSource : public LineSource
{
  public:
    DramSource(mem::TagManager &manager, DramTiming timing = {})
        : manager_(manager), timing_(timing)
    {
    }

    LineAccess readLine(std::uint64_t paddr) override;
    std::uint64_t writeLine(std::uint64_t paddr,
                            const mem::TaggedLine &line) override;

    /** Total line transactions (reads + writes), for traffic stats. */
    std::uint64_t transactions() const { return transactions_; }

    /** Copy other's transaction count and open-row state. */
    void
    copyStateFrom(const DramSource &other)
    {
        transactions_ = other.transactions_;
        open_row_ = other.open_row_;
    }

  private:
    std::uint64_t accessLatency(std::uint64_t paddr);

    mem::TagManager &manager_;
    DramTiming timing_;
    std::uint64_t transactions_ = 0;
    std::uint64_t open_row_ = ~0ULL;
    /** Staging buffer backing the LineAccess view of the last read. */
    mem::TaggedLine read_buffer_;
};

/** Geometry and timing of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t size_bytes = 16 * 1024;
    unsigned ways = 4;
    std::uint64_t hit_latency = 1;

    bool operator==(const CacheConfig &) const = default;
};

/**
 * One cache level. Indexed by physical address; LRU within a set;
 * allocate-on-miss for both reads and writes; write-back.
 *
 * Stats (prefixed by config.name): ".hits", ".misses",
 * ".writebacks".
 */
class Cache : public LineSource
{
  private:
    struct Way;

  public:
    Cache(CacheConfig config, LineSource &below);

    LineAccess readLine(std::uint64_t paddr) override;
    std::uint64_t writeLine(std::uint64_t paddr,
                            const mem::TaggedLine &line) override;

    /**
     * Caller-held, revalidated-on-use pointer to a resident line — the
     * host line-pointer cache handed to the CPU's data fast path. A
     * handle names "the way that held line_key when probeHandle minted
     * it"; every use re-checks valid + addr_tag on that way, which any
     * eviction, invalidation, or flush falsifies, and (way, addr_tag)
     * uniquely identifies one physical line (the way pins the set).
     * Ways live in a vector sized once at construction, so the pointer
     * itself never dangles. Default-constructed handles never
     * validate.
     */
    struct LineHandle
    {
        Way *way = nullptr;
        std::uint64_t addr_tag = ~0ULL;
    };

    /**
     * Mint a handle for the line containing paddr if it is resident.
     * Pure host-side probe (no stats, LRU, or cycles) — call it after
     * an access that already counted its simulated effects.
     */
    bool probeHandle(std::uint64_t paddr, LineHandle &out)
    {
        Way *way = probeWay(paddr);
        if (way == nullptr)
            return false;
        out.way = way;
        out.addr_tag = addrTag(paddr);
        return true;
    }

    /** True while the handle still names its resident line. */
    bool
    handleValid(const LineHandle &handle) const
    {
        return handle.way != nullptr && handle.way->valid &&
               handle.way->addr_tag == handle.addr_tag;
    }

    /**
     * Handle-validated read hit: if the handle still names its line,
     * replay exactly the hit effects readLine would produce for it
     * (hit stat, LRU bump, hit latency) and return the line; else
     * nullptr and no effects. The line is resident, so the slow path
     * would have hit — the replay is identical by construction.
     */
    const mem::TaggedLine *
    readHitFast(const LineHandle &handle, std::uint64_t &cycles)
    {
        if (!handleValid(handle))
            return nullptr;
        ++*hits_;
        handle.way->lru = ++lru_clock_;
        cycles += config_.hit_latency;
        noteDemandTouch(*handle.way);
        return &handle.way->line;
    }

    /**
     * Settle n deferred repeat hits on the handle's line at once:
     * equivalent to n consecutive readHitFast calls, provided no
     * other access to this cache interleaved them (the superblock
     * tier guarantees that for the L1I — only fetches touch it, and
     * the deferral window covers one line's straight-line run). The
     * way may since have been invalidated by a store to its line; the
     * final LRU stamp still matches what the last replayed hit wrote
     * before the invalidation, and nothing reads an invalid way's
     * LRU before its next fill.
     */
    void
    applyDeferredHits(const LineHandle &handle, std::uint64_t n)
    {
        if (n == 0)
            return;
        *hits_ += n;
        lru_clock_ += n;
        handle.way->lru = lru_clock_;
    }

    /** Hit latency in cycles (the deferred-replay per-slot stall). */
    std::uint64_t hitLatency() const { return config_.hit_latency; }

    /**
     * Handle-validated store hit: replays both halves of
     * storeAccess's read-modify-write (two hit stats, two LRU bumps,
     * twice the hit latency, dirty) and returns the line for in-place
     * modification; nullptr and no effects when the handle is stale.
     */
    mem::TaggedLine *
    storeHitFast(const LineHandle &handle, std::uint64_t &cycles)
    {
        if (!handleValid(handle))
            return nullptr;
        *hits_ += 2; // read half + guaranteed-hit write half
        lru_clock_ += 2;
        handle.way->lru = lru_clock_;
        cycles += 2 * config_.hit_latency;
        handle.way->dirty = true;
        noteDemandTouch(*handle.way);
        return &handle.way->line;
    }

    /**
     * Handle-validated full-line write hit: replays exactly what
     * writeLine does when it hits (one hit stat, one LRU bump, one
     * hit latency, dirty) and installs the line; false and no effects
     * when the handle is stale.
     */
    bool
    writeLineHitFast(const LineHandle &handle, const mem::TaggedLine &line,
                     std::uint64_t &cycles)
    {
        if (!handleValid(handle))
            return false;
        ++*hits_;
        handle.way->lru = ++lru_clock_;
        cycles += config_.hit_latency;
        handle.way->line = line;
        handle.way->dirty = true;
        noteDemandTouch(*handle.way);
        return true;
    }

    /**
     * Header-inline entry to readLine for the interpreter hot path: a
     * repeat access to a recently memoized line replays the hit
     * effects (hit stat, LRU bump, hit latency) right here, without
     * the cross-TU call into findOrFill; anything else falls through
     * to readLine. Simulated behaviour is identical by construction —
     * this is the same memo findOrFill itself checks first.
     */
    LineAccess
    readLineFast(std::uint64_t paddr)
    {
        std::uint64_t line_key = paddr >> kLineShift;
        const Memo &memo = memo_[line_key & (memo_.size() - 1)];
        if (memo.line_key == line_key && memo.way->valid &&
            memo.way->addr_tag == (line_key >> set_shift_)) {
            ++*hits_;
            memo.way->lru = ++lru_clock_;
            noteDemandTouch(*memo.way);
            return {&memo.way->line, config_.hit_latency};
        }
        return readLine(paddr);
    }

    /**
     * readLineFast that also mints a LineHandle for the accessed
     * line, without a second set scan: every findOrFill path (memo
     * hit, set-scan hit, fill) leaves the memo naming the accessed
     * line's way, so the handle comes straight from the memo. The
     * handle always validates on return — the line is resident by
     * construction.
     */
    LineAccess
    readLineFastHandle(std::uint64_t paddr, LineHandle &out)
    {
        std::uint64_t line_key = paddr >> kLineShift;
        std::uint64_t tag = line_key >> set_shift_;
        const Memo &memo = memo_[line_key & (memo_.size() - 1)];
        if (memo.line_key == line_key && memo.way->valid &&
            memo.way->addr_tag == tag) {
            ++*hits_;
            memo.way->lru = ++lru_clock_;
            noteDemandTouch(*memo.way);
            out.way = memo.way;
            out.addr_tag = tag;
            return {&memo.way->line, config_.hit_latency};
        }
        LineAccess access = readLine(paddr);
        const Memo &filled = memo_[line_key & (memo_.size() - 1)];
        out.way = filled.way;
        out.addr_tag = tag;
        return access;
    }

    /** Header-inline entry to storeAccess, same contract as
     *  readLineFast: the memo-hit case replays both halves of the
     *  read-modify-write here, everything else falls through. */
    mem::TaggedLine &
    storeAccessFast(std::uint64_t paddr, std::uint64_t &cycles)
    {
        std::uint64_t line_key = paddr >> kLineShift;
        const Memo &memo = memo_[line_key & (memo_.size() - 1)];
        if (memo.line_key == line_key && memo.way->valid &&
            memo.way->addr_tag == (line_key >> set_shift_)) {
            *hits_ += 2; // read half + guaranteed-hit write half
            lru_clock_ += 2;
            memo.way->lru = lru_clock_;
            cycles += 2 * config_.hit_latency;
            memo.way->dirty = true;
            noteDemandTouch(*memo.way);
            return memo.way->line;
        }
        return storeAccess(paddr, cycles);
    }

    /**
     * Combined sub-line store access: equivalent to readLine(paddr)
     * followed by writeLine(paddr, modified) — the second access is a
     * guaranteed hit on the just-touched line, so its stat bump, LRU
     * update, and hit latency are applied directly. Returns the line
     * for in-place modification (caller must not grow the access past
     * the line); the line is marked dirty. Saves the second set scan
     * and two 32-byte copies on every store.
     */
    mem::TaggedLine &storeAccess(std::uint64_t paddr,
                                 std::uint64_t &cycles);

    /** Write back every dirty line and invalidate (context purge). */
    void flush();

    // --- prefetch support (see cache/prefetch.h and DESIGN.md §14) ---

    /**
     * Register the (single) listener told about demand fills; nullptr
     * detaches. Fired only from the readLine/storeAccess miss paths —
     * never for writeLine allocations or prefetch fills.
     */
    void setFillListener(FillListener *listener)
    {
        fill_listener_ = listener;
    }

    /**
     * Mint the prefetch counters (".prefetch_issued" / "_useful" /
     * "_late" / "_inaccurate"). Deliberately lazy: a hierarchy with
     * prefetching off never mints them, so collectStats output — and
     * every byte of downstream JSON — is unchanged from the seed.
     */
    void armPrefetch();

    /**
     * Fill paddr's line speculatively: same victim choice, dirty
     * writeback, and below-level traffic as a demand miss, but no
     * hit/miss accounting and no cycle cost (prefetches run off the
     * critical path; their latency is modeled as hidden). If the line
     * is already resident this counts ".prefetch_late" and does
     * nothing else. Returns the filled line (for pointer chasing) or
     * nullptr when resident. The findOrFill memo is deliberately not
     * updated — it must keep naming the last *demand* access. Only
     * call after armPrefetch().
     */
    const mem::TaggedLine *prefetchFill(std::uint64_t paddr);

    // --- coherence probes (no stats, no LRU effect, no cycles) ---
    // Used by the hierarchy to keep instruction fetch coherent with
    // stores; they model snoop machinery, not timed accesses.

    /** True when the line containing paddr is resident. */
    bool contains(std::uint64_t paddr) const;

    /** The resident line iff it is dirty, else nullptr. */
    const mem::TaggedLine *peekDirtyLine(std::uint64_t paddr) const;

    /** Drop the line containing paddr, writing it back first if dirty. */
    void invalidateLine(std::uint64_t paddr);

    const support::StatSet &stats() const { return stats_; }
    void resetStats() { stats_.reset(); }

    const CacheConfig &config() const { return config_; }

    // --- fault-injection introspection (host-side; no stats, no LRU
    // effect, no cycles) ---

    /**
     * Physical line addresses of every resident line, in way-index
     * order — a deterministic enumeration for fault-candidate
     * selection.
     */
    std::vector<std::uint64_t> residentLines() const;

    /** Resident lines whose capability tag is currently set. */
    std::vector<std::uint64_t> residentTaggedLines() const;

    /**
     * Clear the capability tag on the resident copy of paddr's line
     * (fault injection). Returns false when the line is not resident.
     */
    bool clearTagIfResident(std::uint64_t paddr);

    /**
     * Copy other's full cache state (every way, the LRU clock,
     * statistics); the geometry must match. The findOrFill memo is
     * cleared — memo hits replay identical simulated effects, so this
     * cannot perturb counters, it only drops stale way links.
     */
    void copyStateFrom(const Cache &other);

  private:
    struct Way
    {
        bool valid = false;
        bool dirty = false;
        /** Filled by prefetchFill and not yet demand-touched. Cleared
         *  (counting ".prefetch_useful") by the first demand hit —
         *  every hit path, including the handle/memo replays, runs
         *  noteDemandTouch so the counter is host-mode invariant. */
        bool prefetched = false;
        std::uint64_t addr_tag = 0;
        std::uint64_t lru = 0; ///< larger = more recently used
        mem::TaggedLine line;
    };

    /**
     * First demand touch of a prefetched line: the prefetch proved
     * useful. Behind the way's own flag so the default-off hot path
     * pays one never-taken branch; the counter null check guards the
     * (unreachable by construction) unarmed case.
     */
    void noteDemandTouch(Way &way)
    {
        if (way.prefetched) {
            way.prefetched = false;
            if (prefetch_useful_ != nullptr)
                ++*prefetch_useful_;
        }
    }

    /**
     * Locate (and on miss, fill) the way holding paddr's line. A fill
     * notifies the FillListener only when demand_fill is set (the
     * readLine/storeAccess entries; writeLine allocations pass false).
     */
    Way &findOrFill(std::uint64_t paddr, std::uint64_t &cycles,
                    bool demand_fill);

    /** Host-side probe for the resident way of paddr's line, if any. */
    Way *probeWay(std::uint64_t paddr)
    {
        Way *set = &ways_[setIndex(paddr) * config_.ways];
        std::uint64_t tag = addrTag(paddr);
        for (unsigned w = 0; w < config_.ways; ++w)
            if (set[w].valid && set[w].addr_tag == tag)
                return &set[w];
        return nullptr;
    }

    // Set count is a power of two, so indexing is shift/mask — no
    // per-access division on the hot path.
    std::uint64_t setIndex(std::uint64_t paddr) const
    {
        return (paddr >> kLineShift) & set_mask_;
    }
    std::uint64_t addrTag(std::uint64_t paddr) const
    {
        return (paddr >> kLineShift) >> set_shift_;
    }

    CacheConfig config_;
    LineSource &below_;
    std::uint64_t num_sets_;
    std::uint64_t set_mask_ = 0;
    unsigned set_shift_ = 0;
    /** All ways, flattened: set s occupies [s*ways, (s+1)*ways). */
    std::vector<Way> ways_;
    std::uint64_t lru_clock_ = 0;
    /**
     * Direct-mapped memo of recently touched lines (indexed by line
     * number): repeat accesses replay the hit effects (hit stat, LRU
     * bump, hit latency) without rescanning the set. Multi-entry so
     * workloads alternating between a handful of lines (tree node +
     * stack, two arrays) keep hitting it. Sound because an entry is
     * only trusted after re-checking valid + addr_tag on the
     * remembered way, which any eviction, invalidation, or flush
     * falsifies; way pointers themselves never dangle (ways_ is sized
     * once at construction).
     */
    struct Memo
    {
        std::uint64_t line_key = ~0ULL; ///< paddr >> kLineShift
        Way *way = nullptr;
    };
    std::array<Memo, 64> memo_{};
    support::StatSet stats_;
    // Pre-resolved counter slots; bumping these avoids a string
    // concatenation plus map lookup on every access (see
    // StatSet::counter for the lifetime guarantee).
    std::uint64_t *hits_ = nullptr;
    std::uint64_t *misses_ = nullptr;
    std::uint64_t *writebacks_ = nullptr;
    // Prefetch counters; nullptr until armPrefetch() mints them (lazy
    // so a prefetch-off hierarchy's stat set is byte-identical to the
    // seed's). way.prefetched implies armed, so the hit paths only
    // dereference them when they exist.
    std::uint64_t *prefetch_issued_ = nullptr;
    std::uint64_t *prefetch_useful_ = nullptr;
    std::uint64_t *prefetch_late_ = nullptr;
    std::uint64_t *prefetch_inaccurate_ = nullptr;
    FillListener *fill_listener_ = nullptr;
};

} // namespace cheri::cache

#endif // CHERI_CACHE_CACHE_H
