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
#include <utility>
#include <vector>

#include "mem/tag_manager.h"
#include "support/bits.h"
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
     * Caller-held, revalidated-on-use pointer to a resident line: the
     * way that held line_key when the handle was minted. Every use
     * re-checks valid + line_key on that way, which any eviction,
     * invalidation or flush falsifies. Ways live in a vector sized
     * once at construction, so the pointer itself never dangles. A
     * valid handle is trusted to name the line being accessed: the
     * entry points do not re-derive it from paddr (the CPU's data memo
     * keys its handles by line, and injectMemoSkew relies on exactly
     * this trust). Default-constructed handles never validate.
     */
    struct LineHandle
    {
        Way *way = nullptr;
        std::uint64_t line_key = ~0ULL; ///< paddr >> kLineShift
    };

    /** True while the handle still names its resident line. */
    bool
    handleValid(const LineHandle &handle) const
    {
        return handle.way != nullptr && handle.way->valid &&
               handle.way->line_key == handle.line_key;
    }

    /**
     * The cache's own handle for paddr's line, for callers that hold
     * none: a direct-mapped memo of 64 handles indexed by line number,
     * so workloads alternating between a handful of lines (tree node +
     * stack, two arrays) skip the set scan. A slot naming another line
     * is cleared first, so it can only validate for paddr's line.
     */
    LineHandle &
    memoFor(std::uint64_t paddr)
    {
        std::uint64_t line_key = paddr >> kLineShift;
        LineHandle &memo = memo_[line_key & (memo_.size() - 1)];
        if (memo.line_key != line_key)
            memo = LineHandle{};
        return memo;
    }

    // --- demand accesses ---
    //
    // Each takes the handle for paddr's line: a valid one replays the
    // hit (hit stat, LRU bump, hit latency) in line; anything else runs
    // the set scan or the fill in findOrFill, which re-points the
    // handle at the accessed line. So a stale handle costs exactly what
    // no handle costs, and no entry point can fail. Only read and store
    // notify the FillListener.

    /** Read paddr's line; the reference is valid until the next
     *  operation on this cache or anything below it. */
    CHERI_FORCE_INLINE const mem::TaggedLine &
    read(std::uint64_t paddr, LineHandle &hint, std::uint64_t &cycles)
    {
        return lookup(paddr, hint, cycles, /*demand_fill=*/true).line;
    }

    /**
     * Sub-line store: equivalent to read followed by a full-line write
     * of the modified copy. The write half re-hits the line just
     * touched, so it replays a second hit directly. Returns the line,
     * marked dirty, for in-place modification (the caller must not
     * grow the access past the line).
     */
    CHERI_FORCE_INLINE mem::TaggedLine &
    store(std::uint64_t paddr, LineHandle &hint, std::uint64_t &cycles)
    {
        Way &way = lookup(paddr, hint, cycles, /*demand_fill=*/true);
        hit(way, cycles);
        way.dirty = true;
        return way.line;
    }

    /** Full-line write: returns the line, marked dirty, for the caller
     *  to overwrite whole. */
    mem::TaggedLine &
    write(std::uint64_t paddr, LineHandle &hint, std::uint64_t &cycles)
    {
        Way &way = lookup(paddr, hint, cycles, /*demand_fill=*/false);
        way.dirty = true;
        return way.line;
    }

    /**
     * Mint a handle for the line containing paddr if it is resident.
     * Pure host-side probe (no stats, LRU, or cycles).
     */
    bool
    probeHandle(std::uint64_t paddr, LineHandle &out)
    {
        Way *way = probeWay(paddr);
        if (way == nullptr)
            return false;
        out = LineHandle{way, paddr >> kLineShift};
        return true;
    }

    /**
     * Settle n deferred repeat hits on the handle's line at once:
     * equivalent to n consecutive hits through it, provided no other
     * access to this cache interleaved them (the superblock tier
     * guarantees that for the L1I — only fetches touch it, and the
     * deferral window covers one line's straight-line run). The way
     * may since have been invalidated by a store to its line; the
     * final LRU stamp still matches what the last replayed hit wrote
     * before the invalidation, and nothing reads an invalid way's LRU
     * before its next fill.
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

    /** Write back every dirty line and invalidate (context purge). */
    void flush();

    // --- prefetch support (see cache/prefetch.h and DESIGN.md §14) ---

    /**
     * Register the (single) listener told about demand fills; nullptr
     * detaches. Fired only from the read/store miss paths — never for
     * write allocations or prefetch fills.
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
     * nullptr when resident. Only call after armPrefetch().
     */
    const mem::TaggedLine *prefetchFill(std::uint64_t paddr);

    // --- coherence probes (no stats, no LRU effect, no cycles) ---
    // Used by the hierarchy to keep instruction fetch coherent with
    // stores; they model snoop machinery, not timed accesses.

    /** True when the line containing paddr is resident. */
    bool contains(std::uint64_t paddr) const
    {
        return probeWay(paddr) != nullptr;
    }

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
     * statistics); the geometry must match. Handles into this cache,
     * its own memo's included, stay sound: each revalidates against
     * the way's copied contents on use.
     */
    void copyStateFrom(const Cache &other);

  private:
    struct Way
    {
        bool valid = false;
        bool dirty = false;
        /** Filled by prefetchFill and not yet demand-touched. Cleared
         *  (counting ".prefetch_useful") by the first demand hit —
         *  every hit runs noteDemandTouch, so the counter is host-tier
         *  invariant. */
        bool prefetched = false;
        std::uint64_t line_key = 0; ///< paddr >> kLineShift
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

    /** The effects of one demand hit on way: hit stat, LRU bump, hit
     *  latency, and the first-touch prefetch accounting. */
    CHERI_FORCE_INLINE void
    hit(Way &way, std::uint64_t &cycles)
    {
        ++*hits_;
        way.lru = ++lru_clock_;
        cycles += config_.hit_latency;
        noteDemandTouch(way);
    }

    /** The way holding paddr's line: the hint's when valid (replaying
     *  the hit), else findOrFill's. */
    CHERI_FORCE_INLINE Way &
    lookup(std::uint64_t paddr, LineHandle &hint, std::uint64_t &cycles,
           bool demand_fill)
    {
        if (handleValid(hint)) {
            hit(*hint.way, cycles);
            return *hint.way;
        }
        return findOrFill(paddr, hint, cycles, demand_fill);
    }

    /**
     * Locate (and on miss, fill) the way holding paddr's line, and
     * point hint at it. A fill notifies the FillListener only when
     * demand_fill is set (read and store; write allocations pass
     * false).
     */
    Way &findOrFill(std::uint64_t paddr, LineHandle &hint,
                    std::uint64_t &cycles, bool demand_fill);

    /**
     * Evict the victim of line_key's set (an invalid way if any, else
     * the LRU one, writing it back when dirty) and fill it with the
     * line from below, adding the writeback and fill cycles.
     */
    Way &replace(std::uint64_t line_key, std::uint64_t &cycles);

    /** Host-side probe for the resident way of paddr's line, if any. */
    const Way *probeWay(std::uint64_t paddr) const;
    Way *
    probeWay(std::uint64_t paddr)
    {
        return const_cast<Way *>(std::as_const(*this).probeWay(paddr));
    }

    /** Index of the first way of line_key's set. The set count is a
     *  power of two, so this is a mask — no per-access division. */
    std::size_t firstWay(std::uint64_t line_key) const
    {
        return (line_key & set_mask_) * config_.ways;
    }

    CacheConfig config_;
    LineSource &below_;
    std::uint64_t set_mask_ = 0;
    /** All ways, flattened: set s occupies [s*ways, (s+1)*ways). */
    std::vector<Way> ways_;
    std::uint64_t lru_clock_ = 0;
    /** memoFor's slots. */
    std::array<LineHandle, 64> memo_{};
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
