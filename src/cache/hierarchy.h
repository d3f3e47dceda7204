/**
 * @file
 * The CHERI cache hierarchy of Section 4: split 16 KB L1 instruction
 * and data caches, a shared 64 KB L2, 32-byte lines throughout, and
 * the tag manager as the DRAM endpoint. Implements the CHERI tag
 * semantics — a general-purpose store clears the line's capability
 * tag; a capability store sets it from the source register — so
 * capability unforgeability holds at every level (Section 4.2).
 */

#ifndef CHERI_CACHE_HIERARCHY_H
#define CHERI_CACHE_HIERARCHY_H

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache.h"
#include "cache/prefetch.h"
#include "mem/tag_manager.h"
#include "support/stats.h"

namespace cheri::cache
{

/**
 * Notified when a store touches a physical line that may hold code,
 * so fetch-side structures above the hierarchy (the CPU's predecoded
 * instruction cache) can drop stale decodes. Purely a host-side
 * coherence hook: it carries no simulated cost.
 */
class FetchInvalidationListener
{
  public:
    virtual ~FetchInvalidationListener() = default;

    /** line_paddr is the 32-byte-aligned address of the stored-to line. */
    virtual void onCodeLineModified(std::uint64_t line_paddr) = 0;
};

/**
 * Notified after every architectural store (data or capability) with
 * the 32-byte-aligned address of the written line. Host-side only — no
 * simulated cost — used by the co-simulation lockstep driver
 * (check/lockstep.h) to know which lines to diff against the reference
 * memory after each retire.
 */
class StoreObserver
{
  public:
    virtual ~StoreObserver() = default;

    virtual void onLineWritten(std::uint64_t line_paddr) = 0;
};

/** Geometry of the full hierarchy (paper defaults, Sections 8/9). */
struct HierarchyConfig
{
    CacheConfig l1i{"l1i", 16 * 1024, 4, 1};
    CacheConfig l1d{"l1d", 16 * 1024, 4, 1};
    CacheConfig l2{"l2", 64 * 1024, 8, 4};
    DramTiming dram;
    /** Prefetcher selection (default: off). */
    PrefetchConfig prefetch;

    bool operator==(const HierarchyConfig &) const = default;
};

/**
 * CPU-facing memory system operating on physical addresses (the TLB
 * has already translated). Sub-line accesses must be naturally
 * aligned and line-contained — the CPU raises address-error faults
 * before calling in.
 */
class CacheHierarchy : private FillListener
{
  public:
    CacheHierarchy(mem::TagManager &manager, HierarchyConfig config = {});

    /** Instruction fetch of one 32-bit word through the L1I. */
    std::uint32_t fetch32(std::uint64_t paddr, std::uint64_t &cycles);

    /**
     * Instruction fetch of the whole 32-byte line containing paddr
     * through the L1I (used by the CPU's predecode fill, which wants
     * every slot of the line at once). Timing and stats are identical
     * to fetch32 at the same address: one L1I line access. The
     * returned pointer is valid until the next hierarchy operation.
     * When handle is set it receives the L1I handle for the line (the
     * superblock tier settles its deferred repeat fetches through
     * it). Inline: this runs once per simulated instruction.
     */
    const mem::TaggedLine *
    fetchLine(std::uint64_t paddr, std::uint64_t &cycles,
              Cache::LineHandle *handle = nullptr)
    {
        std::uint64_t line_addr = paddr & ~(mem::kLineBytes - 1ULL);
        std::uint64_t index =
            (line_addr >> kLineShift) & (fetched_lines_.size() - 1);
        std::uint64_t &slot = fetched_lines_[index];
        if (slot != line_addr) {
            fetchCoherencePush(paddr, line_addr);
            slot = line_addr;
            // This line is (about to be) L1I-resident again: the next
            // store to it must run the full noteCodeWrite.
            written_lines_[index] = ~0ULL;
        }
        Cache::LineHandle &memo = l1i_.memoFor(paddr);
        const mem::TaggedLine &line = l1i_.read(paddr, memo, cycles);
        if (handle != nullptr)
            *handle = memo;
        // An L1I miss that also missed the L2 may have queued L2
        // prefetch triggers; issue them now. The drain never touches
        // L1I way storage (prefetchers attach L1D/L2 only), so the
        // returned pointer stays valid.
        maybeDrainPrefetch();
        return &line;
    }

    /**
     * Settle n deferred repeat fetches of the handle's line: exactly
     * the effects n fetchLine calls produce when the fetch memo and
     * the L1I both hit — n L1I hits with LRU bumps, nothing on the
     * memo side. Valid only while the caller knows the line was
     * fetched since the last store to it (so fetchLine's dirty-push
     * probe would find nothing and its memos carry no simulated
     * effects); the superblock tier guarantees that by aborting the
     * block on any store to a covered line. The per-fetch hit
     * latency is NOT applied here — the caller charges it per slot
     * via fetchHitLatency().
     */
    void
    applyDeferredFetchHits(const Cache::LineHandle &handle,
                           std::uint64_t n)
    {
        l1i_.applyDeferredHits(handle, n);
    }

    /** The L1I hit latency a deferred repeat fetch stalls for. */
    std::uint64_t fetchHitLatency() const { return l1i_.hitLatency(); }

    // --- data accesses ---
    //
    // Each takes an optional caller-held L1D handle for the accessed
    // line (the CPU's data memo holds one per virtual line, DESIGN.md
    // §9); without one the L1D's own memo stands in. A valid handle
    // replays the L1D hit in line, a stale one takes the full walk and
    // is re-pointed at the line, so the simulated effects — stats,
    // LRU, latency, tag semantics, fetch coherence, fault injection,
    // the store observer — never depend on which handle was passed.

    /** General-purpose load of 1/2/4/8 bytes (tag-oblivious). */
    CHERI_FORCE_INLINE std::uint64_t
    read(std::uint64_t paddr, unsigned size, std::uint64_t &cycles,
         Cache::LineHandle *hint = nullptr)
    {
        checkContained(paddr, size);
        const mem::TaggedLine &line =
            l1d_.read(paddr, l1dHandle(paddr, hint), cycles);
        std::uint64_t offset = paddr % mem::kLineBytes;
        std::uint64_t value = 0;
        for (unsigned i = 0; i < size; ++i) {
            value |= static_cast<std::uint64_t>(line.data[offset + i])
                     << (8 * i);
        }
        maybeDrainPrefetch(); // after the line bytes are consumed
        return value;
    }

    /**
     * General-purpose store of 1/2/4/8 bytes. Clears the capability
     * tag of the containing line — the architectural guarantee that
     * data writes cannot forge capabilities.
     */
    CHERI_FORCE_INLINE void
    write(std::uint64_t paddr, unsigned size, std::uint64_t value,
          std::uint64_t &cycles, Cache::LineHandle *hint = nullptr)
    {
        checkContained(paddr, size);
        // Combined read-modify-write: same simulated effects as a
        // line read followed by a write of the modified copy.
        mem::TaggedLine &line =
            l1d_.store(paddr, l1dHandle(paddr, hint), cycles);
        std::uint64_t offset = paddr % mem::kLineBytes;
        for (unsigned i = 0; i < size; ++i)
            line.data[offset + i] =
                static_cast<std::uint8_t>(value >> (8 * i));
        finishDataStore(line, paddr);
        maybeDrainPrefetch();
    }

    /** Capability load: the full 257-bit line (CLC). */
    mem::TaggedLine
    readCapLine(std::uint64_t paddr, std::uint64_t &cycles,
                Cache::LineHandle *hint = nullptr)
    {
        if (paddr % mem::kLineBytes != 0)
            unalignedCapPanic(paddr, "load");
        mem::TaggedLine copy =
            l1d_.read(paddr, l1dHandle(paddr, hint), cycles);
        maybeDrainPrefetch(); // after the copy: the drain may evict the way
        return copy;
    }

    /** Capability store: full line plus tag (CSC). */
    void
    writeCapLine(std::uint64_t paddr, const mem::TaggedLine &line,
                 std::uint64_t &cycles, Cache::LineHandle *hint = nullptr)
    {
        if (paddr % mem::kLineBytes != 0)
            unalignedCapPanic(paddr, "store");
        l1d_.write(paddr, l1dHandle(paddr, hint), cycles) = line;
        noteCodeWriteFiltered(paddr);
        if (store_hooks_armed_ && store_observer_ != nullptr)
            store_observer_->onLineWritten(paddr);
        // Write allocations never trigger prefetch on their own cache,
        // but an L1D write-allocate miss pulls the old line through the
        // L2 — that L2 demand fill can queue.
        maybeDrainPrefetch();
    }

    /** Write back and invalidate everything (used by tests). */
    void flushAll();

    // --- prefetch wiring (see DESIGN.md §14) ---

    /**
     * Install the side-effect-free virtual-to-physical probe the
     * pointer-chase prefetcher translates through (the Machine wires
     * this to Tlb::probePrefetch; forks re-wire it in their own
     * constructor). An empty translator disables pointer chasing.
     */
    void setPrefetchTranslator(PrefetchTranslator translate)
    {
        prefetch_translate_ = std::move(translate);
    }

    /**
     * Physical memory size in bytes; prefetch candidates at or past
     * it are dropped. 0 (the default for a bare hierarchy) drops
     * every candidate — the Machine always sets the real size, so
     * prefetching is only live behind a known DRAM bound.
     */
    void setPrefetchPhysLimit(std::uint64_t bytes)
    {
        prefetch_phys_limit_ = bytes;
    }

    /** DRAM line transactions so far (memory-traffic metric). */
    std::uint64_t dramTransactions() const { return dram_.transactions(); }

    /** Merge all per-level stats into one set. */
    support::StatSet collectStats() const;

    void resetStats();

    /**
     * Register the (single) listener told about stores into lines
     * that may hold code; nullptr detaches. See
     * FetchInvalidationListener.
     */
    void setFetchListener(FetchInvalidationListener *listener)
    {
        fetch_listener_ = listener;
    }

    /**
     * Register the (single) observer of architectural stores; nullptr
     * detaches. See StoreObserver.
     */
    void setStoreObserver(StoreObserver *observer)
    {
        store_observer_ = observer;
        updateStoreHooks();
    }

    /**
     * Arm (or disarm) the behavioural fault where data stores no
     * longer clear the containing line's capability tag — breaking the
     * paper's unforgeability guarantee. Used by the oracle/fuzzer
     * self-tests and the fault-injection campaign (check/fault_plan.h
     * holds the full fault-class taxonomy; this is the only fault that
     * lives in the store path itself rather than being a one-shot
     * state corruption). Never enabled outside tests and campaigns.
     */
    void setStoreTagClearSuppressed(bool suppressed)
    {
        suppress_store_tag_clear_ = suppressed;
        updateStoreHooks();
    }

    /**
     * Copy other's full hierarchy state (all three caches, DRAM
     * open-row/transaction state, the fetch-coherence memos); the
     * geometry must match. An exact deep copy — nothing is flushed, so
     * this hierarchy replays the same hit/miss/writeback sequence as
     * other would.
     */
    void copyStateFrom(const CacheHierarchy &other);

    Cache &l1i() { return l1i_; }
    Cache &l1d() { return l1d_; }
    Cache &l2() { return l2_; }
    const Cache &l1i() const { return l1i_; }
    const Cache &l1d() const { return l1d_; }
    const Cache &l2() const { return l2_; }

  private:
    /**
     * Tail of every general-purpose store: the architectural tag
     * clear, fetch coherence, and the host-side hooks. The hooks
     * (StoreObserver, tag-clear suppression) are rare — only the lockstep
     * oracle and fault-injection self-tests arm them — so the
     * non-observed hot path pays a single predictable branch on
     * store_hooks_armed_ and never touches the pointer or the
     * injection enum.
     */
    void
    finishDataStore(mem::TaggedLine &line, std::uint64_t paddr)
    {
        if (!store_hooks_armed_) {
            line.tag = false; // general-purpose store clears the tag
        } else {
            if (!suppress_store_tag_clear_)
                line.tag = false;
            if (store_observer_ != nullptr)
                store_observer_->onLineWritten(
                    paddr & ~(mem::kLineBytes - 1ULL));
        }
        noteCodeWriteFiltered(paddr);
    }

    /** Recompute the merged cheap guard for the store-path hooks. */
    void updateStoreHooks()
    {
        store_hooks_armed_ =
            store_observer_ != nullptr || suppress_store_tag_clear_;
    }

    /** The L1D handle a data access goes through: the caller's, else
     *  the L1D's own memo slot for the line. */
    Cache::LineHandle &
    l1dHandle(std::uint64_t paddr, Cache::LineHandle *hint)
    {
        return hint != nullptr ? *hint : l1d_.memoFor(paddr);
    }

    void
    checkContained(std::uint64_t paddr, unsigned size) const
    {
        if (paddr / mem::kLineBytes !=
            (paddr + size - 1) / mem::kLineBytes)
            straddlePanic(paddr, size);
    }

    [[noreturn]] void straddlePanic(std::uint64_t paddr,
                                    unsigned size) const;
    [[noreturn]] void unalignedCapPanic(std::uint64_t paddr,
                                        const char *kind) const;

    /**
     * Fetch-side half of fetch coherence (cold path of fetchLine): if
     * the L1I is about to refill this line, make sure a dirty L1D copy
     * (self-modifying code whose stores have not left the L1D) reaches
     * the shared L2 first, so the refill observes the new bytes. The
     * push models snoop hardware and costs no simulated cycles; it
     * happens on the same occasions in both decode-cache modes.
     */
    void fetchCoherencePush(std::uint64_t paddr,
                            std::uint64_t line_addr);

    /**
     * Store-side half of fetch coherence: invalidate any L1I copy of
     * the stored-to line (the L1I never holds dirty lines, so this is
     * a silent drop) and notify the fetch listener. Modelled as part
     * of the store pipeline — no extra simulated cycles — and runs
     * identically whether or not the CPU's decode cache is enabled,
     * so timing cannot diverge between the two modes.
     */
    void noteCodeWrite(std::uint64_t paddr);

    /**
     * Per-store entry to noteCodeWrite. A hit in written_lines_ means
     * this line was already noted since the last fetch of it, so the
     * L1I copy is gone, the decode-cache entry is cleared, and neither
     * can have been refilled (only a fetch refills them, and a fetch
     * clears the slot) — the whole notification is a no-op and is
     * skipped. noteCodeWrite has no simulated effects (the L1I never
     * holds dirty lines, so the invalidation is silent), and the skip
     * criterion depends only on the store/fetch stream, so timing
     * invariance between decode-cache modes is preserved.
     */
    void
    noteCodeWriteFiltered(std::uint64_t paddr)
    {
        std::uint64_t line_addr = paddr & ~(mem::kLineBytes - 1ULL);
        std::uint64_t &slot =
            written_lines_[(line_addr >> kLineShift) &
                           (written_lines_.size() - 1)];
        if (slot != line_addr) {
            noteCodeWrite(paddr);
            slot = line_addr;
        }
    }

    /**
     * FillListener: a demand miss filled a line into the L1D or L2.
     * Only queues the trigger — prefetches issue in drainPrefetch at
     * the end of the current hierarchy operation, so the demand
     * access's own fill sequence is never interleaved with
     * speculative traffic. Fills caused by prefetching itself (an L1D
     * prefetch pulling its line through the L2) are suppressed, or
     * one trigger could chase forever.
     */
    void onDemandFill(Cache &cache, std::uint64_t line_paddr,
                      const mem::TaggedLine &line) override
    {
        if (in_prefetch_)
            return;
        pending_.push_back(PendingTrigger{&cache, line_paddr, line});
    }

    /**
     * Issue queued prefetch triggers. Called at the end of every
     * public operation that can miss; the queue is empty at every
     * operation boundary, so forks/rollbacks need no prefetch state.
     */
    void maybeDrainPrefetch()
    {
        if (!pending_.empty())
            drainPrefetch();
    }

    void drainPrefetch();

    DramSource dram_;
    Cache l2_;
    Cache l1i_;
    Cache l1d_;
    mem::TagManager *tag_manager_;
    PrefetchConfig prefetch_;
    std::unique_ptr<Prefetcher> prefetcher_;
    PrefetchTranslator prefetch_translate_;
    std::uint64_t prefetch_phys_limit_ = 0;
    /** True while drainPrefetch issues fills (suppresses re-triggering). */
    bool in_prefetch_ = false;
    /** One queued demand-fill trigger (line content copied at fill
     *  time, before the demand store that may have caused it mutates
     *  the line — deterministic at every host tier because only the
     *  fills, which no handle can skip, reach here). */
    struct PendingTrigger
    {
        Cache *cache;
        std::uint64_t line_paddr;
        mem::TaggedLine line;
    };
    std::vector<PendingTrigger> pending_;
    /** Scratch candidate list reused across drains. */
    std::vector<std::uint64_t> prefetch_candidates_;
    FetchInvalidationListener *fetch_listener_ = nullptr;
    StoreObserver *store_observer_ = nullptr;
    bool suppress_store_tag_clear_ = false;
    /** True iff an observer or a fault injection is armed (merged
     *  guard so the store hot path checks one flag, not two). */
    bool store_hooks_armed_ = false;

    // Direct-mapped memo of recently fetched line addresses (64
    // entries, indexed by line number). A hit means the line was
    // fetched since the last store to it (noteCodeWrite clears the
    // matching slot) and since the last flush, so the dirty-push
    // probe in fetchLine can be skipped: any dirty L1D copy of the
    // line predates that earlier fetch, whose probe already pushed
    // the bytes to the L2, and no store has dirtied it since. The
    // probe itself has no simulated effects and the skip criterion
    // depends only on the fetch/store stream — identical in both
    // decode-cache modes — so timing invariance is preserved.
    std::array<std::uint64_t, 64> fetched_lines_{};

    // Companion memo for the store side (see noteCodeWriteFiltered):
    // lines whose modification has been noted since their last fetch.
    std::array<std::uint64_t, 64> written_lines_{};
};

} // namespace cheri::cache

#endif // CHERI_CACHE_HIERARCHY_H
