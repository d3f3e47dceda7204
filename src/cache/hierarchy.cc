#include "cache/hierarchy.h"

#include "support/bits.h"
#include "support/logging.h"

namespace cheri::cache
{

CacheHierarchy::CacheHierarchy(mem::TagManager &manager,
                               HierarchyConfig config)
    : dram_(manager, config.dram), l2_(config.l2, dram_),
      l1i_(config.l1i, l2_), l1d_(config.l1d, l2_),
      tag_manager_(&manager), prefetch_(config.prefetch),
      prefetcher_(makePrefetcher(config.prefetch))
{
    // ~0 is never a line address; 0 is (physical line 0).
    fetched_lines_.fill(~0ULL);
    written_lines_.fill(~0ULL);
    static_assert(std::tuple_size_v<decltype(fetched_lines_)> ==
                  std::tuple_size_v<decltype(written_lines_)>);
    // The prefetcher attaches at the L1D and the L2. The L1I is
    // deliberately not an attach point: fetchLine hands out pointers
    // into L1I way storage that must survive until the caller consumed
    // them, and instruction lines never carry tags anyway.
    if (prefetcher_ != nullptr) {
        l1d_.armPrefetch();
        l1d_.setFillListener(this);
        l2_.armPrefetch();
        l2_.setFillListener(this);
    }
}

void
CacheHierarchy::straddlePanic(std::uint64_t paddr, unsigned size) const
{
    support::guestFault("cache",
                        "access [0x%llx, +%u) straddles a cache line",
                        static_cast<unsigned long long>(paddr), size);
}

void
CacheHierarchy::unalignedCapPanic(std::uint64_t paddr,
                                  const char *kind) const
{
    support::guestFault("cache", "capability %s at unaligned 0x%llx",
                        kind, static_cast<unsigned long long>(paddr));
}

std::uint32_t
CacheHierarchy::fetch32(std::uint64_t paddr, std::uint64_t &cycles)
{
    checkContained(paddr, 4);
    const mem::TaggedLine *line = fetchLine(paddr, cycles);
    std::uint64_t offset = paddr % mem::kLineBytes;
    std::uint32_t word = 0;
    for (unsigned i = 0; i < 4; ++i) {
        word |= static_cast<std::uint32_t>(line->data[offset + i])
                << (8 * i);
    }
    return word;
}

void
CacheHierarchy::fetchCoherencePush(std::uint64_t paddr,
                                   std::uint64_t line_addr)
{
    if (!l1i_.contains(paddr)) {
        if (const mem::TaggedLine *dirty = l1d_.peekDirtyLine(paddr)) {
            l2_.writeLine(line_addr, *dirty); // cost intentionally dropped
        }
    }
}

void
CacheHierarchy::drainPrefetch()
{
    in_prefetch_ = true;
    for (std::size_t t = 0; t < pending_.size(); ++t) {
        // By-value copy: onDemandFill is suppressed while in_prefetch_,
        // so pending_ cannot grow (or reallocate) under us, but the
        // copy keeps this robust and the trigger is 48 bytes.
        PendingTrigger trigger = pending_[t];
        unsigned budget = prefetch_.degree;
        prefetch_candidates_.clear();
        prefetcher_->proposeAfterFill(trigger.line_paddr, trigger.line,
                                      prefetch_translate_,
                                      prefetch_candidates_);
        // Candidates may grow mid-loop: a chasing prefetcher appends
        // the targets it decodes from freshly prefetched lines.
        // Bounded by the degree budget on fills (each fill appends at
        // most degree candidates and fills are capped at degree).
        for (std::size_t c = 0;
             c < prefetch_candidates_.size() && budget > 0; ++c) {
            std::uint64_t paddr = prefetch_candidates_[c];
            if (prefetch_phys_limit_ == 0 ||
                paddr + mem::kLineBytes > prefetch_phys_limit_)
                continue;
            if (paddr == trigger.line_paddr)
                continue; // self-referential capability
            const mem::TaggedLine *filled =
                trigger.cache->prefetchFill(paddr);
            if (filled == nullptr)
                continue; // already resident: counted as late
            --budget;
            if (budget > 0 && prefetcher_->chasesPointers())
                prefetcher_->proposeAfterFill(paddr, *filled,
                                              prefetch_translate_,
                                              prefetch_candidates_);
        }
    }
    pending_.clear();
    in_prefetch_ = false;
}

void
CacheHierarchy::noteCodeWrite(std::uint64_t paddr)
{
    // The L1I never holds dirty lines, so dropping its copy is silent:
    // no writeback, no stats, no cycles. The next fetch re-misses and
    // picks the new bytes up from the L2 (or via the dirty-push in
    // fetchLine), in both decode-cache modes alike.
    l1i_.invalidateLine(paddr);
    fetched_lines_[(paddr >> kLineShift) & (fetched_lines_.size() - 1)] =
        ~0ULL;
    if (fetch_listener_ != nullptr) {
        fetch_listener_->onCodeLineModified(
            support::roundDown(paddr, mem::kLineBytes));
    }
}

void
CacheHierarchy::flushAll()
{
    // L1s first so their dirty lines land in L2 before L2 drains.
    fetched_lines_.fill(~0ULL);
    written_lines_.fill(~0ULL);
    l1i_.flush();
    l1d_.flush();
    l2_.flush();
}

void
CacheHierarchy::copyStateFrom(const CacheHierarchy &other)
{
    l2_.copyStateFrom(other.l2_);
    l1i_.copyStateFrom(other.l1i_);
    l1d_.copyStateFrom(other.l1d_);
    dram_.copyStateFrom(other.dram_);
    fetched_lines_ = other.fetched_lines_;
    written_lines_ = other.written_lines_;
    // The trigger queue is empty at every operation boundary — copies
    // are only made there — so there is nothing to copy; just drop
    // anything a mid-operation caller left behind.
    pending_.clear();
}

support::StatSet
CacheHierarchy::collectStats() const
{
    support::StatSet merged;
    for (const Cache *cache : {&l1i_, &l1d_, &l2_})
        merged.merge(cache->stats());
    merged.add("dram.transactions", dram_.transactions());
    // Tag-manager counters (tag.cache_hits/_misses, tag.table_*,
    // dram.reads/writes) ride along so consumers — the prefetch sweep
    // in particular — see tag-cache pressure without a side channel.
    merged.merge(tag_manager_->stats());
    return merged;
}

void
CacheHierarchy::resetStats()
{
    l1i_.resetStats();
    l1d_.resetStats();
    l2_.resetStats();
}

} // namespace cheri::cache
