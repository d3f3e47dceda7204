/**
 * @file
 * The tag manager sits below the last-level cache and presents a
 * 257-bit tagged-memory interface to the cache hierarchy (Section
 * 4.2): each 256-bit line travels with its capability tag. The manager
 * fetches tags from the DRAM-resident tag table, and an 8 KB tag cache
 * absorbs most table lookups so tagging "does not noticeably degrade
 * performance".
 */

#ifndef CHERI_MEM_TAG_MANAGER_H
#define CHERI_MEM_TAG_MANAGER_H

#include <cstdint>
#include <list>
#include <unordered_map>

#include "mem/cow_store.h"
#include "support/stats.h"

namespace cheri::mem
{

/** Configuration for the tag cache below the LLC. */
struct TagCacheConfig
{
    /** Total tag-cache capacity in bytes of tag-table data (8 KB). */
    std::uint64_t capacity_bytes = 8 * 1024;

    bool operator==(const TagCacheConfig &) const = default;
};

/** Tag-table bytes cached per tag-cache entry (one table line). */
constexpr std::uint64_t kTagCacheEntryBytes = 32;

/**
 * Tagged DRAM endpoint. All reads and writes from the cache hierarchy
 * terminate here; the manager keeps data and tags consistent and
 * accounts for the extra DRAM traffic the tag table would cost, net of
 * the tag cache.
 *
 * Stats exposed via stats():
 *  - "dram.reads", "dram.writes": data-line transactions;
 *  - "tag.lookups": transactions needing a tag;
 *  - "tag.cache_hits" / "tag.cache_misses": tag-cache behaviour;
 *  - "tag.table_reads" / "tag.table_writes": DRAM tag-table accesses.
 */
class TagManager
{
  public:
    explicit TagManager(CowStore &store, TagCacheConfig config = {});

    /** Read a 257-bit line (data + tag). */
    TaggedLine readLine(std::uint64_t paddr);

    /** Write a 257-bit line (data + tag). */
    void writeLine(std::uint64_t paddr, const TaggedLine &line);

    /** Accumulated statistics. */
    const support::StatSet &stats() const { return stats_; }

    /** Reset statistics (not state). */
    void resetStats() { stats_.reset(); }

    /**
     * Copy other's tag-cache occupancy (LRU order kept) and
     * statistics. Data and tags themselves live in the COW store the
     * machine copies separately.
     */
    void copyStateFrom(const TagManager &other);

  private:
    /** Touch the tag cache for the table line covering paddr. */
    void touchTagCache(std::uint64_t paddr, bool dirtying);

    CowStore &store_;

    /** LRU over cached tag-table line indices. */
    std::list<std::uint64_t> lru_;
    std::unordered_map<std::uint64_t,
                       std::list<std::uint64_t>::iterator> cached_;
    std::uint64_t max_entries_;

    support::StatSet stats_;
    // Pre-resolved counter slots (see StatSet::counter): a DRAM
    // transaction bumps several of these, and string-map lookups per
    // transaction dominate the miss path otherwise.
    std::uint64_t *dram_reads_ = nullptr;
    std::uint64_t *dram_writes_ = nullptr;
    std::uint64_t *tag_lookups_ = nullptr;
    std::uint64_t *tag_cache_hits_ = nullptr;
    std::uint64_t *tag_cache_misses_ = nullptr;
    std::uint64_t *tag_table_reads_ = nullptr;
    std::uint64_t *tag_table_writes_ = nullptr;
};

} // namespace cheri::mem

#endif // CHERI_MEM_TAG_MANAGER_H
