#include "mem/tag_manager.h"

namespace cheri::mem
{

TagManager::TagManager(CowStore &store, TagCacheConfig config)
    : store_(store),
      max_entries_(config.capacity_bytes / kTagCacheEntryBytes)
{
    dram_reads_ = &stats_.counter("dram.reads");
    dram_writes_ = &stats_.counter("dram.writes");
    tag_lookups_ = &stats_.counter("tag.lookups");
    tag_cache_hits_ = &stats_.counter("tag.cache_hits");
    tag_cache_misses_ = &stats_.counter("tag.cache_misses");
    tag_table_reads_ = &stats_.counter("tag.table_reads");
    tag_table_writes_ = &stats_.counter("tag.table_writes");
}

void
TagManager::touchTagCache(std::uint64_t paddr, bool dirtying)
{
    ++*tag_lookups_;
    // The DRAM-resident table holds one bit per line, so the byte
    // holding paddr's tag is line / 8; an entry caches one table line.
    std::uint64_t table_line =
        paddr / kLineBytes / 8 / kTagCacheEntryBytes;

    auto it = cached_.find(table_line);
    if (it != cached_.end()) {
        ++*tag_cache_hits_;
        lru_.splice(lru_.begin(), lru_, it->second);
        if (dirtying)
            ++*tag_table_writes_;
        return;
    }

    ++*tag_cache_misses_;
    ++*tag_table_reads_;
    if (dirtying)
        ++*tag_table_writes_;

    if (cached_.size() >= max_entries_ && !lru_.empty()) {
        std::uint64_t victim = lru_.back();
        lru_.pop_back();
        cached_.erase(victim);
    }
    lru_.push_front(table_line);
    cached_[table_line] = lru_.begin();
}

TaggedLine
TagManager::readLine(std::uint64_t paddr)
{
    ++*dram_reads_;
    touchTagCache(paddr, /*dirtying=*/false);
    return store_.readLine(paddr);
}

void
TagManager::writeLine(std::uint64_t paddr, const TaggedLine &line)
{
    ++*dram_writes_;
    touchTagCache(paddr, /*dirtying=*/true);
    store_.writeLine(paddr, line);
}

void
TagManager::copyStateFrom(const TagManager &other)
{
    lru_ = other.lru_;
    cached_.clear();
    for (auto it = lru_.begin(); it != lru_.end(); ++it)
        cached_[*it] = it;
    stats_.assignFrom(other.stats_);
}

} // namespace cheri::mem
