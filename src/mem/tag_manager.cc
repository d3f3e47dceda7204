#include "mem/tag_manager.h"

namespace cheri::mem
{

TagManager::TagManager(PhysicalMemory &dram, TagTable &tags,
                       TagCacheConfig config)
    : dram_(dram), tags_(tags), config_(config),
      max_entries_(config.capacity_bytes / config.entry_bytes)
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
    std::uint64_t table_line =
        tags_.tableByteFor(paddr) / config_.entry_bytes;

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
    TaggedLine line;
    line.data = dram_.readLine(paddr);
    line.tag = tags_.get(paddr);
    return line;
}

void
TagManager::writeLine(std::uint64_t paddr, const TaggedLine &line)
{
    ++*dram_writes_;
    touchTagCache(paddr, /*dirtying=*/true);
    dram_.writeLine(paddr, line.data);
    tags_.set(paddr, line.tag);
}

bool
TagManager::readTag(std::uint64_t paddr)
{
    touchTagCache(paddr, /*dirtying=*/false);
    return tags_.get(paddr);
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
