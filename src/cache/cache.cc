#include "cache/cache.h"

#include "support/bits.h"
#include "support/logging.h"

namespace cheri::cache
{

std::uint64_t
DramSource::accessLatency(std::uint64_t paddr)
{
    std::uint64_t row = paddr / timing_.row_bytes;
    std::uint64_t latency = row == open_row_ ? timing_.row_hit_latency
                                             : timing_.row_miss_latency;
    open_row_ = row;
    return latency;
}

LineAccess
DramSource::readLine(std::uint64_t paddr)
{
    ++transactions_;
    read_buffer_ = manager_.readLine(paddr);
    return LineAccess{&read_buffer_, accessLatency(paddr)};
}

std::uint64_t
DramSource::writeLine(std::uint64_t paddr, const mem::TaggedLine &line)
{
    ++transactions_;
    manager_.writeLine(paddr, line);
    return accessLatency(paddr);
}

Cache::Cache(CacheConfig config, LineSource &below)
    : config_(std::move(config)), below_(below)
{
    std::uint64_t lines = config_.size_bytes / mem::kLineBytes;
    if (config_.ways == 0 || lines % config_.ways != 0)
        support::fatal("cache %s: %u ways do not divide %llu lines",
                       config_.name.c_str(), config_.ways,
                       static_cast<unsigned long long>(lines));
    num_sets_ = lines / config_.ways;
    if (!support::isPowerOfTwo(num_sets_))
        support::fatal("cache %s: set count %llu not a power of two",
                       config_.name.c_str(),
                       static_cast<unsigned long long>(num_sets_));
    ways_.assign(num_sets_ * config_.ways, Way{});
    set_mask_ = num_sets_ - 1;
    while ((1ULL << set_shift_) < num_sets_)
        ++set_shift_;
    hits_ = &stats_.counter(config_.name + ".hits");
    misses_ = &stats_.counter(config_.name + ".misses");
    writebacks_ = &stats_.counter(config_.name + ".writebacks");
}

Cache::Way &
Cache::findOrFill(std::uint64_t paddr, std::uint64_t &cycles,
                  bool demand_fill)
{
    std::uint64_t line_key = paddr >> kLineShift;
    std::uint64_t tag = line_key >> set_shift_;

    // Repeat access to a recently memoized line: replay the hit
    // effects without the set scan. The valid + addr_tag re-check
    // makes this safe against any intervening eviction/invalidation.
    Memo &memo = memo_[line_key & (memo_.size() - 1)];
    if (memo.line_key == line_key && memo.way->valid &&
        memo.way->addr_tag == tag) {
        ++*hits_;
        memo.way->lru = ++lru_clock_;
        cycles += config_.hit_latency;
        noteDemandTouch(*memo.way);
        return *memo.way;
    }

    Way *set = &ways_[(line_key & set_mask_) * config_.ways];

    for (unsigned w = 0; w < config_.ways; ++w) {
        Way &way = set[w];
        if (way.valid && way.addr_tag == tag) {
            ++*hits_;
            way.lru = ++lru_clock_;
            cycles += config_.hit_latency;
            noteDemandTouch(way);
            memo.line_key = line_key;
            memo.way = &way;
            return way;
        }
    }

    ++*misses_;
    // Victim: invalid way if any, else LRU.
    Way *victim = &set[0];
    for (unsigned w = 0; w < config_.ways; ++w) {
        Way &way = set[w];
        if (!way.valid) {
            victim = &way;
            break;
        }
        if (way.lru < victim->lru)
            victim = &way;
    }
    std::uint64_t line_addr = support::roundDown(paddr, mem::kLineBytes);
    if (victim->valid && victim->dirty) {
        ++*writebacks_;
        std::uint64_t victim_addr =
            (victim->addr_tag * num_sets_ + setIndex(paddr)) *
            mem::kLineBytes;
        cycles += below_.writeLine(victim_addr, victim->line);
    }
    if (victim->prefetched) {
        // Evicted before any demand touch: the prefetch was wasted.
        victim->prefetched = false;
        if (prefetch_inaccurate_ != nullptr)
            ++*prefetch_inaccurate_;
    }
    LineAccess fill = below_.readLine(line_addr);
    cycles += fill.cycles + config_.hit_latency;
    victim->valid = true;
    victim->dirty = false;
    victim->addr_tag = tag;
    victim->lru = ++lru_clock_;
    victim->line = *fill.line;
    memo.line_key = line_key;
    memo.way = victim;
    if (demand_fill && fill_listener_ != nullptr)
        fill_listener_->onDemandFill(*this, line_addr, victim->line);
    return *victim;
}

LineAccess
Cache::readLine(std::uint64_t paddr)
{
    std::uint64_t cycles = 0;
    Way &way = findOrFill(paddr, cycles, /*demand_fill=*/true);
    return LineAccess{&way.line, cycles};
}

std::uint64_t
Cache::writeLine(std::uint64_t paddr, const mem::TaggedLine &line)
{
    std::uint64_t cycles = 0;
    Way &way = findOrFill(paddr, cycles, /*demand_fill=*/false);
    way.line = line;
    way.dirty = true;
    return cycles;
}

mem::TaggedLine &
Cache::storeAccess(std::uint64_t paddr, std::uint64_t &cycles)
{
    // the read half
    Way &way = findOrFill(paddr, cycles, /*demand_fill=*/true);
    // The write half re-hits the line findOrFill just touched; replay
    // its effects (hit stat, LRU bump, hit latency) without rescanning.
    ++*hits_;
    way.lru = ++lru_clock_;
    cycles += config_.hit_latency;
    way.dirty = true;
    return way.line;
}

void
Cache::armPrefetch()
{
    if (prefetch_issued_ != nullptr)
        return;
    prefetch_issued_ =
        &stats_.counter(config_.name + ".prefetch_issued");
    prefetch_useful_ =
        &stats_.counter(config_.name + ".prefetch_useful");
    prefetch_late_ = &stats_.counter(config_.name + ".prefetch_late");
    prefetch_inaccurate_ =
        &stats_.counter(config_.name + ".prefetch_inaccurate");
}

const mem::TaggedLine *
Cache::prefetchFill(std::uint64_t paddr)
{
    if (probeWay(paddr) != nullptr) {
        // Already resident: the demand stream (or an earlier prefetch)
        // beat this one to the line.
        ++*prefetch_late_;
        return nullptr;
    }
    std::uint64_t line_key = paddr >> kLineShift;
    std::uint64_t tag = line_key >> set_shift_;
    Way *set = &ways_[(line_key & set_mask_) * config_.ways];
    // Same victim policy as a demand miss: invalid way if any, else
    // LRU — prefetched lines ride the ordinary eviction machinery.
    Way *victim = &set[0];
    for (unsigned w = 0; w < config_.ways; ++w) {
        Way &way = set[w];
        if (!way.valid) {
            victim = &way;
            break;
        }
        if (way.lru < victim->lru)
            victim = &way;
    }
    std::uint64_t line_addr = support::roundDown(paddr, mem::kLineBytes);
    if (victim->valid && victim->dirty) {
        // The writeback transaction is real (it moves DRAM traffic);
        // its cycles are dropped with the rest of the prefetch cost.
        ++*writebacks_;
        std::uint64_t victim_addr =
            (victim->addr_tag * num_sets_ + setIndex(paddr)) *
            mem::kLineBytes;
        below_.writeLine(victim_addr, victim->line);
    }
    if (victim->prefetched)
        ++*prefetch_inaccurate_;
    LineAccess fill = below_.readLine(line_addr);
    victim->valid = true;
    victim->dirty = false;
    victim->addr_tag = tag;
    victim->lru = ++lru_clock_;
    victim->line = *fill.line;
    victim->prefetched = true;
    ++*prefetch_issued_;
    // No memo_ update: the memo must keep naming the last demand
    // access (readLineFastHandle mints handles straight from it).
    return &victim->line;
}

bool
Cache::contains(std::uint64_t paddr) const
{
    const Way *set = &ways_[setIndex(paddr) * config_.ways];
    std::uint64_t tag = addrTag(paddr);
    for (unsigned w = 0; w < config_.ways; ++w)
        if (set[w].valid && set[w].addr_tag == tag)
            return true;
    return false;
}

const mem::TaggedLine *
Cache::peekDirtyLine(std::uint64_t paddr) const
{
    const Way *set = &ways_[setIndex(paddr) * config_.ways];
    std::uint64_t tag = addrTag(paddr);
    for (unsigned w = 0; w < config_.ways; ++w)
        if (set[w].valid && set[w].dirty && set[w].addr_tag == tag)
            return &set[w].line;
    return nullptr;
}

void
Cache::invalidateLine(std::uint64_t paddr)
{
    Way *set = &ways_[setIndex(paddr) * config_.ways];
    std::uint64_t tag = addrTag(paddr);
    for (unsigned w = 0; w < config_.ways; ++w) {
        Way &way = set[w];
        if (way.valid && way.addr_tag == tag) {
            if (way.dirty) {
                std::uint64_t addr =
                    support::roundDown(paddr, mem::kLineBytes);
                below_.writeLine(addr, way.line);
            }
            if (way.prefetched) {
                way.prefetched = false;
                if (prefetch_inaccurate_ != nullptr)
                    ++*prefetch_inaccurate_;
            }
            way.valid = false;
            way.dirty = false;
            return;
        }
    }
}

std::vector<std::uint64_t>
Cache::residentLines() const
{
    std::vector<std::uint64_t> lines;
    for (std::uint64_t set = 0; set < num_sets_; ++set) {
        for (unsigned w = 0; w < config_.ways; ++w) {
            const Way &way = ways_[set * config_.ways + w];
            if (way.valid)
                lines.push_back((way.addr_tag * num_sets_ + set) *
                                mem::kLineBytes);
        }
    }
    return lines;
}

std::vector<std::uint64_t>
Cache::residentTaggedLines() const
{
    std::vector<std::uint64_t> lines;
    for (std::uint64_t set = 0; set < num_sets_; ++set) {
        for (unsigned w = 0; w < config_.ways; ++w) {
            const Way &way = ways_[set * config_.ways + w];
            if (way.valid && way.line.tag)
                lines.push_back((way.addr_tag * num_sets_ + set) *
                                mem::kLineBytes);
        }
    }
    return lines;
}

bool
Cache::clearTagIfResident(std::uint64_t paddr)
{
    Way *way = probeWay(paddr);
    if (way == nullptr)
        return false;
    way->line.tag = false;
    return true;
}

void
Cache::copyStateFrom(const Cache &other)
{
    if (other.ways_.size() != ways_.size()) {
        support::panic("cache %s: source has %llu ways, cache has "
                       "%llu",
                       config_.name.c_str(),
                       static_cast<unsigned long long>(
                           other.ways_.size()),
                       static_cast<unsigned long long>(ways_.size()));
    }
    ways_ = other.ways_;
    lru_clock_ = other.lru_clock_;
    stats_.assignFrom(other.stats_);
    memo_.fill(Memo{});
}

void
Cache::flush()
{
    for (std::uint64_t set = 0; set < num_sets_; ++set) {
        for (unsigned w = 0; w < config_.ways; ++w) {
            Way &way = ways_[set * config_.ways + w];
            if (way.valid && way.dirty) {
                std::uint64_t addr =
                    (way.addr_tag * num_sets_ + set) * mem::kLineBytes;
                below_.writeLine(addr, way.line);
            }
            if (way.prefetched) {
                way.prefetched = false;
                if (way.valid && prefetch_inaccurate_ != nullptr)
                    ++*prefetch_inaccurate_;
            }
            way.valid = false;
            way.dirty = false;
        }
    }
}

} // namespace cheri::cache
