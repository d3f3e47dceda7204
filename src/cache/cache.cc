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
    std::uint64_t num_sets = lines / config_.ways;
    if (!support::isPowerOfTwo(num_sets))
        support::fatal("cache %s: set count %llu not a power of two",
                       config_.name.c_str(),
                       static_cast<unsigned long long>(num_sets));
    ways_.assign(lines, Way{});
    set_mask_ = num_sets - 1;
    hits_ = &stats_.counter(config_.name + ".hits");
    misses_ = &stats_.counter(config_.name + ".misses");
    writebacks_ = &stats_.counter(config_.name + ".writebacks");
}

const Cache::Way *
Cache::probeWay(std::uint64_t paddr) const
{
    std::uint64_t line_key = paddr >> kLineShift;
    const Way *set = &ways_[firstWay(line_key)];
    for (unsigned w = 0; w < config_.ways; ++w)
        if (set[w].valid && set[w].line_key == line_key)
            return &set[w];
    return nullptr;
}

Cache::Way &
Cache::findOrFill(std::uint64_t paddr, LineHandle &hint,
                  std::uint64_t &cycles, bool demand_fill)
{
    std::uint64_t line_key = paddr >> kLineShift;
    Way *way = probeWay(paddr);
    if (way != nullptr) {
        hit(*way, cycles);
    } else {
        ++*misses_;
        way = &replace(line_key, cycles);
        cycles += config_.hit_latency;
        if (demand_fill && fill_listener_ != nullptr)
            fill_listener_->onDemandFill(*this, line_key << kLineShift,
                                         way->line);
    }
    hint = LineHandle{way, line_key};
    return *way;
}

Cache::Way &
Cache::replace(std::uint64_t line_key, std::uint64_t &cycles)
{
    Way *set = &ways_[firstWay(line_key)];
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
    if (victim->valid && victim->dirty) {
        ++*writebacks_;
        cycles += below_.writeLine(victim->line_key << kLineShift,
                                   victim->line);
    }
    if (victim->prefetched) {
        // Evicted before any demand touch: the prefetch was wasted.
        victim->prefetched = false;
        if (prefetch_inaccurate_ != nullptr)
            ++*prefetch_inaccurate_;
    }
    LineAccess fill = below_.readLine(line_key << kLineShift);
    cycles += fill.cycles;
    victim->valid = true;
    victim->dirty = false;
    victim->line_key = line_key;
    victim->lru = ++lru_clock_;
    victim->line = *fill.line;
    return *victim;
}

LineAccess
Cache::readLine(std::uint64_t paddr)
{
    std::uint64_t cycles = 0;
    const mem::TaggedLine &line = read(paddr, memoFor(paddr), cycles);
    return LineAccess{&line, cycles};
}

std::uint64_t
Cache::writeLine(std::uint64_t paddr, const mem::TaggedLine &line)
{
    std::uint64_t cycles = 0;
    write(paddr, memoFor(paddr), cycles) = line;
    return cycles;
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
    // Prefetched lines ride the ordinary eviction machinery. The
    // writeback transaction is real (it moves DRAM traffic); its
    // cycles are dropped with the rest of the prefetch cost.
    std::uint64_t hidden_cycles = 0;
    Way &way = replace(paddr >> kLineShift, hidden_cycles);
    way.prefetched = true;
    ++*prefetch_issued_;
    return &way.line;
}

const mem::TaggedLine *
Cache::peekDirtyLine(std::uint64_t paddr) const
{
    const Way *way = probeWay(paddr);
    return way != nullptr && way->dirty ? &way->line : nullptr;
}

void
Cache::invalidateLine(std::uint64_t paddr)
{
    Way *way = probeWay(paddr);
    if (way == nullptr)
        return;
    if (way->dirty)
        below_.writeLine(way->line_key << kLineShift, way->line);
    if (way->prefetched) {
        way->prefetched = false;
        if (prefetch_inaccurate_ != nullptr)
            ++*prefetch_inaccurate_;
    }
    way->valid = false;
    way->dirty = false;
}

std::vector<std::uint64_t>
Cache::residentLines() const
{
    std::vector<std::uint64_t> lines;
    for (const Way &way : ways_)
        if (way.valid)
            lines.push_back(way.line_key << kLineShift);
    return lines;
}

std::vector<std::uint64_t>
Cache::residentTaggedLines() const
{
    std::vector<std::uint64_t> lines;
    for (const Way &way : ways_)
        if (way.valid && way.line.tag)
            lines.push_back(way.line_key << kLineShift);
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
}

void
Cache::flush()
{
    for (Way &way : ways_) {
        if (way.valid && way.dirty)
            below_.writeLine(way.line_key << kLineShift, way.line);
        if (way.prefetched) {
            way.prefetched = false;
            if (way.valid && prefetch_inaccurate_ != nullptr)
                ++*prefetch_inaccurate_;
        }
        way.valid = false;
        way.dirty = false;
    }
}

} // namespace cheri::cache
