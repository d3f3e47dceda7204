#include "tlb/tlb.h"

namespace cheri::tlb
{

Tlb::Tlb(const PageTable &table, TlbConfig config)
    : table_(&table), config_(config)
{
    hits_ = &stats_.counter("tlb.hits");
    misses_ = &stats_.counter("tlb.misses");
    faults_ = &stats_.counter("tlb.faults");
}

void
Tlb::setTable(const PageTable &table)
{
    table_ = &table;
    flush();
}

void
Tlb::flush()
{
    lru_.clear();
    cached_.clear();
    ++generation_; // every outstanding Handle is now stale
}

void
Tlb::flushPage(std::uint64_t vaddr)
{
    std::uint64_t vpn = vaddr / kPageBytes;
    auto it = cached_.find(vpn);
    if (it != cached_.end()) {
        lru_.erase(it->second.lru_it);
        cached_.erase(it);
        ++generation_;
    }
}

TlbResult
Tlb::translateSlow(std::uint64_t vaddr, Access access, Handle *hint)
{
    std::uint64_t vpn = vaddr / kPageBytes;
    Handle &memo = memo_[vpn & (memo_.size() - 1)];
    std::uint64_t penalty = 0;

    auto it = cached_.find(vpn);
    if (it != cached_.end()) {
        memo = handleFor(vpn, it->second);
        hit(memo);
    } else {
        ++*misses_;
        std::optional<Pte> pte = table_->lookup(vpn);
        if (!pte) {
            ++*faults_;
            TlbResult result;
            result.fault = TlbFault::kNoMapping;
            result.penalty_cycles = config_.refill_cycles;
            return result;
        }
        if (cached_.size() >= config_.entries && !lru_.empty()) {
            std::uint64_t victim = lru_.back();
            lru_.pop_back();
            cached_.erase(victim);
            ++generation_;
        }
        lru_.push_front(vpn);
        auto ins =
            cached_.insert_or_assign(vpn, CachedEntry{*pte, lru_.begin()});
        memo = handleFor(vpn, ins.first->second);
        penalty = config_.refill_cycles;
    }
    TlbResult result = check(memo, vaddr, access, penalty);
    if (hint != nullptr && result.ok())
        *hint = memo;
    return result;
}

std::vector<std::uint64_t>
Tlb::cachedVpns() const
{
    return std::vector<std::uint64_t>(lru_.begin(), lru_.end());
}

bool
Tlb::corruptEntry(std::uint64_t vpn, const Pte &pte)
{
    auto it = cached_.find(vpn);
    if (it == cached_.end())
        return false;
    it->second.pte = pte;
    // Drop every outstanding handle: they copy PTE fields at mint
    // time, and the corruption must be observed consistently.
    ++generation_;
    return true;
}

void
Tlb::copyStateFrom(const Tlb &other)
{
    lru_.clear();
    cached_.clear();
    for (std::uint64_t vpn : other.lru_) {
        lru_.push_back(vpn);
        cached_.emplace(vpn, CachedEntry{other.cached_.at(vpn).pte,
                                         std::prev(lru_.end())});
    }
    // The generation stays monotonic (never copied): outstanding
    // handles hold CachedEntry pointers into the container we just
    // rebuilt, and only a fresh generation value keeps them all stale.
    ++generation_;
    stats_.assignFrom(other.stats_);
}

} // namespace cheri::tlb
