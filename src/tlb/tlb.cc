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
    ++generation_; // every outstanding FetchHint is now stale
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
Tlb::translateSlow(std::uint64_t vaddr, Access access)
{
    std::uint64_t vpn = vaddr / kPageBytes;

    auto it = cached_.find(vpn);
    if (it != cached_.end()) {
        ++*hits_;
        lru_.splice(lru_.begin(), lru_, it->second.lru_it);
        memo_[vpn & (memo_.size() - 1)] =
            TranslateMemo{vpn, generation_, &it->second};
        return checkPte(it->second.pte, vaddr, access, 0);
    }

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
    memo_[vpn & (memo_.size() - 1)] =
        TranslateMemo{vpn, generation_, &ins.first->second};
    return checkPte(*pte, vaddr, access, config_.refill_cycles);
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
    // Drop every outstanding host hint/memo: they snapshot PTE fields
    // at mint time, and the corruption must be observed consistently.
    ++generation_;
    memo_.fill(TranslateMemo{});
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
    // hints hold CachedEntry pointers into the container we just
    // rebuilt, and only a fresh generation value keeps them all stale.
    ++generation_;
    memo_.fill(TranslateMemo{});
    stats_.assignFrom(other.stats_);
}

TlbResult
Tlb::translateFetchMiss(std::uint64_t vaddr, FetchHint &hint)
{
    std::uint64_t vpn = vaddr / kPageBytes;
    TlbResult result = translate(vaddr, Access::kFetch);
    if (result.ok()) {
        auto it = cached_.find(vpn); // translate just (re)cached it
        hint.vpn = vpn;
        hint.paddr_base = it->second.pte.pfn * kPageBytes;
        hint.generation = generation_;
        hint.entry = &it->second;
    }
    return result;
}

} // namespace cheri::tlb
