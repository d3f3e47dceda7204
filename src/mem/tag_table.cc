#include "mem/tag_table.h"

#include "support/logging.h"

namespace cheri::mem
{

TagTable::TagTable(std::uint64_t dram_bytes)
    : store_(std::make_shared<CowStore>(dram_bytes))
{
}

TagTable::TagTable(std::shared_ptr<CowStore> store)
    : store_(std::move(store))
{
    if (!store_)
        support::panic("TagTable built over a null store");
}

std::uint64_t
TagTable::lineIndex(std::uint64_t paddr) const
{
    std::uint64_t idx = paddr / kLineBytes;
    if (idx >= store_->lineCount()) {
        support::guestFault("mem", "tag access beyond DRAM: paddr 0x%llx",
                            static_cast<unsigned long long>(paddr));
    }
    return idx;
}

bool
TagTable::get(std::uint64_t paddr) const
{
    return store_->tagGet(lineIndex(paddr));
}

void
TagTable::set(std::uint64_t paddr, bool tag)
{
    store_->tagSet(lineIndex(paddr), tag);
}

} // namespace cheri::mem
