#include "mem/cow_store.h"

#include <bit>
#include <cstring>

#include "support/logging.h"

namespace cheri::mem
{

CowStore::CowStore(std::uint64_t size_bytes)
    : size_bytes_(size_bytes), line_count_(size_bytes / kLineBytes)
{
    if (size_bytes == 0 || size_bytes % kLineBytes != 0) {
        support::fatal("DRAM size %llu must be a nonzero multiple of "
                       "%llu bytes",
                       static_cast<unsigned long long>(size_bytes),
                       static_cast<unsigned long long>(kLineBytes));
    }
    std::uint64_t pages = (size_bytes + kCowPageBytes - 1) / kCowPageBytes;
    // Every fresh slot shares one zero page, so a new store (and the
    // first machine built over it) is O(page count), not O(bytes).
    zero_ = std::make_shared<CowPage>();
    pages_.assign(pages, zero_);
}

CowStore::CowStore(const CowStore &parent, ForkTag)
    : size_bytes_(parent.size_bytes_), line_count_(parent.line_count_),
      zero_(parent.zero_), pages_(parent.pages_)
{
}

std::shared_ptr<CowStore>
CowStore::fork() const
{
    return std::shared_ptr<CowStore>(new CowStore(*this, ForkTag{}));
}

void
CowStore::adopt(const CowStore &image)
{
    if (image.size_bytes_ != size_bytes_) {
        support::panic("COW image of 0x%llx bytes does not match "
                       "configured size 0x%llx",
                       static_cast<unsigned long long>(image.size_bytes_),
                       static_cast<unsigned long long>(size_bytes_));
    }
    zero_ = image.zero_;
    pages_ = image.pages_;
}

void
CowStore::checkRange(std::uint64_t paddr, std::uint64_t len) const
{
    if (paddr > size_bytes_ || len > size_bytes_ - paddr) {
        support::guestFault(
            "mem", "physical access [0x%llx, +%llu) beyond DRAM size 0x%llx",
            static_cast<unsigned long long>(paddr),
            static_cast<unsigned long long>(len),
            static_cast<unsigned long long>(size_bytes_));
    }
}

CowPage &
CowStore::pageForWrite(std::uint64_t page_index)
{
    std::shared_ptr<CowPage> &slot = pages_[page_index];
    if (slot.use_count() != 1) {
        // The page is visible from another store (or is the zero
        // page, which zero_ keeps shared): clone data + tag slice
        // together, then write the private copy. Shared pages are
        // never mutated in place, so this is safe against sibling
        // stores on other threads.
        slot = std::make_shared<CowPage>(*slot);
        ++cow_faults_;
    }
    return *slot;
}

std::uint8_t
CowStore::readByte(std::uint64_t paddr) const
{
    checkRange(paddr, 1);
    return page(paddr / kCowPageBytes).data[paddr % kCowPageBytes];
}

void
CowStore::writeByte(std::uint64_t paddr, std::uint8_t value)
{
    checkRange(paddr, 1);
    pageForWrite(paddr / kCowPageBytes).data[paddr % kCowPageBytes] =
        value;
}

void
CowStore::readBytes(std::uint64_t paddr, std::uint8_t *dst,
                    std::uint64_t len) const
{
    checkRange(paddr, len);
    while (len > 0) {
        std::uint64_t offset = paddr % kCowPageBytes;
        std::uint64_t chunk = std::min(len, kCowPageBytes - offset);
        std::memcpy(dst, page(paddr / kCowPageBytes).data.data() + offset,
                    chunk);
        dst += chunk;
        paddr += chunk;
        len -= chunk;
    }
}

void
CowStore::writeBytes(std::uint64_t paddr, const std::uint8_t *src,
                     std::uint64_t len)
{
    checkRange(paddr, len);
    while (len > 0) {
        std::uint64_t offset = paddr % kCowPageBytes;
        std::uint64_t chunk = std::min(len, kCowPageBytes - offset);
        std::memcpy(pageForWrite(paddr / kCowPageBytes).data.data() +
                        offset,
                    src, chunk);
        src += chunk;
        paddr += chunk;
        len -= chunk;
    }
}

bool
CowStore::tagGet(std::uint64_t line_index) const
{
    if (line_index >= line_count_) {
        support::guestFault(
            "mem", "tag read beyond DRAM: line %llu of %llu",
            static_cast<unsigned long long>(line_index),
            static_cast<unsigned long long>(line_count_));
    }
    std::uint64_t word = line_index / 64;
    const CowPage &p = page(word / kCowPageTagWords);
    return (p.tags[word % kCowPageTagWords] >> (line_index % 64)) & 1;
}

void
CowStore::tagSet(std::uint64_t line_index, bool tag)
{
    if (line_index >= line_count_) {
        support::guestFault(
            "mem", "tag write beyond DRAM: line %llu of %llu",
            static_cast<unsigned long long>(line_index),
            static_cast<unsigned long long>(line_count_));
    }
    std::uint64_t word = line_index / 64;
    CowPage &p = pageForWrite(word / kCowPageTagWords);
    std::uint64_t mask = 1ULL << (line_index % 64);
    if (tag)
        p.tags[word % kCowPageTagWords] |= mask;
    else
        p.tags[word % kCowPageTagWords] &= ~mask;
}

std::uint64_t
CowStore::tagPopCount() const
{
    std::uint64_t n = 0;
    std::uint64_t words = tagWordCount();
    for (std::uint64_t w = 0; w < words; ++w) {
        n += static_cast<std::uint64_t>(std::popcount(
            page(w / kCowPageTagWords).tags[w % kCowPageTagWords]));
    }
    return n;
}

std::uint64_t
CowStore::sharedPages() const
{
    std::uint64_t shared = 0;
    for (const std::shared_ptr<CowPage> &p : pages_)
        shared += p.use_count() != 1 ? 1 : 0;
    return shared;
}

} // namespace cheri::mem
