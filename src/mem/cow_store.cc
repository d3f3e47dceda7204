#include "mem/cow_store.h"

#include <bit>
#include <cstring>

#include "support/logging.h"

namespace cheri::mem
{

namespace
{

/** The tag bit of paddr's line, in the page holding that line. */
bool
tagBit(const CowPage &p, std::uint64_t paddr)
{
    std::uint64_t line = paddr % kCowPageBytes / kLineBytes;
    return (p.tags[line / 64] >> (line % 64)) & 1;
}

void
setTagBit(CowPage &p, std::uint64_t paddr, bool tag)
{
    std::uint64_t line = paddr % kCowPageBytes / kLineBytes;
    std::uint64_t mask = 1ULL << (line % 64);
    if (tag)
        p.tags[line / 64] |= mask;
    else
        p.tags[line / 64] &= ~mask;
}

/** read/write move a value through an 8-byte buffer. */
void
checkValueSize(unsigned size_bytes)
{
    if (size_bytes != 1 && size_bytes != 2 && size_bytes != 4 &&
        size_bytes != 8)
        support::panic("physical value access of %u bytes (1, 2, 4 or "
                       "8 expected)",
                       size_bytes);
}

} // namespace

CowStore::CowStore(std::uint64_t size_bytes) : size_bytes_(size_bytes)
{
    if (size_bytes == 0 || size_bytes % kLineBytes != 0) {
        support::fatal("DRAM size %llu must be a nonzero multiple of "
                       "%llu bytes",
                       static_cast<unsigned long long>(size_bytes),
                       static_cast<unsigned long long>(kLineBytes));
    }
    if (size_bytes > kMaxDramBytes) {
        support::fatal("DRAM size %llu exceeds the %llu-byte (16 GiB) "
                       "limit",
                       static_cast<unsigned long long>(size_bytes),
                       static_cast<unsigned long long>(kMaxDramBytes));
    }
    std::uint64_t pages = (size_bytes + kCowPageBytes - 1) / kCowPageBytes;
    // Every fresh slot shares one zero page, so a new store (and the
    // first machine built over it) is O(page count), not O(bytes).
    zero_ = std::make_shared<CowPage>();
    pages_.assign(pages, zero_);
}

CowStore::CowStore(const CowStore &parent, ForkTag)
    : size_bytes_(parent.size_bytes_), zero_(parent.zero_),
      pages_(parent.pages_)
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

void
CowStore::checkLine(std::uint64_t paddr, const char *what) const
{
    if (paddr % kLineBytes != 0)
        support::guestFault("mem", "unaligned line %s at 0x%llx", what,
                            static_cast<unsigned long long>(paddr));
    checkRange(paddr, kLineBytes);
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

TaggedLine
CowStore::readLine(std::uint64_t paddr) const
{
    checkLine(paddr, "read");
    const CowPage &p = page(paddr / kCowPageBytes);
    TaggedLine line;
    std::memcpy(line.data.data(), p.data.data() + paddr % kCowPageBytes,
                kLineBytes);
    line.tag = tagBit(p, paddr);
    return line;
}

void
CowStore::writeLine(std::uint64_t paddr, const TaggedLine &line)
{
    checkLine(paddr, "write");
    CowPage &p = pageForWrite(paddr / kCowPageBytes);
    std::memcpy(p.data.data() + paddr % kCowPageBytes, line.data.data(),
                kLineBytes);
    setTagBit(p, paddr, line.tag);
}

bool
CowStore::tag(std::uint64_t paddr) const
{
    checkRange(paddr, 1);
    return tagBit(page(paddr / kCowPageBytes), paddr);
}

void
CowStore::setTag(std::uint64_t paddr, bool tag)
{
    checkRange(paddr, 1);
    setTagBit(pageForWrite(paddr / kCowPageBytes), paddr, tag);
}

std::uint64_t
CowStore::tagPopCount() const
{
    // Tag bits past the last line are never set (setTag checks), so
    // a trailing partial page counts only its own lines.
    std::uint64_t n = 0;
    for (const std::shared_ptr<CowPage> &p : pages_) {
        for (std::uint64_t word : p->tags)
            n += static_cast<std::uint64_t>(std::popcount(word));
    }
    return n;
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

std::uint64_t
CowStore::read(std::uint64_t paddr, unsigned size_bytes) const
{
    checkValueSize(size_bytes);
    std::uint8_t bytes[8];
    readBytes(paddr, bytes, size_bytes);
    std::uint64_t value = 0;
    for (unsigned i = 0; i < size_bytes; ++i)
        value |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
    return value;
}

void
CowStore::write(std::uint64_t paddr, unsigned size_bytes,
                std::uint64_t value)
{
    checkValueSize(size_bytes);
    std::uint8_t bytes[8];
    for (unsigned i = 0; i < size_bytes; ++i)
        bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
    writeBytes(paddr, bytes, size_bytes);
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

std::uint64_t
CowStore::sharedPages() const
{
    std::uint64_t shared = 0;
    for (const std::shared_ptr<CowPage> &p : pages_)
        shared += p.use_count() != 1 ? 1 : 0;
    return shared;
}

} // namespace cheri::mem
