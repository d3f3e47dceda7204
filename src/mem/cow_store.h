/**
 * @file
 * The machine's tagged physical memory: DRAM of 256-bit lines, each
 * with a capability tag bit (Section 4.2), kept in a page-granular
 * copy-on-write store. A CowPage is the unit of sharing: 4 KB of data
 * plus the slice of the tag table covering those lines, so a single
 * write fault materialises both planes together, a forked guest can
 * never observe a parent's data with a child's tags (or vice versa),
 * and the 257-bit line the tag manager moves is read or written with
 * one page access.
 *
 * Sharing is plain shared_ptr refcounting per page — there is no
 * base-image chain to walk. fork() copies the page-reference vector
 * (O(page count) atomic increments); a write to a page whose
 * reference is shared clones it first (a "COW fault"). Fresh stores
 * point every slot at one zero page, so construction is O(page
 * count) too and an idle forked guest costs ~8 bytes per page. The
 * store itself holds a reference to its zero page, so that page is
 * always shared, is never written in place, and stays all-zero for
 * every store forked from this one: a slot still pointing at it
 * (isZeroPage) is known to read as zero without looking at its bytes.
 *
 * Every access is host-checked once: an address beyond DRAM or an
 * unaligned line is a support::guestFault (only corrupted guest state
 * can produce one; the guest-facing layers bound-check first).
 *
 * Thread-safety: pages reachable from more than one store are never
 * written in place (the use_count()==1 test), so concurrent guests
 * forked from a quiescent parent can fault pages independently; the
 * only shared mutable state is the shared_ptr control block, which
 * is atomic. A single store is not internally synchronised — one
 * guest, one thread, as everywhere else in the emulator.
 */

#ifndef CHERI_MEM_COW_STORE_H
#define CHERI_MEM_COW_STORE_H

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

namespace cheri::mem
{

/** Bytes per tagged line: 256 bits, the capability size (Figure 1). */
constexpr std::uint64_t kLineBytes = 32;

/** COW granule: one 4 KB page of DRAM plus its tag-table slice. */
constexpr std::uint64_t kCowPageBytes = 4096;
/** Lines per COW page (128). */
constexpr std::uint64_t kCowPageLines = kCowPageBytes / kLineBytes;
/**
 * Tag-bitmap words per COW page (2). kCowPageLines is a multiple of
 * 64, so a tag word never straddles two pages and the global word at
 * index w lives in page w / kCowPageTagWords.
 */
constexpr std::uint64_t kCowPageTagWords = kCowPageLines / 64;

/**
 * Largest DRAM a store accepts (16 GiB, a 64 MB page-slot vector). A
 * larger request is a configuration error, reported like a zero size.
 */
constexpr std::uint64_t kMaxDramBytes = 16ULL << 30;

/** One 256-bit line of raw data. */
using Line = std::array<std::uint8_t, kLineBytes>;

/** A 256-bit line plus its capability tag: the 257-bit interface. */
struct TaggedLine
{
    Line data{};
    bool tag = false;
};

/** One shareable page: data bytes plus the covering tag bits. */
struct CowPage
{
    std::array<std::uint8_t, kCowPageBytes> data{};
    std::array<std::uint64_t, kCowPageTagWords> tags{};
};

/** Tagged physical memory over refcounted COW pages. */
class CowStore
{
  public:
    /**
     * Zero-filled, all-untagged store. The size must be a nonzero
     * multiple of a line and at most kMaxDramBytes, or fatal().
     */
    explicit CowStore(std::uint64_t size_bytes);

    CowStore(const CowStore &) = delete;
    CowStore &operator=(const CowStore &) = delete;

    /** DRAM bytes covered. */
    std::uint64_t sizeBytes() const { return size_bytes_; }
    /** Tagged lines covered. */
    std::uint64_t lineCount() const { return size_bytes_ / kLineBytes; }
    /** COW pages (including a trailing partial page). */
    std::uint64_t pageCount() const { return pages_.size(); }

    /**
     * Mint a child store sharing every page of this one. O(page
     * count): the child copies the reference vector and bumps each
     * page's refcount; no data moves until someone writes.
     */
    std::shared_ptr<CowStore> fork() const;

    /**
     * Make this store share every page of 'image' (the store of the
     * checkpoint Machine::restoreFrom rolls back to): O(page count),
     * no data moves, and a later write on either side clones the page
     * first. The sizes must match. The COW fault count is kept.
     */
    void adopt(const CowStore &image);

    /** True while page slot i still points at the shared zero page. */
    bool isZeroPage(std::uint64_t page_index) const
    {
        return pages_[page_index] == zero_;
    }

    /** The shared zero page (all-zero unless something bypassed COW). */
    const CowPage &zeroPage() const { return *zero_; }

    /** Read one aligned 257-bit line: data and tag from one page. */
    TaggedLine readLine(std::uint64_t paddr) const;
    /** Write one aligned 257-bit line (at most one COW fault). */
    void writeLine(std::uint64_t paddr, const TaggedLine &line);

    /** Tag bit for the line containing paddr. */
    bool tag(std::uint64_t paddr) const;
    /** Set or clear the tag bit for the line containing paddr (may
     *  COW-fault the covering page). */
    void setTag(std::uint64_t paddr, bool tag);
    /** Count of set tags across the store. */
    std::uint64_t tagPopCount() const;

    /** Read one byte. */
    std::uint8_t readByte(std::uint64_t paddr) const;
    /** Write one byte (may COW-fault its page). */
    void writeByte(std::uint64_t paddr, std::uint8_t value);
    /**
     * Read a little-endian value of 1, 2, 4 or 8 bytes (any other
     * size panics). The access may straddle lines and pages; DRAM
     * itself imposes no alignment.
     */
    std::uint64_t read(std::uint64_t paddr, unsigned size_bytes) const;
    /** Write a little-endian value of 1, 2, 4 or 8 bytes; tags are
     *  left alone (clearing them is the cache hierarchy's job). */
    void write(std::uint64_t paddr, unsigned size_bytes,
               std::uint64_t value);
    /** Write len bytes (may straddle pages and fault several). */
    void writeBytes(std::uint64_t paddr, const std::uint8_t *src,
                    std::uint64_t len);

    /**
     * Pages this store has had to clone on write since construction
     * (includes first writes to the initial shared zero page).
     * Deterministic per guest while the fork parent stays alive.
     */
    std::uint64_t cowFaults() const { return cow_faults_; }
    /** Page slots currently shared with another store (or the zero
     *  page); sizeBytes()/kCowPageBytes minus the private pages. */
    std::uint64_t sharedPages() const;

  private:
    struct ForkTag
    {
    };
    CowStore(const CowStore &parent, ForkTag);

    /** The page for a write: clones first when the slot is shared. */
    CowPage &pageForWrite(std::uint64_t page_index);
    const CowPage &page(std::uint64_t page_index) const
    {
        return *pages_[page_index];
    }
    void checkRange(std::uint64_t paddr, std::uint64_t len) const;
    void checkLine(std::uint64_t paddr, const char *what) const;
    void readBytes(std::uint64_t paddr, std::uint8_t *dst,
                   std::uint64_t len) const;

    std::uint64_t size_bytes_;
    /** Held here too, so a slot pointing at it is never unique. */
    std::shared_ptr<CowPage> zero_;
    std::vector<std::shared_ptr<CowPage>> pages_;
    std::uint64_t cow_faults_ = 0;
};

} // namespace cheri::mem

#endif // CHERI_MEM_COW_STORE_H
