/**
 * @file
 * Page-granular copy-on-write backing store for DRAM and the
 * capability tag table. A CowPage is the unit of sharing: 4 KB of
 * data plus the slice of the tag table covering those lines, so a
 * single write fault materialises both planes together and a forked
 * guest can never observe a parent's data with a child's tags (or
 * vice versa).
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

/** One shareable page: data bytes plus the covering tag bits. */
struct CowPage
{
    std::array<std::uint8_t, kCowPageBytes> data{};
    std::array<std::uint64_t, kCowPageTagWords> tags{};
};

/**
 * The refcounted page store PhysicalMemory and TagTable are facades
 * over. Addresses and line indices are host-checked by the facades;
 * the store panics on its own bounds as a second line of defence.
 */
class CowStore
{
  public:
    /** Zero-filled store; size must be a nonzero multiple of a line. */
    explicit CowStore(std::uint64_t size_bytes);

    CowStore(const CowStore &) = delete;
    CowStore &operator=(const CowStore &) = delete;

    /** DRAM bytes covered. */
    std::uint64_t sizeBytes() const { return size_bytes_; }
    /** Tagged lines covered. */
    std::uint64_t lineCount() const { return line_count_; }
    /** COW pages (including a trailing partial page). */
    std::uint64_t pageCount() const { return pages_.size(); }
    /** 64-bit words in the flattened tag bitmap. */
    std::uint64_t tagWordCount() const { return (line_count_ + 63) / 64; }

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

    /** Read one byte. */
    std::uint8_t readByte(std::uint64_t paddr) const;
    /** Write one byte (may COW-fault its page). */
    void writeByte(std::uint64_t paddr, std::uint8_t value);
    /** Read len bytes (may straddle pages). */
    void readBytes(std::uint64_t paddr, std::uint8_t *dst,
                   std::uint64_t len) const;
    /** Write len bytes (may straddle pages and fault several). */
    void writeBytes(std::uint64_t paddr, const std::uint8_t *src,
                    std::uint64_t len);

    /** Tag bit for an in-range line index. */
    bool tagGet(std::uint64_t line_index) const;
    /** Set/clear a tag bit (may COW-fault the covering page). */
    void tagSet(std::uint64_t line_index, bool tag);
    /** Count of set tags across the store. */
    std::uint64_t tagPopCount() const;

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

    std::uint64_t size_bytes_;
    std::uint64_t line_count_;
    /** Held here too, so a slot pointing at it is never unique. */
    std::shared_ptr<CowPage> zero_;
    std::vector<std::shared_ptr<CowPage>> pages_;
    std::uint64_t cow_faults_ = 0;
};

} // namespace cheri::mem

#endif // CHERI_MEM_COW_STORE_H
