/**
 * @file
 * The capability tag table: one tag bit per 256-bit line of physical
 * memory, i.e. 4 MB of tag space per GB of DRAM (Section 4.2). The
 * paper stores this table in DRAM; TagManager models the cost of
 * reaching it.
 *
 * Since the COW refactor the bits live in the same CowStore as the
 * data bytes — a page's tag slice is cloned together with its data
 * on a write fault, so a forked guest's tags can never skew against
 * its bytes.
 */

#ifndef CHERI_MEM_TAG_TABLE_H
#define CHERI_MEM_TAG_TABLE_H

#include <cstdint>
#include <memory>

#include "mem/cow_store.h"
#include "mem/physical_memory.h"

namespace cheri::mem
{

/**
 * One bit of capability-validity state per aligned 32-byte physical
 * line. Indexing is by physical address; the table covers all of DRAM.
 */
class TagTable
{
  public:
    /** Create an all-clear table covering dram_bytes of memory. */
    explicit TagTable(std::uint64_t dram_bytes);

    /** Share a store (the same one the paired PhysicalMemory wraps). */
    explicit TagTable(std::shared_ptr<CowStore> store);

    /** Tag bit for the line containing paddr. */
    bool get(std::uint64_t paddr) const;

    /** Set or clear the tag bit for the line containing paddr. */
    void set(std::uint64_t paddr, bool tag);

    /** Number of lines covered. */
    std::uint64_t lineCount() const { return store_->lineCount(); }

    /** Count of currently set tags (diagnostics and tests). */
    std::uint64_t popCount() const { return store_->tagPopCount(); }

    /**
     * Byte offset within the (conceptual, DRAM-resident) tag table of
     * the byte holding this line's tag; used by the tag-cache model to
     * decide which tag-table lines a transaction touches.
     */
    std::uint64_t
    tableByteFor(std::uint64_t paddr) const
    {
        return (paddr / kLineBytes) / 8;
    }

  private:
    std::uint64_t lineIndex(std::uint64_t paddr) const;

    std::shared_ptr<CowStore> store_;
};

} // namespace cheri::mem

#endif // CHERI_MEM_TAG_TABLE_H
