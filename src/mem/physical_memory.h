/**
 * @file
 * Flat physical memory (DRAM) for the emulated machine. Data only;
 * capability tags live in the separate TagTable, mirroring the paper's
 * design where the tag table is held in DRAM alongside ordinary data
 * (Section 4.2).
 *
 * Since the COW refactor this is a facade over a shared CowStore
 * (cow_store.h): a PhysicalMemory built from a size owns a private
 * store; one built from an existing store shares pages with whoever
 * forked it. The byte-level API is unchanged — no caller ever holds a
 * raw pointer into DRAM storage, which is precisely what makes the
 * COW layer invisible above the physical-address abstraction.
 */

#ifndef CHERI_MEM_PHYSICAL_MEMORY_H
#define CHERI_MEM_PHYSICAL_MEMORY_H

#include <array>
#include <cstdint>
#include <memory>

#include "mem/cow_store.h"

namespace cheri::mem
{

/** One 256-bit line of raw data. */
using Line = std::array<std::uint8_t, kLineBytes>;

/**
 * Byte-addressable flat DRAM. All accesses are host-checked: an
 * out-of-range physical address is an emulator bug (the guest-facing
 * layers bound-check before reaching DRAM), so it panics.
 */
class PhysicalMemory
{
  public:
    /** Create zero-filled DRAM of the given byte size. */
    explicit PhysicalMemory(std::uint64_t size_bytes);

    /** Wrap an existing (typically forked) backing store. */
    explicit PhysicalMemory(std::shared_ptr<CowStore> store);

    /** Total DRAM size in bytes. */
    std::uint64_t size() const { return store_->sizeBytes(); }

    /** Read one byte. */
    std::uint8_t readByte(std::uint64_t paddr) const;

    /** Write one byte. */
    void writeByte(std::uint64_t paddr, std::uint8_t value);

    /**
     * Read a little-endian value of 1, 2, 4 or 8 bytes. The access may
     * straddle line boundaries; DRAM itself imposes no alignment.
     */
    std::uint64_t read(std::uint64_t paddr, unsigned size_bytes) const;

    /** Write a little-endian value of 1, 2, 4 or 8 bytes. */
    void write(std::uint64_t paddr, unsigned size_bytes,
               std::uint64_t value);

    /** Read one aligned 256-bit line. */
    Line readLine(std::uint64_t paddr) const;

    /** Write one aligned 256-bit line. */
    void writeLine(std::uint64_t paddr, const Line &line);

    /** Copy a block of bytes into DRAM (loader use). */
    void writeBlock(std::uint64_t paddr, const std::uint8_t *src,
                    std::uint64_t len);

    /** The backing store (Machine::fork shares it with children). */
    const std::shared_ptr<CowStore> &store() const { return store_; }

  private:
    std::shared_ptr<CowStore> store_;
};

} // namespace cheri::mem

#endif // CHERI_MEM_PHYSICAL_MEMORY_H
