/**
 * @file
 * The co-simulation reference interpreter. RefCpu re-implements the
 * architectural semantics of the emulated CHERI machine in the most
 * direct style possible — uncached tagged memory, a page-table walk
 * per access, decode-every-fetch, no caches, no timing, no fast paths —
 * so that the optimized Cpu (predecode cache, TLB memos, cached PCC
 * window, tag-carrying cache hierarchy) can be checked against it
 * instruction by instruction. Any observable difference between the
 * two is, by construction, a bug in one of the optimizations or in
 * the reference: the Lockstep driver (lockstep.h) finds the first one
 * and reports it.
 *
 * RefCpu deliberately shares only the leaf semantic helpers with the
 * fast CPU (the cap_ops monotonic operations, checkFetch /
 * checkDataAccess, and the decoder): those are the single definitions
 * of the paper's Table 1 semantics. Everything layered above them —
 * fetch, translation, the memory system, tag propagation, delay
 * slots, trap delivery — is written independently here.
 */

#ifndef CHERI_CHECK_REF_CPU_H
#define CHERI_CHECK_REF_CPU_H

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "cap/cap_ops.h"
#include "cap/reg_file.h"
#include "core/exceptions.h"
#include "isa/isa.h"
#include "mem/cow_store.h"
#include "tlb/tlb.h"

namespace cheri::check
{

/**
 * Tagged physical memory: bytes plus one tag bit per 32-byte line,
 * with the CHERI store semantics applied directly — a data write
 * clears the containing line's tag, a capability write sets it from
 * the stored capability. This is the reference model the whole cache
 * hierarchy + tag manager + tag table stack must be observationally
 * equivalent to.
 *
 * Storage is a vector of private 4 KB pages (the COW granule, so page
 * indices match the fast machine's CowStore), allocated on first
 * write and read as zero while absent. No page is ever shared with
 * the fast machine, so a copy-on-write bug there cannot hide here.
 * Every access except the loader's writeBlock lies within one line;
 * all of them panic when out of range.
 */
class RefMemory
{
  public:
    explicit RefMemory(std::uint64_t size_bytes);

    std::uint64_t size() const { return size_; }

    /** True once any write has landed in 4 KB page 'page_index'. */
    bool pageAllocated(std::uint64_t page_index) const
    {
        return pages_[page_index] != nullptr;
    }

    /** Little-endian read of 1/2/4/8 bytes (tag-oblivious). */
    std::uint64_t read(std::uint64_t paddr, unsigned size) const;

    /** Little-endian write of 1/2/4/8 bytes; clears the line tag. */
    void write(std::uint64_t paddr, unsigned size, std::uint64_t value);

    /** Full 257-bit line view (CLC). */
    mem::TaggedLine readCapLine(std::uint64_t paddr) const;

    /** Full 257-bit line write (CSC). */
    void writeCapLine(std::uint64_t paddr, const mem::TaggedLine &line);

    /** Tag of the line containing paddr. */
    bool lineTag(std::uint64_t paddr) const
    {
        return readCapLine(paddr).tag;
    }

    /** Loader helper: copy bytes in without touching tags. */
    void writeBlock(std::uint64_t paddr, const std::uint8_t *src,
                    std::uint64_t len);

  private:
    struct Page
    {
        std::array<std::uint8_t, mem::kCowPageBytes> data{};
        std::array<bool, mem::kCowPageLines> tags{}; ///< one per line
    };

    /** Panics unless [paddr, +len) is in range and within one line. */
    void checkAccess(const char *what, std::uint64_t paddr,
                     std::uint64_t len) const;
    /** The page holding paddr, or nullptr while it reads as zero. */
    const Page *pageAt(std::uint64_t paddr) const
    {
        return pages_[paddr / mem::kCowPageBytes].get();
    }
    Page &pageForWrite(std::uint64_t paddr);

    std::uint64_t size_;
    std::vector<std::unique_ptr<Page>> pages_;
};

/** Outcome of one RefCpu::step. */
struct RefStep
{
    /** False only when the instruction faulted at fetch (PCC, PC
     *  alignment, or translation) and therefore did not retire. */
    bool retired = false;
    bool trapped = false;
    bool hit_break = false;
    core::Trap trap; ///< valid when trapped
};

/**
 * The reference interpreter. Executes against a RefMemory and walks a
 * PageTable directly (translation results are identical to the TLB's,
 * which refills transparently from the same table). Keeps no caches,
 * charges no cycles, gathers no stats.
 */
class RefCpu
{
  public:
    RefCpu(RefMemory &memory, const tlb::PageTable &table);

    // --- architectural state (readable and settable so the lockstep
    // --- driver can initialize from and diff against the fast CPU) ---
    std::uint64_t gpr(unsigned index) const { return gpr_[index]; }
    void setGpr(unsigned index, std::uint64_t value);
    std::uint64_t hi() const { return hi_; }
    std::uint64_t lo() const { return lo_; }
    void setHi(std::uint64_t value) { hi_ = value; }
    void setLo(std::uint64_t value) { lo_ = value; }
    std::uint64_t pc() const { return pc_; }
    /** Reset control flow to pc (clears any pending delay slot). */
    void setPc(std::uint64_t pc);
    cap::CapRegFile &caps() { return caps_; }
    const cap::CapRegFile &caps() const { return caps_; }
    void setCp2Enabled(bool enabled) { cp2_enabled_ = enabled; }

    std::uint64_t totalInstructions() const { return instructions_; }

    /** Execute one instruction (or deliver one fetch-level fault). */
    RefStep step();

    /**
     * Physical line addresses written by the most recent step (data
     * stores, capability stores, successful SC). The lockstep driver
     * diffs exactly these lines against the fast machine's memory.
     */
    const std::vector<std::uint64_t> &linesWrittenLastStep() const
    {
        return lines_written_;
    }

  private:
    struct Translation
    {
        tlb::TlbFault fault = tlb::TlbFault::kNone;
        std::uint64_t paddr = 0;

        bool ok() const { return fault == tlb::TlbFault::kNone; }
    };

    /** Direct page-table walk with the TLB's permission semantics. */
    Translation translate(std::uint64_t vaddr, tlb::Access access) const;

    void raise(core::ExcCode code, std::uint64_t bad_vaddr = 0);
    void raiseCap(cap::CapCause cause, std::uint8_t cap_reg,
                  std::uint64_t bad_vaddr = 0);
    void branchTo(std::uint64_t target);

    bool checkedDataAccess(unsigned cap_index, std::uint64_t offset,
                           unsigned size, bool is_store, bool is_cap,
                           std::uint64_t &paddr_out);

    void noteWrite(std::uint64_t paddr);

    void execute(const isa::Instruction &inst);
    void executeCp2(const isa::Instruction &inst);
    void executeMemory(const isa::Instruction &inst);
    void executeCapMemory(const isa::Instruction &inst);

    RefMemory &memory_;
    const tlb::PageTable *table_;

    std::array<std::uint64_t, 32> gpr_{};
    std::uint64_t hi_ = 0, lo_ = 0;
    std::uint64_t pc_ = 0;
    std::uint64_t next_pc_ = 4;
    cap::CapRegFile caps_;
    bool cp2_enabled_ = true;

    bool ll_valid_ = false;
    std::uint64_t ll_addr_ = 0;

    std::uint64_t instructions_ = 0;

    std::uint64_t current_pc_ = 0;
    bool in_delay_slot_ = false;
    bool branch_pending_ = false;

    unsigned pcc_swap_countdown_ = 0;
    cap::Capability pending_pcc_;

    core::Trap pending_trap_;
    bool trap_pending_ = false;

    std::vector<std::uint64_t> lines_written_;
};

} // namespace cheri::check

#endif // CHERI_CHECK_REF_CPU_H
