/**
 * @file
 * A software page table mapping virtual to physical pages, with the
 * CHERI page-table-entry extension: per-page bits authorizing
 * capability loads and capability stores (Sections 4.3 and 6.1). The
 * OS uses these to implement revocation and to share memory between
 * processes without creating a capability channel.
 */

#ifndef CHERI_TLB_PAGE_TABLE_H
#define CHERI_TLB_PAGE_TABLE_H

#include <cstdint>
#include <optional>
#include <unordered_map>

namespace cheri::tlb
{

/** Page size; 4 KB, the common MMU minimum the paper contrasts with. */
constexpr std::uint64_t kPageBytes = 4096;

/** Per-page protection and the CHERI capability-authorization bits. */
struct PteFlags
{
    bool readable = true;
    bool writable = true;
    bool executable = true;
    /** CHERI extension: page may be the source of capability loads. */
    bool cap_load = true;
    /** CHERI extension: page may be the target of capability stores. */
    bool cap_store = true;
};

/** One page-table entry. */
struct Pte
{
    std::uint64_t pfn = 0; ///< physical frame number
    PteFlags flags;
};

/**
 * The per-address-space page table walked on TLB refill. Sparse:
 * unmapped virtual pages simply have no entry.
 */
class PageTable
{
  public:
    /** Map virtual page vpn to physical frame pfn with flags. */
    void map(std::uint64_t vpn, std::uint64_t pfn, PteFlags flags = {});

    /** Remove the mapping for vpn (revocation, unmap). */
    void unmap(std::uint64_t vpn);

    /** Look up vpn; nullopt when unmapped. */
    std::optional<Pte> lookup(std::uint64_t vpn) const;

    /** Update flags of an existing mapping; false when unmapped. */
    bool protect(std::uint64_t vpn, PteFlags flags);

    /** Number of mappings. */
    std::size_t size() const { return entries_.size(); }

  private:
    std::unordered_map<std::uint64_t, Pte> entries_;
};

} // namespace cheri::tlb

#endif // CHERI_TLB_PAGE_TABLE_H
