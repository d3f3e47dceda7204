#include "check/fault_plan.h"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "tlb/page_table.h"

namespace cheri::check
{

namespace
{

std::string
hex(std::uint64_t value)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "0x%llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

/** Allocated physical bytes (frames handed out so far). */
std::uint64_t
allocatedBytes(core::Machine &machine)
{
    return machine.allocatedFrames() * tlb::kPageBytes;
}

/**
 * Tagged lines resident anywhere in the cache hierarchy, L1D first,
 * then L2, then L1I, each in way-index order, first occurrence kept.
 * The order is a pure function of machine state, so target selection
 * is reproducible.
 */
std::vector<std::uint64_t>
taggedResidentLines(core::Machine &machine)
{
    std::vector<std::uint64_t> lines =
        machine.memory().l1d().residentTaggedLines();
    for (const cache::Cache *level :
         {&machine.memory().l2(), &machine.memory().l1i()}) {
        for (std::uint64_t paddr : level->residentTaggedLines()) {
            if (std::find(lines.begin(), lines.end(), paddr) ==
                lines.end())
                lines.push_back(paddr);
        }
    }
    return lines;
}

bool
tryCacheTagDrop(core::Machine &machine, std::uint64_t pick,
                std::string &target)
{
    std::vector<std::uint64_t> lines = taggedResidentLines(machine);
    if (lines.empty())
        return false;
    std::uint64_t paddr = lines[pick % lines.size()];
    // Coherent drop: every cached copy plus the backing table, so a
    // clean-line eviction cannot resurrect the tag.
    machine.memory().l1d().clearTagIfResident(paddr);
    machine.memory().l1i().clearTagIfResident(paddr);
    machine.memory().l2().clearTagIfResident(paddr);
    machine.cowStore().setTag(paddr, false);
    target = "tag dropped on line " + hex(paddr);
    return true;
}

bool
tryMemoSkew(core::Machine &machine, std::uint64_t pick,
            std::string &target)
{
    if (!machine.cpu().injectMemoSkew(pick))
        return false;
    target = "data-memo L1D handle skewed (pick " +
             std::to_string(pick) + ")";
    return true;
}

bool
tryTlbCorruption(core::Machine &machine, std::uint64_t pick,
                 std::string &target)
{
    std::vector<std::uint64_t> vpns = machine.tlb().cachedVpns();
    if (vpns.empty())
        return false;
    std::uint64_t vpn = vpns[pick % vpns.size()];
    std::optional<tlb::Pte> pte = machine.pageTable().lookup(vpn);
    if (!pte)
        return false;
    std::uint64_t frames = machine.allocatedFrames();
    tlb::Pte corrupt = *pte;
    // Two corruption flavours: repoint the translation (surfaces as a
    // data divergence) or drop the write permission (surfaces as a
    // TLB-modified trap on the fast machine only).
    if ((pick >> 4) % 2 == 0 && frames >= 2) {
        corrupt.pfn =
            (pte->pfn + 1 + (pick >> 8) % (frames - 1)) % frames;
        target = "tlb vpn " + hex(vpn) + " pfn " +
                 std::to_string(pte->pfn) + " -> " +
                 std::to_string(corrupt.pfn);
    } else {
        corrupt.flags.writable = false;
        target = "tlb vpn " + hex(vpn) + " write permission dropped";
    }
    return machine.tlb().corruptEntry(vpn, corrupt);
}

bool
tryTagTableFlip(core::Machine &machine, std::uint64_t pick,
                std::string &target)
{
    std::uint64_t lines = allocatedBytes(machine) / mem::kLineBytes;
    if (lines == 0)
        return false;
    std::uint64_t paddr = (pick % lines) * mem::kLineBytes;
    bool old_tag = machine.cowStore().tag(paddr);
    machine.cowStore().setTag(paddr, !old_tag);
    target = std::string("tag table bit for line ") + hex(paddr) +
             (old_tag ? " dropped" : " forged");
    return true;
}

bool
tryDramBitFlip(core::Machine &machine, std::uint64_t pick,
               std::string &target)
{
    std::uint64_t bytes = allocatedBytes(machine);
    if (bytes == 0)
        return false;
    std::uint64_t paddr = pick % bytes;
    unsigned bit = (pick / bytes) % 8;
    std::uint8_t value = machine.cowStore().readByte(paddr);
    machine.cowStore().writeByte(paddr, value ^ (1u << bit));
    target = "dram bit " + std::to_string(bit) + " at byte " +
             hex(paddr) + " flipped";
    return true;
}

bool
tryClass(core::Machine &machine, FaultClass fault, std::uint64_t pick,
         std::string &target)
{
    switch (fault) {
    case FaultClass::kTagTableFlip:
        return tryTagTableFlip(machine, pick, target);
    case FaultClass::kDramBitFlip:
        return tryDramBitFlip(machine, pick, target);
    case FaultClass::kTlbCorruption:
        return tryTlbCorruption(machine, pick, target);
    case FaultClass::kCacheTagDrop:
        return tryCacheTagDrop(machine, pick, target);
    case FaultClass::kMemoStaleness:
        return tryMemoSkew(machine, pick, target);
    }
    return false;
}

} // namespace

const char *
faultClassName(FaultClass fault)
{
    switch (fault) {
    case FaultClass::kTagTableFlip:
        return "tag_table_flip";
    case FaultClass::kDramBitFlip:
        return "dram_bit_flip";
    case FaultClass::kTlbCorruption:
        return "tlb_corruption";
    case FaultClass::kCacheTagDrop:
        return "cache_tag_drop";
    case FaultClass::kMemoStaleness:
        return "memo_staleness";
    }
    return "unknown";
}

FaultOutcome
applyFault(core::Machine &machine, const FaultPlan &plan)
{
    FaultOutcome outcome;
    // Fixed cyclic rotation from the requested class; the DRAM and
    // tag-table classes always have targets, so this terminates.
    for (unsigned i = 0; i < kNumFaultClasses; ++i) {
        FaultClass fault = static_cast<FaultClass>(
            (static_cast<unsigned>(plan.fault) + i) % kNumFaultClasses);
        if (tryClass(machine, fault, plan.pick, outcome.target)) {
            outcome.applied = true;
            outcome.applied_class = fault;
            return outcome;
        }
    }
    return outcome;
}

} // namespace cheri::check
