#include "os/revoker.h"

namespace cheri::os
{

namespace
{
/** Cycle model: one cycle per 64 lines of tag-table scan (bitmap
 *  words), plus a DRAM round trip per tagged line touched. */
constexpr std::uint64_t kTagScanLinesPerCycle = 64;
constexpr std::uint64_t kLineVisitCycles = 12;
} // namespace

CapabilityRevoker::CapabilityRevoker(core::Machine &machine)
    : machine_(machine)
{
}

bool
CapabilityRevoker::intersects(const cap::Capability &capability,
                              std::uint64_t base, std::uint64_t length)
{
    if (!capability.tag())
        return false;
    std::uint64_t end = base + length;
    return capability.base() < end && capability.top() > base;
}

SweepStats
CapabilityRevoker::revoke(std::uint64_t base, std::uint64_t length)
{
    SweepStats stats;

    // Make DRAM + tag table authoritative.
    machine_.memory().flushAll();

    // 1. Register file (PCC exempt; see header).
    core::Cpu &cpu = machine_.cpu();
    for (unsigned i = 0; i < cap::kNumCapRegs; ++i) {
        const cap::Capability &capability = cpu.caps().read(i);
        if (intersects(capability, base, length)) {
            cap::Capability cleared = capability;
            cleared.clearTag();
            cpu.caps().write(i, cleared);
            ++stats.regs_revoked;
        }
    }

    // 2. Tagged physical memory, via the tag table: only tagged
    //    lines are ever read.
    mem::CowStore &store = machine_.cowStore();
    std::uint64_t total_lines = store.lineCount();
    stats.cycles += total_lines / kTagScanLinesPerCycle;

    for (std::uint64_t line = 0; line < total_lines; ++line) {
        std::uint64_t paddr = line * mem::kLineBytes;
        if (!store.tag(paddr))
            continue;
        ++stats.lines_scanned;
        stats.cycles += kLineVisitCycles;

        cap::Capability capability =
            cap::Capability::fromRaw(store.readLine(paddr).data, true);
        ++stats.caps_found;
        if (intersects(capability, base, length)) {
            store.setTag(paddr, false);
            ++stats.caps_revoked;
            stats.cycles += kLineVisitCycles; // write-back of the tag
        }
    }
    return stats;
}

std::uint64_t
CapabilityRevoker::countReferences(std::uint64_t base,
                                   std::uint64_t length)
{
    machine_.memory().flushAll();
    const mem::CowStore &store = machine_.cowStore();
    std::uint64_t total_lines = store.lineCount();
    std::uint64_t count = 0;

    core::Cpu &cpu = machine_.cpu();
    for (unsigned i = 0; i < cap::kNumCapRegs; ++i) {
        if (intersects(cpu.caps().read(i), base, length))
            ++count;
    }
    for (std::uint64_t line = 0; line < total_lines; ++line) {
        std::uint64_t paddr = line * mem::kLineBytes;
        if (!store.tag(paddr))
            continue;
        cap::Capability capability =
            cap::Capability::fromRaw(store.readLine(paddr).data, true);
        if (intersects(capability, base, length))
            ++count;
    }
    return count;
}

} // namespace cheri::os
