#include "workloads/timing_context.h"

#include "cap/capability.h"
#include "cap/perms.h"
#include "mem/cow_store.h"
#include "support/bits.h"

namespace cheri::workloads
{

TimingContext::TimingContext(CompileModel model,
                             core::MachineConfig config)
    : Context(model)
{
    config.accel.tier = core::HostTier::kReference;
    machine_ = std::make_unique<core::Machine>(config);
}

PhaseCosts
TimingContext::total() const
{
    return PhaseCosts{
        costs_by_phase_[0].instructions + costs_by_phase_[1].instructions,
        costs_by_phase_[0].cycles + costs_by_phase_[1].cycles};
}

void
TimingContext::onAlloc(std::uint64_t vaddr, std::uint64_t size)
{
    machine_->mapRange(vaddr, size);
}

void
TimingContext::onFree(std::uint64_t)
{
    // No-reuse allocation: nothing to do.
}

void
TimingContext::access(std::uint64_t vaddr, std::uint64_t size,
                      bool is_ptr, bool is_store, std::uint64_t target,
                      std::uint64_t target_size)
{
    PhaseCosts &phase_costs = current();
    bool cheri_cap = is_ptr && (model() == CompileModel::kCheri ||
                                model() == CompileModel::kCheri128);

    // Capability moves are single tagged transactions (257-bit for
    // the 256-bit format, half-line for the 128-bit variant); other
    // models move pointers as one or two 8-byte words. Data accesses
    // over 8 bytes never happen in these workloads.
    std::uint64_t chunk = cheri_cap ? costs().ptr_bytes : 8;
    for (std::uint64_t done = 0; done < size; done += chunk) {
        std::uint64_t addr = vaddr + done;
        tlb::Access kind;
        if (cheri_cap)
            kind = is_store ? tlb::Access::kCapStore
                            : tlb::Access::kCapLoad;
        else
            kind = is_store ? tlb::Access::kStore : tlb::Access::kLoad;
        tlb::TlbResult tr = machine_->tlb().translate(addr, kind);
        phase_costs.cycles += tr.penalty_cycles;
        if (!tr.ok())
            support::panic("timing access fault at vaddr 0x%llx",
                           static_cast<unsigned long long>(addr));

        std::uint64_t cycles = 0;
        if (cheri_cap && chunk == mem::kLineBytes) {
            std::uint64_t line = support::roundDown(tr.paddr,
                                                    mem::kLineBytes);
            if (is_store) {
                // Write the real capability image (base = stored
                // pointer, length = pointee allocation size) so a
                // pointer-chase prefetcher can decode it on fill. The
                // tag is always set — the workloads only move valid
                // capabilities — so tag-manager traffic matches the
                // seed exactly.
                mem::TaggedLine tagged;
                tagged.tag = true;
                cap::Capability capv = cap::Capability::make(
                    target, target_size, cap::kPermAll);
                tagged.data = capv.raw();
                machine_->memory().writeCapLine(line, tagged, cycles);
            } else {
                machine_->memory().readCapLine(line, cycles);
            }
        } else if (cheri_cap) {
            // 128-bit capability: one naturally aligned half-line
            // transaction (tag handling identical at line granule).
            if (is_store)
                machine_->memory().write(tr.paddr, 8, 0, cycles);
            else
                machine_->memory().read(tr.paddr, 8, cycles);
        } else {
            std::uint64_t chunk_size = std::min<std::uint64_t>(
                8, size - done);
            if (is_store)
                machine_->memory().write(tr.paddr, chunk_size, 0,
                                         cycles);
            else
                machine_->memory().read(tr.paddr, chunk_size, cycles);
        }
        // The L1 hit latency of 1 overlaps with the issue cycle the
        // instruction already paid; only charge the stall beyond it.
        phase_costs.cycles += cycles > 0 ? cycles - 1 : 0;
    }
}

void
TimingContext::onLoad(std::uint64_t vaddr, std::uint64_t size,
                      bool is_ptr, std::uint64_t)
{
    access(vaddr, size, is_ptr, /*is_store=*/false, 0, 0);
}

void
TimingContext::onStore(std::uint64_t vaddr, std::uint64_t size,
                       bool is_ptr, std::uint64_t target_size,
                       std::uint64_t target)
{
    access(vaddr, size, is_ptr, /*is_store=*/true, target, target_size);
}

void
TimingContext::onInstructions(std::uint64_t count)
{
    PhaseCosts &phase_costs = current();
    phase_costs.instructions += count;
    phase_costs.cycles += count;
}

} // namespace cheri::workloads
