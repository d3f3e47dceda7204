/**
 * @file
 * Workload context that simulates timing against the CHERI machine's
 * memory hierarchy (Section 8): every access runs through the TLB and
 * the L1/L2 caches of a dedicated Machine instance, and instruction
 * counts accrue at CPI 1, so the three compilation models differ in
 * exactly the ways the paper measures — pointer footprint (cache
 * pressure), per-access check instructions, and allocation cost.
 */

#ifndef CHERI_WORKLOADS_TIMING_CONTEXT_H
#define CHERI_WORKLOADS_TIMING_CONTEXT_H

#include <memory>

#include "core/machine.h"
#include "workloads/context.h"

namespace cheri::workloads
{

/** Instruction and cycle totals for one Figure 4 phase. */
struct PhaseCosts
{
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
};

/** Simulates a workload's timing under one compilation model. */
class TimingContext : public Context
{
  public:
    /** The machine is built from config at HostTier::kReference,
     *  whatever config.accel.tier says: accesses go straight to the
     *  TLB and the hierarchy, and the Cpu never runs, so it needs no
     *  host accelerator. */
    explicit TimingContext(CompileModel model,
                           core::MachineConfig config = {});

    PhaseCosts allocPhase() const { return costs_by_phase_[0]; }
    PhaseCosts computePhase() const { return costs_by_phase_[1]; }
    PhaseCosts total() const;

    core::Machine &machine() { return *machine_; }

  protected:
    void onAlloc(std::uint64_t vaddr, std::uint64_t size) override;
    void onFree(std::uint64_t vaddr) override;
    void onLoad(std::uint64_t vaddr, std::uint64_t size, bool is_ptr,
                std::uint64_t target_size) override;
    void onStore(std::uint64_t vaddr, std::uint64_t size, bool is_ptr,
                 std::uint64_t target_size, std::uint64_t target) override;
    void onInstructions(std::uint64_t count) override;

  private:
    PhaseCosts &current() { return costs_by_phase_[phase() ==
                                                   Phase::kAlloc
                                               ? 0
                                               : 1]; }

    /** One timed access through TLB and caches. For capability
     *  stores, target/target_size describe the stored pointer so the
     *  written line carries the real capability image. */
    void access(std::uint64_t vaddr, std::uint64_t size, bool is_ptr,
                bool is_store, std::uint64_t target,
                std::uint64_t target_size);

    std::unique_ptr<core::Machine> machine_;
    PhaseCosts costs_by_phase_[2];
};

} // namespace cheri::workloads

#endif // CHERI_WORKLOADS_TIMING_CONTEXT_H
