/**
 * @file
 * The co-simulation driver: runs the optimized Cpu and the simple
 * RefCpu (ref_cpu.h) over the same program instruction by instruction,
 * diffing every piece of architectural state at every retire — GPRs,
 * HI/LO, PC, all 32 capability registers and PCC (tag, base, length,
 * perms, seal, otype via bytewise image equality), the bytes and tag
 * of every stored-to memory line, and any raised exception down to
 * its CapCause and faulting register. The first divergence stops the
 * run and is reported with a disassembled window of the instructions
 * leading up to it.
 *
 * Timing note: the driver reads the fast machine's memory through the
 * cache hierarchy to diff stored lines, which perturbs simulated cache
 * state (hits/misses, LRU). The oracle therefore checks architectural
 * equivalence only; timing invariance across host tiers is covered
 * separately by tests/test_host_tier.cc.
 */

#ifndef CHERI_CHECK_LOCKSTEP_H
#define CHERI_CHECK_LOCKSTEP_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/ref_cpu.h"
#include "core/machine.h"

namespace cheri::check
{

/** Knobs for one lockstep run. */
struct LockstepConfig
{
    /** Stop (without divergence) after this many retired instructions. */
    std::uint64_t max_instructions = 100'000'000;
    /** Disassembled instructions shown before a divergence. */
    unsigned window = 8;
    /** Flush the fast machine and diff all of DRAM + tags at the end. */
    bool final_memory_sweep = true;
};

/** Outcome of a lockstep run. */
struct LockstepResult
{
    bool diverged = false;
    /** Both machines executed BREAK (the guest kernels' exit). */
    bool hit_break = false;
    /** Both machines raised the same trap (valid in 'trap'). */
    bool trapped = false;
    core::Trap trap;
    /** Stopped because the instruction budget ran out. */
    bool hit_limit = false;
    /**
     * The fast CPU raised a trap (valid in 'fast_trap'). When
     * 'trapped' is also set the reference raised the identical trap;
     * when 'diverged' is set instead, the trap itself is the
     * divergence (the usual signature of an injected fault caught by
     * a capability or TLB check).
     */
    bool fast_trapped = false;
    core::Trap fast_trap;
    /**
     * The fast CPU stopped with a guest-induced internal fault
     * (StopReason::kInternalFault — a corruption tripped a state-
     * integrity check under an active support::PanicScope). The fast
     * machine is poisoned and the pair must not be stepped further;
     * 'fast_fault' holds the captured context.
     */
    bool fast_internal_fault = false;
    core::InternalFault fast_fault;
    /** Instructions retired by the pair during this call. */
    std::uint64_t instructions = 0;
    /** Human-readable first-divergence report; empty when clean. */
    std::string divergence;
};

/**
 * Runs a Machine and a RefCpu in lockstep. Construction snapshots the
 * machine's current architectural state (registers, capabilities, all
 * of DRAM and the tag table) into the reference, so point it at a
 * loaded, reset machine and call run(). The driver temporarily
 * installs itself as the hierarchy's StoreObserver and the Cpu's trace
 * hook; both are restored on destruction.
 *
 * Memory work scales with the pages a run can have changed: set-up
 * copies only pages the fast machine's CowStore no longer shares with
 * its zero page, and the final sweep skips a page only when the fast
 * slot is still the zero page (whose content the sweep checks first)
 * and the reference never wrote to it — both sides then read as zero.
 */
class Lockstep : private cache::StoreObserver
{
  public:
    explicit Lockstep(core::Machine &machine, LockstepConfig config = {});
    ~Lockstep() override;

    Lockstep(const Lockstep &) = delete;
    Lockstep &operator=(const Lockstep &) = delete;

    /** Run to break/trap/limit or first divergence. */
    LockstepResult run();

    /**
     * Resumable variant: run up to 'max_instructions' more retired
     * instructions and return (without the final memory sweep).
     * Position persists across calls, so a caller can pair a clean
     * prefix, mutate the fast machine (inject a fault), and continue
     * comparing — the reference stays pristine. Once a call reports
     * diverged/trapped/hit_break the pair should not be stepped
     * further.
     */
    LockstepResult runFor(std::uint64_t max_instructions);

    /**
     * Flush the fast machine and diff every DRAM line + tag against
     * the reference. Usable at any stopping point; 'out' receives the
     * first mismatch.
     */
    bool finalStateMatches(std::string &out) { return finalSweep(out); }

    /** Instructions retired by the pair since construction. */
    std::uint64_t totalInstructions() const { return total_instructions_; }

  private:
    void onLineWritten(std::uint64_t line_paddr) override;

    /** Compare registers, capabilities and PC; describe any mismatch. */
    bool compareCore(std::string &out) const;

    /** Compare the given memory lines between the two machines. */
    bool compareLines(const std::vector<std::uint64_t> &lines,
                      std::string &out);

    /**
     * Flush the fast machine and diff every DRAM line + tag, skipping
     * pages both sides provably read as zero (see the class comment).
     */
    bool finalSweep(std::string &out);

    /** Render the ring buffer of recently fetched instructions. */
    std::string windowText() const;

    /** Prefix a mismatch description with position and window. */
    std::string report(const std::string &detail) const;

    core::Machine &machine_;
    LockstepConfig config_;
    RefMemory ref_memory_;
    RefCpu ref_;

    /** Lines the fast CPU stored to in the current round. */
    std::vector<std::uint64_t> cpu_lines_;

    /** Disassembled only when a report renders the window. */
    struct TraceEntry
    {
        std::uint64_t pc = 0;
        isa::Instruction inst;
    };
    std::vector<TraceEntry> trace_; ///< ring buffer, size config.window
    std::uint64_t trace_next_ = 0;
    /** Retired by the pair across all runFor/run calls. */
    std::uint64_t total_instructions_ = 0;
};

} // namespace cheri::check

#endif // CHERI_CHECK_LOCKSTEP_H
