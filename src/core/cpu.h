/**
 * @file
 * The BERI/CHERI processor model: a single-issue in-order 64-bit MIPS
 * core with the CHERI capability coprocessor (CP2) tightly coupled to
 * its execute and memory stages (Section 4.4). Functionally complete
 * for the implemented subset; timing is cycle-accounted (CPI ~ 1 plus
 * cache, TLB, multiply/divide penalties) rather than pipelined in
 * detail — the substitution DESIGN.md documents for the paper's FPGA.
 *
 * Memory access order for a checked access (capability addressing
 * happens before translation, Section 1):
 *   1. capability check (tag, permissions, bounds) against the
 *      explicit register or C0/PCC;
 *   2. MIPS alignment check;
 *   3. TLB translation, including the CHERI PTE capability bits;
 *   4. cache-hierarchy access at the physical address.
 */

#ifndef CHERI_CORE_CPU_H
#define CHERI_CORE_CPU_H

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cache/hierarchy.h"
#include "cap/cap_ops.h"
#include "cap/reg_file.h"
#include "core/exceptions.h"
#include "isa/decoder.h"
#include "support/stats.h"
#include "tlb/tlb.h"

namespace cheri::core
{

/** Timing parameters of the core (Section 4 / R4000 parity). */
struct CpuTiming
{
    std::uint64_t mult_cycles = 8;
    std::uint64_t div_cycles = 64;
    /** Pipeline refill penalty for a mispredicted branch (BERI has a
     *  branch predictor and a 6-stage pipeline, Section 4). */
    std::uint64_t branch_mispredict_cycles = 3;
    /** Bimodal predictor table entries (power of two). */
    std::uint64_t predictor_entries = 512;

    bool operator==(const CpuTiming &) const = default;
};

/**
 * The CPU's host acceleration tier, slowest first. Each tier adds
 * host-side accelerators to the one below it, and a Cpu allocates
 * only those of its own tier; no tier changes simulated timing,
 * counters or architectural behaviour (DESIGN.md §7), so the choice
 * only moves host throughput.
 */
enum class HostTier
{
    /** No host accelerator: every fetch walks the TLB, reads the L1I
     *  and decodes; every data access takes the full capability
     *  check and hierarchy walk. The speedup baseline, and the tier
     *  the fuzz oracle's second pass runs at. */
    kReference,
    /** The per-instruction fast paths: the fetch fast path (TLB
     *  fetch handle + predecoded-instruction cache) and the data fast
     *  path (a memo of TLB and L1D handles per virtual line, §9). */
    kFast,
    /** kFast plus superblock dispatch: chained straight-line blocks
     *  of predecoded instructions (§12). */
    kSuperblock,
};

/** Stable lower-case tier name ("reference", "fast", "superblock"). */
const char *hostTierName(HostTier tier);

/**
 * The CPU's host-side accelerators: which tier runs, and the
 * geometry of its caches. These knobs change host throughput only —
 * never simulated timing or counters — so tests shrink the geometry
 * to force eviction/aliasing without perturbing the modeled machine.
 * All fixed at construction (a fork inherits them with the rest of
 * the MachineConfig). All sizes must be powers of two, at every tier.
 */
struct CpuAccelConfig
{
    HostTier tier = HostTier::kSuperblock;
    /** Direct-mapped predecode-cache lines, allocated above
     *  kReference. The default covers 32 KB of code, twice the
     *  modeled L1I, so it is never the bottleneck. */
    std::size_t decode_cache_lines = 1024;
    /** Direct-mapped superblock-cache entries (keyed by start pc),
     *  allocated at kSuperblock. */
    std::size_t superblock_entries = 1024;
    /** Maximum instructions chained into one superblock. */
    std::size_t superblock_max_slots = 64;

    bool operator==(const CpuAccelConfig &) const = default;
};

/**
 * Host-side observability counters for the superblock tier. Kept
 * outside the Cpu StatSet deliberately: simulated counters must be
 * bit-identical across accelerator modes, and these by construction
 * are not (they count host events, not architectural ones).
 */
struct SuperblockStats
{
    std::uint64_t minted = 0;      ///< blocks built (incl. re-mints)
    std::uint64_t entered = 0;     ///< successful block entries
    std::uint64_t guard_fails = 0; ///< entry probes that found a stale block
    std::uint64_t invalidated = 0; ///< blocks dropped (rollback, SMC abort)
    /** Instructions retired via superblock dispatch; the remainder of
     *  totalInstructions() went through the per-instruction path. */
    std::uint64_t instructions = 0;
};

/** Why Cpu::run returned. */
enum class StopReason
{
    kInstLimit,  ///< executed the requested number of instructions
    kCycleLimit, ///< exhausted the cycle budget (watchdog)
    kExited,     ///< syscall handler requested exit
    kTrap,       ///< unhandled guest exception (see Trap)
    kBreak,      ///< BREAK instruction
    /** A guest-induced internal failure crossed the supervision
     *  barrier: a state-integrity check (support::guestFault) fired
     *  under an active support::PanicScope and the run unwound
     *  cleanly instead of aborting. The machine stopped mid-
     *  instruction and is poisoned — roll it back
     *  (Machine::restoreFrom) or discard it (a supervisor re-forks);
     *  never resume it. */
    kInternalFault,
};

/** Stable lower-case stop-reason name used in reports and JSON. */
const char *stopReasonName(StopReason reason);

/**
 * Context captured when a run stops with kInternalFault: which
 * subsystem's integrity check fired, its message, the PC of the
 * instruction that was executing, and the retired-instruction count
 * at the stop (the faulting instruction itself did not retire).
 */
struct InternalFault
{
    std::string subsystem;
    std::string message;
    std::uint64_t pc = 0;
    std::uint64_t instructions = 0;
};

/**
 * Execution budget for Cpu::run. The cycle budget is the watchdog
 * half: a corrupted guest that spins or wanders returns a structured
 * kCycleLimit/kInstLimit result instead of hanging the host.
 */
struct RunLimits
{
    std::uint64_t max_instructions = ~0ULL;
    std::uint64_t max_cycles = ~0ULL;
};

/** Outcome of a run. */
struct RunResult
{
    StopReason reason = StopReason::kInstLimit;
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    Trap trap;            ///< valid when reason == kTrap
    std::int64_t exit_code = 0; ///< valid when reason == kExited
    InternalFault fault;  ///< valid when reason == kInternalFault
};

/** What a syscall handler tells the CPU to do next. */
struct SyscallAction
{
    bool exit = false;
    std::int64_t exit_code = 0;
};

/**
 * The processor. Owns architectural state (integer registers, HI/LO,
 * PC, the CP2 capability register file); references the shared TLB
 * and cache hierarchy.
 *
 * The fetch fast path: the CPU keeps a direct-mapped cache of
 * predecoded instruction lines keyed by physical line address, plus a
 * TLB handle for the fetch stream, so the hot loop skips the
 * per-instruction hash lookups, byte reassembly, and decode. Every
 * simulated effect of the simple path (TLB stats and LRU, one L1I line
 * access per fetch, penalty cycles) is replayed exactly, so cycle
 * counts and stats are bit-identical at every HostTier — only host
 * throughput changes. Stores into cached lines invalidate the stale
 * decodes via the hierarchy's FetchInvalidationListener hook, so
 * self-modifying code decodes fresh bytes at every tier. A kReference
 * core keeps no decodes and so registers no listener.
 *
 * The data fast path mirrors that design for loads and stores: a
 * direct-mapped memo keyed by virtual line holds a TLB handle and an
 * L1D line handle per line, and every load and store above
 * kReference translates and accesses through them. A valid handle
 * replays its structure's hit in line — TLB hit stat and LRU, L1D
 * hit/LRU/latency — and a stale one takes that structure's full path
 * and is refreshed in place, so tag-clearing store semantics, fault
 * injection, fetch coherence, and the store observer run exactly as
 * without a memo. See DESIGN.md §9. Both fast paths run at
 * HostTier::kFast and above.
 */
class Cpu : private cache::FetchInvalidationListener
{
  public:
    /**
     * Syscall upcall: invoked on SYSCALL with full access to the CPU;
     * the OS layer reads/writes registers and memory through it.
     */
    using SyscallHandler = std::function<SyscallAction(Cpu &)>;

    Cpu(cache::CacheHierarchy &memory, tlb::Tlb &tlb,
        CpuTiming timing = {}, CpuAccelConfig accel = {});
    ~Cpu() override;

    Cpu(const Cpu &) = delete;
    Cpu &operator=(const Cpu &) = delete;

    // --- architectural state ---
    std::uint64_t gpr(unsigned index) const { return gpr_[index]; }
    void setGpr(unsigned index, std::uint64_t value);
    std::uint64_t pc() const { return pc_; }
    /** Reset the flow of control (clears any pending delay slot). */
    void setPc(std::uint64_t pc);
    cap::CapRegFile &caps() { return caps_; }
    const cap::CapRegFile &caps() const { return caps_; }
    std::uint64_t hi() const { return hi_; }
    std::uint64_t lo() const { return lo_; }

    /** Enable/disable CP2 (disabled => CHERI opcodes trap). */
    void setCp2Enabled(bool enabled) { cp2_enabled_ = enabled; }
    bool cp2Enabled() const { return cp2_enabled_; }

    void setSyscallHandler(SyscallHandler handler)
    {
        syscall_handler_ = std::move(handler);
    }

    /**
     * Per-instruction observer invoked after fetch/decode with the pc
     * and decoded instruction (tracing, debuggers, coverage). Pass an
     * empty function to disable.
     */
    using TraceHook =
        std::function<void(std::uint64_t pc, const isa::Instruction &)>;
    void setTraceHook(TraceHook hook) { trace_hook_ = std::move(hook); }

    /** Run up to max_instructions; stops early on exit/trap/break. */
    RunResult run(std::uint64_t max_instructions);

    /**
     * Run under an instruction and cycle budget; stops early on
     * exit/trap/break. Both budgets are checked between whole
     * instructions (never between a branch and its delay slot), so a
     * budgeted run retires a prefix of exactly the instructions an
     * unbudgeted run would.
     */
    RunResult run(const RunLimits &limits);

    /**
     * Drop every predecoded line. Needed after code is written below
     * the hierarchy's view (Machine::loadProgram pokes DRAM
     * directly); per-store invalidation is automatic.
     */
    void invalidateDecodeCache()
    {
        ++decode_generation_;
        // Every stamped superblock guard is now meaningless: the
        // bytes under any decode line may have changed. Bump the mint
        // counter so stamps fail, and drop the blocks themselves.
        ++decode_mint_counter_;
        invalidateSuperblocks();
    }

    /**
     * Drop every superblock (counts them as invalidated). Like the
     * other host accelerators this is never required for correctness
     * — stale blocks fail their entry guards — but copyStateFrom()
     * uses it so forks and rollbacks carry no superblock state, and
     * tests use it to force re-mints.
     */
    void invalidateSuperblocks();

    /** Host-side superblock counters (not part of stats()). */
    const SuperblockStats &superblockStats() const { return sb_stats_; }

    /** Host tier and accelerator geometry this core was built with. */
    const CpuAccelConfig &accelConfig() const { return accel_; }

    /** Cycles accumulated over the CPU's lifetime. */
    std::uint64_t totalCycles() const { return cycles_; }
    /** Charge extra cycles (OS emulation of trapped instructions). */
    void chargeCycles(std::uint64_t cycles) { cycles_ += cycles; }
    /** Instructions retired over the CPU's lifetime. */
    std::uint64_t totalInstructions() const { return instructions_; }

    /** Per-opcode-class counters ("inst.alu", "inst.mem", ...). */
    const support::StatSet &stats() const { return stats_; }

    /**
     * Untimed virtual-memory access helpers for the OS layer and
     * tests. They traverse the TLB (without charging penalties) and
     * the cache hierarchy, so they stay coherent with guest accesses.
     */
    bool debugRead(std::uint64_t vaddr, unsigned size,
                   std::uint64_t &value);
    bool debugWrite(std::uint64_t vaddr, unsigned size,
                    std::uint64_t value);
    bool debugReadCap(std::uint64_t vaddr, cap::Capability &out);
    bool debugWriteCap(std::uint64_t vaddr, const cap::Capability &value);

    /**
     * Make this core's simulated state a copy of other's (same
     * CpuAccelConfig and timing): full architectural state, the
     * timing-visible microarchitectural state (branch predictor, LL/SC
     * monitor, in-flight delay-slot/PCC-swap/trap bookkeeping) and the
     * counters. Host-only accelerators (decode cache, fetch handle, data
     * memo, superblocks, PCC window) are not copied: this core's own
     * are dropped and re-mint through slow paths that replay identical
     * simulated effects.
     */
    void copyStateFrom(const Cpu &other);

    /**
     * Fault injection: repoint one live data-memo entry's L1D line
     * handle at a different resident L1D line, modelling a stale host
     * memo that revalidation fails to catch. pick seeds the (wholly
     * deterministic) choice of entry and target line. Returns false
     * when no live entry or no distinct resident line exists (fault
     * inapplicable). Only observable above HostTier::kReference.
     */
    bool injectMemoSkew(std::uint64_t pick);

  private:
    /** Per-opcode handler bodies (cpu.cc): shared verbatim between
     *  the interpreter switch and the superblock dispatch tables. */
    friend struct CpuExec;

    struct StepOutcome
    {
        bool trapped = false;
        bool exited = false;
        bool hit_break = false;
        std::int64_t exit_code = 0;
    };

    StepOutcome step();

    /** The fetch and data fast paths run at every tier above
     *  kReference. */
    bool fastPaths() const { return accel_.tier != HostTier::kReference; }

    // --- fetch fast path ---

    static constexpr std::size_t kSlotsPerLine = mem::kLineBytes / 4;

    struct DecodedLine
    {
        std::uint64_t line_paddr = ~0ULL; ///< aligned; ~0 = invalid
        std::uint64_t generation = 0;
        /** Monotonic refill stamp: every decodeLine refill gets a
         *  fresh id, so a superblock can tell "same line, same
         *  generation, but refilled with different bytes" (SMC)
         *  apart from the line it was minted over. */
        std::uint64_t mint_id = 0;
        std::array<isa::Instruction, kSlotsPerLine> slots{};
    };

    /** Geometry is a constructor knob (CpuAccelConfig); the mask is
     *  cached so the per-fetch index stays one AND. */
    std::size_t decodeIndex(std::uint64_t line_paddr) const
    {
        return (line_paddr / mem::kLineBytes) & decode_index_mask_;
    }

    /**
     * Return the decoded instruction at physical address paddr,
     * refilling the predecode line on miss. Always performs exactly
     * one L1I line access (the same one fetch32 would make), so the
     * simulated cycles and stats match the simple path.
     */
    const isa::Instruction &fetchDecoded(std::uint64_t paddr,
                                         std::uint64_t &cycles);

    /** FetchInvalidationListener: a store hit a (potential) code line. */
    void onCodeLineModified(std::uint64_t line_paddr) override;

    // --- superblock tier (DESIGN.md §12) ---

    /** One chained instruction: the predecoded form plus its
     *  precomputed physical address (valid while the block's guards
     *  hold — same page translation, same decode-line mint ids). */
    struct SuperblockSlot
    {
        isa::Instruction inst;
        std::uint64_t paddr = 0;
        /** Re-check the fetch translation before this slot: set on
         *  block leaders and after any instruction that can touch the
         *  data side (only those can move the TLB's LRU or bump its
         *  generation). Pure-ALU runs skip the checks entirely. */
        bool tlb_check = true;
        /** This slot is the delay slot of a conditional branch with
         *  more block behind it: after it retires, leave the block
         *  unless pc_ is the sequential fall-through. */
        bool fallthrough_check = false;
        /** Dispatch must materialize the architectural PC state
         *  (current_pc_, in_delay_slot_, pc_, next_pc_) before this
         *  slot: anything that can trap, branch, or read the PC.
         *  Pure-ALU slots skip the writes; exits reconstruct them. */
        bool full = true;
        /** This slot sits in a delay slot (its predecessor is a
         *  branch or jump), so its PC advance must consume the live
         *  next_pc_/branch_pending_ the branch handler produced. */
        bool is_delay = false;
    };

    /** Guard record for one predecode line a block was minted over. */
    struct SuperblockLineRef
    {
        std::uint32_t index = 0;       ///< decode_cache_ slot
        std::uint64_t line_paddr = 0;
        std::uint64_t mint_id = 0;
    };

    /**
     * A superblock: a single-page trace of predecoded instructions —
     * straight-line runs, continued through not-taken conditional
     * branches (flagged delay slots exit at run time when the branch
     * was taken) and through direct jumps (J/JAL), whose targets are
     * fixed by the pinned instruction bytes and so need no run-time
     * check at all. The guard set (start pc, fetch-handle page
     * translation, per-line mint ids) pins down everything its
     * precomputed slots assumed; entry re-checks all of it and falls
     * back to the per-instruction path the moment anything moved.
     */
    struct Superblock
    {
        std::uint64_t start_vaddr = ~0ULL; ///< ~0 = invalid
        std::uint64_t vpn = 0;
        std::uint64_t paddr_base = 0; ///< page frame base at mint
        /** page_base - paddr_base (wrapping): maps a slot's paddr
         *  back to its vaddr, for the taken-branch exit compare. */
        std::uint64_t va_delta = 0;
        /** [va_lo, va_hi): vaddr hull of every slot; one PCC-window
         *  compare at entry covers each slot's per-step check (a
         *  conservative superset for traces with jumps — rejection
         *  just falls back to the per-instruction path). */
        std::uint64_t va_lo = 0;
        std::uint64_t va_hi = 0;
        std::vector<SuperblockSlot> slots;
        std::vector<SuperblockLineRef> lines;
        /** decode_mint_counter_ when the line guards last held. While
         *  it is unchanged no decode line can have been refilled,
         *  cleared, or invalidated, so re-entry skips the per-line
         *  walk (stamps are re-taken after every full check). */
        std::uint64_t stamp_mint = ~0ULL;
    };

    std::size_t superblockIndex(std::uint64_t vaddr) const
    {
        return (vaddr >> 2) & superblock_index_mask_;
    }

    /**
     * Probe/mint/execute a superblock at pc_. Returns true when a
     * block ran (outcome filled in, budgets honoured at the same
     * commit boundaries run()'s per-instruction loop uses); false
     * with zero simulated effects applied when the caller must take
     * the per-instruction path.
     */
    bool trySuperblock(const RunLimits &limits,
                       std::uint64_t start_insts,
                       std::uint64_t start_cycles, StepOutcome &outcome);

    /** Pure host-side block builder over the hot predecode lines;
     *  false (block left invalid) when pc_ is unmintable. */
    bool mintSuperblock(Superblock &sb);

    /** Pure entry-guard check for a block whose start matches pc_
     *  (may re-probe the fetch handle — host state only, no simulated
     *  effects). */
    bool superblockGuardsHold(Superblock &sb);

    /** Threaded-dispatch executor: a computed goto through one label
     *  per opcode. */
    void executeSuperblock(Superblock &sb, const RunLimits &limits,
                           std::uint64_t start_insts,
                           std::uint64_t start_cycles,
                           StepOutcome &outcome);

    // --- data fast path ---

    /** Direct-mapped data-memo geometry (covers 32 KB of data, twice
     *  the modeled L1D, so the memo is never the bottleneck). */
    static constexpr std::size_t kDataMemoLines = 1024;

    /**
     * One memoized data line: a TLB handle for its page and an L1D
     * handle for its physical line, the shortcuts every access to the
     * line translates and moves its data through. Each handle replays
     * its structure's hit while valid and is refreshed in place by the
     * slow path otherwise (DESIGN.md §9); the L1D handle is dropped
     * whenever the TLB handle is re-minted, since the new translation
     * may name another frame. An entry is written only by an access
     * that succeeded. 64 bytes and aligned to match, so a lookup
     * touches one host cache line wherever the allocator places the
     * memo.
     */
    struct alignas(64) DataMemoEntry
    {
        std::uint64_t vline = ~0ULL; ///< vaddr >> cache::kLineShift
        tlb::Tlb::Handle page;
        cache::Cache::LineHandle l1d;
    };
    static_assert(sizeof(DataMemoEntry) == 64);

    static std::size_t dataMemoIndex(std::uint64_t vline)
    {
        return vline & (kDataMemoLines - 1);
    }

    /**
     * Drop every data-memo entry. Never required for correctness —
     * entries revalidate both handles on every use — but
     * copyStateFrom uses it so forks and rollbacks carry no memo.
     */
    void invalidateDataMemo()
    {
        for (DataMemoEntry &entry : data_memo_)
            entry.vline = ~0ULL;
    }

    /** Raise a guest exception for the instruction at epc. */
    void raise(ExcCode code, std::uint64_t bad_vaddr = 0);
    void raiseCap(cap::CapCause cause, std::uint8_t cap_reg,
                  std::uint64_t bad_vaddr = 0);

    /**
     * TLB translation of a capability-checked, aligned data access
     * through capability register cap_index, charging the refill
     * penalty; hint as for Tlb::translate. Returns false after raising
     * the TLB exception. Inline (cpu.cc), so the access kind folds to a
     * constant in each load/store body; the fault half is out of line.
     */
    template <tlb::Access kAccess>
    bool translateData(std::uint64_t vaddr, unsigned cap_index,
                       std::uint64_t &paddr_out,
                       tlb::Tlb::Handle *hint = nullptr);

    /** Raise the exception for a failed data translation. */
    void raiseTlbFault(tlb::TlbFault fault, tlb::Access access,
                       std::uint64_t vaddr, unsigned cap_index);

    void execute(const isa::Instruction &inst);
    void executeCp2(const isa::Instruction &inst);

    void branchTo(std::uint64_t target);

    /**
     * Consult/train the bimodal predictor for a conditional branch at
     * the current pc and charge the misprediction penalty when the
     * prediction disagrees with 'taken'.
     */
    void predictBranch(bool taken);

    cache::CacheHierarchy &memory_;
    tlb::Tlb &tlb_;
    CpuTiming timing_;

    std::array<std::uint64_t, 32> gpr_{};
    std::uint64_t hi_ = 0, lo_ = 0;
    std::uint64_t pc_ = 0;
    std::uint64_t next_pc_ = 4;
    cap::CapRegFile caps_;

    bool cp2_enabled_ = true;

    // LL/SC monitor (single core: address match only).
    bool ll_valid_ = false;
    std::uint64_t ll_addr_ = 0;

    /** Bimodal 2-bit branch predictor (0..3; >=2 predicts taken). */
    std::vector<std::uint8_t> predictor_;

    std::uint64_t cycles_ = 0;
    std::uint64_t instructions_ = 0;

    // Per-step bookkeeping.
    std::uint64_t current_pc_ = 0;   ///< pc of the executing instruction
    bool in_delay_slot_ = false;
    bool branch_pending_ = false;

    // CJR/CJALR swap PCC when control reaches the target (after the
    // delay slot); countdown 2 -> 1 -> apply.
    unsigned pcc_swap_countdown_ = 0;
    cap::Capability pending_pcc_;

    Trap pending_trap_;
    bool trap_pending_ = false;

    SyscallHandler syscall_handler_;
    SyscallAction syscall_action_;
    bool syscall_taken_ = false;
    TraceHook trace_hook_;

    // Fetch fast path state.
    CpuAccelConfig accel_;
    std::uint64_t decode_generation_ = 0;
    std::uint64_t decode_mint_counter_ = 0;
    std::size_t decode_index_mask_ = 0;
    std::vector<DecodedLine> decode_cache_;
    tlb::Tlb::Handle fetch_hint_;

    // Data fast path state.
    std::vector<DataMemoEntry> data_memo_;

    // Superblock tier state.
    std::size_t superblock_index_mask_ = 0;
    std::vector<Superblock> superblock_cache_;
    /** Next straight-line continuation leader: pc after a block
     *  exit, so fallthrough chains mint without waiting for a
     *  branch target. ~0 = none. */
    std::uint64_t sb_pending_leader_ = ~0ULL;
    /** Block currently dispatching (onCodeLineModified scans its
     *  lines so an in-block store to its own code aborts it). */
    const Superblock *sb_active_ = nullptr;
    bool sb_smc_abort_ = false;
    SuperblockStats sb_stats_;
    /** L1I hit latency minus the base cycle, hoisted from the
     *  hierarchy config at construction: the stall a deferred
     *  repeat fetch charges per slot. */
    std::uint64_t sb_hit_stall_ = 0;

    // Cached PCC fetch window, refreshed when CapRegFile::pccVersion
    // moves (once per jump/domain crossing, not once per step). The
    // per-step bounds check then collapses to two compares; the slow
    // cap::checkFetch runs only to name the precise cause on failure.
    std::uint64_t pcc_version_seen_ = ~0ULL;
    bool pcc_fetch_ok_ = false;
    std::uint64_t pcc_fetch_base_ = 0;
    std::uint64_t pcc_fetch_top_ = 0;

    support::StatSet stats_;
    // Pre-resolved per-class instruction counters (see
    // StatSet::counter); the hot loop bumps one of these per retired
    // instruction instead of doing a map lookup.
    std::uint64_t *stat_alu_ = nullptr;
    std::uint64_t *stat_muldiv_ = nullptr;
    std::uint64_t *stat_branch_ = nullptr;
    std::uint64_t *stat_syscall_ = nullptr;
    std::uint64_t *stat_break_ = nullptr;
    std::uint64_t *stat_mem_ = nullptr;
    std::uint64_t *stat_capmem_ = nullptr;
    std::uint64_t *stat_cp2_ = nullptr;
    std::uint64_t *stat_mispredicts_ = nullptr;
};

} // namespace cheri::core

#endif // CHERI_CORE_CPU_H
