#include "core/cpu.h"

#include <algorithm>

#include "isa/disasm.h"
#include "support/bits.h"
#include "support/logging.h"

namespace cheri::core
{

using cap::CapCause;
using isa::Instruction;
using isa::Opcode;
using support::signExtend;

namespace
{

/** Sign-extend a 32-bit result as MIPS64 word operations require. */
std::uint64_t
sext32(std::uint64_t value)
{
    return static_cast<std::uint64_t>(
        static_cast<std::int64_t>(static_cast<std::int32_t>(value)));
}

void
requirePow2(std::size_t value, const char *name)
{
    if (value == 0 || (value & (value - 1)) != 0)
        support::panic("CpuAccelConfig.%s (%zu) must be a power of two",
                       name, value);
}

/** What CpuExec::access<op> knows about op: its kOps row, at compile
 *  time. */
template <Opcode kOp>
struct MemOp
{
    static constexpr isa::OpInfo kRow = isa::opInfo(kOp);
    static_assert(kRow.size_log2 >= 0, "not a data-memory opcode");

    /** Through cb with rt + imm; else through C0 with rs + imm. */
    static constexpr bool kViaCap = kRow.flags & isa::kCapMemory;
    static constexpr bool kStore = kRow.flags & isa::kStore;
    static constexpr unsigned kSize = 1u << kRow.size_log2;
    /** CLC/CSC: a whole tagged line moves to or from cd. */
    static constexpr bool kLine = kSize == mem::kLineBytes;
    static constexpr bool kLinked =
        kOp == Opcode::kLld || kOp == Opcode::kScd ||
        kOp == Opcode::kClld || kOp == Opcode::kCscd;
    static constexpr bool kSignExtend =
        !(kRow.flags & isa::kZeroExtend) && kSize < 8;
    static constexpr std::uint32_t kPerm =
        kLine ? (kStore ? cap::kPermStoreCap : cap::kPermLoadCap)
              : (kStore ? cap::kPermStore : cap::kPermLoad);
    static constexpr tlb::Access kAccess =
        kLine ? (kStore ? tlb::Access::kCapStore : tlb::Access::kCapLoad)
              : (kStore ? tlb::Access::kStore : tlb::Access::kLoad);

    /** The register a scalar access loads, stores, or SC reports in. */
    static std::uint8_t data(const Instruction &i)
    {
        return kViaCap ? i.rd : i.rt;
    }
};

} // namespace

const char *
stopReasonName(StopReason reason)
{
    switch (reason) {
    case StopReason::kInstLimit:
        return "inst_limit";
    case StopReason::kCycleLimit:
        return "cycle_limit";
    case StopReason::kExited:
        return "exited";
    case StopReason::kTrap:
        return "trap";
    case StopReason::kBreak:
        return "break";
    case StopReason::kInternalFault:
        return "internal_fault";
    }
    return "unknown";
}

const char *
hostTierName(HostTier tier)
{
    switch (tier) {
    case HostTier::kReference:
        return "reference";
    case HostTier::kFast:
        return "fast";
    case HostTier::kSuperblock:
        return "superblock";
    }
    return "unknown";
}

Cpu::Cpu(cache::CacheHierarchy &memory, tlb::Tlb &tlb, CpuTiming timing,
         CpuAccelConfig accel)
    : memory_(memory), tlb_(tlb), timing_(timing),
      predictor_(timing.predictor_entries, 1), // weakly not-taken
      accel_(accel),
      // Each tier allocates only the accelerators it runs; every use
      // of an array sits behind its tier's check or loops over it.
      decode_cache_(fastPaths() ? accel.decode_cache_lines : 0),
      data_memo_(fastPaths() ? kDataMemoLines : 0),
      superblock_cache_(accel.tier == HostTier::kSuperblock
                            ? accel.superblock_entries
                            : 0)
{
    requirePow2(accel.decode_cache_lines, "decode_cache_lines");
    requirePow2(accel.superblock_entries, "superblock_entries");
    if (accel.superblock_max_slots < 2)
        support::panic("CpuAccelConfig.superblock_max_slots (%zu) must "
                       "be at least 2 (a branch plus its delay slot)",
                       accel.superblock_max_slots);
    decode_index_mask_ = accel.decode_cache_lines - 1;
    superblock_index_mask_ = accel.superblock_entries - 1;
    // The listener only clears predecode lines and aborts a
    // dispatching superblock, so the reference tier needs none.
    if (fastPaths())
        memory_.setFetchListener(this);
    sb_hit_stall_ = memory_.fetchHitLatency() > 0
                        ? memory_.fetchHitLatency() - 1
                        : 0;
    stat_alu_ = &stats_.counter("inst.alu");
    stat_muldiv_ = &stats_.counter("inst.muldiv");
    stat_branch_ = &stats_.counter("inst.branch");
    stat_syscall_ = &stats_.counter("inst.syscall");
    stat_break_ = &stats_.counter("inst.break");
    stat_mem_ = &stats_.counter("inst.mem");
    stat_capmem_ = &stats_.counter("inst.capmem");
    stat_cp2_ = &stats_.counter("inst.cp2");
    stat_mispredicts_ = &stats_.counter("branch.mispredicts");
}

Cpu::~Cpu()
{
    memory_.setFetchListener(nullptr);
}

const isa::Instruction &
Cpu::fetchDecoded(std::uint64_t paddr, std::uint64_t &cycles)
{
    std::uint64_t line_addr = paddr & ~(mem::kLineBytes - 1);
    std::size_t slot = (paddr % mem::kLineBytes) / 4;
    DecodedLine &entry = decode_cache_[decodeIndex(line_addr)];
    if (entry.line_paddr == line_addr &&
        entry.generation == decode_generation_) {
        // Hit: still perform the L1I line access the simple path
        // makes (stats, LRU, fill, cycles); only the byte reassembly
        // and decode are skipped.
        memory_.fetchLine(paddr, cycles);
        return entry.slots[slot];
    }
    const mem::TaggedLine *line = memory_.fetchLine(paddr, cycles);
    isa::decodeLine(line->data.data(), entry.slots.data(),
                    kSlotsPerLine);
    entry.line_paddr = line_addr;
    entry.generation = decode_generation_;
    entry.mint_id = ++decode_mint_counter_;
    return entry.slots[slot];
}

void
Cpu::onCodeLineModified(std::uint64_t line_paddr)
{
    DecodedLine &entry = decode_cache_[decodeIndex(line_paddr)];
    if (entry.line_paddr == line_paddr) {
        entry.line_paddr = ~0ULL;
        // Every decode-entry mutation (refill or this clear) bumps the
        // mint counter so stamped superblock guards over the line fail.
        ++decode_mint_counter_;
    }
    // A store landing on a line the dispatching superblock was minted
    // over makes its remaining predecoded slots stale: flag the abort
    // so the block exits before the next slot and the per-instruction
    // path (which decodes fresh bytes) takes over bit-identically.
    if (sb_active_ != nullptr && !sb_smc_abort_) {
        for (const SuperblockLineRef &ref : sb_active_->lines) {
            if (ref.line_paddr == line_paddr) {
                sb_smc_abort_ = true;
                break;
            }
        }
    }
}

// --- data path ---
//
// Every load and store translates through translateData and moves its
// data through CpuExec::transfer; above kReference both go through the
// data memo's handles for the line (DESIGN.md §9). The cycle formula is
// the same at every tier: the TLB refill penalty, and of the
// hierarchy's cycles only the stall beyond the one-cycle base CPI.

template <tlb::Access kAccess>
CHERI_FORCE_INLINE bool
Cpu::translateData(std::uint64_t vaddr, unsigned cap_index,
                   std::uint64_t &paddr_out, tlb::Tlb::Handle *hint)
{
    tlb::TlbResult result = tlb_.translate(vaddr, kAccess, hint);
    cycles_ += result.penalty_cycles;
    if (!result.ok()) {
        raiseTlbFault(result.fault, kAccess, vaddr, cap_index);
        return false;
    }
    paddr_out = result.paddr;
    return true;
}

CHERI_FORCE_INLINE void
Cpu::predictBranch(bool taken)
{
    std::uint8_t &counter =
        predictor_[(current_pc_ >> 2) & (predictor_.size() - 1)];
    bool predicted_taken = counter >= 2;
    if (predicted_taken != taken) {
        cycles_ += timing_.branch_mispredict_cycles;
        ++*stat_mispredicts_;
    }
    if (taken && counter < 3)
        ++counter;
    else if (!taken && counter > 0)
        --counter;
}

void
Cpu::setGpr(unsigned index, std::uint64_t value)
{
    if (index >= 32)
        support::panic("GPR index %u out of range", index);
    if (index != 0)
        gpr_[index] = value;
}

void
Cpu::setPc(std::uint64_t pc)
{
    pc_ = pc;
    next_pc_ = pc + 4;
    branch_pending_ = false;
    pcc_swap_countdown_ = 0;
}

void
Cpu::raise(ExcCode code, std::uint64_t bad_vaddr)
{
    pending_trap_ = Trap{};
    pending_trap_.code = code;
    pending_trap_.epc = current_pc_;
    pending_trap_.bad_vaddr = bad_vaddr;
    pending_trap_.in_delay_slot = in_delay_slot_;
    trap_pending_ = true;
}

void
Cpu::raiseCap(CapCause cause, std::uint8_t cap_reg,
              std::uint64_t bad_vaddr)
{
    raise(ExcCode::kCp2, bad_vaddr);
    pending_trap_.cap_cause = cause;
    pending_trap_.cap_reg = cap_reg;
}

void
Cpu::branchTo(std::uint64_t target)
{
    next_pc_ = target;
    branch_pending_ = true;
}

void
Cpu::raiseTlbFault(tlb::TlbFault fault, tlb::Access access,
                   std::uint64_t vaddr, unsigned cap_index)
{
    bool is_store = access == tlb::Access::kStore ||
                    access == tlb::Access::kCapStore;
    switch (fault) {
      case tlb::TlbFault::kNoMapping:
      case tlb::TlbFault::kNotReadable:
        raise(is_store ? ExcCode::kTlbStore : ExcCode::kTlbLoad, vaddr);
        break;
      case tlb::TlbFault::kNotWritable:
        raise(ExcCode::kTlbModified, vaddr);
        break;
      case tlb::TlbFault::kCapLoadDenied:
        raiseCap(CapCause::kTlbNoLoadCap,
                 static_cast<std::uint8_t>(cap_index), vaddr);
        break;
      case tlb::TlbFault::kCapStoreDenied:
        raiseCap(CapCause::kTlbNoStoreCap,
                 static_cast<std::uint8_t>(cap_index), vaddr);
        break;
      default:
        raise(ExcCode::kTlbLoad, vaddr);
        break;
    }
}

Cpu::StepOutcome
Cpu::step()
{
    StepOutcome outcome;
    current_pc_ = pc_;
    in_delay_slot_ = branch_pending_;

    // A control transfer takes effect after its delay slot; the PCC
    // swap of CJR/CJALR activates at the same moment.
    if (pcc_swap_countdown_ > 0 && --pcc_swap_countdown_ == 0)
        caps_.setPcc(pending_pcc_);

    // --- fetch ---
    if (pcc_version_seen_ != caps_.pccVersion()) {
        pcc_version_seen_ = caps_.pccVersion();
        const cap::Capability &pcc = caps_.pcc();
        pcc_fetch_ok_ = pcc.tag() && !pcc.sealed() &&
                        pcc.hasPerms(cap::kPermExecute);
        pcc_fetch_base_ = pcc.base();
        pcc_fetch_top_ = pcc.top();
    }
    // Exactly cap::checkFetch(pcc, pc_) against the cached window; the
    // full check reruns on failure to name the architectural cause.
    if (!pcc_fetch_ok_ || pc_ < pcc_fetch_base_ || pc_ + 4 < pc_ ||
        pc_ + 4 > pcc_fetch_top_) {
        raiseCap(cap::checkFetch(caps_.pcc(), pc_), kCapRegPcc, pc_);
        outcome.trapped = true;
        return outcome;
    }
    if (pc_ % 4 != 0) {
        raise(ExcCode::kAddressErrorLoad, pc_);
        outcome.trapped = true;
        return outcome;
    }
    tlb::TlbResult fetch_tr = tlb_.translate(
        pc_, tlb::Access::kFetch, fastPaths() ? &fetch_hint_ : nullptr);
    cycles_ += fetch_tr.penalty_cycles;
    if (!fetch_tr.ok()) {
        raise(ExcCode::kTlbLoad, pc_);
        outcome.trapped = true;
        return outcome;
    }
    // L1I hits overlap with the fetch stage; only the stall beyond
    // the hit latency costs cycles. Both arms perform exactly one L1I
    // line access, so fetch_cycles is mode-independent.
    std::uint64_t fetch_cycles = 0;
    Instruction decoded_word;
    const Instruction *inst_ptr;
    if (fastPaths()) {
        inst_ptr = &fetchDecoded(fetch_tr.paddr, fetch_cycles);
    } else {
        std::uint32_t word =
            memory_.fetch32(fetch_tr.paddr, fetch_cycles);
        decoded_word = isa::decode(word);
        inst_ptr = &decoded_word;
    }
    cycles_ += fetch_cycles > 0 ? fetch_cycles - 1 : 0;
    const Instruction &inst = *inst_ptr;
    if (trace_hook_)
        trace_hook_(current_pc_, inst);

    // --- advance control flow (branch targets land in next_pc_) ---
    pc_ = next_pc_;
    next_pc_ = pc_ + 4;
    branch_pending_ = false;

    // --- execute ---
    syscall_taken_ = false;
    execute(inst);
    ++instructions_;
    ++cycles_; // base CPI of 1

    if (trap_pending_) {
        outcome.trapped = true;
        return outcome;
    }
    if (syscall_taken_ && syscall_action_.exit) {
        outcome.exited = true;
        outcome.exit_code = syscall_action_.exit_code;
        return outcome;
    }
    if (inst.op == Opcode::kBreak)
        outcome.hit_break = true;
    return outcome;
}

RunResult
Cpu::run(std::uint64_t max_instructions)
{
    return run(RunLimits{max_instructions, ~0ULL});
}

RunResult
Cpu::run(const RunLimits &limits)
{
    RunResult result;
    std::uint64_t start_insts = instructions_;
    std::uint64_t start_cycles = cycles_;

    // Never stop between a taken branch and its delay slot: the
    // pending-branch state is microarchitectural, and a context
    // switch restored via setPc() would lose the target. Run the
    // delay slot before honouring either budget, so every stop is at
    // a clean commit boundary.
    //
    // The try block is the guest-failure barrier: a state-integrity
    // check that corrupted guest state can reach (support::guestFault)
    // throws under an active support::PanicScope, and the run turns it
    // into a structured kInternalFault stop with full context instead
    // of aborting the process. The faulting instruction was abandoned
    // mid-execute, so the machine is poisoned — the caller must roll
    // it back or discard it. Without a PanicScope the fault aborts
    // inside guestFault() and this catch never sees it.
    try {
        while (instructions_ - start_insts < limits.max_instructions ||
               branch_pending_) {
            if (cycles_ - start_cycles >= limits.max_cycles &&
                !branch_pending_) {
                result.reason = StopReason::kCycleLimit;
                break;
            }
            trap_pending_ = false;
            StepOutcome outcome;
            if (accel_.tier != HostTier::kSuperblock ||
                !trySuperblock(limits, start_insts, start_cycles,
                               outcome))
                outcome = step();
            if (outcome.trapped) {
                result.reason = StopReason::kTrap;
                result.trap = pending_trap_;
                break;
            }
            if (outcome.exited) {
                result.reason = StopReason::kExited;
                result.exit_code = outcome.exit_code;
                break;
            }
            if (outcome.hit_break) {
                result.reason = StopReason::kBreak;
                break;
            }
        }
    } catch (const support::GuestFailure &failure) {
        result.reason = StopReason::kInternalFault;
        result.fault.subsystem = failure.subsystem();
        result.fault.message = failure.message();
        result.fault.pc = current_pc_;
        result.fault.instructions = instructions_;
    }
    result.instructions = instructions_ - start_insts;
    result.cycles = cycles_ - start_cycles;
    return result;
}

void
Cpu::copyStateFrom(const Cpu &other)
{
    gpr_ = other.gpr_;
    hi_ = other.hi_;
    lo_ = other.lo_;
    pc_ = other.pc_;
    next_pc_ = other.next_pc_;
    caps_.restore(other.caps_.save());
    cp2_enabled_ = other.cp2_enabled_;
    ll_valid_ = other.ll_valid_;
    ll_addr_ = other.ll_addr_;
    predictor_ = other.predictor_;
    cycles_ = other.cycles_;
    instructions_ = other.instructions_;
    current_pc_ = other.current_pc_;
    in_delay_slot_ = other.in_delay_slot_;
    branch_pending_ = other.branch_pending_;
    pcc_swap_countdown_ = other.pcc_swap_countdown_;
    pending_pcc_ = other.pending_pcc_;
    pending_trap_ = other.pending_trap_;
    trap_pending_ = other.trap_pending_;
    stats_.assignFrom(other.stats_);
    // Host-side accelerators are not copied: drop this core's own and
    // let the slow paths re-mint. Each replays identical simulated
    // effects, so this cannot perturb counters.
    ++decode_generation_;
    fetch_hint_ = tlb::Tlb::Handle{};
    invalidateDataMemo();
    invalidateSuperblocks();
    sb_pending_leader_ = ~0ULL;
    pcc_version_seen_ = ~0ULL;
}

void
Cpu::invalidateSuperblocks()
{
    for (Superblock &sb : superblock_cache_) {
        if (sb.start_vaddr != ~0ULL) {
            sb.start_vaddr = ~0ULL;
            ++sb_stats_.invalidated;
        }
    }
}

bool
Cpu::injectMemoSkew(std::uint64_t pick)
{
    // Live memo entries in index order: deterministic for a given
    // machine state and pick.
    std::vector<std::size_t> live;
    for (std::size_t i = 0; i < data_memo_.size(); ++i) {
        const DataMemoEntry &entry = data_memo_[i];
        if (entry.vline != ~0ULL && tlb_.current(entry.page) &&
            memory_.l1d().handleValid(entry.l1d)) {
            live.push_back(i);
        }
    }
    if (live.empty())
        return false;
    DataMemoEntry &victim = data_memo_[live[pick % live.size()]];
    // The line the entry's translation reaches.
    std::uint64_t victim_line =
        victim.page.frame_base +
        ((victim.vline << cache::kLineShift) & (tlb::kPageBytes - 1));

    std::vector<std::uint64_t> resident = memory_.l1d().residentLines();
    if (resident.size() < 2)
        return false;
    std::size_t start = (pick / live.size()) % resident.size();
    for (std::size_t i = 0; i < resident.size(); ++i) {
        std::uint64_t line = resident[(start + i) % resident.size()];
        if (line == victim_line)
            continue;
        cache::Cache::LineHandle handle;
        if (memory_.l1d().probeHandle(line, handle)) {
            victim.l1d = handle;
            return true;
        }
    }
    return false;
}

/*
 * Per-opcode handler bodies. The interpreter switch below calls them
 * case by case (the compiler inlines them, so the per-instruction path
 * keeps its codegen), while the superblock tier dispatches the very
 * same functions through a pre-resolved label table (computed goto) —
 * one source of truth for instruction semantics, two dispatch
 * mechanisms.
 */
struct CpuExec
{
    static void invalid(Cpu &c, const Instruction &)
    {
        c.raise(ExcCode::kReservedInstruction);
    }

    // --- shifts ---
    static void sll(Cpu &c, const Instruction &i)
    {
        ++*c.stat_alu_;
        c.setGpr(i.rd, sext32(static_cast<std::uint32_t>(c.gpr_[i.rt])
                              << i.sa));
    }
    static void srl(Cpu &c, const Instruction &i)
    {
        ++*c.stat_alu_;
        c.setGpr(i.rd, sext32(static_cast<std::uint32_t>(c.gpr_[i.rt]) >>
                              i.sa));
    }
    static void sra(Cpu &c, const Instruction &i)
    {
        ++*c.stat_alu_;
        c.setGpr(i.rd,
                 sext32(static_cast<std::uint32_t>(
                     static_cast<std::int32_t>(c.gpr_[i.rt]) >> i.sa)));
    }
    static void sllv(Cpu &c, const Instruction &i)
    {
        ++*c.stat_alu_;
        c.setGpr(i.rd, sext32(static_cast<std::uint32_t>(c.gpr_[i.rt])
                              << (c.gpr_[i.rs] & 31)));
    }
    static void srlv(Cpu &c, const Instruction &i)
    {
        ++*c.stat_alu_;
        c.setGpr(i.rd, sext32(static_cast<std::uint32_t>(c.gpr_[i.rt]) >>
                              (c.gpr_[i.rs] & 31)));
    }
    static void srav(Cpu &c, const Instruction &i)
    {
        ++*c.stat_alu_;
        c.setGpr(i.rd,
                 sext32(static_cast<std::uint32_t>(
                     static_cast<std::int32_t>(c.gpr_[i.rt]) >>
                     static_cast<int>(c.gpr_[i.rs] & 31))));
    }
    static void dsll(Cpu &c, const Instruction &i)
    {
        ++*c.stat_alu_;
        c.setGpr(i.rd, c.gpr_[i.rt] << i.sa);
    }
    static void dsrl(Cpu &c, const Instruction &i)
    {
        ++*c.stat_alu_;
        c.setGpr(i.rd, c.gpr_[i.rt] >> i.sa);
    }
    static void dsra(Cpu &c, const Instruction &i)
    {
        ++*c.stat_alu_;
        c.setGpr(i.rd,
                 static_cast<std::uint64_t>(
                     static_cast<std::int64_t>(c.gpr_[i.rt]) >> i.sa));
    }
    static void dsll32(Cpu &c, const Instruction &i)
    {
        ++*c.stat_alu_;
        c.setGpr(i.rd, c.gpr_[i.rt] << (i.sa + 32));
    }
    static void dsrl32(Cpu &c, const Instruction &i)
    {
        ++*c.stat_alu_;
        c.setGpr(i.rd, c.gpr_[i.rt] >> (i.sa + 32));
    }
    static void dsra32(Cpu &c, const Instruction &i)
    {
        ++*c.stat_alu_;
        c.setGpr(i.rd, static_cast<std::uint64_t>(
                           static_cast<std::int64_t>(c.gpr_[i.rt]) >>
                           (i.sa + 32)));
    }
    static void dsllv(Cpu &c, const Instruction &i)
    {
        ++*c.stat_alu_;
        c.setGpr(i.rd, c.gpr_[i.rt] << (c.gpr_[i.rs] & 63));
    }
    static void dsrlv(Cpu &c, const Instruction &i)
    {
        ++*c.stat_alu_;
        c.setGpr(i.rd, c.gpr_[i.rt] >> (c.gpr_[i.rs] & 63));
    }
    static void dsrav(Cpu &c, const Instruction &i)
    {
        ++*c.stat_alu_;
        c.setGpr(i.rd,
                 static_cast<std::uint64_t>(
                     static_cast<std::int64_t>(c.gpr_[i.rt]) >>
                     static_cast<int>(c.gpr_[i.rs] & 63)));
    }

    // --- ALU register ---
    static void addu(Cpu &c, const Instruction &i)
    {
        ++*c.stat_alu_;
        c.setGpr(i.rd, sext32(c.gpr_[i.rs] + c.gpr_[i.rt]));
    }
    static void daddu(Cpu &c, const Instruction &i)
    {
        ++*c.stat_alu_;
        c.setGpr(i.rd, c.gpr_[i.rs] + c.gpr_[i.rt]);
    }
    static void subu(Cpu &c, const Instruction &i)
    {
        ++*c.stat_alu_;
        c.setGpr(i.rd, sext32(c.gpr_[i.rs] - c.gpr_[i.rt]));
    }
    static void dsubu(Cpu &c, const Instruction &i)
    {
        ++*c.stat_alu_;
        c.setGpr(i.rd, c.gpr_[i.rs] - c.gpr_[i.rt]);
    }
    static void and_(Cpu &c, const Instruction &i)
    {
        ++*c.stat_alu_;
        c.setGpr(i.rd, c.gpr_[i.rs] & c.gpr_[i.rt]);
    }
    static void or_(Cpu &c, const Instruction &i)
    {
        ++*c.stat_alu_;
        c.setGpr(i.rd, c.gpr_[i.rs] | c.gpr_[i.rt]);
    }
    static void xor_(Cpu &c, const Instruction &i)
    {
        ++*c.stat_alu_;
        c.setGpr(i.rd, c.gpr_[i.rs] ^ c.gpr_[i.rt]);
    }
    static void nor_(Cpu &c, const Instruction &i)
    {
        ++*c.stat_alu_;
        c.setGpr(i.rd, ~(c.gpr_[i.rs] | c.gpr_[i.rt]));
    }
    static void slt(Cpu &c, const Instruction &i)
    {
        ++*c.stat_alu_;
        c.setGpr(i.rd, static_cast<std::int64_t>(c.gpr_[i.rs]) <
                               static_cast<std::int64_t>(c.gpr_[i.rt])
                           ? 1
                           : 0);
    }
    static void sltu(Cpu &c, const Instruction &i)
    {
        ++*c.stat_alu_;
        c.setGpr(i.rd, c.gpr_[i.rs] < c.gpr_[i.rt] ? 1 : 0);
    }
    static void movz(Cpu &c, const Instruction &i)
    {
        ++*c.stat_alu_;
        if (c.gpr_[i.rt] == 0)
            c.setGpr(i.rd, c.gpr_[i.rs]);
    }
    static void movn(Cpu &c, const Instruction &i)
    {
        ++*c.stat_alu_;
        if (c.gpr_[i.rt] != 0)
            c.setGpr(i.rd, c.gpr_[i.rs]);
    }
    static void dmult(Cpu &c, const Instruction &i)
    {
        ++*c.stat_muldiv_;
        c.cycles_ += c.timing_.mult_cycles;
        __int128 product = static_cast<__int128>(static_cast<std::int64_t>(
                               c.gpr_[i.rs])) *
                           static_cast<std::int64_t>(c.gpr_[i.rt]);
        c.lo_ = static_cast<std::uint64_t>(product);
        c.hi_ = static_cast<std::uint64_t>(product >> 64);
    }
    static void dmultu(Cpu &c, const Instruction &i)
    {
        ++*c.stat_muldiv_;
        c.cycles_ += c.timing_.mult_cycles;
        unsigned __int128 product =
            static_cast<unsigned __int128>(c.gpr_[i.rs]) * c.gpr_[i.rt];
        c.lo_ = static_cast<std::uint64_t>(product);
        c.hi_ = static_cast<std::uint64_t>(product >> 64);
    }
    static void ddiv(Cpu &c, const Instruction &i)
    {
        ++*c.stat_muldiv_;
        c.cycles_ += c.timing_.div_cycles;
        std::uint64_t rs = c.gpr_[i.rs];
        std::uint64_t rt = c.gpr_[i.rt];
        if (rt != 0) {
            c.lo_ = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(rs) /
                static_cast<std::int64_t>(rt));
            c.hi_ = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(rs) %
                static_cast<std::int64_t>(rt));
        }
    }
    static void ddivu(Cpu &c, const Instruction &i)
    {
        ++*c.stat_muldiv_;
        c.cycles_ += c.timing_.div_cycles;
        std::uint64_t rs = c.gpr_[i.rs];
        std::uint64_t rt = c.gpr_[i.rt];
        if (rt != 0) {
            c.lo_ = rs / rt;
            c.hi_ = rs % rt;
        }
    }
    static void mfhi(Cpu &c, const Instruction &i)
    {
        ++*c.stat_alu_;
        c.setGpr(i.rd, c.hi_);
    }
    static void mflo(Cpu &c, const Instruction &i)
    {
        ++*c.stat_alu_;
        c.setGpr(i.rd, c.lo_);
    }

    // --- ALU immediate ---
    static void addiu(Cpu &c, const Instruction &i)
    {
        ++*c.stat_alu_;
        c.setGpr(i.rt,
                 sext32(c.gpr_[i.rs] +
                        static_cast<std::uint64_t>(
                            static_cast<std::int64_t>(i.imm))));
    }
    static void daddiu(Cpu &c, const Instruction &i)
    {
        ++*c.stat_alu_;
        c.setGpr(i.rt, c.gpr_[i.rs] +
                           static_cast<std::uint64_t>(
                               static_cast<std::int64_t>(i.imm)));
    }
    static void slti(Cpu &c, const Instruction &i)
    {
        ++*c.stat_alu_;
        c.setGpr(i.rt,
                 static_cast<std::int64_t>(c.gpr_[i.rs]) < i.imm ? 1 : 0);
    }
    static void sltiu(Cpu &c, const Instruction &i)
    {
        ++*c.stat_alu_;
        c.setGpr(i.rt, c.gpr_[i.rs] <
                               static_cast<std::uint64_t>(
                                   static_cast<std::int64_t>(i.imm))
                           ? 1
                           : 0);
    }
    static void andi(Cpu &c, const Instruction &i)
    {
        ++*c.stat_alu_;
        c.setGpr(i.rt, c.gpr_[i.rs] &
                           (static_cast<std::uint32_t>(i.imm) & 0xffff));
    }
    static void ori(Cpu &c, const Instruction &i)
    {
        ++*c.stat_alu_;
        c.setGpr(i.rt, c.gpr_[i.rs] |
                           (static_cast<std::uint32_t>(i.imm) & 0xffff));
    }
    static void xori(Cpu &c, const Instruction &i)
    {
        ++*c.stat_alu_;
        c.setGpr(i.rt, c.gpr_[i.rs] ^
                           (static_cast<std::uint32_t>(i.imm) & 0xffff));
    }
    static void lui(Cpu &c, const Instruction &i)
    {
        ++*c.stat_alu_;
        c.setGpr(i.rt,
                 signExtend(static_cast<std::uint64_t>(i.imm & 0xffff)
                                << 16,
                            32));
    }

    // --- control flow ---
    static void j(Cpu &c, const Instruction &i)
    {
        ++*c.stat_branch_;
        c.branchTo(((c.current_pc_ + 4) & ~0x0fffffffULL) |
                   (static_cast<std::uint64_t>(i.target) << 2));
    }
    static void jal(Cpu &c, const Instruction &i)
    {
        ++*c.stat_branch_;
        c.setGpr(31, c.current_pc_ + 8);
        c.branchTo(((c.current_pc_ + 4) & ~0x0fffffffULL) |
                   (static_cast<std::uint64_t>(i.target) << 2));
    }
    static void jr(Cpu &c, const Instruction &i)
    {
        ++*c.stat_branch_;
        c.branchTo(c.gpr_[i.rs]);
    }
    static void jalr(Cpu &c, const Instruction &i)
    {
        ++*c.stat_branch_;
        c.setGpr(i.rd, c.current_pc_ + 8);
        c.branchTo(c.gpr_[i.rs]);
    }
    static void beq(Cpu &c, const Instruction &i)
    {
        ++*c.stat_branch_;
        bool taken = c.gpr_[i.rs] == c.gpr_[i.rt];
        c.predictBranch(taken);
        if (taken)
            c.branchTo(c.current_pc_ + 4 +
                       (static_cast<std::int64_t>(i.imm) << 2));
    }
    static void bne(Cpu &c, const Instruction &i)
    {
        ++*c.stat_branch_;
        bool taken = c.gpr_[i.rs] != c.gpr_[i.rt];
        c.predictBranch(taken);
        if (taken)
            c.branchTo(c.current_pc_ + 4 +
                       (static_cast<std::int64_t>(i.imm) << 2));
    }
    static void blez(Cpu &c, const Instruction &i)
    {
        ++*c.stat_branch_;
        bool taken = static_cast<std::int64_t>(c.gpr_[i.rs]) <= 0;
        c.predictBranch(taken);
        if (taken)
            c.branchTo(c.current_pc_ + 4 +
                       (static_cast<std::int64_t>(i.imm) << 2));
    }
    static void bgtz(Cpu &c, const Instruction &i)
    {
        ++*c.stat_branch_;
        bool taken = static_cast<std::int64_t>(c.gpr_[i.rs]) > 0;
        c.predictBranch(taken);
        if (taken)
            c.branchTo(c.current_pc_ + 4 +
                       (static_cast<std::int64_t>(i.imm) << 2));
    }
    static void bltz(Cpu &c, const Instruction &i)
    {
        ++*c.stat_branch_;
        bool taken = static_cast<std::int64_t>(c.gpr_[i.rs]) < 0;
        c.predictBranch(taken);
        if (taken)
            c.branchTo(c.current_pc_ + 4 +
                       (static_cast<std::int64_t>(i.imm) << 2));
    }
    static void bgez(Cpu &c, const Instruction &i)
    {
        ++*c.stat_branch_;
        bool taken = static_cast<std::int64_t>(c.gpr_[i.rs]) >= 0;
        c.predictBranch(taken);
        if (taken)
            c.branchTo(c.current_pc_ + 4 +
                       (static_cast<std::int64_t>(i.imm) << 2));
    }
    static void syscall_(Cpu &c, const Instruction &)
    {
        ++*c.stat_syscall_;
        if (c.syscall_handler_) {
            c.syscall_action_ = c.syscall_handler_(c);
            c.syscall_taken_ = true;
        } else {
            c.raise(ExcCode::kSyscall);
        }
    }
    static void break_(Cpu &c, const Instruction &)
    {
        ++*c.stat_break_;
    }

    // --- memory ---

    /**
     * The one load/store body, instantiated per data-memory opcode:
     * capability check, alignment, TLB, hierarchy (cpu.h), the last
     * two through the data memo's handles above kReference (DESIGN.md
     * §9). Legacy ops address through C0 (Section 4.1).
     */
    template <Opcode kOp>
    static CHERI_FORCE_INLINE void access(Cpu &c, const Instruction &i)
    {
        using Op = MemOp<kOp>;
        if constexpr (Op::kViaCap) {
            if (!c.cp2_enabled_) {
                c.raise(ExcCode::kCoprocessorUnusable);
                return;
            }
            ++*c.stat_capmem_;
        } else {
            ++*c.stat_mem_;
        }
        const std::uint8_t cb = Op::kViaCap ? i.cb : 0;
        const cap::Capability &base = c.caps_.read(cb);
        std::uint64_t offset =
            c.gpr_[Op::kViaCap ? i.rt : i.rs] +
            static_cast<std::uint64_t>(static_cast<std::int64_t>(i.imm));
        // Fixed before any state changes: a CLC may overwrite cb.
        const std::uint64_t vaddr = cap::effectiveAddress(base, offset);

        CapCause cause = cap::checkDataAccess(base, offset, Op::kSize,
                                              Op::kPerm, Op::kLine);
        if (cause != CapCause::kNone) {
            c.raiseCap(cause, cb, vaddr);
            return;
        }
        // The capability check already aligned a whole-line access.
        if (!Op::kLine && vaddr % Op::kSize != 0) {
            c.raise(Op::kStore ? ExcCode::kAddressErrorStore
                               : ExcCode::kAddressErrorLoad,
                    vaddr);
            return;
        }

        // A memo hit moves the access through the entry's handles;
        // everything else walks.
        if constexpr (!Op::kLinked) {
            if (c.fastPaths()) {
                std::uint64_t vline = vaddr >> cache::kLineShift;
                Cpu::DataMemoEntry &entry =
                    c.data_memo_[Cpu::dataMemoIndex(vline)];
                if (entry.vline != vline) {
                    walk<kOp>(c, i, vaddr, cb, &entry);
                    return;
                }
                // A re-minted translation may name another frame, so
                // the line handle goes with a stale TLB handle.
                bool stale = !c.tlb_.current(entry.page);
                std::uint64_t paddr = 0;
                if (!c.translateData<Op::kAccess>(vaddr, cb, paddr,
                                                  &entry.page))
                    return;
                if (stale)
                    entry.l1d = cache::Cache::LineHandle{};
                std::uint64_t mem_cycles = 0;
                transfer<kOp>(c, i, paddr, mem_cycles, &entry.l1d);
                settle<kOp>(c, paddr, mem_cycles);
                return;
            }
        }
        walk<kOp>(c, i, vaddr, cb, nullptr);
    }

    /**
     * The rest of access<kOp> when the data memo holds no entry for the
     * line: the reference tier and LL/SC (entry null; they never
     * memoize, and the memo's live entries are what injectMemoSkew can
     * reach) and a memo miss, which runs on fresh handles and writes
     * entry only once the access has succeeded.
     */
    template <Opcode kOp>
    static CHERI_FORCE_INLINE void
    walk(Cpu &c, const Instruction &i, std::uint64_t vaddr, unsigned cb,
         Cpu::DataMemoEntry *entry)
    {
        using Op = MemOp<kOp>;
        tlb::Tlb::Handle page;
        cache::Cache::LineHandle l1d;
        std::uint64_t paddr = 0;
        std::uint64_t mem_cycles = 0;
        if (!c.translateData<Op::kAccess>(vaddr, cb, paddr,
                                          entry != nullptr ? &page
                                                           : nullptr))
            return;
        if constexpr (!Op::kLinked) {
            transfer<kOp>(c, i, paddr, mem_cycles,
                          entry != nullptr ? &l1d : nullptr);
            if (entry != nullptr) {
                entry->vline = vaddr >> cache::kLineShift;
                entry->page = page;
                entry->l1d = l1d;
            }
        } else if constexpr (!Op::kStore) {
            transfer<kOp>(c, i, paddr, mem_cycles);
            c.ll_valid_ = true;
            c.ll_addr_ = paddr;
        } else {
            // SC stores only while the reservation holds, and reports
            // which.
            bool held = c.ll_valid_ && c.ll_addr_ == paddr;
            if (held)
                transfer<kOp>(c, i, paddr, mem_cycles);
            c.setGpr(Op::data(i), held ? 1 : 0);
            c.ll_valid_ = false;
        }
        settle<kOp>(c, paddr, mem_cycles);
    }

    /** Charge the hierarchy's stall beyond the base CPI; a store breaks
     *  the reservation on the paddr it writes, a CSC anywhere in its
     *  line. */
    template <Opcode kOp>
    static CHERI_FORCE_INLINE void
    settle(Cpu &c, std::uint64_t paddr, std::uint64_t mem_cycles)
    {
        using Op = MemOp<kOp>;
        c.cycles_ += mem_cycles > 0 ? mem_cycles - 1 : 0;
        if constexpr (Op::kStore) {
            std::uint64_t reserved =
                Op::kLine ? c.ll_addr_ & ~(mem::kLineBytes - 1ULL)
                          : c.ll_addr_;
            if (c.ll_valid_ && reserved == paddr)
                c.ll_valid_ = false;
        }
    }

    /**
     * Moves kOp's data between paddr and its register through the
     * hierarchy, and through the caller's L1D handle when it holds one.
     */
    template <Opcode kOp>
    static CHERI_FORCE_INLINE void
    transfer(Cpu &c, const Instruction &i, std::uint64_t paddr,
             std::uint64_t &mem_cycles,
             cache::Cache::LineHandle *l1d = nullptr)
    {
        using Op = MemOp<kOp>;
        cache::CacheHierarchy &memory = c.memory_;
        if constexpr (Op::kLine && Op::kStore) {
            const cap::Capability &src = c.caps_.read(i.cd);
            memory.writeCapLine(paddr, mem::TaggedLine{src.raw(), src.tag()},
                                mem_cycles, l1d);
        } else if constexpr (Op::kLine) {
            mem::TaggedLine line = memory.readCapLine(paddr, mem_cycles, l1d);
            c.caps_.write(i.cd,
                          cap::Capability::fromRaw(line.data, line.tag));
        } else if constexpr (Op::kStore) {
            memory.write(paddr, Op::kSize, c.gpr_[Op::data(i)], mem_cycles,
                         l1d);
        } else {
            std::uint64_t value =
                memory.read(paddr, Op::kSize, mem_cycles, l1d);
            if constexpr (Op::kSignExtend)
                value = static_cast<std::uint64_t>(
                    signExtend(value, Op::kSize * 8));
            c.setGpr(Op::data(i), value);
        }
    }

    // --- CP2: every CHERI opcode but the loads and stores ---
    static void cp2(Cpu &c, const Instruction &i)
    {
        if (!c.cp2_enabled_) {
            c.raise(ExcCode::kCoprocessorUnusable);
            return;
        }
        c.executeCp2(i);
    }
};

/**
 * (Opcode, handler) for every opcode, in exact Opcode declaration
 * order. The static_asserts below pin that correspondence, so the
 * dispatch tables built from this list may index by
 * static_cast<size_t>(op).
 */
#define CHERI_FOR_EACH_OPCODE(X) \
    X(kInvalid, invalid) \
    X(kSll, sll) X(kSrl, srl) X(kSra, sra) X(kSllv, sllv) \
    X(kSrlv, srlv) X(kSrav, srav) X(kDsll, dsll) X(kDsrl, dsrl) \
    X(kDsra, dsra) X(kDsll32, dsll32) X(kDsrl32, dsrl32) \
    X(kDsra32, dsra32) X(kDsllv, dsllv) X(kDsrlv, dsrlv) \
    X(kDsrav, dsrav) \
    X(kAddu, addu) X(kDaddu, daddu) X(kSubu, subu) X(kDsubu, dsubu) \
    X(kAnd, and_) X(kOr, or_) X(kXor, xor_) X(kNor, nor_) \
    X(kSlt, slt) X(kSltu, sltu) X(kMovz, movz) X(kMovn, movn) \
    X(kDmult, dmult) X(kDmultu, dmultu) X(kDdiv, ddiv) \
    X(kDdivu, ddivu) X(kMfhi, mfhi) X(kMflo, mflo) \
    X(kAddiu, addiu) X(kDaddiu, daddiu) X(kSlti, slti) \
    X(kSltiu, sltiu) X(kAndi, andi) X(kOri, ori) X(kXori, xori) \
    X(kLui, lui) \
    X(kJ, j) X(kJal, jal) X(kJr, jr) X(kJalr, jalr) X(kBeq, beq) \
    X(kBne, bne) X(kBlez, blez) X(kBgtz, bgtz) X(kBltz, bltz) \
    X(kBgez, bgez) X(kSyscall, syscall_) X(kBreak, break_) \
    X(kLb, access<Opcode::kLb>) X(kLbu, access<Opcode::kLbu>) \
    X(kLh, access<Opcode::kLh>) X(kLhu, access<Opcode::kLhu>) \
    X(kLw, access<Opcode::kLw>) X(kLwu, access<Opcode::kLwu>) \
    X(kLd, access<Opcode::kLd>) X(kSb, access<Opcode::kSb>) \
    X(kSh, access<Opcode::kSh>) X(kSw, access<Opcode::kSw>) \
    X(kSd, access<Opcode::kSd>) X(kLld, access<Opcode::kLld>) \
    X(kScd, access<Opcode::kScd>) \
    X(kCGetBase, cp2) X(kCGetLen, cp2) X(kCGetTag, cp2) \
    X(kCGetPerm, cp2) X(kCGetPcc, cp2) X(kCIncBase, cp2) \
    X(kCSetLen, cp2) X(kCClearTag, cp2) X(kCAndPerm, cp2) \
    X(kCToPtr, cp2) X(kCFromPtr, cp2) X(kCBtu, cp2) X(kCBts, cp2) \
    X(kCLc, access<Opcode::kCLc>) X(kCSc, access<Opcode::kCSc>) \
    X(kClb, access<Opcode::kClb>) X(kClbu, access<Opcode::kClbu>) \
    X(kClh, access<Opcode::kClh>) X(kClhu, access<Opcode::kClhu>) \
    X(kClw, access<Opcode::kClw>) X(kClwu, access<Opcode::kClwu>) \
    X(kCld, access<Opcode::kCld>) X(kCsb, access<Opcode::kCsb>) \
    X(kCsh, access<Opcode::kCsh>) X(kCsw, access<Opcode::kCsw>) \
    X(kCsd, access<Opcode::kCsd>) X(kClld, access<Opcode::kClld>) \
    X(kCscd, access<Opcode::kCscd>) X(kCJr, cp2) X(kCJalr, cp2) \
    X(kCSeal, cp2) X(kCUnseal, cp2) X(kCGetType, cp2) X(kCCall, cp2) \
    X(kCReturn, cp2)

namespace
{

enum : std::size_t
{
#define X(op, fn) kOpIndex_##op,
    CHERI_FOR_EACH_OPCODE(X)
#undef X
    kOpIndexCount,
};
#define X(op, fn) \
    static_assert(kOpIndex_##op == static_cast<std::size_t>(Opcode::op), \
                  "CHERI_FOR_EACH_OPCODE is out of declaration order");
CHERI_FOR_EACH_OPCODE(X)
#undef X
static_assert(kOpIndexCount == isa::kNumOpcodes,
              "CHERI_FOR_EACH_OPCODE must cover every opcode");

} // namespace

void
Cpu::execute(const Instruction &inst)
{
    switch (inst.op) {
#define X(op, fn) \
      case Opcode::op: \
        CpuExec::fn(*this, inst); \
        break;
        CHERI_FOR_EACH_OPCODE(X)
#undef X
    }
}

// --- superblock tier (DESIGN.md §12) ---

bool
Cpu::trySuperblock(const RunLimits &limits, std::uint64_t start_insts,
                   std::uint64_t start_cycles, StepOutcome &outcome)
{
    if (branch_pending_ || pcc_swap_countdown_ != 0)
        return false;

    // Hoisted PCC window refresh — the same pure refresh step()
    // performs; on a bad window step() raises the precise cause.
    if (pcc_version_seen_ != caps_.pccVersion()) {
        pcc_version_seen_ = caps_.pccVersion();
        const cap::Capability &pcc = caps_.pcc();
        pcc_fetch_ok_ = pcc.tag() && !pcc.sealed() &&
                        pcc.hasPerms(cap::kPermExecute);
        pcc_fetch_base_ = pcc.base();
        pcc_fetch_top_ = pcc.top();
    }
    if (!pcc_fetch_ok_)
        return false;

    Superblock &sb = superblock_cache_[superblockIndex(pc_)];
    if (sb.start_vaddr != pc_) {
        // Mint only at block leaders: branch targets (the last
        // retired instruction sat in a delay slot) and straight-line
        // continuations of a completed block. Everything else is
        // mid-block code the per-instruction path is already walking.
        if (!in_delay_slot_ && pc_ != sb_pending_leader_)
            return false;
        if (!mintSuperblock(sb))
            return false;
        ++sb_stats_.minted;
    } else if (!superblockGuardsHold(sb)) {
        ++sb_stats_.guard_fails;
        // Minting is pure, so rebuild in place over the fresh decode
        // lines; if they are cold the per-instruction path warms them
        // and a later probe re-mints.
        if (!mintSuperblock(sb))
            return false;
        ++sb_stats_.minted;
    }

    // Whole-block PCC bounds: every slot's per-step window check
    // collapses into one compare over the trace's vaddr hull.
    if (sb.va_lo < pcc_fetch_base_ || sb.va_hi > pcc_fetch_top_)
        return false;

    executeSuperblock(sb, limits, start_insts, start_cycles, outcome);
    return true;
}

bool
Cpu::superblockGuardsHold(Superblock &sb)
{
    // Translation guard: the block's page must still be cached with
    // the same frame. The stream handle may legitimately point at a
    // different page (the last fetch crossed away); re-probe purely
    // before declaring the block stale.
    if (!tlb_.current(fetch_hint_) || fetch_hint_.vpn != sb.vpn) {
        if (!tlb_.probe(pc_, tlb::Access::kFetch, fetch_hint_))
            return false;
    }
    if (fetch_hint_.frame_base != sb.paddr_base)
        return false; // page remapped since mint

    // Stamp fast path: every decode-entry mutation (refill, SMC
    // clear, wholesale invalidation) bumps decode_mint_counter_, so
    // an unchanged counter proves the per-line walk below would pass.
    if (sb.stamp_mint == decode_mint_counter_)
        return true;

    // Predecode guard: every line the block was minted over must
    // still hold the very decode (mint id) its slots were copied
    // from; any store, eviction, or wholesale invalidation since
    // breaks the chain.
    for (const SuperblockLineRef &ref : sb.lines) {
        const DecodedLine &entry = decode_cache_[ref.index];
        if (entry.line_paddr != ref.line_paddr ||
            entry.generation != decode_generation_ ||
            entry.mint_id != ref.mint_id)
            return false;
    }
    sb.stamp_mint = decode_mint_counter_;
    return true;
}

bool
Cpu::mintSuperblock(Superblock &sb)
{
    sb.start_vaddr = ~0ULL;
    sb.slots.clear();
    sb.lines.clear();
    if (pc_ % 4 != 0)
        return false;

    std::uint64_t vpn = pc_ / tlb::kPageBytes;
    if (!tlb_.current(fetch_hint_) || fetch_hint_.vpn != vpn) {
        if (!tlb_.probe(pc_, tlb::Access::kFetch, fetch_hint_))
            return false;
    }
    std::uint64_t page_base = vpn * tlb::kPageBytes;
    std::uint64_t page_end = page_base + tlb::kPageBytes;

    // Pure host-side lookup of the predecoded instruction at va,
    // recording the covering line's guard on first touch. nullptr
    // when the line is cold or stale: the block simply ends there —
    // minting never fetches, so it has zero simulated effects.
    auto lookup = [&](std::uint64_t va) -> const Instruction * {
        std::uint64_t paddr = fetch_hint_.frame_base + (va - page_base);
        std::uint64_t line = paddr & ~(mem::kLineBytes - 1ULL);
        std::size_t index = decodeIndex(line);
        const DecodedLine &entry = decode_cache_[index];
        if (entry.line_paddr != line ||
            entry.generation != decode_generation_)
            return nullptr;
        if (sb.lines.empty() || sb.lines.back().line_paddr != line) {
            sb.lines.push_back({static_cast<std::uint32_t>(index), line,
                                entry.mint_id});
        }
        return &entry.slots[(paddr % mem::kLineBytes) / 4];
    };

    std::uint64_t va = pc_;
    std::uint64_t va_lo = pc_;
    std::uint64_t va_hi = pc_;
    while (sb.slots.size() < accel_.superblock_max_slots &&
           va + 4 <= page_end) {
        const Instruction *inst = lookup(va);
        if (inst == nullptr)
            break;
        if (isa::superblockBody(inst->op)) {
            sb.slots.push_back(
                {*inst, fetch_hint_.frame_base + (va - page_base)});
            sb.slots.back().full = !isa::superblockSimple(inst->op);
            va_lo = std::min(va_lo, va);
            va_hi = std::max(va_hi, va);
            va += 4;
            continue;
        }
        if (isa::superblockTerminal(inst->op) &&
            sb.slots.size() + 2 <= accel_.superblock_max_slots &&
            va + 8 <= page_end) {
            std::size_t lines_before = sb.lines.size();
            const Instruction *delay = lookup(va + 4);
            if (delay != nullptr && isa::superblockBody(delay->op)) {
                sb.slots.push_back(
                    {*inst, fetch_hint_.frame_base + (va - page_base)});
                sb.slots.push_back(
                    {*delay,
                     fetch_hint_.frame_base + (va + 4 - page_base)});
                sb.slots.back().is_delay = true;
                va_lo = std::min(va_lo, va);
                va_hi = std::max(va_hi, va + 4);
                if (isa::superblockFallsThrough(inst->op)) {
                    // A not-taken conditional branch falls through its
                    // delay slot, so keep minting the straight-line
                    // path; at run time the flagged delay slot exits
                    // the block the moment the branch was taken.
                    sb.slots.back().fallthrough_check = true;
                    va += 8;
                    continue;
                }
                if (inst->op == isa::Opcode::kJ ||
                    inst->op == isa::Opcode::kJal) {
                    // A direct jump's target is fixed by instruction
                    // bytes the line guards pin, so execution provably
                    // arrives there: keep minting at the target with
                    // no run-time check. Off-page targets end the
                    // trace (one translation covers the whole block).
                    std::uint64_t target =
                        ((va + 4) & ~0x0fffffffULL) |
                        (static_cast<std::uint64_t>(inst->target) << 2);
                    if (target / tlb::kPageBytes == vpn) {
                        va = target;
                        continue;
                    }
                }
            } else {
                // Drop the guard recorded for a delay-slot line the
                // block will not actually cover.
                sb.lines.resize(lines_before);
            }
        }
        break;
    }

    if (sb.slots.size() < 2) {
        // A 0/1-instruction block cannot amortize its entry guards.
        sb.slots.clear();
        sb.lines.clear();
        return false;
    }
    for (std::size_t i = 1; i < sb.slots.size(); ++i) {
        sb.slots[i].tlb_check =
            isa::touchesDataMemory(sb.slots[i - 1].inst.op);
    }
    if (va_hi + 4 < va_hi) {
        // Page at the very top of the address space: the hull's
        // one-past-the-end would wrap. Not worth a special case.
        sb.slots.clear();
        sb.lines.clear();
        return false;
    }
    sb.start_vaddr = pc_;
    sb.vpn = vpn;
    sb.paddr_base = fetch_hint_.frame_base;
    sb.va_delta = page_base - fetch_hint_.frame_base;
    sb.va_lo = va_lo;
    sb.va_hi = va_hi + 4;
    // The lookups above read the live decode entries, so the line
    // guards hold by construction at the current mint counter.
    sb.stamp_mint = decode_mint_counter_;
    return true;
}

void
Cpu::executeSuperblock(Superblock &sb, const RunLimits &limits,
                       std::uint64_t start_insts,
                       std::uint64_t start_cycles, StepOutcome &outcome)
{
    std::uint64_t entry_insts = instructions_;

    // Per-slot simulated-effect bookkeeping is deferred into host
    // registers and settled in batches, so the slot loop touches as
    // little member state as possible:
    //  - retired: instruction count, base CPI, and the TLB fetch-hit
    //    stat (every retired slot passed the fetch replay exactly
    //    once, so one counter serves all three).
    //  - l1i_hits: repeat fetches of the current line; settled (stat
    //    + one LRU touch + hit-stall cycles) at line changes and at
    //    exit. Only the first fetch of each line walks fetchLine,
    //    which hands back the L1I handle the batch settles through.
    // Correct because everything mid-block only ADDS to instructions_
    // and cycles_ (handler latencies commute with the deferred adds)
    // and every read — bounded budget compares, chain seams, run()
    // after return — reconstructs or settles first. The deferred
    // state persists across chained blocks: between blocks there is
    // no commit boundary an observer could sample at.
    std::uint64_t cur_line = ~0ULL;
    cache::Cache::LineHandle l1i_handle;
    std::uint64_t l1i_hits = 0;
    std::uint64_t retired = 0;

    // A tracing observer samples current_pc_ before every dispatch,
    // so lazy PC materialization is disabled for the whole call.
    const bool force_full = trace_hook_ != nullptr;

    // Label-per-opcode dispatch table in Opcode order (pinned by the
    // static_asserts above).
    static const void *const kLabels[isa::kNumOpcodes] = {
#define X(op, fn) &&dispatch_##op,
        CHERI_FOR_EACH_OPCODE(X)
#undef X
    };

    Superblock *chain = &sb;
    for (;;) { // one iteration per chained block
    const Superblock &cur = *chain;
    ++sb_stats_.entered;
    sb_active_ = &cur;
    sb_smc_abort_ = false;

    const SuperblockSlot *slot = cur.slots.data();
    const SuperblockSlot *const last = slot + cur.slots.size() - 1;
    bool completed = false;
    bool taken_exit = false;

    // Most callers run with effectively-unlimited budgets; when the
    // whole block provably fits in both (cycles_ can never reach the
    // all-ones sentinel), the per-slot budget compares drop out of
    // the loop. Any finite cycle budget keeps them: a cycle overshoot
    // would retire work the per-instruction path would not.
    bool unbounded =
        limits.max_cycles == ~0ULL &&
        limits.max_instructions - (instructions_ + retired - start_insts) >
            cur.slots.size();

    for (;;) {
        // Fetch replay: the per-instruction path's exact simulated
        // effects — one TLB hit with LRU movement, one L1I line
        // access with stats/LRU/fill, the same stall formula — at the
        // precomputed physical address. The translation re-checks run
        // only where a preceding instruction could have perturbed the
        // TLB (slot->tlb_check); a data-side refill can evict the
        // fetch handle's entry and bump the generation, in which case
        // exit with no effects applied so step() re-translates exactly.
        if (slot->tlb_check) {
            if (!tlb_.current(fetch_hint_)) {
                // No effects applied for this slot, so the commit
                // boundary is the previous slot: reconstruct the PC
                // state if that slot's dispatch deferred it. The
                // first slot's predecessor is the (already exact)
                // seam or entry state.
                if (slot != cur.slots.data() && !slot[-1].full &&
                    !force_full) {
                    std::uint64_t va = slot[-1].paddr + cur.va_delta;
                    current_pc_ = va;
                    in_delay_slot_ = false;
                    pc_ = va + 4;
                    next_pc_ = va + 8;
                }
                break;
            }
            tlb_.touch(fetch_hint_);
        }
        std::uint64_t slot_line = slot->paddr & ~(mem::kLineBytes - 1ULL);
        if (slot_line == cur_line) {
            ++l1i_hits;
        } else {
            memory_.applyDeferredFetchHits(l1i_handle, l1i_hits);
            cycles_ += l1i_hits * sb_hit_stall_;
            l1i_hits = 0;
            std::uint64_t fetch_cycles = 0;
            memory_.fetchLine(slot->paddr, fetch_cycles, &l1i_handle);
            cycles_ += fetch_cycles > 0 ? fetch_cycles - 1 : 0;
            cur_line = slot_line;
        }

        // Lazy PC materialization: pure-ALU slots (full == false)
        // cannot trap, branch, or read the PC, so the five
        // architectural PC-state writes are skipped across them and
        // reconstructed at the next full slot or commit boundary
        // from the slot's minted vaddr. Invariants that make the
        // reconstruction exact: branch_pending_ is false whenever a
        // lazy slot runs (delay slots are always full and clear it),
        // and a lazy slot is never a delay slot, so its state is
        // always {current_pc_ = va, in_delay_slot_ = false,
        // pc_ = va + 4, next_pc_ = va + 8}.
        const Instruction &inst = slot->inst;
        const bool full = slot->full | force_full;
        if (full) {
            std::uint64_t va = slot->paddr + cur.va_delta;
            current_pc_ = va;
            if (slot->is_delay) {
                // Consume the branch handler's live next_pc_ /
                // branch_pending_, exactly as step() would.
                in_delay_slot_ = branch_pending_;
                pc_ = next_pc_;
                next_pc_ = pc_ + 4;
                branch_pending_ = false;
            } else {
                in_delay_slot_ = false;
                pc_ = va + 4;
                next_pc_ = va + 8;
            }
            if (trace_hook_)
                trace_hook_(current_pc_, inst);
        }

        goto *kLabels[static_cast<std::size_t>(inst.op)];
#define X(op, fn) \
    dispatch_##op: \
        CpuExec::fn(*this, inst); \
        goto retire;
        CHERI_FOR_EACH_OPCODE(X)
#undef X
    retire:
        ++retired; // instruction count + base CPI, settled at exit

        if (full) {
            if (trap_pending_) {
                outcome.trapped = true;
                break;
            }
            if (sb_smc_abort_) {
                // The block's own code was just overwritten, so its
                // remaining predecoded slots are stale. Leave; the
                // per-instruction path decodes the fresh bytes, and
                // the cleared decode line fails this block's entry
                // guard until a re-mint picks the new bytes up.
                sb_smc_abort_ = false;
                ++sb_stats_.invalidated;
                break;
            }
            // A taken mid-block branch: its delay slot just retired
            // and pc_ left the straight-line path, so the remaining
            // slots do not apply. in_delay_slot_ is still set,
            // qualifying the branch target as a mint leader on the
            // next probe.
            if (slot->fallthrough_check && pc_ != current_pc_ + 4) {
                taken_exit = true;
                break;
            }
        }
        if (slot == last) {
            // The chain seam below reads pc_, so a lazily dispatched
            // final slot settles its PC state here.
            if (!full) {
                std::uint64_t va = slot->paddr + cur.va_delta;
                current_pc_ = va;
                in_delay_slot_ = false;
                pc_ = va + 4;
                next_pc_ = va + 8;
            }
            completed = true;
            break;
        }
        // run()'s budgets, enforced at the same commit boundaries
        // (never stopping between a branch and its delay slot). The
        // deferred adds are reconstructed into the compare: retired
        // carries the instruction count and base CPI, l1i_hits the
        // current line's outstanding hit stalls.
        if (!unbounded && !branch_pending_ &&
            (instructions_ + retired - start_insts >=
                 limits.max_instructions ||
             cycles_ + retired + l1i_hits * sb_hit_stall_ -
                     start_cycles >=
                 limits.max_cycles)) {
            if (!full) {
                std::uint64_t va = slot->paddr + cur.va_delta;
                current_pc_ = va;
                in_delay_slot_ = false;
                pc_ = va + 4;
                next_pc_ = va + 8;
            }
            break;
        }
        ++slot;
    }

    if (completed) {
        // The pc after a fully executed block is a straight-line
        // continuation leader: a later probe may mint there even if
        // chaining below leaves through a different pc first.
        sb_pending_leader_ = pc_;
    }

    // Block-to-block chaining: a natural exit (block ran out, or a
    // taken branch left it) lands on a pc that may head an already
    // minted block. Entering it here skips a full run()-loop pass and
    // keeps the deferred fetch state warm across the seam. The budget
    // compare is the same one run()'s loop top would perform; guards
    // and PCC window are checked exactly as trySuperblock does.
    if (!completed && !taken_exit)
        break; // trap, SMC, budget stop, or stale translation
    if (instructions_ + retired - start_insts >= limits.max_instructions ||
        cycles_ + retired + l1i_hits * sb_hit_stall_ - start_cycles >=
            limits.max_cycles)
        break;
    Superblock &nxt = superblock_cache_[superblockIndex(pc_)];
    if (nxt.start_vaddr != pc_ || !superblockGuardsHold(nxt))
        break;
    if (nxt.va_lo < pcc_fetch_base_ || nxt.va_hi > pcc_fetch_top_)
        break;
    chain = &nxt;
    } // chain loop

    // Settle the deferred effects: every commit boundary (trap,
    // budget stop, run() exit) sees exactly the counters the
    // per-instruction path would have produced — instruction count,
    // base-CPI and hit-stall cycles, the TLB fetch-hit stat (one per
    // retired slot), and the final line's batched L1I hits.
    instructions_ += retired;
    cycles_ += retired + l1i_hits * sb_hit_stall_;
    memory_.applyDeferredFetchHits(l1i_handle, l1i_hits);
    tlb_.countHits(retired);

    // Host-side observability only, so one batched add at exit.
    sb_stats_.instructions += instructions_ - entry_insts;
    sb_active_ = nullptr;
}

void
Cpu::executeCp2(const Instruction &inst)
{
    ++*stat_cp2_;

    switch (inst.op) {
      case Opcode::kCGetBase:
        setGpr(inst.rd, caps_.read(inst.cb).base());
        break;
      case Opcode::kCGetLen:
        setGpr(inst.rd, caps_.read(inst.cb).length());
        break;
      case Opcode::kCGetTag:
        setGpr(inst.rd, caps_.read(inst.cb).tag() ? 1 : 0);
        break;
      case Opcode::kCGetPerm:
        setGpr(inst.rd, caps_.read(inst.cb).perms());
        break;
      case Opcode::kCGetPcc:
        caps_.write(inst.cd, caps_.pcc());
        setGpr(inst.rd, current_pc_);
        break;
      case Opcode::kCIncBase: {
        cap::CapOpResult result =
            cap::incBase(caps_.read(inst.cb), gpr_[inst.rt]);
        if (!result.ok()) {
            raiseCap(result.cause, inst.cb);
            break;
        }
        caps_.write(inst.cd, result.value);
        break;
      }
      case Opcode::kCSetLen: {
        cap::CapOpResult result =
            cap::setLen(caps_.read(inst.cb), gpr_[inst.rt]);
        if (!result.ok()) {
            raiseCap(result.cause, inst.cb);
            break;
        }
        caps_.write(inst.cd, result.value);
        break;
      }
      case Opcode::kCClearTag: {
        cap::Capability value = caps_.read(inst.cb);
        value.clearTag();
        caps_.write(inst.cd, value);
        break;
      }
      case Opcode::kCAndPerm: {
        cap::CapOpResult result = cap::andPerm(
            caps_.read(inst.cb),
            static_cast<std::uint32_t>(gpr_[inst.rt]));
        if (!result.ok()) {
            raiseCap(result.cause, inst.cb);
            break;
        }
        caps_.write(inst.cd, result.value);
        break;
      }
      case Opcode::kCToPtr:
        setGpr(inst.rd,
               cap::toPtr(caps_.read(inst.cb), caps_.read(inst.ct)));
        break;
      case Opcode::kCFromPtr: {
        cap::CapOpResult result =
            cap::fromPtr(caps_.read(inst.cb), gpr_[inst.rt]);
        if (!result.ok()) {
            raiseCap(result.cause, inst.cb);
            break;
        }
        caps_.write(inst.cd, result.value);
        break;
      }
      case Opcode::kCBtu: {
        ++*stat_branch_;
        bool taken = !caps_.read(inst.cb).tag();
        predictBranch(taken);
        if (taken)
            branchTo(current_pc_ + 4 +
                     (static_cast<std::int64_t>(inst.imm) << 2));
        break;
      }
      case Opcode::kCBts: {
        ++*stat_branch_;
        bool taken = caps_.read(inst.cb).tag();
        predictBranch(taken);
        if (taken)
            branchTo(current_pc_ + 4 +
                     (static_cast<std::int64_t>(inst.imm) << 2));
        break;
      }
      case Opcode::kCSeal: {
        cap::CapOpResult result =
            cap::seal(caps_.read(inst.cb), caps_.read(inst.ct));
        if (!result.ok()) {
            raiseCap(result.cause, inst.cb);
            break;
        }
        caps_.write(inst.cd, result.value);
        break;
      }
      case Opcode::kCUnseal: {
        cap::CapOpResult result =
            cap::unseal(caps_.read(inst.cb), caps_.read(inst.ct));
        if (!result.ok()) {
            raiseCap(result.cause, inst.cb);
            break;
        }
        caps_.write(inst.cd, result.value);
        break;
      }
      case Opcode::kCGetType: {
        const cap::Capability &sealed_cap = caps_.read(inst.cb);
        setGpr(inst.rd, sealed_cap.sealed() ? sealed_cap.otype()
                                            : ~0ULL);
        break;
      }
      case Opcode::kCCall:
        // The prototype traps to the OS to emulate a protected
        // procedure call (Section 11); the handler validates the
        // sealed pair and performs the domain transition.
        raise(ExcCode::kCCall);
        pending_trap_.cap_reg = inst.cb;
        pending_trap_.cap_reg2 = inst.ct;
        break;
      case Opcode::kCReturn:
        raise(ExcCode::kCReturn);
        break;
      case Opcode::kCJr:
      case Opcode::kCJalr: {
        ++*stat_branch_;
        const cap::Capability &target_cap = caps_.read(inst.cb);
        if (!target_cap.tag()) {
            raiseCap(CapCause::kTagViolation, inst.cb);
            break;
        }
        if (target_cap.sealed()) {
            raiseCap(CapCause::kSealViolation, inst.cb);
            break;
        }
        if (!target_cap.hasPerms(cap::kPermExecute)) {
            raiseCap(CapCause::kPermitExecuteViolation, inst.cb);
            break;
        }
        std::uint64_t target = target_cap.base() + gpr_[inst.rt];
        if (inst.op == Opcode::kCJalr) {
            // Link: cd receives the caller's PCC; ra receives the
            // return point as an offset within that PCC, so the
            // return sequence is simply "cjr ra(cd)".
            caps_.write(inst.cd, caps_.pcc());
            setGpr(31, current_pc_ + 8 - caps_.pcc().base());
        }
        pending_pcc_ = target_cap;
        pcc_swap_countdown_ = 2;
        branchTo(target);
        break;
      }
      default:
        raise(ExcCode::kReservedInstruction);
        break;
    }
}

bool
Cpu::debugRead(std::uint64_t vaddr, unsigned size, std::uint64_t &value)
{
    tlb::TlbResult result = tlb_.translate(vaddr, tlb::Access::kLoad);
    if (!result.ok())
        return false;
    std::uint64_t scratch = 0;
    value = memory_.read(result.paddr, size, scratch);
    return true;
}

bool
Cpu::debugWrite(std::uint64_t vaddr, unsigned size, std::uint64_t value)
{
    tlb::TlbResult result = tlb_.translate(vaddr, tlb::Access::kStore);
    if (!result.ok())
        return false;
    std::uint64_t scratch = 0;
    memory_.write(result.paddr, size, value, scratch);
    return true;
}

bool
Cpu::debugReadCap(std::uint64_t vaddr, cap::Capability &out)
{
    tlb::TlbResult result = tlb_.translate(vaddr, tlb::Access::kCapLoad);
    if (!result.ok())
        return false;
    std::uint64_t scratch = 0;
    mem::TaggedLine line = memory_.readCapLine(result.paddr, scratch);
    out = cap::Capability::fromRaw(line.data, line.tag);
    return true;
}

bool
Cpu::debugWriteCap(std::uint64_t vaddr, const cap::Capability &value)
{
    tlb::TlbResult result = tlb_.translate(vaddr, tlb::Access::kCapStore);
    if (!result.ok())
        return false;
    std::uint64_t scratch = 0;
    memory_.writeCapLine(result.paddr,
                         mem::TaggedLine{value.raw(), value.tag()},
                         scratch);
    return true;
}

} // namespace cheri::core
