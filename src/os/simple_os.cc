#include "os/simple_os.h"

#include <cstring>

#include "isa/assembler.h"
#include "support/bits.h"
#include "support/logging.h"

namespace cheri::os
{

SimpleOs::SimpleOs(core::Machine &machine) : machine_(machine)
{
    machine_.cpu().setSyscallHandler(
        [this](core::Cpu &cpu) { return handleSyscall(cpu); });
}

Process &
SimpleOs::process(int pid)
{
    if (pid < 0 || static_cast<std::size_t>(pid) >= processes_.size())
        support::guestFault("os", "unknown pid %d", pid);
    return *processes_[static_cast<std::size_t>(pid)];
}

void
SimpleOs::mapRange(Process &proc, std::uint64_t vaddr,
                   std::uint64_t bytes, tlb::PteFlags flags)
{
    std::uint64_t first_vpn = vaddr / tlb::kPageBytes;
    std::uint64_t last_vpn = (vaddr + bytes - 1) / tlb::kPageBytes;
    for (std::uint64_t vpn = first_vpn; vpn <= last_vpn; ++vpn) {
        if (!proc.table.lookup(vpn))
            proc.table.map(vpn, machine_.allocFrame(), flags);
    }
}

void
SimpleOs::revokeRange(Process &proc, std::uint64_t vaddr,
                      std::uint64_t bytes)
{
    std::uint64_t first_vpn = vaddr / tlb::kPageBytes;
    std::uint64_t last_vpn = (vaddr + bytes - 1) / tlb::kPageBytes;
    for (std::uint64_t vpn = first_vpn; vpn <= last_vpn; ++vpn)
        proc.table.unmap(vpn);
    machine_.tlb().flush();
    // Dirty cache lines for the revoked frames are harmless: the
    // frames are never reused by this allocator-free OS model.
}

std::uint64_t
SimpleOs::translate(Process &proc, std::uint64_t vaddr)
{
    auto pte = proc.table.lookup(vaddr / tlb::kPageBytes);
    if (!pte) {
        // Guest-triggerable (e.g. a syscall passing an unmapped buffer
        // address), so this is a user error, not an emulator bug.
        support::fatal("OS access to unmapped vaddr 0x%llx (pid %d)",
                       static_cast<unsigned long long>(vaddr), proc.pid);
    }
    return pte->pfn * tlb::kPageBytes + vaddr % tlb::kPageBytes;
}

void
SimpleOs::writeMemory(Process &proc, std::uint64_t vaddr,
                      const void *data, std::uint64_t len)
{
    const auto *bytes = static_cast<const std::uint8_t *>(data);
    std::uint64_t scratch = 0;
    for (std::uint64_t i = 0; i < len; ++i) {
        // Route through the cache hierarchy so guest loads observe
        // the write (and so tags are cleared like any data store).
        machine_.memory().write(translate(proc, vaddr + i), 1, bytes[i],
                                scratch);
    }
}

void
SimpleOs::readMemory(Process &proc, std::uint64_t vaddr, void *data,
                     std::uint64_t len)
{
    auto *bytes = static_cast<std::uint8_t *>(data);
    std::uint64_t scratch = 0;
    for (std::uint64_t i = 0; i < len; ++i) {
        bytes[i] = static_cast<std::uint8_t>(
            machine_.memory().read(translate(proc, vaddr + i), 1,
                                   scratch));
    }
}

int
SimpleOs::exec(const std::vector<std::uint32_t> &text,
               std::uint64_t entry, std::uint64_t stack_bytes)
{
    auto proc = std::make_unique<Process>();
    proc->pid = static_cast<int>(processes_.size());

    // Text.
    mapRange(*proc, kTextBase, text.size() * 4);
    // Stack (grows down from kStackTop).
    mapRange(*proc, kStackTop - stack_bytes, stack_bytes);
    // Initial heap page.
    mapRange(*proc, kHeapBase, tlb::kPageBytes);
    proc->brk = kHeapBase + tlb::kPageBytes;

    for (std::size_t i = 0; i < text.size(); ++i) {
        std::uint64_t paddr = translate(*proc, kTextBase + i * 4);
        machine_.cowStore().write(paddr, 4, text[i]);
    }

    proc->pc = entry;
    proc->gpr[29] = kStackTop - 64; // sp, small slack below the top

    // Delegate the entire user virtual address space (Section 4.3):
    // every capability register, C0 and PCC, spans [0, kUserTop) with
    // all permissions. The process restricts from there.
    cap::Capability user_space =
        cap::Capability::make(0, kUserTop, cap::kPermAll);
    proc->caps.regs.fill(user_space);
    proc->caps.pcc = user_space;

    processes_.push_back(std::move(proc));
    int pid = static_cast<int>(processes_.size()) - 1;
    switchTo(pid);
    return pid;
}

void
SimpleOs::switchTo(int pid)
{
    Process &target = process(pid);
    core::Cpu &cpu = machine_.cpu();

    if (current_ >= 0) {
        Process &old = process(current_);
        for (unsigned i = 0; i < 32; ++i)
            old.gpr[i] = cpu.gpr(i);
        old.pc = cpu.pc();
        old.hi = cpu.hi();
        old.lo = cpu.lo();
        // The kernel saves per-thread capability-register state
        // (Section 4.3).
        old.caps = cpu.caps().save();
    }

    for (unsigned i = 0; i < 32; ++i)
        cpu.setGpr(i, target.gpr[i]);
    cpu.setPc(target.pc);
    cpu.caps().restore(target.caps);
    machine_.tlb().setTable(target.table);
    current_ = pid;
}

core::RunResult
SimpleOs::run(std::uint64_t max_instructions)
{
    core::RunLimits limits;
    limits.max_instructions = max_instructions;
    return run(limits);
}

core::RunResult
SimpleOs::run(const core::RunLimits &limits)
{
    if (current_ < 0)
        support::fatal("SimpleOs::run with no current process");

    core::Cpu &cpu = machine_.cpu();
    core::RunLimits remaining = limits;
    core::RunResult result;
    std::uint64_t total_instructions = 0;
    std::uint64_t total_cycles = 0;

    while (true) {
        result = cpu.run(remaining);
        total_instructions += result.instructions;
        total_cycles += result.cycles;
        remaining.max_instructions -=
            std::min(remaining.max_instructions, result.instructions);
        remaining.max_cycles -=
            std::min(remaining.max_cycles, result.cycles);

        // Transparent domain transitions (Section 11). Handled even
        // when the budgets are exhausted: the transition is OS work,
        // not guest instructions, and leaving a half-made CCall
        // visible would expose microarchitectural state.
        if (result.reason == core::StopReason::kTrap) {
            DomainOutcome outcome = DomainOutcome::kBadCall;
            bool is_domain_trap = false;
            if (result.trap.code == core::ExcCode::kCCall) {
                is_domain_trap = true;
                outcome = domains_.handleCCall(cpu, result.trap);
            } else if (result.trap.code == core::ExcCode::kCReturn) {
                is_domain_trap = true;
                outcome = domains_.handleCReturn(cpu);
            }
            if (is_domain_trap) {
                if (outcome == DomainOutcome::kTransitioned) {
                    if (remaining.max_cycles == 0) {
                        result.reason = core::StopReason::kCycleLimit;
                        break;
                    }
                    if (remaining.max_instructions == 0) {
                        result.reason = core::StopReason::kInstLimit;
                        break;
                    }
                    continue;
                }
                // Invalid call/return: surface as a seal violation.
                result.trap.code = core::ExcCode::kCp2;
                result.trap.cap_cause = cap::CapCause::kSealViolation;
            }
        }
        break;
    }

    result.instructions = total_instructions;
    result.cycles = total_cycles;
    if (result.reason == core::StopReason::kExited) {
        Process &proc = process(current_);
        proc.exited = true;
        proc.exit_code = result.exit_code;
    }
    return result;
}

core::SyscallAction
SimpleOs::handleSyscall(core::Cpu &cpu)
{
    using namespace isa::reg;
    core::SyscallAction action;
    Process &proc = process(current_);
    std::uint64_t number = cpu.gpr(v0);

    switch (number) {
      case kSysExit:
        action.exit = true;
        action.exit_code = static_cast<std::int64_t>(cpu.gpr(a0));
        break;
      case kSysWrite: {
        std::uint64_t buf = cpu.gpr(a0);
        std::uint64_t len = cpu.gpr(a1);
        std::string data(len, '\0');
        readMemory(proc, buf, data.data(), len);
        proc.console += data;
        cpu.setGpr(v0, len);
        break;
      }
      case kSysSbrk: {
        std::uint64_t old_brk = proc.brk;
        std::int64_t delta = static_cast<std::int64_t>(cpu.gpr(a0));
        if (delta > 0) {
            mapRange(proc, proc.brk, static_cast<std::uint64_t>(delta));
            proc.brk += static_cast<std::uint64_t>(delta);
        }
        // Negative deltas release the break without unmapping, like
        // most real sbrk implementations.
        else if (delta < 0) {
            proc.brk -= static_cast<std::uint64_t>(-delta);
        }
        cpu.setGpr(v0, old_brk);
        break;
      }
      case kSysMmap: {
        std::uint64_t len = support::roundUp(cpu.gpr(a0),
                                             tlb::kPageBytes);
        std::uint64_t addr = proc.mmap_next;
        mapRange(proc, addr, len);
        proc.mmap_next += len;
        cpu.setGpr(v0, addr);
        break;
      }
      case kSysPutChar:
        proc.console += static_cast<char>(cpu.gpr(a0));
        cpu.setGpr(v0, 0);
        break;
      default:
        support::warn("unknown syscall %llu (pid %d)",
                      static_cast<unsigned long long>(number), proc.pid);
        cpu.setGpr(v0, static_cast<std::uint64_t>(-1));
        break;
    }
    return action;
}

} // namespace cheri::os
