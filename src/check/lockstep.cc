#include "check/lockstep.h"

#include <algorithm>
#include <cstdio>

#include "isa/disasm.h"

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

std::string
lineHex(const mem::Line &line)
{
    std::string out;
    out.reserve(2 * line.size());
    for (std::uint8_t byte : line) {
        char buf[4];
        std::snprintf(buf, sizeof buf, "%02x", byte);
        out += buf;
    }
    return out;
}

std::string
describeTrap(const core::Trap &trap)
{
    return trap.toString();
}

/** End of 4 KB page 'page' within DRAM (the last may be partial). */
std::uint64_t
pageEnd(std::uint64_t page, std::uint64_t dram_bytes)
{
    return std::min(dram_bytes, (page + 1) * mem::kCowPageBytes);
}

} // namespace

Lockstep::Lockstep(core::Machine &machine, LockstepConfig config)
    : machine_(machine), config_(config),
      ref_memory_(machine.cowStore().sizeBytes()),
      ref_(ref_memory_, machine.pageTable())
{
    // Make DRAM and the tag table current, then snapshot them. A
    // page still on the shared zero page reads as zero, exactly as an
    // absent RefMemory page does, so only the other pages are copied.
    machine_.memory().flushAll();
    const mem::CowStore &store = machine_.cowStore();
    for (std::uint64_t page = 0; page < store.pageCount(); ++page) {
        if (store.isZeroPage(page))
            continue;
        for (std::uint64_t paddr = page * mem::kCowPageBytes;
             paddr < pageEnd(page, store.sizeBytes());
             paddr += mem::kLineBytes)
            ref_memory_.writeCapLine(paddr, store.readLine(paddr));
    }

    // Snapshot the architectural register state.
    core::Cpu &cpu = machine_.cpu();
    for (unsigned i = 0; i < 32; ++i)
        ref_.setGpr(i, cpu.gpr(i));
    ref_.setHi(cpu.hi());
    ref_.setLo(cpu.lo());
    ref_.setPc(cpu.pc());
    for (unsigned i = 0; i < cap::kNumCapRegs; ++i)
        ref_.caps().write(i, cpu.caps().read(i));
    ref_.caps().setPcc(cpu.caps().pcc());
    ref_.setCp2Enabled(cpu.cp2Enabled());

    machine_.memory().setStoreObserver(this);
    trace_.resize(config_.window == 0 ? 1 : config_.window);
    cpu.setTraceHook([this](std::uint64_t pc,
                            const isa::Instruction &inst) {
        trace_[trace_next_ % trace_.size()] = TraceEntry{pc, inst};
        ++trace_next_;
    });
}

Lockstep::~Lockstep()
{
    machine_.memory().setStoreObserver(nullptr);
    machine_.cpu().setTraceHook({});
}

void
Lockstep::onLineWritten(std::uint64_t line_paddr)
{
    cpu_lines_.push_back(line_paddr);
}

std::string
Lockstep::windowText() const
{
    std::string out;
    std::uint64_t count =
        std::min<std::uint64_t>(trace_next_, trace_.size());
    for (std::uint64_t i = trace_next_ - count; i < trace_next_; ++i) {
        const TraceEntry &entry = trace_[i % trace_.size()];
        out += "    " + hex(entry.pc) + ": " +
               isa::disassemble(entry.inst) + "\n";
    }
    return out;
}

std::string
Lockstep::report(const std::string &detail) const
{
    std::string out = "divergence after " +
                      std::to_string(ref_.totalInstructions()) +
                      " instruction(s):\n  " + detail + "\n";
    std::string window = windowText();
    if (!window.empty())
        out += "  last fetched (fast CPU):\n" + window;
    return out;
}

bool
Lockstep::compareCore(std::string &out) const
{
    const core::Cpu &cpu = machine_.cpu();
    if (cpu.pc() != ref_.pc()) {
        out = "pc: fast=" + hex(cpu.pc()) + " ref=" + hex(ref_.pc());
        return false;
    }
    for (unsigned i = 0; i < 32; ++i) {
        if (cpu.gpr(i) != ref_.gpr(i)) {
            out = std::string("gpr ") + isa::kRegNames[i] +
                  ": fast=" + hex(cpu.gpr(i)) +
                  " ref=" + hex(ref_.gpr(i));
            return false;
        }
    }
    if (cpu.hi() != ref_.hi() || cpu.lo() != ref_.lo()) {
        out = "hi/lo: fast=" + hex(cpu.hi()) + "/" + hex(cpu.lo()) +
              " ref=" + hex(ref_.hi()) + "/" + hex(ref_.lo());
        return false;
    }
    for (unsigned i = 0; i < cap::kNumCapRegs; ++i) {
        if (!(cpu.caps().read(i) == ref_.caps().read(i))) {
            out = "c" + std::to_string(i) +
                  ": fast=" + cpu.caps().read(i).toString() +
                  " ref=" + ref_.caps().read(i).toString();
            return false;
        }
    }
    if (!(cpu.caps().pcc() == ref_.caps().pcc())) {
        out = "pcc: fast=" + cpu.caps().pcc().toString() +
              " ref=" + ref_.caps().pcc().toString();
        return false;
    }
    return true;
}

bool
Lockstep::compareLines(const std::vector<std::uint64_t> &lines,
                       std::string &out)
{
    for (std::uint64_t paddr : lines) {
        // Reading through the hierarchy perturbs simulated cache
        // timing but not architectural content (see file comment).
        std::uint64_t scratch = 0;
        mem::TaggedLine fast =
            machine_.memory().readCapLine(paddr, scratch);
        mem::TaggedLine ref = ref_memory_.readCapLine(paddr);
        if (fast.data != ref.data || fast.tag != ref.tag) {
            out = "memory line " + hex(paddr) +
                  ": fast=" + lineHex(fast.data) +
                  (fast.tag ? " tag=1" : " tag=0") +
                  " ref=" + lineHex(ref.data) +
                  (ref.tag ? " tag=1" : " tag=0");
            return false;
        }
    }
    return true;
}

bool
Lockstep::finalSweep(std::string &out)
{
    machine_.memory().flushAll();
    const mem::CowStore &store = machine_.cowStore();
    // The skip below rests on the zero page reading as zero.
    static const mem::CowPage kZeroPage{};
    if (store.zeroPage().data != kZeroPage.data ||
        store.zeroPage().tags != kZeroPage.tags) {
        out = "final sweep: the fast machine's shared zero page is not "
              "zero";
        return false;
    }
    for (std::uint64_t page = 0; page < store.pageCount(); ++page) {
        // Both sides read as zero: the fast slot is the zero page and
        // the reference never wrote to the page.
        if (store.isZeroPage(page) && !ref_memory_.pageAllocated(page))
            continue;
        for (std::uint64_t paddr = page * mem::kCowPageBytes;
             paddr < pageEnd(page, store.sizeBytes());
             paddr += mem::kLineBytes) {
            mem::TaggedLine fast = store.readLine(paddr);
            mem::TaggedLine ref = ref_memory_.readCapLine(paddr);
            if (fast.data != ref.data || fast.tag != ref.tag) {
                out = "final sweep: memory line " + hex(paddr) +
                      ": fast=" + lineHex(fast.data) +
                      (fast.tag ? " tag=1" : " tag=0") +
                      " ref=" + lineHex(ref.data) +
                      (ref.tag ? " tag=1" : " tag=0");
                return false;
            }
        }
    }
    return true;
}

LockstepResult
Lockstep::run()
{
    LockstepResult result = runFor(config_.max_instructions);
    if (!result.diverged && config_.final_memory_sweep) {
        std::string detail;
        if (!finalSweep(detail)) {
            result.diverged = true;
            result.divergence = report(detail);
        }
    }
    return result;
}

LockstepResult
Lockstep::runFor(std::uint64_t max_instructions)
{
    LockstepResult result;
    core::Cpu &cpu = machine_.cpu();

    while (result.instructions < max_instructions) {
        cpu_lines_.clear();
        std::uint64_t before = cpu.totalInstructions();
        core::RunResult rr = cpu.run(1);
        std::uint64_t retired = cpu.totalInstructions() - before;
        if (rr.reason == core::StopReason::kInternalFault) {
            // The supervision barrier caught a corruption-induced
            // integrity failure inside the fast CPU. The machine is
            // poisoned mid-instruction, so stop the pair here and let
            // the caller classify the abort.
            result.fast_internal_fault = true;
            result.fast_fault = rr.fault;
            return result;
        }
        bool cpu_trapped = rr.reason == core::StopReason::kTrap;
        bool cpu_break = rr.reason == core::StopReason::kBreak;
        if (cpu_trapped) {
            result.fast_trapped = true;
            result.fast_trap = rr.trap;
        }

        // Match the reference to the fast CPU's stopping point: the
        // same number of retirements, plus — when the fast CPU faulted
        // at fetch, which retires nothing — one non-retiring step that
        // must produce the same fault.
        std::vector<std::uint64_t> ref_lines;
        std::uint64_t done = 0;
        bool ref_trapped = false;
        bool ref_break = false;
        core::Trap ref_trap;
        while (done < retired) {
            RefStep rs = ref_.step();
            ref_lines.insert(ref_lines.end(),
                             ref_.linesWrittenLastStep().begin(),
                             ref_.linesWrittenLastStep().end());
            if (rs.retired)
                ++done;
            if (rs.hit_break)
                ref_break = true;
            if (rs.trapped) {
                ref_trapped = true;
                ref_trap = rs.trap;
                break;
            }
            if (!rs.retired)
                break; // fetch fault without a trap cannot happen
        }
        if (cpu_trapped && !ref_trapped && done == retired) {
            RefStep rs = ref_.step();
            ref_lines.insert(ref_lines.end(),
                             ref_.linesWrittenLastStep().begin(),
                             ref_.linesWrittenLastStep().end());
            if (rs.trapped) {
                ref_trapped = true;
                ref_trap = rs.trap;
            }
            if (rs.retired) {
                result.diverged = true;
                result.divergence = report(
                    "fast CPU faulted at fetch but the reference "
                    "retired an instruction at pc " +
                    hex(ref_.pc()));
                return result;
            }
        }
        result.instructions += done;
        total_instructions_ += done;

        if (done != retired) {
            result.diverged = true;
            result.divergence = report(
                "retirement mismatch: fast retired " +
                std::to_string(retired) + ", reference " +
                std::to_string(done) +
                (ref_trapped ? " (reference trapped: " +
                                   describeTrap(ref_trap) + ")"
                             : ""));
            return result;
        }
        if (cpu_trapped != ref_trapped) {
            result.diverged = true;
            result.divergence = report(
                cpu_trapped
                    ? "fast CPU trapped (" + describeTrap(rr.trap) +
                          ") but the reference did not"
                    : "reference trapped (" + describeTrap(ref_trap) +
                          ") but the fast CPU did not");
            return result;
        }
        if (cpu_trapped) {
            const core::Trap &a = rr.trap;
            const core::Trap &b = ref_trap;
            if (a.code != b.code || a.cap_cause != b.cap_cause ||
                a.cap_reg != b.cap_reg || a.cap_reg2 != b.cap_reg2 ||
                a.epc != b.epc || a.bad_vaddr != b.bad_vaddr ||
                a.in_delay_slot != b.in_delay_slot) {
                result.diverged = true;
                result.divergence = report(
                    "trap mismatch: fast=" + describeTrap(a) +
                    " ref=" + describeTrap(b));
                return result;
            }
        }
        if (cpu_break != ref_break) {
            result.diverged = true;
            result.divergence = report(
                cpu_break ? "fast CPU hit BREAK but the reference "
                            "did not"
                          : "reference hit BREAK but the fast CPU "
                            "did not");
            return result;
        }

        std::string detail;
        if (!compareCore(detail)) {
            result.diverged = true;
            result.divergence = report(detail);
            return result;
        }

        // Diff the union of lines either side claims to have written:
        // a store present on one side only shows up as a content or
        // tag mismatch on the union.
        std::vector<std::uint64_t> lines = cpu_lines_;
        lines.insert(lines.end(), ref_lines.begin(), ref_lines.end());
        std::sort(lines.begin(), lines.end());
        lines.erase(std::unique(lines.begin(), lines.end()),
                    lines.end());
        if (!compareLines(lines, detail)) {
            result.diverged = true;
            result.divergence = report(detail);
            return result;
        }

        if (cpu_trapped) {
            result.trapped = true;
            result.trap = rr.trap;
            break;
        }
        if (cpu_break) {
            result.hit_break = true;
            break;
        }
    }

    if (!result.diverged && !result.trapped && !result.hit_break)
        result.hit_limit = true;
    return result;
}

} // namespace cheri::check
