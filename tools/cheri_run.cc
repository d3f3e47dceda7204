/**
 * @file
 * cheri-run — assemble a .s file and execute it on the emulated CHERI
 * machine under SimpleOs. The guest's console output (kSysWrite /
 * kSysPutChar) goes to stdout; traps are reported with the full
 * capability cause.
 *
 * Usage:
 *   cheri-run [options] program.s
 *     --max-insts N    instruction budget (default 100M)
 *     --max-cycles N   cycle budget (watchdog; default unlimited)
 *     --stats          print cycle/instruction and memory-system stats
 *     --dump-regs      print integer and capability registers at stop
 *     --trace N        disassemble the first N executed instructions
 *     --dram BYTES     DRAM size (default 64 MiB)
 *     --l1 BYTES       L1 data/instruction cache size (default 16 KiB)
 *     --l2 BYTES       L2 cache size (default 64 KiB)
 *     --prefetch P     hardware prefetcher: none|nextline|capchase
 *                      (default none)
 *     --prefetch-degree N
 *                      prefetch degree, 1..64 (default 2)
 *
 * Exit codes (each failure prints a one-line diagnostic on stderr):
 *   0  guest exited 0 or reached BREAK
 *   1  guest trap (unhandled exception)
 *   2  usage error (bad option, no program)
 *   3  load failure (unreadable file, assembly errors)
 *   4  watchdog fired (instruction or cycle budget exhausted)
 *   N  guest called exit(N)
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "core/machine.h"
#include "isa/disasm.h"
#include "isa/text_assembler.h"
#include "os/simple_os.h"
#include "support/parse.h"

using namespace cheri;

namespace
{

void
printStats(const core::Machine &machine)
{
    support::StatSet counters = machine.counters();
    std::uint64_t instructions = counters.get("instructions");
    std::uint64_t cycles = counters.get("cycles");
    std::printf("\n-- stats --\n");
    std::printf("instructions: %llu\n",
                static_cast<unsigned long long>(instructions));
    std::printf("cycles:       %llu  (CPI %.2f)\n",
                static_cast<unsigned long long>(cycles),
                instructions ? static_cast<double>(cycles) /
                                   static_cast<double>(instructions)
                             : 0.0);
    for (const auto &[name, value] : counters.all()) {
        if (name != "instructions" && name != "cycles")
            std::printf("%-18s %llu\n", name.c_str(),
                        static_cast<unsigned long long>(value));
    }
}

void
dumpRegisters(core::Machine &machine)
{
    core::Cpu &cpu = machine.cpu();
    std::printf("\n-- registers --\n");
    for (unsigned i = 0; i < 32; ++i) {
        std::printf("%-4s 0x%016llx%s", isa::kRegNames[i],
                    static_cast<unsigned long long>(cpu.gpr(i)),
                    i % 2 == 1 ? "\n" : "   ");
    }
    std::printf("pc   0x%016llx\n",
                static_cast<unsigned long long>(cpu.pc()));
    for (unsigned i = 0; i < cap::kNumCapRegs; ++i) {
        const cap::Capability &capability = cpu.caps().read(i);
        if (!capability.tag() && capability.base() == 0 &&
            capability.length() == 0)
            continue; // skip boring NULL registers
        std::printf("c%-3u %s\n", i, capability.toString().c_str());
    }
    std::printf("pcc  %s\n", cpu.caps().pcc().toString().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t max_insts = 100'000'000;
    std::uint64_t max_cycles = ~0ULL;
    std::uint64_t trace_count = 0;
    bool want_stats = false;
    bool want_regs = false;
    const char *path = nullptr;
    core::MachineConfig config;

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--max-insts") == 0 && i + 1 < argc) {
            max_insts =
                support::parseU64OrFatal(argv[++i], "--max-insts");
        } else if (std::strcmp(argv[i], "--max-cycles") == 0 &&
                   i + 1 < argc) {
            max_cycles =
                support::parseU64OrFatal(argv[++i], "--max-cycles");
        } else if (std::strcmp(argv[i], "--trace") == 0 &&
                   i + 1 < argc) {
            trace_count =
                support::parseU64OrFatal(argv[++i], "--trace");
        } else if (std::strcmp(argv[i], "--dram") == 0 &&
                   i + 1 < argc) {
            config.dram_bytes =
                support::parseU64OrFatal(argv[++i], "--dram");
        } else if (std::strcmp(argv[i], "--l1") == 0 && i + 1 < argc) {
            std::uint64_t bytes =
                support::parseU64OrFatal(argv[++i], "--l1");
            config.caches.l1i.size_bytes = bytes;
            config.caches.l1d.size_bytes = bytes;
        } else if (std::strcmp(argv[i], "--l2") == 0 && i + 1 < argc) {
            config.caches.l2.size_bytes =
                support::parseU64OrFatal(argv[++i], "--l2");
        } else if (std::strcmp(argv[i], "--prefetch") == 0 &&
                   i + 1 < argc) {
            const char *name = argv[++i];
            if (!cache::parsePrefetchPolicy(
                    name, config.caches.prefetch.policy)) {
                std::fprintf(stderr,
                             "--prefetch: unknown policy '%s' "
                             "(none|nextline|capchase)\n",
                             name);
                return 2;
            }
        } else if (std::strcmp(argv[i], "--prefetch-degree") == 0 &&
                   i + 1 < argc) {
            std::uint64_t degree = support::parseU64OrFatal(
                argv[++i], "--prefetch-degree");
            if (degree == 0 || degree > 64) {
                std::fprintf(stderr,
                             "--prefetch-degree: expected 1..64, got "
                             "%llu\n",
                             static_cast<unsigned long long>(degree));
                return 2;
            }
            config.caches.prefetch.degree =
                static_cast<unsigned>(degree);
        } else if (std::strcmp(argv[i], "--stats") == 0) {
            want_stats = true;
        } else if (std::strcmp(argv[i], "--dump-regs") == 0) {
            want_regs = true;
        } else if (argv[i][0] == '-') {
            std::fprintf(stderr, "unknown option %s\n", argv[i]);
            return 2;
        } else {
            path = argv[i];
        }
    }
    if (path == nullptr) {
        std::fprintf(stderr,
                     "usage: cheri-run [--max-insts N] [--stats] "
                     "[--dump-regs] program.s\n");
        return 2;
    }

    std::ifstream file(path);
    if (!file) {
        std::fprintf(stderr, "cheri-run: load failure: cannot open %s\n",
                     path);
        return 3;
    }
    std::stringstream buffer;
    buffer << file.rdbuf();

    isa::AsmResult assembled =
        isa::assembleText(buffer.str(), os::kTextBase);
    if (!assembled.ok()) {
        for (const isa::AsmError &error : assembled.errors)
            std::fprintf(stderr, "%s:%u: %s\n", path, error.line,
                         error.message.c_str());
        std::fprintf(stderr,
                     "cheri-run: load failure: %zu assembly error(s) "
                     "in %s\n",
                     assembled.errors.size(), path);
        return 3;
    }

    core::Machine machine(config);
    os::SimpleOs kernel(machine);
    int pid = kernel.exec(assembled.words);

    std::uint64_t traced = 0;
    if (trace_count > 0) {
        machine.cpu().setTraceHook(
            [&](std::uint64_t pc, const isa::Instruction &inst) {
                if (traced++ < trace_count) {
                    std::fprintf(stderr, "%08llx:  %s\n",
                                 static_cast<unsigned long long>(pc),
                                 isa::disassemble(inst).c_str());
                }
            });
    }

    core::RunLimits limits;
    limits.max_instructions = max_insts;
    limits.max_cycles = max_cycles;
    core::RunResult result = kernel.run(limits);

    // Console output.
    std::fputs(kernel.process(pid).console.c_str(), stdout);

    int exit_code = 0;
    switch (result.reason) {
      case core::StopReason::kExited:
        exit_code = static_cast<int>(result.exit_code);
        break;
      case core::StopReason::kBreak:
        std::printf("[break at pc 0x%llx]\n",
                    static_cast<unsigned long long>(
                        machine.cpu().pc()));
        break;
      case core::StopReason::kTrap:
        std::fprintf(stderr, "cheri-run: guest trap: %s\n",
                     result.trap.toString().c_str());
        exit_code = 1;
        break;
      case core::StopReason::kInstLimit:
        std::fprintf(stderr,
                     "cheri-run: watchdog: instruction budget (%llu) "
                     "exhausted at pc 0x%llx\n",
                     static_cast<unsigned long long>(max_insts),
                     static_cast<unsigned long long>(
                         machine.cpu().pc()));
        exit_code = 4;
        break;
      case core::StopReason::kCycleLimit:
        std::fprintf(stderr,
                     "cheri-run: watchdog: cycle budget (%llu) "
                     "exhausted at pc 0x%llx\n",
                     static_cast<unsigned long long>(max_cycles),
                     static_cast<unsigned long long>(
                         machine.cpu().pc()));
        exit_code = 4;
        break;
      case core::StopReason::kInternalFault:
        // Only reachable under a support::PanicScope, which cheri-run
        // does not install — kept for switch exhaustiveness and as a
        // diagnostic should a supervised embedding reuse this path.
        std::fprintf(stderr,
                     "cheri-run: internal fault in %s at pc 0x%llx: "
                     "%s\n",
                     result.fault.subsystem.c_str(),
                     static_cast<unsigned long long>(result.fault.pc),
                     result.fault.message.c_str());
        exit_code = 5;
        break;
    }

    if (want_regs)
        dumpRegisters(machine);
    if (want_stats)
        printStats(machine);
    return exit_code;
}
