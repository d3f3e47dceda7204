/**
 * @file
 * Emulator host-throughput benchmark: measures how many guest
 * instructions per host second the interpreter retires on the guest
 * Olden kernels (treeadd, bisort, mst, em3d) at each core::HostTier:
 * baseline (kReference, every fast path off), fast path (kFast: TLB
 * fetch hint + predecoded-instruction cache on the fetch side,
 * translation memo + L1D-hit short-circuit on the data side), and
 * superblock (kSuperblock: fast paths plus threaded-dispatch
 * straight-line blocks, DESIGN.md §12). Simulated cycles and stats
 * are bit-identical across all tiers (asserted here and in
 * test_host_tier); only host wall-clock changes.
 *
 * Results are written to BENCH_emu_throughput.json (override with
 * CHERI_BENCH_JSON) so the performance trajectory is tracked across
 * PRs. CHERI_BENCH_QUICK=1 shrinks the run for CI, where the only
 * contract is that the JSON is emitted and parses. If
 * CHERI_BENCH_MIN_GEOMEAN is set, the run fails unless the geomean
 * fast-path speedup reaches that value — the bench-quick ctest uses
 * it as a cheap perf-regression gate; CHERI_BENCH_MIN_SB_GEOMEAN does
 * the same for the superblock-over-fast-path geomean.
 *
 * Each kernel is one cell holding a machine per tier. The cell times
 * the tiers round-robin, one repetition each per round, and keeps each
 * tier's best round, so a burst of host load lands on both sides of a
 * speedup ratio instead of on one tier alone.
 *
 * --jobs N (or CHERI_BENCH_JOBS) runs the kernels' cells concurrently
 * with timing isolation: machine construction and the warm-up
 * repetitions overlap freely, but the timed rounds of all cells
 * serialize behind one global mutex so no two clocks ever run at once
 * — wall-clock numbers stay comparable to a serial run while the
 * untimed setup work uses the spare cores. Cells merge back in kernel
 * order, so the table and JSON layout never depend on N.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/machine.h"
#include "support/parallel.h"
#include "support/parse.h"
#include "workloads/guest_olden.h"
#include "workloads/vm_guest.h"

using namespace cheri;

namespace
{

struct WorkloadResult
{
    std::string name;
    std::uint64_t guest_instructions = 0; ///< per timed repetition
    std::uint64_t guest_cycles = 0;
    double mips_superblock = 0.0;
    double mips_fastpath = 0.0;
    double mips_baseline = 0.0;
    double speedup = 0.0;            ///< fast path over baseline
    double speedup_superblock = 0.0; ///< superblock over fast path
    core::SuperblockStats sb;        ///< from the superblock cell
};

/** Every cell times all three core::HostTier values, in this order. */
constexpr std::size_t kTiers = 3;
constexpr core::HostTier kTierOrder[kTiers] = {
    core::HostTier::kSuperblock, core::HostTier::kFast,
    core::HostTier::kReference};

bool
quickMode()
{
    const char *env = std::getenv("CHERI_BENCH_QUICK");
    return env != nullptr && env[0] == '1';
}

/**
 * Serializes the timed rounds of concurrently running cells so no two
 * wall clocks tick at once (see the file comment).
 */
std::mutex timing_mutex;

/** One kernel's cell: per tier, its best MIPS and its warm-up run's
 *  counters, plus the superblock machine's host counters. */
struct CellResult
{
    double mips[kTiers] = {};
    core::RunResult run[kTiers];
    core::SuperblockStats sb;
};

/**
 * Time one kernel at every tier. A repetition resets the CPU to the
 * entry point and re-executes the whole program (rebuilding its heap
 * structures), so the instruction stream is identical each time. Each
 * round times one repetition per tier, and each tier reports its best
 * round: wall-clock MIPS on a shared host is only ever slowed by
 * interference, so the maximum is the least-noisy estimate of the
 * interpreter's actual throughput.
 */
CellResult
measureKernel(const workloads::GuestProgram &prog,
              std::uint64_t target_insts, unsigned rounds)
{
    CellResult cell;
    std::unique_ptr<core::Machine> machines[kTiers];
    for (std::size_t t = 0; t < kTiers; ++t) {
        core::MachineConfig config;
        config.accel.tier = kTierOrder[t];
        machines[t] = std::make_unique<core::Machine>(config);
        workloads::loadGuestProgram(*machines[t], prog);
        // Warm-up repetition: page in host memory, fill the simulated
        // caches, and verify the checksum before the clock starts.
        // Runs outside the timing lock so cells can warm up
        // concurrently.
        cell.run[t] = workloads::runGuestProgram(*machines[t], prog);
    }

    std::lock_guard<std::mutex> timing_isolation(timing_mutex);
    for (unsigned round = 0; round < rounds; ++round) {
        for (std::size_t t = 0; t < kTiers; ++t) {
            std::uint64_t executed = 0;
            auto start = std::chrono::steady_clock::now();
            while (executed < target_insts)
                executed += workloads::runGuestProgram(*machines[t], prog)
                                .instructions;
            auto end = std::chrono::steady_clock::now();
            double seconds =
                std::chrono::duration<double>(end - start).count();
            cell.mips[t] =
                std::max(cell.mips[t],
                         static_cast<double>(executed) / seconds / 1e6);
        }
    }
    cell.sb = machines[0]->cpu().superblockStats();
    return cell;
}

std::string
jsonEscapeless(const std::string &s)
{
    return s; // workload names are plain identifiers
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = quickMode();
    std::uint64_t target = quick ? 300'000 : 20'000'000;
    unsigned rounds = quick ? 9 : 3;

    unsigned jobs = 1;
    bool with_vm = false;
    if (const char *env = std::getenv("CHERI_BENCH_JOBS"))
        jobs = support::parseJobsOrFatal(env, "CHERI_BENCH_JOBS");
    if (const char *env = std::getenv("CHERI_BENCH_VM"))
        with_vm = env[0] == '1';
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
            jobs = support::parseJobsOrFatal(argv[++i], "--jobs");
        } else if (std::strcmp(argv[i], "--vm") == 0) {
            with_vm = true;
        } else {
            std::fprintf(stderr,
                         "usage: emu_throughput [--jobs N] [--vm]\n");
            return 2;
        }
    }

    std::vector<workloads::GuestProgram> programs;
    programs.push_back(quick ? workloads::guestTreeadd(8, 2)
                             : workloads::guestTreeadd(12, 8));
    programs.push_back(quick ? workloads::guestBisort(48)
                             : workloads::guestBisort(256));
    programs.push_back(quick ? workloads::guestMst(8)
                             : workloads::guestMst(64));
    programs.push_back(quick ? workloads::guestEm3d(10, 3, 2)
                             : workloads::guestEm3d(96, 6, 16));
    if (with_vm) {
        // Opt-in (--vm / CHERI_BENCH_VM=1) so the default kernel set
        // — and the tracked figures — stay unchanged: the bytecode-VM
        // guest spends its cycles in interpreter dispatch and GC
        // evacuation, a very different instruction mix from the
        // pointer-chasing Olden kernels.
        workloads::VmConfig vm_config;
        if (!quick) {
            vm_config.rounds = 48;
            vm_config.units = 24;
            vm_config.semispace_objects = 40;
        }
        programs.push_back(workloads::guestVm(vm_config));
    }

    std::printf("Emulator throughput on guest Olden kernels "
                "(%s mode, %u job%s)\n\n",
                quick ? "quick" : "full", jobs, jobs == 1 ? "" : "s");

    // One cell per kernel. Cells run concurrently (timed rounds
    // serialized by timing_mutex) and merge in kernel order.
    std::vector<CellResult> cells =
        support::parallelMapOrdered<CellResult>(
            programs.size(), jobs, [&](std::size_t index, unsigned) {
                return measureKernel(programs[index], target, rounds);
            });

    std::vector<WorkloadResult> results;
    double speedup_product = 1.0;
    double sb_speedup_product = 1.0;
    for (std::size_t k = 0; k < programs.size(); ++k) {
        const auto &prog = programs[k];
        const CellResult &cell = cells[k];
        const core::RunResult &base_run = cell.run[2];

        WorkloadResult res;
        res.name = prog.name;
        res.mips_superblock = cell.mips[0];
        res.mips_fastpath = cell.mips[1];
        res.mips_baseline = cell.mips[2];
        res.guest_instructions = cell.run[1].instructions;
        res.guest_cycles = cell.run[1].cycles;
        res.speedup = res.mips_fastpath / res.mips_baseline;
        res.speedup_superblock = res.mips_superblock / res.mips_fastpath;
        res.sb = cell.sb;
        speedup_product *= res.speedup;
        sb_speedup_product *= res.speedup_superblock;

        // No tier may change simulated behaviour.
        for (const core::RunResult *run : {&cell.run[0], &cell.run[1]}) {
            if (run->instructions != base_run.instructions ||
                run->cycles != base_run.cycles) {
                std::fprintf(
                    stderr,
                    "FATAL: %s timing diverges with a fast path "
                    "(insts %llu vs %llu, cycles %llu vs %llu)\n",
                    prog.name.c_str(),
                    static_cast<unsigned long long>(run->instructions),
                    static_cast<unsigned long long>(
                        base_run.instructions),
                    static_cast<unsigned long long>(run->cycles),
                    static_cast<unsigned long long>(base_run.cycles));
                return 1;
            }
        }
        results.push_back(res);
    }

    support::TextTable table({"Kernel", "Guest insts/run",
                              "MIPS (superblock)", "MIPS (fast)",
                              "MIPS (baseline)", "Fast/base",
                              "SB/fast"});
    for (const auto &res : results) {
        table.addRow({res.name,
                      support::format("%llu",
                                      static_cast<unsigned long long>(
                                          res.guest_instructions)),
                      support::format("%.2f", res.mips_superblock),
                      support::format("%.2f", res.mips_fastpath),
                      support::format("%.2f", res.mips_baseline),
                      support::format("%.2fx", res.speedup),
                      support::format("%.2fx", res.speedup_superblock)});
    }
    table.print(std::cout);

    double geomean = 1.0;
    double sb_geomean = 1.0;
    if (!results.empty()) {
        geomean = std::pow(speedup_product,
                           1.0 / static_cast<double>(results.size()));
        sb_geomean =
            std::pow(sb_speedup_product,
                     1.0 / static_cast<double>(results.size()));
    }
    std::printf("\nGeomean fast-path speedup:  %.2fx\n", geomean);
    std::printf("Geomean superblock speedup: %.2fx (over fast path)\n",
                sb_geomean);

    // --- emit the tracking JSON ---
    const char *path_env = std::getenv("CHERI_BENCH_JSON");
    std::string path =
        path_env != nullptr ? path_env : "BENCH_emu_throughput.json";
    {
        std::ostringstream os;
        os << "{\n";
        os << "  \"bench\": \"emu_throughput\",\n";
        os << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
        os << "  \"workloads\": [\n";
        for (std::size_t i = 0; i < results.size(); ++i) {
            const auto &res = results[i];
            os << "    {\"name\": \"" << jsonEscapeless(res.name)
               << "\", \"guest_instructions\": "
               << res.guest_instructions
               << ", \"guest_cycles\": " << res.guest_cycles
               << ", \"mips_superblock\": "
               << support::format("%.3f", res.mips_superblock)
               << ", \"mips_fastpath\": "
               << support::format("%.3f", res.mips_fastpath)
               << ", \"mips_baseline\": "
               << support::format("%.3f", res.mips_baseline)
               << ", \"speedup\": "
               << support::format("%.3f", res.speedup)
               << ", \"speedup_superblock\": "
               << support::format("%.3f", res.speedup_superblock)
               << ",\n     \"superblocks\": {\"minted\": "
               << res.sb.minted << ", \"entered\": " << res.sb.entered
               << ", \"guard_fails\": " << res.sb.guard_fails
               << ", \"invalidated\": " << res.sb.invalidated
               << ", \"instructions\": " << res.sb.instructions << "}}"
               << (i + 1 < results.size() ? "," : "") << "\n";
        }
        os << "  ],\n";
        os << "  \"geomean_speedup\": "
           << support::format("%.3f", geomean) << ",\n";
        os << "  \"geomean_superblock_speedup\": "
           << support::format("%.3f", sb_geomean) << "\n";
        os << "}\n";

        std::ofstream out(path);
        if (!out) {
            std::fprintf(stderr, "FATAL: cannot write %s\n",
                         path.c_str());
            return 1;
        }
        out << os.str();
    }

    // Self-check: the file must exist and contain the summary key, so
    // CI fails loudly if emission regresses.
    {
        std::ifstream in(path);
        std::stringstream buffer;
        buffer << in.rdbuf();
        if (buffer.str().find("\"geomean_speedup\"") ==
            std::string::npos) {
            std::fprintf(stderr, "FATAL: %s missing geomean_speedup\n",
                         path.c_str());
            return 1;
        }
    }
    std::printf("Wrote %s\n", path.c_str());

    // Optional perf-regression gate (used by the bench-quick ctest).
    if (const char *min_env = std::getenv("CHERI_BENCH_MIN_GEOMEAN")) {
        double min_geomean = std::atof(min_env);
        if (!(geomean >= min_geomean)) {
            std::fprintf(stderr,
                         "FATAL: geomean speedup %.3f below required "
                         "minimum %.3f\n",
                         geomean, min_geomean);
            return 1;
        }
        std::printf("Geomean gate passed: %.3f >= %.3f\n", geomean,
                    min_geomean);
    }
    if (const char *min_env =
            std::getenv("CHERI_BENCH_MIN_SB_GEOMEAN")) {
        double min_geomean = std::atof(min_env);
        if (!(sb_geomean >= min_geomean)) {
            std::fprintf(stderr,
                         "FATAL: superblock geomean speedup %.3f below "
                         "required minimum %.3f\n",
                         sb_geomean, min_geomean);
            return 1;
        }
        std::printf("Superblock geomean gate passed: %.3f >= %.3f\n",
                    sb_geomean, min_geomean);
    }
    return 0;
}
