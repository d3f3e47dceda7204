/**
 * @file
 * cheri-serve: fleet-scale guest serving demo. One warm parent
 * machine loads an Olden kernel and retires a warm-up prefix; every
 * guest in the fleet is then a copy-on-write Machine::fork() of that
 * checkpoint, personalised with a per-guest salt written into the
 * heap tail, and multiplexed over the work-stealing GuestScheduler
 * in RunLimits-sized quanta until it reaches BREAK.
 *
 * The report is byte-deterministic at any --jobs: guests run on
 * private forks, every record is a function of the guest index
 * alone, and records merge in index order. Per-guest checks prove
 * the serving substrate out as it runs — the kernel checksum must
 * survive preemption, the salt must read back (no cross-guest leak
 * can go unnoticed: every guest salts the same virtual address), and
 * the parent must end the run byte-clean and still forkable.
 *
 * The fleet is self-healing: quanta run behind the guest-failure
 * barrier (support::PanicScope) and every attempt that ends in an
 * internal fault, trap, timeout, or checksum/salt mismatch is
 * reported to a GuestSupervisor, which rolls the guest back to the
 * fork checkpoint (the poisoned fork is discarded and re-minted) and
 * retries with an escalating instruction budget until the retry
 * budget runs out — then the guest is quarantined with its incident
 * history. --storm injects one planned fault (check/fault_plan.h)
 * into a deterministic fraction of the fleet to exercise exactly
 * that path: every injured guest must be detected, retried, and
 * either recovered or quarantined — never silently healthy — while
 * healthy guests' records stay byte-identical to a storm-free run.
 *
 * Usage:
 *   cheri-serve [options]
 *     --guests N       fleet size (default 1000)
 *     --guest NAME     kernel: treeadd|bisort|mst|em3d|vm
 *                      (default treeadd)
 *     --jobs N         scheduler workers (default: hardware
 *                      concurrency; 1 = serial reference schedule)
 *     --quantum N      instructions per scheduling slice
 *                      (default 500)
 *     --warmup N       instructions the parent retires before the
 *                      checkpoint freezes (default 256)
 *     --storm P        injure P% of the fleet (0..100): each injured
 *                      guest gets one seeded fault injection per
 *                      storm-hit attempt (default 0 = no storm)
 *     --retry-budget N rollback-retries granted per guest before
 *                      quarantine (default 3)
 *     --quarantine-after N
 *                      quarantine early after N consecutive
 *                      identical-fault incidents (default 0 = off)
 *     --slow           run at the reference host tier (forks
 *                      inherit it)
 *     --measure-fork   time Machine::fork() of the warm parent and
 *                      append a "fork_measure" section (host timings
 *                      — omitted by default so the JSON stays
 *                      byte-deterministic)
 *     --json PATH      write the JSON report ('-' = stdout)
 *     --selftest       serve the fleet twice and require the two
 *                      deterministic reports to be byte-identical;
 *                      with --storm, additionally serve a clean
 *                      fleet and require every healthy guest's
 *                      record to be byte-identical to its clean-run
 *                      record and every injured guest to be
 *                      classified (recovered or quarantined)
 *     --quiet          suppress the one-line summary
 *
 * Exit codes: 0 success, 1 fleet/selftest failure, 2 usage.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "check/fault_plan.h"
#include "core/machine.h"
#include "isa/assembler.h"
#include "support/logging.h"
#include "support/parallel.h"
#include "support/parse.h"
#include "support/rng.h"
#include "support/scheduler.h"
#include "workloads/guest_olden.h"
#include "workloads/vm_guest.h"

using namespace cheri;

namespace
{

struct ServeConfig
{
    std::uint64_t guests = 1000;
    std::string guest_name = "treeadd";
    unsigned jobs = 0;
    std::uint64_t quantum = 500;
    std::uint64_t warmup = 256;
    /** Percent of the fleet the storm injures (0 = no storm). */
    std::uint64_t storm = 0;
    unsigned retry_budget = 3;
    unsigned quarantine_after = 0;
    bool fast_paths = true;
};

struct GuestRecord
{
    unsigned attempts = 1;
    bool checksum_ok = false;
    std::uint64_t cow_pages = 0;
    std::uint64_t cycles = 0;
    std::vector<support::GuestIncident> incidents;
    bool injured = false;
    std::uint64_t instructions = 0;
    std::uint64_t quanta = 0;
    std::uint64_t salt = 0;
    bool salt_ok = false;
    const char *stop = "";
    const char *verdict = "healthy";
};

struct ServeReport
{
    std::vector<GuestRecord> records;
    std::uint64_t parent_instructions = 0;
    bool parent_salt_clean = false;
    bool parent_reusable = false;
};

std::string
num(std::uint64_t value)
{
    return std::to_string(value);
}

workloads::GuestProgram
programByName(const std::string &name)
{
    // Same shapes the fault campaign serves, so clean lengths are
    // known-good against the snapshot/lockstep batteries.
    if (name == "treeadd")
        return workloads::guestTreeadd(5, 2);
    if (name == "bisort")
        return workloads::guestBisort(48);
    if (name == "mst")
        return workloads::guestMst(12);
    if (name == "em3d")
        return workloads::guestEm3d(10, 3, 2);
    if (name == "vm")
        return workloads::guestVm(workloads::VmConfig{});
    std::fprintf(stderr, "cheri-serve: unknown guest '%s'\n",
                 name.c_str());
    std::exit(2);
}

/** Address of the 8-byte per-guest salt: the heap tail, above every
 *  kernel's live data, inside the always-mapped heap range. */
std::uint64_t
saltAddr(const workloads::GuestProgram &prog)
{
    return prog.layout.heap_base + prog.layout.heap_bytes - 8;
}

/** The deterministic per-guest salt (pure function of the index). */
std::uint64_t
saltFor(std::uint64_t index)
{
    return support::Xoshiro256(0x5e12e5e12eULL + index).next();
}

/**
 * Storm membership, spread evenly across the index space rather than
 * clumped at the front: (index * storm) mod 100 cycles through the
 * multiples of gcd(storm, 100) with period 100/gcd, and exactly
 * storm/gcd of those residues are below storm — so every
 * period-aligned fleet prefix is injured at exactly storm percent.
 */
bool
stormInjured(std::uint64_t storm, std::uint64_t index)
{
    return storm > 0 && index * storm % 100 < storm;
}

/** Injured guests that re-injure themselves on EVERY attempt (about
 *  a quarter of the storm): rollback-retry cannot save them, so they
 *  must end quarantined. The rest are one-shot (attempt 0 only) and
 *  must end recovered. Pure function of the index. */
bool
stormPersistent(std::uint64_t index)
{
    return support::Xoshiro256(0x9e151e27ULL + index).next() % 4 == 0;
}

/** The seeded injection for one (guest, attempt): fault class, a
 *  checkpoint-relative injection offset inside the clean run, and
 *  the in-class target selector. */
struct StormShot
{
    check::FaultPlan plan;
    /** Instructions past the checkpoint at which to inject. */
    std::uint64_t inject_offset = 0;
};

StormShot
stormShotFor(std::uint64_t index, unsigned attempt,
             std::uint64_t clean_remaining)
{
    support::Xoshiro256 rng((0x570a2b1dULL + index) *
                                0x9e3779b97f4a7c15ULL +
                            attempt);
    StormShot shot;
    shot.plan.fault = static_cast<check::FaultClass>(
        rng.next() % check::kNumFaultClasses);
    std::uint64_t span =
        clean_remaining > 1 ? clean_remaining - 1 : 1;
    shot.inject_offset = 1 + rng.next() % span;
    shot.plan.inject_at = shot.inject_offset;
    shot.plan.pick = rng.next();
    return shot;
}

/** Build the warm checkpoint at the configured host tier: load the
 *  kernel, retire the warm-up prefix, and stop at a commit boundary. */
std::unique_ptr<core::Machine>
buildParent(const ServeConfig &config,
            const workloads::GuestProgram &prog)
{
    core::MachineConfig machine_config;
    machine_config.accel.tier = config.fast_paths
                                    ? core::HostTier::kSuperblock
                                    : core::HostTier::kReference;
    auto machine = std::make_unique<core::Machine>(machine_config);
    workloads::loadGuestProgram(*machine, prog);

    core::RunLimits limits;
    limits.max_instructions = config.warmup;
    core::RunResult warm = machine->cpu().run(limits);
    if (warm.reason != core::StopReason::kInstLimit) {
        support::fatal("cheri-serve: warm-up of %llu instructions "
                       "consumed the whole '%s' kernel (stopped: %s)",
                       static_cast<unsigned long long>(config.warmup),
                       prog.name.c_str(),
                       core::stopReasonName(warm.reason));
    }
    return machine;
}

/** Fork and serve the whole fleet; fills records in index order. */
ServeReport
serveFleet(const ServeConfig &config,
           const workloads::GuestProgram &prog,
           core::Machine &parent)
{
    ServeReport report;
    report.records.resize(config.guests);
    report.parent_instructions = parent.cpu().totalInstructions();

    // Probe the clean checkpoint-to-BREAK length once: storm
    // injection offsets land inside it and retry budgets scale with
    // it. The probe fork also proves the checkpoint viable before a
    // thousand guests find out the hard way.
    std::uint64_t clean_remaining = 0;
    {
        std::unique_ptr<core::Machine> probe = parent.fork();
        core::RunLimits limits;
        limits.max_instructions = 100'000'000;
        core::RunResult clean = probe->cpu().run(limits);
        if (clean.reason != core::StopReason::kBreak) {
            support::fatal("cheri-serve: clean probe of '%s' did not "
                           "reach BREAK (stopped: %s)",
                           prog.name.c_str(),
                           core::stopReasonName(clean.reason));
        }
        clean_remaining = probe->cpu().totalInstructions() -
                          report.parent_instructions;
    }

    struct LiveGuest
    {
        std::unique_ptr<core::Machine> machine;
        std::uint64_t quanta = 0;
        /** Attempt the current fork was minted for; a differing
         *  supervisor attempt is the rollback signal. */
        int minted_attempt = -1;
        bool injected = false;
    };
    std::vector<LiveGuest> live(config.guests);
    std::uint64_t salt_vaddr = saltAddr(prog);
    // Per-attempt watchdog, escalated per retry: a corrupted guest
    // that loops forever becomes a deterministic "timeout" incident
    // instead of hanging the fleet, while a retried guest that just
    // runs long gets geometrically more headroom.
    std::uint64_t base_budget = 2 * clean_remaining + 10'000;

    support::GuestSupervisor::Config sup_config;
    sup_config.jobs = config.jobs;
    sup_config.retry_budget = config.retry_budget;
    sup_config.quarantine_after = config.quarantine_after;
    support::GuestSupervisor supervisor(sup_config);

    std::vector<support::GuestOutcome> outcomes = supervisor.run(
        static_cast<std::size_t>(config.guests),
        [&](std::size_t index, unsigned, unsigned attempt) {
            using Step = support::GuestSupervisor::Step;
            LiveGuest &guest = live[index];
            GuestRecord &record = report.records[index];
            bool inject_this_attempt =
                stormInjured(config.storm, index) &&
                (attempt == 0 || stormPersistent(index));
            if (guest.minted_attempt != static_cast<int>(attempt)) {
                // Lazy mint (attempt 0) and rollback-retry (attempt
                // bumped) are the same operation: discard whatever
                // state the guest holds and re-fork the checkpoint.
                // With LIFO own-queue pops the number of live forks
                // stays near the worker count even for a 10k fleet.
                guest.machine = parent.fork();
                guest.minted_attempt = static_cast<int>(attempt);
                guest.injected = false;
                record.salt = saltFor(index);
                if (!guest.machine->cpu().debugWrite(salt_vaddr, 8,
                                                     record.salt)) {
                    support::fatal("cheri-serve: guest %llu salt "
                                   "write failed",
                                   static_cast<unsigned long long>(
                                       index));
                }
            }
            core::Cpu &cpu = guest.machine->cpu();
            // The failing attempt's state stands as the record if
            // the supervisor quarantines; a later clean attempt
            // overwrites it.
            auto fail = [&](std::string fault, const char *stop) {
                record.quanta = guest.quanta;
                record.stop = stop;
                record.instructions = cpu.totalInstructions();
                record.cycles = cpu.totalCycles();
                record.checksum_ok = false;
                record.salt_ok = false;
                record.cow_pages =
                    guest.machine->cowStore().cowFaults();
                // Discard the poisoned fork NOW: a guest that took
                // an internal fault must never run another quantum.
                guest.machine.reset();
                return Step::failed(std::move(fault));
            };
            std::uint64_t executed =
                cpu.totalInstructions() - report.parent_instructions;
            StormShot shot;
            if (inject_this_attempt && !guest.injected) {
                shot = stormShotFor(index, attempt, clean_remaining);
                if (executed >= shot.inject_offset) {
                    guest.injected = true;
                    try {
                        support::PanicScope barrier;
                        check::applyFault(*guest.machine, shot.plan);
                    } catch (const support::GuestFailure &failure) {
                        return fail(std::string("internal_fault:") +
                                        failure.subsystem(),
                                    "internal_fault");
                    }
                }
            }
            core::RunLimits limits;
            limits.max_instructions = config.quantum;
            if (inject_this_attempt && !guest.injected &&
                shot.inject_offset > executed) {
                // Stop the slice exactly at the injection point so
                // the fault lands at a deterministic retired count.
                limits.max_instructions =
                    std::min<std::uint64_t>(config.quantum,
                                            shot.inject_offset -
                                                executed);
            }
            core::RunResult slice;
            {
                // The barrier: an internal integrity check tripped
                // by guest-state corruption unwinds into a
                // structured kInternalFault stop instead of killing
                // the whole serving process.
                support::PanicScope barrier;
                slice = cpu.run(limits);
            }
            ++guest.quanta;
            executed =
                cpu.totalInstructions() - report.parent_instructions;
            if (slice.reason == core::StopReason::kInstLimit) {
                std::uint64_t budget = base_budget
                                       << std::min(attempt, 16u);
                if (executed > budget)
                    return fail("timeout", "inst_limit");
                return Step::runnable();
            }
            if (slice.reason == core::StopReason::kInternalFault) {
                return fail("internal_fault:" + slice.fault.subsystem,
                            "internal_fault");
            }
            if (slice.reason == core::StopReason::kTrap)
                return fail("trap", "trap");
            if (slice.reason != core::StopReason::kBreak) {
                const char *name = core::stopReasonName(slice.reason);
                return fail(name, name);
            }
            bool checksum_ok =
                cpu.gpr(isa::reg::v0) == prog.expected_checksum;
            std::uint64_t got = 0;
            bool salt_ok = cpu.debugRead(salt_vaddr, 8, got) &&
                           got == record.salt;
            if (!checksum_ok)
                return fail("checksum_mismatch", "break");
            if (!salt_ok)
                return fail("salt_mismatch", "break");
            if (guest.injected) {
                // The injection visibly did nothing — but trusting a
                // corrupted machine's clean looks would be exactly
                // the silent-corruption failure the supervisor
                // exists to rule out. Fail the attempt so the guest
                // re-runs from the checkpoint; an injured guest is
                // therefore never reported silently healthy.
                return fail("masked_injection", "break");
            }
            record.quanta = guest.quanta;
            record.stop = core::stopReasonName(slice.reason);
            record.instructions = cpu.totalInstructions();
            record.cycles = cpu.totalCycles();
            record.checksum_ok = true;
            record.salt_ok = true;
            record.cow_pages = guest.machine->cowStore().cowFaults();
            // Retire the fork: only its record lives on.
            guest.machine.reset();
            return Step::done();
        });

    for (std::size_t i = 0; i < report.records.size(); ++i) {
        GuestRecord &record = report.records[i];
        record.injured = stormInjured(config.storm, i);
        record.attempts = outcomes[i].attempts;
        record.verdict = support::guestVerdictName(
            outcomes[i].verdict);
        record.incidents = std::move(outcomes[i].incidents);
    }

    // The fleet is gone; the parent must be byte-clean (no guest
    // write leaked down) and still a viable fork parent.
    std::uint64_t parent_salt = 0;
    report.parent_salt_clean =
        parent.cpu().debugRead(salt_vaddr, 8, parent_salt) &&
        parent_salt == 0 &&
        parent.cpu().totalInstructions() == report.parent_instructions;

    std::unique_ptr<core::Machine> extra = parent.fork();
    core::RunLimits limits;
    limits.max_instructions = base_budget;
    core::RunResult last = extra->cpu().run(limits);
    report.parent_reusable =
        last.reason == core::StopReason::kBreak &&
        extra->cpu().gpr(isa::reg::v0) == prog.expected_checksum;
    return report;
}

/** One guest's record as a single deterministic JSON object (fixed
 *  alphabetical keys). The storm selftest compares these lines
 *  directly between a storm run and a clean run. */
std::string
renderGuestRecord(std::size_t index, const GuestRecord &record)
{
    std::string out = "{\"attempts\": " + num(record.attempts);
    out += ", \"checksum_ok\": ";
    out += record.checksum_ok ? "true" : "false";
    out += ", \"cow_pages\": " + num(record.cow_pages);
    out += ", \"cycles\": " + num(record.cycles);
    out += ", \"incidents\": [";
    for (std::size_t k = 0; k < record.incidents.size(); ++k) {
        const support::GuestIncident &incident = record.incidents[k];
        out += "{\"attempt\": " + num(incident.attempt);
        out += ", \"fault\": \"" + incident.fault + "\"}";
        if (k + 1 < record.incidents.size())
            out += ", ";
    }
    out += "]";
    out += ", \"index\": " + num(index);
    out += ", \"injured\": ";
    out += record.injured ? "true" : "false";
    out += ", \"instructions\": " + num(record.instructions);
    out += ", \"quanta\": " + num(record.quanta);
    out += ", \"salt\": " + num(record.salt);
    out += ", \"salt_ok\": ";
    out += record.salt_ok ? "true" : "false";
    out += ", \"stop\": \"" + std::string(record.stop) + "\"";
    out += ", \"verdict\": \"" + std::string(record.verdict) + "\"}";
    return out;
}

/** Render the deterministic report (fixed alphabetical keys, no
 *  host state); fork_measure, when present, is appended verbatim. */
std::string
renderReport(const ServeConfig &config,
             const workloads::GuestProgram &prog,
             const ServeReport &report,
             const std::string *fork_measure)
{
    std::uint64_t checksum_failures = 0, salt_failures = 0;
    std::uint64_t completed = 0, cow_pages = 0, cycles = 0;
    std::uint64_t instructions = 0, max_quanta = 0, salt_xor = 0;
    std::uint64_t injured = 0, recovered = 0, quarantined = 0;
    std::uint64_t retries = 0;
    for (const GuestRecord &record : report.records) {
        checksum_failures += record.checksum_ok ? 0 : 1;
        salt_failures += record.salt_ok ? 0 : 1;
        completed += std::strcmp(record.stop, "break") == 0 ? 1 : 0;
        cow_pages += record.cow_pages;
        cycles += record.cycles;
        instructions += record.instructions;
        max_quanta = std::max(max_quanta, record.quanta);
        salt_xor ^= record.salt;
        injured += record.injured ? 1 : 0;
        recovered +=
            std::strcmp(record.verdict, "recovered") == 0 ? 1 : 0;
        quarantined +=
            std::strcmp(record.verdict, "quarantined") == 0 ? 1 : 0;
        retries += record.attempts - 1;
    }

    std::string out = "{\n";
    out += "  \"config\": {\"fast_paths\": ";
    out += config.fast_paths ? "true" : "false";
    out += ", \"guest\": \"" + prog.name + "\"";
    out += ", \"guests\": " + num(config.guests);
    out += ", \"quantum\": " + num(config.quantum);
    out += ", \"quarantine_after\": " + num(config.quarantine_after);
    out += ", \"retry_budget\": " + num(config.retry_budget);
    out += ", \"storm\": " + num(config.storm);
    out += ", \"warmup\": " + num(config.warmup) + "},\n";

    out += "  \"fleet\": {\"checksum_failures\": " +
           num(checksum_failures);
    out += ", \"completed\": " + num(completed);
    out += ", \"cow_pages\": " + num(cow_pages);
    out += ", \"cycles\": " + num(cycles);
    out += ", \"injured\": " + num(injured);
    out += ", \"instructions\": " + num(instructions);
    out += ", \"max_quanta\": " + num(max_quanta);
    out += ", \"quarantined\": " + num(quarantined);
    out += ", \"recovered\": " + num(recovered);
    out += ", \"retries\": " + num(retries);
    out += ", \"salt_failures\": " + num(salt_failures);
    out += ", \"salt_xor\": " + num(salt_xor) + "},\n";

    out += "  \"guests\": [\n";
    for (std::size_t i = 0; i < report.records.size(); ++i) {
        out += "    " + renderGuestRecord(i, report.records[i]);
        out += i + 1 < report.records.size() ? ",\n" : "\n";
    }
    out += "  ],\n";

    out += "  \"parent\": {\"instructions\": " +
           num(report.parent_instructions);
    out += ", \"reusable\": ";
    out += report.parent_reusable ? "true" : "false";
    out += ", \"salt_clean\": ";
    out += report.parent_salt_clean ? "true" : "false";
    out += "}";
    if (fork_measure)
        out += ",\n  \"fork_measure\": " + *fork_measure;
    out += "\n}\n";
    return out;
}

/** True when every record and the parent passed their checks. A
 *  quarantined injured guest counts as healthy fleet operation — the
 *  supervisor contained it — but an injured guest must never end
 *  silently clean, and only injured guests may fail at all. */
bool
fleetHealthy(const ServeReport &report)
{
    if (!report.parent_salt_clean || !report.parent_reusable)
        return false;
    for (const GuestRecord &record : report.records) {
        if (std::strcmp(record.verdict, "quarantined") == 0) {
            if (!record.injured || record.incidents.empty())
                return false;
            continue;
        }
        if (!record.checksum_ok || !record.salt_ok)
            return false;
        if (record.injured && record.incidents.empty())
            return false;
    }
    return true;
}

/** Median wall nanoseconds of calling fn() once, over reps calls. */
template <typename Fn>
std::uint64_t
medianNs(unsigned reps, Fn &&fn)
{
    std::vector<std::uint64_t> samples;
    samples.reserve(reps);
    for (unsigned r = 0; r < reps; ++r) {
        auto t0 = std::chrono::steady_clock::now();
        fn();
        auto t1 = std::chrono::steady_clock::now();
        samples.push_back(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 -
                                                                 t0)
                .count()));
    }
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

} // namespace

int
main(int argc, char **argv)
{
    ServeConfig config;
    const char *json_path = nullptr;
    bool quiet = false;
    bool selftest = false;
    bool measure_fork = false;

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--guests") == 0 && i + 1 < argc) {
            config.guests =
                support::parseU64OrFatal(argv[++i], "--guests");
        } else if (std::strcmp(argv[i], "--guest") == 0 &&
                   i + 1 < argc) {
            config.guest_name = argv[++i];
        } else if (std::strcmp(argv[i], "--jobs") == 0 &&
                   i + 1 < argc) {
            config.jobs = support::parseJobsOrFatal(argv[++i],
                                                    "--jobs");
        } else if (std::strcmp(argv[i], "--quantum") == 0 &&
                   i + 1 < argc) {
            config.quantum =
                support::parseU64OrFatal(argv[++i], "--quantum");
        } else if (std::strcmp(argv[i], "--warmup") == 0 &&
                   i + 1 < argc) {
            config.warmup =
                support::parseU64OrFatal(argv[++i], "--warmup");
        } else if (std::strcmp(argv[i], "--storm") == 0 &&
                   i + 1 < argc) {
            config.storm =
                support::parseU64OrFatal(argv[++i], "--storm");
            if (config.storm > 100) {
                std::fprintf(stderr,
                             "--storm: expected a percentage 0..100, "
                             "got %llu\n",
                             static_cast<unsigned long long>(
                                 config.storm));
                return 2;
            }
        } else if (std::strcmp(argv[i], "--retry-budget") == 0 &&
                   i + 1 < argc) {
            std::uint64_t budget = support::parseU64OrFatal(
                argv[++i], "--retry-budget");
            if (budget > 64) {
                std::fprintf(stderr,
                             "--retry-budget: expected 0..64, got "
                             "%llu (a fleet retrying more than that "
                             "is not converging)\n",
                             static_cast<unsigned long long>(budget));
                return 2;
            }
            config.retry_budget = static_cast<unsigned>(budget);
        } else if (std::strcmp(argv[i], "--quarantine-after") == 0 &&
                   i + 1 < argc) {
            std::uint64_t after = support::parseU64OrFatal(
                argv[++i], "--quarantine-after");
            if (after > 64) {
                std::fprintf(stderr,
                             "--quarantine-after: expected 0..64, "
                             "got %llu\n",
                             static_cast<unsigned long long>(after));
                return 2;
            }
            config.quarantine_after = static_cast<unsigned>(after);
        } else if (std::strcmp(argv[i], "--slow") == 0) {
            config.fast_paths = false;
        } else if (std::strcmp(argv[i], "--measure-fork") == 0) {
            measure_fork = true;
        } else if (std::strcmp(argv[i], "--json") == 0 &&
                   i + 1 < argc) {
            json_path = argv[++i];
        } else if (std::strcmp(argv[i], "--selftest") == 0) {
            selftest = true;
        } else if (std::strcmp(argv[i], "--quiet") == 0) {
            quiet = true;
        } else {
            std::fprintf(
                stderr,
                "usage: cheri-serve [--guests N] [--guest NAME] "
                "[--jobs N] [--quantum N] [--warmup N] [--storm P] "
                "[--retry-budget N] [--quarantine-after N] [--slow] "
                "[--measure-fork] [--json PATH] [--selftest] "
                "[--quiet]\n");
            return 2;
        }
    }
    if (config.quantum == 0) {
        std::fprintf(stderr,
                     "--quantum: 0 would never retire a slice\n");
        return 2;
    }

    workloads::GuestProgram prog = programByName(config.guest_name);

    std::string fork_measure;
    if (measure_fork) {
        // Time fork before the fleet touches the heap, so the number
        // measures fork, not allocator state left behind by ten
        // thousand machine constructions.
        std::unique_ptr<core::Machine> subject =
            buildParent(config, prog);
        std::uint64_t fork_ns = medianNs(32, [&] {
            std::unique_ptr<core::Machine> child = subject->fork();
        });
        fork_measure = "{\"fork_ns\": " + num(fork_ns) + "}";
    }

    std::unique_ptr<core::Machine> parent = buildParent(config, prog);
    ServeReport report = serveFleet(config, prog, *parent);

    if (selftest) {
        std::unique_ptr<core::Machine> parent2 =
            buildParent(config, prog);
        ServeReport report2 = serveFleet(config, prog, *parent2);
        if (renderReport(config, prog, report, nullptr) !=
            renderReport(config, prog, report2, nullptr)) {
            std::fprintf(stderr,
                         "cheri-serve: selftest FAILED (two runs "
                         "rendered different reports)\n");
            return 1;
        }
        if (config.storm > 0) {
            // The storm must stay contained: healthy guests' records
            // must be byte-identical to an internal storm-free run,
            // every injured guest must be visibly classified, and
            // the storm must actually have hit its share.
            ServeConfig clean_config = config;
            clean_config.storm = 0;
            std::unique_ptr<core::Machine> clean_parent =
                buildParent(clean_config, prog);
            ServeReport clean =
                serveFleet(clean_config, prog, *clean_parent);
            std::uint64_t injured_count = 0;
            for (std::size_t i = 0; i < report.records.size(); ++i) {
                const GuestRecord &record = report.records[i];
                if (!record.injured) {
                    if (renderGuestRecord(i, record) !=
                        renderGuestRecord(i, clean.records[i])) {
                        std::fprintf(
                            stderr,
                            "cheri-serve: selftest FAILED (healthy "
                            "guest %zu's record differs from the "
                            "storm-free run)\n",
                            i);
                        return 1;
                    }
                    continue;
                }
                ++injured_count;
                if (std::strcmp(record.verdict, "healthy") == 0 ||
                    record.incidents.empty()) {
                    std::fprintf(
                        stderr,
                        "cheri-serve: selftest FAILED (injured guest "
                        "%zu ended silently healthy: verdict %s, "
                        "%zu incident(s))\n",
                        i, record.verdict, record.incidents.size());
                    return 1;
                }
            }
            if (config.storm >= 10 &&
                injured_count * 10 < config.guests) {
                std::fprintf(
                    stderr,
                    "cheri-serve: selftest FAILED (storm %llu%% "
                    "injured only %llu of %llu guests)\n",
                    static_cast<unsigned long long>(config.storm),
                    static_cast<unsigned long long>(injured_count),
                    static_cast<unsigned long long>(config.guests));
                return 1;
            }
        }
    }

    std::string json =
        renderReport(config, prog, report,
                     measure_fork ? &fork_measure : nullptr);
    if (json_path) {
        if (std::strcmp(json_path, "-") == 0) {
            std::fwrite(json.data(), 1, json.size(), stdout);
        } else {
            std::FILE *f = std::fopen(json_path, "wb");
            if (!f) {
                std::fprintf(stderr, "cannot write %s\n", json_path);
                return 2;
            }
            std::fwrite(json.data(), 1, json.size(), f);
            std::fclose(f);
        }
    }

    bool healthy = fleetHealthy(report);
    if (!quiet) {
        std::printf("cheri-serve: %llu %s guest(s) served, fleet %s",
                    static_cast<unsigned long long>(config.guests),
                    prog.name.c_str(),
                    healthy ? "healthy" : "UNHEALTHY");
        if (config.storm > 0) {
            std::uint64_t injured = 0, recovered = 0;
            std::uint64_t quarantined = 0;
            for (const GuestRecord &record : report.records) {
                injured += record.injured ? 1 : 0;
                recovered += std::strcmp(record.verdict,
                                         "recovered") == 0
                                 ? 1
                                 : 0;
                quarantined += std::strcmp(record.verdict,
                                           "quarantined") == 0
                                   ? 1
                                   : 0;
            }
            std::printf(", storm injured=%llu recovered=%llu "
                        "quarantined=%llu",
                        static_cast<unsigned long long>(injured),
                        static_cast<unsigned long long>(recovered),
                        static_cast<unsigned long long>(quarantined));
        }
        std::printf("\n");
    }
    return healthy ? 0 : 1;
}
