#include "check/fault_campaign.h"

#include <cstdio>

#include <memory>

#include "check/lockstep.h"
#include "isa/assembler.h"
#include "support/logging.h"
#include "support/parallel.h"
#include "support/rng.h"

namespace cheri::check
{

namespace
{

std::string
firstLine(const std::string &text)
{
    std::size_t pos = text.find('\n');
    return pos == std::string::npos ? text : text.substr(0, pos);
}

/** JSON string escape (quotes, backslash, control characters). */
std::string
jsonEscape(const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 2);
    for (char c : text) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
num(std::uint64_t value)
{
    return std::to_string(value);
}

/**
 * Replay one planned trial on a machine the caller has just rolled
 * back to the guest's checkpoint and classify it (see the header's
 * outcome taxonomy).
 */
TrialRecord
runTrial(const CampaignGuest &guest, core::Machine &machine,
         const FaultPlan &plan, std::uint64_t trial_index,
         std::uint64_t clean_instructions)
{
    LockstepConfig oracle_config;
    oracle_config.final_memory_sweep = false;
    Lockstep oracle(machine, oracle_config);

    LockstepResult prefix = oracle.runFor(plan.inject_at);
    if (prefix.diverged || !prefix.hit_limit) {
        support::panic("campaign guest '%s' trial %llu: clean "
                       "prefix did not stay clean: %s",
                       guest.name.c_str(),
                       static_cast<unsigned long long>(trial_index),
                       prefix.divergence.c_str());
    }

    // Everything past the injection runs behind the guest-failure
    // barrier: a corruption that trips an internal state-integrity
    // check (support::guestFault) unwinds as a GuestFailure — either
    // caught by Cpu::run (surfacing as fast_internal_fault) or, from
    // code outside the run loop such as the final memory sweep,
    // caught here — and classifies the trial as detected_abort
    // instead of killing the whole campaign. The clean prefix above
    // deliberately runs outside the scope: an abort there is an
    // emulator bug, not an injected fault.
    TrialRecord record;
    record.index = trial_index;
    record.requested = plan.fault;
    record.inject_at = plan.inject_at;
    support::PanicScope barrier;
    try {
        FaultOutcome fault = applyFault(machine, plan);
        if (!fault.applied) {
            support::panic("campaign guest '%s' trial %llu: no fault "
                           "class applicable",
                           guest.name.c_str(),
                           static_cast<unsigned long long>(trial_index));
        }
        record.applied = fault.applied_class;
        record.target = fault.target;

        // Generous budget: a corrupted guest gets twice the remaining
        // clean instructions plus slack before the watchdog calls it
        // a timeout.
        std::uint64_t remaining = clean_instructions - plan.inject_at;
        LockstepResult post = oracle.runFor(2 * remaining + 10'000);

        record.instructions_after = post.instructions;
        if (post.fast_internal_fault) {
            record.outcome = TrialOutcome::kDetectedAbort;
            record.detail = post.fast_fault.subsystem + ": " +
                            firstLine(post.fast_fault.message);
        } else if (post.diverged) {
            record.outcome = post.fast_trapped
                                 ? TrialOutcome::kDetectedTrap
                                 : TrialOutcome::kDetectedDivergence;
            record.detail = firstLine(post.divergence);
        } else if (post.hit_limit) {
            record.outcome = TrialOutcome::kTimeout;
        } else {
            // The pair reached BREAK (or an identical trap) with all
            // architectural state matching; only lingering memory
            // corruption separates masked from silent.
            std::string sweep;
            if (oracle.finalStateMatches(sweep)) {
                record.outcome = TrialOutcome::kMasked;
            } else {
                record.outcome = TrialOutcome::kSilentCorruption;
                record.detail = firstLine(sweep);
            }
        }
    } catch (const support::GuestFailure &failure) {
        record.outcome = TrialOutcome::kDetectedAbort;
        record.detail =
            failure.subsystem() + ": " + firstLine(failure.message());
    }
    return record;
}

/** Run one guest's campaign; see the header's file comment. */
GuestReport
runGuest(const CampaignConfig &config, const CampaignGuest &guest,
         std::uint64_t guest_index)
{
    GuestReport report;
    report.name = guest.name;

    // The loaded guest is the checkpoint every run starts from; it
    // never runs itself. The calibration machine doubles as worker 0's
    // replay machine.
    core::MachineConfig machine_config;
    machine_config.dram_bytes = config.dram_bytes;
    machine_config.accel.tier = config.fast_paths
                                    ? core::HostTier::kSuperblock
                                    : core::HostTier::kReference;
    core::Machine checkpoint(machine_config);
    guest.load(checkpoint);
    std::unique_ptr<core::Machine> calibration = checkpoint.fork();
    core::Machine &machine = *calibration;

    // Clean watchdog-bounded run to calibrate the injection window.
    core::RunLimits limits;
    limits.max_instructions = config.clean_budget;
    core::RunResult clean = machine.cpu().run(limits);
    if (clean.reason != core::StopReason::kBreak) {
        support::fatal("campaign guest '%s' did not reach BREAK "
                       "within %llu instructions",
                       guest.name.c_str(),
                       static_cast<unsigned long long>(
                           config.clean_budget));
    }
    report.clean_instructions = machine.cpu().totalInstructions();
    report.clean_cycles = machine.cpu().totalCycles();
    std::uint64_t clean_checksum = machine.cpu().gpr(isa::reg::v0);

    // Self-check: rolling back to the checkpoint and re-running must
    // reproduce the clean counters exactly — the rollback alone may
    // not perturb the simulation.
    machine.restoreFrom(checkpoint);
    core::RunResult replay = machine.cpu().run(limits);
    report.restore_perturbed =
        replay.reason != core::StopReason::kBreak ||
        machine.cpu().totalInstructions() != report.clean_instructions ||
        machine.cpu().totalCycles() != report.clean_cycles ||
        machine.cpu().gpr(isa::reg::v0) != clean_checksum;

    if (report.clean_instructions < 16) {
        support::fatal("campaign guest '%s' retired only %llu "
                       "instructions; too short to inject into",
                       guest.name.c_str(),
                       static_cast<unsigned long long>(
                           report.clean_instructions));
    }

    // Draw every trial's plan up front from the single per-guest RNG,
    // in trial order — the draws are what tie the campaign to its
    // seed, so they must not depend on worker scheduling.
    support::Xoshiro256 rng(config.seed +
                            guest_index * 0x9e3779b97f4a7c15ULL);
    std::vector<FaultPlan> plans;
    plans.reserve(config.trials);
    for (std::uint64_t t = 0; t < config.trials; ++t) {
        FaultPlan plan;
        plan.fault =
            static_cast<FaultClass>(rng.nextBelow(kNumFaultClasses));
        // Leave room for the kernels' final capability consumption
        // (CLC + CLD just before BREAK) so a dropped tag is always
        // observed.
        plan.inject_at =
            rng.nextInRange(1, report.clean_instructions - 8);
        plan.pick = rng.next();
        plans.push_back(plan);
    }

    // Replay trials across the pool. Worker 0 reuses the calibration
    // machine; the others lazily fork their own from the checkpoint
    // the first time they claim a trial. Every trial starts with a
    // rollback, so a trial produces the same record on any worker.
    // Records land in trial order.
    unsigned jobs = support::normalizeJobs(config.jobs);
    std::vector<std::unique_ptr<core::Machine>> workers(jobs);
    workers[0] = std::move(calibration);
    report.trials = support::parallelMapOrdered<TrialRecord>(
        plans.size(), jobs, [&](std::size_t index, unsigned worker) {
            if (!workers[worker])
                workers[worker] = checkpoint.fork();
            core::Machine &replay = *workers[worker];
            replay.restoreFrom(checkpoint);
            return runTrial(guest, replay, plans[index], index,
                            report.clean_instructions);
        });

    for (const TrialRecord &record : report.trials)
        report.counts[static_cast<unsigned>(record.applied)]
                     [static_cast<unsigned>(record.outcome)]++;
    return report;
}

} // namespace

const char *
trialOutcomeName(TrialOutcome outcome)
{
    switch (outcome) {
    case TrialOutcome::kDetectedTrap:
        return "detected_trap";
    case TrialOutcome::kDetectedDivergence:
        return "detected_divergence";
    case TrialOutcome::kDetectedAbort:
        return "detected_abort";
    case TrialOutcome::kTimeout:
        return "timeout";
    case TrialOutcome::kMasked:
        return "masked";
    case TrialOutcome::kSilentCorruption:
        return "silent_corruption";
    }
    return "unknown";
}

CampaignReport
runCampaign(const CampaignConfig &config,
            const std::vector<CampaignGuest> &guests)
{
    CampaignReport report;
    report.config = config;
    for (std::size_t i = 0; i < guests.size(); ++i)
        report.guests.push_back(runGuest(config, guests[i], i));
    return report;
}

std::string
CampaignReport::toJson() const
{
    std::string out = "{\n";
    out += "  \"config\": {\"dram_bytes\": " + num(config.dram_bytes) +
           ", \"fast_paths\": " +
           (config.fast_paths ? "true" : "false") +
           ", \"seed\": " + num(config.seed) +
           ", \"trials\": " + num(config.trials) + "},\n";

    GuestReport::OutcomeCounts totals{};
    out += "  \"guests\": [\n";
    for (std::size_t g = 0; g < guests.size(); ++g) {
        const GuestReport &guest = guests[g];
        out += "    {\n";
        out += "      \"clean_cycles\": " + num(guest.clean_cycles) +
               ",\n";
        out += "      \"clean_instructions\": " +
               num(guest.clean_instructions) + ",\n";
        out += "      \"name\": \"" + jsonEscape(guest.name) + "\",\n";
        out += std::string("      \"restore_perturbed\": ") +
               (guest.restore_perturbed ? "true" : "false") + ",\n";

        out += "      \"summary\": {";
        for (unsigned c = 0; c < kNumFaultClasses; ++c) {
            out += std::string(c == 0 ? "" : ", ") + "\"" +
                   faultClassName(static_cast<FaultClass>(c)) +
                   "\": {";
            for (unsigned o = 0; o < kNumTrialOutcomes; ++o) {
                totals[o] += guest.counts[c][o];
                out += std::string(o == 0 ? "" : ", ") + "\"" +
                       trialOutcomeName(
                           static_cast<TrialOutcome>(o)) +
                       "\": " + num(guest.counts[c][o]);
            }
            out += "}";
        }
        out += "},\n";

        out += "      \"trials\": [\n";
        for (std::size_t t = 0; t < guest.trials.size(); ++t) {
            const TrialRecord &trial = guest.trials[t];
            out += "        {\"applied\": \"" +
                   std::string(faultClassName(trial.applied)) +
                   "\", \"detail\": \"" + jsonEscape(trial.detail) +
                   "\", \"index\": " + num(trial.index) +
                   ", \"inject_at\": " + num(trial.inject_at) +
                   ", \"instructions_after\": " +
                   num(trial.instructions_after) +
                   ", \"outcome\": \"" +
                   trialOutcomeName(trial.outcome) +
                   "\", \"requested\": \"" +
                   std::string(faultClassName(trial.requested)) +
                   "\", \"target\": \"" + jsonEscape(trial.target) +
                   "\"}";
            out += t + 1 < guest.trials.size() ? ",\n" : "\n";
        }
        out += "      ]\n";
        out += g + 1 < guests.size() ? "    },\n" : "    }\n";
    }
    out += "  ],\n";

    out += "  \"totals\": {";
    for (unsigned o = 0; o < kNumTrialOutcomes; ++o) {
        out += std::string(o == 0 ? "" : ", ") + "\"" +
               trialOutcomeName(static_cast<TrialOutcome>(o)) +
               "\": " + num(totals[o]);
    }
    out += "}\n";
    out += "}\n";
    return out;
}

} // namespace cheri::check
