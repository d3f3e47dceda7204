/**
 * @file
 * The fault-injection campaign engine. For each guest kernel the
 * engine loads one checkpoint machine that never runs, measures a
 * clean watchdog-bounded run on a fork of it, proves that rolling
 * back to the checkpoint (core::Machine::restoreFrom) alone does not
 * perturb the instruction/cycle counters, and then replays N trials
 * from the checkpoint: roll back, run a clean prefix in lockstep
 * against the reference CPU, apply one planned fault
 * (check/fault_plan.h) at a seeded retired-instruction count, and
 * keep comparing until the pair stops.
 *
 * Every trial is classified:
 *  - detected_trap:       the fast CPU raised a trap the clean
 *                         reference did not (a CHERI capability or
 *                         TLB check caught the corruption);
 *  - detected_divergence: architectural state visibly diverged from
 *                         the reference without a trap;
 *  - detected_abort:      the corruption tripped an internal state-
 *                         integrity check (support::guestFault) and
 *                         the guest-failure barrier unwound the trial
 *                         cleanly instead of killing the campaign;
 *  - timeout:             the corrupted guest blew its instruction
 *                         budget (the watchdog fired);
 *  - masked:              the guest completed and final DRAM + tags
 *                         match the reference bit-for-bit;
 *  - silent_corruption:   the guest completed with clean
 *                         architectural state but the final memory
 *                         sweep found lingering corruption.
 *
 * All randomness flows through one seeded Xoshiro256 per guest, and
 * the JSON report has a fixed key order with no timestamps, so a
 * campaign is reproducible byte-for-byte.
 */

#ifndef CHERI_CHECK_FAULT_CAMPAIGN_H
#define CHERI_CHECK_FAULT_CAMPAIGN_H

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "check/fault_plan.h"
#include "core/machine.h"

namespace cheri::check
{

/** One guest kernel the campaign can run. */
struct CampaignGuest
{
    std::string name;
    /** Map memory, load the program, and reset the CPU to its entry. */
    std::function<void(core::Machine &)> load;
};

/** Campaign knobs. */
struct CampaignConfig
{
    /** Injection trials per guest. */
    std::uint64_t trials = 100;
    std::uint64_t seed = 1;
    std::uint64_t dram_bytes = 8 * 1024 * 1024;
    /** Build the fast machine at HostTier::kSuperblock; false builds
     *  it at HostTier::kReference. */
    bool fast_paths = true;
    /** Watchdog budget for the clean run (retired instructions). */
    std::uint64_t clean_budget = 100'000'000;
    /**
     * Worker threads replaying trials (0 = hardware concurrency,
     * 1 = serial). Each worker owns a private machine forked from the
     * guest's checkpoint and rolls it back to the checkpoint before
     * every trial, and trial plans are drawn serially up front, so the
     * report — including toJson(), which deliberately omits this
     * knob — is byte-identical for any value.
     */
    unsigned jobs = 1;
};

/** How one trial ended (see file comment). */
enum class TrialOutcome
{
    kDetectedTrap,
    kDetectedDivergence,
    kDetectedAbort,
    kTimeout,
    kMasked,
    kSilentCorruption,
};

constexpr unsigned kNumTrialOutcomes = 6;

/** Stable lower-case name used in reports and JSON keys. */
const char *trialOutcomeName(TrialOutcome outcome);

/** One classified injection. */
struct TrialRecord
{
    std::uint64_t index = 0;
    FaultClass requested = FaultClass::kDramBitFlip;
    FaultClass applied = FaultClass::kDramBitFlip;
    std::uint64_t inject_at = 0;
    std::string target;
    TrialOutcome outcome = TrialOutcome::kMasked;
    /** Instructions the pair retired after the injection. */
    std::uint64_t instructions_after = 0;
    /** First line of the divergence/trap/sweep report, if any. */
    std::string detail;
};

/** Per-guest results. */
struct GuestReport
{
    std::string name;
    std::uint64_t clean_instructions = 0;
    std::uint64_t clean_cycles = 0;
    /**
     * True when rolling the calibration machine back to the pristine
     * checkpoint and re-running the guest did NOT reproduce the clean
     * run's instruction/cycle counters and checksum — i.e. the
     * rollback itself perturbed the machine. Must be false everywhere.
     */
    bool restore_perturbed = false;
    std::vector<TrialRecord> trials;

    /** outcome counts for one fault class, indexed by TrialOutcome. */
    using OutcomeCounts = std::array<std::uint64_t, kNumTrialOutcomes>;
    /** counts[class][outcome], indexed by FaultClass (applied). */
    std::array<OutcomeCounts, kNumFaultClasses> counts{};
};

/** Whole-campaign results. */
struct CampaignReport
{
    CampaignConfig config;
    std::vector<GuestReport> guests;

    /**
     * Deterministic JSON: objects use a fixed (alphabetical) key
     * order, arrays follow trial order, no timestamps or host state.
     * Two runs with the same config are byte-identical.
     */
    std::string toJson() const;
};

/** Run the campaign over the given guests (in order). */
CampaignReport runCampaign(const CampaignConfig &config,
                           const std::vector<CampaignGuest> &guests);

} // namespace cheri::check

#endif // CHERI_CHECK_FAULT_CAMPAIGN_H
