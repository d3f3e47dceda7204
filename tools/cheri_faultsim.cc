/**
 * @file
 * cheri-faultsim — the fault-injection campaign driver. Checkpoints
 * each Olden guest kernel once (a loaded machine that never runs),
 * replays N seeded injections per guest, each on a machine rolled
 * back to the checkpoint, under the lockstep oracle, and classifies every
 * trial as detected_trap / detected_divergence / detected_abort /
 * timeout / masked / silent_corruption (see check/fault_campaign.h).
 * Trials run behind the guest-failure barrier (support::PanicScope),
 * so a corruption that trips an internal integrity check is recorded
 * as detected_abort instead of killing the whole campaign. The JSON
 * report is reproducible byte-for-byte for a fixed seed.
 *
 * Usage:
 *   cheri-faultsim [options]
 *     --trials N     injections per guest (default 25)
 *     --seed N       campaign seed (default 1)
 *     --jobs N       worker threads replaying trials (default:
 *                    hardware concurrency; 1 = serial). The report is
 *                    byte-identical for any N: plans are drawn up
 *                    front, each worker rolls a private fork back to
 *                    the checkpoint before every trial, and records
 *                    merge by trial index.
 *     --guests LIST  comma-separated subset of
 *                    treeadd,bisort,mst,em3d,vm (default all
 *                    Olden kernels; vm is opt-in)
 *     --slow         build the fast machine at the reference tier
 *                    (no host fast paths)
 *     --json PATH    write the JSON report to PATH ('-' for stdout)
 *     --quiet        suppress the summary table
 *     --selftest     run the campaign twice and verify: byte-identical
 *                    reports, zero rollback perturbation, and
 *                    100% of cache_tag_drop injections detected;
 *                    nonzero exit on any violation
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "check/fault_campaign.h"
#include "support/parallel.h"
#include "support/parse.h"
#include "workloads/guest_olden.h"
#include "workloads/vm_guest.h"

using namespace cheri;

namespace
{

std::vector<check::CampaignGuest>
guestsByNames(const std::vector<std::string> &names)
{
    std::vector<check::CampaignGuest> guests;
    for (const std::string &name : names) {
        workloads::GuestProgram prog;
        if (name == "treeadd")
            prog = workloads::guestTreeadd(5, 2);
        else if (name == "bisort")
            prog = workloads::guestBisort(48);
        else if (name == "mst")
            prog = workloads::guestMst(12);
        else if (name == "em3d")
            prog = workloads::guestEm3d(10, 3, 2);
        else if (name == "vm")
            prog = workloads::guestVm(workloads::VmConfig{});
        else {
            std::fprintf(stderr, "cheri-faultsim: unknown guest '%s'\n",
                         name.c_str());
            std::exit(2);
        }
        guests.push_back(
            {name, [prog](core::Machine &machine) {
                 workloads::loadGuestProgram(machine, prog);
             }});
    }
    return guests;
}

std::vector<std::string>
splitCommas(const std::string &list)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= list.size()) {
        std::size_t comma = list.find(',', start);
        if (comma == std::string::npos)
            comma = list.size();
        if (comma > start)
            out.push_back(list.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

void
printSummary(const check::CampaignReport &report)
{
    for (const check::GuestReport &guest : report.guests) {
        std::printf("%-8s clean=%llu insts  restore_perturbed=%s\n",
                    guest.name.c_str(),
                    static_cast<unsigned long long>(
                        guest.clean_instructions),
                    guest.restore_perturbed ? "YES" : "no");
        for (unsigned c = 0; c < check::kNumFaultClasses; ++c) {
            std::uint64_t total = 0;
            for (unsigned o = 0; o < check::kNumTrialOutcomes; ++o)
                total += guest.counts[c][o];
            if (total == 0)
                continue;
            std::printf("  %-16s", check::faultClassName(
                                       static_cast<check::FaultClass>(c)));
            for (unsigned o = 0; o < check::kNumTrialOutcomes; ++o) {
                if (guest.counts[c][o] == 0)
                    continue;
                std::printf(" %s=%llu",
                            check::trialOutcomeName(
                                static_cast<check::TrialOutcome>(o)),
                            static_cast<unsigned long long>(
                                guest.counts[c][o]));
            }
            std::printf("\n");
        }
    }
}

/** cache_tag_drop trials that were NOT caught by trap or divergence. */
std::uint64_t
undetectedTagDrops(const check::CampaignReport &report)
{
    std::uint64_t bad = 0;
    for (const check::GuestReport &guest : report.guests) {
        const auto &row = guest.counts[static_cast<unsigned>(
            check::FaultClass::kCacheTagDrop)];
        for (unsigned o = 0; o < check::kNumTrialOutcomes; ++o) {
            auto outcome = static_cast<check::TrialOutcome>(o);
            if (outcome != check::TrialOutcome::kDetectedTrap &&
                outcome != check::TrialOutcome::kDetectedDivergence &&
                outcome != check::TrialOutcome::kDetectedAbort)
                bad += row[o];
        }
    }
    return bad;
}

bool
anyRestorePerturbed(const check::CampaignReport &report)
{
    for (const check::GuestReport &guest : report.guests)
        if (guest.restore_perturbed)
            return true;
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    check::CampaignConfig config;
    config.trials = 25;
    std::vector<std::string> names = {"treeadd", "bisort", "mst",
                                      "em3d"};
    const char *json_path = nullptr;
    bool quiet = false;
    bool selftest = false;

    config.jobs = 0; // hardware concurrency unless --jobs given

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--trials") == 0 && i + 1 < argc) {
            config.trials =
                support::parseU64OrFatal(argv[++i], "--trials");
        } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
            config.seed = support::parseU64OrFatal(argv[++i], "--seed");
        } else if (std::strcmp(argv[i], "--jobs") == 0 &&
                   i + 1 < argc) {
            config.jobs = support::parseJobsOrFatal(argv[++i],
                                                    "--jobs");
        } else if (std::strcmp(argv[i], "--guests") == 0 &&
                   i + 1 < argc) {
            names = splitCommas(argv[++i]);
        } else if (std::strcmp(argv[i], "--slow") == 0) {
            config.fast_paths = false;
        } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[++i];
        } else if (std::strcmp(argv[i], "--quiet") == 0) {
            quiet = true;
        } else if (std::strcmp(argv[i], "--selftest") == 0) {
            selftest = true;
        } else {
            std::fprintf(stderr,
                         "usage: cheri-faultsim [--trials N] [--seed N] "
                         "[--jobs N] [--guests a,b] [--slow] "
                         "[--json PATH] [--quiet] [--selftest]\n");
            return 2;
        }
    }
    if (names.empty()) {
        std::fprintf(stderr, "cheri-faultsim: no guests selected\n");
        return 2;
    }

    std::vector<check::CampaignGuest> guests = guestsByNames(names);
    check::CampaignReport report =
        check::runCampaign(config, guests);
    std::string json = report.toJson();

    int exit_code = 0;
    if (selftest) {
        check::CampaignReport second =
            check::runCampaign(config, guests);
        if (second.toJson() != json) {
            std::fprintf(stderr, "cheri-faultsim: selftest FAILED: "
                                 "reports differ between runs\n");
            exit_code = 1;
        }
        if (anyRestorePerturbed(report)) {
            std::fprintf(stderr,
                         "cheri-faultsim: selftest FAILED: "
                         "the rollback perturbed a clean run\n");
            exit_code = 1;
        }
        std::uint64_t missed = undetectedTagDrops(report);
        if (missed != 0) {
            std::fprintf(stderr,
                         "cheri-faultsim: selftest FAILED: %llu "
                         "cache_tag_drop injection(s) undetected\n",
                         static_cast<unsigned long long>(missed));
            exit_code = 1;
        }
        if (exit_code == 0 && !quiet)
            std::printf("selftest passed: deterministic report, no "
                        "restore perturbation, all tag drops "
                        "detected\n");
    }

    if (json_path != nullptr) {
        if (std::strcmp(json_path, "-") == 0) {
            std::fputs(json.c_str(), stdout);
        } else {
            std::ofstream out(json_path, std::ios::binary);
            if (!out) {
                std::fprintf(stderr,
                             "cheri-faultsim: cannot write %s\n",
                             json_path);
                return 2;
            }
            out << json;
        }
    }
    if (!quiet)
        printSummary(report);
    return exit_code;
}
