/**
 * @file
 * cheri-fuzz — capability-aware differential fuzzer. Generates seeded
 * guest programs biased toward CHERI edge cases (check/fuzz.h) and
 * runs each under the lockstep oracle (check/lockstep.h) at the
 * superblock tier and at the reference tier. Any divergence is
 * optionally shrunk to a minimal op list and dumped as a .s
 * reproducer.
 *
 * Usage:
 *   cheri-fuzz [options]
 *     --seeds N            number of seeds to run (default 25, or the
 *                          CHERI_FUZZ_SEEDS environment variable)
 *     --start-seed N       first seed (default 1)
 *     --jobs N             worker threads (default: hardware
 *                          concurrency; 1 = serial). Output is
 *                          byte-identical for any N: seeds run on
 *                          private machines and are merged in order.
 *     --shrink             ddmin-shrink a failing program before
 *                          dumping the reproducer
 *     --inject-fault tag-clear
 *                          arm the hierarchy's skip-tag-clear fault:
 *                          the oracle must catch it (self-test)
 *     --prefetch none|nextline|capchase
 *                          hardware prefetcher in every fuzz machine
 *                          (default none); the oracle then checks
 *                          that prefetched fills never change
 *                          architectural state
 *     --expect-divergence  exit 0 iff a divergence WAS found
 *     --quiet              only print the summary line
 *
 * Exit codes: 0 success, 1 unexpected (non-)divergence, 2 usage.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "check/fuzz.h"
#include "support/parallel.h"
#include "support/parse.h"

using namespace cheri;

int
main(int argc, char **argv)
{
    check::FuzzCampaignConfig config;
    config.jobs = 0; // hardware concurrency unless --jobs given
    bool expect_divergence = false;

    if (const char *env = std::getenv("CHERI_FUZZ_SEEDS"))
        config.seeds =
            support::parseU64OrFatal(env, "CHERI_FUZZ_SEEDS");

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--seeds") == 0 && i + 1 < argc) {
            config.seeds =
                support::parseU64OrFatal(argv[++i], "--seeds");
        } else if (std::strcmp(argv[i], "--start-seed") == 0 &&
                   i + 1 < argc) {
            config.start_seed =
                support::parseU64OrFatal(argv[++i], "--start-seed");
        } else if (std::strcmp(argv[i], "--jobs") == 0 &&
                   i + 1 < argc) {
            config.jobs = support::parseJobsOrFatal(argv[++i],
                                                    "--jobs");
        } else if (std::strcmp(argv[i], "--shrink") == 0) {
            config.shrink = true;
        } else if (std::strcmp(argv[i], "--inject-fault") == 0 &&
                   i + 1 < argc) {
            const char *kind = argv[++i];
            if (std::strcmp(kind, "tag-clear") == 0) {
                config.suppress_tag_clear = true;
            } else {
                std::fprintf(stderr, "unknown fault kind %s\n", kind);
                return 2;
            }
        } else if (std::strcmp(argv[i], "--prefetch") == 0 &&
                   i + 1 < argc) {
            const char *name = argv[++i];
            if (!cache::parsePrefetchPolicy(
                    name, config.prefetch.policy)) {
                std::fprintf(stderr,
                             "unknown prefetch policy %s "
                             "(none|nextline|capchase)\n",
                             name);
                return 2;
            }
        } else if (std::strcmp(argv[i], "--expect-divergence") == 0) {
            expect_divergence = true;
        } else if (std::strcmp(argv[i], "--quiet") == 0) {
            config.quiet = true;
        } else {
            std::fprintf(
                stderr,
                "usage: cheri-fuzz [--seeds N] [--start-seed N] "
                "[--jobs N] [--shrink] [--inject-fault tag-clear] "
                "[--prefetch none|nextline|capchase] "
                "[--expect-divergence] [--quiet]\n");
            return 2;
        }
    }

    check::FuzzCampaignResult result = check::runFuzzSeeds(config);
    std::fputs(result.text().c_str(), stdout);

    if (expect_divergence)
        return result.diverged_count > 0 ? 0 : 1;
    return result.diverged_count == 0 ? 0 : 1;
}
