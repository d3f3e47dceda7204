/**
 * @file
 * Pinned simulated outputs: the types here, the values in pins.inc.
 * Regenerate the values with
 *   cheri-perfbench --print-pins > perfbench/pins.inc
 * only when a change is meant to alter simulated behaviour; a change
 * that only speeds up the host must leave every value identical.
 */

#ifndef CHERI_PERFBENCH_PINS_H
#define CHERI_PERFBENCH_PINS_H

#include <array>
#include <cstdint>

namespace perfbench
{

/** Simulated counters, in this order. */
enum Counter
{
    kInstructions,
    kCycles,
    kL1iHits,
    kL1iMisses,
    kL1dHits,
    kL1dMisses,
    kL2Hits,
    kL2Misses,
    kDramTransactions,
    kTlbHits,
    kTlbMisses,
    kTagCacheHits,
    kTagCacheMisses,
    kNumCounters,
};

using Counters = std::array<std::uint64_t, kNumCounters>;

/** One emu kernel run or one heap-sweep point. */
struct PointPin
{
    const char *key;
    std::uint64_t checksum;
    Counters counters;
};

/** Every fleet guest, from fork to BREAK. */
struct FleetPin
{
    std::uint64_t instructions;
    std::uint64_t cycles;
    std::uint64_t cow_pages;
    std::uint64_t quanta;
};

#include "pins.inc"

} // namespace perfbench

#endif // CHERI_PERFBENCH_PINS_H
