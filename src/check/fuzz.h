/**
 * @file
 * Capability-aware instruction fuzzer. Programs are generated as a
 * list of abstract FuzzOps whose parameters (registers, addresses,
 * offsets, sub-opcodes) are fully resolved at generation time, so that
 * assembling a spec — or any sublist of its ops, which is what the
 * ddmin shrinker produces — is a pure deterministic function. The
 * generator is biased toward the CHERI edge cases the paper's
 * guarantees live on: loads and stores at capability bounds
 * boundaries, CIncBase/CSetLen at limits, tag-clearing data stores
 * over in-memory capabilities, CJR/CJALR through sealed or untagged
 * capabilities, LL/SC interleavings, and TLB-exercising strides
 * including pages with the CHERI cap-load/cap-store PTE bits clear.
 *
 * Every generated program runs under the lockstep oracle
 * (check/lockstep.h) at the top and bottom host tiers (superblocks
 * plus both fast paths, then the reference tier); a divergence is
 * shrunk to a minimal op list and dumped as a .s reproducer that
 * round-trips through the text assembler.
 */

#ifndef CHERI_CHECK_FUZZ_H
#define CHERI_CHECK_FUZZ_H

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/hierarchy.h"
#include "check/lockstep.h"
#include "core/machine.h"

namespace cheri::check
{

/** Guest virtual address the fuzz program is loaded at. */
constexpr std::uint64_t kFuzzCodeBase = 0x10000;
/** Read-write arena c1 covers (tagged lines live here). */
constexpr std::uint64_t kFuzzArenaBase = 0x100000;
constexpr std::uint64_t kFuzzArenaLen = 0x20000;
/** Page with the CHERI cap-load/cap-store PTE bits clear. */
constexpr std::uint64_t kFuzzNoCapPage = 0x140000;
/** Read-only page (stores fault with TLB-modified). */
constexpr std::uint64_t kFuzzRoPage = 0x141000;
/** Large region for TLB-stride accesses. */
constexpr std::uint64_t kFuzzStrideBase = 0x200000;
constexpr std::uint64_t kFuzzStrideLen = 0x40000;
/** First unmapped address above the stride region. */
constexpr std::uint64_t kFuzzUnmapped = 0x260000;

/**
 * One abstract fuzz operation. Parameters a..d are kind-specific but
 * always concrete (register numbers, absolute addresses, resolved
 * offsets), so assembly needs no randomness.
 */
struct FuzzOp
{
    enum class Kind
    {
        kAluImm,
        kAluReg,
        kShift,
        kMulDiv,
        kLegacyLoad,
        kLegacyStore,
        kCapLoad,      ///< clb..cld through a capability
        kCapStore,     ///< csb..csd through a capability
        kCapLoadCap,   ///< CLC
        kCapStoreCap,  ///< CSC
        kTagClearStore,///< data store over a (potentially) tagged line
        kDerive,       ///< cincbase/csetlen/candperm/cfromptr/...
        kPermQuery,    ///< cgetbase/cgetlen/cgettag/cgetperm/...
        kSealUnseal,
        kBranch,       ///< forward conditional branch over 1..3 ops
        kCapBranch,    ///< cbtu/cbts over 1..3 ops
        kCapJumpTrap,  ///< cjr through sealed/untagged/no-exec cap
        kLlSc,         ///< lld/scd with optional interleaved store
        kTlbStride,    ///< strided loads across the big region
        kPtrRoundTrip, ///< ctoptr -> cfromptr remint, optionally
                       ///< ccleartag-poisoned or dereferenced — the
                       ///< managed-runtime GC's interop hot path
    };

    Kind kind = Kind::kAluImm;
    std::uint64_t a = 0, b = 0, c = 0, d = 0;
};

/** A complete generated program: seeded registers plus the op list. */
struct FuzzSpec
{
    std::uint64_t seed = 0;
    /** Initial values loaded into t0..t7 by the preamble. */
    std::array<std::uint64_t, 8> reg_seed{};
    std::vector<FuzzOp> ops;
};

/** Generate the spec for one seed (24..48 ops, biased as above). */
FuzzSpec generateSpec(std::uint64_t seed);

/**
 * Assemble a spec into a loadable program: a fixed preamble that
 * derives the capability cast (arena c1, sub-range c2, sealed c3,
 * seal-authority c4, untagged c5, load-only c6, restricted-page c13,
 * stride c14, and a capability stored at arena line 0), the ops, and
 * a final BREAK. Pure function of the spec.
 */
std::vector<std::uint32_t> assembleFuzzProgram(const FuzzSpec &spec);

/** Outcome of running one program under the oracle at both tiers. */
struct FuzzRunResult
{
    bool diverged = false;
    /** The diverging pass ran with the fast paths (kSuperblock). */
    bool fast_path = false;
    std::string divergence;
};

/** The MachineConfig every fuzz pass runs under: 4 MB DRAM, and a
 *  128-line predecode cache and 128-entry superblock cache sized to
 *  fuzz programs (DESIGN.md §8). */
core::MachineConfig fuzzMachineConfig();

/** How one program runs under the oracle. */
struct FuzzRunConfig
{
    /** Arm the hierarchy's skip-tag-clear fault (data stores stop
     *  clearing tags) for oracle self-tests. */
    bool suppress_tag_clear = false;
    std::uint64_t max_instructions = 20000;
    /** Hardware prefetcher configuration for every fuzz machine
     *  (both oracle passes; default off). The lockstep oracle then
     *  doubles as a prefetch-transparency check: prefetched fills
     *  must never change architectural state. */
    cache::PrefetchConfig prefetch;
};

/**
 * Run an assembled program in lockstep against RefCpu twice, each
 * time on a fresh fuzzMachineConfig() machine: first at
 * HostTier::kSuperblock, then at HostTier::kReference. Returns the
 * first divergence (if any).
 */
FuzzRunResult runFuzzWords(const std::vector<std::uint32_t> &words,
                           const FuzzRunConfig &config = {});

/**
 * ddmin-style shrink: repeatedly delete chunks of ops while the
 * program still diverges under config. Returns the minimal op list
 * found (the input spec's ops if nothing can be removed).
 */
std::vector<FuzzOp> shrinkOps(const FuzzSpec &spec,
                              const FuzzRunConfig &config);

/**
 * Render a .s reproducer: header comments (seed, divergence) plus one
 * ".word 0x... # addr: disasm" line per instruction. The output
 * round-trips through isa::assembleText at kFuzzCodeBase.
 */
std::string dumpReproducer(const std::vector<std::uint32_t> &words,
                           std::uint64_t seed,
                           const std::string &divergence);

/**
 * One whole fuzz sweep: the seed loop the cheri-fuzz CLI runs, hoisted
 * into the library so it can (a) fan seeds out across a worker pool
 * and (b) be byte-compared between serial and parallel runs in tests.
 */
struct FuzzCampaignConfig : FuzzRunConfig
{
    std::uint64_t seeds = 25;
    std::uint64_t start_seed = 1;
    bool shrink = false;
    /** Omit per-seed "ok" lines (the CLI's --quiet). */
    bool quiet = false;
    /** Worker threads; 0 = hardware concurrency, 1 = serial. */
    unsigned jobs = 1;
};

/** What one seed contributed to the sweep. */
struct FuzzSeedOutcome
{
    std::uint64_t seed = 0;
    bool diverged = false;
    /**
     * Exactly the text the CLI prints for this seed (ok line,
     * divergence report, shrink trace, reproducer) — empty for a
     * clean seed under quiet. Captured per seed so the parallel
     * scheduler can emit seeds in order, byte-identical to a serial
     * run.
     */
    std::string text;
};

/** Sweep results, ordered by seed. */
struct FuzzCampaignResult
{
    std::uint64_t diverged_count = 0;
    std::vector<FuzzSeedOutcome> outcomes;

    /** The trailing "cheri-fuzz: N/M seed(s) diverged" line. */
    std::string summaryLine() const;
    /** Full report: every seed's text in seed order + the summary. */
    std::string text() const;
};

/**
 * Run the sweep. Each seed is an independent job owning a private
 * Machine/RefCpu pair; config.jobs only changes wall-clock, never the
 * returned bytes (results are merged by seed index).
 */
FuzzCampaignResult runFuzzSeeds(const FuzzCampaignConfig &config);

} // namespace cheri::check

#endif // CHERI_CHECK_FUZZ_H
