/**
 * @file
 * Hardware prefetchers for the cache hierarchy. The paper concedes
 * that its worst overhead case — linear traversals of large
 * capability-bearing objects — "would be alleviated with cache
 * prefetching" (Section 8); this subsystem adds that machinery, plus
 * the CHERI-specific variant the tagged memory interface makes
 * possible: a line whose capability tag is set *announces that it
 * holds a capability*, so a prefetcher can decode the base/length it
 * carries on fill and chase the pointer graph ahead of the demand
 * stream.
 *
 * Prefetchers are pure candidate generators: they observe a demand
 * fill (the line address plus the 257-bit line content) and propose
 * physical line addresses to fill next. All state mutation — victim
 * choice, writebacks, counters — happens in Cache::prefetchFill, so
 * prefetched lines ride exactly the same eviction and coherence
 * machinery as demand fills. Decisions depend only on the simulated
 * miss stream (identical across the host's baseline / fast-path /
 * superblock execution modes), never on host state.
 */

#ifndef CHERI_CACHE_PREFETCH_H
#define CHERI_CACHE_PREFETCH_H

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mem/cow_store.h"

namespace cheri::cache
{

/** Which prefetcher (if any) the hierarchy attaches. */
enum class PrefetchPolicy
{
    kNone,     ///< demand-only (the paper's configuration; default)
    kNextLine, ///< physically sequential next-N-lines baseline
    kCapChase, ///< capability pointer-chase on tagged fills
};

/** Stable CLI/JSON name of a policy. */
const char *prefetchPolicyName(PrefetchPolicy policy);

/** Parse a policy name ("none" | "nextline" | "capchase"). */
bool parsePrefetchPolicy(const char *text, PrefetchPolicy &out);

/** Prefetcher configuration carried on HierarchyConfig. */
struct PrefetchConfig
{
    PrefetchPolicy policy = PrefetchPolicy::kNone;
    /** Max prefetch fills issued per demand-fill trigger. */
    unsigned degree = 2;

    bool operator==(const PrefetchConfig &) const = default;
};

/**
 * Side-effect-free virtual-to-physical probe the pointer-chase
 * prefetcher translates through (Tlb::probePrefetch behind a
 * std::function so the cache layer stays independent of the TLB).
 * Returns false on any miss or permission problem — a prefetch is a
 * hint, never a fault. An empty function means "no translation
 * available" and disables pointer chasing.
 */
using PrefetchTranslator =
    std::function<bool(std::uint64_t vaddr, std::uint64_t &paddr)>;

/**
 * Candidate generator interface. Implementations must be stateless
 * across calls (beyond construction-time config): machine forks and
 * rollbacks do not notify the prefetcher, so any per-call state would
 * break replay determinism.
 */
class Prefetcher
{
  public:
    virtual ~Prefetcher() = default;

    /**
     * A demand miss filled line_paddr with the given content; append
     * physical line addresses worth prefetching to out. Proposals may
     * exceed the configured degree — the hierarchy cuts the budget —
     * and need not be bounds-checked against DRAM (the hierarchy
     * drops candidates past the physical limit).
     */
    virtual void proposeAfterFill(std::uint64_t line_paddr,
                                  const mem::TaggedLine &line,
                                  const PrefetchTranslator &translate,
                                  std::vector<std::uint64_t> &out) const = 0;

    /**
     * True when prefetched lines should themselves be fed back into
     * proposeAfterFill (pointer chasing through freshly prefetched
     * capabilities, still under the per-trigger degree budget).
     */
    virtual bool chasesPointers() const = 0;
};

/**
 * Baseline: propose the next `degree` physically sequential lines
 * after the filled one. Needs no translation (physical locality) and
 * is tag-oblivious — the control both the sweep and the lockstep
 * tests compare capchase against.
 */
class NextLinePrefetcher : public Prefetcher
{
  public:
    explicit NextLinePrefetcher(unsigned degree) : degree_(degree) {}

    void proposeAfterFill(std::uint64_t line_paddr,
                          const mem::TaggedLine &line,
                          const PrefetchTranslator &translate,
                          std::vector<std::uint64_t> &out) const override;
    bool chasesPointers() const override { return false; }

  private:
    unsigned degree_;
};

/**
 * Capability pointer-chase: when the filled line's tag is set, the
 * line is a 256-bit capability (Figure 1 layout: word 2 = base,
 * word 3 = length). Decode the pointee region, translate each of its
 * first lines through the side-effect-free probe, and propose them.
 * Untagged fills propose nothing, so the prefetcher is exactly as
 * aggressive as the program's live pointer graph.
 */
class CapChasePrefetcher : public Prefetcher
{
  public:
    explicit CapChasePrefetcher(unsigned degree) : degree_(degree) {}

    void proposeAfterFill(std::uint64_t line_paddr,
                          const mem::TaggedLine &line,
                          const PrefetchTranslator &translate,
                          std::vector<std::uint64_t> &out) const override;
    bool chasesPointers() const override { return true; }

  private:
    unsigned degree_;
};

/** Build the configured prefetcher; nullptr for kNone. */
std::unique_ptr<Prefetcher> makePrefetcher(const PrefetchConfig &config);

} // namespace cheri::cache

#endif // CHERI_CACHE_PREFETCH_H
