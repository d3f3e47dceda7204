#include "core/machine.h"

#include "support/logging.h"

namespace cheri::core
{

Machine::Machine(MachineConfig config)
    : Machine(config,
              std::make_shared<mem::CowStore>(config.dram_bytes))
{
}

Machine::Machine(const MachineConfig &config,
                 std::shared_ptr<mem::CowStore> store)
    : config_(config), store_(std::move(store)),
      tag_manager_(*store_, config.tag_cache),
      hierarchy_(tag_manager_, config.caches), page_table_(),
      tlb_(page_table_, config.tlb),
      cpu_(hierarchy_, tlb_, config.timing, config.accel)
{
    // Prefetch wiring (body, not init list: the hierarchy is
    // constructed before the TLB). Runs for forks too — the child's
    // probe must consult the child's own TLB.
    hierarchy_.setPrefetchTranslator(
        [this](std::uint64_t vaddr, std::uint64_t &paddr) {
            return tlb_.probePrefetch(vaddr, paddr);
        });
    hierarchy_.setPrefetchPhysLimit(config_.dram_bytes);
}

std::unique_ptr<Machine>
Machine::fork() const
{
    // DRAM and tags come with the forked store. Building over a fresh
    // store and adopting would first point every slot at a zero page
    // of its own, only to overwrite them all.
    std::unique_ptr<Machine> child(
        new Machine(config_, store_->fork()));
    child->copyStateFrom(*this);
    return child;
}

void
Machine::restoreFrom(const Machine &checkpoint)
{
    // Each layer copies state sized by its own config, so a mismatch
    // would leave, say, a 256-entry TLB holding 400 translations.
    if (config_ != checkpoint.config_)
        support::panic("Machine::restoreFrom: the checkpoint was built "
                       "from a different MachineConfig");
    store_->adopt(*checkpoint.store_);
    copyStateFrom(checkpoint);
}

void
Machine::copyStateFrom(const Machine &other)
{
    tag_manager_.copyStateFrom(other.tag_manager_);
    hierarchy_.copyStateFrom(other.hierarchy_);
    page_table_ = other.page_table_;
    tlb_.copyStateFrom(other.tlb_);
    // Last: drops this core's host accelerators, including LineHandle
    // memos into the cache ways just overwritten.
    cpu_.copyStateFrom(other.cpu_);
    next_frame_ = other.next_frame_;
}

support::StatSet
Machine::counters() const
{
    support::StatSet out = hierarchy_.collectStats();
    out.add("instructions", cpu_.totalInstructions());
    out.add("cycles", cpu_.totalCycles());
    out.merge(cpu_.stats());
    out.merge(tlb_.stats());
    return out;
}

std::optional<std::uint64_t>
Machine::tryAllocFrame()
{
    std::uint64_t frames = config_.dram_bytes / tlb::kPageBytes;
    if (next_frame_ >= frames)
        return std::nullopt;
    return next_frame_++;
}

std::uint64_t
Machine::allocFrame()
{
    std::optional<std::uint64_t> pfn = tryAllocFrame();
    if (!pfn) {
        support::fatal("out of physical frames (%llu allocated, DRAM "
                       "is %llu MB)",
                       static_cast<unsigned long long>(next_frame_),
                       static_cast<unsigned long long>(
                           config_.dram_bytes / (1024 * 1024)));
    }
    return *pfn;
}

bool
Machine::tryMapRange(std::uint64_t vaddr, std::uint64_t bytes,
                     tlb::PteFlags flags)
{
    std::uint64_t first_vpn = vaddr / tlb::kPageBytes;
    std::uint64_t last_vpn = (vaddr + bytes - 1) / tlb::kPageBytes;
    for (std::uint64_t vpn = first_vpn; vpn <= last_vpn; ++vpn) {
        if (page_table_.lookup(vpn))
            continue;
        std::optional<std::uint64_t> pfn = tryAllocFrame();
        if (!pfn)
            return false;
        page_table_.map(vpn, *pfn, flags);
    }
    return true;
}

void
Machine::mapRange(std::uint64_t vaddr, std::uint64_t bytes,
                  tlb::PteFlags flags)
{
    if (!tryMapRange(vaddr, bytes, flags)) {
        support::fatal("cannot map [0x%llx, +0x%llx): out of physical "
                       "frames",
                       static_cast<unsigned long long>(vaddr),
                       static_cast<unsigned long long>(bytes));
    }
}

void
Machine::loadProgram(std::uint64_t vaddr,
                     const std::vector<std::uint32_t> &words)
{
    if (vaddr % 4 != 0)
        support::fatal("program load address 0x%llx not word aligned",
                       static_cast<unsigned long long>(vaddr));
    mapRange(vaddr, words.size() * 4);
    for (std::size_t i = 0; i < words.size(); ++i) {
        std::uint64_t va = vaddr + i * 4;
        auto pte = page_table_.lookup(va / tlb::kPageBytes);
        std::uint64_t paddr =
            pte->pfn * tlb::kPageBytes + va % tlb::kPageBytes;
        store_->write(paddr, 4, words[i]);
    }
    // The words went into DRAM below the hierarchy's (and the decode
    // cache's) view; any predecoded lines for recycled frames are now
    // stale.
    cpu_.invalidateDecodeCache();
}

void
Machine::reset(std::uint64_t entry_pc)
{
    cpu_.setPc(entry_pc);
    cpu_.caps() = cap::CapRegFile(); // all registers almighty
}

} // namespace cheri::core
