/**
 * @file
 * Lightweight named-counter statistics used by the memory hierarchy,
 * models, and benchmark harnesses, plus table-formatting helpers so
 * every bench binary prints its paper table/figure the same way.
 */

#ifndef CHERI_SUPPORT_STATS_H
#define CHERI_SUPPORT_STATS_H

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace cheri::support
{

/** A bag of named monotonically increasing counters. */
class StatSet
{
  public:
    /** Add delta to the named counter (creating it at zero). */
    void
    add(const std::string &name, std::uint64_t delta = 1)
    {
        counters_[name] += delta;
    }

    /** Current value of the named counter (0 if never touched). */
    std::uint64_t
    get(const std::string &name) const
    {
        auto it = counters_.find(name);
        return it == counters_.end() ? 0 : it->second;
    }

    /**
     * Stable reference to a counter slot (created at zero). Hot paths
     * resolve their counters once and bump through the reference,
     * avoiding a string map lookup per event. References stay valid
     * for the StatSet's lifetime: reset() zeroes counters in place
     * instead of erasing them.
     */
    std::uint64_t &counter(const std::string &name)
    {
        return counters_[name];
    }

    /** Reset every counter to zero (slots persist; see counter()). */
    void
    reset()
    {
        for (auto &entry : counters_)
            entry.second = 0;
    }

    /**
     * Overwrite this set's counters with other's values. Slots that
     * exist here but not in other are zeroed in place rather than
     * erased, so counter() references survive (mirrors reset()).
     * Used by the copyStateFrom of every layer (fork, rollback) to
     * copy statistics exactly.
     */
    void
    assignFrom(const StatSet &other)
    {
        for (auto &entry : counters_)
            entry.second = 0;
        for (const auto &entry : other.counters_)
            counters_[entry.first] = entry.second;
    }

    /** Add every counter of other into this set in one ordered pass. */
    void
    merge(const StatSet &other)
    {
        for (const auto &entry : other.counters_) {
            auto it = counters_.emplace_hint(counters_.end(),
                                             entry.first, 0);
            it->second += entry.second;
        }
    }

    /** All counters in name order. */
    const std::map<std::string, std::uint64_t> &
    all() const
    {
        return counters_;
    }

  private:
    std::map<std::string, std::uint64_t> counters_;
};

/**
 * Fixed-column text table used by the bench binaries to render the
 * paper's tables and figure series in a uniform plain-text form.
 */
class TextTable
{
  public:
    /** Create a table with the given column headers. */
    explicit TextTable(std::vector<std::string> headers)
        : headers_(std::move(headers))
    {
    }

    /** Append one row; must have the same arity as the header. */
    void addRow(std::vector<std::string> row);

    /** Render with aligned columns to the stream. */
    void print(std::ostream &os) const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a ratio as a percentage string with one decimal ("12.3%"). */
std::string percent(double fraction);

/** Format an overhead (value/base - 1) as a percentage string. */
std::string overheadPercent(double value, double base);

} // namespace cheri::support

#endif // CHERI_SUPPORT_STATS_H
