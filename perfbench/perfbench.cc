/**
 * @file
 * cheri-perfbench: one process that runs one named workload of the
 * repository benchmark through the libraries' public APIs, checks
 * every output, and prints its metrics. See perfbench/README.md for
 * the workloads, the metrics and the layer map.
 *
 *   cheri-perfbench --workload emu|fleet|oracle|heap-sweep --seed N
 *                   --seconds S --trace 0|1 [--trace-out PATH]
 *   cheri-perfbench --print-pins        regenerate pins.inc
 *   cheri-perfbench --fleet-totals N    fleet totals of guests [0, N)
 *
 * Untraced runs (--trace 0) measure the end-to-end metrics. Traced
 * runs (--trace 1) alternate untraced and traced rounds over the same
 * inputs, record spans around every call into a module, and report
 * the per-layer metrics plus the tracing overhead.
 *
 * The last line of standard output is the result object
 * {"correct", "attempted", "failed", "metrics"}; the line before it
 * carries every metric under the names the README uses, with units
 * and sample counts. Exit code 0 on a completed run (check
 * "correct"), 2 on bad usage.
 */

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "check/fuzz.h"
#include "check/lockstep.h"
#include "core/machine.h"
#include "isa/assembler.h"
#include "pins.h"
#include "support/logging.h"
#include "support/rng.h"
#include "support/scheduler.h"
#include "trace.h"
#include "workloads/experiments.h"
#include "workloads/guest_olden.h"
#include "workloads/timing_context.h"
#include "workloads/workload.h"

using namespace cheri;
using perfbench::Counters;
using perfbench::nowNs;
using perfbench::ScopedSpan;
using perfbench::SpanName;

namespace
{

// ---------------------------------------------------------------------
// Options

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_out;
};

// Set-up is repeated and its median reported: at least this many
// repetitions, then more until this much host time has gone by.
constexpr unsigned kMinSetupReps = 5;
constexpr unsigned kMaxSetupReps = 100;
constexpr std::uint64_t kSetupBudgetNs = 1'000'000'000;

// A single-threaded run moves to the next allowed CPU this often.
constexpr std::uint64_t kCpuStayNs = 250'000'000;

// fleet: cheri-serve's default clean fleet shape (kernel, quantum,
// warm-up, retry budget), served in batches of kFleetBatch guests so
// that a run holds a few dozen batch rates.
constexpr std::uint64_t kFleetBatch = 250;
constexpr unsigned kFleetWorkers = 4;
constexpr std::uint64_t kFleetQuantum = 500;
constexpr std::uint64_t kFleetWarmup = 256;
constexpr unsigned kFleetRetryBudget = 3;

// oracle: seeds per round (a traced round repeats the untraced one).
constexpr std::uint64_t kOracleRound = 8;
constexpr std::uint64_t kOracleSeedStride = 1'000'000;

// heap-sweep: Figure 5's heap sizes, thinned to keep one point below
// the 16 KB L1, points between the 64 KB L2 and the 1 MB TLB reach,
// and the 1024 KB end of the sweep. One pass runs every point and
// takes longer than a run's seconds (mst at 1024 KB alone costs
// several host seconds), so a run is whole passes: the grid never
// changes with the seed, only its order does. A run makes at least
// kHeapSweepPasses passes, so each point's fastest time comes from
// passes tens of seconds apart, and within a pass a point repeats
// until it has taken kPointMinSeconds.
const std::vector<std::uint64_t> kHeapKb = {4, 64, 256, 1024};
constexpr std::uint64_t kHeapSweepPasses = 2;
constexpr double kPointMinSeconds = 0.1;
constexpr unsigned kPointMaxReps = 64;

// ---------------------------------------------------------------------
// Statistics

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Linear-interpolated percentile, p in [0, 100]. */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/**
 * The smallest sample. The host shares its cores with other tenants
 * whose bursts slow everything on it by up to half, for seconds or a
 * whole run; interference only ever slows a request. Across runs the
 * fastest request time of a kind spreads far less than its median or
 * its tenth percentile, so the end-to-end rates rest on it, with the
 * sample count, while medians and p99s are reported beside them.
 */
double
fastest(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/** The p99 when at least ten samples lie beyond it, else 0. */
double
p99IfResolved(const std::vector<double> &v)
{
    return v.size() >= 1000 ? percentile(v, 99.0) : 0.0;
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / static_cast<double>(v.size()));
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

// ---------------------------------------------------------------------
// Simulated counters

constexpr const char *kCounterNames[perfbench::kNumCounters] = {
    "instructions", "cycles",           "l1i.hits",
    "l1i.misses",   "l1d.hits",         "l1d.misses",
    "l2.hits",      "l2.misses",        "dram.transactions",
    "tlb.hits",     "tlb.misses",       "tag.cache_hits",
    "tag.cache_misses",
};

/** Cache, DRAM, TLB and tag-cache counters of a machine; the caller
 *  fills instructions and cycles (a TimingContext keeps its own). */
Counters
readCounters(core::Machine &machine, std::uint64_t instructions,
             std::uint64_t cycles)
{
    Counters c{};
    support::StatSet stats = machine.memory().collectStats();
    for (int i = perfbench::kL1iHits; i <= perfbench::kDramTransactions;
         ++i)
        c[i] = stats.get(kCounterNames[i]);
    c[perfbench::kTlbHits] = machine.tlb().stats().get("tlb.hits");
    c[perfbench::kTlbMisses] = machine.tlb().stats().get("tlb.misses");
    c[perfbench::kTagCacheHits] = stats.get("tag.cache_hits");
    c[perfbench::kTagCacheMisses] = stats.get("tag.cache_misses");
    c[perfbench::kInstructions] = instructions;
    c[perfbench::kCycles] = cycles;
    return c;
}

Counters
cpuCounters(core::Machine &machine)
{
    return readCounters(machine, machine.cpu().totalInstructions(),
                        machine.cpu().totalCycles());
}

Counters
minus(const Counters &a, const Counters &b)
{
    Counters d{};
    for (std::size_t i = 0; i < d.size(); ++i)
        d[i] = a[i] - b[i];
    return d;
}

void
accumulate(Counters &into, const Counters &c)
{
    for (std::size_t i = 0; i < into.size(); ++i)
        into[i] += c[i];
}

std::uint64_t
dataRefs(const Counters &c)
{
    return c[perfbench::kL1dHits] + c[perfbench::kL1dMisses];
}

const perfbench::PointPin *
findPin(const perfbench::PointPin *begin, const perfbench::PointPin *end,
        const std::string &key)
{
    for (const perfbench::PointPin *p = begin; p != end; ++p)
        if (key == p->key)
            return p;
    return nullptr;
}

// ---------------------------------------------------------------------
// Report

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::uint64_t samples = 0;
};

/** Per-layer metrics, in the order BENCHMARK.json lists them. A layer
 *  a workload bypasses reads 0. */
const std::vector<std::pair<const char *, const char *>> kLayerMetrics = {
    {"core.run_ns_per_inst", "ns"},
    {"core.sb_inst_frac", "frac"},
    {"core.sb_guard_fail_frac", "frac"},
    {"core.sb_minted", "count/req"},
    {"core.fork_us", "us"},
    {"core.fork_p99_us", "us"},
    {"core.teardown_us", "us"},
    {"core.teardown_p99_us", "us"},
    {"core.machine_new_us", "us"},
    {"core.machine_new_p99_us", "us"},
    {"core.sim_cpi", "cycles/inst"},
    {"support.sched_busy_frac", "frac"},
    {"support.quanta_per_guest", "count"},
    {"mem.cow_faults_per_guest", "count"},
    {"mem.tag_cache_hit_frac", "frac"},
    {"workloads.load_us", "us"},
    {"workloads.ns_per_ref", "ns"},
    {"workloads.cheri_overhead_pct", "%"},
    {"check.gen_us", "us"},
    {"check.lockstep_setup_us", "us"},
    {"check.lockstep_run_us", "us"},
    {"check.lockstep_sweep_us", "us"},
    {"cache.l1i_miss_frac", "frac"},
    {"cache.l1d_miss_frac", "frac"},
    {"cache.l2_miss_frac", "frac"},
    {"cache.dram_tx_per_kinst", "count"},
    {"tlb.miss_frac", "frac"},
    {"bench.request_p99_us", "us"},
    {"bench.trace_overhead_frac", "frac"},
    {"layer_share.core", "frac"},
    {"layer_share.workloads", "frac"},
    {"layer_share.check", "frac"},
    {"layer_share.support", "frac"},
    {"layer_share.bench", "frac"},
};

struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Checks beyond single requests (parent state, verdict pairing). */
    std::vector<std::string> problems;
    double setup_s = 0.0;
    std::uint64_t setup_reps = 0;
    double requests_per_s = 0.0;
    std::uint64_t samples = 0;
    /** Workload-specific metrics for the detail line. */
    std::vector<Metric> detail;
    /** Traced runs only: per-layer values by name. */
    std::map<std::string, double> layers;
    /** Traced runs only: the layer-share verdict. */
    std::string layer_check;

    void
    add(const std::string &name, double value, const std::string &unit,
        std::uint64_t samples_count)
    {
        detail.push_back({name, value, unit, samples_count});
    }

    void
    fail(std::uint64_t request, const std::string &why)
    {
        ++failed;
        if (failed <= 5)
            std::fprintf(stderr, "perfbench: request %llu failed: %s\n",
                         static_cast<unsigned long long>(request),
                         why.c_str());
    }
};

/** Peak resident set of this process image (VmHWM). getrusage's
 *  ru_maxrss is not used: Linux carries it across exec, so it can
 *  report the launching shell's or interpreter's peak instead. */
double
peakRssMb()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return 0.0;
    char line[256];
    double kb = 0.0;
    while (std::fgets(line, sizeof line, f) != nullptr)
        if (std::strncmp(line, "VmHWM:", 6) == 0)
            kb = std::strtod(line + 6, nullptr);
    std::fclose(f);
    return kb / 1024.0;
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

// ---------------------------------------------------------------------
// Set-up and measurement loops

/**
 * Walks the calling thread round the CPUs it may run on, staying
 * kCpuStayNs on each; the destructor gives the thread back every CPU.
 * On a shared host one vCPU at a time can run at half speed for
 * several seconds while another tenant keeps its physical core busy,
 * and the kernel does not move a lone busy thread off it. Visiting every
 * vCPU lets a run's fastest request come from an uncontended one.
 * Call move() only between timed sections. Multi-threaded workloads
 * must not hold one: their workers would inherit the single-CPU mask.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&allowed_);
        if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0)
            return;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &allowed_))
                cpus_.push_back(cpu);
        last_ns_ = nowNs();
    }

    ~CpuRotation()
    {
        if (cpus_.size() > 1)
            sched_setaffinity(0, sizeof allowed_, &allowed_);
    }

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    void
    move()
    {
        if (cpus_.size() < 2 || nowNs() - last_ns_ < kCpuStayNs)
            return;
        next_ = (next_ + 1) % cpus_.size();
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_], &one);
        sched_setaffinity(0, sizeof one, &one);
        last_ns_ = nowNs();
    }

  private:
    cpu_set_t allowed_;
    std::vector<int> cpus_;
    std::size_t next_ = 0;
    std::uint64_t last_ns_ = 0;
};

/**
 * Run fn(rep) repeatedly, time each call, keep the last state and
 * record the median. Tearing down the previous repetition happens
 * before the clock starts. Set-up runs on one thread, so it rotates
 * over the CPUs; the thread has all of them back on return.
 */
template <typename Fn>
auto
timedSetup(Report &report, Fn &&fn) -> decltype(fn(0))
{
    std::vector<double> seconds;
    decltype(fn(0)) state{};
    CpuRotation rotation;
    std::uint64_t begin = nowNs();
    for (std::uint64_t rep = 0;; ++rep) {
        state = decltype(fn(0)){};
        rotation.move();
        std::uint64_t t0 = nowNs();
        state = fn(rep);
        seconds.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
        if (seconds.size() >= kMinSetupReps &&
            (nowNs() - begin >= kSetupBudgetNs ||
             seconds.size() >= kMaxSetupReps))
            break;
    }
    report.setup_s = median(seconds);
    report.setup_reps = seconds.size();
    return state;
}

/**
 * Closed loop of rounds until the run time is spent and at least
 * min_rounds rounds have run. Untraced runs trace nothing; traced runs
 * alternate an untraced round with a traced round over the same inputs
 * and end on a traced one.
 */
template <typename Fn>
void
measureRounds(const Options &opt, std::uint64_t min_rounds, Fn &&round)
{
    std::uint64_t deadline =
        nowNs() + static_cast<std::uint64_t>(opt.seconds * 1e9);
    for (std::uint64_t i = 0;; ++i) {
        bool traced = opt.trace && i % 2 == 1;
        perfbench::setTracing(traced);
        round(i, traced);
        perfbench::setTracing(false);
        if (nowNs() >= deadline && i + 1 >= min_rounds &&
            (!opt.trace || traced))
            break;
    }
}

/** Fisher-Yates order of [0, n) from the workload seed stream. */
std::vector<std::size_t>
shuffled(std::size_t n, support::Xoshiro256 &rng)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng.nextBelow(i)]);
    return order;
}

// ---------------------------------------------------------------------
// Trace analysis

struct TraceSummary
{
    /** Durations in ns of every span, by name (set-up included). */
    std::vector<double> durations[static_cast<int>(SpanName::kCount)];
    /** Self time in ns inside request trees, by layer. */
    std::map<std::string, double> request_self_ns;
    /** Total time in ns of request-tree spans, by name. */
    double request_total_ns[static_cast<int>(SpanName::kCount)] = {};
};

TraceSummary
summarize(const std::vector<std::vector<perfbench::Span>> &threads)
{
    TraceSummary out;
    for (const auto &spans : threads) {
        std::vector<double> children(spans.size(), 0.0);
        std::vector<std::size_t> root(spans.size(), 0);
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const perfbench::Span &s = spans[i];
            double dur = static_cast<double>(s.end_ns - s.start_ns);
            out.durations[static_cast<int>(s.name)].push_back(dur);
            if (s.parent >= 0) {
                auto p = static_cast<std::size_t>(s.parent);
                children[p] += dur;
                root[i] = root[p];
            } else {
                root[i] = i;
            }
        }
        for (std::size_t i = 0; i < spans.size(); ++i) {
            SpanName root_name = spans[root[i]].name;
            if (root_name != SpanName::kRequest &&
                root_name != SpanName::kQuantum)
                continue;
            const perfbench::Span &s = spans[i];
            double dur = static_cast<double>(s.end_ns - s.start_ns);
            out.request_self_ns[perfbench::spanLayer(s.name)] +=
                dur - children[i];
            out.request_total_ns[static_cast<int>(s.name)] += dur;
        }
    }
    return out;
}

double
medianUs(const TraceSummary &t, SpanName name)
{
    return median(t.durations[static_cast<int>(name)]) * 1e-3;
}

double
p99Us(const TraceSummary &t, SpanName name)
{
    return p99IfResolved(t.durations[static_cast<int>(name)]) * 1e-3;
}

/** Layer timings and shares common to every workload. extra_support_ns
 *  is scheduler time that no span covers (fleet gaps between quanta). */
void
addLayerTimings(Report &report, const TraceSummary &t,
                double extra_support_ns)
{
    auto &L = report.layers;
    L["core.fork_us"] = medianUs(t, SpanName::kFork);
    L["core.fork_p99_us"] = p99Us(t, SpanName::kFork);
    L["core.teardown_us"] = medianUs(t, SpanName::kTeardown);
    L["core.teardown_p99_us"] = p99Us(t, SpanName::kTeardown);
    L["core.machine_new_us"] = medianUs(t, SpanName::kMachineNew);
    L["core.machine_new_p99_us"] = p99Us(t, SpanName::kMachineNew);
    L["workloads.load_us"] = medianUs(t, SpanName::kLoad);
    L["check.gen_us"] = medianUs(t, SpanName::kGen);
    L["check.lockstep_setup_us"] = medianUs(t, SpanName::kLockstepSetup);
    L["check.lockstep_run_us"] = medianUs(t, SpanName::kLockstepRun);
    L["check.lockstep_sweep_us"] = medianUs(t, SpanName::kLockstepSweep);

    std::map<std::string, double> self = t.request_self_ns;
    self["support"] += extra_support_ns;
    double total = 0.0;
    for (const auto &entry : self)
        total += entry.second;
    for (const char *layer :
         {"core", "workloads", "check", "support", "bench"})
        L[std::string("layer_share.") + layer] =
            ratio(self[layer], total);
}

/** Cache, TLB and tag-cache ratios plus CPI from summed counters. */
void
addSimLayers(Report &report, const Counters &c)
{
    using namespace perfbench;
    auto frac = [&](Counter miss, Counter hit) {
        return ratio(static_cast<double>(c[miss]),
                     static_cast<double>(c[miss] + c[hit]));
    };
    auto &L = report.layers;
    L["cache.l1i_miss_frac"] = frac(kL1iMisses, kL1iHits);
    L["cache.l1d_miss_frac"] = frac(kL1dMisses, kL1dHits);
    L["cache.l2_miss_frac"] = frac(kL2Misses, kL2Hits);
    L["cache.dram_tx_per_kinst"] =
        ratio(static_cast<double>(c[kDramTransactions]),
              static_cast<double>(c[kInstructions]) / 1000.0);
    L["tlb.miss_frac"] = frac(kTlbMisses, kTlbHits);
    L["mem.tag_cache_hit_frac"] = frac(kTagCacheHits, kTagCacheMisses);
    L["core.sim_cpi"] = ratio(static_cast<double>(c[kCycles]),
                              static_cast<double>(c[kInstructions]));
}

void
addSuperblockLayers(Report &report, const core::SuperblockStats &sb,
                    std::uint64_t instructions, std::uint64_t requests)
{
    auto &L = report.layers;
    L["core.sb_inst_frac"] = ratio(static_cast<double>(sb.instructions),
                                   static_cast<double>(instructions));
    L["core.sb_guard_fail_frac"] =
        ratio(static_cast<double>(sb.guard_fails),
              static_cast<double>(sb.entered + sb.guard_fails));
    L["core.sb_minted"] = ratio(static_cast<double>(sb.minted),
                                static_cast<double>(requests));
}

void
addSuperblocks(core::SuperblockStats &into,
               const core::SuperblockStats &sb)
{
    into.minted += sb.minted;
    into.entered += sb.entered;
    into.guard_fails += sb.guard_fails;
    into.invalidated += sb.invalidated;
    into.instructions += sb.instructions;
}

/** Sum over request kinds of the median latency, in seconds. */
double
sumOfMedians(const std::vector<std::vector<double>> &by_kind)
{
    double total = 0.0;
    for (const auto &v : by_kind)
        total += median(v);
    return total;
}

std::uint64_t
countSamples(const std::vector<std::vector<double>> &by_kind)
{
    std::uint64_t n = 0;
    for (const auto &v : by_kind)
        n += v.size();
    return n;
}

/**
 * The end-to-end rate for a workload whose requests come in fixed
 * kinds: one over the geometric mean, across kinds, of each kind's
 * fastest request time. The geometric mean weighs every kind alike, so
 * the few multi-second heap-sweep points cannot dominate. Why the
 * fastest time, not the median: see fastest().
 */
void
setKindThroughput(Report &report,
                  const std::vector<std::vector<double>> &by_kind)
{
    std::vector<double> best;
    for (const auto &v : by_kind)
        best.push_back(fastest(v));
    report.requests_per_s = ratio(1.0, geomean(best));
    report.samples = countSamples(by_kind);
}

std::vector<double>
flatten(const std::vector<std::vector<double>> &by_kind)
{
    std::vector<double> out;
    for (const auto &v : by_kind)
        out.insert(out.end(), v.begin(), v.end());
    return out;
}

// ---------------------------------------------------------------------
// emu: the four guest Olden kernels on long-lived default machines

struct EmuKernel
{
    workloads::GuestProgram prog;
    std::unique_ptr<core::Machine> machine;
};

/** Traced form of runGuestProgram, with the same public calls. */
core::RunResult
runKernelTraced(EmuKernel &k, std::uint64_t request, bool &ok)
{
    k.machine->reset(k.prog.layout.code_base);
    core::RunResult r;
    {
        ScopedSpan span(SpanName::kCpuRun, request);
        r = k.machine->cpu().run(1'000'000'000);
    }
    ok = r.reason == core::StopReason::kBreak &&
         k.machine->cpu().gpr(isa::reg::v0) == k.prog.expected_checksum;
    return r;
}

std::vector<EmuKernel>
emuSetup(std::uint64_t rep)
{
    ScopedSpan root(SpanName::kSetup, rep);
    std::vector<EmuKernel> kernels(4);
    {
        ScopedSpan span(SpanName::kLoad, rep);
        kernels[0].prog = workloads::guestTreeadd(12, 8);
        kernels[1].prog = workloads::guestBisort(256);
        kernels[2].prog = workloads::guestMst(64);
        kernels[3].prog = workloads::guestEm3d(96, 6, 16);
    }
    for (EmuKernel &k : kernels) {
        {
            ScopedSpan span(SpanName::kMachineNew, rep);
            k.machine = std::make_unique<core::Machine>();
        }
        {
            ScopedSpan span(SpanName::kLoad, rep);
            workloads::loadGuestProgram(*k.machine, k.prog);
        }
        // Untimed-by-the-loop warm-up: fills the simulated caches and
        // mints the host tiers, so measured runs start warm.
        bool ok = true;
        if (perfbench::tracing())
            runKernelTraced(k, rep, ok);
        else
            workloads::runGuestProgram(*k.machine, k.prog);
        if (!ok)
            support::fatal("perfbench: %s warm-up failed",
                           k.prog.name.c_str());
    }
    return kernels;
}

Report
runEmu(const Options &opt)
{
    Report report;
    std::vector<EmuKernel> kernels = timedSetup(report, emuSetup);
    const std::size_t n = kernels.size();

    std::vector<const perfbench::PointPin *> pins(n);
    std::vector<Counters> last(n);
    std::vector<core::SuperblockStats> sb_start(n);
    for (std::size_t k = 0; k < n; ++k) {
        pins[k] = findPin(std::begin(perfbench::kEmuPins),
                          std::end(perfbench::kEmuPins),
                          kernels[k].prog.name);
        last[k] = cpuCounters(*kernels[k].machine);
        sb_start[k] = kernels[k].machine->cpu().superblockStats();
    }

    std::vector<std::vector<double>> untraced(n), traced_s(n);
    Counters pass_counters{};
    std::uint64_t traced_insts = 0, traced_refs = 0, requests = 0;
    std::uint64_t all_insts = 0;
    support::Xoshiro256 rng(opt.seed);
    std::vector<std::size_t> order;
    CpuRotation rotation;

    measureRounds(opt, 1, [&](std::uint64_t round, bool traced) {
        // A traced round replays the untraced round's order.
        if (!traced)
            order = shuffled(n, rng);
        for (std::size_t k : order) {
            EmuKernel &kernel = kernels[k];
            std::uint64_t request = requests++;
            bool ok = true;
            core::RunResult r;
            rotation.move();
            std::uint64_t t0 = nowNs();
            {
                ScopedSpan root(SpanName::kRequest, request);
                if (traced)
                    r = runKernelTraced(kernel, request, ok);
                else
                    r = workloads::runGuestProgram(*kernel.machine,
                                                   kernel.prog);
            }
            double secs = static_cast<double>(nowNs() - t0) * 1e-9;
            (traced ? traced_s : untraced)[k].push_back(secs);

            Counters now = cpuCounters(*kernel.machine);
            Counters delta = minus(now, last[k]);
            last[k] = now;
            all_insts += r.instructions;
            if (traced) {
                traced_insts += r.instructions;
                traced_refs += dataRefs(delta);
            }
            if (round == 0)
                accumulate(pass_counters, delta);
            if (!ok)
                report.fail(request, kernel.prog.name + " checksum");
            else if (pins[k] == nullptr)
                report.fail(request, kernel.prog.name + " has no pin");
            else if (delta != pins[k]->counters ||
                     r.instructions != delta[perfbench::kInstructions] ||
                     r.cycles != delta[perfbench::kCycles])
                report.fail(request,
                            kernel.prog.name + " simulated counters "
                                               "differ from the pin");
        }
    });
    report.attempted = requests;

    setKindThroughput(report, untraced);
    std::uint64_t pass_insts = pass_counters[perfbench::kInstructions];
    double pass_s = sumOfMedians(untraced);
    report.add("guest_mips",
               ratio(static_cast<double>(pass_insts), pass_s) * 1e-6,
               "Minst/s", report.samples);
    for (std::size_t k = 0; k < n; ++k) {
        const std::string &name = kernels[k].prog.name;
        double insts = static_cast<double>(
            pins[k] ? pins[k]->counters[perfbench::kInstructions] : 0);
        std::uint64_t runs = untraced[k].size();
        report.add(name + ".mips", ratio(insts, median(untraced[k])) * 1e-6,
                   "Minst/s", runs);
        report.add(name + ".best_mips",
                   ratio(insts, fastest(untraced[k])) * 1e-6, "Minst/s",
                   runs);
        report.add(name + ".p50_us", median(untraced[k]) * 1e6, "us", runs);
    }
    report.add("sim_cpi",
               ratio(static_cast<double>(pass_counters[perfbench::kCycles]),
                     static_cast<double>(pass_insts)),
               "cycles/inst", 1);

    if (opt.trace) {
        TraceSummary t = summarize(perfbench::collectSpans());
        addLayerTimings(report, t, 0.0);
        double run_ns = t.request_total_ns[static_cast<int>(
            SpanName::kCpuRun)];
        report.layers["core.run_ns_per_inst"] =
            ratio(run_ns, static_cast<double>(traced_insts));
        report.layers["workloads.ns_per_ref"] =
            ratio(run_ns, static_cast<double>(traced_refs));
        core::SuperblockStats sb;
        for (std::size_t k = 0; k < n; ++k) {
            core::SuperblockStats end =
                kernels[k].machine->cpu().superblockStats();
            sb.minted += end.minted;
            sb.entered += end.entered - sb_start[k].entered;
            sb.guard_fails += end.guard_fails - sb_start[k].guard_fails;
            sb.instructions +=
                end.instructions - sb_start[k].instructions;
        }
        addSuperblockLayers(report, sb, all_insts, requests);
        addSimLayers(report, pass_counters);
        report.layers["bench.request_p99_us"] =
            p99IfResolved(flatten(traced_s)) * 1e6;
        report.layers["bench.trace_overhead_frac"] =
            ratio(sumOfMedians(traced_s) - sumOfMedians(untraced),
                  sumOfMedians(untraced));
        bool ok = report.layers["layer_share.core"] > 0.5;
        report.layer_check = ok ? "ok: core.cpu_run is the majority"
                                : "FAILED: core.cpu_run is not the "
                                  "majority";
    }
    return report;
}

// ---------------------------------------------------------------------
// fleet: cheri-serve's clean fleet on 4 workers

struct FleetState
{
    workloads::GuestProgram prog;
    std::unique_ptr<core::Machine> parent;
    std::uint64_t parent_insts = 0;
    std::uint64_t clean_remaining = 0;
};

/** cheri-serve's per-guest salt: a pure function of the guest index. */
std::uint64_t
saltFor(std::uint64_t index)
{
    return support::Xoshiro256(0x5e12e5e12eULL + index).next();
}

std::uint64_t
saltAddr(const workloads::GuestProgram &prog)
{
    return prog.layout.heap_base + prog.layout.heap_bytes - 8;
}

FleetState
fleetSetup(std::uint64_t rep)
{
    ScopedSpan root(SpanName::kSetup, rep);
    FleetState s;
    {
        ScopedSpan span(SpanName::kLoad, rep);
        s.prog = workloads::guestTreeadd(5, 2);
    }
    {
        ScopedSpan span(SpanName::kMachineNew, rep);
        s.parent = std::make_unique<core::Machine>();
    }
    {
        ScopedSpan span(SpanName::kLoad, rep);
        workloads::loadGuestProgram(*s.parent, s.prog);
    }
    core::RunLimits warm;
    warm.max_instructions = kFleetWarmup;
    core::RunResult w;
    {
        ScopedSpan span(SpanName::kCpuRun, rep);
        w = s.parent->cpu().run(warm);
    }
    if (w.reason != core::StopReason::kInstLimit)
        support::fatal("perfbench: fleet warm-up reached %s",
                       core::stopReasonName(w.reason));
    s.parent_insts = s.parent->cpu().totalInstructions();

    // Probe the clean checkpoint-to-BREAK length, as cheri-serve does:
    // retry watchdogs scale with it.
    std::unique_ptr<core::Machine> probe;
    {
        ScopedSpan span(SpanName::kFork, rep);
        probe = s.parent->fork();
    }
    core::RunLimits limits;
    limits.max_instructions = 100'000'000;
    core::RunResult clean;
    {
        ScopedSpan span(SpanName::kCpuRun, rep);
        clean = probe->cpu().run(limits);
    }
    if (clean.reason != core::StopReason::kBreak)
        support::fatal("perfbench: fleet probe reached %s",
                       core::stopReasonName(clean.reason));
    s.clean_remaining = probe->cpu().totalInstructions() - s.parent_insts;
    {
        ScopedSpan span(SpanName::kTeardown, rep);
        probe.reset();
    }
    return s;
}

/** What one guest left behind; written only by the worker running it. */
struct GuestRecord
{
    std::unique_ptr<core::Machine> machine;
    int minted_attempt = -1;
    std::uint64_t salt = 0;
    std::uint64_t quanta = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t quantum_ns = 0;
    bool ok = false;
    std::string fault;
    std::uint64_t instructions = 0;
    std::uint64_t cycles = 0;
    std::uint64_t cow_pages = 0;
    core::SuperblockStats sb;
    Counters counters{};
};

struct FleetBatch
{
    std::vector<GuestRecord> guests;
    std::vector<support::GuestOutcome> outcomes;
    double wall_s = 0.0;
};

/** Serve guests [first, first + count) exactly as cheri-serve does. */
FleetBatch
serveBatch(FleetState &s, std::uint64_t first, std::uint64_t count,
           bool keep_counters)
{
    FleetBatch batch;
    batch.guests.resize(count);
    std::uint64_t salt_vaddr = saltAddr(s.prog);
    std::uint64_t base_budget = 2 * s.clean_remaining + 10'000;
    core::Machine &parent = *s.parent;

    support::GuestSupervisor::Config config;
    config.jobs = kFleetWorkers;
    config.retry_budget = kFleetRetryBudget;
    support::GuestSupervisor supervisor(config);

    std::uint64_t t0 = nowNs();
    batch.outcomes = supervisor.run(
        static_cast<std::size_t>(count),
        [&](std::size_t index, unsigned, unsigned attempt) {
            using Step = support::GuestSupervisor::Step;
            GuestRecord &g = batch.guests[index];
            std::uint64_t id = first + index;
            std::uint64_t q0 = nowNs();
            ScopedSpan root(SpanName::kQuantum, id);
            auto finish = [&](Step step) {
                g.end_ns = nowNs();
                g.quantum_ns += g.end_ns - q0;
                return step;
            };
            if (g.minted_attempt != static_cast<int>(attempt)) {
                if (g.minted_attempt < 0)
                    g.start_ns = q0;
                {
                    ScopedSpan span(SpanName::kFork, id);
                    g.machine = parent.fork();
                }
                g.minted_attempt = static_cast<int>(attempt);
                g.salt = saltFor(id);
                if (!g.machine->cpu().debugWrite(salt_vaddr, 8, g.salt))
                    support::fatal("perfbench: salt write failed");
            }
            core::Cpu &cpu = g.machine->cpu();
            auto fail = [&](const char *fault) {
                g.ok = false;
                g.fault = fault;
                g.instructions = cpu.totalInstructions();
                g.cycles = cpu.totalCycles();
                g.cow_pages = g.machine->cowStore().cowFaults();
                {
                    ScopedSpan span(SpanName::kTeardown, id);
                    g.machine.reset();
                }
                return finish(Step::failed(fault));
            };
            core::RunLimits limits;
            limits.max_instructions = kFleetQuantum;
            core::RunResult slice;
            {
                ScopedSpan span(SpanName::kCpuRun, id);
                support::PanicScope barrier;
                slice = cpu.run(limits);
            }
            ++g.quanta;
            std::uint64_t executed =
                cpu.totalInstructions() - s.parent_insts;
            if (slice.reason == core::StopReason::kInstLimit) {
                if (executed > (base_budget << std::min(attempt, 16u)))
                    return fail("timeout");
                return finish(Step::runnable());
            }
            if (slice.reason != core::StopReason::kBreak)
                return fail(core::stopReasonName(slice.reason));
            if (cpu.gpr(isa::reg::v0) != s.prog.expected_checksum)
                return fail("checksum_mismatch");
            std::uint64_t got = 0;
            if (!cpu.debugRead(salt_vaddr, 8, got) || got != g.salt)
                return fail("salt_mismatch");
            g.ok = true;
            g.instructions = cpu.totalInstructions();
            g.cycles = cpu.totalCycles();
            g.cow_pages = g.machine->cowStore().cowFaults();
            g.sb = cpu.superblockStats();
            if (keep_counters && index == 0)
                g.counters = cpuCounters(*g.machine);
            {
                ScopedSpan span(SpanName::kTeardown, id);
                g.machine.reset();
            }
            return finish(Step::done());
        });
    batch.wall_s = static_cast<double>(nowNs() - t0) * 1e-9;
    return batch;
}

/** Fleet totals in cheri-serve's "fleet" JSON shape, for the
 *  cross-check against the tool. */
int
printFleetTotals(std::uint64_t guests)
{
    FleetState s = fleetSetup(0);
    FleetBatch batch = serveBatch(s, 0, guests, false);
    std::uint64_t instructions = 0, cycles = 0, cow_pages = 0;
    std::uint64_t completed = 0, salt_xor = 0;
    for (const GuestRecord &g : batch.guests) {
        instructions += g.instructions;
        cycles += g.cycles;
        cow_pages += g.cow_pages;
        completed += g.ok ? 1 : 0;
        salt_xor ^= g.salt;
    }
    std::printf("{\"completed\": %llu, \"cow_pages\": %llu, \"cycles\": "
                "%llu, \"instructions\": %llu, \"salt_xor\": %llu}\n",
                static_cast<unsigned long long>(completed),
                static_cast<unsigned long long>(cow_pages),
                static_cast<unsigned long long>(cycles),
                static_cast<unsigned long long>(instructions),
                static_cast<unsigned long long>(salt_xor));
    return 0;
}

Report
runFleet(const Options &opt)
{
    Report report;
    FleetState s = timedSetup(report, fleetSetup);
    Counters parent_counters = cpuCounters(*s.parent);

    std::vector<double> batch_rates, latencies;
    std::vector<double> traced_latencies;
    std::uint64_t guests_done = 0, traced_guests = 0;
    double traced_wall_s = 0.0, traced_quantum_ns = 0.0;
    double sched_gap_ns = 0.0, traced_insts = 0.0;
    double cow_faults = 0.0, quanta = 0.0;
    core::SuperblockStats sb;
    Counters guest_counters{};
    std::uint64_t batch_index = 0;
    const perfbench::FleetPin &pin = perfbench::kFleetPin;

    measureRounds(opt, 1, [&](std::uint64_t, bool traced) {
        // Guest ids continue across batches; the seed picks a disjoint
        // id range, so every guest carries its own salt.
        std::uint64_t first = (opt.seed << 32) + batch_index * kFleetBatch;
        ++batch_index;
        FleetBatch batch = serveBatch(s, first, kFleetBatch, traced);
        if (!traced)
            batch_rates.push_back(
                ratio(static_cast<double>(kFleetBatch), batch.wall_s));
        else
            traced_wall_s += batch.wall_s;
        for (std::size_t i = 0; i < batch.guests.size(); ++i) {
            const GuestRecord &g = batch.guests[i];
            std::uint64_t id = first + i;
            double latency = static_cast<double>(g.end_ns - g.start_ns);
            if (!g.ok) {
                report.fail(id, "guest failed: " + g.fault);
            } else if (batch.outcomes[i].verdict !=
                       support::GuestVerdict::kHealthy) {
                report.fail(id, "guest needed a retry");
            } else if (g.instructions != pin.instructions ||
                       g.cycles != pin.cycles ||
                       g.cow_pages != pin.cow_pages ||
                       g.quanta != pin.quanta) {
                report.fail(id, "guest counters differ from the pin");
            }
            if (traced) {
                traced_latencies.push_back(latency * 1e-3);
                traced_quantum_ns += static_cast<double>(g.quantum_ns);
                sched_gap_ns += std::max(
                    0.0, latency - static_cast<double>(g.quantum_ns));
                traced_insts += static_cast<double>(g.instructions -
                                                    s.parent_insts);
                cow_faults += static_cast<double>(g.cow_pages);
                quanta += static_cast<double>(g.quanta);
                addSuperblocks(sb, g.sb);
                ++traced_guests;
            } else {
                latencies.push_back(latency * 1e-3);
            }
        }
        if (traced)
            guest_counters =
                minus(batch.guests[0].counters, parent_counters);
        guests_done += batch.guests.size();
    });
    report.attempted = guests_done;

    // The fleet is gone: the parent must still be byte-clean, unrun and
    // forkable, as cheri-serve requires.
    std::uint64_t parent_salt = 1;
    if (!s.parent->cpu().debugRead(saltAddr(s.prog), 8, parent_salt) ||
        parent_salt != 0 ||
        s.parent->cpu().totalInstructions() != s.parent_insts)
        report.problems.push_back("fleet parent was modified");

    // The median batch: unlike a single-threaded request, a batch is
    // slowed or sped up by how its own four workers happen to contend,
    // so its fastest rate is a lucky outlier (across ten runs it spread
    // twice as far as the median).
    report.requests_per_s = median(batch_rates);
    report.samples = batch_rates.size();
    std::uint64_t guest_insts = pin.instructions - s.parent_insts;
    report.add("guests_per_s", median(batch_rates), "guests/s",
               batch_rates.size());
    report.add("guest_p50_us", median(latencies), "us",
               latencies.size());
    report.add("guest_p99_us", p99IfResolved(latencies), "us",
               latencies.size());
    report.add("guest_mips",
               median(batch_rates) * static_cast<double>(guest_insts) *
                   1e-6,
               "Minst/s", batch_rates.size());
    // A guest's own work: from the fork to BREAK.
    report.add("sim_cpi",
               ratio(static_cast<double>(pin.cycles -
                                         parent_counters[perfbench::kCycles]),
                     static_cast<double>(guest_insts)),
               "cycles/inst", 1);

    if (opt.trace) {
        TraceSummary t = summarize(perfbench::collectSpans());
        addLayerTimings(report, t, sched_gap_ns);
        double run_ns = t.request_total_ns[static_cast<int>(
            SpanName::kCpuRun)];
        auto &L = report.layers;
        L["core.run_ns_per_inst"] = ratio(run_ns, traced_insts);
        L["workloads.ns_per_ref"] =
            ratio(run_ns, static_cast<double>(dataRefs(guest_counters)) *
                              static_cast<double>(traced_guests));
        L["support.sched_busy_frac"] = ratio(
            traced_quantum_ns, traced_wall_s * 1e9 * kFleetWorkers);
        L["support.quanta_per_guest"] =
            ratio(quanta, static_cast<double>(traced_guests));
        L["mem.cow_faults_per_guest"] =
            ratio(cow_faults, static_cast<double>(traced_guests));
        addSuperblockLayers(report, sb,
                            static_cast<std::uint64_t>(traced_insts),
                            traced_guests);
        addSimLayers(report, guest_counters);
        L["bench.request_p99_us"] = p99IfResolved(traced_latencies);
        L["bench.trace_overhead_frac"] =
            ratio(median(traced_latencies) - median(latencies),
                  median(latencies));
        double fork = t.request_total_ns[static_cast<int>(
            SpanName::kFork)];
        double teardown = t.request_total_ns[static_cast<int>(
            SpanName::kTeardown)];
        bool ok = fork + teardown + sched_gap_ns > run_ns;
        report.layer_check =
            ok ? "ok: fork, teardown and scheduler outweigh "
                 "core.cpu_run"
               : "FAILED: core.cpu_run outweighs fork, teardown and "
                 "scheduler";
    }
    return report;
}

// ---------------------------------------------------------------------
// oracle: the lockstep fuzz oracle, one seed per request

check::FuzzCampaignConfig
oracleConfig(std::uint64_t seed)
{
    check::FuzzCampaignConfig config;
    config.seeds = 1;
    config.start_seed = seed;
    config.jobs = 1;
    config.quiet = true;
    return config;
}

/**
 * Traced mirror of runFuzzWords' two oracle passes through public
 * calls. Both passes keep the default CPU configuration (the library
 * runs its second pass with the host tiers off); the verdict is
 * compared with runFuzzSeeds' for the same seed.
 */
bool
oracleSeedTraced(std::uint64_t seed, Counters &counters)
{
    std::vector<std::uint32_t> words;
    {
        ScopedSpan span(SpanName::kGen, seed);
        words = check::assembleFuzzProgram(check::generateSpec(seed));
    }
    const std::uint64_t max_insts =
        check::FuzzCampaignConfig{}.max_instructions;
    for (int pass = 0; pass < 2; ++pass) {
        std::unique_ptr<core::Machine> machine;
        {
            ScopedSpan span(SpanName::kMachineNew, seed);
            machine =
                std::make_unique<core::Machine>(check::fuzzMachineConfig());
        }
        {
            ScopedSpan span(SpanName::kCoreLoad, seed);
            machine->loadProgram(check::kFuzzCodeBase, words);
            machine->mapRange(check::kFuzzArenaBase, check::kFuzzArenaLen);
            tlb::PteFlags nocap;
            nocap.cap_load = false;
            nocap.cap_store = false;
            machine->mapRange(check::kFuzzNoCapPage, tlb::kPageBytes,
                              nocap);
            tlb::PteFlags ro;
            ro.writable = false;
            ro.cap_store = false;
            machine->mapRange(check::kFuzzRoPage, tlb::kPageBytes, ro);
            machine->mapRange(check::kFuzzStrideBase,
                              check::kFuzzStrideLen);
            machine->reset(check::kFuzzCodeBase);
        }
        std::unique_ptr<check::Lockstep> lockstep;
        {
            ScopedSpan span(SpanName::kLockstepSetup, seed);
            check::LockstepConfig config;
            config.max_instructions = max_insts;
            lockstep = std::make_unique<check::Lockstep>(*machine, config);
        }
        check::LockstepResult run;
        {
            ScopedSpan span(SpanName::kLockstepRun, seed);
            run = lockstep->runFor(max_insts);
        }
        bool diverged = run.diverged;
        {
            // The Lockstep's lifetime ends with its sweep.
            ScopedSpan span(SpanName::kLockstepSweep, seed);
            std::string detail;
            if (!diverged)
                diverged = !lockstep->finalStateMatches(detail);
            lockstep.reset();
        }
        accumulate(counters, cpuCounters(*machine));
        {
            ScopedSpan span(SpanName::kTeardown, seed);
            machine.reset();
        }
        if (diverged)
            return true;
    }
    return false;
}

Report
runOracle(const Options &opt)
{
    Report report;
    const std::uint64_t first_seed = 1 + opt.seed * kOracleSeedStride;
    timedSetup(report, [&](std::uint64_t rep) {
        ScopedSpan root(SpanName::kSetup, rep);
        // Warm-up: one seed outside the measured range.
        if (check::runFuzzSeeds(oracleConfig(first_seed - 1))
                .diverged_count != 0)
            support::fatal("perfbench: oracle warm-up seed diverged");
        return 0;
    });

    std::vector<double> untraced, traced_s;
    std::vector<bool> verdicts(kOracleRound);
    std::uint64_t next_seed = first_seed, round_seed = first_seed;
    Counters counters{};
    CpuRotation rotation;

    measureRounds(opt, 1, [&](std::uint64_t, bool traced) {
        if (!traced) {
            round_seed = next_seed;
            next_seed += kOracleRound;
        }
        for (std::uint64_t i = 0; i < kOracleRound; ++i) {
            std::uint64_t seed = round_seed + i;
            rotation.move();
            std::uint64_t t0 = nowNs();
            bool diverged;
            {
                ScopedSpan root(SpanName::kRequest, seed);
                diverged =
                    traced ? oracleSeedTraced(seed, counters)
                           : check::runFuzzSeeds(oracleConfig(seed))
                                     .diverged_count != 0;
            }
            double secs = static_cast<double>(nowNs() - t0) * 1e-9;
            (traced ? traced_s : untraced).push_back(secs);
            ++report.attempted;
            if (diverged)
                report.fail(seed, "lockstep divergence");
            if (!traced)
                verdicts[i] = diverged;
            else if (verdicts[i] != diverged)
                report.fail(seed, "traced verdict differs from "
                                  "runFuzzSeeds");
        }
    });

    report.requests_per_s = ratio(1.0, fastest(untraced));
    report.samples = untraced.size();
    report.add("seeds_per_s", ratio(1.0, median(untraced)), "seeds/s",
               untraced.size());
    report.add("seed_p50_us", median(untraced) * 1e6, "us",
               untraced.size());
    report.add("seed_p99_us", p99IfResolved(untraced) * 1e6, "us",
               untraced.size());

    if (opt.trace) {
        TraceSummary t = summarize(perfbench::collectSpans());
        addLayerTimings(report, t, 0.0);
        addSimLayers(report, counters);
        report.layers["bench.request_p99_us"] =
            p99IfResolved(traced_s) * 1e6;
        report.layers["bench.trace_overhead_frac"] =
            ratio(median(traced_s) - median(untraced), median(untraced));
        double machine_new = t.request_total_ns[static_cast<int>(
            SpanName::kMachineNew)];
        double check_ns = t.request_self_ns["check"];
        double total = 0.0;
        for (const auto &entry : t.request_self_ns)
            total += entry.second;
        bool ok = machine_new + check_ns > 0.5 * total;
        report.layer_check =
            ok ? "ok: core.machine_new plus check.* are the majority"
               : "FAILED: core.machine_new plus check.* are not the "
                 "majority";
    }
    return report;
}

// ---------------------------------------------------------------------
// heap-sweep: the Figure 5 grid on fresh TimingContexts

struct SweepPoint
{
    const workloads::Workload *workload = nullptr;
    workloads::CompileModel model = workloads::CompileModel::kMips;
    std::uint64_t heap_kb = 0;
    workloads::WorkloadParams params;
    std::string key;
};

struct SweepGrid
{
    std::vector<std::unique_ptr<workloads::Workload>> benchmarks;
    std::vector<SweepPoint> points;
};

SweepGrid
buildGrid()
{
    SweepGrid grid;
    grid.benchmarks = workloads::fpgaBenchmarks();
    for (const auto &w : grid.benchmarks) {
        for (std::uint64_t kb : kHeapKb) {
            for (auto model : {workloads::CompileModel::kMips,
                               workloads::CompileModel::kCheri}) {
                SweepPoint p;
                p.workload = w.get();
                p.model = model;
                p.heap_kb = kb;
                p.params = w->paramsForHeapBytes(kb * 1024);
                p.key = w->name() +
                        (model == workloads::CompileModel::kMips
                             ? "/mips/"
                             : "/cheri/") +
                        std::to_string(kb);
                grid.points.push_back(p);
            }
        }
    }
    return grid;
}

struct PointResult
{
    double seconds = 0.0;
    std::uint64_t checksum = 0;
    Counters counters{};
};

/** One grid point: a fresh TimingContext (caches start empty), the
 *  workload run on it, and its teardown. Reading the counters is not
 *  timed. */
PointResult
runPoint(const SweepPoint &p, std::uint64_t request)
{
    PointResult r;
    std::uint64_t t0 = nowNs();
    ScopedSpan root(SpanName::kRequest, request);
    std::unique_ptr<workloads::TimingContext> ctx;
    {
        ScopedSpan span(SpanName::kMachineNew, request);
        ctx = std::make_unique<workloads::TimingContext>(p.model);
    }
    {
        ScopedSpan span(SpanName::kRun, request);
        r.checksum = p.workload->run(*ctx, p.params);
    }
    std::uint64_t t1 = nowNs();
    workloads::PhaseCosts total = ctx->total();
    r.counters =
        readCounters(ctx->machine(), total.instructions, total.cycles);
    std::uint64_t t2 = nowNs();
    {
        ScopedSpan span(SpanName::kTeardown, request);
        ctx.reset();
    }
    r.seconds = static_cast<double>(t1 - t0 + nowNs() - t2) * 1e-9;
    return r;
}

Report
runHeapSweep(const Options &opt)
{
    Report report;
    SweepGrid grid = timedSetup(report, [](std::uint64_t rep) {
        ScopedSpan root(SpanName::kSetup, rep);
        SweepGrid g;
        {
            ScopedSpan span(SpanName::kLoad, rep);
            g = buildGrid();
        }
        // Warm-up: every benchmark and model once at the smallest
        // heap, which also checks that the grid runs at all.
        for (const SweepPoint &p : g.points)
            if (p.heap_kb == kHeapKb.front())
                runPoint(p, rep);
        return g;
    });
    const std::size_t n = grid.points.size();
    std::vector<const perfbench::PointPin *> pins(n);
    for (std::size_t i = 0; i < n; ++i)
        pins[i] = findPin(std::begin(perfbench::kHeapSweepPins),
                          std::end(perfbench::kHeapSweepPins),
                          grid.points[i].key);

    std::vector<std::vector<double>> untraced(n), traced_s(n);
    std::vector<Counters> first_pass(n);
    std::vector<bool> seen(n, false);
    std::uint64_t requests = 0, traced_refs = 0;
    support::Xoshiro256 rng(opt.seed);
    std::vector<std::size_t> order;
    CpuRotation rotation;

    measureRounds(opt, kHeapSweepPasses, [&](std::uint64_t, bool traced) {
        if (!traced)
            order = shuffled(n, rng);
        for (std::size_t i : order) {
            // Cheap points repeat within the pass so that their timing
            // rests on several samples; the 1024 KB points run once.
            double spent = 0.0;
            for (unsigned rep = 0;
                 rep == 0 || (spent < kPointMinSeconds &&
                              rep < kPointMaxReps);
                 ++rep) {
                std::uint64_t request = requests++;
                rotation.move();
                PointResult r = runPoint(grid.points[i], request);
                // Hand freed memory back, untimed, so every point starts
                // on a clean heap and the peak footprint does not depend
                // on the order the seed gave the points.
                malloc_trim(0);
                spent += r.seconds;
                (traced ? traced_s : untraced)[i].push_back(r.seconds);
                if (traced)
                    traced_refs += dataRefs(r.counters);
                if (!seen[i]) {
                    first_pass[i] = r.counters;
                    seen[i] = true;
                }
                if (pins[i] == nullptr)
                    report.fail(request,
                                grid.points[i].key + " has no pin");
                else if (r.checksum != pins[i]->checksum ||
                         r.counters != pins[i]->counters)
                    report.fail(request, grid.points[i].key +
                                             " differs from the pin");
            }
        }
    });
    report.attempted = requests;

    setKindThroughput(report, untraced);
    Counters grid_counters{};
    for (const Counters &c : first_pass)
        accumulate(grid_counters, c);
    double grid_s = sumOfMedians(untraced);
    report.add("points_per_s",
               ratio(static_cast<double>(n), grid_s), "points/s",
               report.samples);
    report.add("sim_mrefs_per_s",
               ratio(static_cast<double>(dataRefs(grid_counters)), grid_s) *
                   1e-6,
               "Mref/s", report.samples);
    // CHERI over MIPS cycles, geometric mean over (benchmark, heap).
    std::vector<double> slowdowns;
    for (std::size_t i = 0; i + 1 < n; i += 2)
        slowdowns.push_back(ratio(
            static_cast<double>(first_pass[i + 1][perfbench::kCycles]),
            static_cast<double>(first_pass[i][perfbench::kCycles])));
    double overhead_pct = (geomean(slowdowns) - 1.0) * 100.0;
    report.add("sim_cheri_overhead_pct", overhead_pct, "%",
               slowdowns.size());
    report.add("sim_cpi",
               ratio(static_cast<double>(grid_counters[perfbench::kCycles]),
                     static_cast<double>(
                         grid_counters[perfbench::kInstructions])),
               "cycles/inst", n);

    if (opt.trace) {
        TraceSummary t = summarize(perfbench::collectSpans());
        addLayerTimings(report, t, 0.0);
        double run_ns =
            t.request_total_ns[static_cast<int>(SpanName::kRun)];
        report.layers["workloads.ns_per_ref"] =
            ratio(run_ns, static_cast<double>(traced_refs));
        report.layers["workloads.cheri_overhead_pct"] = overhead_pct;
        addSimLayers(report, grid_counters);
        report.layers["bench.request_p99_us"] =
            p99IfResolved(flatten(traced_s)) * 1e6;
        report.layers["bench.trace_overhead_frac"] =
            ratio(sumOfMedians(traced_s) - grid_s, grid_s);
        bool ok = report.layers["layer_share.workloads"] > 0.5 &&
                  t.durations[static_cast<int>(SpanName::kCpuRun)]
                      .empty();
        report.layer_check =
            ok ? "ok: workloads.run is the majority, no core.cpu_run"
               : "FAILED: workloads.run is not the majority";
    }
    return report;
}

// ---------------------------------------------------------------------
// Pins

void
printCounters(const Counters &c)
{
    std::printf("{");
    for (std::size_t i = 0; i < c.size(); ++i)
        std::printf("%s%lluULL", i ? ", " : "",
                    static_cast<unsigned long long>(c[i]));
    std::printf("}");
}

/** Print a new pins.inc from the current simulator. Each emu kernel
 *  is measured on its third warm run and must repeat on the fourth. */
int
printPins()
{
    std::printf("// Generated by cheri-perfbench --print-pins; see pins.h.\n\n");
    std::printf("inline constexpr PointPin kEmuPins[] = {\n");
    for (EmuKernel &k : emuSetup(0)) {
        Counters before{}, runs[2]{};
        for (int rep = 0; rep < 3; ++rep) {
            before = cpuCounters(*k.machine);
            workloads::runGuestProgram(*k.machine, k.prog);
            runs[rep == 2 ? 1 : 0] = minus(cpuCounters(*k.machine), before);
        }
        if (runs[0] != runs[1]) {
            std::fprintf(stderr, "perfbench: %s counters do not repeat\n",
                         k.prog.name.c_str());
            return 1;
        }
        std::printf("    {\"%s\", %lluULL,\n     ", k.prog.name.c_str(),
                    static_cast<unsigned long long>(
                        k.prog.expected_checksum));
        printCounters(runs[1]);
        std::printf("},\n");
    }
    std::printf("};\n\n");

    std::printf("inline constexpr PointPin kHeapSweepPins[] = {\n");
    SweepGrid grid = buildGrid();
    for (std::size_t i = 0; i < grid.points.size(); ++i) {
        PointResult r = runPoint(grid.points[i], i);
        std::fprintf(stderr, "%-24s %8.1f ms\n", grid.points[i].key.c_str(),
                     r.seconds * 1e3);
        std::printf("    {\"%s\", %lluULL,\n     ",
                    grid.points[i].key.c_str(),
                    static_cast<unsigned long long>(r.checksum));
        printCounters(r.counters);
        std::printf("},\n");
    }
    std::printf("};\n\n");

    FleetState s = fleetSetup(0);
    FleetBatch batch = serveBatch(s, 0, 64, false);
    const GuestRecord &g = batch.guests[0];
    for (const GuestRecord &other : batch.guests) {
        if (!other.ok || other.instructions != g.instructions ||
            other.cycles != g.cycles || other.cow_pages != g.cow_pages ||
            other.quanta != g.quanta) {
            std::fprintf(stderr, "perfbench: fleet guests differ\n");
            return 1;
        }
    }
    std::printf("inline constexpr FleetPin kFleetPin = {%lluULL, %lluULL, "
                "%lluULL, %lluULL};\n",
                static_cast<unsigned long long>(g.instructions),
                static_cast<unsigned long long>(g.cycles),
                static_cast<unsigned long long>(g.cow_pages),
                static_cast<unsigned long long>(g.quanta));
    return 0;
}

// ---------------------------------------------------------------------
// Output

void
printMetricObject(const std::vector<Metric> &metrics, bool with_samples)
{
    std::printf("{");
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric &m = metrics[i];
        std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"",
                    i ? ", " : "", m.name.c_str(),
                    jsonNumber(m.value).c_str(), m.unit.c_str());
        if (with_samples)
            std::printf(", \"samples\": %llu",
                        static_cast<unsigned long long>(m.samples));
        std::printf("}");
    }
    std::printf("}");
}

void
emit(const Options &opt, Report &report)
{
    double rss = peakRssMb();
    double fail_frac = ratio(static_cast<double>(report.failed),
                             static_cast<double>(report.attempted));
    std::vector<Metric> end_to_end = {
        {"setup_s", report.setup_s, "s", report.setup_reps},
        {"requests_per_s", report.requests_per_s, "1/s", report.samples},
        {"peak_rss_mb", rss, "MB", 1},
    };
    std::vector<Metric> detail = end_to_end;
    detail.insert(detail.end(), report.detail.begin(),
                  report.detail.end());
    detail.push_back({"fail_frac", fail_frac, "failed/attempted",
                      report.attempted});
    std::vector<Metric> layers;
    if (opt.trace) {
        for (const auto &[name, unit] : kLayerMetrics)
            layers.push_back({name, report.layers[name], unit, 0});
        // A value under a name the table lacks would never be printed.
        if (report.layers.size() != kLayerMetrics.size())
            report.problems.push_back("per-layer metric outside the table");
        detail.insert(detail.end(), layers.begin(), layers.end());
    }

    bool correct = report.failed == 0 && report.problems.empty() &&
                   report.attempted > 0;
    for (const std::string &p : report.problems)
        std::fprintf(stderr, "perfbench: %s\n", p.c_str());

    std::printf("{\"detail\": {\"workload\": \"%s\", \"seed\": %llu, "
                "\"trace\": %d, \"layer_check\": \"%s\", \"metrics\": ",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                opt.trace ? 1 : 0, report.layer_check.c_str());
    printMetricObject(detail, true);
    std::printf("}}\n");

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": ",
                correct ? "true" : "false",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed));
    printMetricObject(opt.trace ? layers : end_to_end, false);
    std::printf("}\n");
    std::fflush(stdout);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: cheri-perfbench --workload "
                 "emu|fleet|oracle|heap-sweep --seed N --seconds S "
                 "--trace 0|1 [--trace-out PATH]\n"
                 "       cheri-perfbench --print-pins\n"
                 "       cheri-perfbench --fleet-totals N\n");
    return 2;
}

bool
parseU64(const char *text, std::uint64_t &out)
{
    if (text == nullptr || *text < '0' || *text > '9')
        return false;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || *end != '\0')
        return false;
    out = v;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        const char *value = i + 1 < argc ? argv[i + 1] : nullptr;
        std::uint64_t n = 0;
        if (arg == "--print-pins")
            return printPins();
        if (arg == "--fleet-totals") {
            if (!parseU64(value, n) || n == 0)
                return usage();
            return printFleetTotals(n);
        }
        if (value == nullptr)
            return usage();
        ++i;
        if (arg == "--workload") {
            opt.workload = value;
        } else if (arg == "--seed") {
            if (!parseU64(value, opt.seed))
                return usage();
        } else if (arg == "--seconds") {
            if (!parseU64(value, n) || n == 0 || n > 3600)
                return usage();
            opt.seconds = static_cast<double>(n);
        } else if (arg == "--trace") {
            if (std::strcmp(value, "0") != 0 &&
                std::strcmp(value, "1") != 0)
                return usage();
            opt.trace = value[0] == '1';
        } else if (arg == "--trace-out") {
            opt.trace_out = value;
        } else {
            return usage();
        }
    }

    perfbench::setTracing(opt.trace);
    Report report;
    if (opt.workload == "emu")
        report = runEmu(opt);
    else if (opt.workload == "fleet")
        report = runFleet(opt);
    else if (opt.workload == "oracle")
        report = runOracle(opt);
    else if (opt.workload == "heap-sweep")
        report = runHeapSweep(opt);
    else
        return usage();
    perfbench::setTracing(false);

    if (opt.trace && !opt.trace_out.empty() &&
        !perfbench::writeSpans(opt.trace_out, perfbench::collectSpans()))
        report.problems.push_back("cannot write " + opt.trace_out);
    emit(opt, report);
    return 0;
}
