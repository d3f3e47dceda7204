/**
 * @file
 * In-memory span recorder for the benchmark's traced runs. Spans are
 * opened in the benchmark's own code around each call into an
 * emulator module, so the per-layer split needs no instrumentation
 * inside the libraries. Each thread appends to its own buffer; the
 * buffers are read only after every worker has been joined.
 */

#ifndef CHERI_PERFBENCH_TRACE_H
#define CHERI_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench
{

/** Monotonic host time in nanoseconds. */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Every span boundary the benchmark records. The prefix before the
 *  dot names the repository module (layer) the call goes into;
 *  "bench" is the benchmark's own code. */
enum class SpanName : std::uint8_t
{
    kSetup,          ///< bench.setup: one set-up repetition (root)
    kRequest,        ///< bench.request: one request (root)
    kQuantum,        ///< bench.quantum: one fleet scheduling slice (root)
    kCpuRun,         ///< core.cpu_run: Cpu::run
    kFork,           ///< core.fork: Machine::fork
    kTeardown,       ///< core.teardown: Machine destruction
    kMachineNew,     ///< core.machine_new: Machine construction
    kCoreLoad,       ///< core.load: Machine::loadProgram/mapRange/reset
    kLoad,           ///< workloads.load: guest program build + load
    kRun,            ///< workloads.run: Workload::run on a TimingContext
    kGen,            ///< check.gen: fuzz spec generation + assembly
    kLockstepSetup,  ///< check.lockstep_setup: Lockstep construction
    kLockstepRun,    ///< check.lockstep_run: Lockstep::runFor
    kLockstepSweep,  ///< check.lockstep_sweep: finalStateMatches
    kCount,
};

/** "layer.name" for a span, e.g. "core.fork". */
const char *spanName(SpanName name);

/** The layer ("core", "check", ...) a span's self time belongs to. */
std::string spanLayer(SpanName name);

/** One recorded span. parent indexes the same thread's buffer; -1
 *  marks a root. */
struct Span
{
    SpanName name = SpanName::kRequest;
    std::int32_t parent = -1;
    std::uint64_t request = 0;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
};

/** Turn recording on or off. Call only while no worker is running. */
void setTracing(bool enabled);
bool tracing();

/** Every thread's spans, one vector per thread that recorded any. */
std::vector<std::vector<Span>> collectSpans();

/**
 * Records one span for the lifetime of the object when tracing is on;
 * costs one branch when it is off. Spans opened on one thread nest,
 * so the innermost open span becomes the parent.
 */
class ScopedSpan
{
  public:
    ScopedSpan(SpanName name, std::uint64_t request);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    std::int32_t index_ = -1;
};

/** Write every span as tab-separated text (thread, index, name,
 *  parent, request, start_ns, end_ns); false when the file cannot be
 *  written. */
bool writeSpans(const std::string &path,
                const std::vector<std::vector<Span>> &threads);

} // namespace perfbench

#endif // CHERI_PERFBENCH_TRACE_H
