#include "trace.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench
{

namespace
{

constexpr const char *kSpanNames[] = {
    "bench.setup",          "bench.request",
    "bench.quantum",        "core.cpu_run",
    "core.fork",            "core.teardown",
    "core.machine_new",     "core.load",
    "workloads.load",       "workloads.run",
    "check.gen",            "check.lockstep_setup",
    "check.lockstep_run",   "check.lockstep_sweep",
};
static_assert(sizeof(kSpanNames) / sizeof(kSpanNames[0]) ==
              static_cast<std::size_t>(SpanName::kCount));

std::atomic<bool> g_tracing{false};

/** A thread's spans plus the stack of its open ones. */
struct ThreadBuffer
{
    std::vector<Span> spans;
    std::vector<std::int32_t> open;
};

std::mutex g_buffers_mutex;
/** Guarded by g_buffers_mutex; buffers outlive their threads so the
 *  spans of joined workers can still be collected. */
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;

ThreadBuffer &
threadBuffer()
{
    thread_local ThreadBuffer *buffer = nullptr;
    if (buffer == nullptr) {
        std::lock_guard<std::mutex> lock(g_buffers_mutex);
        g_buffers.push_back(std::make_unique<ThreadBuffer>());
        buffer = g_buffers.back().get();
        buffer->spans.reserve(1 << 16);
    }
    return *buffer;
}

} // namespace

const char *
spanName(SpanName name)
{
    return kSpanNames[static_cast<std::size_t>(name)];
}

std::string
spanLayer(SpanName name)
{
    std::string full = spanName(name);
    return full.substr(0, full.find('.'));
}

void
setTracing(bool enabled)
{
    g_tracing.store(enabled, std::memory_order_relaxed);
}

bool
tracing()
{
    return g_tracing.load(std::memory_order_relaxed);
}

std::vector<std::vector<Span>>
collectSpans()
{
    std::lock_guard<std::mutex> lock(g_buffers_mutex);
    std::vector<std::vector<Span>> out;
    for (const auto &buffer : g_buffers)
        if (!buffer->spans.empty())
            out.push_back(buffer->spans);
    return out;
}

ScopedSpan::ScopedSpan(SpanName name, std::uint64_t request)
{
    if (!tracing())
        return;
    ThreadBuffer &buffer = threadBuffer();
    Span span;
    span.name = name;
    span.parent = buffer.open.empty() ? -1 : buffer.open.back();
    span.request = request;
    index_ = static_cast<std::int32_t>(buffer.spans.size());
    buffer.spans.push_back(span);
    buffer.open.push_back(index_);
    buffer.spans.back().start_ns = nowNs();
}

ScopedSpan::~ScopedSpan()
{
    if (index_ < 0)
        return;
    std::uint64_t end = nowNs();
    ThreadBuffer &buffer = threadBuffer();
    buffer.spans[static_cast<std::size_t>(index_)].end_ns = end;
    buffer.open.pop_back();
}

bool
writeSpans(const std::string &path,
           const std::vector<std::vector<Span>> &threads)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "thread\tindex\tname\tparent\trequest\tstart_ns\t"
                    "end_ns\n");
    for (std::size_t t = 0; t < threads.size(); ++t) {
        for (std::size_t i = 0; i < threads[t].size(); ++i) {
            const Span &s = threads[t][i];
            std::fprintf(f, "%zu\t%zu\t%s\t%d\t%llu\t%llu\t%llu\n", t, i,
                         spanName(s.name), s.parent,
                         static_cast<unsigned long long>(s.request),
                         static_cast<unsigned long long>(s.start_ns),
                         static_cast<unsigned long long>(s.end_ns));
        }
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench
