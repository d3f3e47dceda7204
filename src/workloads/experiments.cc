#include "workloads/experiments.h"

#include <iterator>

#include "models/limit_models.h"
#include "support/logging.h"
#include "support/parallel.h"
#include "trace/profile.h"
#include "workloads/profile_context.h"

namespace cheri::workloads
{

namespace
{

models::Overheads
meanOverheads(const std::vector<models::Overheads> &all)
{
    models::Overheads mean;
    if (all.empty())
        return mean;
    for (const models::Overheads &o : all) {
        mean.pages += o.pages;
        mean.traffic_bytes += o.traffic_bytes;
        mean.refs += o.refs;
        mean.instr_optimistic += o.instr_optimistic;
        mean.instr_pessimistic += o.instr_pessimistic;
        mean.syscalls += o.syscalls;
    }
    double n = static_cast<double>(all.size());
    mean.pages /= n;
    mean.traffic_bytes /= n;
    mean.refs /= n;
    mean.instr_optimistic /= n;
    mean.instr_pessimistic /= n;
    return mean;
}

} // namespace

LimitStudyResult
runLimitStudy(bool paper_scale)
{
    LimitStudyResult result;
    std::vector<trace::TraceProfile> profiles;

    for (const auto &workload : oldenSuite()) {
        result.workloads.push_back(workload->name());
        // Streaming profiler: O(1) memory per event, so the paper's
        // full benchmark parameters fit comfortably.
        ProfileContext ctx;
        WorkloadParams params = paper_scale ? workload->paperParams()
                                            : workload->defaultParams();
        workload->run(ctx, params);
        profiles.push_back(ctx.profile());
    }

    for (const auto &model : models::limitStudyModels()) {
        LimitStudyModelResult row;
        row.model = model->name();
        for (const trace::TraceProfile &profile : profiles)
            row.per_workload.push_back(model->evaluate(profile));
        row.mean = meanOverheads(row.per_workload);
        result.models.push_back(std::move(row));
    }
    return result;
}

namespace
{

FpgaComparisonEntry::PerModel
runTimed(const Workload &workload, const WorkloadParams &params,
         CompileModel model, core::MachineConfig config)
{
    TimingContext ctx(model, config);
    FpgaComparisonEntry::PerModel result;
    result.checksum = workload.run(ctx, params);
    result.alloc = ctx.allocPhase();
    result.compute = ctx.computePhase();
    return result;
}

core::MachineConfig
timingMachineConfig(bool paper_scale)
{
    core::MachineConfig config;
    if (paper_scale)
        config.dram_bytes = 512ULL * 1024 * 1024;
    return config;
}

} // namespace

std::vector<FpgaComparisonEntry>
runFpgaComparison(bool paper_scale)
{
    std::vector<FpgaComparisonEntry> results;
    core::MachineConfig config = timingMachineConfig(paper_scale);

    for (const auto &workload : fpgaBenchmarks()) {
        FpgaComparisonEntry entry;
        entry.benchmark = workload->name();
        WorkloadParams params = paper_scale ? workload->paperParams()
                                            : workload->defaultParams();
        entry.mips = runTimed(*workload, params, CompileModel::kMips,
                              config);
        entry.ccured = runTimed(*workload, params, CompileModel::kCcured,
                                config);
        entry.cheri = runTimed(*workload, params, CompileModel::kCheri,
                               config);
        if (entry.mips.checksum != entry.cheri.checksum ||
            entry.mips.checksum != entry.ccured.checksum) {
            support::panic(
                "%s: checksums diverge across compilation models",
                entry.benchmark.c_str());
        }
        results.push_back(std::move(entry));
    }
    return results;
}

std::vector<CapSizeAblationEntry>
runCapSizeAblation(bool paper_scale)
{
    std::vector<CapSizeAblationEntry> results;
    core::MachineConfig config = timingMachineConfig(paper_scale);

    for (const auto &workload : fpgaBenchmarks()) {
        CapSizeAblationEntry entry;
        entry.benchmark = workload->name();
        WorkloadParams params = paper_scale ? workload->paperParams()
                                            : workload->defaultParams();
        auto mips = runTimed(*workload, params, CompileModel::kMips,
                             config);
        auto c256 = runTimed(*workload, params, CompileModel::kCheri,
                             config);
        auto c128 = runTimed(*workload, params,
                             CompileModel::kCheri128, config);
        if (mips.checksum != c256.checksum ||
            mips.checksum != c128.checksum) {
            support::panic("%s: checksum divergence in ablation",
                           entry.benchmark.c_str());
        }
        entry.mips_cycles = mips.alloc.cycles + mips.compute.cycles;
        entry.cheri256_cycles = c256.alloc.cycles + c256.compute.cycles;
        entry.cheri128_cycles = c128.alloc.cycles + c128.compute.cycles;
        results.push_back(std::move(entry));
    }
    return results;
}

std::vector<HeapScalingSeries>
runHeapScaling(const std::vector<std::uint64_t> &heap_kb)
{
    const std::vector<std::unique_ptr<Workload>> workloads =
        fpgaBenchmarks();
    const CompileModel models[] = {CompileModel::kMips,
                                   CompileModel::kCheri};
    constexpr std::size_t kModels = std::size(models);
    core::MachineConfig config; // default machine: 16K/64K caches

    // One cell per (benchmark, heap, model), each on its own
    // TimingContext; the workloads are shared read-only.
    std::vector<FpgaComparisonEntry::PerModel> cells =
        support::parallelMapOrdered<FpgaComparisonEntry::PerModel>(
            workloads.size() * heap_kb.size() * kModels,
            support::defaultJobs(), [&](std::size_t index, unsigned) {
                std::size_t point = index / kModels;
                const Workload &workload =
                    *workloads[point / heap_kb.size()];
                WorkloadParams params = workload.paramsForHeapBytes(
                    heap_kb[point % heap_kb.size()] * 1024);
                return runTimed(workload, params, models[index % kModels],
                                config);
            });

    std::vector<HeapScalingSeries> results;
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        HeapScalingSeries series;
        series.benchmark = workloads[w]->name();
        for (std::size_t h = 0; h < heap_kb.size(); ++h) {
            const FpgaComparisonEntry::PerModel &mips =
                cells[(w * heap_kb.size() + h) * kModels];
            const FpgaComparisonEntry::PerModel &cheri =
                cells[(w * heap_kb.size() + h) * kModels + 1];
            if (mips.checksum != cheri.checksum)
                support::panic("%s: checksum divergence in heap sweep",
                               series.benchmark.c_str());
            double mips_cycles = static_cast<double>(
                mips.alloc.cycles + mips.compute.cycles);
            double cheri_cycles = static_cast<double>(
                cheri.alloc.cycles + cheri.compute.cycles);
            double slowdown =
                mips_cycles > 0.0 ? cheri_cycles / mips_cycles - 1.0
                                  : 0.0;
            series.points.emplace_back(heap_kb[h], slowdown);
        }
        results.push_back(std::move(series));
    }
    return results;
}

} // namespace cheri::workloads
