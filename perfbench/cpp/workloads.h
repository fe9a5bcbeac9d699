/**
 * @file
 * The benchmark's workloads and the report each run produces.
 *
 * Every workload follows one shape: set up, run one untimed check pass
 * (schema validation, reference comparisons; lazy caches fill), then
 * timed passes until the time budget is spent. Each pass starts from
 * freshly set-up state, so every pass's simulated outputs must digest
 * identically to the check pass's.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "probe.h"

namespace perfbench {

struct RunOptions
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10;
    bool trace = false;
    std::string outDir = ".";
};

/** Raw results of one run; run.py turns them into metrics. */
struct Report
{
    std::vector<double> setupS;
    /** One object of named host-time samples per timed pass. */
    std::vector<bw::Json> passes;
    /** Check-pass digests of every simulated output, by name. */
    std::map<std::string, std::string> digests;
    /** Per-layer values that are not span durations (counts, ratios,
     *  tax rows). */
    bw::Json layers = bw::Json::object();
    /** Peak RSS, KiB, over the set-ups and the first kRssPasses timed
     *  passes: a fixed amount of work, so rare heap-fragmentation peaks
     *  in long runs do not move it. */
    long peakRssKb = 0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> failures;

    /** Record one timed pass (and the peak RSS once enough have run). */
    void addPass(bw::Json sample);

    /** Count one check; record @p what when it did not hold. */
    void check(bool ok, const std::string &what);

    /** Check-pass digests on the first call; later passes must match. */
    void digestPass(const std::map<std::string, std::string> &d);

    bw::Json toJson() const;
};

/** Timed passes the reported peak RSS covers (also the minimum number
 *  of timed passes a run makes). */
constexpr size_t kRssPasses = 3;

/** Derive an independent 64-bit stream seed from the workload seed. */
uint64_t deriveSeed(uint64_t seed, uint64_t salt);

Report runFleetStream(const RunOptions &opts, Tracer *tracer);
Report runFleetReplay(const RunOptions &opts, Tracer *tracer);
Report runNpuModels(const RunOptions &opts, Tracer *tracer);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
