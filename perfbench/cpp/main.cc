/**
 * @file
 * perfbench: runs one benchmark workload and prints its raw results as
 * one JSON line on stdout (run.py turns them into metrics).
 *
 *   perfbench --workload fleet_stream|fleet_replay|npu_models
 *             --seed N --seconds S [--trace] [--out DIR]
 *
 * With --trace, every other timed pass runs under the span tracer, the
 * spans are written to DIR/spans-<workload>.json at exit, and
 * fleet_stream adds the observability-tax rows. Exit status is 0 when
 * every check held, 1 when one failed, 2 on bad arguments.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "probe.h"
#include "workloads.h"

namespace perfbench {

void
Report::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        if (failures.size() < 20)
            failures.push_back(what);
    }
}

void
Report::digestPass(const std::map<std::string, std::string> &d)
{
    if (digests.empty()) {
        digests = d;
        return;
    }
    for (const auto &[name, hex] : d)
        check(digests.count(name) && digests.at(name) == hex,
              "pass digest of " + name + " differs from the check pass");
}

void
Report::addPass(bw::Json sample)
{
    passes.push_back(std::move(sample));
    if (passes.size() == kRssPasses)
        peakRssKb = perfbench::peakRssKb();
}

bw::Json
Report::toJson() const
{
    bw::Json j = bw::Json::object();
    bw::Json setup = bw::Json::array();
    for (double s : setupS)
        setup.push(s);
    j.set("setup_s", std::move(setup));
    bw::Json ps = bw::Json::array();
    for (const bw::Json &p : passes)
        ps.push(p);
    j.set("passes", std::move(ps));
    bw::Json dig = bw::Json::object();
    for (const auto &[name, hex] : digests)
        dig.set(name, hex);
    j.set("digests", std::move(dig));
    j.set("layers", layers);
    j.set("peak_rss_kb", static_cast<int64_t>(peakRssKb));
    j.set("attempted", attempted);
    j.set("failed", failed);
    bw::Json fs = bw::Json::array();
    for (const std::string &f : failures)
        fs.push(f);
    j.set("failures", std::move(fs));
    return j;
}

uint64_t
deriveSeed(uint64_t seed, uint64_t salt)
{
    // splitmix64 of (seed, salt): independent streams per use.
    uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt * 0xbf58476d1ce4e5b9ull +
                 0x94d049bb133111ebull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace perfbench

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload fleet_stream|fleet_replay|"
                 "npu_models --seed N --seconds S [--trace] [--out DIR]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace perfbench;
    RunOptions opts;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        bool has_value = i + 1 < argc;
        if (a == "--workload" && has_value)
            opts.workload = argv[++i];
        else if (a == "--seed" && has_value)
            opts.seed = std::strtoull(argv[++i], nullptr, 10);
        else if (a == "--seconds" && has_value)
            opts.seconds = std::strtod(argv[++i], nullptr);
        else if (a == "--out" && has_value)
            opts.outDir = argv[++i];
        else if (a == "--trace")
            opts.trace = true;
        else
            return usage();
    }

    Tracer tracer;
    Report rep;
    try {
        if (opts.workload == "fleet_stream")
            rep = runFleetStream(opts, &tracer);
        else if (opts.workload == "fleet_replay")
            rep = runFleetReplay(opts, &tracer);
        else if (opts.workload == "npu_models")
            rep = runNpuModels(opts, &tracer);
        else
            return usage();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    bw::Json out = rep.toJson();
    out.set("workload", opts.workload);
    out.set("seed", opts.seed);
    if (opts.trace) {
        std::string path = opts.outDir + "/spans-" + opts.workload + ".json";
        bw::writeJsonFile(path, tracer.toJson());
        out.set("spans_file", path);
    }
    std::printf("%s\n", out.dump().c_str());
    return rep.failed ? 1 : 0;
}
