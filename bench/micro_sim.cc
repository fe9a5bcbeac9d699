/**
 * @file
 * Google-benchmark microbenchmarks of the reproduction's own machinery:
 * BFP quantization, uniform weight draws, functional mv_mul,
 * compilation, the timing simulator's throughput in simulated timesteps
 * per host second, and span-tree recording.
 */

#include <benchmark/benchmark.h>

#include "bw/bw.h"

namespace bw {
namespace {

void
BM_BfpQuantizeBlock(benchmark::State &state)
{
    Rng rng(1);
    FVec v(static_cast<size_t>(state.range(0)));
    fillUniform(v, rng);
    BfpFormat fmt = bfp152();
    for (auto _ : state) {
        BfpBlock b(v, fmt);
        benchmark::DoNotOptimize(b);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BfpQuantizeBlock)->Arg(128)->Arg(400);

void
BM_Float16RoundTrip(benchmark::State &state)
{
    Rng rng(2);
    FVec v(1024);
    fillUniform(v, rng, -100.0f, 100.0f);
    for (auto _ : state) {
        float acc = 0;
        for (float x : v)
            acc += roundToHalf(x);
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_Float16RoundTrip);

/// Weight generation: 1M uniform floats one state block at a time, and
/// the same draws one scalar call each.
constexpr size_t kUniformDraws = 1 << 20;

void
BM_FillUniformF(benchmark::State &state)
{
    Rng rng(3);
    FVec v(kUniformDraws);
    for (auto _ : state) {
        rng.fillUniformF(v, -0.1f, 0.1f);
        benchmark::DoNotOptimize(v.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * kUniformDraws);
}
BENCHMARK(BM_FillUniformF);

void
BM_UniformF(benchmark::State &state)
{
    Rng rng(3);
    FVec v(kUniformDraws);
    for (auto _ : state) {
        for (float &x : v)
            x = rng.uniformF(-0.1f, 0.1f);
        benchmark::DoNotOptimize(v.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * kUniformDraws);
}
BENCHMARK(BM_UniformF);

NpuConfig
microConfig()
{
    NpuConfig c;
    c.name = "micro";
    c.nativeDim = 64;
    c.lanes = 16;
    c.tileEngines = 4;
    c.mrfSize = 256;
    c.mrfIndexSpace = 1024;
    c.initialVrfSize = 128;
    c.addSubVrfSize = 128;
    c.multiplyVrfSize = 128;
    c.precision = BfpFormat{1, 5, 5};
    return c;
}

void
BM_FunctionalMvMul(benchmark::State &state)
{
    NpuConfig cfg = microConfig();
    FuncMachine m(cfg);
    Rng rng(3);
    FMat w(64, 64);
    fillUniform(w, rng);
    m.loadMrfTile(0, w);
    FVec x(64);
    fillUniform(x, rng);
    m.loadVrf(MemId::InitialVrf, 0, x);
    ProgramBuilder b;
    b.vRd(MemId::InitialVrf, 0).mvMul(0).vWr(MemId::InitialVrf, 1);
    Program p = b.build();
    for (auto _ : state)
        m.run(p);
    state.SetItemsProcessed(state.iterations() * 64 * 64 * 2);
}
BENCHMARK(BM_FunctionalMvMul);

void
BM_CompileLstm(benchmark::State &state)
{
    NpuConfig cfg = NpuConfig::bwS10();
    Rng rng(4);
    LstmWeights w =
        randomLstmWeights(static_cast<unsigned>(state.range(0)),
                          static_cast<unsigned>(state.range(0)), rng);
    GirGraph g = makeLstm(w);
    for (auto _ : state) {
        CompiledModel m = compileGir(g, cfg);
        benchmark::DoNotOptimize(m);
    }
}
BENCHMARK(BM_CompileLstm)->Arg(512)->Arg(2048);

void
BM_TimingSimGruStep(benchmark::State &state)
{
    // Simulated RNN timesteps per host second — the simulator's
    // headline speed metric.
    NpuConfig cfg = NpuConfig::bwS10();
    Rng rng(5);
    CompiledModel m = compileGir(
        makeGru(randomGruWeights(static_cast<unsigned>(state.range(0)),
                                 static_cast<unsigned>(state.range(0)),
                                 rng)),
        cfg);
    timing::NpuTiming sim(cfg);
    sim.setTileBeats(m.tileBeats);
    for (auto _ : state) {
        auto res = sim.run(m.prologue, m.step, 50);
        benchmark::DoNotOptimize(res.totalCycles);
    }
    state.SetItemsProcessed(state.iterations() * 50);
}
BENCHMARK(BM_TimingSimGruStep)->Arg(1024)->Arg(2816);

void
BM_TimingSimResnet50(benchmark::State &state)
{
    NpuConfig cfg = NpuConfig::bwCnnA10();
    ConvNetPlan plan = planConvNet(resnet50Convs(), cfg);
    timing::NpuTiming sim(cfg);
    sim.setTileBeats(plan.tileBeats);
    for (auto _ : state) {
        auto res = sim.run(plan.program, 1);
        benchmark::DoNotOptimize(res.totalCycles);
    }
}
BENCHMARK(BM_TimingSimResnet50);

void
BM_AssembleDisassemble(benchmark::State &state)
{
    NpuConfig cfg = NpuConfig::bwS10();
    Rng rng(6);
    CompiledModel m =
        compileGir(makeLstm(randomLstmWeights(2048, 2048, rng)), cfg);
    std::string text = disassemble(m.step);
    for (auto _ : state) {
        Program p = assemble(text);
        benchmark::DoNotOptimize(p);
    }
    state.SetItemsProcessed(state.iterations() * m.step.size());
}
BENCHMARK(BM_AssembleDisassemble);

void
BM_SpanTreeRecord(benchmark::State &state)
{
    // One sampled cluster request: route root, one hedge over a served
    // 4-span request tree, and 20 chain leaves — 26 spans, one claim.
    std::vector<obs::ChainProfile> profiles(20);
    for (size_t i = 0; i < profiles.size(); ++i) {
        obs::ChainProfile &p = profiles[i];
        p.chain = static_cast<uint32_t>(4 * i);
        p.kind = i % 2 ? 'M' : 'V';
        p.dispatchStart = 100 * i;
        p.dispatchDone = p.dispatchStart + 10;
        p.decodeDone = p.dispatchStart + 20;
        p.done = p.dispatchStart + 90;
        p.dataStall = 7;
    }
    obs::ChainSpans chains = obs::makeChainSpans(profiles, 2000);
    obs::SpanTracer tracer;
    obs::SpanTree tree;
    tree.routed = true;
    tree.route.admitUs = 1000;
    tree.route.doneUs = 4000;
    tree.hedged = true;
    obs::SpanAttempt &at = tree.attempt[0];
    at.request.admitUs = 1000;
    at.request.dequeueUs = at.request.serviceUs = 1500;
    at.request.doneUs = 4000;
    at.chains = &chains;
    obs::TraceId trace = 0;
    for (auto _ : state) {
        tree.trace = ++trace;
        obs::recordSpanTree(tracer, tree);
    }
    benchmark::DoNotOptimize(tracer.recorded());
    state.SetItemsProcessed(static_cast<int64_t>(tracer.recorded()));
}
BENCHMARK(BM_SpanTreeRecord);

} // namespace
} // namespace bw
