/**
 * @file
 * npu_models: the paper-reproduction path. The eleven Table V DeepBench
 * layers on BW_S10 go through compileGir, CompiledModel::install (BFP
 * quantization into MRF tiles), a short runSequence checked against the
 * float GIR interpreter, and full-length timing on the cycle-accurate,
 * fast and cached tiers; ResNet-50 goes through planConvNet on
 * BW_CNN_A10 and the same three tiers. Weight generation is set-up.
 * The serving stack sits idle.
 */

#include <cctype>
#include <cmath>
#include <cstring>

#include "bw/bw.h"
#include "refmodel/gir_interp.h"
#include "workloads.h"

namespace perfbench {

using namespace bw;

namespace {

/** Functional steps per model: enough to run the pipelined prologue
 *  and carry recurrent state across steps. */
constexpr unsigned kFuncSteps = 3;

/** The BFP tolerance the compiler tests hold RNN outputs to. */
constexpr double kBfpTolerance = 0.03;

struct NpuModel
{
    paper::TableFiveRow row;
    GirGraph graph;
    std::vector<FVec> xs;
};

struct NpuSetup
{
    std::vector<NpuModel> models;
    std::vector<ConvSpec> convs;
};

NpuSetup
setupNpu(uint64_t seed, Tracer *t)
{
    Scope s(t, "setup");
    NpuSetup n;
    Scope w(t, "weights");
    std::vector<paper::TableFiveRow> rows = paper::tableFive();
    for (size_t i = 0; i < rows.size(); ++i) {
        const RnnLayerSpec &l = rows[i].layer;
        Rng rng(deriveSeed(seed, 100 + i));
        unsigned in = l.inputDim ? l.inputDim : l.hidden;
        NpuModel m{rows[i],
                   l.kind == RnnKind::Lstm
                       ? makeLstm(randomLstmWeights(l.hidden, in, rng))
                       : makeGru(randomGruWeights(l.hidden, in, rng)),
                   {}};
        for (unsigned k = 0; k < kFuncSteps; ++k) {
            FVec x(in);
            fillUniform(x, rng, -0.5f, 0.5f);
            m.xs.push_back(std::move(x));
        }
        n.models.push_back(std::move(m));
    }
    n.convs = resnet50Convs();
    return n;
}

bool
sameTiming(const timing::TimingResult &a, const timing::TimingResult &b)
{
    return a.totalCycles == b.totalCycles &&
           a.instructionsDispatched == b.instructionsDispatched &&
           a.chainsExecuted == b.chainsExecuted &&
           a.iterationEnd == b.iterationEnd;
}

/** Host seconds in the simulators over one pass, and the work counts
 *  the per-layer rates divide by. */
struct PhaseTimes
{
    double func = 0, cycle = 0, fast = 0, cached = 0;
    uint64_t installElems = 0, funcMacs = 0, cycleInstr = 0;
};

/** Run the three timing tiers on one program; returns the
 *  cycle-accurate result. */
timing::TimingResult
timeTiers(const NpuConfig &cfg, const Program &prologue,
          const Program &step, unsigned iterations,
          const std::unordered_map<uint32_t, unsigned> &beats, Tracer *t,
          PhaseTimes *pt, Report *rep, const std::string &what)
{
    timing::TimingResult exact, fast;
    uint64_t a = nowNs();
    {
        Scope s(t, "CycleAccurateModel::run");
        timing::CycleAccurateModel m(cfg);
        m.setTileBeats(beats);
        exact = m.run(prologue, step, iterations);
    }
    uint64_t b = nowNs();
    {
        Scope s(t, "EventDrivenModel::run");
        timing::EventDrivenModel m(cfg);
        m.setTileBeats(beats);
        fast = m.run(prologue, step, iterations);
    }
    uint64_t c = nowNs();
    timing::MemoTimingModel memo(
        std::make_unique<timing::CycleAccurateModel>(cfg));
    memo.setTileBeats(beats);
    timing::ProfiledRun miss, hit;
    {
        Scope s(t, "MemoTimingModel::runShared(miss)");
        miss = memo.runShared(prologue, step, iterations);
    }
    {
        Scope s(t, "MemoTimingModel::runShared(hit)");
        hit = memo.runShared(prologue, step, iterations);
    }
    uint64_t d = nowNs();
    pt->cycle += (b - a) * 1e-9;
    pt->fast += (c - b) * 1e-9;
    pt->cached += (d - c) * 1e-9;
    pt->cycleInstr += exact.instructionsDispatched;
    rep->check(sameTiming(fast, exact),
               what + ": fast tier cycles differ from cycle-accurate");
    rep->check(sameTiming(miss.result, exact) &&
                   sameTiming(hit.result, exact) && memo.hits() == 1,
               what + ": cached tier differs from cycle-accurate");
    return exact;
}

/** Metric-safe row name, e.g. "gru_h2816_t750". */
std::string
rowKey(const RnnLayerSpec &l)
{
    std::string k = rnnKindName(l.kind);
    for (char &ch : k)
        ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
    return k + "_h" + std::to_string(l.hidden) + "_t" +
           std::to_string(l.timeSteps);
}

std::string
vecBytes(const FVec &v)
{
    std::string s(v.size() * sizeof(float), '\0');
    std::memcpy(s.data(), v.data(), s.size());
    return s;
}

/**
 * Check pass only: BW_S10 keeps weights in 1s.5e.2m BFP, for which the
 * repo fixes no output tolerance (its 0.03 bound is for the 7-bit
 * mantissa format). So the lowering is checked against the float GIR
 * interpreter on that format, and the narrow format's error against
 * the same reference is reported (its bytes are pinned by digest).
 */
void
checkFunctional(const NpuModel &m, const NpuConfig &cfg,
                const std::vector<FVec> &narrow_out, Report *rep)
{
    const RnnLayerSpec &l = m.row.layer;
    NpuConfig wide = cfg;
    wide.precision = BfpFormat{1, 5, 7};
    CompileOptions opts;
    opts.pipelineInputProjections = l.kind == RnnKind::Gru;
    CompiledModel wm = compileGir(m.graph, wide, opts);
    FuncMachine machine(wide);
    wm.install(machine);
    std::vector<FVec> out = wm.runSequence(machine, m.xs);
    GirInterpreter ref(m.graph);
    double worst = 0, narrow = 0;
    for (size_t k = 0; k < m.xs.size(); ++k) {
        FVec want = ref.step(m.xs[k]);
        worst = std::max(worst, maxAbsDiff(out[k], want));
        narrow = std::max(narrow,
                          measureQuantError(want, narrow_out[k]).relRmse);
    }
    rep->check(out.size() == m.xs.size() && worst < kBfpTolerance,
               l.label() + ": functional output off the float reference "
                           "by " + std::to_string(worst));
    const Json *prev = rep->layers.find("func.bfp152_rel_rmse");
    rep->layers.set("func.bfp152_rel_rmse",
                    std::max(narrow, prev ? prev->asDouble() : 0.0));
}

/** compile -> install -> runSequence -> the three timing tiers for one
 *  model; returns the functional outputs and sets @p exact. */
std::vector<FVec>
modelPass(const NpuModel &m, const NpuConfig &cfg, Tracer *t,
          PhaseTimes *pt, Report *rep, timing::TimingResult *exact)
{
    const RnnLayerSpec &l = m.row.layer;
    CompiledModel cm = [&] {
        Scope s(t, "compileGir");
        CompileOptions opts;
        opts.pipelineInputProjections = l.kind == RnnKind::Gru;
        return compileGir(m.graph, cfg, opts);
    }();
    FuncMachine machine(cfg);
    {
        Scope s(t, "CompiledModel::install");
        cm.install(machine);
    }
    uint64_t a = nowNs();
    std::vector<FVec> out;
    {
        Scope s(t, "runSequence");
        out = cm.runSequence(machine, m.xs);
    }
    pt->func += secondsSince(a);
    for (const WeightPlacement &w : cm.weights)
        pt->installElems +=
            static_cast<uint64_t>(w.logicalRows) * w.logicalCols;
    // MACs from shapes: matmul ops count a multiply and an add.
    pt->funcMacs += cm.matmulOpsPerStep / 2 * m.xs.size();
    *exact = timeTiers(cfg, cm.prologue, cm.step, l.timeSteps, cm.tileBeats,
                       t, pt, rep, l.label());
    return out;
}

std::map<std::string, std::string>
npuPass(const NpuSetup &n, Tracer *t, bool check, Report *rep,
        Json *sample)
{
    Scope pass(t, "pass");
    PhaseTimes pt;
    Digest cycles_d, func_d;
    Json paper_err = Json::object();
    NpuConfig cfg = NpuConfig::bwS10();

    uint64_t t0 = nowNs();
    for (const NpuModel &m : n.models) {
        Scope model(t, "model");
        timing::TimingResult exact;
        std::vector<FVec> out = modelPass(m, cfg, t, &pt, rep, &exact);
        for (const FVec &y : out)
            func_d.add(vecBytes(y));
        const RnnLayerSpec &l = m.row.layer;
        cycles_d.add(l.label() + ":" + std::to_string(exact.totalCycles) +
                     ":" + std::to_string(exact.instructionsDispatched) +
                     ";");
        double ms = cyclesToMs(exact.totalCycles, cfg.clockMhz);
        paper_err.set(rowKey(l), 100.0 * (ms - m.row.bwMs) / m.row.bwMs);
        if (check)
            checkFunctional(m, cfg, out, rep);
    }
    {
        NpuConfig cnn = NpuConfig::bwCnnA10();
        ConvNetPlan plan = [&] {
            Scope s(t, "planConvNet");
            return planConvNet(n.convs, cnn);
        }();
        timing::TimingResult exact = timeTiers(
            cnn, Program(), plan.program, 1, plan.tileBeats, t, &pt, rep,
            "resnet50");
        cycles_d.add("resnet50:" + std::to_string(exact.totalCycles) + ":" +
                     std::to_string(exact.instructionsDispatched) + ";");
    }
    double pass_s = secondsSince(t0);

    sample->set("pass_s", pass_s);
    sample->set("sim_s", pt.func + pt.cycle + pt.fast + pt.cached);
    sample->set("cycle_s", pt.cycle);
    sample->set("install_elems", pt.installElems);
    sample->set("func_macs", pt.funcMacs);
    sample->set("cycle_instr", pt.cycleInstr);

    std::map<std::string, std::string> dig;
    dig["cycles"] = cycles_d.hex();
    dig["func_outputs"] = func_d.hex();
    dig["paper_err_pct"] = digestOf(paper_err.dump());
    if (check)
        rep->layers.set("paper.tablev_err_pct", std::move(paper_err));
    return dig;
}

} // namespace

Report
runNpuModels(const RunOptions &opts, Tracer *tracer)
{
    Report rep;
    // Set-up is the expensive part of this workload, so it runs three
    // times (for the setup_s median) rather than once per pass; each pass
    // compiles fresh from the same graphs. The last set-up follows the
    // check pass, so the reported peak RSS covers a set-up and the timed
    // passes but not the check pass's extra compiles.
    auto setup = [&] {
        uint64_t t0 = nowNs();
        NpuSetup n = setupNpu(opts.seed, opts.trace ? tracer : nullptr);
        rep.setupS.push_back(secondsSince(t0));
        return n;
    };
    setup();
    {
        NpuSetup n = setup();
        Json sample = Json::object();
        rep.digestPass(npuPass(n, nullptr, true, &rep, &sample));
    }
    resetPeakRss();
    NpuSetup n = setup();
    uint64_t start = nowNs();
    for (size_t i = 0; rep.passes.size() < kRssPasses ||
                       secondsSince(start) < opts.seconds;
         ++i) {
        Tracer *t = opts.trace && i % 2 ? tracer : nullptr;
        Json sample = Json::object();
        sample.set("traced", t != nullptr);
        rep.digestPass(npuPass(n, t, false, &rep, &sample));
        rep.addPass(std::move(sample));
    }
    return rep;
}

} // namespace perfbench
