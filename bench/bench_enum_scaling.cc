/**
 * @file
 * State-space scaling ablation.
 *
 * The paper observes that "the mutual stalling of FSMs prevents the
 * exponential explosion in states that would be expected based on
 * the number of state bits" (Section 3.2). This bench sweeps the
 * model's abstraction knobs — line length (refill counter depth),
 * dual issue, branches, WB tracking, alignment — and reports
 * reachable states vs the 2^bits upper bound for each point.
 *
 * `--json <path>` additionally writes every row as JSON (see README;
 * CI uses BENCH_enum.json).
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "bench_util.hh"
#include "hdl/corpus.hh"
#include "murphi/enumerator.hh"
#include "rtl/pp_fsm_model.hh"
#include "support/strings.hh"
#include "support/timer.hh"

using namespace archval;

namespace
{

void
measure(const char *label, const rtl::PpConfig &config,
        bench::JsonWriter &json)
{
    rtl::PpFsmModel model(config);
    murphi::Enumerator enumerator(model);
    auto graph = enumerator.runOrThrow();
    const auto &stats = enumerator.stats();
    double density =
        100.0 * double(stats.numStates) /
        std::pow(2.0, double(stats.bitsPerState));
    std::printf("%-34s %5zu %12s %14s %9.1f %12.5f%%\n", label,
                stats.bitsPerState,
                withCommas(stats.numStates).c_str(),
                withCommas(stats.numEdges).c_str(),
                stats.cpuSeconds, density);
    json.beginRow();
    json.add("kind", "ablation");
    json.add("configuration", label);
    json.add("bits_per_state", (uint64_t)stats.bitsPerState);
    json.add("states", stats.numStates);
    json.add("edges", stats.numEdges);
    // Exact in bench_diff: a step that drops or duplicates a tuple
    // moves it even where FirstCondition recording hides the fault
    // from the edge count.
    json.add("transitions_valid", stats.transitionsValid);
    json.add("cpu_seconds", stats.cpuSeconds);
    json.add("density_percent", density);
}

/** FNV-1a over every observable byte of the graph. */
uint64_t
graphFingerprint(const graph::StateGraph &graph)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint64_t value) {
        for (int i = 0; i < 8; ++i) {
            h ^= (value >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    mix(graph.numStates());
    for (graph::EdgeId e = 0; e < graph.numEdges(); ++e) {
        const graph::Edge &edge = graph.edge(e);
        mix(edge.src);
        mix(edge.dst);
        mix(edge.choiceCode);
        mix(edge.instrCount);
    }
    for (graph::StateId s = 0; s < graph.numStates(); ++s) {
        const BitVec packed = graph.packedState(s);
        for (size_t b = 0; b < packed.numBits(); ++b)
            mix(packed.get(b));
    }
    return h;
}

/**
 * Out-of-core sweep on the largest HDL corpus design: each residency
 * budget's run differenced against the unbounded in-memory graph.
 * The bench_diff gate holds the tight-budget rows to `identical` and
 * `residency_under_budget` exactly — completing the design inside
 * the budget is the headline claim, not a drift-gated metric. The
 * budget sits below the design's 24 KiB table, so the row pages.
 * @return false when the design does not translate or a budgeted
 * row paged nothing out.
 */
bool
oocSweep(bench::JsonWriter &json)
{
    const hdl::CorpusDesign &design = hdl::largestCorpusDesign();
    auto translated = hdl::translateCorpus(design);
    if (!translated.ok()) {
        std::fprintf(stderr, "corpus translation failed: %s\n",
                     translated.errorMessage().c_str());
        return false;
    }
    const fsm::Model &model = *translated.value().model;

    std::printf("\nout-of-core sweep on %s (budget):\n", design.name);
    std::printf("%10s %12s %11s %9s %9s %10s %10s\n", "budget KiB",
                "states", "spill B", "pg out", "pg in", "resident",
                "identical");

    bool paged = true;
    uint64_t base_fingerprint = 0;
    for (size_t budget_kb : {size_t(0), size_t(4)}) {
        murphi::EnumOptions options;
        options.memoryBudgetBytes = budget_kb * 1024;
        murphi::Enumerator enumerator(model, options);
        WallTimer timer;
        auto graph = enumerator.runOrThrow();
        double seconds = timer.seconds();
        const auto &stats = enumerator.stats();
        uint64_t fp = graphFingerprint(graph);
        if (budget_kb == 0)
            base_fingerprint = fp;
        const bool identical = fp == base_fingerprint;
        const bool under_budget =
            options.memoryBudgetBytes == 0 ||
            (stats.residencyHighWaterBytes <=
                 options.memoryBudgetBytes &&
             stats.spillFallbacks == 0);
        std::printf("%10zu %12s %11s %9s %9s %10s %10s\n", budget_kb,
                    withCommas(graph.numStates()).c_str(),
                    withCommas(stats.spillBytesWritten).c_str(),
                    withCommas(stats.pageOuts).c_str(),
                    withCommas(stats.pageIns).c_str(),
                    under_budget ? "yes" : "OVER",
                    identical ? "yes" : "NO");
        json.beginRow();
        json.add("kind", "ooc_sweep");
        json.add("design", design.name);
        json.add("budget_kb", (uint64_t)budget_kb);
        json.add("states", (uint64_t)graph.numStates());
        json.add("edges", (uint64_t)graph.numEdges());
        json.add("wall_seconds", seconds);
        json.add("identical", identical);
        json.add("spill_bytes", stats.spillBytesWritten);
        json.add("page_ins", stats.pageIns);
        json.add("page_outs", stats.pageOuts);
        json.add("residency_high_water",
                 (uint64_t)stats.residencyHighWaterBytes);
        json.add("spill_fallbacks", stats.spillFallbacks);
        json.add("residency_under_budget", under_budget);
        json.add("largest", true);
        if (budget_kb > 0 && stats.pageOuts == 0) {
            std::fprintf(stderr,
                         "the %zu KiB budget paged nothing out\n",
                         budget_kb);
            paged = false;
        }
    }
    return paged;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::banner("Enumeration scaling",
                  "Reachable states vs abstraction detail");

    std::printf("\n%-34s %5s %12s %14s %9s %13s\n", "configuration",
                "bits", "states", "edges", "cpu s",
                "2^bits density");

    bench::JsonWriter json("enum_scaling");

    rtl::PpConfig base = rtl::PpConfig::smallPreset();
    measure("small: L=2, single-issue", base, json);

    rtl::PpConfig l4 = base;
    l4.lineWords = 4;
    measure("L=4 (deeper refill counters)", l4, json);

    rtl::PpConfig dual = l4;
    dual.dualIssue = true;
    measure("+ dual issue", dual, json);

    rtl::PpConfig branches = dual;
    branches.modelBranches = true;
    measure("+ squashing branches", branches, json);

    rtl::PpConfig wb = branches;
    wb.modelWbStage = true;
    measure("+ WB-stage tracking", wb, json);

    rtl::PpConfig align = wb;
    align.modelAlignment = true;
    measure("+ fetch alignment (full preset)", align, json);

    rtl::PpConfig l8 = align;
    l8.lineWords = 8;
    if (std::getenv("ARCHVAL_SCALING_L8"))
        measure("full with L=8", l8, json);

    const bool ooc_ok = oocSweep(json);

    std::printf(
        "\nshape: every knob multiplies raw state bits, yet "
        "reachable density keeps\nfalling — the FSMs' interlocks "
        "(single memory port, mutual stalls) keep the\nproduct "
        "space mostly unreachable, exactly the paper's "
        "observation.\n");

    std::string path = bench::jsonPath(argc, argv);
    if (!json.write(path)) {
        std::fprintf(stderr, "failed to write %s\n", path.c_str());
        return 1;
    }
    return ooc_ok ? 0 : 1;
}
