/**
 * @file
 * Coverage-efficiency comparison — the methodology's core claim.
 *
 * "Using the complete set of vectors maximizes the probability of
 * finding errors in the smallest amount of simulation time"
 * (Section 1). This bench plots arc coverage against simulated
 * instructions for transition-tour vectors versus uniform random
 * legal stimulus, and reports the long tail random testing leaves
 * uncovered.
 */

#include <cstdio>

#include "bench_util.hh"
#include "harness/baselines.hh"
#include "harness/coverage.hh"
#include "murphi/enumerator.hh"
#include "rtl/pp_fsm_model.hh"
#include "support/strings.hh"

using namespace archval;

int
main(int argc, char **argv)
{
    bench::banner("Coverage series",
                  "Arc coverage vs simulated instructions: tour vs "
                  "random");

    rtl::PpConfig config = bench::benchSimConfig();
    rtl::PpFsmModel model(config);
    murphi::Enumerator enumerator(model);
    auto graph = enumerator.runOrThrow();

    graph::TourGenerator tour_gen(graph);
    auto tours = tour_gen.run();

    // Sample the tour's coverage curve at fixed instruction steps.
    const uint64_t tour_budget = tour_gen.stats().totalInstructions;
    const unsigned points = 10;
    const uint64_t step = tour_budget / points + 1;

    harness::CoverageTracker tour_cov(graph);
    uint64_t next_sample = step;
    for (size_t t = 0; t < tours.size(); ++t) {
        for (graph::TraceCursor cursor = tours.cursor(graph, t);
             cursor.next();) {
            const graph::EdgeId e = cursor.edge();
            tour_cov.addEdge(e, graph.edge(e).instrCount);
            if (tour_cov.instructions() >= next_sample) {
                tour_cov.samplePoint();
                next_sample += step;
            }
        }
    }
    tour_cov.samplePoint();

    // Two random baselines at 16x the tour's budget: naturalistic
    // biased-random (the paper's baseline) and graph-uniform random
    // (an unrealistically strong randomizer that knows every event
    // is worth trying equally often).
    harness::CoverageTracker biased_cov(graph);
    {
        harness::BiasedWalker walker(model, graph, 17);
        uint64_t sample_at = step;
        while (biased_cov.instructions() < 16 * tour_budget) {
            auto walk = walker.walk(2'000);
            if (walk.edges.empty())
                break;
            for (graph::EdgeId e : walk.edges) {
                biased_cov.addEdge(e, graph.edge(e).instrCount);
                if (biased_cov.instructions() >= sample_at) {
                    biased_cov.samplePoint();
                    sample_at += step;
                }
            }
        }
        biased_cov.samplePoint();
    }

    harness::CoverageTracker rand_cov(graph);
    harness::RandomWalker walker(graph, 17);
    next_sample = step;
    while (rand_cov.instructions() < 16 * tour_budget) {
        auto walk = walker.walk(500);
        if (walk.edges.empty())
            break;
        for (graph::EdgeId e : walk.edges) {
            rand_cov.addEdge(e, graph.edge(e).instrCount);
            if (rand_cov.instructions() >= next_sample) {
                rand_cov.samplePoint();
                next_sample += step;
            }
        }
    }
    rand_cov.samplePoint();

    std::printf("\ngraph: %s states, %s edges; tour budget %s "
                "instructions\n",
                withCommas(graph.numStates()).c_str(),
                withCommas(graph.numEdges()).c_str(),
                withCommas(tour_budget).c_str());

    std::printf("\n%14s  %14s  %16s  %16s\n", "instructions",
                "tour", "biased random", "uniform random");
    const auto &tc = tour_cov.curve();
    const auto &bc = biased_cov.curve();
    const auto &rc = rand_cov.curve();
    size_t rows = std::max({tc.size(), bc.size(), rc.size()});
    auto pct = [&](const auto &curve, size_t i) -> std::string {
        if (i >= curve.size())
            return "-";
        return formatString("%6.2f%%", 100.0 * curve[i].coveredEdges /
                                           graph.numEdges());
    };
    for (size_t i = 0; i < rows; ++i) {
        std::string instrs =
            i < rc.size()   ? withCommas(rc[i].instructions)
            : i < bc.size() ? withCommas(bc[i].instructions)
                            : withCommas(tc[i].instructions);
        std::printf("%14s  %14s  %16s  %16s\n", instrs.c_str(),
                    pct(tc, i).c_str(), pct(bc, i).c_str(),
                    pct(rc, i).c_str());
    }

    uint64_t biased_uncovered =
        graph.numEdges() - biased_cov.coveredEdges();
    uint64_t uniform_uncovered =
        graph.numEdges() - rand_cov.coveredEdges();
    std::printf(
        "\nafter 16x the tour's budget, biased-random stimulus "
        "still leaves %s arcs\n(%.2f%%) unexercised and even "
        "graph-uniform random leaves %s (%.2f%%) — the\nimprobable "
        "corner-case interactions where multiple-event bugs hide.\n",
        withCommas(biased_uncovered).c_str(),
        100.0 * biased_uncovered / graph.numEdges(),
        withCommas(uniform_uncovered).c_str(),
        100.0 * uniform_uncovered / graph.numEdges());

    bench::JsonWriter json("random_vs_tour");
    json.beginRow();
    json.add("section", "graph");
    json.add("states", graph.numStates());
    json.add("edges", graph.numEdges());
    json.add("tour_budget_instructions", tour_budget);
    auto coverage_row = [&](const char *kind,
                            const harness::CoverageTracker &cov) {
        json.beginRow();
        json.add("section", "coverage");
        json.add("kind", kind);
        json.add("covered_edges", cov.coveredEdges());
        json.add("uncovered_edges",
                 graph.numEdges() - cov.coveredEdges());
        json.add("coverage_fraction",
                 double(cov.coveredEdges()) / graph.numEdges());
        json.add("instructions", cov.instructions());
    };
    coverage_row("tour", tour_cov);
    coverage_row("biased_random", biased_cov);
    coverage_row("uniform_random", rand_cov);
    if (!json.write(bench::jsonPath(argc, argv))) {
        std::fprintf(stderr, "failed to write --json output\n");
        return 1;
    }
    return 0;
}
