/**
 * @file
 * Domain example: why transition tours beat random testing.
 *
 * Reproduces the paper's core efficiency argument (Section 1 /
 * Section 3): at equal simulated-instruction budgets, tour vectors
 * cover every control arc while random stimulus leaves a long tail
 * uncovered — and correspondingly, a multiple-event bug is found by
 * the tour within its (small) budget while random stimulus needs far
 * more cycles, if it finds the bug at all.
 */

#include <cstdio>

#include "harness/baselines.hh"
#include "harness/bug_hunt.hh"
#include "harness/coverage.hh"
#include "murphi/enumerator.hh"
#include "support/strings.hh"
#include "support/telemetry.hh"

using namespace archval;

int
main()
{
    archval::telemetry::initTelemetryFromEnv();
    rtl::PpConfig config = rtl::PpConfig::smallPreset();
    rtl::PpFsmModel model(config);
    murphi::Enumerator enumerator(model);
    auto graph = enumerator.runOrThrow();
    std::printf("PP control graph: %s states, %s edges\n\n",
                withCommas(graph.numStates()).c_str(),
                withCommas(graph.numEdges()).c_str());

    // Tour coverage as a function of instruction budget.
    graph::TourGenerator tour_gen(graph);
    auto tours = tour_gen.run();
    harness::CoverageTracker tour_cov(graph);
    for (const auto &trace : tours)
        tour_cov.addTrace(trace, &tours.routes());
    uint64_t budget = tour_cov.instructions();

    std::printf("tour: covers 100%% of arcs with %s instructions\n",
                withCommas(budget).c_str());

    // Biased-random stimulus (naturalistic event rates) at multiples
    // of the tour budget.
    std::printf("\n%12s  %14s  %9s\n", "random budget",
                "covered arcs", "coverage");
    for (unsigned factor : {1u, 2u, 4u, 8u, 16u}) {
        harness::BiasedWalker walker(model, graph, 7);
        harness::CoverageTracker cov(graph);
        while (cov.instructions() < budget * factor) {
            auto walk = walker.walk(2'000);
            if (walk.edges.empty())
                break;
            cov.addTrace(walk);
        }
        std::printf("%11ux  %14s  %8.2f%%\n", factor,
                    withCommas(cov.coveredEdges()).c_str(),
                    100.0 * cov.fraction());
    }

    // Bug-detection latency comparison for one bug.
    std::printf("\nbug-detection latency (bug #3, conflict-stall "
                "address):\n");
    vecgen::VectorGenerator generator(model, 42);
    auto vectors = generator.generateAll(graph, tours);
    harness::BugHunt hunt(config, model, graph, vectors);
    auto result =
        hunt.hunt(rtl::BugId::Bug3ConflictAddr, 8 * budget);
    std::printf("%s\n", harness::renderHuntTable({result}).c_str());
    return 0;
}
