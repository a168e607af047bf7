/**
 * @file
 * Domain example: running a coverage-guided fuzz campaign.
 *
 * Walks through the third stimulus family end to end: seed a corpus
 * from tour prefixes and random walks, watch the single-threaded
 * engine admit candidates on arc/architectural novelty, then shard
 * the same loop across four workers with the CampaignRunner and hunt
 * an injected Table 2.1 bug — deterministically for a fixed
 * (seed, worker-count) pair.
 */

#include <cstdio>

#include "fuzz/campaign.hh"
#include "fuzz/engine.hh"
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
    graph::TourGenerator tour_gen(graph);
    auto tours = tour_gen.run();
    std::printf("PP control graph: %s states, %s edges; %zu tour "
                "trace(s)\n\n",
                withCommas(graph.numStates()).c_str(),
                withCommas(graph.numEdges()).c_str(), tours.size());

    // --- 1. The single-threaded engine: coverage feedback at work.
    std::printf("engine (1 thread, bug-free): corpus growth under "
                "feedback\n");
    fuzz::FuzzEngine engine(config, model, graph, /*seed=*/1);
    engine.seedCorpus(tours);
    std::printf("  seeded corpus: %zu entries\n",
                engine.corpus().size());
    for (int chunk = 1; chunk <= 4; ++chunk) {
        engine.run(rtl::BugSet{}, 5'000);
        const fuzz::FuzzStats &stats = engine.stats();
        std::printf("  after %7s instrs: %4llu candidates, corpus "
                    "%3zu, arcs %4llu/%llu (arc-novel %llu, "
                    "state-novel %llu)\n",
                    withCommas(stats.instructions).c_str(),
                    (unsigned long long)stats.iterations,
                    engine.corpus().size(),
                    (unsigned long long)
                        engine.coverage().coveredEdges(),
                    (unsigned long long)graph.numEdges(),
                    (unsigned long long)stats.arcNovel,
                    (unsigned long long)stats.stateNovel);
    }

    // --- 2. The parallel campaign hunting an injected bug.
    std::printf("\ncampaign (4 workers) vs bug #3 (conflict-stall "
                "address):\n");
    fuzz::CampaignOptions options;
    options.workers = 4;
    options.roundInstructions = 5'000;
    options.maxRounds = 6;
    options.seed = 11;
    rtl::BugSet bugs;
    bugs.set(static_cast<size_t>(rtl::BugId::Bug3ConflictAddr));

    fuzz::CampaignRunner runner(config, model, graph, options);
    fuzz::CampaignResult result = runner.run(bugs, tours);
    if (result.detected) {
        std::printf("  detected @ %s instrs (round %u, worker %u)\n"
                    "  %s\n",
                    withCommas(result.instructions).c_str(),
                    result.detectionRound, result.detectionWorker,
                    result.detail.c_str());
    } else {
        std::printf("  not detected within %s instrs\n",
                    withCommas(result.totalInstructions).c_str());
    }
    std::printf("  merged coverage: %s arcs (%.2f%%), %s candidates "
                "played\n",
                withCommas(result.coveredEdges).c_str(),
                100.0 * result.coverageFraction,
                withCommas(result.iterations).c_str());

    // --- 3. Determinism: replaying the campaign is bit-identical.
    fuzz::CampaignRunner replay(config, model, graph, options);
    fuzz::CampaignResult again = replay.run(bugs, tours);
    bool same = again.detected == result.detected &&
                again.instructions == result.instructions &&
                again.detail == result.detail;
    std::printf("\nreplay with the same (seed, workers): %s\n",
                same ? "bit-identical" : "MISMATCH");
    return same && result.detected ? 0 : 1;
}
