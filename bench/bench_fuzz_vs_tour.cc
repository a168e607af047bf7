/**
 * @file
 * Fuzz-vs-tour detection latency.
 *
 * Runs the coverage-guided fuzz campaign (4 std::thread workers) as
 * a fourth stimulus arm next to the tour, biased-random and directed
 * baselines over the six Table 2.1 bugs, then over the data-visible
 * control-mutation bank (each mutation re-enumerated, since it
 * changes the control's state graph). Also double-runs one campaign
 * to demonstrate bit-determinism for a fixed (seed, worker-count).
 *
 * Smoke configuration (the default; ARCHVAL_BENCH_SCALE=full and
 * ARCHVAL_FUZZ_SMOKE=0 deepen it) must find >= 4 of the 6 bugs by
 * fuzzing — the bench fails otherwise.
 */

#include <cstdio>

#include "bench_util.hh"
#include "fuzz/campaign.hh"
#include "harness/bug_hunt.hh"
#include "murphi/enumerator.hh"
#include "support/strings.hh"

using namespace archval;

namespace
{

bool
smokeMode()
{
    const char *env = std::getenv("ARCHVAL_FUZZ_SMOKE");
    if (env)
        return env[0] == '1';
    const char *scale = std::getenv("ARCHVAL_BENCH_SCALE");
    return !(scale && std::strcmp(scale, "full") == 0);
}

fuzz::CampaignOptions
campaignOptions(bool smoke)
{
    fuzz::CampaignOptions options;
    options.workers = 4;
    options.roundInstructions = smoke ? 6'000 : 30'000;
    options.maxRounds = smoke ? 5 : 12;
    options.seed = 2026;
    return options;
}

std::string
latencyCell(bool detected, uint64_t instructions)
{
    if (!detected)
        return "not detected";
    return formatString("@ %s instrs",
                        withCommas(instructions).c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const bool smoke = smokeMode();
    bench::banner("Fuzz vs tour",
                  "Coverage-guided fuzzing as a stimulus source");
    std::printf("\nmode: %s\n", smoke ? "smoke" : "full");
    bench::JsonWriter json("fuzz_vs_tour");

    rtl::PpConfig config = bench::benchSimConfig();
    rtl::PpFsmModel model(config);
    murphi::Enumerator enumerator(model);
    auto graph = enumerator.runOrThrow();
    graph::TourOptions tour_options;
    tour_options.maxInstructionsPerTrace = 10'000;
    graph::TourGenerator tour_gen(graph, tour_options);
    auto tours = tour_gen.run();
    vecgen::VectorGenerator generator(model, 2024);
    auto vectors = generator.generateAll(graph, tours);

    std::printf("graph: %s states, %s edges; %s tour trace(s)\n",
                withCommas(graph.numStates()).c_str(),
                withCommas(graph.numEdges()).c_str(),
                withCommas(tours.size()).c_str());

    // --- Determinism: same (seed, workers=4) twice, bitwise equal.
    fuzz::CampaignOptions options = campaignOptions(smoke);
    {
        rtl::BugSet bugs;
        bugs.set(static_cast<size_t>(rtl::BugId::Bug1IfaceQual));
        fuzz::CampaignRunner a(config, model, graph, options);
        fuzz::CampaignRunner b(config, model, graph, options);
        fuzz::CampaignResult ra = a.run(bugs, tours);
        fuzz::CampaignResult rb = b.run(bugs, tours);
        bool same = ra.detected == rb.detected &&
                    ra.instructions == rb.instructions &&
                    ra.cycles == rb.cycles &&
                    ra.detail == rb.detail &&
                    ra.coveredEdges == rb.coveredEdges &&
                    ra.iterations == rb.iterations;
        std::printf("\ndeterminism (N=%u workers, seed %llu, run "
                    "twice): %s\n",
                    options.workers,
                    (unsigned long long)options.seed,
                    same ? "bit-identical" : "MISMATCH");
        json.beginRow();
        json.add("section", "determinism");
        json.add("configuration", smoke ? "smoke" : "full");
        json.add("workers", options.workers);
        json.add("identical", same);
        if (!same)
            return 1;
    }

    // --- Table 2.1 bugs: four stimulus arms per bug.
    const uint64_t random_budget =
        4 * tour_gen.stats().totalInstructions;
    harness::BugHunt hunt(config, model, graph, vectors);
    hunt.setFuzzArm(fuzz::makeCampaignFuzzArm(config, model, graph,
                                              tours, options));

    std::vector<harness::HuntResult> results;
    for (size_t b = 0; b < rtl::numBugs; ++b) {
        rtl::BugId bug = static_cast<rtl::BugId>(b);
        std::printf("\nBug %zu: %s\n", b + 1, rtl::bugSummary(bug));
        results.push_back(hunt.hunt(bug, random_budget, 99 + b));
    }
    std::printf("\n%s", harness::renderHuntTable(results).c_str());

    unsigned tour_found = 0, random_found = 0, fuzz_found = 0;
    for (const auto &r : results) {
        tour_found += r.tour.detected;
        random_found += r.random.detected;
        fuzz_found += r.fuzz.detected;
    }
    std::printf("\nsummary: tour %u/6, biased-random %u/6, fuzz "
                "campaign %u/6 (need >= 4)\n",
                tour_found, random_found, fuzz_found);

    for (const auto &r : results) {
        json.beginRow();
        json.add("section", "hunt");
        json.add("configuration", smoke ? "smoke" : "full");
        json.add("bug", rtl::bugName(r.bug));
        json.add("tour_detected", r.tour.detected);
        json.add("random_detected", r.random.detected);
        json.add("directed_detected", r.directed.detected);
        json.add("fuzz_detected", r.fuzz.detected);
        json.add("tour_instructions", r.tour.instructions);
        json.add("fuzz_instructions", r.fuzz.instructions);
    }

    // --- Mutation bank: each data-visible control mutation changes
    // the state graph itself, so the model is re-enumerated and the
    // campaign hunts the divergence with no BugSet injected — the
    // buggy control is the design under test.
    std::printf("\nmutation bank (data-visible control mutations):\n");
    std::printf("  %-22s %-22s %-22s\n", "mutation", "tour vectors",
                "fuzz campaign");
    for (size_t m = 0; m < rtl::numMutations; ++m) {
        rtl::MutationId mutation = static_cast<rtl::MutationId>(m);
        if (!rtl::mutationDataVisible(mutation))
            continue;
        rtl::PpConfig mutated = config;
        mutated.mutations.set(m);
        rtl::PpFsmModel mutated_model(mutated);
        murphi::Enumerator mutated_enum(mutated_model);
        auto mutated_graph = mutated_enum.runOrThrow();
        graph::TourGenerator mutated_tour_gen(mutated_graph,
                                              tour_options);
        auto mutated_tours = mutated_tour_gen.run();

        // Tour baseline on the mutated design.
        vecgen::VectorGenerator mutated_gen(mutated_model, 2024);
        harness::VectorPlayer player(mutated);
        bool tour_detected = false;
        uint64_t tour_instrs = 0;
        for (size_t i = 0; i < mutated_tours.size(); ++i) {
            auto trace = mutated_gen.generate(
                mutated_graph, mutated_tours[i], i,
                &mutated_tours.routes());
            harness::PlayResult play = player.play(trace);
            tour_instrs += play.instructions;
            if (play.diverged) {
                tour_detected = true;
                break;
            }
        }

        fuzz::CampaignRunner runner(mutated, mutated_model,
                                    mutated_graph, options);
        fuzz::CampaignResult campaign =
            runner.run(rtl::BugSet{}, mutated_tours);

        std::printf("  %-22s %-22s %-22s\n",
                    rtl::mutationName(mutation),
                    latencyCell(tour_detected, tour_instrs).c_str(),
                    latencyCell(campaign.detected,
                                campaign.instructions)
                        .c_str());

        json.beginRow();
        json.add("section", "mutation");
        json.add("configuration", smoke ? "smoke" : "full");
        json.add("mutation", rtl::mutationName(mutation));
        json.add("tour_detected", tour_detected);
        json.add("fuzz_detected", campaign.detected);
        json.add("mutated_states", mutated_graph.numStates());
        json.add("mutated_edges", mutated_graph.numEdges());
    }

    if (!json.write(bench::jsonPath(argc, argv))) {
        std::fprintf(stderr, "failed to write --json output\n");
        return 1;
    }
    return fuzz_found >= 4 ? 0 : 1;
}
