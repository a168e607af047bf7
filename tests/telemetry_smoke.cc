/**
 * @file
 * Telemetry smoke pipeline: a tiny enum + replay run with tracing
 * driven by the environment (`ARCHVAL_TRACE`, `ARCHVAL_HEARTBEAT`).
 * The `telemetry_smoke` ctest (tools/telemetry_smoke.py) runs this
 * binary with a trace path set and validates the emitted JSON with
 * tools/trace_summary.py --check.
 *
 * Exit codes: 0 on success, 1 when the pipeline misbehaves (no
 * states, replay divergence on the bug-free run, empty registry).
 */

#include <cstdio>

#include "harness/replay_engine.hh"
#include "murphi/enumerator.hh"
#include "support/telemetry.hh"
#include "vecgen/vector_gen.hh"

using namespace archval;

int
main()
{
    telemetry::initTelemetryFromEnv();

    rtl::PpConfig config = rtl::PpConfig::smallPreset();
    rtl::PpFsmModel model(config);

    murphi::Enumerator enumerator(model);
    graph::StateGraph graph = enumerator.runOrThrow();
    if (graph.numStates() == 0 || graph.numEdges() == 0) {
        std::fprintf(stderr, "smoke: empty state graph\n");
        return 1;
    }

    graph::TourOptions tour_options;
    tour_options.maxInstructionsPerTrace = 500;
    graph::TourGenerator tour_gen(graph, tour_options);
    graph::Tours tours = tour_gen.run();
    vecgen::VectorGenerator generator(model, 42);
    std::vector<vecgen::TestTrace> traces =
        generator.generateAll(graph, tours);

    harness::ReplayOptions replay_options;
    replay_options.numThreads = 2;
    harness::ReplayEngine engine(config, replay_options);
    std::vector<harness::PlayResult> results =
        engine.playAll(traces, rtl::BugSet{});
    for (const harness::PlayResult &result : results) {
        if (result.diverged) {
            std::fprintf(stderr, "smoke: bug-free replay diverged\n");
            return 1;
        }
    }

    telemetry::RegistrySnapshot snap = telemetry::snapshotMetrics();
    if (snap.samples.empty()) {
        std::fprintf(stderr, "smoke: metrics registry is empty\n");
        return 1;
    }
    std::fprintf(stderr, "%s", snap.render().c_str());

    telemetry::shutdownTelemetry();
    std::printf("smoke ok: %zu traces, %zu metrics\n", traces.size(),
                snap.samples.size());
    return 0;
}
