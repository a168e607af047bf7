/**
 * @file
 * Domain example: the two-team workflow the paper ran at Stanford —
 * one run *generates* the vector files, later runs *replay* them
 * against the implementation under test (here: with any chosen bug
 * injected), re-using the same trace set.
 *
 *   trace_workflow generate <dir> [small|full] [limit N]
 *   trace_workflow replay <dir> [bug N]...
 *   trace_workflow demo            (generate + replay in a tmp dir)
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "core/validation_flow.hh"
#include "harness/replay_engine.hh"
#include "support/status.hh"
#include "support/strings.hh"
#include "vecgen/trace_io.hh"
#include "support/telemetry.hh"

using namespace archval;

namespace
{

int
generate(const std::string &dir, const rtl::PpConfig &config,
         uint64_t limit)
{
    core::FlowOptions options;
    options.tour.maxInstructionsPerTrace = limit;
    core::PpValidationFlow flow(config, options);
    const auto &vectors = flow.makeVectors();

    auto written = vecgen::writeTraceSet(vectors, dir);
    if (!written.ok()) {
        std::fprintf(stderr, "write failed: %s\n",
                     written.errorMessage().c_str());
        return 1;
    }
    std::printf("generated %zu trace file(s) in %s\n",
                written.value(), dir.c_str());
    std::printf("  graph: %s states, %s edges; %s instructions "
                "total\n",
                withCommas(flow.enumStats().numStates).c_str(),
                withCommas(flow.enumStats().numEdges).c_str(),
                withCommas(flow.tourStats().totalInstructions)
                    .c_str());
    return 0;
}

int
replay(const std::string &dir, const rtl::PpConfig &config,
       const rtl::BugSet &bugs)
{
    auto traces = vecgen::readTraceSet(dir);
    if (!traces.ok()) {
        std::fprintf(stderr, "read failed: %s\n",
                     traces.errorMessage().c_str());
        return 1;
    }

    // Stimulus out of step with this configuration (traces generated
    // for another preset, a truncated inbox) fails the replay.
    harness::ReplayOptions options;
    options.numThreads =
        std::max(1u, std::thread::hardware_concurrency());
    harness::ReplayEngine engine(config, options);
    std::vector<harness::PlayResult> results;
    try {
        results = engine.playAll(traces.value(), bugs);
    } catch (const FatalError &e) {
        std::fprintf(stderr, "replay failed: %s\n", e.what());
        return 1;
    }

    uint64_t diverged = 0, cycles = 0;
    std::string first_diff;
    for (size_t i = 0; i < results.size(); ++i) {
        const vecgen::TestTrace &trace = traces.value()[i];
        const harness::PlayResult &result = results[i];
        cycles += result.cycles;
        if (result.diverged) {
            ++diverged;
            if (first_diff.empty()) {
                first_diff = formatString(
                    "trace %zu (%s): %s", trace.traceIndex,
                    vecgen::traceFileName(trace.traceIndex).c_str(),
                    result.diff.c_str());
            }
        }
    }
    std::printf("replayed %zu trace(s), %s cycles: %s\n",
                traces.value().size(), withCommas(cycles).c_str(),
                diverged ? formatString("%llu DIVERGED",
                                        (unsigned long long)diverged)
                               .c_str()
                         : "all clean");
    if (!first_diff.empty())
        std::printf("  first divergence: %s\n", first_diff.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    archval::telemetry::initTelemetryFromEnv();
    std::string mode = argc > 1 ? argv[1] : "demo";
    rtl::PpConfig config = rtl::PpConfig::smallPreset();
    rtl::BugSet bugs;
    std::string dir;
    uint64_t limit = 10'000;

    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "small") {
            config = rtl::PpConfig::smallPreset();
        } else if (arg == "full") {
            config = rtl::PpConfig::fullPreset();
        } else if (arg == "limit" && i + 1 < argc) {
            limit = std::strtoull(argv[++i], nullptr, 0);
        } else if (arg == "bug" && i + 1 < argc) {
            unsigned n = std::strtoul(argv[++i], nullptr, 0);
            if (n >= 1 && n <= rtl::numBugs)
                bugs.set(n - 1);
        } else if (dir.empty()) {
            dir = arg;
        }
    }

    if (mode == "generate") {
        if (dir.empty()) {
            std::fprintf(stderr, "generate needs a directory\n");
            return 2;
        }
        return generate(dir, config, limit);
    }
    if (mode == "replay") {
        if (dir.empty()) {
            std::fprintf(stderr, "replay needs a directory\n");
            return 2;
        }
        return replay(dir, config, bugs);
    }
    if (mode == "demo") {
        std::string tmp =
            (std::filesystem::temp_directory_path() /
             "archval_trace_demo")
                .string();
        std::filesystem::remove_all(tmp);
        std::printf("== generate ==\n");
        if (int rc = generate(tmp, config, limit); rc != 0)
            return rc;
        std::printf("\n== replay (healthy design) ==\n");
        if (int rc = replay(tmp, config, {}); rc != 0)
            return rc;
        std::printf("\n== replay (bug #6 injected) ==\n");
        rtl::BugSet demo_bugs;
        demo_bugs.set(
            static_cast<size_t>(rtl::BugId::Bug6StaleConflict));
        int rc = replay(tmp, config, demo_bugs);
        std::filesystem::remove_all(tmp);
        return rc;
    }
    std::fprintf(stderr,
                 "usage: %s generate|replay|demo <dir> [small|full] "
                 "[limit N] [bug N]\n",
                 argv[0]);
    return 2;
}
