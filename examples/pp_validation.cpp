/**
 * @file
 * Flagship example: validate the Protocol Processor exactly as the
 * paper does (Figure 3.1), at a chosen scale.
 *
 *   pp_validation [small|full] [limit <N>] [bug <1..6>]
 *
 * Enumerates the PP control, generates covering transition tours and
 * test vectors, then simulates the RTL model against the
 * instruction-level specification, checking cycle by cycle that the
 * core's control follows each tour. With "bug N" one of the six
 * published FLASH PP bugs (Table 2.1) is injected first.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "core/validation_flow.hh"
#include "rtl/faults.hh"
#include "support/strings.hh"
#include "support/telemetry.hh"

using namespace archval;

int
main(int argc, char **argv)
{
    archval::telemetry::initTelemetryFromEnv();
    rtl::PpConfig config = rtl::PpConfig::smallPreset();
    core::FlowOptions options;
    rtl::BugSet bugs;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "full") {
            config = rtl::PpConfig::fullPreset();
        } else if (arg == "small") {
            config = rtl::PpConfig::smallPreset();
        } else if (arg == "limit" && i + 1 < argc) {
            options.tour.maxInstructionsPerTrace =
                std::strtoull(argv[++i], nullptr, 0);
        } else if (arg == "bug" && i + 1 < argc) {
            unsigned n = std::strtoul(argv[++i], nullptr, 0);
            if (n < 1 || n > rtl::numBugs) {
                std::fprintf(stderr, "bug number must be 1..6\n");
                return 2;
            }
            bugs.set(n - 1);
        } else {
            std::fprintf(stderr,
                         "usage: %s [small|full] [limit N] [bug N]\n",
                         argv[0]);
            return 2;
        }
    }

    core::PpValidationFlow flow(config, options);

    std::printf("== step 1+2: FSM model and state enumeration ==\n");
    flow.enumerate();
    std::printf("%s\n", flow.enumStats().render().c_str());

    std::printf("== step 3: transition tours ==\n");
    flow.makeTours();
    std::printf("%s\n", flow.tourStats().render().c_str());

    std::printf("== step 4: test vector generation ==\n");
    flow.makeVectors();
    std::printf("traces %s, cycles %s, instructions %s, "
                "constrained loads %s\n\n",
                withCommas(flow.vecStats().traces).c_str(),
                withCommas(flow.vecStats().cycles).c_str(),
                withCommas(flow.vecStats().instructions).c_str(),
                withCommas(flow.vecStats().constrainedLoads).c_str());

    std::printf("== step 5: simulate against the specification ==\n");
    if (bugs.any()) {
        for (size_t b = 0; b < rtl::numBugs; ++b) {
            if (bugs.test(b)) {
                std::printf("injected %s: %s\n",
                            rtl::bugName(static_cast<rtl::BugId>(b)),
                            rtl::bugSummary(
                                static_cast<rtl::BugId>(b)));
            }
        }
    }
    core::FlowReport report = flow.simulate(bugs);
    std::printf("%s\n", report.render().c_str());

    if (bugs.any()) {
        std::printf("expected a divergence: %s\n",
                    report.bugFound() ? "FOUND" : "MISSED");
        return report.bugFound() ? 0 : 1;
    }
    std::printf("expected a clean run: %s\n",
                report.bugFound() ? "DIVERGED" : "CLEAN");
    return report.bugFound() ? 1 : 0;
}
