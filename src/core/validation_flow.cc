#include "validation_flow.hh"

#include <algorithm>
#include <thread>

#include "harness/replay_engine.hh"
#include "support/memusage.hh"
#include "support/status.hh"
#include "support/strings.hh"
#include "support/telemetry.hh"

namespace archval::core
{

namespace
{

/** Set the gauges flow.<phase>.rss_bytes and .peak_rss_bytes to the
 *  process's memory as @p phase ends. */
void
recordPhaseMemory(const char *phase)
{
    telemetry::gauge(formatString("flow.%s.rss_bytes", phase))
        .set(static_cast<int64_t>(currentRssBytes()));
    telemetry::gauge(formatString("flow.%s.peak_rss_bytes", phase))
        .set(static_cast<int64_t>(peakRssBytes()));
}

} // namespace

std::string
FlowReport::render() const
{
    std::string out;
    out += formatString("traces played        %s\n",
                        withCommas(tracesPlayed).c_str());
    out += formatString("diverging traces     %s\n",
                        withCommas(divergingTraces).c_str());
    out += formatString("lockstep errors      %s\n",
                        withCommas(lockstepErrors).c_str());
    out += formatString("cycles simulated     %s\n",
                        withCommas(cyclesSimulated).c_str());
    out += formatString("instructions         %s\n",
                        withCommas(instructionsSimulated).c_str());
    for (const auto &diff : divergences)
        out += "  divergence: " + diff + "\n";
    return out;
}

PpValidationFlow::PpValidationFlow(const rtl::PpConfig &config,
                                   FlowOptions options)
    : config_(config), options_(options),
      model_(std::make_unique<rtl::PpFsmModel>(config))
{
}

PpValidationFlow::~PpValidationFlow() = default;

const graph::StateGraph &
PpValidationFlow::enumerate()
{
    if (!graph_) {
        telemetry::ScopedSpan span("flow.enumerate");
        murphi::Enumerator enumerator(*model_, options_.enumeration);
        graph_ = enumerator.runOrThrow();
        enumStats_ = enumerator.stats();
        recordPhaseMemory("enumerate");
    }
    return *graph_;
}

const graph::Tours &
PpValidationFlow::makeTours()
{
    if (!tours_) {
        const graph::StateGraph &state_graph = enumerate();
        telemetry::ScopedSpan span("flow.tours");
        graph::TourGenerator generator(state_graph, options_.tour);
        tours_ = generator.run();
        tourStats_ = generator.stats();
        std::string check =
            graph::checkTourCoverage(state_graph, *tours_);
        // fatal, not panic: tour generation runs inside long-lived
        // callers (the archvald job loop); a coverage failure must
        // surface as a catchable job error, never abort the process.
        if (!check.empty())
            fatal("tour coverage check failed: " + check);
        recordPhaseMemory("tours");
    }
    return *tours_;
}

const std::vector<vecgen::TestTrace> &
PpValidationFlow::makeVectors()
{
    if (!vectors_) {
        const graph::StateGraph &state_graph = enumerate();
        const graph::Tours &tours = makeTours();
        telemetry::ScopedSpan span("flow.vectors");
        vecgen::VectorGenerator generator(*model_,
                                          options_.vectorSeed);
        vectors_ = generator.generateAll(state_graph, tours);
        vecStats_ = generator.stats();
        recordPhaseMemory("vectors");
    }
    return *vectors_;
}

FlowReport
PpValidationFlow::simulate(const rtl::BugSet &bugs)
{
    const auto &vectors = makeVectors();
    telemetry::ScopedSpan span("flow.simulate", "traces",
                               vectors.size());
    harness::ReplayOptions replay;
    replay.numThreads = std::max(1u, std::thread::hardware_concurrency());
    replay.stopOnDivergence = options_.stopAtFirstDivergence;
    harness::ReplayEngine engine(config_, replay);
    const harness::LockstepReference lockstep{*model_, *graph_, *tours_};
    const std::vector<harness::PlayResult> plays =
        engine.playAll(vectors, bugs, &lockstep);

    // With stopAtFirstDivergence, every trace after the first
    // divergence comes back skipped.
    FlowReport report;
    for (size_t i = 0; i < plays.size() && !plays[i].skipped; ++i) {
        const harness::PlayResult &play = plays[i];
        ++report.tracesPlayed;
        report.cyclesSimulated += play.cycles;
        report.instructionsSimulated += play.instructions;
        report.lockstepErrors += play.lockstepErrors;
        if (play.diverged) {
            ++report.divergingTraces;
            if (report.divergences.size() < 5) {
                report.divergences.push_back(formatString(
                    "trace %zu: %s", i, play.diff.c_str()));
            }
        }
    }
    recordPhaseMemory("simulate");
    return report;
}

FlowReport
PpValidationFlow::run(const rtl::BugSet &bugs)
{
    enumerate();
    makeTours();
    makeVectors();
    return simulate(bugs);
}

std::string
ModelExploration::render() const
{
    std::string out;
    out += "--- state enumeration ---\n";
    out += enumStats.render();
    out += "--- state graph ---\n";
    out += graph::renderSummary(summary);
    out += "--- transition tours ---\n";
    out += tourStats.render();
    return out;
}

ModelExploration
exploreModel(const fsm::Model &model, murphi::EnumOptions enum_options,
             graph::TourOptions tour_options)
{
    ModelExploration exploration;
    murphi::Enumerator enumerator(model, enum_options);
    graph::StateGraph graph = enumerator.runOrThrow();
    exploration.enumStats = enumerator.stats();
    exploration.summary = graph::summarize(graph);

    graph::TourGenerator tours(graph, tour_options);
    auto traces = tours.run();
    exploration.tourStats = tours.stats();
    std::string check = graph::checkTourCoverage(graph, traces);
    if (!check.empty())
        fatal("tour coverage check failed: " + check); // catchable
    return exploration;
}

} // namespace archval::core
