#include "bug_hunt.hh"

#include <algorithm>

#include "support/strings.hh"
#include "support/telemetry.hh"

namespace archval::harness
{

BugHunt::BugHunt(const rtl::PpConfig &config,
                 const rtl::PpFsmModel &model,
                 const graph::StateGraph &graph,
                 const std::vector<vecgen::TestTrace> &tour_traces,
                 ReplayOptions replay)
    : config_(config), model_(model), graph_(graph),
      tourTraces_(tour_traces), replay_(replay)
{
}

HuntResult
BugHunt::hunt(rtl::BugId bug, uint64_t random_budget, uint64_t seed)
{
    HuntResult result;
    result.bug = bug;
    rtl::BugSet bugs;
    bugs.set(static_cast<size_t>(bug));

    // Both trace arms replay through the checkpointed engine with
    // early exit: results before and at the first divergence are
    // byte-identical to the sequential player, so the accumulation
    // below reproduces the old trace-at-a-time loop exactly.
    ReplayOptions replay = replay_;
    replay.stopOnDivergence = true;
    ReplayEngine engine(config_, replay);

    // Transition-tour vectors, in generation order. With warm rows
    // installed the batch carries a bug-free donor block in front:
    // the first hunt fills the rows (donor results + pins), every
    // later hunt's donor block warm-copies, and triggered jobs resume
    // from the rows' pins instead of replaying the bug-free lead from
    // reset. The bugged block's results — the ones read below — are
    // byte-identical either way.
    const bool warm_tour = warmRows_ != nullptr;
    {
        telemetry::ScopedSpan arm_span(
            "hunt.tour", "bug", static_cast<uint64_t>(bug));
        std::vector<rtl::BugSet> tour_sets;
        if (warm_tour)
            tour_sets.push_back(rtl::BugSet{});
        tour_sets.push_back(bugs);
        std::vector<PlayResult> tour_plays = engine.playAll(
            tourTraces_, tour_sets, nullptr, warmRows_.get());
        const size_t base =
            (tour_sets.size() - 1) * tourTraces_.size();
        for (size_t t = 0; t < tourTraces_.size(); ++t) {
            const PlayResult &play = tour_plays[base + t];
            if (play.skipped)
                break;
            result.tour.instructions += play.instructions;
            result.tour.cycles += play.cycles;
            if (play.diverged) {
                result.tour.detected = true;
                result.tour.detail = formatString(
                    "trace %zu: %s", tourTraces_[t].traceIndex,
                    play.diff.c_str());
                break;
            }
        }
    }

    // Biased-random stimulus (naturalistic event rates) through the
    // same generator and engine — the paper's random baseline. Walk
    // content never depends on play results, so pre-generating a
    // batch and replaying it preserves the sequential arm's trace
    // sequence, accumulation and stopping point.
    {
        telemetry::ScopedSpan arm_span(
            "hunt.random", "bug", static_cast<uint64_t>(bug));
        BiasedWalker walker(model_, graph_, seed);
        vecgen::VectorGenerator generator(model_, seed ^ 0x5eedu);
        const uint64_t chunk = 2'000;
        const size_t batch_size = std::max(2 * replay.numThreads, 4u);
        size_t walk_index = 0;
        bool exhausted = false;
        while (result.random.instructions < random_budget &&
               !exhausted && !result.random.detected) {
            std::vector<vecgen::TestTrace> batch;
            while (batch.size() < batch_size) {
                graph::Trace walk = walker.walk(chunk);
                if (walk.edges.empty()) {
                    exhausted = true;
                    break;
                }
                batch.push_back(
                    generator.generate(graph_, walk, walk_index++));
            }
            if (batch.empty())
                break;
            std::vector<PlayResult> plays = engine.playAll(batch, bugs);
            for (size_t i = 0; i < batch.size(); ++i) {
                const PlayResult &play = plays[i];
                if (play.skipped)
                    break;
                result.random.instructions += play.instructions;
                result.random.cycles += play.cycles;
                if (play.diverged) {
                    result.random.detected = true;
                    result.random.detail = formatString(
                        "walk %zu: %s", batch[i].traceIndex,
                        play.diff.c_str());
                    break;
                }
                if (result.random.instructions >= random_budget)
                    break;
            }
        }
    }

    // Hand-written directed tests.
    {
        telemetry::ScopedSpan arm_span(
            "hunt.directed", "bug", static_cast<uint64_t>(bug));
        for (const DirectedResult &directed :
             runDirectedSuite(config_, bugs)) {
            if (!directed.ran)
                continue;
            result.directed.instructions += directed.instructions;
            result.directed.cycles += directed.cycles;
            if (directed.diverged) {
                result.directed.detected = true;
                result.directed.detail =
                    directed.name + ": " + directed.diff;
                break;
            }
        }
    }

    // Coverage-guided fuzzing, when an arm is installed.
    if (fuzzArm_) {
        telemetry::ScopedSpan arm_span(
            "hunt.fuzz", "bug", static_cast<uint64_t>(bug));
        result.fuzz = fuzzArm_(bug);
        result.fuzzRan = true;
    }

    return result;
}

std::string
renderHuntTable(const std::vector<HuntResult> &results)
{
    bool with_fuzz = false;
    for (const auto &r : results)
        with_fuzz = with_fuzz || r.fuzzRan;

    std::string out;
    out += formatString("%-5s  %-28s  %-28s  %-28s", "bug",
                        "tour vectors", "random vectors",
                        "directed tests");
    if (with_fuzz)
        out += formatString("  %-28s", "fuzz campaign");
    out += "\n";
    auto cell = [](const Detection &d) {
        if (!d.detected)
            return std::string("not detected");
        return formatString("detected @ %s instrs",
                            withCommas(d.instructions).c_str());
    };
    for (const auto &r : results) {
        out += formatString("%-5s  %-28s  %-28s  %-28s",
                            rtl::bugName(r.bug),
                            cell(r.tour).c_str(),
                            cell(r.random).c_str(),
                            cell(r.directed).c_str());
        if (with_fuzz) {
            out += formatString(
                "  %-28s",
                r.fuzzRan ? cell(r.fuzz).c_str() : "not run");
        }
        out += "\n";
    }
    return out;
}

} // namespace archval::harness
