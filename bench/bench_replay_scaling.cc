/**
 * @file
 * Checkpointed-replay scaling — worker count × checkpoint stride.
 *
 * The batch is the hunt workload: every plain 10k-limit tour trace
 * replayed against the bug-free machine and each of the six Table 2.1
 * faults. Each worker plays one trace's row of bug sets at a time,
 * the bug-free donor first: a fault that never triggers on a trace
 * provably cannot change its replay, so the bugged job reuses the
 * donor result without stepping a cycle, and a fault that did trigger
 * resumes from the donor's greatest stride checkpoint below its first
 * trigger cycle, stepping only the datapath from the donor's
 * recorded control answers. This bench reports, per (workers, stride)
 * point: wall time, cycles actually stepped, donor copies, stride
 * hits, the fraction of the triggered jobs' reset-to-trigger lead
 * cycles the checkpoints skip, the cycles stepped from recorded
 * control, and whether the results stayed byte-identical to a
 * VectorPlayer::play loop (they must — every axis is a pure
 * accelerator).
 *
 * `--json <path>` additionally writes the table as JSON (see
 * README; CI uses BENCH_replay.json).
 */

#include <cstdio>
#include <optional>

#include "bench_util.hh"
#include "harness/replay_engine.hh"
#include "murphi/enumerator.hh"
#include "support/strings.hh"
#include "support/telemetry.hh"
#include "support/timer.hh"

using namespace archval;

namespace
{

/** FNV-1a over every observable field of a result batch. */
uint64_t
fingerprint(const std::vector<harness::PlayResult> &results)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint64_t value) {
        for (int i = 0; i < 8; ++i) {
            h ^= (value >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (const harness::PlayResult &r : results) {
        mix(r.diverged);
        mix(r.cycles);
        mix(r.instructions);
        mix(r.lockstepErrors);
        mix(r.drained);
        mix(r.skipped);
        mix(r.diff.size());
        for (char c : r.diff)
            mix(static_cast<unsigned char>(c));
    }
    return h;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::banner("Replay scaling",
                  "Checkpointed batch replay: workers x stride");

    telemetry::setThreadName("main");
    std::optional<telemetry::ScopedSpan> phase;
    phase.emplace("bench.setup");

    rtl::PpConfig config = bench::benchSimConfig();
    rtl::PpFsmModel model(config);
    murphi::Enumerator enumerator(model);
    auto graph = enumerator.runOrThrow();
    // The Table 3.3 trace limit: plain traces cover disjoint graph
    // regions, so trigger cycles spread across the whole trace
    // length.
    graph::TourOptions tour_options;
    tour_options.maxInstructionsPerTrace = 10'000;
    graph::TourGenerator tour_gen(graph, tour_options);
    auto tours = tour_gen.run();
    vecgen::VectorGenerator generator(model, 2024);
    auto vectors = generator.generateAll(graph, tours);

    // The hunt workload: bug-free (the donor) plus every Table 2.1
    // fault, each as its own bug set.
    std::vector<rtl::BugSet> bug_sets;
    bug_sets.emplace_back();
    for (size_t b = 0; b < rtl::numBugs; ++b) {
        rtl::BugSet set;
        set.set(b);
        bug_sets.push_back(set);
    }

    uint64_t batch_cycles = 0;
    for (const auto &trace : vectors)
        batch_cycles += trace.cycles.size();
    std::printf("\nbatch: %s traces x %zu bug sets, %s forced "
                "cycles (graph: %s states, %s edges)\n\n",
                withCommas(vectors.size()).c_str(), bug_sets.size(),
                withCommas(batch_cycles * bug_sets.size()).c_str(),
                withCommas(graph.numStates()).c_str(),
                withCommas(graph.numEdges()).c_str());

    // Sequential reference: the plain per-trace player loop the
    // engine must match byte-for-byte, in the engine's
    // [b * traces + t] layout.
    phase.emplace("bench.seq_reference");
    harness::VectorPlayer player(config);
    WallTimer seq_timer;
    std::vector<harness::PlayResult> reference;
    for (const rtl::BugSet &bugs : bug_sets)
        for (const auto &trace : vectors)
            reference.push_back(player.play(trace, bugs));
    const double seq_seconds = seq_timer.seconds();
    const uint64_t base_fingerprint = fingerprint(reference);
    std::printf("sequential player: %.2f s\n\n", seq_seconds);

    // "Savings" is avoided/avoidable: the fraction of the triggered
    // jobs' reset-to-trigger lead cycles never re-stepped. The lead
    // is the right denominator — everything past the trigger is the
    // diverged run itself, which any scheme must simulate — and it
    // is the Table 3.3 quantity, the time to rerun a simulation to
    // reach a bug.
    bench::JsonWriter json("replay_scaling");
    std::printf("%8s %7s %8s %9s %14s %7s %6s %6s %9s %10s\n",
                "workers", "stride", "wall s", "speedup",
                "sim cycles", "copies", "trig", "hits", "savings",
                "identical");

    double best_savings = 0.0;
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        for (size_t stride : {size_t{0}, size_t{256}, size_t{1024},
                              size_t{4096}}) {
            phase.emplace("bench.sweep_point", "workers", threads,
                          "stride", (uint64_t)stride);
            harness::ReplayOptions options;
            options.numThreads = threads;
            options.checkpointStride = stride;
            harness::ReplayEngine engine(config, options);
            WallTimer timer;
            auto results = engine.playAll(vectors, bug_sets);
            double seconds = timer.seconds();
            const auto &stats = engine.stats();
            bool identical =
                fingerprint(results) == base_fingerprint;
            if (stride > 0 && stats.strideSavings() > best_savings)
                best_savings = stats.strideSavings();

            std::printf(
                "%8u %7zu %8.3f %8.2fx %14s %7s %6s %6s %8.1f%% "
                "%10s\n",
                threads, stride, seconds,
                seconds > 0.0 ? seq_seconds / seconds : 0.0,
                withCommas(stats.simulatedCycles).c_str(),
                withCommas(stats.bugSetCopies).c_str(),
                withCommas(stats.triggeredJobs).c_str(),
                withCommas(stats.strideHits).c_str(),
                100.0 * stats.strideSavings(),
                identical ? "yes" : "NO");

            json.beginRow();
            json.add("section", "scaling");
            json.add("workers", threads);
            json.add("stride", (uint64_t)stride);
            json.add("wall_seconds", seconds);
            json.add("simulated_cycles", stats.simulatedCycles);
            json.add("batch_cycles", stats.batchCycles);
            json.add("cycles_avoided", stats.cyclesAvoided);
            json.add("avoided_fraction", stats.avoidedFraction());
            json.add("bug_set_copies", stats.bugSetCopies);
            json.add("stride_checkpoints", stats.strideCheckpoints);
            json.add("triggered_jobs", stats.triggeredJobs);
            json.add("triggered_job_cycles",
                     stats.triggeredJobCycles);
            json.add("triggered_lead_cycles",
                     stats.triggeredLeadCycles);
            json.add("stride_hits", stats.strideHits);
            json.add("stride_resume_cycles",
                     stats.strideResumeCycles);
            json.add("stride_savings", stats.strideSavings());
            json.add("control_replay_cycles", stats.controlReplayCycles);
            json.add("peak_cache_bytes",
                     (uint64_t)stats.peakCacheBytes);
            json.add("identical", identical);
            if (!identical)
                return 1;
        }
    }

    std::printf("\nsummary: in-trace checkpoints skip %.1f%% of the "
                "cycles between reset and the\nbugs' first triggers "
                "at the best stride (the time to re-reach a bug); "
                "results\nstay byte-identical throughout.\n",
                100.0 * best_savings);

    phase.reset();
    std::string path = bench::jsonPath(argc, argv);
    if (!json.write(path)) {
        std::fprintf(stderr, "failed to write %s\n", path.c_str());
        return 1;
    }
    return best_savings > 0.30 ? 0 : 1;
}
