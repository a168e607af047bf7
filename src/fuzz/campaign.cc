#include "campaign.hh"

#include <optional>
#include <thread>

#include "support/status.hh"
#include "support/strings.hh"
#include "support/telemetry.hh"

namespace archval::fuzz
{

CampaignRunner::CampaignRunner(const rtl::PpConfig &config,
                               const rtl::PpFsmModel &model,
                               const graph::StateGraph &graph,
                               CampaignOptions options,
                               FuzzOptions fuzz_options)
    : config_(config), model_(model), graph_(graph),
      options_(options), fuzzOptions_(fuzz_options)
{
    if (options_.workers == 0)
        fatal("CampaignRunner needs at least one worker");
}

uint64_t
CampaignRunner::workerSeed(unsigned worker) const
{
    // splitmix64 of (seed, worker): decorrelates the per-worker RNG
    // streams while staying a pure function of the pair.
    uint64_t z = options_.seed + 0x9e3779b97f4a7c15ull * (worker + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

CampaignResult
CampaignRunner::run(const rtl::BugSet &bugs,
                    const graph::Tours &seed_tours)
{
    const unsigned workers = options_.workers;

    std::vector<std::unique_ptr<FuzzEngine>> engines;
    engines.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
        engines.push_back(std::make_unique<FuzzEngine>(
            config_, model_, graph_, workerSeed(w), fuzzOptions_));
        // Disjoint seed-evaluation shards; every corpus holds all of
        // its own seeds for mutation.
        engines.back()->seedCorpus(seed_tours, w, workers);
    }

    CampaignResult result;
    uint64_t instructions_before = 0;
    uint64_t cycles_before = 0;

    for (unsigned round = 0; round < options_.maxRounds; ++round) {
        if (options_.cancelFlag &&
            options_.cancelFlag->load(std::memory_order_relaxed)) {
            result.cancelled = true;
            break;
        }
        telemetry::ScopedSpan round_span("fuzz.round", "round", round,
                                         "workers", workers);
        std::vector<uint64_t> instr_at_start(workers);
        std::vector<uint64_t> cycles_at_start(workers);
        std::vector<FuzzDetection> outcomes(workers);

        // Workers touch only their private engine during a round;
        // the model/graph are shared read-only. Results are merged
        // at the barrier in worker-index order, so thread scheduling
        // cannot leak into any reported value.
        std::vector<std::thread> threads;
        threads.reserve(workers);
        const uint64_t job_id = telemetry::currentJobId();
        for (unsigned w = 0; w < workers; ++w) {
            instr_at_start[w] = engines[w]->stats().instructions;
            cycles_at_start[w] = engines[w]->stats().cycles;
            threads.emplace_back([&, w, job_id] {
                telemetry::JobScope job_scope(job_id);
                if (telemetry::tracingEnabled()) {
                    telemetry::setThreadName(
                        formatString("fuzz.worker.%u", w));
                }
                outcomes[w] = engines[w]->run(
                    bugs, options_.roundInstructions);
            });
        }
        for (std::thread &t : threads)
            t.join();

        // Resolve detections deterministically: lowest worker index
        // wins; latency charges all lower-indexed workers' full
        // round spend plus the winner's spend at detection.
        std::optional<unsigned> winner;
        for (unsigned w = 0; w < workers; ++w) {
            if (outcomes[w].detected) {
                winner = w;
                break;
            }
        }
        if (winner) {
            unsigned w = *winner;
            result.detected = true;
            result.detectionRound = round;
            result.detectionWorker = w;
            result.detail = formatString(
                "round %u worker %u: %s", round, w,
                outcomes[w].detail.c_str());
            result.instructions = instructions_before;
            result.cycles = cycles_before;
            for (unsigned v = 0; v < w; ++v) {
                result.instructions += engines[v]->stats().instructions -
                                       instr_at_start[v];
                result.cycles +=
                    engines[v]->stats().cycles - cycles_at_start[v];
            }
            result.instructions +=
                outcomes[w].instructions - instr_at_start[w];
            result.cycles += outcomes[w].cycles - cycles_at_start[w];
            break;
        }

        // Barrier merge, worker-index order: coverage, hash sets,
        // then corpus broadcast.
        harness::CoverageTracker merged(graph_);
        std::unordered_set<uint64_t> hashes;
        for (unsigned w = 0; w < workers; ++w) {
            merged.merge(engines[w]->coverage());
            hashes.insert(engines[w]->seenHashes().begin(),
                          engines[w]->seenHashes().end());
        }
        std::vector<std::vector<CorpusEntry>> adds(workers);
        for (unsigned w = 0; w < workers; ++w)
            adds[w] = engines[w]->takeRoundAdds();
        for (unsigned w = 0; w < workers; ++w) {
            engines[w]->mergeCoverage(merged);
            engines[w]->mergeSeenHashes(hashes);
            for (unsigned v = 0; v < workers; ++v) {
                if (v != w)
                    engines[w]->adoptEntries(adds[v]);
            }
        }

        instructions_before = 0;
        cycles_before = 0;
        for (unsigned w = 0; w < workers; ++w) {
            instructions_before += engines[w]->stats().instructions;
            cycles_before += engines[w]->stats().cycles;
        }
    }

    // Whole-campaign accounting and merged coverage (independent of
    // whether/when a detection ended the campaign).
    harness::CoverageTracker final_coverage(graph_);
    for (unsigned w = 0; w < workers; ++w) {
        result.totalInstructions += engines[w]->stats().instructions;
        result.totalCycles += engines[w]->stats().cycles;
        result.iterations += engines[w]->stats().iterations;
        final_coverage.merge(engines[w]->coverage());
    }
    result.coveredEdges = final_coverage.coveredEdges();
    result.coverageFraction = final_coverage.fraction();
    result.corpusSize = engines[0]->corpus().size();
    if (!result.detected) {
        result.instructions = result.totalInstructions;
        result.cycles = result.totalCycles;
    }
    return result;
}

harness::FuzzArm
makeCampaignFuzzArm(const rtl::PpConfig &config,
                    const rtl::PpFsmModel &model,
                    const graph::StateGraph &graph,
                    const graph::Tours &seed_tours,
                    CampaignOptions options, FuzzOptions fuzz_options)
{
    return [&config, &model, &graph, &seed_tours, options,
            fuzz_options](rtl::BugId bug) -> harness::Detection {
        CampaignOptions per_bug = options;
        // Decorrelate campaigns across bugs while keeping each one a
        // pure function of (seed, bug, worker-count).
        per_bug.seed =
            options.seed * 1'000'003 + static_cast<uint64_t>(bug);
        CampaignRunner runner(config, model, graph, per_bug,
                              fuzz_options);
        rtl::BugSet bugs;
        bugs.set(static_cast<size_t>(bug));
        CampaignResult campaign = runner.run(bugs, seed_tours);

        harness::Detection detection;
        detection.detected = campaign.detected;
        detection.instructions = campaign.instructions;
        detection.cycles = campaign.cycles;
        detection.detail = campaign.detail;
        return detection;
    };
}

} // namespace archval::fuzz
