#include "engine.hh"

#include <algorithm>

#include "harness/baselines.hh"
#include "pp/ref_sim.hh"
#include "support/strings.hh"
#include "support/telemetry.hh"
#include "vecgen/vector_gen.hh"

namespace archval::fuzz
{

FuzzEngine::FuzzEngine(const rtl::PpConfig &config,
                       const rtl::PpFsmModel &model,
                       const graph::StateGraph &graph, uint64_t seed,
                       FuzzOptions options)
    : config_(config), model_(model), graph_(graph),
      options_(options), rng_(seed), corpus_(options.corpusMax),
      mutator_(graph, options.maxTraceInstructions), player_(config),
      coverage_(graph)
{
}

void
FuzzEngine::seedCorpus(const graph::Tours &tours, size_t offset,
                       size_t stride)
{
    std::vector<Candidate> seeds;

    // Tour prefixes: the tour's front edges are the cheapest dense
    // coverage available, and every prefix of a reset-rooted walk is
    // itself a reset-rooted walk (flattened into one run, legs and
    // all, so mutants can cut and splice it anywhere).
    size_t take = std::min(options_.seedTours, tours.size());
    for (size_t i = 0; i < take; ++i) {
        Candidate seed;
        seed.vecgenSeed = rng_.next();
        for (graph::TraceCursor cursor = tours.cursor(graph_, i);
             seed.trace.instructions < options_.maxTraceInstructions &&
             cursor.next();) {
            seed.trace.edges.push_back(cursor.edge());
            seed.trace.instructions +=
                graph_.edge(cursor.edge()).instrCount;
        }
        if (!seed.trace.edges.empty())
            seeds.push_back(std::move(seed));
    }

    // Uniform random walks diversify the initial population beyond
    // the tour's deterministic edge order.
    for (size_t i = 0; i < options_.seedWalks; ++i) {
        harness::RandomWalker walker(graph_, rng_.next());
        Candidate seed;
        seed.vecgenSeed = rng_.next();
        seed.trace = walker.walk(options_.maxTraceInstructions);
        if (!seed.trace.edges.empty())
            seeds.push_back(std::move(seed));
    }

    for (size_t i = 0; i < seeds.size(); ++i) {
        corpus_.add(seeds[i], 4);
        if (stride <= 1 || i % stride == offset)
            pendingSeeds_.push_back(seeds[i]);
    }
}

uint64_t
FuzzEngine::archSignature(const vecgen::TestTrace &trace) const
{
    // Reference execution of the retired stream (bug-independent):
    // hashes what the stimulus *does* architecturally, so novelty
    // rewards new datapath behaviour, not artifacts of the fault
    // under test.
    pp::RefSim ref(config_.machine);
    ref.setStreamMode(true);
    ref.loadProgram(trace.retiredStream);
    ref.setInbox(trace.inbox);
    ref.run(trace.retiredStream.size() + 8);
    pp::ArchState state = ref.archState();

    uint64_t hash = 0xcbf29ce484222325ull;
    auto mix = [&hash](uint32_t word) {
        hash ^= word;
        hash *= 0x100000001b3ull;
    };
    for (uint32_t r : state.regs)
        mix(r);
    for (uint32_t w : state.dmem)
        mix(w);
    for (uint32_t w : state.outbox)
        mix(w);
    mix(static_cast<uint32_t>(state.outbox.size()));
    return hash;
}

std::vector<Candidate>
FuzzEngine::pendingSeedCandidates() const
{
    return std::vector<Candidate>(pendingSeeds_.begin() + nextPending_,
                                  pendingSeeds_.end());
}

void
FuzzEngine::primePendingSeedResults(
    std::vector<harness::PlayResult> results)
{
    primedOffset_ = nextPending_;
    primedSeedResults_ = std::move(results);
}

std::optional<FuzzDetection>
FuzzEngine::evaluate(const Candidate &candidate,
                     const rtl::BugSet &bugs, bool from_seed,
                     const char *origin,
                     const harness::PlayResult *primed)
{
    telemetry::ScopedSpan span("fuzz.iter", "edges",
                               candidate.trace.edges.size());
    ++stats_.iterations;
    telemetry::counter("fuzz.iterations").add(1);

    // Arc novelty is static: the candidate is a walk in the
    // enumerated graph, so its coverage is known before simulation.
    uint64_t before = coverage_.coveredEdges();
    coverage_.addTrace(candidate.trace);
    uint64_t new_arcs = coverage_.coveredEdges() - before;

    vecgen::VectorGenerator generator(model_, candidate.vecgenSeed);
    vecgen::TestTrace trace =
        generator.generate(graph_, candidate.trace,
                           static_cast<size_t>(stats_.iterations));

    harness::PlayResult play =
        primed ? *primed : player_.play(trace, bugs);
    stats_.instructions += play.instructions;
    stats_.cycles += play.cycles;

    uint64_t signature = archSignature(trace);
    bool new_state = seenHashes_.insert(signature).second;

    if ((new_arcs > 0 || new_state) && !from_seed) {
        uint64_t energy = 1 + 8 * new_arcs + (new_state ? 4 : 0);
        size_t index =
            corpus_.add(candidate, energy, new_arcs, new_state);
        roundAdds_.push_back(corpus_.entry(index));
        ++stats_.admitted;
        telemetry::counter("fuzz.admitted").add(1);
    }
    if (new_arcs > 0) {
        ++stats_.arcNovel;
        telemetry::counter("fuzz.arc_novel").add(1);
    }
    if (new_state) {
        ++stats_.stateNovel;
        telemetry::counter("fuzz.state_novel").add(1);
    }

    if (play.diverged) {
        FuzzDetection detection;
        detection.detected = true;
        detection.iterations = stats_.iterations;
        detection.instructions = stats_.instructions;
        detection.cycles = stats_.cycles;
        detection.detail =
            formatString("%s candidate %llu (%llu edges): %s", origin,
                         (unsigned long long)stats_.iterations,
                         (unsigned long long)candidate.trace.edges.size(),
                         play.diff.c_str());
        return detection;
    }
    return std::nullopt;
}

std::optional<FuzzDetection>
FuzzEngine::step(const rtl::BugSet &bugs)
{
    if (nextPending_ < pendingSeeds_.size()) {
        size_t index = nextPending_++;
        const Candidate &seed = pendingSeeds_[index];
        const harness::PlayResult *primed = nullptr;
        if (index >= primedOffset_ &&
            index - primedOffset_ < primedSeedResults_.size())
            primed = &primedSeedResults_[index - primedOffset_];
        return evaluate(seed, bugs, /*from_seed=*/true, "seed",
                        primed);
    }
    if (corpus_.empty())
        return std::nullopt; // degenerate graph: nothing to mutate

    size_t base_index = corpus_.pick(rng_);
    size_t donor_index = rng_.index(corpus_.size());
    Candidate base = corpus_.entry(base_index).candidate;
    Candidate donor = corpus_.entry(donor_index).candidate;
    auto op = static_cast<MutationOp>(
        rng_.index(static_cast<size_t>(MutationOp::NumOps)));
    Candidate mutant = mutator_.apply(op, base, donor, rng_);
    return evaluate(mutant, bugs, /*from_seed=*/false,
                    mutationOpName(op));
}

FuzzDetection
FuzzEngine::run(const rtl::BugSet &bugs, uint64_t instruction_budget)
{
    uint64_t target = stats_.instructions + instruction_budget;
    // Iteration cap: guards livelock on graphs whose walks retire
    // (almost) no instructions — every candidate costs >= 1 cycle.
    uint64_t max_iterations = stats_.iterations + instruction_budget;
    while (stats_.instructions < target &&
           stats_.iterations < max_iterations) {
        bool had_pending = nextPending_ < pendingSeeds_.size();
        if (auto detection = step(bugs))
            return *detection;
        if (!had_pending && corpus_.empty())
            break; // nothing to mutate and no seeds left
    }
    FuzzDetection exhausted;
    exhausted.iterations = stats_.iterations;
    exhausted.instructions = stats_.instructions;
    exhausted.cycles = stats_.cycles;
    return exhausted;
}

void
FuzzEngine::mergeCoverage(const harness::CoverageTracker &other)
{
    coverage_.merge(other);
}

void
FuzzEngine::mergeSeenHashes(const std::unordered_set<uint64_t> &other)
{
    seenHashes_.insert(other.begin(), other.end());
}

void
FuzzEngine::adoptEntries(const std::vector<CorpusEntry> &entries)
{
    for (const CorpusEntry &entry : entries)
        corpus_.add(entry.candidate, entry.energy, entry.newArcs,
                    entry.newState);
}

std::vector<CorpusEntry>
FuzzEngine::takeRoundAdds()
{
    std::vector<CorpusEntry> result = std::move(roundAdds_);
    roundAdds_.clear();
    return result;
}

} // namespace archval::fuzz
