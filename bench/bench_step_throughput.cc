/**
 * @file
 * Step throughput: an HDL model's interpreted step (the base
 * fsm::Model loop over the expression-tree next()) vs the bytecode
 * step HdlModel::forEachTransition runs, over every design in the
 * HDL corpus.
 *
 * Two layers are measured per design:
 *
 *  - step-level expansion: repeated passes expanding every reachable
 *    state through every choice code (states/sec and cycles/sec,
 *    where one cycle = one (state, choice) step). The bytecode arm
 *    is the exact call the enumerator makes, per-call kernel
 *    included. The two arms alternate in rounds and each reports its
 *    median time per pass, so host drift lands on both alike. This
 *    is the number the speedup column gates on.
 *  - end-to-end enumeration wall time per step (informational;
 *    includes hashing/interning, which is step-independent).
 *
 * Both enumerations' graph fingerprints are cross-checked before
 * timing — a fast wrong step is not a result. The committed baseline
 * gates `speedup_bytecode` >= 2x on the largest design
 * (bench_diff.py MIN_FLOORS).
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hh"
#include "compile/bytecode.hh"
#include "graph/state_graph.hh"
#include "hdl/corpus.hh"
#include "murphi/enumerator.hh"
#include "support/timer.hh"

namespace archval
{
namespace
{

/** @p model seen through its interpreted step: everything forwards
 *  except forEachTransition, which stays the base loop over next(). */
class InterpretedStep : public fsm::Model
{
  public:
    explicit InterpretedStep(const fsm::Model &model) : model_(model) {}

    std::string name() const override { return model_.name(); }
    const std::vector<fsm::StateVarInfo> &
    stateVars() const override
    {
        return model_.stateVars();
    }
    const std::vector<fsm::ChoiceVarInfo> &
    choiceVars() const override
    {
        return model_.choiceVars();
    }
    BitVec resetState() const override { return model_.resetState(); }
    std::optional<fsm::Transition>
    next(const BitVec &state, const fsm::Choice &choice) const override
    {
        return model_.next(state, choice);
    }

  private:
    const fsm::Model &model_;
};

/** One timed default-option enumeration. */
struct EnumRun
{
    uint64_t fingerprint;
    double seconds;
};

EnumRun
runEnum(const fsm::Model &model)
{
    murphi::Enumerator enumerator(model);
    WallTimer timer;
    graph::StateGraph graph = enumerator.runOrThrow();
    EnumRun run;
    run.seconds = timer.seconds();
    run.fingerprint = graph::fingerprint(graph);
    return run;
}

/** Time repeated full passes of @p pass (one pass = expand every
 *  state once) for at least @p min_seconds; @return seconds per
 *  pass. */
template <typename Fn>
double
secondsPerPass(Fn &pass, double min_seconds)
{
    WallTimer timer;
    size_t passes = 0;
    do {
        pass();
        ++passes;
    } while (timer.seconds() < min_seconds);
    return timer.seconds() / double(passes);
}

/** @return the median of @p samples (an odd count). */
double
median(std::vector<double> samples)
{
    std::nth_element(samples.begin(),
                     samples.begin() + samples.size() / 2,
                     samples.end());
    return samples[samples.size() / 2];
}

/** Time the two arms in alternating rounds; @return each arm's
 *  median seconds per pass. */
template <typename A, typename B>
std::pair<double, double>
interleavedSecondsPerPass(A &&a, B &&b)
{
    constexpr int kRounds = 11;
    constexpr double kRoundSeconds = 0.025;
    a(); // warm-up (page in code, touch buffers)
    b();
    std::vector<double> a_samples;
    std::vector<double> b_samples;
    for (int round = 0; round < kRounds; ++round) {
        a_samples.push_back(secondsPerPass(a, kRoundSeconds));
        b_samples.push_back(secondsPerPass(b, kRoundSeconds));
    }
    return {median(std::move(a_samples)), median(std::move(b_samples))};
}

void
benchDesign(const hdl::CorpusDesign &design,
            bench::JsonWriter &writer)
{
    auto translated = hdl::translateCorpus(design);
    if (!translated.ok())
        fatal(translated.errorMessage());
    const hdl::HdlModel &model = *translated.value().model;
    const InterpretedStep interpreted(model);
    const uint64_t combos =
        model.makeChoiceCodec().numCombinations();

    // End-to-end enumeration per step, fingerprint-checked.
    EnumRun interp = runEnum(interpreted);
    EnumRun bytecode = runEnum(model);
    if (bytecode.fingerprint != interp.fingerprint)
        fatal(std::string("step fingerprint mismatch on ") +
              design.name);

    // Reachable states for the step-level passes, read from the
    // graph's packed words as the enumerator reads them.
    murphi::Enumerator enumerator(model);
    graph::StateGraph graph = enumerator.runOrThrow();
    const size_t num_states = graph.numStates();

    uint64_t sink_count = 0;
    auto count_sink = [&sink_count](uint64_t,
                                    std::span<const uint64_t> next,
                                    unsigned) {
        sink_count += next.size() + 1;
    };

    const auto [interp_pass, bytecode_pass] = interleavedSecondsPerPass(
        [&] {
            for (graph::StateId s = 0; s < num_states; ++s)
                model.fsm::Model::forEachTransition(graph.stateWords(s),
                                                    count_sink);
        },
        [&] {
            for (graph::StateId s = 0; s < num_states; ++s)
                model.forEachTransition(graph.stateWords(s), count_sink);
        });
    if (sink_count == 0)
        fatal("step passes produced no transitions");

    const double interp_sps = double(num_states) / interp_pass;
    const double bytecode_sps = double(num_states) / bytecode_pass;
    const double speedup_bytecode = interp_pass / bytecode_pass;

    std::printf("  %-16s %8zu states %4llu combos | "
                "%11.0f / %11.0f states/s | bytecode %5.1fx%s\n",
                design.name, num_states,
                (unsigned long long)combos, interp_sps,
                bytecode_sps, speedup_bytecode,
                design.largest ? "  [largest]" : "");

    const compile::Program &program = model.program();
    writer.beginRow();
    writer.add("design", design.name);
    writer.add("largest", design.largest);
    writer.add("states", (uint64_t)num_states);
    writer.add("edges", (uint64_t)graph.numEdges());
    writer.add("combos", combos);
    writer.add("interp_states_per_sec", interp_sps);
    writer.add("bytecode_states_per_sec", bytecode_sps);
    writer.add("interp_cycles_per_sec", interp_sps * double(combos));
    writer.add("bytecode_cycles_per_sec",
               bytecode_sps * double(combos));
    writer.add("speedup_bytecode", speedup_bytecode);
    writer.add("enum_interp_seconds", interp.seconds);
    writer.add("enum_bytecode_seconds", bytecode.seconds);
    writer.add("bytecode_bytes", (uint64_t)program.byteSize());
    writer.add("bytecode_regs", (uint64_t)program.numRegs);
}

} // namespace
} // namespace archval

int
main(int argc, char **argv)
{
    using namespace archval;
    bench::banner("bench_step_throughput",
                  "HDL step: interpreted vs bytecode "
                  "(states/sec, cycles/sec)");
    std::string json = bench::jsonPath(argc, argv);

    bench::JsonWriter writer("step_throughput");
    for (const auto &design : hdl::designCorpus())
        benchDesign(design, writer);

    if (!writer.write(json)) {
        std::fprintf(stderr, "failed to write %s\n", json.c_str());
        return 1;
    }
    return 0;
}
