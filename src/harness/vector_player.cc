#include "vector_player.hh"

#include "support/status.hh"
#include "support/strings.hh"
#include "support/telemetry.hh"

namespace archval::harness
{

using rtl::PpChoiceVar;

rtl::ForcedSignals
VectorPlayer::drainSignals()
{
    rtl::ForcedSignals s{};
    s[static_cast<size_t>(PpChoiceVar::FetchClass)] = 0; // ALU
    s[static_cast<size_t>(PpChoiceVar::Dual)] = 0;
    s[static_cast<size_t>(PpChoiceVar::IHit)] = 1;
    s[static_cast<size_t>(PpChoiceVar::DHit)] = 1;
    s[static_cast<size_t>(PpChoiceVar::Dirty)] = 0;
    // SameLine=1 is the safe drain value: if a load probes against a
    // still-pending store during the drain, the conflict stall drains
    // the store first, preserving sequential order for any addresses.
    s[static_cast<size_t>(PpChoiceVar::SameLine)] = 1;
    s[static_cast<size_t>(PpChoiceVar::InboxReady)] = 1;
    s[static_cast<size_t>(PpChoiceVar::OutboxReady)] = 1;
    s[static_cast<size_t>(PpChoiceVar::MemReply)] = 1;
    s[static_cast<size_t>(PpChoiceVar::BranchTaken)] = 0;
    return s;
}

unsigned
VectorPlayer::drainLength(const rtl::PpConfig &config)
{
    // Worst case: finish a refill, a spill writeback, an I-refill
    // with fix-up, a conflict, and flush three pipeline stages.
    return 4 * config.lineWords + 24;
}

void
VectorPlayer::primeCore(rtl::PpCore &core,
                        const vecgen::TestTrace &trace,
                        const rtl::BugSet &bugs)
{
    core.loadStream(trace.fetchStream);
    core.setInbox(trace.inbox);
    for (size_t b = 0; b < rtl::numBugs; ++b) {
        if (bugs.test(b))
            core.setBug(static_cast<rtl::BugId>(b), true);
    }
}

std::vector<rtl::PpControlState>
VectorPlayer::expectedStates(const rtl::PpFsmModel &model,
                             const graph::StateGraph &graph)
{
    if (graph.stateBits() != model.stateBits()) {
        fatal(formatString("the lockstep check needs %zu-bit states; "
                           "the graph holds %zu-bit states",
                           model.stateBits(), graph.stateBits()));
    }
    std::vector<rtl::PpControlState> states(graph.numStates());
    for (graph::StateId s = 0; s < states.size(); ++s)
        states[s] = model.unpack(graph.stateWords(s));
    return states;
}

namespace
{

using Use = ControlTape::Use;

/** drive()'s loop, one instantiation per tape use. */
template <Use use>
uint64_t
driveCycles(rtl::PpCore &core, const vecgen::TestTrace &trace,
            size_t first_cycle, size_t last_cycle,
            const VectorPlayer::LockstepSpec *lockstep,
            rtl::ControlAnswer *answers)
{
    uint64_t lockstep_errors = 0;
    graph::TraceCursor *tour = lockstep ? lockstep->tour : nullptr;
    if (tour && tour->position() != first_cycle)
        tour->seek(first_cycle);
    for (size_t i = first_cycle; i < last_cycle; ++i) {
        if constexpr (use == Use::Replay) {
            core.stepRecorded(trace.cycles[i], answers[i]);
        } else {
            core.forceSignals(trace.cycles[i]);
            core.step();
            if constexpr (use == Use::Record)
                answers[i] = {core.controlState(), core.lastOutputs()};
        }
        if (tour) {
            // The core's control must now sit exactly on the state
            // the tour's traversal enters.
            if (!tour->next() ||
                !(core.controlState() == lockstep->states[tour->state()]))
                ++lockstep_errors;
        }
    }
    return lockstep_errors;
}

} // namespace

uint64_t
VectorPlayer::drive(rtl::PpCore &core, const vecgen::TestTrace &trace,
                    size_t first_cycle, size_t last_cycle,
                    const LockstepSpec *lockstep, ControlTape tape)
{
    switch (tape.use) {
      case Use::Record:
        return driveCycles<Use::Record>(core, trace, first_cycle,
                                        last_cycle, lockstep,
                                        tape.answers);
      case Use::Replay:
        return driveCycles<Use::Replay>(core, trace, first_cycle,
                                        last_cycle, lockstep,
                                        tape.answers);
      case Use::Evaluate:
        break;
    }
    return driveCycles<Use::Evaluate>(core, trace, first_cycle,
                                      last_cycle, lockstep, nullptr);
}

pp::ArchState
VectorPlayer::specState(const rtl::PpConfig &config,
                        const vecgen::TestTrace &trace)
{
    // Executable specification: the retired stream in order, with
    // branches as no-ops (control flow is baked into the stream).
    std::vector<uint32_t> program = trace.retiredStream();
    const size_t length = program.size();
    pp::RefSim ref(config.machine);
    ref.setStreamMode(true);
    ref.loadProgram(std::move(program));
    ref.setInbox(trace.inbox);
    ref.run(length + 8);
    return ref.archState();
}

PlayResult
VectorPlayer::finish(const rtl::PpConfig &config, rtl::PpCore &core,
                     const pp::ArchState &spec)
{
    PlayResult result;

    // Drain: complete all in-flight work; newly fetched NOPs are
    // architecturally inert, so comparison is exact even if some are
    // still in the pipe when we stop.
    const rtl::PackedSignals drain =
        rtl::packSignals(drainSignals()).value();
    for (unsigned i = 0; i < drainLength(config); ++i) {
        if (core.pipeEmpty())
            break;
        core.forceSignals(drain);
        core.step();
    }
    result.drained = core.pipeEmpty();
    result.cycles = core.cycles();
    result.instructions = core.instructionsRetired();
    result.diff = spec.diff(core.archState());
    result.diverged = !result.diff.empty();
    return result;
}

PlayResult
VectorPlayer::play(const vecgen::TestTrace &trace,
                   const rtl::BugSet &bugs) const
{
    telemetry::ScopedSpan span("player.play", "cycles",
                               trace.cycles.size());
    telemetry::counter("player.plays").add(1);
    rtl::PpCore core(config_, rtl::CoreMode::Vector);
    primeCore(core, trace, bugs);
    drive(core, trace, 0, trace.cycles.size());
    return finish(config_, core, specState(config_, trace));
}

} // namespace archval::harness
