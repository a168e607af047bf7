/**
 * @file
 * Simulation framework — step 4 of the methodology (Figure 3.1).
 *
 * Plays generated test traces on the RTL core (vector mode, signals
 * forced per cycle) and runs the executable specification (the
 * instruction-level simulator in stream mode) on the retired stream,
 * then compares architectural state. A bug is "found" when the two
 * disagree.
 *
 * drive() can also check lockstep: after every forced cycle the
 * core's control state must equal the state-graph node the tour
 * intended to be in — the property that makes transition-tour
 * coverage claims meaningful. The batch ReplayEngine runs that check
 * on every job given a lockstep reference; play() is the unchecked
 * sequential reference the engine is held to.
 *
 * drive() can also record each forced cycle's control answer, or
 * step from answers recorded on another run of the same trace: the
 * forced word alone fixes the control's path, whatever the bugs, so a
 * replayed cycle steps only the datapath (rtl::PpCore::stepRecorded).
 * play() always evaluates the control.
 */

#ifndef ARCHVAL_HARNESS_VECTOR_PLAYER_HH
#define ARCHVAL_HARNESS_VECTOR_PLAYER_HH

#include <string>
#include <vector>

#include "graph/state_graph.hh"
#include "graph/tour.hh"
#include "pp/ref_sim.hh"
#include "rtl/pp_core.hh"
#include "rtl/pp_fsm_model.hh"
#include "vecgen/vector_gen.hh"

namespace archval::harness
{

/** Outcome of playing one test trace. */
struct PlayResult
{
    bool diverged = false;   ///< implementation != specification
    std::string diff;        ///< first architectural difference
    uint64_t cycles = 0;     ///< cycles simulated (incl. drain)
    uint64_t instructions = 0; ///< instructions retired by the core
    /** Cycles whose control state left the tour (0 when played
     *  without a lockstep reference). */
    uint64_t lockstepErrors = 0;
    bool drained = false;    ///< pipe empty when the run ended
    /** Not played: a ReplayEngine batch with stopOnDivergence set
     *  skips every job after the first divergence. */
    bool skipped = false;
};

/**
 * How VectorPlayer::drive() obtains each cycle's control answer.
 * Evaluate steps the control. Record does too, and stores cycle i's
 * answer at answers[i]; Replay steps cycle i from answers[i]
 * (rtl::PpCore::stepRecorded), which is exact when a run of the same
 * trace recorded them, under any bugs. The buffer must hold every
 * cycle driven.
 */
struct ControlTape
{
    enum class Use
    {
        Evaluate,
        Record,
        Replay,
    };
    Use use = Use::Evaluate;
    rtl::ControlAnswer *answers = nullptr;
};

/**
 * Plays vector traces against the specification.
 */
class VectorPlayer
{
  public:
    /** @param config Machine configuration (all models share it). */
    explicit VectorPlayer(const rtl::PpConfig &config)
        : config_(config)
    {
    }

    /**
     * Play @p trace on a fresh core with @p bugs injected; compare
     * against the stream specification.
     */
    PlayResult play(const vecgen::TestTrace &trace,
                    const rtl::BugSet &bugs = {}) const;

    /** @return the drain stimulus used after a trace's last cycle. */
    static rtl::ForcedSignals drainSignals();

    /** @return number of drain cycles for a given configuration. */
    static unsigned drainLength(const rtl::PpConfig &config);

    /**
     * @name Shared trace-driving primitives
     * One driver backs play() and the batch ReplayEngine, so bug
     * injection, forcing and draining cannot drift apart between the
     * sequential and checkpointed paths.
     * @{
     */

    /**
     * Lockstep-check context for drive(): after forced cycle i the
     * core's control must equal states[d], where d is the state
     * traversal i of @c tour enters and @c states is expectedStates()
     * of the tour's graph. drive() seeks the cursor to its first
     * cycle when it is not already there.
     */
    struct LockstepSpec
    {
        const rtl::PpControlState *states = nullptr;
        graph::TraceCursor *tour = nullptr;
    };

    /** @return every state of @p graph unpacked by @p model, indexed
     *  by state id: the table a LockstepSpec reads, built once so
     *  the per-cycle check is a lookup, not an unpack. Throws
     *  FatalError when the graph's states are not the model's
     *  width. */
    static std::vector<rtl::PpControlState>
    expectedStates(const rtl::PpFsmModel &model,
                   const graph::StateGraph &graph);

    /** Load @p trace's stream/inbox into @p core and inject @p bugs. */
    static void primeCore(rtl::PpCore &core,
                          const vecgen::TestTrace &trace,
                          const rtl::BugSet &bugs);

    /**
     * Force-and-step @p core through @p trace's cycles
     * [@p first_cycle, @p last_cycle), taking each cycle's control
     * answer as @p tape says.
     * @return lockstep mismatches (0 when @p lockstep is null).
     */
    static uint64_t drive(rtl::PpCore &core,
                          const vecgen::TestTrace &trace,
                          size_t first_cycle, size_t last_cycle,
                          const LockstepSpec *lockstep = nullptr,
                          ControlTape tape = {});

    /**
     * @return the executable specification's architectural state
     * after @p trace's retired stream: the reference every job that
     * plays @p trace is compared against, whatever its bugs. It
     * depends on the trace alone, so a batch computes it once per
     * trace.
     */
    static pp::ArchState specState(const rtl::PpConfig &config,
                                   const vecgen::TestTrace &trace);

    /**
     * Drain @p core and compare its architectural state with
     * @p spec, the specState() of the trace it played.
     */
    static PlayResult finish(const rtl::PpConfig &config,
                             rtl::PpCore &core,
                             const pp::ArchState &spec);

    /** @} */

  private:
    rtl::PpConfig config_;
};

} // namespace archval::harness

#endif // ARCHVAL_HARNESS_VECTOR_PLAYER_HH
