/**
 * @file
 * FSM model of the PP control — the output of the paper's "HDL to
 * FSM translator" step for the Protocol Processor (Figure 3.2).
 *
 * Wraps the shared PpControl next-state function as an fsm::Model:
 * the abstract datapath and interface units (PC, caches, pipeline
 * registers, Inbox, Outbox, memory controller) become
 * nondeterministic choice variables, and the model rejects
 * non-canonical choice tuples (a variable that the control did not
 * examine this cycle must be zero), which both prunes the search and
 * implements the paper's "constraining the abstract models".
 */

#ifndef ARCHVAL_RTL_PP_FSM_MODEL_HH
#define ARCHVAL_RTL_PP_FSM_MODEL_HH

#include <array>
#include <span>

#include "fsm/model.hh"
#include "rtl/pp_control.hh"

namespace archval::rtl
{

/**
 * The PP control as an enumerable synchronous model.
 *
 * A control state packs into one word: lineWords is at most
 * PpConfig::maxLineWords, so the layout is at most 55 bits wide
 * (see stateVars()). The constructor throws FatalError on a
 * lineWords out of range, like PpControl's.
 */
class PpFsmModel : public fsm::Model
{
  public:
    /** @param config PP parameters (shared with the RTL model). */
    explicit PpFsmModel(const PpConfig &config);

    std::string name() const override { return "pp_control"; }
    const std::vector<fsm::StateVarInfo> &stateVars() const override;
    const std::vector<fsm::ChoiceVarInfo> &choiceVars() const override;
    BitVec resetState() const override;
    std::optional<fsm::Transition>
    next(const BitVec &state, const fsm::Choice &choice) const override;

    /**
     * Sparse transition generator: explores only canonical choice
     * tuples by forking on the first input the control reads that is
     * not yet bound, instead of filtering the full cartesian
     * product, and builds each tuple's choice code as it forks. It
     * works from and into one state word and allocates nothing.
     * Identical results to the default, hundreds of times faster on
     * this model.
     */
    Result<bool> forEachTransition(std::span<const uint64_t> state,
                                   fsm::TransitionSink sink)
        const override;

    /** Pack a control state into the enumerator's bit vector. */
    BitVec pack(const PpControlState &state) const;

    /** Unpack packed words — a graph's stateWords(id) — into a
     *  control state. */
    PpControlState
    unpack(std::span<const uint64_t> packed) const
    {
        return unpackWord(packed[0]);
    }

    /** Unpack an enumerator bit vector into a control state. */
    PpControlState
    unpack(const BitVec &packed) const
    {
        return unpack(packed.words());
    }

    /** Re-run the control for (state, choice) to recover the cycle's
     *  outputs (used by the vector generator). Takes an unpacked
     *  state, so a caller stepping many edges out of one state
     *  unpacks it once. */
    PpOutputs outputsFor(const PpControlState &state,
                         const fsm::Choice &choice) const;

    /**
     * Canonicalize arbitrary per-variable values into a legal choice
     * tuple for the packed @p state: runs the control once and zeroes
     * every variable it did not examine. The result is always
     * accepted by next(). Used by the biased-random stimulus
     * baseline, which samples realistic event probabilities without
     * knowing which inputs matter in a given state.
     */
    fsm::Choice canonicalize(std::span<const uint64_t> state,
                             const std::array<uint32_t,
                                              numPpChoiceVars> &values)
        const;

    /** @return the configuration. */
    const PpConfig &config() const { return control_.config(); }

  private:
    /** Number of latched state fields (stateVars().size()). */
    static constexpr size_t numFields = 15;

    /** @return @p state packed into its one state word. */
    uint64_t packWord(const PpControlState &state) const;

    /** @return the control state a state word holds. */
    PpControlState unpackWord(uint64_t word) const;

    PpControl control_;
    std::vector<fsm::StateVarInfo> stateVars_;
    std::vector<fsm::ChoiceVarInfo> choiceVars_;
    /** Per state field, its bit offset and value mask in the word. */
    std::array<uint8_t, numFields> shift_{};
    std::array<uint64_t, numFields> mask_{};
    /** Per choice variable, its stride in the packed choice code. */
    std::array<uint64_t, numPpChoiceVars> stride_{};
};

} // namespace archval::rtl

#endif // ARCHVAL_RTL_PP_FSM_MODEL_HH
