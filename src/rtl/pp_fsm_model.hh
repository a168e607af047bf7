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

#include "fsm/model.hh"
#include "rtl/pp_control.hh"

namespace archval::rtl
{

/**
 * PpInputs implementation that reads values from a choice tuple and
 * records which variables were consumed.
 */
class ChoiceInputs : public PpInputs
{
  public:
    /** @param choice One value per PpChoiceVar, in enum order. */
    explicit ChoiceInputs(const fsm::Choice &choice) : choice_(choice) {}

    uint32_t
    read(PpChoiceVar var) override
    {
        size_t index = static_cast<size_t>(var);
        used_[index] = true;
        return choice_[index];
    }

    /** @return true when every non-zero component was consumed. */
    bool
    canonical() const
    {
        for (size_t i = 0; i < numPpChoiceVars; ++i) {
            if (!used_[i] && choice_[i] != 0)
                return false;
        }
        return true;
    }

  private:
    const fsm::Choice &choice_;
    std::array<bool, numPpChoiceVars> used_{};
};

/**
 * PpInputs implementation over concrete signal values (used by the
 * RTL model and by the vector player, where values come from real
 * wires or from force/release commands).
 */
class SignalInputs : public PpInputs
{
  public:
    /** Set the value of @p var for this cycle. */
    void
    set(PpChoiceVar var, uint32_t value)
    {
        values_[static_cast<size_t>(var)] = value;
    }

    uint32_t
    read(PpChoiceVar var) override
    {
        return values_[static_cast<size_t>(var)];
    }

  private:
    std::array<uint32_t, numPpChoiceVars> values_{};
};

/**
 * The PP control as an enumerable synchronous model.
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
     * product. Identical results to the default, hundreds of times
     * faster on this model.
     */
    void forEachTransition(
        const BitVec &state,
        const std::function<void(uint64_t, fsm::Transition &&)> &fn)
        const override;

    /** Pack a control state into the enumerator's bit vector. */
    BitVec pack(const PpControlState &state) const;

    /** Unpack an enumerator bit vector into a control state. */
    PpControlState unpack(const BitVec &packed) const;

    /** Re-run the control for (state, choice) to recover the cycle's
     *  outputs (used by the vector generator). Takes an unpacked
     *  state, so a caller stepping many edges out of one state
     *  unpacks it once. */
    PpOutputs outputsFor(const PpControlState &state,
                         const fsm::Choice &choice) const;

    /**
     * Canonicalize arbitrary per-variable values into a legal choice
     * tuple for @p state: runs the control once and zeroes every
     * variable it did not examine. The result is always accepted by
     * next(). Used by the biased-random stimulus baseline, which
     * samples realistic event probabilities without knowing which
     * inputs matter in a given state.
     */
    fsm::Choice canonicalize(const BitVec &state,
                             const std::array<uint32_t,
                                              numPpChoiceVars> &values)
        const;

    /** @return the configuration. */
    const PpConfig &config() const { return control_.config(); }

  private:
    PpControl control_;
    std::vector<fsm::StateVarInfo> stateVars_;
    std::vector<fsm::ChoiceVarInfo> choiceVars_;
    fsm::StateLayout layout_;
    fsm::ChoiceCodec codec_;
};

} // namespace archval::rtl

#endif // ARCHVAL_RTL_PP_FSM_MODEL_HH
