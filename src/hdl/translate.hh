/**
 * @file
 * HDL-to-FSM translation — step 1 of the methodology (Figure 3.1).
 *
 * Converts an elaborated design into an enumerable fsm::Model:
 *
 *  - Registers written by sequential always blocks become latched
 *    state variables (reset values from `vfsm state ... reset N`
 *    annotations, default 0).
 *  - Annotated `vfsm input` nets and unconnected top-level input
 *    ports become nondeterministic choice variables: the abstract
 *    blocks that "try every combination of values".
 *  - Continuous assigns and combinational always blocks form the
 *    next-state/output network, evaluated in dependency order;
 *    combinational cycles are an error.
 *  - A combinational target not assigned on every path holds its
 *    previous value: the implicit latch of the paper's footnote 1.
 *    The translator makes it an explicit state variable and reports
 *    it in the translation notes.
 *  - A `vfsm instr <net>` annotation names the per-cycle instruction
 *    count used by the tour generator's trace limits.
 */

#ifndef ARCHVAL_HDL_TRANSLATE_HH
#define ARCHVAL_HDL_TRANSLATE_HH

#include <memory>
#include <string>
#include <vector>

#include "fsm/model.hh"
#include "hdl/elaborate.hh"
#include "support/status.hh"

namespace archval::compile
{
struct Program; // see compile/bytecode.hh
}

namespace archval::hdl
{

class HdlModel;

/** Translation result plus diagnostics. */
struct TranslateResult
{
    std::unique_ptr<HdlModel> model;
    std::vector<std::string> notes; ///< inferred latches, defaults
};

/** Translate @p design into an enumerable model. */
Result<TranslateResult> translate(const ElabDesign &design);

/** Convenience: parse + elaborate + translate in one call. */
Result<TranslateResult> translateSource(const std::string &source,
                                        const std::string &top);

/**
 * fsm::Model produced by translation. Translation lowers the
 * expression network to bytecode once; forEachTransition() — the
 * step the enumerator runs — executes that bytecode, while next()
 * interprets the expression trees and is the reference the compile
 * tests hold the bytecode to.
 */
class HdlModel : public fsm::Model
{
  public:
    ~HdlModel() override;

    std::string name() const override;
    const std::vector<fsm::StateVarInfo> &stateVars() const override;
    const std::vector<fsm::ChoiceVarInfo> &choiceVars() const override;
    BitVec resetState() const override;
    std::optional<fsm::Transition>
    next(const BitVec &state, const fsm::Choice &choice) const override;

    /**
     * Every transition out of @p state through a per-call
     * compile::ScalarKernel over program(), which writes its
     * next-state registers into a word buffer: the callback sequence
     * of the base loop over next(), bit for bit. Thread-safe.
     */
    Result<bool> forEachTransition(std::span<const uint64_t> state,
                                   fsm::TransitionSink sink)
        const override;

    /** @return the bytecode this model steps through, lowered at
     *  translation time (see compile/bytecode.hh). */
    const compile::Program &program() const;

    /**
     * Evaluate a named net for (state, choice) — lets tests inspect
     * outputs of the combinational network.
     */
    uint64_t evalNet(const std::string &net, const BitVec &state,
                     const fsm::Choice &choice) const;

    struct Impl; ///< public so translate.cc internals can name it

  private:
    friend Result<TranslateResult> translate(const ElabDesign &);
    explicit HdlModel(std::unique_ptr<Impl> impl);
    std::unique_ptr<Impl> impl_;
};

} // namespace archval::hdl

#endif // ARCHVAL_HDL_TRANSLATE_HH
