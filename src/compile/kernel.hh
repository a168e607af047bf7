/**
 * @file
 * Execution kernel over lowered bytecode.
 *
 * ScalarKernel runs one (state, choice) step at a time through a
 * computed-goto threaded interpreter. Its transitions are
 * bit-identical to the producing model's interpreted step.
 *
 * A kernel holds mutable per-instance scratch (the register file)
 * and is NOT thread-safe; create one per thread or per call. The
 * Program it runs is immutable and safely shared across threads.
 */

#ifndef ARCHVAL_COMPILE_KERNEL_HH
#define ARCHVAL_COMPILE_KERNEL_HH

#include <span>
#include <vector>

#include "compile/bytecode.hh"

namespace archval::compile
{

/** Single-trace bytecode interpreter. */
class ScalarKernel
{
  public:
    /** @param program Program to run; must outlive the kernel. */
    explicit ScalarKernel(const Program &program);

    /**
     * Enumerate every legal transition out of the packed state
     * @p state in ascending packed-code order — the exact callback
     * sequence of the base fsm::Model::forEachTransition loop on the
     * producing model.
     */
    void forEachTransition(std::span<const uint64_t> state,
                           fsm::TransitionSink sink);

  private:
    void exec();
    bool legal() const;
    /** Pack the next-state registers into next_. */
    void materialize();

    const Program &prog_;
    std::vector<uint64_t> regs_;
    std::vector<uint64_t> next_; ///< the next state's packed words
};

} // namespace archval::compile

#endif // ARCHVAL_COMPILE_KERNEL_HH
