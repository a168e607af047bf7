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

#include <functional>
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
     * Enumerate every legal transition out of @p state in ascending
     * packed-code order — the exact callback sequence of
     * fsm::Model::forEachTransition on the producing model.
     */
    void forEachTransition(
        const BitVec &state,
        const std::function<void(uint64_t, fsm::Transition &&)> &fn);

  private:
    void exec();
    bool legal() const;
    fsm::Transition materialize() const;

    const Program &prog_;
    std::vector<uint64_t> regs_;
};

} // namespace archval::compile

#endif // ARCHVAL_COMPILE_KERNEL_HH
