/**
 * @file
 * Flat bytecode form of an FsmSpec and its lowering.
 *
 * A Program is an SSA instruction list over a dense uint64 register
 * file: registers [0, S) hold the source state fields, [S, S+C) the
 * choice values, the next K registers are constants preloaded at
 * build time, and every instruction writes one fresh temp register.
 * There is no pointer chasing and no per-cycle allocation — a kernel
 * step is "overwrite the choice registers, run the instruction list".
 *
 * Lowering tracks a static *value-width bound* per register: a sound
 * upper bound on the number of significant bits any value it can hold
 * may have. `Mask` instructions whose operand is already narrow
 * enough are elided (the mask is a no-op on values below the bound).
 */

#ifndef ARCHVAL_COMPILE_BYTECODE_HH
#define ARCHVAL_COMPILE_BYTECODE_HH

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "compile/fsm_spec.hh"
#include "fsm/model.hh"

namespace archval::compile
{

/** Bytecode operations. Same semantics as the SpecOp of one name. */
enum class BOp : uint8_t
{
    Mask,
    Not,
    BitNot,
    Neg,
    RedXor,
    Add,
    Sub,
    Shl,
    Shr,
    And,
    Or,
    Xor,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    LAnd,
    LOr,
    Mux,
    Halt, ///< sentinel terminating the instruction list
    Count,
};

/** Sentinel register id for "absent" (no instr/legal register). */
constexpr uint16_t kNoReg = std::numeric_limits<uint16_t>::max();

/** One fixed-width instruction: dst = op(a, b, c) masked to width. */
struct Insn
{
    BOp op = BOp::Halt;
    uint8_t width = 64; ///< low bits kept after the op; 64 = no mask
    uint16_t dst = 0;
    uint16_t a = 0;
    uint16_t b = 0;
    uint16_t c = 0;
};

/** Lowered program plus the layout metadata the kernel needs. */
struct Program
{
    std::string name;
    std::vector<fsm::StateVarInfo> stateVars;
    std::vector<fsm::ChoiceVarInfo> choiceVars;
    fsm::StateLayout layout; ///< over stateVars

    size_t numRegs = 0;
    uint16_t choiceBase = 0; ///< first choice register (state at 0)
    /** Constant registers and their preload values, in register
     *  order starting at choiceBase + numChoiceVars. */
    std::vector<std::pair<uint16_t, uint64_t>> constInit;
    std::vector<Insn> insns; ///< ends with a Halt sentinel

    std::vector<uint16_t> nextRegs; ///< per state var (masked value)
    uint16_t instrReg = kNoReg;
    uint16_t legalReg = kNoReg; ///< transition legal iff != 0

    /** Total combinations of the choice variables. */
    uint64_t numCombos = 1;

    /** Approximate encoded size: instructions + constant pool. */
    size_t byteSize() const
    {
        return insns.size() * sizeof(Insn) +
               constInit.size() * sizeof(uint64_t);
    }
};

/**
 * Lower @p spec to bytecode. Deterministic; instruments
 * `compile.lower_micros`, `compile.bytecode_bytes` and
 * `compile.programs` via support/telemetry.
 */
Program lower(const FsmSpec &spec);

} // namespace archval::compile

#endif // ARCHVAL_COMPILE_BYTECODE_HH
