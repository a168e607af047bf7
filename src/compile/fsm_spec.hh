/**
 * @file
 * Flat expression IR for compiled FSM next-state functions.
 *
 * An FsmSpec is the lowering-friendly view of a model's synchronous
 * step: one arena of side-effect-free expression nodes (DAG — the
 * builder hash-conses structurally identical subtrees) plus roots for
 * each state variable's next value, the optional per-edge instruction
 * count, and an optional legality predicate. Producers (today the
 * mini-Verilog translator, `hdl/translate`) emit a spec whose
 * evaluation is *bit-exact* with their interpreted step function; the
 * compile library lowers it to bytecode (`compile::lower`) executed by
 * the scalar kernel.
 *
 * Evaluation semantics (mirrors `HdlModel::Impl::eval` exactly):
 * every node yields a uint64; `width` is the number of low bits kept
 * after the op (64 = keep all). Producers encode their masking rules
 * into `width` — the kernel applies no masking of its own beyond it.
 */

#ifndef ARCHVAL_COMPILE_FSM_SPEC_HH
#define ARCHVAL_COMPILE_FSM_SPEC_HH

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "fsm/model.hh"

namespace archval::compile
{

/** Spec node operations. All are pure; none may trap. */
enum class SpecOp : uint8_t
{
    Const,    ///< imm
    StateRef, ///< state variable `a` (already masked to its width)
    ChoiceRef, ///< choice variable `a` (value in [0, cardinality))
    Mask,     ///< a & maskFor(width)
    Not,      ///< !a  (logical, 0/1)
    BitNot,   ///< ~a & maskFor(width)
    Neg,      ///< (~a + 1) & maskFor(width)
    RedXor,   ///< popcount(a) & 1
    Add,      ///< (a + b) & maskFor(width)
    Sub,      ///< (a - b) & maskFor(width)
    Shl,      ///< b >= 64 ? 0 : (a << b) & maskFor(width)
    Shr,      ///< b >= 64 ? 0 : a >> b   (never masked)
    And,      ///< a & b
    Or,       ///< a | b
    Xor,      ///< a ^ b
    Eq,       ///< a == b
    Ne,       ///< a != b
    Lt,       ///< a < b   (unsigned)
    Le,       ///< a <= b
    Gt,       ///< a > b
    Ge,       ///< a >= b
    LAnd,     ///< (a != 0) && (b != 0)
    LOr,      ///< (a != 0) || (b != 0)
    Mux,      ///< a ? b : c  (branches unmasked)
};

/** Sentinel for "no node" (absent instruction/legality root). */
constexpr uint32_t kNoNode = std::numeric_limits<uint32_t>::max();

/** One arena node. Children always precede parents in the arena. */
struct SpecNode
{
    SpecOp op = SpecOp::Const;
    uint8_t width = 64; ///< low bits kept after the op; 64 = no mask
    uint32_t a = 0;     ///< child index / leaf variable index
    uint32_t b = 0;
    uint32_t c = 0;
    uint64_t imm = 0;   ///< Const value

    bool operator==(const SpecNode &o) const
    {
        return op == o.op && width == o.width && a == o.a &&
               b == o.b && c == o.c && imm == o.imm;
    }
};

/**
 * A compiled-form FSM step: next-state roots over the node arena.
 *
 * A transition is legal iff `legalRoot` is absent or evaluates
 * non-zero; next state var `i` is `nodes[nextRoots[i]]` (the producer
 * masks it to the variable width); the edge instruction count is
 * `nodes[instrRoot]` truncated to 32 bits (0 when absent).
 */
struct FsmSpec
{
    std::string name;
    std::vector<fsm::StateVarInfo> stateVars;
    std::vector<fsm::ChoiceVarInfo> choiceVars;
    std::vector<SpecNode> nodes;
    std::vector<uint32_t> nextRoots; ///< one per state variable
    uint32_t instrRoot = kNoNode;
    uint32_t legalRoot = kNoNode;
};

/**
 * Hash-consing builder over an FsmSpec arena.
 *
 * Structurally identical nodes intern to one index, so expression
 * trees that the symbolic executor cloned many times (every if/else
 * join copies its environment) collapse back into a DAG; the bytecode
 * then evaluates each distinct subexpression once per step.
 */
class SpecBuilder
{
  public:
    explicit SpecBuilder(FsmSpec &spec) : spec_(spec) {}

    uint32_t constant(uint64_t value);
    uint32_t stateRef(uint32_t var);
    uint32_t choiceRef(uint32_t var);
    /** a & maskFor(width); returns @p a unchanged when width >= 64. */
    uint32_t mask(uint32_t a, unsigned width);
    uint32_t unary(SpecOp op, uint32_t a, unsigned width = 64);
    uint32_t binary(SpecOp op, uint32_t a, uint32_t b,
                    unsigned width = 64);
    uint32_t mux(uint32_t cond, uint32_t thenN, uint32_t elseN);

  private:
    struct NodeHash
    {
        size_t operator()(const SpecNode &n) const;
    };

    uint32_t intern(SpecNode node);

    FsmSpec &spec_;
    std::unordered_map<SpecNode, uint32_t, NodeHash> cache_;
};

} // namespace archval::compile

#endif // ARCHVAL_COMPILE_FSM_SPEC_HH
