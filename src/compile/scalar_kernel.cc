#include "kernel.hh"

#include <algorithm>

namespace archval::compile
{

namespace
{

inline uint64_t
maskFor(unsigned width)
{
    return width >= 64 ? ~uint64_t(0)
                       : (uint64_t(1) << width) - 1;
}

} // namespace

ScalarKernel::ScalarKernel(const Program &program)
    : prog_(program), regs_(prog_.numRegs, 0),
      next_((prog_.layout.totalBits() + 63) / 64, 0)
{
    for (const auto &[reg, value] : prog_.constInit)
        regs_[reg] = value;
}

/**
 * The threaded interpreter: one direct `goto *` per instruction on
 * GCC/Clang (no bounds check — the Halt sentinel terminates), a
 * switch loop elsewhere. Label order must match enum BOp.
 */
void
ScalarKernel::exec()
{
    const Insn *pc = prog_.insns.data();
    uint64_t *r = regs_.data();

#if defined(__GNUC__) || defined(__clang__)
    static const void *const kLabels[] = {
        &&lMask, &&lNot, &&lBitNot, &&lNeg, &&lRedXor, &&lAdd,
        &&lSub,  &&lShl, &&lShr,    &&lAnd, &&lOr,     &&lXor,
        &&lEq,   &&lNe,  &&lLt,     &&lLe,  &&lGt,     &&lGe,
        &&lLAnd, &&lLOr, &&lMux,    &&lHalt,
    };
#define DISPATCH() goto *kLabels[static_cast<size_t>((pc)->op)]
#define NEXT()                                                        \
    do {                                                              \
        ++pc;                                                         \
        DISPATCH();                                                   \
    } while (0)
    DISPATCH();
lMask:
    r[pc->dst] = r[pc->a] & maskFor(pc->width);
    NEXT();
lNot:
    r[pc->dst] = r[pc->a] == 0;
    NEXT();
lBitNot:
    r[pc->dst] = ~r[pc->a] & maskFor(pc->width);
    NEXT();
lNeg:
    r[pc->dst] = (~r[pc->a] + 1) & maskFor(pc->width);
    NEXT();
lRedXor:
    r[pc->dst] = __builtin_popcountll(r[pc->a]) & 1;
    NEXT();
lAdd:
    r[pc->dst] = (r[pc->a] + r[pc->b]) & maskFor(pc->width);
    NEXT();
lSub:
    r[pc->dst] = (r[pc->a] - r[pc->b]) & maskFor(pc->width);
    NEXT();
lShl:
    r[pc->dst] = r[pc->b] >= 64
                     ? 0
                     : (r[pc->a] << r[pc->b]) & maskFor(pc->width);
    NEXT();
lShr:
    r[pc->dst] = r[pc->b] >= 64 ? 0 : r[pc->a] >> r[pc->b];
    NEXT();
lAnd:
    r[pc->dst] = r[pc->a] & r[pc->b];
    NEXT();
lOr:
    r[pc->dst] = r[pc->a] | r[pc->b];
    NEXT();
lXor:
    r[pc->dst] = r[pc->a] ^ r[pc->b];
    NEXT();
lEq:
    r[pc->dst] = r[pc->a] == r[pc->b];
    NEXT();
lNe:
    r[pc->dst] = r[pc->a] != r[pc->b];
    NEXT();
lLt:
    r[pc->dst] = r[pc->a] < r[pc->b];
    NEXT();
lLe:
    r[pc->dst] = r[pc->a] <= r[pc->b];
    NEXT();
lGt:
    r[pc->dst] = r[pc->a] > r[pc->b];
    NEXT();
lGe:
    r[pc->dst] = r[pc->a] >= r[pc->b];
    NEXT();
lLAnd:
    r[pc->dst] = r[pc->a] != 0 && r[pc->b] != 0;
    NEXT();
lLOr:
    r[pc->dst] = r[pc->a] != 0 || r[pc->b] != 0;
    NEXT();
lMux:
    r[pc->dst] = r[pc->a] ? r[pc->b] : r[pc->c];
    NEXT();
lHalt:
    return;
#undef NEXT
#undef DISPATCH
#else
    for (;; ++pc) {
        switch (pc->op) {
          case BOp::Mask:
            r[pc->dst] = r[pc->a] & maskFor(pc->width);
            break;
          case BOp::Not:
            r[pc->dst] = r[pc->a] == 0;
            break;
          case BOp::BitNot:
            r[pc->dst] = ~r[pc->a] & maskFor(pc->width);
            break;
          case BOp::Neg:
            r[pc->dst] = (~r[pc->a] + 1) & maskFor(pc->width);
            break;
          case BOp::RedXor:
            r[pc->dst] = __builtin_popcountll(r[pc->a]) & 1;
            break;
          case BOp::Add:
            r[pc->dst] = (r[pc->a] + r[pc->b]) & maskFor(pc->width);
            break;
          case BOp::Sub:
            r[pc->dst] = (r[pc->a] - r[pc->b]) & maskFor(pc->width);
            break;
          case BOp::Shl:
            r[pc->dst] =
                r[pc->b] >= 64
                    ? 0
                    : (r[pc->a] << r[pc->b]) & maskFor(pc->width);
            break;
          case BOp::Shr:
            r[pc->dst] = r[pc->b] >= 64 ? 0 : r[pc->a] >> r[pc->b];
            break;
          case BOp::And:
            r[pc->dst] = r[pc->a] & r[pc->b];
            break;
          case BOp::Or:
            r[pc->dst] = r[pc->a] | r[pc->b];
            break;
          case BOp::Xor:
            r[pc->dst] = r[pc->a] ^ r[pc->b];
            break;
          case BOp::Eq:
            r[pc->dst] = r[pc->a] == r[pc->b];
            break;
          case BOp::Ne:
            r[pc->dst] = r[pc->a] != r[pc->b];
            break;
          case BOp::Lt:
            r[pc->dst] = r[pc->a] < r[pc->b];
            break;
          case BOp::Le:
            r[pc->dst] = r[pc->a] <= r[pc->b];
            break;
          case BOp::Gt:
            r[pc->dst] = r[pc->a] > r[pc->b];
            break;
          case BOp::Ge:
            r[pc->dst] = r[pc->a] >= r[pc->b];
            break;
          case BOp::LAnd:
            r[pc->dst] = r[pc->a] != 0 && r[pc->b] != 0;
            break;
          case BOp::LOr:
            r[pc->dst] = r[pc->a] != 0 || r[pc->b] != 0;
            break;
          case BOp::Mux:
            r[pc->dst] = r[pc->a] ? r[pc->b] : r[pc->c];
            break;
          case BOp::Halt:
          default:
            return;
        }
    }
#endif
}

bool
ScalarKernel::legal() const
{
    return prog_.legalReg == kNoReg || regs_[prog_.legalReg] != 0;
}

void
ScalarKernel::materialize()
{
    // The fields tile the layout's bits, so each call overwrites every
    // one; the bits above the width stay zero from construction.
    const Program &p = prog_;
    for (size_t i = 0; i < p.nextRegs.size(); ++i)
        p.layout.set(std::span<uint64_t>(next_), i, regs_[p.nextRegs[i]]);
}

void
ScalarKernel::forEachTransition(std::span<const uint64_t> state,
                                fsm::TransitionSink sink)
{
    const Program &p = prog_;
    for (size_t i = 0; i < p.stateVars.size(); ++i)
        regs_[i] = p.layout.get(state, i);
    const size_t num_choice = p.choiceVars.size();
    uint64_t *choice = regs_.data() + p.choiceBase;
    std::fill(choice, choice + num_choice, 0);
    const uint64_t combos = p.numCombos;
    for (uint64_t code = 0; code < combos; ++code) {
        exec();
        if (legal()) {
            materialize();
            sink(code, next_,
                 p.instrReg != kNoReg
                     ? static_cast<unsigned>(regs_[p.instrReg])
                     : 0u);
        }
        // Mixed-radix increment matching packed-code order (variable
        // 0 is the fastest-varying, as in ChoiceCodec).
        for (size_t i = 0; i < num_choice; ++i) {
            if (++choice[i] < p.choiceVars[i].cardinality)
                break;
            choice[i] = 0;
        }
    }
}

} // namespace archval::compile
