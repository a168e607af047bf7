#include "translate.hh"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "compile/fsm_spec.hh"
#include "compile/kernel.hh"
#include "hdl/parser.hh"
#include "support/strings.hh"

namespace archval::hdl
{

namespace
{

struct XlatError
{
    std::string message;
};

[[noreturn]] void
xlatFail(size_t line, const std::string &msg)
{
    throw XlatError{formatString("line %zu: %s", line, msg.c_str())};
}

uint64_t
maskFor(unsigned width)
{
    return width >= 64 ? ~uint64_t(0)
                       : (uint64_t(1) << width) - 1;
}

ExprPtr
makeLiteral(uint64_t value)
{
    auto node = std::make_unique<Expr>();
    node->kind = ExprKind::Literal;
    node->value = value;
    return node;
}

ExprPtr
makeIdentifier(const std::string &name)
{
    auto node = std::make_unique<Expr>();
    node->kind = ExprKind::Identifier;
    node->name = name;
    return node;
}

ExprPtr
makeBinary(const char *op, ExprPtr a, ExprPtr b)
{
    auto node = std::make_unique<Expr>();
    node->kind = ExprKind::Binary;
    node->op = op;
    node->args.push_back(std::move(a));
    node->args.push_back(std::move(b));
    return node;
}

ExprPtr
makeTernary(ExprPtr cond, ExprPtr then_e, ExprPtr else_e)
{
    auto node = std::make_unique<Expr>();
    node->kind = ExprKind::Ternary;
    node->args.push_back(std::move(cond));
    node->args.push_back(std::move(then_e));
    node->args.push_back(std::move(else_e));
    return node;
}

/** Collect identifier names referenced by an expression. */
void
collectRefs(const Expr &expr, std::set<std::string> &refs)
{
    if (expr.kind == ExprKind::Identifier ||
        expr.kind == ExprKind::Select)
        refs.insert(expr.name);
    for (const auto &arg : expr.args)
        collectRefs(*arg, refs);
}

} // namespace

/** Interpreter state of a translated model. */
struct HdlModel::Impl
{
    enum class Sym
    {
        State,
        Choice,
        Comb,
        Constant, ///< tied-off nets (e.g. a reset port)
    };

    struct NetInfo
    {
        Sym sym;
        size_t index = 0; ///< state var / choice var / comb slot
        unsigned width = 1;
        uint64_t constant = 0;
    };

    struct CombNode
    {
        std::string name;
        ExprPtr expr;
        unsigned width;
        size_t slot;
    };

    std::string top;
    std::vector<fsm::StateVarInfo> stateVars;
    std::vector<fsm::ChoiceVarInfo> choiceVars;
    fsm::StateLayout layout;
    std::map<std::string, NetInfo> nets;
    std::vector<CombNode> comb; ///< topological order
    std::vector<ExprPtr> nextExprs; ///< per state var
    std::string instrNet;
    compile::Program program; ///< the lowered step (forEachTransition)

    unsigned
    widthOf(const std::string &name) const
    {
        auto it = nets.find(name);
        return it == nets.end() ? 64 : it->second.width;
    }

    unsigned
    exprWidth(const Expr &expr) const
    {
        switch (expr.kind) {
          case ExprKind::Literal:
            return expr.literalWidth > 0
                       ? static_cast<unsigned>(expr.literalWidth)
                       : 32;
          case ExprKind::Identifier:
            return widthOf(expr.name);
          case ExprKind::Select:
            return static_cast<unsigned>(expr.msb - expr.lsb + 1);
          case ExprKind::Unary:
            if (expr.op == "!" || expr.op == "&" || expr.op == "|" ||
                expr.op == "^")
                return 1;
            return exprWidth(*expr.args[0]);
          case ExprKind::Binary: {
            const std::string &op = expr.op;
            if (op == "==" || op == "!=" || op == "<" || op == "<=" ||
                op == ">" || op == ">=" || op == "&&" || op == "||")
                return 1;
            if (op == "<<" || op == ">>")
                return exprWidth(*expr.args[0]);
            return std::max(exprWidth(*expr.args[0]),
                            exprWidth(*expr.args[1]));
          }
          case ExprKind::Ternary:
            return std::max(exprWidth(*expr.args[1]),
                            exprWidth(*expr.args[2]));
          case ExprKind::Concat: {
            unsigned total = 0;
            for (const auto &arg : expr.args)
                total += exprWidth(*arg);
            return std::min(total, 64u);
          }
        }
        return 64;
    }

    struct EvalCtx
    {
        const BitVec *state;
        const fsm::Choice *choice;
        const std::vector<uint64_t> *combVals;
    };

    uint64_t
    readNet(const std::string &name, const EvalCtx &ctx) const
    {
        auto it = nets.find(name);
        if (it == nets.end())
            xlatFail(0, "reference to unknown net '" + name + "'");
        const NetInfo &info = it->second;
        switch (info.sym) {
          case Sym::State:
            return layout.get(*ctx.state, info.index);
          case Sym::Choice:
            return (*ctx.choice)[info.index];
          case Sym::Comb:
            return (*ctx.combVals)[info.index];
          case Sym::Constant:
            return info.constant;
        }
        return 0;
    }

    uint64_t
    eval(const Expr &expr, const EvalCtx &ctx) const
    {
        switch (expr.kind) {
          case ExprKind::Literal:
            return expr.value;
          case ExprKind::Identifier:
            return readNet(expr.name, ctx);
          case ExprKind::Select: {
            uint64_t base = readNet(expr.name, ctx);
            unsigned width =
                static_cast<unsigned>(expr.msb - expr.lsb + 1);
            return (base >> expr.lsb) & maskFor(width);
          }
          case ExprKind::Unary: {
            uint64_t a = eval(*expr.args[0], ctx);
            unsigned aw = exprWidth(*expr.args[0]);
            if (expr.op == "!")
                return !a;
            if (expr.op == "~")
                return ~a & maskFor(aw);
            if (expr.op == "-")
                return (~a + 1) & maskFor(aw);
            if (expr.op == "&")
                return a == maskFor(aw);
            if (expr.op == "|")
                return a != 0;
            if (expr.op == "^")
                return __builtin_popcountll(a) & 1;
            xlatFail(expr.line, "bad unary op " + expr.op);
          }
          case ExprKind::Binary: {
            const std::string &op = expr.op;
            if (op == "&&")
                return eval(*expr.args[0], ctx) &&
                       eval(*expr.args[1], ctx);
            if (op == "||")
                return eval(*expr.args[0], ctx) ||
                       eval(*expr.args[1], ctx);
            uint64_t a = eval(*expr.args[0], ctx);
            uint64_t b = eval(*expr.args[1], ctx);
            unsigned w = exprWidth(expr);
            if (op == "+")
                return (a + b) & maskFor(w);
            if (op == "-")
                return (a - b) & maskFor(w);
            if (op == "<<")
                return b >= 64 ? 0 : (a << b) & maskFor(w);
            if (op == ">>")
                return b >= 64 ? 0 : a >> b;
            if (op == "&")
                return a & b;
            if (op == "|")
                return a | b;
            if (op == "^")
                return a ^ b;
            if (op == "==")
                return a == b;
            if (op == "!=")
                return a != b;
            if (op == "<")
                return a < b;
            if (op == "<=")
                return a <= b;
            if (op == ">")
                return a > b;
            if (op == ">=")
                return a >= b;
            xlatFail(expr.line, "bad binary op " + op);
          }
          case ExprKind::Ternary:
            return eval(*expr.args[0], ctx)
                       ? eval(*expr.args[1], ctx)
                       : eval(*expr.args[2], ctx);
          case ExprKind::Concat: {
            uint64_t value = 0;
            for (const auto &arg : expr.args) {
                unsigned aw = exprWidth(*arg);
                value = (value << aw) |
                        (eval(*arg, ctx) & maskFor(aw));
            }
            return value;
          }
        }
        return 0;
    }

    void
    evalComb(const EvalCtx &ctx, std::vector<uint64_t> &vals) const
    {
        for (const CombNode &node : comb) {
            EvalCtx inner{ctx.state, ctx.choice, &vals};
            vals[node.slot] =
                eval(*node.expr, inner) & maskFor(node.width);
        }
    }
};

HdlModel::HdlModel(std::unique_ptr<Impl> impl) : impl_(std::move(impl))
{
}

HdlModel::~HdlModel() = default;

std::string
HdlModel::name() const
{
    return impl_->top;
}

const std::vector<fsm::StateVarInfo> &
HdlModel::stateVars() const
{
    return impl_->stateVars;
}

const std::vector<fsm::ChoiceVarInfo> &
HdlModel::choiceVars() const
{
    return impl_->choiceVars;
}

BitVec
HdlModel::resetState() const
{
    BitVec state(impl_->layout.totalBits());
    for (size_t i = 0; i < impl_->stateVars.size(); ++i)
        impl_->layout.set(state, i, impl_->stateVars[i].resetValue);
    return state;
}

std::optional<fsm::Transition>
HdlModel::next(const BitVec &state, const fsm::Choice &choice) const
{
    std::vector<uint64_t> comb_vals(impl_->comb.size(), 0);
    Impl::EvalCtx ctx{&state, &choice, &comb_vals};
    impl_->evalComb(ctx, comb_vals);

    fsm::Transition t;
    t.next = BitVec(impl_->layout.totalBits());
    for (size_t i = 0; i < impl_->stateVars.size(); ++i) {
        uint64_t value = impl_->eval(*impl_->nextExprs[i], ctx);
        impl_->layout.set(t.next, i,
                          value &
                              maskFor(static_cast<unsigned>(
                                  impl_->stateVars[i].numBits)));
    }
    if (!impl_->instrNet.empty()) {
        t.instructions = static_cast<unsigned>(
            impl_->readNet(impl_->instrNet, ctx));
    }
    return t;
}

uint64_t
HdlModel::evalNet(const std::string &net, const BitVec &state,
                  const fsm::Choice &choice) const
{
    std::vector<uint64_t> comb_vals(impl_->comb.size(), 0);
    Impl::EvalCtx ctx{&state, &choice, &comb_vals};
    impl_->evalComb(ctx, comb_vals);
    return impl_->readNet(net, ctx);
}

Result<bool>
HdlModel::forEachTransition(std::span<const uint64_t> state,
                            fsm::TransitionSink sink) const
{
    compile::ScalarKernel kernel(impl_->program);
    kernel.forEachTransition(state, sink);
    return true;
}

const compile::Program &
HdlModel::program() const
{
    return impl_->program;
}

namespace
{

/** Pending symbolic assignments inside an always block. */
using Env = std::map<std::string, ExprPtr>;

Env
copyEnv(const Env &env)
{
    Env out;
    for (const auto &[name, expr] : env)
        out[name] = cloneExpr(*expr);
    return out;
}

/**
 * Substitute pending blocking assignments into an expression
 * (combinational blocks only).
 */
ExprPtr
substitute(const Expr &expr, const Env &env)
{
    if (expr.kind == ExprKind::Identifier) {
        auto it = env.find(expr.name);
        if (it != env.end())
            return cloneExpr(*it->second);
        return cloneExpr(expr);
    }
    if (expr.kind == ExprKind::Select) {
        auto it = env.find(expr.name);
        if (it != env.end()) {
            // (pending >> lsb) & mask
            unsigned width =
                static_cast<unsigned>(expr.msb - expr.lsb + 1);
            ExprPtr shifted = makeBinary(
                ">>", cloneExpr(*it->second),
                makeLiteral(static_cast<uint64_t>(expr.lsb)));
            return makeBinary("&", std::move(shifted),
                              makeLiteral(maskFor(width)));
        }
        return cloneExpr(expr);
    }
    auto node = std::make_unique<Expr>();
    node->kind = expr.kind;
    node->value = expr.value;
    node->literalWidth = expr.literalWidth;
    node->name = expr.name;
    node->op = expr.op;
    node->msb = expr.msb;
    node->lsb = expr.lsb;
    node->line = expr.line;
    for (const auto &arg : expr.args)
        node->args.push_back(substitute(*arg, env));
    return node;
}

/** Desugar a case statement into an if/else chain. */
StmtPtr
desugarCase(const Stmt &stmt)
{
    // Find the default arm (if any) as the innermost else.
    StmtPtr chain;
    for (const auto &arm : stmt.arms) {
        if (arm.labels.empty())
            chain = cloneStmt(*arm.body);
    }
    for (auto it = stmt.arms.rbegin(); it != stmt.arms.rend(); ++it) {
        if (it->labels.empty())
            continue;
        ExprPtr cond;
        for (const auto &label : it->labels) {
            ExprPtr eq = makeBinary("==", cloneExpr(*stmt.subject),
                                    cloneExpr(*label));
            cond = cond ? makeBinary("||", std::move(cond),
                                     std::move(eq))
                        : std::move(eq);
        }
        auto wrapper = std::make_unique<Stmt>();
        wrapper->kind = StmtKind::If;
        wrapper->line = stmt.line;
        wrapper->condition = std::move(cond);
        wrapper->thenStmt = cloneStmt(*it->body);
        wrapper->elseStmt = std::move(chain);
        chain = std::move(wrapper);
    }
    if (!chain) {
        chain = std::make_unique<Stmt>();
        chain->kind = StmtKind::Block;
        chain->line = stmt.line;
    }
    return chain;
}

/** Symbolic executor for one always block. */
class SymbolicExec
{
  public:
    SymbolicExec(bool sequential, const ElabDesign &design,
                 std::set<std::string> &held)
        : sequential_(sequential), design_(design), held_(held)
    {
    }

    void
    exec(const Stmt &stmt, Env &env)
    {
        switch (stmt.kind) {
          case StmtKind::Block:
            for (const auto &child : stmt.body)
                exec(*child, env);
            return;
          case StmtKind::Assign:
            execAssign(stmt, env);
            return;
          case StmtKind::If:
            execIf(stmt, env);
            return;
          case StmtKind::Case: {
            StmtPtr chain = desugarCase(stmt);
            exec(*chain, env);
            return;
          }
        }
    }

  private:
    void
    execAssign(const Stmt &stmt, Env &env)
    {
        if (sequential_ && !stmt.nonBlocking) {
            xlatFail(stmt.line,
                     "sequential blocks must use non-blocking "
                     "assignment (<=)");
        }
        if (!sequential_ && stmt.nonBlocking) {
            xlatFail(stmt.line,
                     "combinational blocks must use blocking "
                     "assignment (=)");
        }

        ExprPtr rhs = sequential_ ? cloneExpr(*stmt.rhs)
                                  : substitute(*stmt.rhs, env);

        if (stmt.targetMsb >= 0) {
            // Read-modify-write for a part-select target.
            ExprPtr base;
            auto it = env.find(stmt.target);
            if (it != env.end()) {
                base = cloneExpr(*it->second);
            } else {
                base = makeIdentifier(stmt.target);
                if (!sequential_)
                    held_.insert(stmt.target);
            }
            unsigned width = static_cast<unsigned>(
                stmt.targetMsb - stmt.targetLsb + 1);
            uint64_t field_mask = maskFor(width)
                                  << stmt.targetLsb;
            ExprPtr cleared = makeBinary(
                "&", std::move(base),
                makeLiteral(~field_mask));
            ExprPtr field = makeBinary(
                "<<",
                makeBinary("&", std::move(rhs),
                           makeLiteral(maskFor(width))),
                makeLiteral(
                    static_cast<uint64_t>(stmt.targetLsb)));
            rhs = makeBinary("|", std::move(cleared),
                             std::move(field));
        }
        env[stmt.target] = std::move(rhs);
    }

    void
    execIf(const Stmt &stmt, Env &env)
    {
        ExprPtr cond = sequential_
                           ? cloneExpr(*stmt.condition)
                           : substitute(*stmt.condition, env);

        Env then_env = copyEnv(env);
        exec(*stmt.thenStmt, then_env);
        Env else_env = copyEnv(env);
        if (stmt.elseStmt)
            exec(*stmt.elseStmt, else_env);

        std::set<std::string> targets;
        for (const auto &[name, expr] : then_env)
            targets.insert(name);
        for (const auto &[name, expr] : else_env)
            targets.insert(name);

        for (const std::string &target : targets) {
            auto pick = [&](Env &branch) -> ExprPtr {
                auto it = branch.find(target);
                if (it != branch.end())
                    return std::move(it->second);
                // Not assigned on this path: hold the previous
                // value. In a combinational block this is the
                // implicit latch of the paper's footnote.
                if (!sequential_)
                    held_.insert(target);
                return makeIdentifier(target);
            };
            ExprPtr t = pick(then_env);
            ExprPtr e = pick(else_env);
            env[target] = makeTernary(cloneExpr(*cond), std::move(t),
                                      std::move(e));
        }
    }

    bool sequential_;
    const ElabDesign &design_;
    std::set<std::string> &held_;
};

/**
 * Lower the translated expression network into a compile::FsmSpec.
 *
 * Every node replicates the interpreter's semantics exactly —
 * including its width rules (`Impl::exprWidth`) and where masking
 * does and does not happen — so the bytecode step is bit-identical to
 * `HdlModel::next` by construction. Select desugars to shift+mask,
 * concat to shift/or folds, reductions to compares/parity; `&&`/`||`
 * evaluate eagerly, which is sound because every operand is
 * side-effect-free.
 */
class SpecLowering
{
  public:
    SpecLowering(const HdlModel::Impl &impl, compile::FsmSpec &spec)
        : impl_(impl), spec_(spec), builder_(spec)
    {
    }

    void
    run()
    {
        spec_.name = impl_.top;
        spec_.stateVars = impl_.stateVars;
        spec_.choiceVars = impl_.choiceVars;

        using Sym = HdlModel::Impl::Sym;
        for (const auto &[name, info] : impl_.nets) {
            switch (info.sym) {
              case Sym::State:
                netNode_[name] = builder_.stateRef(
                    static_cast<uint32_t>(info.index));
                break;
              case Sym::Choice:
                netNode_[name] = builder_.choiceRef(
                    static_cast<uint32_t>(info.index));
                break;
              case Sym::Constant:
                netNode_[name] = builder_.constant(info.constant);
                break;
              case Sym::Comb:
                break; // defined below, in dependency order
            }
        }
        // Comb nets are masked to their declared width on
        // definition, exactly like Impl::evalComb.
        for (const auto &node : impl_.comb) {
            netNode_[node.name] =
                builder_.mask(lower(*node.expr), node.width);
        }
        for (size_t i = 0; i < impl_.stateVars.size(); ++i) {
            spec_.nextRoots.push_back(builder_.mask(
                lower(*impl_.nextExprs[i]),
                static_cast<unsigned>(impl_.stateVars[i].numBits)));
        }
        if (!impl_.instrNet.empty())
            spec_.instrRoot = netRef(impl_.instrNet, 0);
        // No legality root: every HDL choice tuple is a legal
        // environment action (next() never returns nullopt).
    }

  private:
    uint32_t
    netRef(const std::string &name, size_t line)
    {
        auto it = netNode_.find(name);
        if (it == netNode_.end())
            xlatFail(line, "compile: unresolved net '" + name + "'");
        return it->second;
    }

    uint32_t
    lower(const Expr &expr)
    {
        using compile::SpecOp;
        switch (expr.kind) {
          case ExprKind::Literal:
            return builder_.constant(expr.value);
          case ExprKind::Identifier:
            return netRef(expr.name, expr.line);
          case ExprKind::Select: {
            unsigned width =
                static_cast<unsigned>(expr.msb - expr.lsb + 1);
            uint32_t shifted = builder_.binary(
                SpecOp::Shr, netRef(expr.name, expr.line),
                builder_.constant(
                    static_cast<uint64_t>(expr.lsb)));
            return builder_.mask(shifted, width);
          }
          case ExprKind::Unary: {
            uint32_t a = lower(*expr.args[0]);
            unsigned aw = impl_.exprWidth(*expr.args[0]);
            if (expr.op == "!")
                return builder_.unary(SpecOp::Not, a);
            if (expr.op == "~")
                return builder_.unary(SpecOp::BitNot, a, aw);
            if (expr.op == "-")
                return builder_.unary(SpecOp::Neg, a, aw);
            if (expr.op == "&")
                return builder_.binary(
                    SpecOp::Eq, a, builder_.constant(maskFor(aw)));
            if (expr.op == "|")
                return builder_.binary(SpecOp::Ne, a,
                                       builder_.constant(0));
            if (expr.op == "^")
                return builder_.unary(SpecOp::RedXor, a);
            xlatFail(expr.line, "compile: bad unary op " + expr.op);
          }
          case ExprKind::Binary: {
            const std::string &op = expr.op;
            uint32_t a = lower(*expr.args[0]);
            uint32_t b = lower(*expr.args[1]);
            if (op == "&&")
                return builder_.binary(SpecOp::LAnd, a, b);
            if (op == "||")
                return builder_.binary(SpecOp::LOr, a, b);
            unsigned w = impl_.exprWidth(expr);
            if (op == "+")
                return builder_.binary(SpecOp::Add, a, b, w);
            if (op == "-")
                return builder_.binary(SpecOp::Sub, a, b, w);
            if (op == "<<")
                return builder_.binary(SpecOp::Shl, a, b, w);
            if (op == ">>")
                return builder_.binary(SpecOp::Shr, a, b);
            if (op == "&")
                return builder_.binary(SpecOp::And, a, b);
            if (op == "|")
                return builder_.binary(SpecOp::Or, a, b);
            if (op == "^")
                return builder_.binary(SpecOp::Xor, a, b);
            if (op == "==")
                return builder_.binary(SpecOp::Eq, a, b);
            if (op == "!=")
                return builder_.binary(SpecOp::Ne, a, b);
            if (op == "<")
                return builder_.binary(SpecOp::Lt, a, b);
            if (op == "<=")
                return builder_.binary(SpecOp::Le, a, b);
            if (op == ">")
                return builder_.binary(SpecOp::Gt, a, b);
            if (op == ">=")
                return builder_.binary(SpecOp::Ge, a, b);
            xlatFail(expr.line, "compile: bad binary op " + op);
          }
          case ExprKind::Ternary:
            return builder_.mux(lower(*expr.args[0]),
                                lower(*expr.args[1]),
                                lower(*expr.args[2]));
          case ExprKind::Concat: {
            // value = (value << aw) | (arg & maskFor(aw)), folded
            // left to right; the shift of the accumulator is raw
            // (unmasked), exactly as in Impl::eval.
            uint32_t acc = compile::kNoNode;
            for (const auto &arg : expr.args) {
                unsigned aw = impl_.exprWidth(*arg);
                uint32_t part = builder_.mask(lower(*arg), aw);
                if (acc == compile::kNoNode) {
                    acc = part; // (0 << aw) | part == part
                    continue;
                }
                uint32_t shifted = builder_.binary(
                    SpecOp::Shl, acc,
                    builder_.constant(aw));
                acc = builder_.binary(SpecOp::Or, shifted, part);
            }
            return acc == compile::kNoNode ? builder_.constant(0)
                                           : acc;
          }
        }
        xlatFail(expr.line, "compile: bad expression kind");
    }

    const HdlModel::Impl &impl_;
    compile::FsmSpec &spec_;
    compile::SpecBuilder builder_;
    std::map<std::string, uint32_t> netNode_;
};

} // namespace

Result<TranslateResult>
translate(const ElabDesign &design)
{
    try {
        auto impl = std::make_unique<HdlModel::Impl>();
        impl->top = design.top;
        TranslateResult result;

        // Annotation lookups.
        std::map<std::string, uint64_t> state_resets;
        std::map<std::string, uint64_t> input_cards;
        std::set<std::string> state_annotated;
        for (const auto &ann : design.annotations) {
            switch (ann.kind) {
              case Annotation::Kind::State:
                state_annotated.insert(ann.name);
                if (ann.hasValue)
                    state_resets[ann.name] = ann.value;
                break;
              case Annotation::Kind::Input:
                input_cards[ann.name] = ann.hasValue ? ann.value : 0;
                break;
              case Annotation::Kind::Instr:
                impl->instrNet = ann.name;
                break;
            }
        }

        // Symbolically execute always blocks.
        Env seq_env;
        Env comb_env;
        std::set<std::string> held;
        for (const auto &block : design.always) {
            if (!block.translated)
                continue;
            std::set<std::string> block_held;
            SymbolicExec exec(block.sequential, design, block_held);
            Env env;
            exec.exec(*block.body, env);
            Env &merged = block.sequential ? seq_env : comb_env;
            for (auto &[target, expr] : env) {
                if (merged.count(target)) {
                    xlatFail(block.line,
                             "'" + target +
                                 "' is assigned by more than one "
                                 "always block");
                }
                merged[target] = std::move(expr);
            }
            held.insert(block_held.begin(), block_held.end());
        }

        // Continuous assigns join the combinational set.
        std::map<std::string, const ExprPtr *> assigns;
        for (const auto &assign : design.assigns) {
            if (!assign.translated)
                continue;
            if (comb_env.count(assign.target) ||
                assigns.count(assign.target)) {
                xlatFail(assign.line, "'" + assign.target +
                                          "' has multiple drivers");
            }
            assigns[assign.target] = &assign.rhs;
        }

        // Classify nets.
        //  State: sequential targets, annotated states, and inferred
        //  combinational latches.
        std::set<std::string> state_names;
        for (const auto &[target, expr] : seq_env)
            state_names.insert(target);
        state_names.insert(state_annotated.begin(),
                           state_annotated.end());
        for (const std::string &latch : held) {
            if (!state_names.count(latch)) {
                state_names.insert(latch);
                result.notes.push_back(
                    "inferred latch on combinational target '" +
                    latch +
                    "' (incomplete assignment); made explicit "
                    "state");
            }
        }

        auto net_width = [&](const std::string &name) -> unsigned {
            const ElabNet *net = design.findNet(name);
            if (!net)
                xlatFail(0, "no declaration for '" + name + "'");
            return net->width;
        };

        for (const std::string &name : state_names) {
            fsm::StateVarInfo info;
            info.name = name;
            info.numBits = net_width(name);
            auto it = state_resets.find(name);
            info.resetValue = it == state_resets.end() ? 0 : it->second;
            impl->nets[name] = {HdlModel::Impl::Sym::State,
                                impl->stateVars.size(),
                                static_cast<unsigned>(info.numBits),
                                0};
            impl->stateVars.push_back(std::move(info));
        }

        // Choice variables: annotated inputs plus unannotated top
        // input ports (clock and reset are tied off).
        auto add_choice = [&](const std::string &name,
                              uint64_t cardinality) {
            fsm::ChoiceVarInfo info;
            info.name = name;
            info.cardinality = static_cast<uint32_t>(cardinality);
            impl->nets[name] = {HdlModel::Impl::Sym::Choice,
                                impl->choiceVars.size(),
                                net_width(name), 0};
            impl->choiceVars.push_back(std::move(info));
        };

        for (const auto &[name, card] : input_cards) {
            unsigned width = net_width(name);
            uint64_t cardinality =
                card > 0 ? card : (uint64_t(1) << std::min(width, 20u));
            if (cardinality > 4096) {
                xlatFail(0, "input '" + name +
                                "' needs an explicit cardinality "
                                "(width too large to enumerate)");
            }
            add_choice(name, cardinality);
        }

        for (const auto &net : design.nets) {
            if (!net.topPort || net.kind != NetKind::Input)
                continue;
            if (impl->nets.count(net.name))
                continue; // already a choice via annotation
            if (net.name == "clk" || net.name == "clock") {
                impl->nets[net.name] = {
                    HdlModel::Impl::Sym::Constant, 0, net.width, 0};
                continue;
            }
            if (net.name == "rst" || net.name == "reset" ||
                net.name == "rst_n" || net.name == "reset_n") {
                // Reset is modeled by the explicit reset state; the
                // wire is tied inactive (0 for active-high, 1 for
                // active-low).
                uint64_t tied =
                    endsWith(net.name, "_n") ? 1 : 0;
                impl->nets[net.name] = {
                    HdlModel::Impl::Sym::Constant, 0, net.width,
                    tied};
                result.notes.push_back("tied off reset port '" +
                                       net.name + "'");
                continue;
            }
            if (net.width > 12) {
                xlatFail(net.line,
                         "top-level input '" + net.name +
                             "' is too wide to enumerate; annotate "
                             "it with a vfsm input cardinality");
            }
            add_choice(net.name, uint64_t(1) << net.width);
            result.notes.push_back(
                "free input '" + net.name + "' enumerates " +
                std::to_string(uint64_t(1) << net.width) +
                " values");
        }

        // Combinational nodes (assigns + complete comb targets).
        struct Pending
        {
            std::string name;
            ExprPtr expr;
        };
        std::vector<Pending> pending;
        for (auto &[target, expr] : comb_env) {
            if (state_names.count(target))
                continue; // latched: handled as state below
            pending.push_back({target, std::move(expr)});
        }
        for (auto &[target, expr] : assigns)
            pending.push_back({target, cloneExpr(**expr)});

        // Register comb slots before sorting (for dependency
        // resolution).
        for (size_t i = 0; i < pending.size(); ++i) {
            if (impl->nets.count(pending[i].name)) {
                xlatFail(0, "'" + pending[i].name +
                                "' is both state/input and "
                                "combinational");
            }
            impl->nets[pending[i].name] = {
                HdlModel::Impl::Sym::Comb, i,
                net_width(pending[i].name), 0};
        }

        // Topological sort of the combinational network.
        std::vector<int> mark(pending.size(), 0); // 0=new 1=open 2=done
        std::vector<size_t> order;
        std::function<void(size_t)> visit = [&](size_t index) {
            if (mark[index] == 2)
                return;
            if (mark[index] == 1) {
                xlatFail(0, "combinational loop through '" +
                                pending[index].name + "'");
            }
            mark[index] = 1;
            std::set<std::string> refs;
            collectRefs(*pending[index].expr, refs);
            for (const std::string &ref : refs) {
                auto it = impl->nets.find(ref);
                if (it == impl->nets.end()) {
                    xlatFail(0, "'" + pending[index].name +
                                    "' references undriven net '" +
                                    ref + "'");
                }
                if (it->second.sym == HdlModel::Impl::Sym::Comb)
                    visit(it->second.index);
            }
            mark[index] = 2;
            order.push_back(index);
        };
        for (size_t i = 0; i < pending.size(); ++i)
            visit(i);

        impl->comb.reserve(order.size());
        for (size_t index : order) {
            HdlModel::Impl::CombNode node;
            node.name = pending[index].name;
            node.expr = std::move(pending[index].expr);
            node.width = impl->nets[node.name].width;
            node.slot = index;
            impl->comb.push_back(std::move(node));
        }

        // Next-state expressions.
        impl->nextExprs.resize(impl->stateVars.size());
        for (size_t i = 0; i < impl->stateVars.size(); ++i) {
            const std::string &name = impl->stateVars[i].name;
            auto seq_it = seq_env.find(name);
            auto comb_it = comb_env.find(name);
            if (seq_it != seq_env.end()) {
                impl->nextExprs[i] = std::move(seq_it->second);
            } else if (comb_it != comb_env.end()) {
                // Inferred latch: its "next" value is the latch
                // function itself.
                impl->nextExprs[i] = std::move(comb_it->second);
            } else {
                impl->nextExprs[i] = makeIdentifier(name);
                result.notes.push_back("state '" + name +
                                       "' is never assigned; holds "
                                       "its reset value");
            }
        }

        // Validate all references in next-state expressions.
        for (const auto &expr : impl->nextExprs) {
            std::set<std::string> refs;
            collectRefs(*expr, refs);
            for (const std::string &ref : refs) {
                if (!impl->nets.count(ref))
                    xlatFail(0, "undriven net '" + ref +
                                    "' referenced by sequential "
                                    "logic");
            }
        }
        if (!impl->instrNet.empty() &&
            !impl->nets.count(impl->instrNet)) {
            xlatFail(0, "vfsm instr net '" + impl->instrNet +
                            "' does not exist");
        }

        impl->layout = fsm::StateLayout(impl->stateVars);

        // Lower the expression network to bytecode up front, so a
        // design the bytecode cannot hold fails translation instead
        // of a later step.
        compile::FsmSpec spec;
        SpecLowering(*impl, spec).run();
        try {
            impl->program = compile::lower(spec);
        } catch (const FatalError &error) {
            xlatFail(0, error.what());
        }

        result.model.reset(new HdlModel(std::move(impl)));
        return result;
    } catch (const XlatError &error) {
        return Result<TranslateResult>::error(error.message);
    }
}

Result<TranslateResult>
translateSource(const std::string &source, const std::string &top)
{
    auto design = parse(source);
    if (!design.ok())
        return Result<TranslateResult>::error(design.errorMessage());
    auto elaborated = elaborate(design.value(), top);
    if (!elaborated.ok())
        return Result<TranslateResult>::error(
            elaborated.errorMessage());
    return translate(elaborated.value());
}

} // namespace archval::hdl
