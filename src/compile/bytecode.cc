#include "bytecode.hh"

#include <algorithm>
#include <bit>
#include <unordered_map>

#include "support/status.hh"
#include "support/telemetry.hh"
#include "support/timer.hh"

namespace archval::compile
{

namespace
{

uint8_t
valueBits(uint64_t value)
{
    return static_cast<uint8_t>(std::bit_width(value));
}

uint8_t
clampBits(unsigned bits)
{
    return static_cast<uint8_t>(std::min(bits, 64u));
}

} // namespace

Program
lower(const FsmSpec &spec)
{
    telemetry::ScopedSpan span("compile.lower");
    WallTimer timer;

    Program p;
    p.name = spec.name;
    p.stateVars = spec.stateVars;
    p.choiceVars = spec.choiceVars;
    p.layout = fsm::StateLayout(spec.stateVars);
    for (const auto &var : spec.choiceVars)
        p.numCombos *= var.cardinality;

    const size_t num_state = spec.stateVars.size();
    const size_t num_choice = spec.choiceVars.size();
    p.choiceBase = static_cast<uint16_t>(num_state);

    // Per-register value-width bound in [0, 64], and the value of
    // each constant register (for the shift bounds).
    std::vector<uint8_t> reg_bits;
    std::vector<uint8_t> reg_is_const;
    std::vector<uint64_t> reg_const_value;
    auto ensure_reg = [&](size_t reg) {
        if (reg >= 0xFFFF)
            fatal("compile: register file exceeds 65534 registers");
        if (reg_bits.size() <= reg) {
            reg_bits.resize(reg + 1, 0);
            reg_is_const.resize(reg + 1, 0);
            reg_const_value.resize(reg + 1, 0);
        }
    };

    // Fixed registers: state fields then choice values.
    for (size_t i = 0; i < num_state; ++i) {
        ensure_reg(i);
        reg_bits[i] =
            clampBits(static_cast<unsigned>(spec.stateVars[i].numBits));
    }
    for (size_t i = 0; i < num_choice; ++i) {
        size_t reg = num_state + i;
        ensure_reg(reg);
        uint32_t card = spec.choiceVars[i].cardinality;
        reg_bits[reg] = valueBits(card ? card - 1 : 0);
    }

    size_t next_reg = num_state + num_choice;
    std::unordered_map<uint64_t, uint16_t> const_regs;
    auto const_reg = [&](uint64_t value) -> uint16_t {
        auto it = const_regs.find(value);
        if (it != const_regs.end())
            return it->second;
        ensure_reg(next_reg);
        uint16_t reg = static_cast<uint16_t>(next_reg++);
        reg_bits[reg] = valueBits(value);
        reg_is_const[reg] = 1;
        reg_const_value[reg] = value;
        p.constInit.emplace_back(reg, value);
        const_regs.emplace(value, reg);
        return reg;
    };

    // Lower nodes in arena order; children always precede parents.
    std::vector<uint16_t> node_reg(spec.nodes.size(), 0);
    for (size_t ni = 0; ni < spec.nodes.size(); ++ni) {
        const SpecNode &node = spec.nodes[ni];
        switch (node.op) {
          case SpecOp::Const:
            node_reg[ni] = const_reg(node.imm);
            continue;
          case SpecOp::StateRef:
            node_reg[ni] = static_cast<uint16_t>(node.a);
            continue;
          case SpecOp::ChoiceRef:
            node_reg[ni] =
                static_cast<uint16_t>(num_state + node.a);
            continue;
          default:
            break;
        }

        const uint16_t ra = node_reg[node.a];
        const uint8_t ba = reg_bits[ra];
        if (node.op == SpecOp::Mask && ba <= node.width) {
            // Masking a value already narrower than the field is a
            // no-op: alias instead of emitting an instruction.
            node_reg[ni] = ra;
            continue;
        }

        Insn insn;
        insn.width = node.width;
        insn.a = ra;
        uint16_t rb = 0;
        uint8_t bb = 0;
        uint8_t bits = 64;
        switch (node.op) {
          case SpecOp::Mask:
            insn.op = BOp::Mask;
            bits = std::min<uint8_t>(ba, node.width);
            break;
          case SpecOp::Not:
            insn.op = BOp::Not;
            bits = 1;
            break;
          case SpecOp::BitNot:
            insn.op = BOp::BitNot;
            bits = node.width;
            break;
          case SpecOp::Neg:
            insn.op = BOp::Neg;
            bits = node.width;
            break;
          case SpecOp::RedXor:
            insn.op = BOp::RedXor;
            bits = 1;
            break;
          case SpecOp::Add:
          case SpecOp::Sub:
          case SpecOp::Shl:
          case SpecOp::Shr:
          case SpecOp::And:
          case SpecOp::Or:
          case SpecOp::Xor:
          case SpecOp::Eq:
          case SpecOp::Ne:
          case SpecOp::Lt:
          case SpecOp::Le:
          case SpecOp::Gt:
          case SpecOp::Ge:
          case SpecOp::LAnd:
          case SpecOp::LOr:
            rb = node_reg[node.b];
            bb = reg_bits[rb];
            insn.b = rb;
            switch (node.op) {
              case SpecOp::Add:
                insn.op = BOp::Add;
                bits = std::min<unsigned>(
                    node.width, unsigned(std::max(ba, bb)) + 1);
                break;
              case SpecOp::Sub:
                insn.op = BOp::Sub;
                bits = node.width;
                break;
              case SpecOp::Shl:
                insn.op = BOp::Shl;
                if (reg_is_const[rb]) {
                    uint64_t sh = reg_const_value[rb];
                    bits = sh >= 64
                               ? 0
                               : std::min<unsigned>(
                                     node.width,
                                     std::min<uint64_t>(
                                         64, ba + sh));
                } else {
                    bits = node.width;
                }
                break;
              case SpecOp::Shr:
                insn.op = BOp::Shr;
                if (reg_is_const[rb]) {
                    uint64_t sh = reg_const_value[rb];
                    bits = sh >= ba ? 0
                                    : static_cast<uint8_t>(ba - sh);
                } else {
                    bits = ba;
                }
                break;
              case SpecOp::And:
                insn.op = BOp::And;
                bits = std::min(ba, bb);
                break;
              case SpecOp::Or:
                insn.op = BOp::Or;
                bits = std::max(ba, bb);
                break;
              case SpecOp::Xor:
                insn.op = BOp::Xor;
                bits = std::max(ba, bb);
                break;
              case SpecOp::Eq:
                insn.op = BOp::Eq;
                bits = 1;
                break;
              case SpecOp::Ne:
                insn.op = BOp::Ne;
                bits = 1;
                break;
              case SpecOp::Lt:
                insn.op = BOp::Lt;
                bits = 1;
                break;
              case SpecOp::Le:
                insn.op = BOp::Le;
                bits = 1;
                break;
              case SpecOp::Gt:
                insn.op = BOp::Gt;
                bits = 1;
                break;
              case SpecOp::Ge:
                insn.op = BOp::Ge;
                bits = 1;
                break;
              case SpecOp::LAnd:
                insn.op = BOp::LAnd;
                bits = 1;
                break;
              case SpecOp::LOr:
                insn.op = BOp::LOr;
                bits = 1;
                break;
              default:
                break;
            }
            break;
          case SpecOp::Mux:
            insn.op = BOp::Mux;
            rb = node_reg[node.b];
            insn.b = rb;
            insn.c = node_reg[node.c];
            bits = std::max(reg_bits[rb], reg_bits[insn.c]);
            break;
          default:
            fatal("compile: unhandled spec op");
        }

        ensure_reg(next_reg);
        insn.dst = static_cast<uint16_t>(next_reg++);
        reg_bits[insn.dst] = clampBits(bits);
        p.insns.push_back(insn);
        node_reg[ni] = insn.dst;
    }

    Insn halt;
    halt.op = BOp::Halt;
    p.insns.push_back(halt);

    p.numRegs = next_reg;
    if (spec.nextRoots.size() != num_state)
        fatal("compile: spec next-root arity mismatch");
    p.nextRegs.reserve(num_state);
    for (uint32_t root : spec.nextRoots)
        p.nextRegs.push_back(node_reg[root]);
    if (spec.instrRoot != kNoNode)
        p.instrReg = node_reg[spec.instrRoot];
    if (spec.legalRoot != kNoNode)
        p.legalReg = node_reg[spec.legalRoot];

    telemetry::counter("compile.programs").add(1);
    telemetry::counter("compile.bytecode_bytes").add(p.byteSize());
    telemetry::counter("compile.lower_micros")
        .add(static_cast<uint64_t>(timer.seconds() * 1e6));
    return p;
}

} // namespace archval::compile
