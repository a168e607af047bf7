#include "isa.hh"

#include "support/status.hh"
#include "support/strings.hh"

namespace archval::pp
{

const char *
instrClassName(InstrClass cls)
{
    switch (cls) {
      case InstrClass::None:
        return "NONE";
      case InstrClass::Alu:
        return "ALU";
      case InstrClass::Load:
        return "LD";
      case InstrClass::Store:
        return "SD";
      case InstrClass::Switch:
        return "SWITCH";
      case InstrClass::Send:
        return "SEND";
      case InstrClass::Branch:
        return "BR";
    }
    return "?";
}

bool
DecodedInstr::isNop() const
{
    return op == Opcode::Special && funct == Funct::Sll && rd == 0 &&
           rt == 0 && shamt == 0;
}

std::string
DecodedInstr::toString() const
{
    switch (op) {
      case Opcode::Special:
        switch (funct) {
          case Funct::Sll:
            if (isNop())
                return "nop";
            return formatString("sll r%u, r%u, %u", rd, rt, shamt);
          case Funct::Srl:
            return formatString("srl r%u, r%u, %u", rd, rt, shamt);
          case Funct::Sra:
            return formatString("sra r%u, r%u, %u", rd, rt, shamt);
          case Funct::Add:
            return formatString("add r%u, r%u, r%u", rd, rs, rt);
          case Funct::Sub:
            return formatString("sub r%u, r%u, r%u", rd, rs, rt);
          case Funct::And:
            return formatString("and r%u, r%u, r%u", rd, rs, rt);
          case Funct::Or:
            return formatString("or r%u, r%u, r%u", rd, rs, rt);
          case Funct::Xor:
            return formatString("xor r%u, r%u, r%u", rd, rs, rt);
          case Funct::Slt:
            return formatString("slt r%u, r%u, r%u", rd, rs, rt);
        }
        return "special?";
      case Opcode::J:
        return formatString("j %u", target);
      case Opcode::Beq:
        return formatString("beq r%u, r%u, %d", rs, rt, imm);
      case Opcode::Bne:
        return formatString("bne r%u, r%u, %d", rs, rt, imm);
      case Opcode::Addi:
        return formatString("addi r%u, r%u, %d", rt, rs, imm);
      case Opcode::Slti:
        return formatString("slti r%u, r%u, %d", rt, rs, imm);
      case Opcode::Andi:
        return formatString("andi r%u, r%u, %d", rt, rs, imm);
      case Opcode::Ori:
        return formatString("ori r%u, r%u, %d", rt, rs, imm);
      case Opcode::Xori:
        return formatString("xori r%u, r%u, %d", rt, rs, imm);
      case Opcode::Lui:
        return formatString("lui r%u, %d", rt, imm);
      case Opcode::Switch:
        return formatString("switch r%u", rt);
      case Opcode::Send:
        return formatString("send r%u", rs);
      case Opcode::Lw:
        return formatString("lw r%u, %d(r%u)", rt, imm, rs);
      case Opcode::Sw:
        return formatString("sw r%u, %d(r%u)", rt, imm, rs);
      case Opcode::Halt:
        return "halt";
    }
    return "?";
}

uint32_t
encode(const DecodedInstr &d)
{
    uint32_t word = static_cast<uint32_t>(d.op) << 26;
    if (d.op == Opcode::Special) {
        word |= uint32_t(d.rs) << 21;
        word |= uint32_t(d.rt) << 16;
        word |= uint32_t(d.rd) << 11;
        word |= uint32_t(d.shamt) << 6;
        word |= static_cast<uint32_t>(d.funct);
    } else if (d.op == Opcode::J) {
        word |= d.target & 0x03ffffff;
    } else {
        word |= uint32_t(d.rs) << 21;
        word |= uint32_t(d.rt) << 16;
        word |= static_cast<uint16_t>(d.imm);
    }
    return word;
}

uint32_t
encodeRType(Funct funct, unsigned rd, unsigned rs, unsigned rt,
            unsigned shamt)
{
    DecodedInstr d;
    d.op = Opcode::Special;
    d.funct = funct;
    d.rd = static_cast<uint8_t>(rd & 0x1f);
    d.rs = static_cast<uint8_t>(rs & 0x1f);
    d.rt = static_cast<uint8_t>(rt & 0x1f);
    d.shamt = static_cast<uint8_t>(shamt & 0x1f);
    return encode(d);
}

uint32_t
encodeIType(Opcode op, unsigned rt, unsigned rs, int16_t imm)
{
    DecodedInstr d;
    d.op = op;
    d.rt = static_cast<uint8_t>(rt & 0x1f);
    d.rs = static_cast<uint8_t>(rs & 0x1f);
    d.imm = imm;
    return encode(d);
}

uint32_t
encodeLw(unsigned rt, unsigned base, int16_t offset)
{
    return encodeIType(Opcode::Lw, rt, base, offset);
}

uint32_t
encodeSw(unsigned rt, unsigned base, int16_t offset)
{
    return encodeIType(Opcode::Sw, rt, base, offset);
}

uint32_t
encodeSwitch(unsigned rd)
{
    // SWITCH carries its destination register in the I-type rt field.
    return encodeIType(Opcode::Switch, rd, 0, 0);
}

uint32_t
encodeSend(unsigned rs)
{
    return encodeIType(Opcode::Send, 0, rs, 0);
}

uint32_t
encodeBranch(Opcode op, unsigned rs, unsigned rt, int16_t offset)
{
    if (op != Opcode::Beq && op != Opcode::Bne)
        panic("encodeBranch: not a branch opcode");
    return encodeIType(op, rt, rs, offset);
}

uint32_t
encodeJump(uint32_t target_word)
{
    DecodedInstr d;
    d.op = Opcode::J;
    d.target = target_word & 0x03ffffff;
    return encode(d);
}

uint32_t
encodeHalt()
{
    DecodedInstr d;
    d.op = Opcode::Halt;
    return encode(d);
}

uint32_t
encodeNop()
{
    return encodeRType(Funct::Sll, 0, 0, 0, 0);
}

InstrClass
classOfWord(uint32_t word)
{
    return decode(word).cls();
}

} // namespace archval::pp
