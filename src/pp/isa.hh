/**
 * @file
 * Instruction set of the FLASH Protocol Processor model.
 *
 * The PP is a DLX-based dual-issue RISC core (paper Section 2). The
 * ISA here is a faithful functional stand-in: a MIPS-like 32-bit
 * encoding with the MAGIC-specific SWITCH and SEND instructions that
 * communicate with the Inbox and Outbox. The control logic only
 * distinguishes the five instruction classes of Table 3.1 (plus
 * branches, the paper's announced extension, which are modeled behind
 * a feature flag).
 */

#ifndef ARCHVAL_PP_ISA_HH
#define ARCHVAL_PP_ISA_HH

#include <cstdint>
#include <optional>
#include <string>

namespace archval::pp
{

/**
 * Instruction classes as seen by the control logic (Table 3.1).
 *
 * "None" marks a pipeline bubble; it never appears in a program.
 */
enum class InstrClass : uint8_t
{
    None = 0,   ///< pipeline bubble (no instruction)
    Alu = 1,    ///< no control effect (PP has no exceptions)
    Load = 2,   ///< can transition load/store FSMs
    Store = 3,  ///< can transition load/store FSMs
    Switch = 4, ///< stalls when the Inbox is not ready
    Send = 5,   ///< stalls when the Outbox is not ready
    Branch = 6, ///< squashing branch (extension; see Section 4)
};

/** Number of classes usable in programs (excludes None). */
constexpr unsigned numProgramClasses = 6;

/** @return printable class name. */
const char *instrClassName(InstrClass cls);

/** Primary opcodes (bits [31:26]). */
enum class Opcode : uint8_t
{
    Special = 0, ///< R-type ALU; funct selects the operation
    J = 2,
    Beq = 4,
    Bne = 5,
    Addi = 8,
    Slti = 10,
    Andi = 12,
    Ori = 13,
    Xori = 14,
    Lui = 15,
    Switch = 16, ///< rd <- next Inbox word
    Send = 17,   ///< Outbox <- rs
    Lw = 35,
    Sw = 43,
    Halt = 63,
};

/** R-type function codes (bits [5:0] under Opcode::Special). */
enum class Funct : uint8_t
{
    Sll = 0,
    Srl = 2,
    Sra = 3,
    Add = 32,
    Sub = 34,
    And = 36,
    Or = 37,
    Xor = 38,
    Slt = 42,
};

/** Fields of a decoded instruction. */
struct DecodedInstr
{
    Opcode op = Opcode::Special;
    Funct funct = Funct::Add;
    uint8_t rs = 0;  ///< first source register
    uint8_t rt = 0;  ///< second source / I-type destination
    uint8_t rd = 0;  ///< R-type destination
    uint8_t shamt = 0;
    int16_t imm = 0;   ///< sign-extended I-type immediate
    uint32_t target = 0; ///< J-type target (word index)

    /** @return the control-logic class of this instruction. */
    InstrClass
    cls() const
    {
        switch (op) {
          case Opcode::Lw:
            return InstrClass::Load;
          case Opcode::Sw:
            return InstrClass::Store;
          case Opcode::Switch:
            return InstrClass::Switch;
          case Opcode::Send:
            return InstrClass::Send;
          case Opcode::Beq:
          case Opcode::Bne:
          case Opcode::J:
            return InstrClass::Branch;
          default:
            // HALT behaves as ALU for the control logic: it only
            // stops the test, it causes no stall of its own.
            return InstrClass::Alu;
        }
    }

    /** @return true for the NOP encoding (sll r0, r0, 0). */
    bool isNop() const;

    /** @return a disassembly string. */
    std::string toString() const;
};

/** Decode a 32-bit instruction word. Inline, with cls(): the RTL
 *  core decodes every instruction it fetches. */
inline DecodedInstr
decode(uint32_t word)
{
    DecodedInstr d;
    d.op = static_cast<Opcode>((word >> 26) & 0x3f);
    d.rs = static_cast<uint8_t>((word >> 21) & 0x1f);
    d.rt = static_cast<uint8_t>((word >> 16) & 0x1f);
    d.rd = static_cast<uint8_t>((word >> 11) & 0x1f);
    d.shamt = static_cast<uint8_t>((word >> 6) & 0x1f);
    d.funct = static_cast<Funct>(word & 0x3f);
    d.imm = static_cast<int16_t>(word & 0xffff);
    d.target = word & 0x03ffffff;
    return d;
}

/** Encode a decoded instruction back to its 32-bit word. */
uint32_t encode(const DecodedInstr &instr);

/** Convenience encoders. @{ */
uint32_t encodeRType(Funct funct, unsigned rd, unsigned rs, unsigned rt,
                     unsigned shamt = 0);
uint32_t encodeIType(Opcode op, unsigned rt, unsigned rs, int16_t imm);
uint32_t encodeLw(unsigned rt, unsigned base, int16_t offset);
uint32_t encodeSw(unsigned rt, unsigned base, int16_t offset);
uint32_t encodeSwitch(unsigned rd);
uint32_t encodeSend(unsigned rs);
uint32_t encodeBranch(Opcode op, unsigned rs, unsigned rt, int16_t offset);
uint32_t encodeJump(uint32_t target_word);
uint32_t encodeHalt();
uint32_t encodeNop();
/** @} */

/** @return the class of an encoded instruction word. */
InstrClass classOfWord(uint32_t word);

} // namespace archval::pp

#endif // ARCHVAL_PP_ISA_HH
