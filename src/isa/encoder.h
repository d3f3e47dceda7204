/**
 * @file
 * The table-driven encoder: turns an opcode and its operands into the
 * 32-bit word the decoder consumes, placing each operand where the
 * instruction's kOps row says. The Assembler builds programs on top
 * of it.
 */

#ifndef CHERI_ISA_ENCODER_H
#define CHERI_ISA_ENCODER_H

#include <array>
#include <cstdint>
#include <string>

#include "isa/isa.h"

namespace cheri::isa
{

/** The Instruction field a syntax letter names (see OpInfo). */
enum class Field : std::uint8_t
{
    kRs, kRt, kRd, kSa, kCd, kCb, kCt, kImm, kTarget, kNone,
};

constexpr Field
fieldOf(char letter)
{
    switch (letter) {
      case 's': return Field::kRs;
      case 't': return Field::kRt;
      case 'd': return Field::kRd;
      case '<': return Field::kSa;
      case 'D': return Field::kCd;
      case 'B': return Field::kCb;
      case 'T': return Field::kCt;
      case 'i': case 'u': case 'h': case 'p': return Field::kImm;
      case 'a': return Field::kTarget;
      default: return Field::kNone; // ',' '(' ')'
    }
}

/** The value of field in inst (0 for kNone). */
constexpr std::int64_t
fieldValue(const Instruction &inst, Field field)
{
    switch (field) {
      case Field::kRs: return inst.rs;
      case Field::kRt: return inst.rt;
      case Field::kRd: return inst.rd;
      case Field::kSa: return inst.sa;
      case Field::kCd: return inst.cd;
      case Field::kCb: return inst.cb;
      case Field::kCt: return inst.ct;
      case Field::kImm: return inst.imm;
      case Field::kTarget: return inst.target;
      case Field::kNone: break;
    }
    return 0;
}

/**
 * Operand values in the order the instruction's syntax writes them:
 * clb's "d,t,i(B)" takes {rd, rt, imm, cb}. Immediates are the
 * Instruction field values (imm in bytes, branch offsets in words,
 * the jump target as its 26-bit word field), except that 'u' and 'h'
 * also take the halfword 0..0xffff, which decodes sign-extended.
 */
using Operands = std::array<std::int64_t, 4>;

/** Why operands cannot encode op: a register, shift amount or
 *  immediate outside its field. Empty when they fit. */
std::string operandError(Opcode op, const Operands &operands);

/** Encode op from its operands; panics where operandError would not
 *  be empty, and on kInvalid. */
std::uint32_t encode(Opcode op, const Operands &operands);

} // namespace cheri::isa

#endif // CHERI_ISA_ENCODER_H
