/**
 * @file
 * Binary instruction decoder: finds a word's row in the instruction
 * table (isa.h) and produces the decoded Instruction the executor
 * consumes. Unknown encodings decode to Opcode::kInvalid, which the
 * CPU turns into a reserved-instruction exception.
 */

#ifndef CHERI_ISA_DECODER_H
#define CHERI_ISA_DECODER_H

#include <cstddef>
#include <cstdint>

#include "isa/isa.h"

namespace cheri::isa
{

/** Decode one 32-bit instruction word. */
Instruction decode(std::uint32_t word);

/**
 * Decode count consecutive little-endian 32-bit words from bytes into
 * out. Used by the CPU's predecoded-instruction cache to decode a
 * whole fetched line in one pass.
 */
void decodeLine(const std::uint8_t *bytes, Instruction *out,
                std::size_t count);

} // namespace cheri::isa

#endif // CHERI_ISA_DECODER_H
