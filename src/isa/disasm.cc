#include "isa/disasm.h"

#include "isa/encoder.h"
#include "support/logging.h"

namespace cheri::isa
{

std::string
disassemble(const Instruction &inst)
{
    using support::format;
    if (inst.op == Opcode::kInvalid)
        return format("invalid(0x%08x)", inst.raw);
    if (inst.op == Opcode::kSll && inst.raw == 0)
        return "nop";
    const OpInfo &row = opInfo(inst.op);
    std::string text = row.name;
    if (*row.syntax != '\0')
        text += ' ';
    for (const char *c = row.syntax; *c != '\0'; ++c) {
        std::int64_t value = fieldValue(inst, fieldOf(*c));
        switch (*c) {
          case ',': text += ", "; break;
          case '(': case ')': text += *c; break;
          case 'd': case 's': case 't': text += kRegNames[value & 31]; break;
          case 'D': case 'B': case 'T':
            text += format("c%u", static_cast<unsigned>(value & 31));
            break;
          case 'u': case 'h':
            text += format("0x%x", static_cast<unsigned>(value & 0xffff));
            break;
          case 'a':
            text += format("0x%x", static_cast<std::uint32_t>(value << 2));
            break;
          default: text += std::to_string(value); break; // <, i, p
        }
    }
    return text;
}

} // namespace cheri::isa
