/**
 * @file
 * Table 1 — CHERI instruction-set extensions. Enumerates every
 * implemented instruction of the paper's Table 1, encodes it with
 * the table-driven encoder, verifies that it decodes back, and prints
 * the table with the paper's descriptions.
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "isa/decoder.h"
#include "isa/encoder.h"
#include "support/logging.h"
#include "support/stats.h"

using namespace cheri;
using namespace cheri::isa;

namespace
{

struct Row
{
    const char *mnemonic;
    const char *description;
    Opcode op;
    Operands operands; ///< in the row's syntax order (isa.h)
};

} // namespace

int
main()
{
    const std::vector<Row> rows = {
        {"CGetBase", "Move base to a GPR", Opcode::kCGetBase, {8, 1}},
        {"CGetLen", "Move length to a GPR", Opcode::kCGetLen, {8, 1}},
        {"CGetTag", "Move tag bit to a GPR", Opcode::kCGetTag, {8, 1}},
        {"CGetPerm", "Move permissions to a GPR", Opcode::kCGetPerm,
         {8, 1}},
        {"CGetPCC", "Move the PCC and PC to GPRs", Opcode::kCGetPcc,
         {1, 8}},
        {"CIncBase", "Increase base and decrease length",
         Opcode::kCIncBase, {1, 2, 8}},
        {"CSetLen", "Set (reduce) length", Opcode::kCSetLen, {1, 2, 8}},
        {"CClearTag", "Invalidate a capability register",
         Opcode::kCClearTag, {1, 2}},
        {"CAndPerm", "Restrict permissions", Opcode::kCAndPerm,
         {1, 2, 8}},
        {"CToPtr", "Generate C0-based integer pointer from a capability",
         Opcode::kCToPtr, {8, 1, 0}},
        {"CFromPtr", "CIncBase with support for NULL casts",
         Opcode::kCFromPtr, {1, 0, 8}},
        {"CBTU", "Branch if capability tag is unset", Opcode::kCBtu,
         {1, 4}},
        {"CBTS", "Branch if capability tag is set", Opcode::kCBts,
         {1, 4}},
        {"CLC", "Load capability register", Opcode::kCLc,
         {1, 8, 32, 2}},
        {"CSC", "Store capability register", Opcode::kCSc,
         {1, 8, 32, 2}},
        {"CLB", "Load byte via capability register", Opcode::kClb,
         {8, 9, 1, 1}},
        {"CLBU", "Load byte via capability register (zero-extend)",
         Opcode::kClbu, {8, 9, 1, 1}},
        {"CLH", "Load half-word via capability register", Opcode::kClh,
         {8, 9, 2, 1}},
        {"CLHU", "Load half-word via capability register (zero-extend)",
         Opcode::kClhu, {8, 9, 2, 1}},
        {"CLW", "Load word via capability register", Opcode::kClw,
         {8, 9, 4, 1}},
        {"CLWU", "Load word via capability register (zero-extend)",
         Opcode::kClwu, {8, 9, 4, 1}},
        {"CLD", "Load double via capability register", Opcode::kCld,
         {8, 9, 8, 1}},
        {"CSB", "Store byte via capability register", Opcode::kCsb,
         {8, 9, 1, 1}},
        {"CSH", "Store half-word via capability register", Opcode::kCsh,
         {8, 9, 2, 1}},
        {"CSW", "Store word via capability register", Opcode::kCsw,
         {8, 9, 4, 1}},
        {"CSD", "Store double via capability register", Opcode::kCsd,
         {8, 9, 8, 1}},
        {"CLLD", "Load linked via capability register", Opcode::kClld,
         {8, 9, 1}},
        {"CSCD", "Store conditional via capability register",
         Opcode::kCscd, {8, 9, 1}},
        {"CJR", "Jump capability register", Opcode::kCJr, {8, 1}},
        {"CJALR", "Jump and link capability register", Opcode::kCJalr,
         {1, 8, 2}},
    };

    std::printf("Table 1: CHERI instruction-set extensions "
                "(%zu instructions, all implemented)\n\n",
                rows.size());
    support::TextTable table({"Mnemonic", "Description", "Encoding",
                              "Decodes"});
    bool all_ok = true;
    for (const Row &row : rows) {
        std::uint32_t word = encode(row.op, row.operands);
        bool ok = decode(word).op == row.op;
        all_ok = all_ok && ok;
        table.addRow({row.mnemonic, row.description,
                      support::format("0x%08x", word),
                      ok ? "ok" : "MISMATCH"});
    }
    table.print(std::cout);
    std::printf("\n%s\n", all_ok ? "All Table 1 encodings round-trip."
                                 : "ENCODING MISMATCH DETECTED");
    return all_ok ? 0 : 1;
}
