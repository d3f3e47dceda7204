/**
 * @file
 * Unit tests for the ISA layer: encoder/decoder round trips for every
 * instruction in Table 1 and the MIPS subset, assembler label fixups,
 * and disassembler sanity.
 */

#include <gtest/gtest.h>

#include "isa/assembler.h"
#include "isa/decoder.h"
#include "isa/disasm.h"
#include "isa/encoder.h"
#include "isa/text_assembler.h"
#include <set>

#include "support/rng.h"

namespace cheri::isa
{
namespace
{

using namespace reg;

TEST(Decoder, NopIsSllZero)
{
    Instruction inst = decode(0);
    EXPECT_EQ(inst.op, Opcode::kSll);
    EXPECT_EQ(inst.rd, 0);
}

TEST(Decoder, AluRegisterForms)
{
    Instruction inst = decode(encode(Opcode::kDaddu, {3, 4, 5}));
    EXPECT_EQ(inst.op, Opcode::kDaddu);
    EXPECT_EQ(inst.rd, 3);
    EXPECT_EQ(inst.rs, 4);
    EXPECT_EQ(inst.rt, 5);
}

TEST(Decoder, ShiftAmount)
{
    Instruction inst = decode(encode(Opcode::kDsll, {2, 7, 13}));
    EXPECT_EQ(inst.op, Opcode::kDsll);
    EXPECT_EQ(inst.rt, 7);
    EXPECT_EQ(inst.sa, 13);
}

TEST(Decoder, ITypeSignExtension)
{
    Instruction inst = decode(encode(Opcode::kDaddiu, {5, 4, -100}));
    EXPECT_EQ(inst.op, Opcode::kDaddiu);
    EXPECT_EQ(inst.imm, -100);
    EXPECT_EQ(inst.rs, 4);
    EXPECT_EQ(inst.rt, 5);
}

TEST(Decoder, MemoryForms)
{
    Instruction inst = decode(encode(Opcode::kLd, {t0, 16, sp}));
    EXPECT_EQ(inst.op, Opcode::kLd);
    EXPECT_EQ(inst.rs, sp);
    EXPECT_EQ(inst.rt, t0);
    EXPECT_EQ(inst.imm, 16);
}

TEST(Decoder, Cop2RegisterOps)
{
    Instruction inst = decode(encode(Opcode::kCIncBase, {1, 2, 3}));
    EXPECT_EQ(inst.op, Opcode::kCIncBase);
    EXPECT_EQ(inst.cd, 1);
    EXPECT_EQ(inst.cb, 2);
    EXPECT_EQ(inst.rt, 3);
}

TEST(Decoder, CapBranches)
{
    Instruction inst = decode(encode(Opcode::kCBts, {5, -4}));
    EXPECT_EQ(inst.op, Opcode::kCBts);
    EXPECT_EQ(inst.cb, 5);
    EXPECT_EQ(inst.imm, -4);

    inst = decode(encode(Opcode::kCBtu, {6, 100}));
    EXPECT_EQ(inst.op, Opcode::kCBtu);
    EXPECT_EQ(inst.imm, 100);
}

TEST(Decoder, CapMemScaledImmediates)
{
    // Immediate scaled by access size.
    Instruction inst =
        decode(encode(Opcode::kCld, {7, 9, -64, 8}));
    EXPECT_EQ(inst.op, Opcode::kCld);
    EXPECT_EQ(inst.rd, 7);
    EXPECT_EQ(inst.cb, 8);
    EXPECT_EQ(inst.rt, 9);
    EXPECT_EQ(inst.imm, -64);

    inst = decode(encode(Opcode::kClbu, {1, 3, 100, 2}));
    EXPECT_EQ(inst.op, Opcode::kClbu);
    EXPECT_EQ(inst.imm, 100);
}

TEST(Decoder, CapCapMem)
{
    Instruction inst = decode(encode(Opcode::kCLc, {4, 6, -96, 5}));
    EXPECT_EQ(inst.op, Opcode::kCLc);
    EXPECT_EQ(inst.cd, 4);
    EXPECT_EQ(inst.cb, 5);
    EXPECT_EQ(inst.rt, 6);
    EXPECT_EQ(inst.imm, -96);

    inst = decode(encode(Opcode::kCSc, {1, 0, 32 * 1023, 2}));
    EXPECT_EQ(inst.op, Opcode::kCSc);
    EXPECT_EQ(inst.imm, 32 * 1023);
}

TEST(Decoder, UnknownEncodingsAreInvalid)
{
    EXPECT_EQ(decode(0x1fu << 26).op, Opcode::kInvalid); // unused major
    EXPECT_EQ(decode((0x12u << 26) | (31u << 21)).op, Opcode::kInvalid);
    EXPECT_EQ(decode(0x01u).op, Opcode::kInvalid); // unused funct
}

/** Every Table 1 instruction must decode back from its encoding. */
TEST(Decoder, Table1Complete)
{
    struct Case
    {
        std::uint32_t word;
        Opcode expected;
    };
    const Case cases[] = {
        {encode(Opcode::kCGetBase, {1, 2}), Opcode::kCGetBase},
        {encode(Opcode::kCGetLen, {1, 2}), Opcode::kCGetLen},
        {encode(Opcode::kCGetTag, {1, 2}), Opcode::kCGetTag},
        {encode(Opcode::kCGetPerm, {1, 2}), Opcode::kCGetPerm},
        {encode(Opcode::kCGetPcc, {1, 2}), Opcode::kCGetPcc},
        {encode(Opcode::kCIncBase, {1, 2, 3}), Opcode::kCIncBase},
        {encode(Opcode::kCSetLen, {1, 2, 3}), Opcode::kCSetLen},
        {encode(Opcode::kCClearTag, {1, 2}), Opcode::kCClearTag},
        {encode(Opcode::kCAndPerm, {1, 2, 3}), Opcode::kCAndPerm},
        {encode(Opcode::kCToPtr, {1, 2, 3}), Opcode::kCToPtr},
        {encode(Opcode::kCFromPtr, {1, 2, 3}), Opcode::kCFromPtr},
        {encode(Opcode::kCBtu, {1, 0}), Opcode::kCBtu},
        {encode(Opcode::kCBts, {1, 0}), Opcode::kCBts},
        {encode(Opcode::kCLc, {1, 3, 0, 2}), Opcode::kCLc},
        {encode(Opcode::kCSc, {1, 3, 0, 2}), Opcode::kCSc},
        {encode(Opcode::kClb, {1, 3, 0, 2}), Opcode::kClb},
        {encode(Opcode::kClbu, {1, 3, 0, 2}), Opcode::kClbu},
        {encode(Opcode::kClh, {1, 3, 0, 2}), Opcode::kClh},
        {encode(Opcode::kClhu, {1, 3, 0, 2}), Opcode::kClhu},
        {encode(Opcode::kClw, {1, 3, 0, 2}), Opcode::kClw},
        {encode(Opcode::kClwu, {1, 3, 0, 2}), Opcode::kClwu},
        {encode(Opcode::kCld, {1, 3, 0, 2}), Opcode::kCld},
        {encode(Opcode::kCsb, {1, 3, 0, 2}), Opcode::kCsb},
        {encode(Opcode::kCsh, {1, 3, 0, 2}), Opcode::kCsh},
        {encode(Opcode::kCsw, {1, 3, 0, 2}), Opcode::kCsw},
        {encode(Opcode::kCsd, {1, 3, 0, 2}), Opcode::kCsd},
        {encode(Opcode::kClld, {1, 3, 2}), Opcode::kClld},
        {encode(Opcode::kCscd, {1, 3, 2}), Opcode::kCscd},
        {encode(Opcode::kCJr, {2, 1}), Opcode::kCJr},
        {encode(Opcode::kCJalr, {1, 3, 2}), Opcode::kCJalr},
    };
    for (const Case &c : cases)
        EXPECT_EQ(decode(c.word).op, c.expected)
            << disassemble(decode(c.word));
}

TEST(Assembler, SimpleSequence)
{
    Assembler a;
    a.li(t0, 5);
    a.daddiu(t0, t0, 1);
    std::vector<std::uint32_t> code = a.finish();
    ASSERT_EQ(code.size(), 2u);
    EXPECT_EQ(decode(code[0]).op, Opcode::kDaddiu);
    EXPECT_EQ(decode(code[1]).imm, 1);
}

TEST(Assembler, BackwardBranchOffset)
{
    Assembler a;
    auto loop = a.newLabel();
    a.bind(loop);
    a.nop();
    a.bne(t0, zero, loop); // branch at word 1, target word 0
    a.nop();
    std::vector<std::uint32_t> code = a.finish();
    Instruction branch = decode(code[1]);
    // Offset relative to the delay slot: 0 - 2 = -2 words.
    EXPECT_EQ(branch.imm, -2);
}

TEST(Assembler, ForwardBranchOffset)
{
    Assembler a;
    auto done = a.newLabel();
    a.beq(zero, zero, done); // word 0
    a.nop();                 // word 1 (delay)
    a.nop();                 // word 2
    a.bind(done);            // word 3
    a.nop();
    std::vector<std::uint32_t> code = a.finish();
    EXPECT_EQ(decode(code[0]).imm, 2); // 3 - (0+1)
}

TEST(Assembler, JumpTargetAbsolute)
{
    Assembler a(0x10000);
    auto target = a.newLabel();
    a.j(target);
    a.nop();
    a.bind(target);
    a.nop();
    std::vector<std::uint32_t> code = a.finish();
    Instruction jump = decode(code[0]);
    EXPECT_EQ(jump.target << 2, 0x10008u);
}

TEST(Assembler, Li64RoundTrip)
{
    // Check the emitted sequence loads the constant by interpreting
    // it symbolically.
    const std::uint64_t kValue = 0xdeadbeefcafe1234ULL;
    Assembler a;
    a.li64(t0, kValue);
    std::vector<std::uint32_t> code = a.finish();

    std::uint64_t reg = 0;
    for (std::uint32_t word : code) {
        Instruction inst = decode(word);
        switch (inst.op) {
          case Opcode::kLui:
            reg = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(static_cast<std::int32_t>(
                    (inst.imm & 0xffff) << 16)));
            break;
          case Opcode::kOri:
            reg |= static_cast<std::uint32_t>(inst.imm) & 0xffff;
            break;
          case Opcode::kDsll:
            reg <<= inst.sa;
            break;
          default:
            FAIL() << "unexpected opcode in li64 expansion";
        }
    }
    EXPECT_EQ(reg, kValue);
}

TEST(Assembler, UnboundLabelPanics)
{
    Assembler a;
    auto label = a.newLabel();
    a.beq(zero, zero, label);
    a.nop();
    EXPECT_DEATH(a.finish(), "never bound");
}

TEST(Assembler, CapInstructionEmission)
{
    Assembler a;
    a.cincbase(1, 0, t0);
    a.csetlen(1, 1, t1);
    a.clc(2, 1, zero, 32);
    a.csc(2, 1, zero, -32);
    a.cld(t2, 1, t3, 8);
    std::vector<std::uint32_t> code = a.finish();
    EXPECT_EQ(decode(code[0]).op, Opcode::kCIncBase);
    EXPECT_EQ(decode(code[1]).op, Opcode::kCSetLen);
    EXPECT_EQ(decode(code[2]).op, Opcode::kCLc);
    EXPECT_EQ(decode(code[2]).imm, 32);
    EXPECT_EQ(decode(code[3]).op, Opcode::kCSc);
    EXPECT_EQ(decode(code[3]).imm, -32);
    EXPECT_EQ(decode(code[4]).op, Opcode::kCld);
    EXPECT_EQ(decode(code[4]).imm, 8);
}

TEST(Disasm, RendersRegisterNames)
{
    Assembler a;
    a.daddu(v0, a0, a1);
    std::vector<std::uint32_t> code = a.finish();
    EXPECT_EQ(disassemble(decode(code[0])), "daddu v0, a0, a1");
}

TEST(Disasm, RendersCapOps)
{
    Instruction inst = decode(encode(Opcode::kCIncBase, {1, 0, 8}));
    EXPECT_EQ(disassemble(inst), "cincbase c1, c0, t0");
}

TEST(Disasm, NopSpecialCase)
{
    EXPECT_EQ(disassemble(decode(0)), "nop");
}

TEST(Instruction, DelaySlotClassification)
{
    EXPECT_TRUE(decode(encode(Opcode::kBeq, {0, 0, 0})).hasDelaySlot());
    EXPECT_TRUE(decode(encode(Opcode::kCBts, {0, 0})).hasDelaySlot());
    EXPECT_TRUE(decode(encode(Opcode::kCJr, {0, 1})).hasDelaySlot());
    EXPECT_FALSE(
        decode(encode(Opcode::kDaddu, {1, 2, 3})).hasDelaySlot());
}

TEST(Instruction, CapMemoryClassification)
{
    EXPECT_TRUE(decode(encode(Opcode::kCLc, {1, 0, 0, 2})).isCapMemory());
    EXPECT_TRUE(
        decode(encode(Opcode::kCsd, {1, 0, 0, 2})).isCapMemory());
    EXPECT_FALSE(decode(encode(Opcode::kLd, {1, 0, 0})).isCapMemory());
}

/** Property: random register/immediate choices round-trip. */
TEST(Decoder, RandomizedRoundTrip)
{
    support::Xoshiro256 rng(11);
    for (int i = 0; i < 2000; ++i) {
        unsigned r1 = static_cast<unsigned>(rng.nextBelow(32));
        unsigned r2 = static_cast<unsigned>(rng.nextBelow(32));
        unsigned r3 = static_cast<unsigned>(rng.nextBelow(32));
        std::int32_t imm16 = static_cast<std::int32_t>(
            rng.nextInRange(0, 0xffff)) - 0x8000;

        Instruction inst = decode(encode(Opcode::kDaddiu, {r2, r1, imm16}));
        EXPECT_EQ(inst.rs, r1);
        EXPECT_EQ(inst.rt, r2);
        EXPECT_EQ(inst.imm, imm16);

        inst = decode(encode(Opcode::kCFromPtr, {r1, r2, r3}));
        EXPECT_EQ(inst.cd, r1);
        EXPECT_EQ(inst.cb, r2);
        EXPECT_EQ(inst.rt, r3);

        std::int32_t imm8 = static_cast<std::int32_t>(
                                rng.nextInRange(0, 0xff)) - 0x80;
        unsigned size = static_cast<unsigned>(rng.nextBelow(4));
        const Opcode loads[] = {Opcode::kClb, Opcode::kClh, Opcode::kClw,
                                Opcode::kCld};
        inst = decode(encode(loads[size], {r1, r3, imm8 * (1 << size), r2}));
        EXPECT_EQ(inst.rd, r1);
        EXPECT_EQ(inst.cb, r2);
        EXPECT_EQ(inst.rt, r3);
        EXPECT_EQ(inst.imm, imm8 * (1 << size));
    }
}

/**
 * One literal word per encoding class, recorded from the per-class
 * encoders the table replaced: a wrong row still round-trips through
 * encode and decode, but fails here.
 */
TEST(Encoder, LiteralWordPerEncodingClass)
{
    // SPECIAL
    EXPECT_EQ(encode(Opcode::kDaddu, {3, 4, 5}), 0x0085182du);
    EXPECT_EQ(encode(Opcode::kDsra32, {8, 9, 3}), 0x000940ffu);
    // REGIMM, J, I-type
    EXPECT_EQ(encode(Opcode::kBgez, {5, -3}), 0x04a1fffdu);
    EXPECT_EQ(encode(Opcode::kJal, {0x4003}), 0x0c004003u);
    EXPECT_EQ(encode(Opcode::kDaddiu, {5, 4, -100}), 0x6485ff9cu);
    // COP2, COP2 branch
    EXPECT_EQ(encode(Opcode::kCIncBase, {1, 2, 3}), 0x48a110c0u);
    EXPECT_EQ(encode(Opcode::kCJalr, {1, 3, 2}), 0x49c110c0u);
    EXPECT_EQ(encode(Opcode::kCBts, {5, -4}), 0x4985fffcu);
    // capability memory, CLC/CSC
    EXPECT_EQ(encode(Opcode::kCld, {7, 9, -64, 8}), 0xc8e84fc3u);
    EXPECT_EQ(encode(Opcode::kClbu, {1, 3, 100, 2}), 0xc8221b24u);
    EXPECT_EQ(encode(Opcode::kCLc, {4, 6, -96, 5}), 0xd88537fdu);
    EXPECT_EQ(encode(Opcode::kCSc, {1, 0, 32 * 1023, 2}), 0xf82203ffu);
}

/** A seeded in-range value for syntax letter c of row. */
std::int64_t
seededOperand(const OpInfo &row, char c, support::Xoshiro256 &rng)
{
    auto in = [&](std::int64_t lo, std::int64_t hi) {
        return lo + static_cast<std::int64_t>(rng.nextBelow(
                        static_cast<std::uint64_t>(hi - lo + 1)));
    };
    switch (c) {
      case 'u': return in(0, 0xffff);
      case 'h': return in(-0x8000, 0xffff);
      case 'p': return in(-8, 8);
      case 'a': return in(0, 8); // word index of the label
      case 'i':
        if (row.format == Format::kCapMem)
            return in(-128, 127) * (1 << row.size_log2);
        if (row.format == Format::kCapCap)
            return in(-1024, 1023) * 32;
        return in(-0x8000, 0x7fff);
      default: return in(0, 31); // registers and shift amounts
    }
}

/**
 * Every opcode but kInvalid round-trips: seeded in-range operands
 * encode, decode back to the same fields, and assemble from text to
 * the same word, branches and jumps going through a label.
 */
TEST(Encoder, EveryOpcodeRoundTrips)
{
    constexpr std::uint64_t kBase = 0x10000;
    support::Xoshiro256 rng(19);
    for (const OpInfo &row : kOps) {
        if (row.op == Opcode::kInvalid)
            continue;
        SCOPED_TRACE(row.name);
        for (int trial = 0; trial < 64; ++trial) {
            Operands values{};
            std::string line = std::string(row.name) + " ";
            std::size_t next = 0;
            char label = 0; // 'p' or 'a' when the syntax takes one
            std::int64_t offset = 0; // branch words, or jump label index
            for (const char *c = row.syntax; *c != '\0'; ++c) {
                if (fieldOf(*c) == Field::kNone) {
                    line += *c == ',' ? std::string(", ")
                                      : std::string(1, *c);
                    continue;
                }
                std::int64_t value = seededOperand(row, *c, rng);
                switch (*c) {
                  case 'd': case 's': case 't':
                    line += trial % 2 ? "$" + std::to_string(value)
                                      : std::string("$") + kRegNames[value];
                    break;
                  case 'D': case 'B': case 'T':
                    line += "$c" + std::to_string(value);
                    break;
                  case 'p': case 'a':
                    line += "target";
                    label = *c;
                    offset = value;
                    if (label == 'a')
                        value += static_cast<std::int64_t>(kBase >> 2);
                    break;
                  default: line += std::to_string(value); break;
                }
                values[next++] = value;
            }
            std::uint32_t word = encode(row.op, values);
            Instruction inst = decode(word);
            EXPECT_EQ(inst.op, row.op);
            next = 0;
            for (const char *c = row.syntax; *c != '\0'; ++c) {
                if (fieldOf(*c) == Field::kNone)
                    continue;
                std::int64_t field = fieldValue(inst, fieldOf(*c));
                std::int64_t value = values[next++];
                if (*c == 'u' || *c == 'h')
                    EXPECT_EQ(field & 0xffff, value & 0xffff) << *c;
                else
                    EXPECT_EQ(field, value) << *c;
            }

            // Place the label so the branch offset or jump target is
            // the seeded one; the instruction lands at word `at`.
            auto nops = [](std::int64_t count) {
                std::string text;
                for (std::int64_t i = 0; i < count; ++i)
                    text += "nop\n";
                return text;
            };
            std::int64_t at = 0;
            std::string source = line + "\n";
            if (label == 'a') {
                at = offset;
                source = nops(at) + "target:\n" + source;
            } else if (label == 'p' && offset < 0) {
                at = -offset - 1;
                source = "target:\n" + nops(at) + source;
            } else if (label == 'p') {
                source += nops(offset) + "target:\n";
            }
            AsmResult assembled = assembleText(source, kBase);
            ASSERT_TRUE(assembled.ok())
                << line << ": " << assembled.errors[0].message;
            ASSERT_GT(assembled.words.size(), static_cast<std::size_t>(at));
            EXPECT_EQ(assembled.words[static_cast<std::size_t>(at)], word)
                << line;
        }
    }
}

/** Disassembler totality: every valid encoding renders real text. */
TEST(Disasm, TotalOverValidEncodings)
{
    support::Xoshiro256 rng(55);
    unsigned rendered = 0;
    for (int i = 0; i < 50000; ++i) {
        std::uint32_t word = static_cast<std::uint32_t>(rng.next());
        Instruction inst = decode(word);
        std::string text = disassemble(inst);
        EXPECT_FALSE(text.empty());
        if (inst.op != Opcode::kInvalid) {
            ++rendered;
            EXPECT_EQ(text.find("invalid"), std::string::npos) << text;
        }
    }
    // A good chunk of random words decode (dense opcode map).
    EXPECT_GT(rendered, 1000u);
}

/** FNV-1a over raw bytes: folds decode results into one value. */
void
fnv1a(std::uint64_t &hash, const void *data, std::size_t size)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ULL;
    }
}

/** Folds every Instruction field and the disassembly of word. */
void
foldDecode(std::uint64_t &hash, std::uint32_t word)
{
    Instruction inst = decode(word);
    const std::uint32_t fields[] = {
        static_cast<std::uint32_t>(inst.op), inst.rs, inst.rt, inst.rd,
        inst.sa, inst.cd, inst.cb, inst.ct,
        static_cast<std::uint32_t>(inst.imm), inst.target, inst.raw};
    fnv1a(hash, fields, sizeof(fields));
    std::string text = disassemble(inst);
    fnv1a(hash, text.c_str(), text.size() + 1);
}

/**
 * Pins decode and disassembly to digests recorded before the ISA
 * moved into one table. Every major opcode is decoded with every
 * value of each selector field (SPECIAL funct [5:0], REGIMM [20:16],
 * COP2 sub-opcode [25:21], capability-memory sign and size [2:0])
 * over four fillers of the other bits, then 2^18 seeded words.
 */
TEST(Decoder, DigestPinsDecodeAndDisassembly)
{
    struct Selector
    {
        unsigned lsb, width;
    };
    const Selector selectors[] = {{0, 6}, {16, 5}, {21, 5}, {0, 3}};
    const std::uint32_t fillers[] = {0x00000000u, 0x03ffffffu,
                                     0x02a5c3d9u, 0x015a3c26u};
    std::uint64_t selected = 0xcbf29ce484222325ULL;
    for (std::uint32_t major = 0; major < 64; ++major) {
        for (const Selector &sel : selectors) {
            std::uint32_t mask = ((1u << sel.width) - 1) << sel.lsb;
            for (std::uint32_t value = 0; value < (1u << sel.width);
                 ++value) {
                for (std::uint32_t filler : fillers) {
                    foldDecode(selected, (major << 26) |
                                             (filler & ~mask) |
                                             (value << sel.lsb));
                }
            }
        }
    }
    std::uint64_t seeded = 0xcbf29ce484222325ULL;
    support::Xoshiro256 rng(2014);
    for (unsigned i = 0; i < (1u << 18); ++i)
        foldDecode(seeded, static_cast<std::uint32_t>(rng.next()));
    EXPECT_EQ(selected, 0x1f0fd2e4e5517eabULL);
    EXPECT_EQ(seeded, 0x57cf2a34d40e1b39ULL);
}

/** Every named opcode has a distinct mnemonic string. */
TEST(Isa, OpcodeNamesAreUniqueAndNonEmpty)
{
    std::set<std::string> names;
    for (int op = static_cast<int>(Opcode::kSll);
         op <= static_cast<int>(Opcode::kCReturn); ++op) {
        std::string name = opcodeName(static_cast<Opcode>(op));
        EXPECT_FALSE(name.empty());
        EXPECT_TRUE(names.insert(name).second)
            << "duplicate mnemonic " << name;
    }
}

} // namespace
} // namespace cheri::isa
