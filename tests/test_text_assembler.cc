/**
 * @file
 * Tests for the text assembler: syntax coverage for every instruction
 * family, label handling, error reporting, and end-to-end execution
 * of assembled programs on the machine.
 */

#include <gtest/gtest.h>

#include "core/machine.h"
#include "isa/decoder.h"
#include "isa/disasm.h"
#include "isa/text_assembler.h"
#include "os/simple_os.h"

namespace cheri::isa
{
namespace
{

AsmResult
assemble(const std::string &source)
{
    return assembleText(source, 0x10000);
}

Opcode
opOf(const AsmResult &result, std::size_t index)
{
    return decode(result.words.at(index)).op;
}

TEST(TextAsm, EmptyAndComments)
{
    AsmResult result = assemble("\n  # comment\n; another\n// third\n");
    EXPECT_TRUE(result.ok());
    EXPECT_TRUE(result.words.empty());
}

TEST(TextAsm, AluAndImmediates)
{
    AsmResult result = assemble(R"(
        daddu $t0, $t1, $t2
        daddiu $t0, $t0, -4
        andi  $t1, $t1, 0xff
        lui   $t2, 0x1234
        dsll  $t3, $t3, 5
        nop
    )");
    ASSERT_TRUE(result.ok()) << result.errors[0].message;
    EXPECT_EQ(opOf(result, 0), Opcode::kDaddu);
    EXPECT_EQ(opOf(result, 1), Opcode::kDaddiu);
    EXPECT_EQ(decode(result.words[1]).imm, -4);
    EXPECT_EQ(opOf(result, 2), Opcode::kAndi);
    EXPECT_EQ(opOf(result, 3), Opcode::kLui);
    EXPECT_EQ(opOf(result, 4), Opcode::kDsll);
    EXPECT_EQ(decode(result.words[4]).sa, 5);
    EXPECT_EQ(result.words[5], 0u);
}

TEST(TextAsm, RegisterSpellings)
{
    AsmResult result = assemble("daddu $8, $9, $sp\n");
    ASSERT_TRUE(result.ok());
    Instruction inst = decode(result.words[0]);
    EXPECT_EQ(inst.rd, 8);
    EXPECT_EQ(inst.rs, 9);
    EXPECT_EQ(inst.rt, 29);
}

TEST(TextAsm, MemoryOperands)
{
    AsmResult result = assemble(R"(
        ld $t0, 8($sp)
        sd $t0, -16($sp)
        lbu $t1, ($t2)
    )");
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(opOf(result, 0), Opcode::kLd);
    EXPECT_EQ(decode(result.words[0]).imm, 8);
    EXPECT_EQ(decode(result.words[1]).imm, -16);
    EXPECT_EQ(decode(result.words[2]).imm, 0);
}

TEST(TextAsm, LabelsAndBranches)
{
    AsmResult result = assemble(R"(
loop:   daddiu $t0, $t0, -1
        bne $t0, $zero, loop
        nop
        beq $zero, $zero, done
        nop
done:   break
    )");
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(decode(result.words[1]).imm, -2);
    EXPECT_EQ(decode(result.words[3]).imm, 1);
}

TEST(TextAsm, LabelOnOwnLine)
{
    AsmResult result = assemble(R"(
        b target
        nop
target:
        break
    )");
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(decode(result.words[0]).imm, 1);
}

TEST(TextAsm, CheriInstructions)
{
    AsmResult result = assemble(R"(
        cincbase $c1, $c0, $t0
        csetlen  $c1, $c1, $t1
        candperm $c1, $c1, $t2
        ccleartag $c2, $c1
        cgetbase $t3, $c1
        cgetpcc  $c5, $t4
        ctoptr   $t5, $c1, $c0
        cfromptr $c3, $c0, $t5
        cld $t0, 8($c1)
        csd $t0, $t1, 16($c1)
        clc $c2, 32($c1)
        csc $c2, $t0, 64($c1)
        clld $t0, $t1($c1)
        cscd $t0, $t1($c1)
        cjr $ra($c4)
        cjalr $c4, $t3($c2)
        cbts $c1, out
        nop
        cseal $c4, $c2, $c3
        cunseal $c5, $c4, $c3
        cgettype $t0, $c4
        ccall $c1, $c2
        creturn
out:    break
    )");
    ASSERT_TRUE(result.ok()) << result.errors[0].message;
    const Opcode expected[] = {
        Opcode::kCIncBase, Opcode::kCSetLen,  Opcode::kCAndPerm,
        Opcode::kCClearTag, Opcode::kCGetBase, Opcode::kCGetPcc,
        Opcode::kCToPtr,   Opcode::kCFromPtr, Opcode::kCld,
        Opcode::kCsd,      Opcode::kCLc,      Opcode::kCSc,
        Opcode::kClld,     Opcode::kCscd,     Opcode::kCJr,
        Opcode::kCJalr,    Opcode::kCBts,     Opcode::kSll /*nop*/,
        Opcode::kCSeal,    Opcode::kCUnseal,  Opcode::kCGetType,
        Opcode::kCCall,    Opcode::kCReturn,  Opcode::kBreak,
    };
    ASSERT_EQ(result.words.size(), std::size(expected));
    for (std::size_t i = 0; i < std::size(expected); ++i)
        EXPECT_EQ(opOf(result, i), expected[i]) << "at index " << i;
}

TEST(TextAsm, CapMemFieldAssignments)
{
    AsmResult result = assemble("csd $t0, $t1, 16($c3)\n");
    ASSERT_TRUE(result.ok());
    Instruction inst = decode(result.words[0]);
    EXPECT_EQ(inst.rd, 8);  // data register t0
    EXPECT_EQ(inst.rt, 9);  // index register t1
    EXPECT_EQ(inst.cb, 3);
    EXPECT_EQ(inst.imm, 16);
}

TEST(TextAsm, PseudoOps)
{
    AsmResult result = assemble(R"(
        li $t0, 42
        li $t1, 0x123456
        li64 $t2, 0xdeadbeefcafef00d
        move $t3, $t0
        .word 0x0000000d
    )");
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(opOf(result, 0), Opcode::kDaddiu);
    EXPECT_EQ(decode(result.words.back()).op, Opcode::kBreak);
}

TEST(TextAsm, ErrorUnknownMnemonic)
{
    AsmResult result = assemble("frobnicate $t0, $t1\n");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.errors[0].line, 1u);
    EXPECT_NE(result.errors[0].message.find("unknown mnemonic"),
              std::string::npos);
}

TEST(TextAsm, ErrorBadOperands)
{
    EXPECT_FALSE(assemble("daddu $t0, $t1\n").ok());
    EXPECT_FALSE(assemble("daddu $t0, $t1, 5\n").ok());
    EXPECT_FALSE(assemble("ld $t0, 8($c1)\n").ok()); // cap base on ld
    EXPECT_FALSE(assemble("cld $t0, 8($t1)\n").ok()); // gpr base on cld
    EXPECT_FALSE(assemble("daddu $t0, $t1, $c1\n").ok());
    EXPECT_FALSE(assemble("li $t0, 0x123456789\n").ok()); // needs li64
    // An immediate outside its field is a line error, not an abort.
    EXPECT_FALSE(assemble("addiu $t0, $t0, 40000\n").ok());
    EXPECT_FALSE(assemble("ori $t0, $t0, 0x10000\n").ok());
    EXPECT_FALSE(assemble("clc $c1, $t0, 16($c2)\n").ok()); // x32
    EXPECT_FALSE(assemble("cld $t0, $t1, 3($c1)\n").ok());  // x8
    AsmResult result = assemble("nop\naddiu $t0, $t0, 40000\n");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.errors[0].line, 2u);
    EXPECT_EQ(result.errors[0].message,
              "immediate 40000 out of range (-32768..32767)");
    // lui takes the unsigned halfword the disassembler prints, and
    // still takes a negative one.
    result = assemble("lui $t0, 0x8000\nlui $t0, -1\n");
    ASSERT_TRUE(result.ok()) << result.errors[0].message;
    EXPECT_EQ(disassemble(decode(result.words[0])), "lui t0, 0x8000");
    EXPECT_EQ(disassemble(decode(result.words[1])), "lui t0, 0xffff");
}

TEST(TextAsm, ErrorUndefinedLabel)
{
    AsmResult result = assemble("b nowhere\nnop\n");
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.errors[0].message.find("never defined"),
              std::string::npos);
}

TEST(TextAsm, ErrorDuplicateLabel)
{
    AsmResult result = assemble("x: nop\nx: nop\n");
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.errors[0].message.find("bound twice"),
              std::string::npos);
}

TEST(TextAsm, ErrorsCarryLineNumbers)
{
    AsmResult result = assemble("nop\nnop\nbogus\nnop\n");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.errors[0].line, 3u);
}

TEST(TextAsm, RoundTripThroughDisassembler)
{
    AsmResult result = assemble(R"(
        daddu $v0, $a0, $a1
        cincbase $c1, $c0, $t0
    )");
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(disassemble(decode(result.words[0])),
              "daddu v0, a0, a1");
    EXPECT_EQ(disassemble(decode(result.words[1])),
              "cincbase c1, c0, t0");
}

TEST(TextAsm, AssembledProgramRunsEndToEnd)
{
    // Sum 1..100 and exit with the (truncated) result via syscall.
    AsmResult result = assembleText(R"(
        li   $t0, 100
        li   $t1, 0
loop:   daddu $t1, $t1, $t0
        daddiu $t0, $t0, -1
        bgtz $t0, loop
        nop
        li   $v0, 1       # kSysExit
        move $a0, $t1
        syscall
    )",
                                    os::kTextBase);
    ASSERT_TRUE(result.ok());

    core::Machine machine;
    os::SimpleOs kernel(machine);
    kernel.exec(result.words);
    core::RunResult run = kernel.run();
    EXPECT_EQ(run.reason, core::StopReason::kExited);
    EXPECT_EQ(run.exit_code, 5050);
}

TEST(TextAsm, AssembledCheriProgramTrapsOnOverflow)
{
    AsmResult result = assembleText(R"(
        li       $t0, 0x1000000
        cincbase $c1, $c0, $t0
        li       $t1, 16
        csetlen  $c1, $c1, $t1
        cld      $t2, 8($c1)     # fine
        cld      $t2, 16($c1)    # out of bounds
        break
    )",
                                    os::kTextBase);
    ASSERT_TRUE(result.ok());

    core::Machine machine;
    os::SimpleOs kernel(machine);
    kernel.exec(result.words);
    core::RunResult run = kernel.run();
    EXPECT_EQ(run.reason, core::StopReason::kTrap);
    EXPECT_EQ(run.trap.cap_cause, cap::CapCause::kLengthViolation);
}

} // namespace
} // namespace cheri::isa
