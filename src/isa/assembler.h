/**
 * @file
 * A small structured assembler for building guest programs in C++.
 * Each method emits one instruction (or a documented pseudo-op
 * sequence); labels provide forward references for branches and jumps.
 * This substitutes for the paper's LLVM/Clang CHERI back end: guest
 * code for the examples and tests is written against this API.
 */

#ifndef CHERI_ISA_ASSEMBLER_H
#define CHERI_ISA_ASSEMBLER_H

#include <cstdint>
#include <vector>

#include "isa/encoder.h"
#include "isa/isa.h"

namespace cheri::isa
{

/** MIPS ABI register numbers for readable guest code. */
namespace reg
{
constexpr unsigned zero = 0, at = 1, v0 = 2, v1 = 3;
constexpr unsigned a0 = 4, a1 = 5, a2 = 6, a3 = 7;
constexpr unsigned t0 = 8, t1 = 9, t2 = 10, t3 = 11;
constexpr unsigned t4 = 12, t5 = 13, t6 = 14, t7 = 15;
constexpr unsigned s0 = 16, s1 = 17, s2 = 18, s3 = 19;
constexpr unsigned s4 = 20, s5 = 21, s6 = 22, s7 = 23;
constexpr unsigned t8 = 24, t9 = 25, k0 = 26, k1 = 27;
constexpr unsigned gp = 28, sp = 29, fp = 30, ra = 31;
} // namespace reg

/**
 * Incremental program builder. Typical use:
 * @code
 *   Assembler a(0x1000);
 *   auto loop = a.newLabel();
 *   a.li(reg::t0, 10);
 *   a.bind(loop);
 *   a.daddiu(reg::t0, reg::t0, -1);
 *   a.bne(reg::t0, reg::zero, loop);
 *   a.nop();                       // delay slot
 *   std::vector<uint32_t> code = a.finish();
 * @endcode
 */
class Assembler
{
  public:
    /** Opaque label handle. */
    struct Label
    {
        unsigned id = ~0u;
    };

    /** Create an assembler for code loaded at base_addr. */
    explicit Assembler(std::uint64_t base_addr = 0);

    /** Allocate a label for later bind()/branch use. */
    Label newLabel();

    /** Bind a label to the current position. */
    void bind(Label label);

    /** Address of the next instruction to be emitted. */
    std::uint64_t here() const;

    /** Finalize: patch all label references and return the words. */
    std::vector<std::uint32_t> finish();

    // --- raw emission ---
    void emit(std::uint32_t word);
    /** Encode op from operands in its syntax order (see OpInfo). */
    void emit(Opcode op, const Operands &operands);
    /** Same, with the branch offset or jump target that finish()
     *  patches in for label (pass 0 in its operand slot). */
    void emit(Opcode op, const Operands &operands, Label label);

    // --- pseudo instructions ---
    void nop() { emit(0); }
    void move(unsigned rd, unsigned rs);
    /** Load a 32-bit signed constant (1-2 instructions). */
    void li(unsigned rd, std::int32_t value);
    /** Load an arbitrary 64-bit constant (up to 6 instructions). */
    void li64(unsigned rd, std::uint64_t value);
    /** Unconditional branch (beq zero, zero). */
    void b(Label label);

    // --- shifts ---
    void sll(unsigned rd, unsigned rt, unsigned sa);
    void srl(unsigned rd, unsigned rt, unsigned sa);
    void sra(unsigned rd, unsigned rt, unsigned sa);
    void dsll(unsigned rd, unsigned rt, unsigned sa);
    void dsrl(unsigned rd, unsigned rt, unsigned sa);
    void dsra(unsigned rd, unsigned rt, unsigned sa);
    void dsll32(unsigned rd, unsigned rt, unsigned sa);
    void dsrl32(unsigned rd, unsigned rt, unsigned sa);
    void dsra32(unsigned rd, unsigned rt, unsigned sa);
    void sllv(unsigned rd, unsigned rt, unsigned rs);
    void srlv(unsigned rd, unsigned rt, unsigned rs);
    void srav(unsigned rd, unsigned rt, unsigned rs);
    void dsllv(unsigned rd, unsigned rt, unsigned rs);
    void dsrlv(unsigned rd, unsigned rt, unsigned rs);
    void dsrav(unsigned rd, unsigned rt, unsigned rs);

    // --- ALU register ---
    void addu(unsigned rd, unsigned rs, unsigned rt);
    void daddu(unsigned rd, unsigned rs, unsigned rt);
    void subu(unsigned rd, unsigned rs, unsigned rt);
    void dsubu(unsigned rd, unsigned rs, unsigned rt);
    void and_(unsigned rd, unsigned rs, unsigned rt);
    void or_(unsigned rd, unsigned rs, unsigned rt);
    void xor_(unsigned rd, unsigned rs, unsigned rt);
    void nor(unsigned rd, unsigned rs, unsigned rt);
    void slt(unsigned rd, unsigned rs, unsigned rt);
    void sltu(unsigned rd, unsigned rs, unsigned rt);
    void movz(unsigned rd, unsigned rs, unsigned rt);
    void movn(unsigned rd, unsigned rs, unsigned rt);
    void dmult(unsigned rs, unsigned rt);
    void dmultu(unsigned rs, unsigned rt);
    void ddiv(unsigned rs, unsigned rt);
    void ddivu(unsigned rs, unsigned rt);
    void mfhi(unsigned rd);
    void mflo(unsigned rd);

    // --- ALU immediate ---
    void addiu(unsigned rt, unsigned rs, std::int32_t imm);
    void daddiu(unsigned rt, unsigned rs, std::int32_t imm);
    void slti(unsigned rt, unsigned rs, std::int32_t imm);
    void sltiu(unsigned rt, unsigned rs, std::int32_t imm);
    void andi(unsigned rt, unsigned rs, std::uint32_t imm);
    void ori(unsigned rt, unsigned rs, std::uint32_t imm);
    void xori(unsigned rt, unsigned rs, std::uint32_t imm);
    void lui(unsigned rt, std::int32_t imm);

    // --- control flow ---
    void j(Label label);
    void jal(Label label);
    void jr(unsigned rs);
    void jalr(unsigned rd, unsigned rs);
    void beq(unsigned rs, unsigned rt, Label label);
    void bne(unsigned rs, unsigned rt, Label label);
    void blez(unsigned rs, Label label);
    void bgtz(unsigned rs, Label label);
    void bltz(unsigned rs, Label label);
    void bgez(unsigned rs, Label label);
    void syscall();
    void break_();

    // --- legacy memory (via C0) ---
    void lb(unsigned rt, unsigned rs, std::int32_t imm);
    void lbu(unsigned rt, unsigned rs, std::int32_t imm);
    void lh(unsigned rt, unsigned rs, std::int32_t imm);
    void lhu(unsigned rt, unsigned rs, std::int32_t imm);
    void lw(unsigned rt, unsigned rs, std::int32_t imm);
    void lwu(unsigned rt, unsigned rs, std::int32_t imm);
    void ld(unsigned rt, unsigned rs, std::int32_t imm);
    void sb(unsigned rt, unsigned rs, std::int32_t imm);
    void sh(unsigned rt, unsigned rs, std::int32_t imm);
    void sw(unsigned rt, unsigned rs, std::int32_t imm);
    void sd(unsigned rt, unsigned rs, std::int32_t imm);
    void lld(unsigned rt, unsigned rs, std::int32_t imm);
    void scd(unsigned rt, unsigned rs, std::int32_t imm);

    // --- CHERI: inspection ---
    void cgetbase(unsigned rd, unsigned cb);
    void cgetlen(unsigned rd, unsigned cb);
    void cgettag(unsigned rd, unsigned cb);
    void cgetperm(unsigned rd, unsigned cb);
    void cgetpcc(unsigned cd, unsigned rd);

    // --- CHERI: manipulation ---
    void cincbase(unsigned cd, unsigned cb, unsigned rt);
    void csetlen(unsigned cd, unsigned cb, unsigned rt);
    void ccleartag(unsigned cd, unsigned cb);
    void candperm(unsigned cd, unsigned cb, unsigned rt);

    // --- CHERI: pointer interop ---
    void ctoptr(unsigned rd, unsigned cb, unsigned ct);
    void cfromptr(unsigned cd, unsigned cb, unsigned rt);

    // --- CHERI: tag branches ---
    void cbtu(unsigned cb, Label label);
    void cbts(unsigned cb, Label label);

    // --- CHERI: memory ---
    void clc(unsigned cd, unsigned cb, unsigned rt, std::int32_t imm);
    void csc(unsigned cd, unsigned cb, unsigned rt, std::int32_t imm);
    void clb(unsigned rd, unsigned cb, unsigned rt, std::int32_t imm);
    void clbu(unsigned rd, unsigned cb, unsigned rt, std::int32_t imm);
    void clh(unsigned rd, unsigned cb, unsigned rt, std::int32_t imm);
    void clhu(unsigned rd, unsigned cb, unsigned rt, std::int32_t imm);
    void clw(unsigned rd, unsigned cb, unsigned rt, std::int32_t imm);
    void clwu(unsigned rd, unsigned cb, unsigned rt, std::int32_t imm);
    void cld(unsigned rd, unsigned cb, unsigned rt, std::int32_t imm);
    void csb(unsigned rd, unsigned cb, unsigned rt, std::int32_t imm);
    void csh(unsigned rd, unsigned cb, unsigned rt, std::int32_t imm);
    void csw(unsigned rd, unsigned cb, unsigned rt, std::int32_t imm);
    void csd(unsigned rd, unsigned cb, unsigned rt, std::int32_t imm);
    void clld(unsigned rd, unsigned cb, unsigned rt);
    void cscd(unsigned rd, unsigned cb, unsigned rt);

    // --- CHERI: jumps ---
    void cjr(unsigned cb, unsigned rt);
    void cjalr(unsigned cd, unsigned cb, unsigned rt);

    // --- CHERI: sealing and domain crossing (Section 11) ---
    void cseal(unsigned cd, unsigned cb, unsigned ct);
    void cunseal(unsigned cd, unsigned cb, unsigned ct);
    void cgettype(unsigned rd, unsigned cb);
    void ccall(unsigned cs, unsigned cb);
    void creturn();

  private:
    enum class FixupKind { kBranch16, kJump26 };

    struct Fixup
    {
        std::size_t word_index;
        unsigned label_id;
        FixupKind kind;
    };

    std::uint64_t base_addr_;
    std::vector<std::uint32_t> words_;
    std::vector<std::int64_t> label_offsets_; ///< -1 = unbound
    std::vector<Fixup> fixups_;
    bool finished_ = false;
};

} // namespace cheri::isa

#endif // CHERI_ISA_ASSEMBLER_H
