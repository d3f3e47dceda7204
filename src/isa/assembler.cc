#include "isa/assembler.h"

#include "support/logging.h"

namespace cheri::isa
{

Assembler::Assembler(std::uint64_t base_addr) : base_addr_(base_addr)
{
    if (base_addr % 4 != 0)
        support::fatal("code base address 0x%llx must be word aligned",
                       static_cast<unsigned long long>(base_addr));
}

Assembler::Label
Assembler::newLabel()
{
    Label label{static_cast<unsigned>(label_offsets_.size())};
    label_offsets_.push_back(-1);
    return label;
}

void
Assembler::bind(Label label)
{
    if (label.id >= label_offsets_.size())
        support::panic("bind of unknown label %u", label.id);
    if (label_offsets_[label.id] >= 0)
        support::panic("label %u bound twice", label.id);
    label_offsets_[label.id] = static_cast<std::int64_t>(words_.size());
}

std::uint64_t
Assembler::here() const
{
    return base_addr_ + words_.size() * 4;
}

void
Assembler::emit(std::uint32_t word)
{
    if (finished_)
        support::panic("emit after finish()");
    words_.push_back(word);
}

void
Assembler::emit(Opcode op, const Operands &operands)
{
    emit(encode(op, operands));
}

void
Assembler::emit(Opcode op, const Operands &operands, Label label)
{
    FixupKind kind = opInfo(op).format == Format::kJump
                         ? FixupKind::kJump26
                         : FixupKind::kBranch16;
    fixups_.push_back({words_.size(), label.id, kind});
    emit(op, operands);
}

std::vector<std::uint32_t>
Assembler::finish()
{
    finished_ = true;
    for (const Fixup &fixup : fixups_) {
        if (label_offsets_[fixup.label_id] < 0)
            support::panic("label %u never bound", fixup.label_id);
        std::int64_t target = label_offsets_[fixup.label_id];
        std::int64_t source = static_cast<std::int64_t>(fixup.word_index);
        std::uint32_t &word = words_[fixup.word_index];
        if (fixup.kind == FixupKind::kBranch16) {
            // Branch offsets are in words relative to the delay slot.
            std::int64_t delta = target - (source + 1);
            if (delta < -(1 << 15) || delta >= (1 << 15))
                support::panic("branch to label %u out of range (%lld)",
                               fixup.label_id,
                               static_cast<long long>(delta));
            word = (word & 0xffff0000u) |
                   (static_cast<std::uint32_t>(delta) & 0xffff);
        } else {
            std::uint64_t addr =
                base_addr_ + static_cast<std::uint64_t>(target) * 4;
            word = (word & 0xfc000000u) |
                   (static_cast<std::uint32_t>(addr >> 2) & 0x03ffffff);
        }
    }
    return words_;
}

void
Assembler::move(unsigned rd, unsigned rs)
{
    or_(rd, rs, reg::zero);
}

void
Assembler::li(unsigned rd, std::int32_t value)
{
    if (value >= -32768 && value <= 32767) {
        daddiu(rd, reg::zero, value);
    } else {
        lui(rd, static_cast<std::int16_t>(value >> 16));
        if (value & 0xffff)
            ori(rd, rd, static_cast<std::uint32_t>(value) & 0xffff);
    }
}

void
Assembler::li64(unsigned rd, std::uint64_t value)
{
    std::int64_t sval = static_cast<std::int64_t>(value);
    if (sval >= INT32_MIN && sval <= INT32_MAX) {
        li(rd, static_cast<std::int32_t>(sval));
        return;
    }
    // Build from the top: lui high, or in pieces with shifts.
    lui(rd, static_cast<std::int16_t>(value >> 48));
    ori(rd, rd, (value >> 32) & 0xffff);
    dsll(rd, rd, 16);
    ori(rd, rd, (value >> 16) & 0xffff);
    dsll(rd, rd, 16);
    ori(rd, rd, value & 0xffff);
}

void
Assembler::b(Label label)
{
    beq(reg::zero, reg::zero, label);
}

void Assembler::sll(unsigned rd, unsigned rt, unsigned sa)
{ emit(Opcode::kSll, {rd, rt, sa}); }
void Assembler::srl(unsigned rd, unsigned rt, unsigned sa)
{ emit(Opcode::kSrl, {rd, rt, sa}); }
void Assembler::sra(unsigned rd, unsigned rt, unsigned sa)
{ emit(Opcode::kSra, {rd, rt, sa}); }
void Assembler::dsll(unsigned rd, unsigned rt, unsigned sa)
{ emit(Opcode::kDsll, {rd, rt, sa}); }
void Assembler::dsrl(unsigned rd, unsigned rt, unsigned sa)
{ emit(Opcode::kDsrl, {rd, rt, sa}); }
void Assembler::dsra(unsigned rd, unsigned rt, unsigned sa)
{ emit(Opcode::kDsra, {rd, rt, sa}); }
void Assembler::dsll32(unsigned rd, unsigned rt, unsigned sa)
{ emit(Opcode::kDsll32, {rd, rt, sa}); }
void Assembler::dsrl32(unsigned rd, unsigned rt, unsigned sa)
{ emit(Opcode::kDsrl32, {rd, rt, sa}); }
void Assembler::dsra32(unsigned rd, unsigned rt, unsigned sa)
{ emit(Opcode::kDsra32, {rd, rt, sa}); }
void Assembler::sllv(unsigned rd, unsigned rt, unsigned rs)
{ emit(Opcode::kSllv, {rd, rt, rs}); }
void Assembler::srlv(unsigned rd, unsigned rt, unsigned rs)
{ emit(Opcode::kSrlv, {rd, rt, rs}); }
void Assembler::srav(unsigned rd, unsigned rt, unsigned rs)
{ emit(Opcode::kSrav, {rd, rt, rs}); }
void Assembler::dsllv(unsigned rd, unsigned rt, unsigned rs)
{ emit(Opcode::kDsllv, {rd, rt, rs}); }
void Assembler::dsrlv(unsigned rd, unsigned rt, unsigned rs)
{ emit(Opcode::kDsrlv, {rd, rt, rs}); }
void Assembler::dsrav(unsigned rd, unsigned rt, unsigned rs)
{ emit(Opcode::kDsrav, {rd, rt, rs}); }

void Assembler::addu(unsigned rd, unsigned rs, unsigned rt)
{ emit(Opcode::kAddu, {rd, rs, rt}); }
void Assembler::daddu(unsigned rd, unsigned rs, unsigned rt)
{ emit(Opcode::kDaddu, {rd, rs, rt}); }
void Assembler::subu(unsigned rd, unsigned rs, unsigned rt)
{ emit(Opcode::kSubu, {rd, rs, rt}); }
void Assembler::dsubu(unsigned rd, unsigned rs, unsigned rt)
{ emit(Opcode::kDsubu, {rd, rs, rt}); }
void Assembler::and_(unsigned rd, unsigned rs, unsigned rt)
{ emit(Opcode::kAnd, {rd, rs, rt}); }
void Assembler::or_(unsigned rd, unsigned rs, unsigned rt)
{ emit(Opcode::kOr, {rd, rs, rt}); }
void Assembler::xor_(unsigned rd, unsigned rs, unsigned rt)
{ emit(Opcode::kXor, {rd, rs, rt}); }
void Assembler::nor(unsigned rd, unsigned rs, unsigned rt)
{ emit(Opcode::kNor, {rd, rs, rt}); }
void Assembler::slt(unsigned rd, unsigned rs, unsigned rt)
{ emit(Opcode::kSlt, {rd, rs, rt}); }
void Assembler::sltu(unsigned rd, unsigned rs, unsigned rt)
{ emit(Opcode::kSltu, {rd, rs, rt}); }
void Assembler::movz(unsigned rd, unsigned rs, unsigned rt)
{ emit(Opcode::kMovz, {rd, rs, rt}); }
void Assembler::movn(unsigned rd, unsigned rs, unsigned rt)
{ emit(Opcode::kMovn, {rd, rs, rt}); }
void Assembler::dmult(unsigned rs, unsigned rt)
{ emit(Opcode::kDmult, {rs, rt}); }
void Assembler::dmultu(unsigned rs, unsigned rt)
{ emit(Opcode::kDmultu, {rs, rt}); }
void Assembler::ddiv(unsigned rs, unsigned rt)
{ emit(Opcode::kDdiv, {rs, rt}); }
void Assembler::ddivu(unsigned rs, unsigned rt)
{ emit(Opcode::kDdivu, {rs, rt}); }
void Assembler::mfhi(unsigned rd) { emit(Opcode::kMfhi, {rd}); }
void Assembler::mflo(unsigned rd) { emit(Opcode::kMflo, {rd}); }

void Assembler::addiu(unsigned rt, unsigned rs, std::int32_t imm)
{ emit(Opcode::kAddiu, {rt, rs, imm}); }
void Assembler::daddiu(unsigned rt, unsigned rs, std::int32_t imm)
{ emit(Opcode::kDaddiu, {rt, rs, imm}); }
void Assembler::slti(unsigned rt, unsigned rs, std::int32_t imm)
{ emit(Opcode::kSlti, {rt, rs, imm}); }
void Assembler::sltiu(unsigned rt, unsigned rs, std::int32_t imm)
{ emit(Opcode::kSltiu, {rt, rs, imm}); }
void Assembler::andi(unsigned rt, unsigned rs, std::uint32_t imm)
{ emit(Opcode::kAndi, {rt, rs, imm}); }
void Assembler::ori(unsigned rt, unsigned rs, std::uint32_t imm)
{ emit(Opcode::kOri, {rt, rs, imm}); }
void Assembler::xori(unsigned rt, unsigned rs, std::uint32_t imm)
{ emit(Opcode::kXori, {rt, rs, imm}); }
void Assembler::lui(unsigned rt, std::int32_t imm)
{ emit(Opcode::kLui, {rt, imm}); }

void Assembler::j(Label label) { emit(Opcode::kJ, {}, label); }
void Assembler::jal(Label label) { emit(Opcode::kJal, {}, label); }
void Assembler::jr(unsigned rs) { emit(Opcode::kJr, {rs}); }
void Assembler::jalr(unsigned rd, unsigned rs)
{ emit(Opcode::kJalr, {rd, rs}); }
void Assembler::beq(unsigned rs, unsigned rt, Label label)
{ emit(Opcode::kBeq, {rs, rt}, label); }
void Assembler::bne(unsigned rs, unsigned rt, Label label)
{ emit(Opcode::kBne, {rs, rt}, label); }
void Assembler::blez(unsigned rs, Label label)
{ emit(Opcode::kBlez, {rs}, label); }
void Assembler::bgtz(unsigned rs, Label label)
{ emit(Opcode::kBgtz, {rs}, label); }
void Assembler::bltz(unsigned rs, Label label)
{ emit(Opcode::kBltz, {rs}, label); }
void Assembler::bgez(unsigned rs, Label label)
{ emit(Opcode::kBgez, {rs}, label); }
void Assembler::syscall() { emit(Opcode::kSyscall, {}); }
void Assembler::break_() { emit(Opcode::kBreak, {}); }

void Assembler::lb(unsigned rt, unsigned rs, std::int32_t imm)
{ emit(Opcode::kLb, {rt, imm, rs}); }
void Assembler::lbu(unsigned rt, unsigned rs, std::int32_t imm)
{ emit(Opcode::kLbu, {rt, imm, rs}); }
void Assembler::lh(unsigned rt, unsigned rs, std::int32_t imm)
{ emit(Opcode::kLh, {rt, imm, rs}); }
void Assembler::lhu(unsigned rt, unsigned rs, std::int32_t imm)
{ emit(Opcode::kLhu, {rt, imm, rs}); }
void Assembler::lw(unsigned rt, unsigned rs, std::int32_t imm)
{ emit(Opcode::kLw, {rt, imm, rs}); }
void Assembler::lwu(unsigned rt, unsigned rs, std::int32_t imm)
{ emit(Opcode::kLwu, {rt, imm, rs}); }
void Assembler::ld(unsigned rt, unsigned rs, std::int32_t imm)
{ emit(Opcode::kLd, {rt, imm, rs}); }
void Assembler::sb(unsigned rt, unsigned rs, std::int32_t imm)
{ emit(Opcode::kSb, {rt, imm, rs}); }
void Assembler::sh(unsigned rt, unsigned rs, std::int32_t imm)
{ emit(Opcode::kSh, {rt, imm, rs}); }
void Assembler::sw(unsigned rt, unsigned rs, std::int32_t imm)
{ emit(Opcode::kSw, {rt, imm, rs}); }
void Assembler::sd(unsigned rt, unsigned rs, std::int32_t imm)
{ emit(Opcode::kSd, {rt, imm, rs}); }
void Assembler::lld(unsigned rt, unsigned rs, std::int32_t imm)
{ emit(Opcode::kLld, {rt, imm, rs}); }
void Assembler::scd(unsigned rt, unsigned rs, std::int32_t imm)
{ emit(Opcode::kScd, {rt, imm, rs}); }

void Assembler::cgetbase(unsigned rd, unsigned cb)
{ emit(Opcode::kCGetBase, {rd, cb}); }
void Assembler::cgetlen(unsigned rd, unsigned cb)
{ emit(Opcode::kCGetLen, {rd, cb}); }
void Assembler::cgettag(unsigned rd, unsigned cb)
{ emit(Opcode::kCGetTag, {rd, cb}); }
void Assembler::cgetperm(unsigned rd, unsigned cb)
{ emit(Opcode::kCGetPerm, {rd, cb}); }
void Assembler::cgetpcc(unsigned cd, unsigned rd)
{ emit(Opcode::kCGetPcc, {cd, rd}); }

void Assembler::cincbase(unsigned cd, unsigned cb, unsigned rt)
{ emit(Opcode::kCIncBase, {cd, cb, rt}); }
void Assembler::csetlen(unsigned cd, unsigned cb, unsigned rt)
{ emit(Opcode::kCSetLen, {cd, cb, rt}); }
void Assembler::ccleartag(unsigned cd, unsigned cb)
{ emit(Opcode::kCClearTag, {cd, cb}); }
void Assembler::candperm(unsigned cd, unsigned cb, unsigned rt)
{ emit(Opcode::kCAndPerm, {cd, cb, rt}); }

void Assembler::ctoptr(unsigned rd, unsigned cb, unsigned ct)
{ emit(Opcode::kCToPtr, {rd, cb, ct}); }
void Assembler::cfromptr(unsigned cd, unsigned cb, unsigned rt)
{ emit(Opcode::kCFromPtr, {cd, cb, rt}); }

void Assembler::cbtu(unsigned cb, Label label)
{ emit(Opcode::kCBtu, {cb}, label); }
void Assembler::cbts(unsigned cb, Label label)
{ emit(Opcode::kCBts, {cb}, label); }

void Assembler::clc(unsigned cd, unsigned cb, unsigned rt, std::int32_t imm)
{ emit(Opcode::kCLc, {cd, rt, imm, cb}); }
void Assembler::csc(unsigned cd, unsigned cb, unsigned rt, std::int32_t imm)
{ emit(Opcode::kCSc, {cd, rt, imm, cb}); }
void Assembler::clb(unsigned rd, unsigned cb, unsigned rt, std::int32_t imm)
{ emit(Opcode::kClb, {rd, rt, imm, cb}); }
void Assembler::clbu(unsigned rd, unsigned cb, unsigned rt, std::int32_t imm)
{ emit(Opcode::kClbu, {rd, rt, imm, cb}); }
void Assembler::clh(unsigned rd, unsigned cb, unsigned rt, std::int32_t imm)
{ emit(Opcode::kClh, {rd, rt, imm, cb}); }
void Assembler::clhu(unsigned rd, unsigned cb, unsigned rt, std::int32_t imm)
{ emit(Opcode::kClhu, {rd, rt, imm, cb}); }
void Assembler::clw(unsigned rd, unsigned cb, unsigned rt, std::int32_t imm)
{ emit(Opcode::kClw, {rd, rt, imm, cb}); }
void Assembler::clwu(unsigned rd, unsigned cb, unsigned rt, std::int32_t imm)
{ emit(Opcode::kClwu, {rd, rt, imm, cb}); }
void Assembler::cld(unsigned rd, unsigned cb, unsigned rt, std::int32_t imm)
{ emit(Opcode::kCld, {rd, rt, imm, cb}); }
void Assembler::csb(unsigned rd, unsigned cb, unsigned rt, std::int32_t imm)
{ emit(Opcode::kCsb, {rd, rt, imm, cb}); }
void Assembler::csh(unsigned rd, unsigned cb, unsigned rt, std::int32_t imm)
{ emit(Opcode::kCsh, {rd, rt, imm, cb}); }
void Assembler::csw(unsigned rd, unsigned cb, unsigned rt, std::int32_t imm)
{ emit(Opcode::kCsw, {rd, rt, imm, cb}); }
void Assembler::csd(unsigned rd, unsigned cb, unsigned rt, std::int32_t imm)
{ emit(Opcode::kCsd, {rd, rt, imm, cb}); }

void Assembler::clld(unsigned rd, unsigned cb, unsigned rt)
{ emit(Opcode::kClld, {rd, rt, cb}); }
void Assembler::cscd(unsigned rd, unsigned cb, unsigned rt)
{ emit(Opcode::kCscd, {rd, rt, cb}); }

void Assembler::cjr(unsigned cb, unsigned rt)
{ emit(Opcode::kCJr, {rt, cb}); }
void Assembler::cjalr(unsigned cd, unsigned cb, unsigned rt)
{ emit(Opcode::kCJalr, {cd, rt, cb}); }

void Assembler::cseal(unsigned cd, unsigned cb, unsigned ct)
{ emit(Opcode::kCSeal, {cd, cb, ct}); }
void Assembler::cunseal(unsigned cd, unsigned cb, unsigned ct)
{ emit(Opcode::kCUnseal, {cd, cb, ct}); }
void Assembler::cgettype(unsigned rd, unsigned cb)
{ emit(Opcode::kCGetType, {rd, cb}); }
void Assembler::ccall(unsigned cs, unsigned cb)
{ emit(Opcode::kCCall, {cs, cb}); }
void Assembler::creturn() { emit(Opcode::kCReturn, {}); }

} // namespace cheri::isa
