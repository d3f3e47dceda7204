#include "check/ref_cpu.h"

#include "isa/decoder.h"
#include "support/bits.h"
#include "support/logging.h"

namespace cheri::check
{

using cap::CapCause;
using core::ExcCode;
using isa::Instruction;
using isa::Opcode;
using support::signExtend;

// ---------------------------------------------------------------------
// RefMemory
// ---------------------------------------------------------------------

namespace
{

/** Byte offset of paddr within its 4 KB page. */
std::uint64_t
pageOffset(std::uint64_t paddr)
{
    return paddr % mem::kCowPageBytes;
}

/** Index of paddr's line within its 4 KB page. */
std::uint64_t
lineInPage(std::uint64_t paddr)
{
    return pageOffset(paddr) / mem::kLineBytes;
}

} // namespace

RefMemory::RefMemory(std::uint64_t size_bytes)
    : size_(size_bytes),
      pages_((size_bytes + mem::kCowPageBytes - 1) / mem::kCowPageBytes)
{
}

void
RefMemory::checkAccess(const char *what, std::uint64_t paddr,
                       std::uint64_t len) const
{
    if (paddr >= size_ || len > size_ - paddr ||
        paddr % mem::kLineBytes + len > mem::kLineBytes) {
        support::panic("RefMemory %s [0x%llx, +%llu) out of range", what,
                       static_cast<unsigned long long>(paddr),
                       static_cast<unsigned long long>(len));
    }
}

RefMemory::Page &
RefMemory::pageForWrite(std::uint64_t paddr)
{
    std::unique_ptr<Page> &page = pages_[paddr / mem::kCowPageBytes];
    if (!page)
        page = std::make_unique<Page>();
    return *page;
}

std::uint64_t
RefMemory::read(std::uint64_t paddr, unsigned size) const
{
    checkAccess("read", paddr, size);
    const Page *page = pageAt(paddr);
    if (!page)
        return 0;
    std::uint64_t value = 0;
    for (unsigned i = 0; i < size; ++i) {
        value |= static_cast<std::uint64_t>(
                     page->data[pageOffset(paddr) + i])
                 << (8 * i);
    }
    return value;
}

void
RefMemory::write(std::uint64_t paddr, unsigned size, std::uint64_t value)
{
    checkAccess("write", paddr, size);
    Page &page = pageForWrite(paddr);
    for (unsigned i = 0; i < size; ++i) {
        page.data[pageOffset(paddr) + i] =
            static_cast<std::uint8_t>(value >> (8 * i));
    }
    page.tags[lineInPage(paddr)] = false; // data store clears the tag
}

mem::TaggedLine
RefMemory::readCapLine(std::uint64_t paddr) const
{
    checkAccess("line read", paddr, 1);
    mem::TaggedLine line{};
    if (const Page *page = pageAt(paddr)) {
        std::uint64_t line_offset =
            pageOffset(paddr) & ~(mem::kLineBytes - 1);
        for (unsigned i = 0; i < mem::kLineBytes; ++i)
            line.data[i] = page->data[line_offset + i];
        line.tag = page->tags[lineInPage(paddr)];
    }
    return line;
}

void
RefMemory::writeCapLine(std::uint64_t paddr, const mem::TaggedLine &line)
{
    checkAccess("line write", paddr, 1);
    Page &page = pageForWrite(paddr);
    std::uint64_t line_offset = pageOffset(paddr) & ~(mem::kLineBytes - 1);
    for (unsigned i = 0; i < mem::kLineBytes; ++i)
        page.data[line_offset + i] = line.data[i];
    page.tags[lineInPage(paddr)] = line.tag;
}

void
RefMemory::writeBlock(std::uint64_t paddr, const std::uint8_t *src,
                      std::uint64_t len)
{
    if (paddr > size_ || len > size_ - paddr)
        support::panic("RefMemory block [0x%llx, +%llu) out of range",
                       static_cast<unsigned long long>(paddr),
                       static_cast<unsigned long long>(len));
    for (std::uint64_t i = 0; i < len; ++i)
        pageForWrite(paddr + i).data[pageOffset(paddr + i)] = src[i];
}

// ---------------------------------------------------------------------
// RefCpu
// ---------------------------------------------------------------------

namespace
{

/** Sign-extend a 32-bit result as MIPS64 word operations require. */
std::uint64_t
sext32(std::uint64_t value)
{
    return static_cast<std::uint64_t>(
        static_cast<std::int64_t>(static_cast<std::int32_t>(value)));
}

} // namespace

RefCpu::RefCpu(RefMemory &memory, const tlb::PageTable &table)
    : memory_(memory), table_(&table)
{
}

void
RefCpu::setGpr(unsigned index, std::uint64_t value)
{
    if (index >= 32)
        support::panic("RefCpu GPR index %u out of range", index);
    if (index != 0)
        gpr_[index] = value;
}

void
RefCpu::setPc(std::uint64_t pc)
{
    pc_ = pc;
    next_pc_ = pc + 4;
    branch_pending_ = false;
    pcc_swap_countdown_ = 0;
}

RefCpu::Translation
RefCpu::translate(std::uint64_t vaddr, tlb::Access access) const
{
    Translation result;
    std::optional<tlb::Pte> pte = table_->lookup(vaddr / tlb::kPageBytes);
    if (!pte) {
        result.fault = tlb::TlbFault::kNoMapping;
        return result;
    }
    result.paddr =
        pte->pfn * tlb::kPageBytes + vaddr % tlb::kPageBytes;
    const tlb::PteFlags &f = pte->flags;
    switch (access) {
      case tlb::Access::kFetch:
        if (!f.executable)
            result.fault = tlb::TlbFault::kNotExecutable;
        break;
      case tlb::Access::kLoad:
        if (!f.readable)
            result.fault = tlb::TlbFault::kNotReadable;
        break;
      case tlb::Access::kStore:
        if (!f.writable)
            result.fault = tlb::TlbFault::kNotWritable;
        break;
      case tlb::Access::kCapLoad:
        if (!f.readable)
            result.fault = tlb::TlbFault::kNotReadable;
        else if (!f.cap_load)
            result.fault = tlb::TlbFault::kCapLoadDenied;
        break;
      case tlb::Access::kCapStore:
        if (!f.writable)
            result.fault = tlb::TlbFault::kNotWritable;
        else if (!f.cap_store)
            result.fault = tlb::TlbFault::kCapStoreDenied;
        break;
    }
    return result;
}

void
RefCpu::raise(ExcCode code, std::uint64_t bad_vaddr)
{
    pending_trap_ = core::Trap{};
    pending_trap_.code = code;
    pending_trap_.epc = current_pc_;
    pending_trap_.bad_vaddr = bad_vaddr;
    pending_trap_.in_delay_slot = in_delay_slot_;
    trap_pending_ = true;
}

void
RefCpu::raiseCap(CapCause cause, std::uint8_t cap_reg,
                 std::uint64_t bad_vaddr)
{
    raise(ExcCode::kCp2, bad_vaddr);
    pending_trap_.cap_cause = cause;
    pending_trap_.cap_reg = cap_reg;
}

void
RefCpu::branchTo(std::uint64_t target)
{
    next_pc_ = target;
    branch_pending_ = true;
}

void
RefCpu::noteWrite(std::uint64_t paddr)
{
    lines_written_.push_back(paddr & ~(mem::kLineBytes - 1));
}

bool
RefCpu::checkedDataAccess(unsigned cap_index, std::uint64_t offset,
                          unsigned size, bool is_store, bool is_cap,
                          std::uint64_t &paddr_out)
{
    const cap::Capability &capr = caps_.read(cap_index);
    std::uint32_t perm;
    if (is_cap)
        perm = is_store ? cap::kPermStoreCap : cap::kPermLoadCap;
    else
        perm = is_store ? cap::kPermStore : cap::kPermLoad;

    std::uint64_t vaddr = cap::effectiveAddress(capr, offset);
    CapCause cause =
        cap::checkDataAccess(capr, offset, size, perm, is_cap);
    if (cause != CapCause::kNone) {
        raiseCap(cause, static_cast<std::uint8_t>(cap_index), vaddr);
        return false;
    }

    if (!is_cap && vaddr % size != 0) {
        raise(is_store ? ExcCode::kAddressErrorStore
                       : ExcCode::kAddressErrorLoad,
              vaddr);
        return false;
    }

    tlb::Access access;
    if (is_cap)
        access = is_store ? tlb::Access::kCapStore : tlb::Access::kCapLoad;
    else
        access = is_store ? tlb::Access::kStore : tlb::Access::kLoad;

    Translation result = translate(vaddr, access);
    if (!result.ok()) {
        switch (result.fault) {
          case tlb::TlbFault::kNoMapping:
          case tlb::TlbFault::kNotReadable:
            raise(is_store ? ExcCode::kTlbStore : ExcCode::kTlbLoad,
                  vaddr);
            break;
          case tlb::TlbFault::kNotWritable:
            raise(ExcCode::kTlbModified, vaddr);
            break;
          case tlb::TlbFault::kCapLoadDenied:
            raiseCap(CapCause::kTlbNoLoadCap,
                     static_cast<std::uint8_t>(cap_index), vaddr);
            break;
          case tlb::TlbFault::kCapStoreDenied:
            raiseCap(CapCause::kTlbNoStoreCap,
                     static_cast<std::uint8_t>(cap_index), vaddr);
            break;
          default:
            raise(ExcCode::kTlbLoad, vaddr);
            break;
        }
        return false;
    }
    paddr_out = result.paddr;
    return true;
}

RefStep
RefCpu::step()
{
    RefStep outcome;
    trap_pending_ = false;
    lines_written_.clear();
    current_pc_ = pc_;
    in_delay_slot_ = branch_pending_;

    // A control transfer takes effect after its delay slot; the PCC
    // swap of CJR/CJALR activates at the same moment.
    if (pcc_swap_countdown_ > 0 && --pcc_swap_countdown_ == 0)
        caps_.setPcc(pending_pcc_);

    // --- fetch: PCC check, PC alignment, translation, decode ---
    CapCause fetch_cause = cap::checkFetch(caps_.pcc(), pc_);
    if (fetch_cause != CapCause::kNone) {
        raiseCap(fetch_cause, core::kCapRegPcc, pc_);
        outcome.trapped = true;
        outcome.trap = pending_trap_;
        return outcome;
    }
    if (pc_ % 4 != 0) {
        raise(ExcCode::kAddressErrorLoad, pc_);
        outcome.trapped = true;
        outcome.trap = pending_trap_;
        return outcome;
    }
    Translation fetch_tr = translate(pc_, tlb::Access::kFetch);
    if (!fetch_tr.ok()) {
        raise(ExcCode::kTlbLoad, pc_);
        outcome.trapped = true;
        outcome.trap = pending_trap_;
        return outcome;
    }
    std::uint32_t word = static_cast<std::uint32_t>(
        memory_.read(fetch_tr.paddr, 4));
    Instruction inst = isa::decode(word);

    // --- advance control flow (branch targets land in next_pc_) ---
    pc_ = next_pc_;
    next_pc_ = pc_ + 4;
    branch_pending_ = false;

    // --- execute ---
    execute(inst);
    ++instructions_;
    outcome.retired = true;

    if (trap_pending_) {
        outcome.trapped = true;
        outcome.trap = pending_trap_;
        return outcome;
    }
    if (inst.op == Opcode::kBreak)
        outcome.hit_break = true;
    return outcome;
}

void
RefCpu::execute(const Instruction &inst)
{
    std::uint64_t rs = gpr_[inst.rs];
    std::uint64_t rt = gpr_[inst.rt];

    switch (inst.op) {
      // --- shifts ---
      case Opcode::kSll:
        setGpr(inst.rd, sext32(static_cast<std::uint32_t>(rt) << inst.sa));
        break;
      case Opcode::kSrl:
        setGpr(inst.rd, sext32(static_cast<std::uint32_t>(rt) >> inst.sa));
        break;
      case Opcode::kSra:
        setGpr(inst.rd,
               sext32(static_cast<std::uint32_t>(
                   static_cast<std::int32_t>(rt) >> inst.sa)));
        break;
      case Opcode::kSllv:
        setGpr(inst.rd,
               sext32(static_cast<std::uint32_t>(rt) << (rs & 31)));
        break;
      case Opcode::kSrlv:
        setGpr(inst.rd,
               sext32(static_cast<std::uint32_t>(rt) >> (rs & 31)));
        break;
      case Opcode::kSrav:
        setGpr(inst.rd,
               sext32(static_cast<std::uint32_t>(
                   static_cast<std::int32_t>(rt) >>
                   static_cast<int>(rs & 31))));
        break;
      case Opcode::kDsll:
        setGpr(inst.rd, rt << inst.sa);
        break;
      case Opcode::kDsrl:
        setGpr(inst.rd, rt >> inst.sa);
        break;
      case Opcode::kDsra:
        setGpr(inst.rd, static_cast<std::uint64_t>(
                            static_cast<std::int64_t>(rt) >> inst.sa));
        break;
      case Opcode::kDsll32:
        setGpr(inst.rd, rt << (inst.sa + 32));
        break;
      case Opcode::kDsrl32:
        setGpr(inst.rd, rt >> (inst.sa + 32));
        break;
      case Opcode::kDsra32:
        setGpr(inst.rd,
               static_cast<std::uint64_t>(static_cast<std::int64_t>(rt) >>
                                          (inst.sa + 32)));
        break;
      case Opcode::kDsllv:
        setGpr(inst.rd, rt << (rs & 63));
        break;
      case Opcode::kDsrlv:
        setGpr(inst.rd, rt >> (rs & 63));
        break;
      case Opcode::kDsrav:
        setGpr(inst.rd,
               static_cast<std::uint64_t>(static_cast<std::int64_t>(rt) >>
                                          static_cast<int>(rs & 63)));
        break;

      // --- ALU register ---
      case Opcode::kAddu:
        setGpr(inst.rd, sext32(rs + rt));
        break;
      case Opcode::kDaddu:
        setGpr(inst.rd, rs + rt);
        break;
      case Opcode::kSubu:
        setGpr(inst.rd, sext32(rs - rt));
        break;
      case Opcode::kDsubu:
        setGpr(inst.rd, rs - rt);
        break;
      case Opcode::kAnd:
        setGpr(inst.rd, rs & rt);
        break;
      case Opcode::kOr:
        setGpr(inst.rd, rs | rt);
        break;
      case Opcode::kXor:
        setGpr(inst.rd, rs ^ rt);
        break;
      case Opcode::kNor:
        setGpr(inst.rd, ~(rs | rt));
        break;
      case Opcode::kSlt:
        setGpr(inst.rd, static_cast<std::int64_t>(rs) <
                                static_cast<std::int64_t>(rt)
                            ? 1
                            : 0);
        break;
      case Opcode::kSltu:
        setGpr(inst.rd, rs < rt ? 1 : 0);
        break;
      case Opcode::kMovz:
        if (rt == 0)
            setGpr(inst.rd, rs);
        break;
      case Opcode::kMovn:
        if (rt != 0)
            setGpr(inst.rd, rs);
        break;
      case Opcode::kDmult: {
        __int128 product = static_cast<__int128>(
                               static_cast<std::int64_t>(rs)) *
                           static_cast<std::int64_t>(rt);
        lo_ = static_cast<std::uint64_t>(product);
        hi_ = static_cast<std::uint64_t>(product >> 64);
        break;
      }
      case Opcode::kDmultu: {
        unsigned __int128 product =
            static_cast<unsigned __int128>(rs) * rt;
        lo_ = static_cast<std::uint64_t>(product);
        hi_ = static_cast<std::uint64_t>(product >> 64);
        break;
      }
      case Opcode::kDdiv:
        if (rt != 0) {
            lo_ = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(rs) /
                static_cast<std::int64_t>(rt));
            hi_ = static_cast<std::uint64_t>(
                static_cast<std::int64_t>(rs) %
                static_cast<std::int64_t>(rt));
        }
        break;
      case Opcode::kDdivu:
        if (rt != 0) {
            lo_ = rs / rt;
            hi_ = rs % rt;
        }
        break;
      case Opcode::kMfhi:
        setGpr(inst.rd, hi_);
        break;
      case Opcode::kMflo:
        setGpr(inst.rd, lo_);
        break;

      // --- ALU immediate ---
      case Opcode::kAddiu:
        setGpr(inst.rt, sext32(rs + static_cast<std::uint64_t>(
                                        static_cast<std::int64_t>(
                                            inst.imm))));
        break;
      case Opcode::kDaddiu:
        setGpr(inst.rt,
               rs + static_cast<std::uint64_t>(
                        static_cast<std::int64_t>(inst.imm)));
        break;
      case Opcode::kSlti:
        setGpr(inst.rt, static_cast<std::int64_t>(rs) < inst.imm ? 1 : 0);
        break;
      case Opcode::kSltiu:
        setGpr(inst.rt,
               rs < static_cast<std::uint64_t>(
                        static_cast<std::int64_t>(inst.imm))
                   ? 1
                   : 0);
        break;
      case Opcode::kAndi:
        setGpr(inst.rt, rs & (static_cast<std::uint32_t>(inst.imm) &
                              0xffff));
        break;
      case Opcode::kOri:
        setGpr(inst.rt, rs | (static_cast<std::uint32_t>(inst.imm) &
                              0xffff));
        break;
      case Opcode::kXori:
        setGpr(inst.rt, rs ^ (static_cast<std::uint32_t>(inst.imm) &
                              0xffff));
        break;
      case Opcode::kLui:
        setGpr(inst.rt, signExtend(
                            static_cast<std::uint64_t>(inst.imm & 0xffff)
                                << 16,
                            32));
        break;

      // --- control flow ---
      case Opcode::kJ:
        branchTo(((current_pc_ + 4) & ~0x0fffffffULL) |
                 (static_cast<std::uint64_t>(inst.target) << 2));
        break;
      case Opcode::kJal:
        setGpr(31, current_pc_ + 8);
        branchTo(((current_pc_ + 4) & ~0x0fffffffULL) |
                 (static_cast<std::uint64_t>(inst.target) << 2));
        break;
      case Opcode::kJr:
        branchTo(rs);
        break;
      case Opcode::kJalr:
        setGpr(inst.rd, current_pc_ + 8);
        branchTo(rs);
        break;
      case Opcode::kBeq:
        if (rs == rt)
            branchTo(current_pc_ + 4 +
                     (static_cast<std::int64_t>(inst.imm) << 2));
        break;
      case Opcode::kBne:
        if (rs != rt)
            branchTo(current_pc_ + 4 +
                     (static_cast<std::int64_t>(inst.imm) << 2));
        break;
      case Opcode::kBlez:
        if (static_cast<std::int64_t>(rs) <= 0)
            branchTo(current_pc_ + 4 +
                     (static_cast<std::int64_t>(inst.imm) << 2));
        break;
      case Opcode::kBgtz:
        if (static_cast<std::int64_t>(rs) > 0)
            branchTo(current_pc_ + 4 +
                     (static_cast<std::int64_t>(inst.imm) << 2));
        break;
      case Opcode::kBltz:
        if (static_cast<std::int64_t>(rs) < 0)
            branchTo(current_pc_ + 4 +
                     (static_cast<std::int64_t>(inst.imm) << 2));
        break;
      case Opcode::kBgez:
        if (static_cast<std::int64_t>(rs) >= 0)
            branchTo(current_pc_ + 4 +
                     (static_cast<std::int64_t>(inst.imm) << 2));
        break;
      case Opcode::kSyscall:
        // The reference machine has no OS upcall: SYSCALL always traps,
        // so lockstep programs must not rely on a syscall handler.
        raise(ExcCode::kSyscall);
        break;
      case Opcode::kBreak:
        break;

      // --- memory ---
      case Opcode::kLb:
      case Opcode::kLbu:
      case Opcode::kLh:
      case Opcode::kLhu:
      case Opcode::kLw:
      case Opcode::kLwu:
      case Opcode::kLd:
      case Opcode::kSb:
      case Opcode::kSh:
      case Opcode::kSw:
      case Opcode::kSd:
      case Opcode::kLld:
      case Opcode::kScd:
        executeMemory(inst);
        break;

      case Opcode::kInvalid:
        raise(ExcCode::kReservedInstruction);
        break;

      default:
        if (!cp2_enabled_) {
            raise(ExcCode::kCoprocessorUnusable);
            break;
        }
        executeCp2(inst);
        break;
    }
}

void
RefCpu::executeMemory(const Instruction &inst)
{
    unsigned size = 1u << isa::accessSizeLog2(inst.op);
    std::uint64_t offset =
        gpr_[inst.rs] +
        static_cast<std::uint64_t>(static_cast<std::int64_t>(inst.imm));
    bool is_store = inst.op == Opcode::kSb || inst.op == Opcode::kSh ||
                    inst.op == Opcode::kSw || inst.op == Opcode::kSd ||
                    inst.op == Opcode::kScd;

    if (inst.op == Opcode::kScd) {
        std::uint64_t paddr = 0;
        if (!checkedDataAccess(0, offset, size, true, false, paddr))
            return;
        if (ll_valid_ && ll_addr_ == paddr) {
            memory_.write(paddr, size, gpr_[inst.rt]);
            noteWrite(paddr);
            setGpr(inst.rt, 1);
        } else {
            setGpr(inst.rt, 0);
        }
        ll_valid_ = false;
        return;
    }

    std::uint64_t paddr = 0;
    if (!checkedDataAccess(0, offset, size, is_store, false, paddr))
        return;

    if (is_store) {
        memory_.write(paddr, size, gpr_[inst.rt]);
        noteWrite(paddr);
        if (ll_valid_ && ll_addr_ == paddr)
            ll_valid_ = false;
        return;
    }

    std::uint64_t value = memory_.read(paddr, size);
    if (!isa::loadIsUnsigned(inst.op) && size < 8)
        value = static_cast<std::uint64_t>(signExtend(value, size * 8));
    setGpr(inst.rt, value);

    if (inst.op == Opcode::kLld) {
        ll_valid_ = true;
        ll_addr_ = paddr;
    }
}

void
RefCpu::executeCapMemory(const Instruction &inst)
{
    std::uint64_t offset =
        gpr_[inst.rt] +
        static_cast<std::uint64_t>(static_cast<std::int64_t>(inst.imm));

    if (inst.op == Opcode::kCLc || inst.op == Opcode::kCSc) {
        bool is_store = inst.op == Opcode::kCSc;
        std::uint64_t paddr = 0;
        if (!checkedDataAccess(inst.cb, offset, mem::kLineBytes,
                               is_store, true, paddr))
            return;
        if (is_store) {
            const cap::Capability &src = caps_.read(inst.cd);
            memory_.writeCapLine(paddr,
                                 mem::TaggedLine{src.raw(), src.tag()});
            noteWrite(paddr);
            // A CSC breaks a reservation anywhere in the line it writes.
            if (ll_valid_ && (ll_addr_ & ~(mem::kLineBytes - 1ULL)) == paddr)
                ll_valid_ = false;
        } else {
            mem::TaggedLine line = memory_.readCapLine(paddr);
            caps_.write(inst.cd,
                        cap::Capability::fromRaw(line.data, line.tag));
        }
        return;
    }

    unsigned size = 1u << isa::accessSizeLog2(inst.op);
    bool is_store = inst.op == Opcode::kCsb || inst.op == Opcode::kCsh ||
                    inst.op == Opcode::kCsw || inst.op == Opcode::kCsd ||
                    inst.op == Opcode::kCscd;

    if (inst.op == Opcode::kCscd) {
        std::uint64_t paddr = 0;
        if (!checkedDataAccess(inst.cb, offset, size, true, false, paddr))
            return;
        if (ll_valid_ && ll_addr_ == paddr) {
            memory_.write(paddr, size, gpr_[inst.rd]);
            noteWrite(paddr);
            setGpr(inst.rd, 1);
        } else {
            setGpr(inst.rd, 0);
        }
        ll_valid_ = false;
        return;
    }

    std::uint64_t paddr = 0;
    if (!checkedDataAccess(inst.cb, offset, size, is_store, false, paddr))
        return;

    if (is_store) {
        memory_.write(paddr, size, gpr_[inst.rd]);
        noteWrite(paddr);
        if (ll_valid_ && ll_addr_ == paddr)
            ll_valid_ = false;
        return;
    }

    std::uint64_t value = memory_.read(paddr, size);
    if (!isa::loadIsUnsigned(inst.op) && size < 8)
        value = static_cast<std::uint64_t>(signExtend(value, size * 8));
    setGpr(inst.rd, value);

    if (inst.op == Opcode::kClld) {
        ll_valid_ = true;
        ll_addr_ = paddr;
    }
}

void
RefCpu::executeCp2(const Instruction &inst)
{
    if (inst.isCapMemory()) {
        executeCapMemory(inst);
        return;
    }

    switch (inst.op) {
      case Opcode::kCGetBase:
        setGpr(inst.rd, caps_.read(inst.cb).base());
        break;
      case Opcode::kCGetLen:
        setGpr(inst.rd, caps_.read(inst.cb).length());
        break;
      case Opcode::kCGetTag:
        setGpr(inst.rd, caps_.read(inst.cb).tag() ? 1 : 0);
        break;
      case Opcode::kCGetPerm:
        setGpr(inst.rd, caps_.read(inst.cb).perms());
        break;
      case Opcode::kCGetPcc:
        caps_.write(inst.cd, caps_.pcc());
        setGpr(inst.rd, current_pc_);
        break;
      case Opcode::kCIncBase: {
        cap::CapOpResult result =
            cap::incBase(caps_.read(inst.cb), gpr_[inst.rt]);
        if (!result.ok()) {
            raiseCap(result.cause, inst.cb);
            break;
        }
        caps_.write(inst.cd, result.value);
        break;
      }
      case Opcode::kCSetLen: {
        cap::CapOpResult result =
            cap::setLen(caps_.read(inst.cb), gpr_[inst.rt]);
        if (!result.ok()) {
            raiseCap(result.cause, inst.cb);
            break;
        }
        caps_.write(inst.cd, result.value);
        break;
      }
      case Opcode::kCClearTag: {
        cap::Capability value = caps_.read(inst.cb);
        value.clearTag();
        caps_.write(inst.cd, value);
        break;
      }
      case Opcode::kCAndPerm: {
        cap::CapOpResult result = cap::andPerm(
            caps_.read(inst.cb),
            static_cast<std::uint32_t>(gpr_[inst.rt]));
        if (!result.ok()) {
            raiseCap(result.cause, inst.cb);
            break;
        }
        caps_.write(inst.cd, result.value);
        break;
      }
      case Opcode::kCToPtr:
        setGpr(inst.rd,
               cap::toPtr(caps_.read(inst.cb), caps_.read(inst.ct)));
        break;
      case Opcode::kCFromPtr: {
        cap::CapOpResult result =
            cap::fromPtr(caps_.read(inst.cb), gpr_[inst.rt]);
        if (!result.ok()) {
            raiseCap(result.cause, inst.cb);
            break;
        }
        caps_.write(inst.cd, result.value);
        break;
      }
      case Opcode::kCBtu:
        if (!caps_.read(inst.cb).tag())
            branchTo(current_pc_ + 4 +
                     (static_cast<std::int64_t>(inst.imm) << 2));
        break;
      case Opcode::kCBts:
        if (caps_.read(inst.cb).tag())
            branchTo(current_pc_ + 4 +
                     (static_cast<std::int64_t>(inst.imm) << 2));
        break;
      case Opcode::kCSeal: {
        cap::CapOpResult result =
            cap::seal(caps_.read(inst.cb), caps_.read(inst.ct));
        if (!result.ok()) {
            raiseCap(result.cause, inst.cb);
            break;
        }
        caps_.write(inst.cd, result.value);
        break;
      }
      case Opcode::kCUnseal: {
        cap::CapOpResult result =
            cap::unseal(caps_.read(inst.cb), caps_.read(inst.ct));
        if (!result.ok()) {
            raiseCap(result.cause, inst.cb);
            break;
        }
        caps_.write(inst.cd, result.value);
        break;
      }
      case Opcode::kCGetType: {
        const cap::Capability &sealed_cap = caps_.read(inst.cb);
        setGpr(inst.rd, sealed_cap.sealed() ? sealed_cap.otype()
                                            : ~0ULL);
        break;
      }
      case Opcode::kCCall:
        raise(ExcCode::kCCall);
        pending_trap_.cap_reg = inst.cb;
        pending_trap_.cap_reg2 = inst.ct;
        break;
      case Opcode::kCReturn:
        raise(ExcCode::kCReturn);
        break;
      case Opcode::kCJr:
      case Opcode::kCJalr: {
        const cap::Capability &target_cap = caps_.read(inst.cb);
        if (!target_cap.tag()) {
            raiseCap(CapCause::kTagViolation, inst.cb);
            break;
        }
        if (target_cap.sealed()) {
            raiseCap(CapCause::kSealViolation, inst.cb);
            break;
        }
        if (!target_cap.hasPerms(cap::kPermExecute)) {
            raiseCap(CapCause::kPermitExecuteViolation, inst.cb);
            break;
        }
        std::uint64_t target = target_cap.base() + gpr_[inst.rt];
        if (inst.op == Opcode::kCJalr) {
            caps_.write(inst.cd, caps_.pcc());
            setGpr(31, current_pc_ + 8 - caps_.pcc().base());
        }
        pending_pcc_ = target_cap;
        pcc_swap_countdown_ = 2;
        branchTo(target);
        break;
      }
      default:
        raise(ExcCode::kReservedInstruction);
        break;
    }
}

} // namespace cheri::check
