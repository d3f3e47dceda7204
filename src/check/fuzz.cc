#include "check/fuzz.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "cap/perms.h"
#include "core/machine.h"
#include "isa/assembler.h"
#include "isa/decoder.h"
#include "isa/disasm.h"
#include "support/logging.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "tlb/page_table.h"

namespace cheri::check
{

namespace
{

using isa::Assembler;
using Kind = FuzzOp::Kind;

/** Integer registers the fuzzer reads and writes freely. t8 is the
 *  address-staging register and is excluded; ra is clobbered only by
 *  the (trapping) jump ops. */
constexpr unsigned kDataRegs[] = {2,  3,  4,  5,  6,  7,  8, 9,
                                  10, 11, 12, 13, 14, 15, 25};
constexpr unsigned kNumDataRegs =
    sizeof(kDataRegs) / sizeof(kDataRegs[0]);
constexpr unsigned kAddrReg = 24; // t8

unsigned
dataReg(std::uint64_t index)
{
    return kDataRegs[index % kNumDataRegs];
}

/** Capability registers the preamble establishes (see fuzz.h). */
constexpr unsigned kCapArena = 1;     ///< rw over the whole arena
constexpr unsigned kCapSub = 2;       ///< 0x100-byte sub-range
constexpr unsigned kCapSealed = 3;    ///< sealed copy of c2
constexpr unsigned kCapSealAuth = 4;  ///< seal authority, otype 0x42
constexpr unsigned kCapUntagged = 5;  ///< untagged copy of c1
constexpr unsigned kCapLoadOnly = 6;  ///< c1 minus store perms
constexpr unsigned kCapRestricted = 13; ///< covers no-cap + ro pages
constexpr unsigned kCapStride = 14;   ///< covers the stride region
constexpr unsigned kCapScratchFirst = 7; ///< c7..c12 derive targets
constexpr unsigned kCapScratchCount = 6;

constexpr std::uint64_t kSubLen = 0x100;
constexpr std::uint64_t kRestrictedLen = 0x2000;

std::uint64_t
capLength(unsigned cap)
{
    switch (cap) {
      case kCapSub:
        return kSubLen;
      case kCapRestricted:
        return kRestrictedLen;
      case kCapStride:
        return kFuzzStrideLen;
      default:
        return kFuzzArenaLen;
    }
}

/** Boundary-biased in/out-of-bounds offset for a 'size'-byte access
 *  through a capability of length 'len'. */
std::uint64_t
biasedOffset(support::Xoshiro256 &rng, std::uint64_t len, unsigned size)
{
    std::uint64_t aligned_max = (len - size) & ~(std::uint64_t(size) - 1);
    switch (rng.nextBelow(10)) {
      case 0:
        return 0; // first byte
      case 1:
        return aligned_max; // last in-bounds slot
      case 2:
        return len; // one past the end: kLengthViolation
      case 3:
        return len * 2 + rng.nextBelow(64); // far out of bounds
      default:
        return rng.nextBelow(aligned_max / size + 1) * size;
    }
}

} // namespace

FuzzSpec
generateSpec(std::uint64_t seed)
{
    support::Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ULL + 0xc4ec4);
    FuzzSpec spec;
    spec.seed = seed;
    for (auto &value : spec.reg_seed)
        value = rng.next();

    unsigned count = 24 + static_cast<unsigned>(rng.nextBelow(25));
    spec.ops.reserve(count);
    for (unsigned i = 0; i < count; ++i) {
        FuzzOp op;
        // Weighted kind draw; memory and capability ops dominate.
        static const std::pair<Kind, unsigned> kWeights[] = {
            {Kind::kAluImm, 8},       {Kind::kAluReg, 8},
            {Kind::kShift, 5},        {Kind::kMulDiv, 3},
            {Kind::kLegacyLoad, 7},   {Kind::kLegacyStore, 7},
            {Kind::kCapLoad, 10},     {Kind::kCapStore, 10},
            {Kind::kCapLoadCap, 6},   {Kind::kCapStoreCap, 8},
            {Kind::kTagClearStore, 8},{Kind::kDerive, 8},
            {Kind::kPermQuery, 4},    {Kind::kSealUnseal, 4},
            {Kind::kBranch, 5},       {Kind::kCapBranch, 4},
            {Kind::kCapJumpTrap, 2},  {Kind::kLlSc, 5},
            {Kind::kTlbStride, 4},    {Kind::kPtrRoundTrip, 6},
        };
        unsigned total = 0;
        for (const auto &entry : kWeights)
            total += entry.second;
        std::uint64_t pick = rng.nextBelow(total);
        for (const auto &entry : kWeights) {
            if (pick < entry.second) {
                op.kind = entry.first;
                break;
            }
            pick -= entry.second;
        }

        switch (op.kind) {
          case Kind::kAluImm:
            op.a = rng.next(); // dst
            op.b = rng.next(); // src
            op.c = rng.nextBelow(6);
            op.d = static_cast<std::uint64_t>(
                static_cast<std::int16_t>(rng.next()));
            break;
          case Kind::kAluReg:
            op.a = rng.next();
            op.b = rng.next();
            op.c = rng.next();
            op.d = rng.nextBelow(12);
            break;
          case Kind::kShift:
            op.a = rng.next();
            op.b = rng.next();
            op.c = rng.nextBelow(32);
            op.d = rng.nextBelow(8);
            break;
          case Kind::kMulDiv:
            op.a = rng.next();
            op.b = rng.next();
            op.c = rng.nextBelow(4);
            op.d = rng.next(); // mflo/mfhi destinations
            break;
          case Kind::kLegacyLoad: {
            op.a = rng.next(); // dst
            op.c = rng.nextBelow(7); // lb..ld
            unsigned size = 1u << (op.c >= 6 ? 3
                                   : op.c >= 4 ? 2
                                   : op.c >= 2 ? 1
                                                : 0);
            std::uint64_t offset =
                rng.nextBelow(kFuzzArenaLen / size) * size;
            op.b = kFuzzArenaBase + offset;
            if (size > 1 && rng.nextBool(0.05))
                op.b += 1 + rng.nextBelow(size - 1); // AddressError
            break;
          }
          case Kind::kLegacyStore: {
            op.a = rng.next(); // src
            op.c = rng.nextBelow(4); // sb..sd
            unsigned size = 1u << op.c;
            std::uint64_t offset =
                rng.nextBelow(kFuzzArenaLen / size) * size;
            op.b = kFuzzArenaBase + offset;
            if (rng.nextBool(0.04))
                op.b = kFuzzRoPage + rng.nextBelow(4096 / size) * size;
            else if (size > 1 && rng.nextBool(0.05))
                op.b += 1 + rng.nextBelow(size - 1);
            break;
          }
          case Kind::kCapLoad: {
            op.a = rng.next();
            static const unsigned caps[] = {
                kCapArena, kCapArena, kCapSub,     kCapSub,
                kCapLoadOnly, kCapUntagged, kCapSealed, kCapStride};
            op.b = caps[rng.nextBelow(8)];
            op.c = rng.nextBelow(7);
            unsigned size = 1u << (op.c >= 6 ? 3
                                   : op.c >= 4 ? 2
                                   : op.c >= 2 ? 1
                                                : 0);
            op.d = biasedOffset(rng, capLength(op.b), size);
            break;
          }
          case Kind::kCapStore: {
            op.a = rng.next();
            static const unsigned caps[] = {
                kCapArena, kCapArena, kCapArena, kCapSub,
                kCapSub,   kCapLoadOnly, kCapUntagged, kCapStride};
            op.b = caps[rng.nextBelow(8)];
            op.c = rng.nextBelow(4);
            unsigned size = 1u << op.c;
            op.d = biasedOffset(rng, capLength(op.b), size);
            break;
          }
          case Kind::kCapLoadCap: {
            op.a = kCapScratchFirst + rng.nextBelow(kCapScratchCount);
            static const unsigned caps[] = {kCapArena, kCapArena,
                                            kCapArena, kCapSub,
                                            kCapRestricted};
            op.b = caps[rng.nextBelow(5)];
            op.d = biasedOffset(rng, capLength(op.b), 32);
            if (rng.nextBool(0.05))
                op.d += 8; // kAlignmentViolation
            break;
          }
          case Kind::kCapStoreCap: {
            static const unsigned srcs[] = {kCapSub, kCapSub,
                                            kCapUntagged, kCapSealed,
                                            kCapScratchFirst};
            op.a = srcs[rng.nextBelow(5)];
            static const unsigned caps[] = {kCapArena, kCapArena,
                                            kCapArena, kCapSub,
                                            kCapRestricted};
            op.b = caps[rng.nextBelow(5)];
            op.d = biasedOffset(rng, capLength(op.b), 32);
            break;
          }
          case Kind::kTagClearStore: {
            op.a = rng.next(); // value register
            op.c = rng.nextBelow(4); // sb..sd
            unsigned size = 1u << op.c;
            // Aim at the first few arena lines: line 0 holds the
            // capability the preamble stored; CSC ops salt others.
            std::uint64_t line = rng.nextBelow(8) * mem::kLineBytes;
            std::uint64_t within =
                rng.nextBelow(mem::kLineBytes / size) * size;
            op.b = kFuzzArenaBase + line + within;
            op.d = line; // CLC readback offset
            break;
          }
          case Kind::kDerive: {
            op.a = kCapScratchFirst + rng.nextBelow(kCapScratchCount);
            static const unsigned srcs[] = {kCapArena, kCapArena,
                                            kCapSub, kCapScratchFirst,
                                            kCapUntagged};
            op.b = srcs[rng.nextBelow(5)];
            op.c = rng.nextBelow(6);
            std::uint64_t len = capLength(static_cast<unsigned>(op.b));
            switch (op.c) {
              case 0: // cincbase: delta at/over the limit sometimes
                switch (rng.nextBelow(5)) {
                  case 0:
                    op.d = 0;
                    break;
                  case 1:
                    op.d = len; // shrinks to length 0 (legal)
                    break;
                  case 2:
                    op.d = len + 1 + rng.nextBelow(16); // fault
                    break;
                  default:
                    op.d = rng.nextBelow(len);
                    break;
                }
                break;
              case 1: // csetlen: growth faults
                switch (rng.nextBelow(5)) {
                  case 0:
                    op.d = 0;
                    break;
                  case 1:
                    op.d = len; // exactly current length (legal)
                    break;
                  case 2:
                    op.d = len + 1 + rng.nextBelow(16); // fault
                    break;
                  default:
                    op.d = rng.nextBelow(len);
                    break;
                }
                break;
              case 2: // candperm
                op.d = rng.next() & cap::kPermMask;
                break;
              case 3: // cfromptr
                op.d = rng.nextBool(0.2) ? 0 : rng.nextBelow(len);
                break;
              default: // ccleartag / ctoptr need no value
                op.d = rng.next();
                break;
            }
            break;
          }
          case Kind::kPermQuery:
            op.a = rng.next();
            op.b = rng.nextBelow(15); // any established cap
            op.c = rng.nextBelow(6);
            break;
          case Kind::kSealUnseal:
            op.c = rng.nextBelow(5);
            break;
          case Kind::kBranch:
            op.a = rng.nextBelow(6);
            op.b = rng.next();
            op.c = rng.next();
            op.d = 1 + rng.nextBelow(3);
            break;
          case Kind::kCapBranch: {
            op.a = rng.nextBelow(2);
            static const unsigned caps[] = {kCapUntagged, kCapSub,
                                            kCapSealed,
                                            kCapScratchFirst};
            op.b = caps[rng.nextBelow(4)];
            op.d = 1 + rng.nextBelow(3);
            break;
          }
          case Kind::kCapJumpTrap: {
            static const unsigned caps[] = {kCapUntagged, kCapSealed,
                                            kCapLoadOnly};
            op.b = caps[rng.nextBelow(3)];
            break;
          }
          case Kind::kLlSc:
            op.a = rng.next(); // store-value register
            op.b = kFuzzArenaBase +
                   rng.nextBelow(kFuzzArenaLen / 8) * 8;
            op.c = rng.nextBelow(4);
            break;
          case Kind::kTlbStride: {
            op.a = rng.next(); // destination register
            op.c = tlb::kPageBytes * (1 + rng.nextBelow(4));
            op.b = kFuzzStrideBase +
                   rng.nextBelow(kFuzzStrideLen / 8) * 8;
            op.d = 2 + rng.nextBelow(3); // accesses
            // Keep every access mapped unless the rare fault case.
            if (rng.nextBool(0.05))
                op.b = kFuzzUnmapped + rng.nextBelow(512) * 8;
            else if (op.b + (op.d - 1) * op.c >=
                     kFuzzStrideBase + kFuzzStrideLen)
                op.b = kFuzzStrideBase;
            break;
          }
          case Kind::kPtrRoundTrip: {
            op.a = kCapScratchFirst + rng.nextBelow(kCapScratchCount);
            static const unsigned srcs[] = {kCapArena, kCapSub,
                                            kCapSub, kCapUntagged,
                                            kCapScratchFirst};
            op.b = srcs[rng.nextBelow(5)];
            // 0/1: remint + tag/base query; 2: poison with ccleartag
            // first; 3: dereference the reminted capability (traps
            // on the NULL round-trip of an untagged source).
            op.c = rng.nextBelow(4);
            op.d = rng.next(); // data-register selector
            break;
          }
        }
        spec.ops.push_back(op);
    }
    return spec;
}

namespace
{

/** Pending forward-branch label: bind after 'remaining' more ops. */
struct PendingLabel
{
    Assembler::Label label;
    unsigned remaining;
};

void
emitOp(Assembler &a, const FuzzOp &op,
       std::vector<PendingLabel> &pending)
{
    switch (op.kind) {
      case Kind::kAluImm: {
        unsigned dst = dataReg(op.a), src = dataReg(op.b);
        auto imm = static_cast<std::int32_t>(
            static_cast<std::int16_t>(op.d));
        switch (op.c) {
          case 0: a.daddiu(dst, src, imm); break;
          case 1: a.addiu(dst, src, imm); break;
          case 2: a.ori(dst, src, static_cast<std::uint16_t>(op.d)); break;
          case 3: a.xori(dst, src, static_cast<std::uint16_t>(op.d)); break;
          case 4: a.andi(dst, src, static_cast<std::uint16_t>(op.d)); break;
          default: a.slti(dst, src, imm); break;
        }
        break;
      }
      case Kind::kAluReg: {
        unsigned dst = dataReg(op.a), s1 = dataReg(op.b),
                 s2 = dataReg(op.c);
        switch (op.d) {
          case 0: a.daddu(dst, s1, s2); break;
          case 1: a.dsubu(dst, s1, s2); break;
          case 2: a.addu(dst, s1, s2); break;
          case 3: a.subu(dst, s1, s2); break;
          case 4: a.and_(dst, s1, s2); break;
          case 5: a.or_(dst, s1, s2); break;
          case 6: a.xor_(dst, s1, s2); break;
          case 7: a.nor(dst, s1, s2); break;
          case 8: a.slt(dst, s1, s2); break;
          case 9: a.sltu(dst, s1, s2); break;
          case 10: a.movz(dst, s1, s2); break;
          default: a.movn(dst, s1, s2); break;
        }
        break;
      }
      case Kind::kShift: {
        unsigned dst = dataReg(op.a), src = dataReg(op.b);
        unsigned sa = static_cast<unsigned>(op.c);
        switch (op.d) {
          case 0: a.sll(dst, src, sa); break;
          case 1: a.srl(dst, src, sa); break;
          case 2: a.sra(dst, src, sa); break;
          case 3: a.dsll(dst, src, sa); break;
          case 4: a.dsrl(dst, src, sa); break;
          case 5: a.dsra(dst, src, sa); break;
          case 6: a.dsll32(dst, src, sa); break;
          default: a.dsrl32(dst, src, sa); break;
        }
        break;
      }
      case Kind::kMulDiv: {
        unsigned s1 = dataReg(op.a), s2 = dataReg(op.b);
        switch (op.c) {
          case 0: a.dmult(s1, s2); break;
          case 1: a.dmultu(s1, s2); break;
          case 2: a.ddiv(s1, s2); break;
          default: a.ddivu(s1, s2); break;
        }
        a.mflo(dataReg(op.d));
        a.mfhi(dataReg(op.d + 1));
        break;
      }
      case Kind::kLegacyLoad: {
        unsigned dst = dataReg(op.a);
        a.li64(kAddrReg, op.b);
        switch (op.c) {
          case 0: a.lb(dst, kAddrReg, 0); break;
          case 1: a.lbu(dst, kAddrReg, 0); break;
          case 2: a.lh(dst, kAddrReg, 0); break;
          case 3: a.lhu(dst, kAddrReg, 0); break;
          case 4: a.lw(dst, kAddrReg, 0); break;
          case 5: a.lwu(dst, kAddrReg, 0); break;
          default: a.ld(dst, kAddrReg, 0); break;
        }
        break;
      }
      case Kind::kLegacyStore: {
        unsigned src = dataReg(op.a);
        a.li64(kAddrReg, op.b);
        switch (op.c) {
          case 0: a.sb(src, kAddrReg, 0); break;
          case 1: a.sh(src, kAddrReg, 0); break;
          case 2: a.sw(src, kAddrReg, 0); break;
          default: a.sd(src, kAddrReg, 0); break;
        }
        break;
      }
      case Kind::kCapLoad: {
        unsigned dst = dataReg(op.a);
        unsigned cb = static_cast<unsigned>(op.b);
        a.li64(kAddrReg, op.d);
        switch (op.c) {
          case 0: a.clb(dst, cb, kAddrReg, 0); break;
          case 1: a.clbu(dst, cb, kAddrReg, 0); break;
          case 2: a.clh(dst, cb, kAddrReg, 0); break;
          case 3: a.clhu(dst, cb, kAddrReg, 0); break;
          case 4: a.clw(dst, cb, kAddrReg, 0); break;
          case 5: a.clwu(dst, cb, kAddrReg, 0); break;
          default: a.cld(dst, cb, kAddrReg, 0); break;
        }
        break;
      }
      case Kind::kCapStore: {
        unsigned src = dataReg(op.a);
        unsigned cb = static_cast<unsigned>(op.b);
        a.li64(kAddrReg, op.d);
        switch (op.c) {
          case 0: a.csb(src, cb, kAddrReg, 0); break;
          case 1: a.csh(src, cb, kAddrReg, 0); break;
          case 2: a.csw(src, cb, kAddrReg, 0); break;
          default: a.csd(src, cb, kAddrReg, 0); break;
        }
        break;
      }
      case Kind::kCapLoadCap:
        a.li64(kAddrReg, op.d);
        a.clc(static_cast<unsigned>(op.a),
              static_cast<unsigned>(op.b), kAddrReg, 0);
        break;
      case Kind::kCapStoreCap:
        a.li64(kAddrReg, op.d);
        a.csc(static_cast<unsigned>(op.a),
              static_cast<unsigned>(op.b), kAddrReg, 0);
        break;
      case Kind::kTagClearStore: {
        unsigned src = dataReg(op.a);
        a.li64(kAddrReg, op.b);
        switch (op.c) {
          case 0: a.sb(src, kAddrReg, 0); break;
          case 1: a.sh(src, kAddrReg, 0); break;
          case 2: a.sw(src, kAddrReg, 0); break;
          default: a.sd(src, kAddrReg, 0); break;
        }
        // Read the line back as a capability: the cleared tag must be
        // observed identically by both machines.
        a.li64(kAddrReg, op.d);
        a.clc(kCapScratchFirst + kCapScratchCount - 1, kCapArena,
              kAddrReg, 0);
        break;
      }
      case Kind::kDerive: {
        unsigned cd = static_cast<unsigned>(op.a);
        unsigned cb = static_cast<unsigned>(op.b);
        switch (op.c) {
          case 0:
            a.li64(kAddrReg, op.d);
            a.cincbase(cd, cb, kAddrReg);
            break;
          case 1:
            a.li64(kAddrReg, op.d);
            a.csetlen(cd, cb, kAddrReg);
            break;
          case 2:
            a.li64(kAddrReg, op.d);
            a.candperm(cd, cb, kAddrReg);
            break;
          case 3:
            a.li64(kAddrReg, op.d);
            a.cfromptr(cd, cb, kAddrReg);
            break;
          case 4:
            a.ccleartag(cd, cb);
            break;
          default:
            a.ctoptr(dataReg(op.d), cb, 0);
            break;
        }
        break;
      }
      case Kind::kPermQuery: {
        unsigned dst = dataReg(op.a);
        unsigned cb = static_cast<unsigned>(op.b);
        switch (op.c) {
          case 0: a.cgetbase(dst, cb); break;
          case 1: a.cgetlen(dst, cb); break;
          case 2: a.cgettag(dst, cb); break;
          case 3: a.cgetperm(dst, cb); break;
          case 4: a.cgettype(dst, cb); break;
          default:
            a.cgetpcc(kCapScratchFirst + kCapScratchCount - 2, dst);
            break;
        }
        break;
      }
      case Kind::kSealUnseal:
        switch (op.c) {
          case 0: // valid seal
            a.cseal(kCapScratchFirst, kCapSub, kCapSealAuth);
            break;
          case 1: // authority without a matching otype range
            a.cseal(kCapScratchFirst, kCapSub, kCapSub);
            break;
          case 2: // valid unseal of the preamble's sealed cap
            a.cunseal(kCapScratchFirst + 1, kCapSealed, kCapSealAuth);
            break;
          case 3: // unseal of an unsealed cap: faults
            a.cunseal(kCapScratchFirst + 1, kCapSub, kCapSealAuth);
            break;
          default: // seal through an untagged source: faults
            a.cseal(kCapScratchFirst, kCapUntagged, kCapSealAuth);
            break;
        }
        break;
      case Kind::kBranch: {
        Assembler::Label label = a.newLabel();
        unsigned rs = dataReg(op.b), rt = dataReg(op.c);
        switch (op.a) {
          case 0: a.beq(rs, rt, label); break;
          case 1: a.bne(rs, rt, label); break;
          case 2: a.blez(rs, label); break;
          case 3: a.bgtz(rs, label); break;
          case 4: a.bltz(rs, label); break;
          default: a.bgez(rs, label); break;
        }
        a.nop(); // delay slot
        pending.push_back({label, static_cast<unsigned>(op.d)});
        break;
      }
      case Kind::kCapBranch: {
        Assembler::Label label = a.newLabel();
        unsigned cb = static_cast<unsigned>(op.b);
        if (op.a == 0)
            a.cbtu(cb, label);
        else
            a.cbts(cb, label);
        a.nop();
        pending.push_back({label, static_cast<unsigned>(op.d)});
        break;
      }
      case Kind::kCapJumpTrap:
        a.cjr(static_cast<unsigned>(op.b), isa::reg::zero);
        a.nop();
        break;
      case Kind::kLlSc: {
        unsigned val = dataReg(op.a);
        unsigned val2 = dataReg(op.a + 1);
        a.li64(kAddrReg, op.b);
        switch (op.c) {
          case 0: // reservation held: SC succeeds
            a.lld(val2, kAddrReg, 0);
            a.scd(val, kAddrReg, 0);
            break;
          case 1: // intervening store to the same address: SC fails
            a.lld(val2, kAddrReg, 0);
            a.sd(val2, kAddrReg, 0);
            a.scd(val, kAddrReg, 0);
            break;
          case 2: { // store elsewhere: reservation survives
            a.lld(val2, kAddrReg, 0);
            bool at_end =
                op.b + 8 >= kFuzzArenaBase + kFuzzArenaLen;
            a.sd(val2, kAddrReg, at_end ? -8 : 8);
            a.scd(val, kAddrReg, 0);
            break;
          }
          default: // capability-relative LL/SC pair
            a.li64(kAddrReg, op.b - kFuzzArenaBase);
            a.clld(val2, kCapArena, kAddrReg);
            a.cscd(val, kCapArena, kAddrReg);
            break;
        }
        break;
      }
      case Kind::kTlbStride: {
        unsigned dst = dataReg(op.a);
        for (std::uint64_t i = 0; i < op.d; ++i) {
            a.li64(kAddrReg, op.b + i * op.c);
            a.ld(dst, kAddrReg, 0);
        }
        break;
      }
      case Kind::kPtrRoundTrip: {
        unsigned cd = static_cast<unsigned>(op.a);
        unsigned cb = static_cast<unsigned>(op.b);
        unsigned ptr = dataReg(op.d);
        // The managed-runtime interop idiom: a capability collapses
        // to its integer offset within the arena authority (0 for an
        // untagged source — the NULL convention), is reminted through
        // the authority, and is then either poisoned, queried, or
        // dereferenced. Both machines must agree on the tag at every
        // step.
        a.ctoptr(ptr, cb, kCapArena);
        a.cfromptr(cd, kCapArena, ptr);
        if (op.c == 2)
            a.ccleartag(cd, cd);
        if (op.c == 3) {
            a.li64(kAddrReg, 0);
            a.clc(cd, cd, kAddrReg, 0);
        } else {
            a.cgettag(dataReg(op.d + 1), cd);
            a.cgetbase(dataReg(op.d + 2), cd);
        }
        break;
      }
    }
}

} // namespace

std::vector<std::uint32_t>
assembleFuzzProgram(const FuzzSpec &spec)
{
    Assembler a(kFuzzCodeBase);

    // --- preamble: derive the capability cast ---
    a.li64(kAddrReg, kFuzzArenaBase);
    a.cincbase(kCapArena, 0, kAddrReg);
    a.li64(kAddrReg, kFuzzArenaLen);
    a.csetlen(kCapArena, kCapArena, kAddrReg);

    a.li64(kAddrReg, 0x40);
    a.cincbase(kCapSub, kCapArena, kAddrReg);
    a.li64(kAddrReg, kSubLen);
    a.csetlen(kCapSub, kCapSub, kAddrReg);

    a.li64(kAddrReg, 0x42); // the object type
    a.cincbase(kCapSealAuth, 0, kAddrReg);
    a.li64(kAddrReg, 0x10);
    a.csetlen(kCapSealAuth, kCapSealAuth, kAddrReg);

    a.cseal(kCapSealed, kCapSub, kCapSealAuth);
    a.ccleartag(kCapUntagged, kCapArena);

    a.li64(kAddrReg, cap::kPermLoad | cap::kPermLoadCap);
    a.candperm(kCapLoadOnly, kCapArena, kAddrReg);

    a.li64(kAddrReg, kFuzzNoCapPage);
    a.cincbase(kCapRestricted, 0, kAddrReg);
    a.li64(kAddrReg, kRestrictedLen);
    a.csetlen(kCapRestricted, kCapRestricted, kAddrReg);

    a.li64(kAddrReg, kFuzzStrideBase);
    a.cincbase(kCapStride, 0, kAddrReg);
    a.li64(kAddrReg, kFuzzStrideLen);
    a.csetlen(kCapStride, kCapStride, kAddrReg);

    // Plant a tagged capability at arena line 0 for tag-clear targets.
    a.li64(kAddrReg, 0);
    a.csc(kCapSub, kCapArena, kAddrReg, 0);

    // Seed the data registers.
    for (unsigned i = 0; i < spec.reg_seed.size(); ++i)
        a.li64(isa::reg::t0 + i, spec.reg_seed[i]);

    // --- body ---
    std::vector<PendingLabel> pending;
    for (const FuzzOp &op : spec.ops) {
        emitOp(a, op, pending);
        for (auto it = pending.begin(); it != pending.end();) {
            if (--it->remaining == 0) {
                a.bind(it->label);
                it = pending.erase(it);
            } else {
                ++it;
            }
        }
    }
    for (const PendingLabel &entry : pending)
        a.bind(entry.label);

    a.break_();
    return a.finish();
}

core::MachineConfig
fuzzMachineConfig()
{
    core::MachineConfig config;
    config.dram_bytes = 4 * 1024 * 1024;
    // 128 lines and 128 entries cover 4 KB of code, four times the
    // largest program generateSpec emits; the default 1,024 of each
    // cost more to build and free than a seed spends running.
    config.accel.decode_cache_lines = 128;
    config.accel.superblock_entries = 128;
    return config;
}

FuzzRunResult
runFuzzWords(const std::vector<std::uint32_t> &words,
             const FuzzRunConfig &config)
{
    FuzzRunResult result;
    for (core::HostTier tier :
         {core::HostTier::kSuperblock, core::HostTier::kReference}) {
        core::MachineConfig machine_config = fuzzMachineConfig();
        machine_config.caches.prefetch = config.prefetch;
        machine_config.accel.tier = tier;
        auto owned = std::make_unique<core::Machine>(machine_config);
        core::Machine &machine = *owned;
        machine.loadProgram(kFuzzCodeBase, words);
        machine.mapRange(kFuzzArenaBase, kFuzzArenaLen);
        tlb::PteFlags nocap;
        nocap.cap_load = false;
        nocap.cap_store = false;
        machine.mapRange(kFuzzNoCapPage, tlb::kPageBytes, nocap);
        tlb::PteFlags ro;
        ro.writable = false;
        ro.cap_store = false;
        machine.mapRange(kFuzzRoPage, tlb::kPageBytes, ro);
        machine.mapRange(kFuzzStrideBase, kFuzzStrideLen);
        machine.reset(kFuzzCodeBase);
        machine.memory().setStoreTagClearSuppressed(
            config.suppress_tag_clear);

        LockstepConfig lockstep_config;
        lockstep_config.max_instructions = config.max_instructions;
        Lockstep lockstep(machine, lockstep_config);
        LockstepResult run = lockstep.run();
        if (run.diverged) {
            result.diverged = true;
            result.fast_path = tier != core::HostTier::kReference;
            result.divergence = run.divergence;
            return result;
        }
    }
    return result;
}

std::vector<FuzzOp>
shrinkOps(const FuzzSpec &spec, const FuzzRunConfig &config)
{
    auto diverges = [&](const std::vector<FuzzOp> &ops) {
        FuzzSpec candidate = spec;
        candidate.ops = ops;
        return runFuzzWords(assembleFuzzProgram(candidate), config)
            .diverged;
    };

    std::vector<FuzzOp> current = spec.ops;
    std::size_t chunk = current.size();
    while (chunk >= 1) {
        bool removed = false;
        for (std::size_t start = 0;
             start < current.size() && !current.empty();
             /* advanced below */) {
            std::vector<FuzzOp> candidate;
            candidate.reserve(current.size());
            for (std::size_t i = 0; i < current.size(); ++i) {
                if (i < start || i >= start + chunk)
                    candidate.push_back(current[i]);
            }
            if (candidate.size() < current.size() &&
                diverges(candidate)) {
                current = std::move(candidate);
                removed = true;
                // Retry the same start: the next chunk shifted in.
            } else {
                start += chunk;
            }
        }
        if (chunk == 1 && !removed)
            break;
        chunk = chunk > 1 ? (chunk + 1) / 2 : 1;
        if (chunk == 1 && current.empty())
            break;
    }
    return current;
}

std::string
dumpReproducer(const std::vector<std::uint32_t> &words,
               std::uint64_t seed, const std::string &divergence)
{
    std::string out;
    out += "# cheri_fuzz reproducer (load at 0x10000, run to break)\n";
    char buf[64];
    std::snprintf(buf, sizeof buf, "# seed: %llu\n",
                  static_cast<unsigned long long>(seed));
    out += buf;
    out += "# divergence:\n";
    std::string line;
    for (char ch : divergence) {
        if (ch == '\n') {
            out += "#   " + line + "\n";
            line.clear();
        } else {
            line += ch;
        }
    }
    if (!line.empty())
        out += "#   " + line + "\n";
    for (std::size_t i = 0; i < words.size(); ++i) {
        std::uint64_t addr = kFuzzCodeBase + i * 4;
        isa::Instruction inst = isa::decode(words[i]);
        std::snprintf(buf, sizeof buf, ".word 0x%08x", words[i]);
        out += buf;
        std::snprintf(buf, sizeof buf, "  # 0x%llx: ",
                      static_cast<unsigned long long>(addr));
        out += buf;
        out += isa::disassemble(inst);
        out += "\n";
    }
    return out;
}

namespace
{

/** Generate, run, and (on divergence) shrink one seed; returns the
 *  exact text the CLI prints for it. Pure function of (config, seed) —
 *  every Machine/RefCpu pair is private to this call, so seeds can
 *  run on any worker thread in any order. */
FuzzSeedOutcome
runOneSeed(const FuzzCampaignConfig &config, std::uint64_t seed)
{
    FuzzSeedOutcome outcome;
    outcome.seed = seed;

    FuzzSpec spec = generateSpec(seed);
    std::vector<std::uint32_t> words = assembleFuzzProgram(spec);
    FuzzRunResult result = runFuzzWords(words, config);
    if (!result.diverged) {
        if (!config.quiet)
            outcome.text = support::format(
                "seed %llu: ok (%zu ops, %zu words)\n",
                static_cast<unsigned long long>(seed), spec.ops.size(),
                words.size());
        return outcome;
    }

    outcome.diverged = true;
    outcome.text = support::format(
        "seed %llu: DIVERGENCE (fast path %s)\n%s\n",
        static_cast<unsigned long long>(seed),
        result.fast_path ? "on" : "off", result.divergence.c_str());
    if (config.shrink) {
        FuzzSpec small = spec;
        small.ops = shrinkOps(spec, config);
        std::vector<std::uint32_t> small_words =
            assembleFuzzProgram(small);
        FuzzRunResult small_result = runFuzzWords(small_words, config);
        outcome.text +=
            support::format("shrunk %zu ops -> %zu ops\n",
                            spec.ops.size(), small.ops.size());
        outcome.text += dumpReproducer(
            small_words, seed,
            small_result.diverged ? small_result.divergence
                                  : result.divergence);
    } else {
        outcome.text += dumpReproducer(words, seed, result.divergence);
    }
    return outcome;
}

} // namespace

std::string
FuzzCampaignResult::summaryLine() const
{
    return support::format(
        "cheri-fuzz: %llu/%llu seed(s) diverged\n",
        static_cast<unsigned long long>(diverged_count),
        static_cast<unsigned long long>(outcomes.size()));
}

std::string
FuzzCampaignResult::text() const
{
    std::string out;
    for (const FuzzSeedOutcome &outcome : outcomes)
        out += outcome.text;
    out += summaryLine();
    return out;
}

FuzzCampaignResult
runFuzzSeeds(const FuzzCampaignConfig &config)
{
    FuzzCampaignResult result;
    unsigned jobs = support::normalizeJobs(config.jobs);
    result.outcomes = support::parallelMapOrdered<FuzzSeedOutcome>(
        static_cast<std::size_t>(config.seeds), jobs,
        [&config](std::size_t index, unsigned) {
            return runOneSeed(config, config.start_seed + index);
        });
    for (const FuzzSeedOutcome &outcome : result.outcomes)
        if (outcome.diverged)
            ++result.diverged_count;
    return result;
}

} // namespace cheri::check
