/**
 * @file
 * Instruction-set definitions for the 64-bit MIPS subset plus the
 * CHERI extensions of Table 1. The MIPS encodings follow MIPS IV; the
 * CHERI encodings live in the COP2 opcode space (major 0x12) and the
 * LWC2/SWC2/LDC2/SDC2 majors for capability-relative memory accesses,
 * mirroring how the paper implements CHERI as coprocessor 2.
 *
 * kOps below is the one instruction table: a row per instruction
 * gives its mnemonic, encoding, operand syntax and class flags. The
 * decoder, the encoder, the disassembler, both assemblers and the
 * predicates in this header all read it, so a new instruction costs
 * one Opcode, one row, and its semantics in the CPUs.
 */

#ifndef CHERI_ISA_ISA_H
#define CHERI_ISA_ISA_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace cheri::isa
{

/** Semantic opcode after decode. */
enum class Opcode
{
    kInvalid,

    // --- MIPS64 subset: shifts ---
    kSll, kSrl, kSra, kSllv, kSrlv, kSrav,
    kDsll, kDsrl, kDsra, kDsll32, kDsrl32, kDsra32,
    kDsllv, kDsrlv, kDsrav,

    // --- ALU register ---
    kAddu, kDaddu, kSubu, kDsubu,
    kAnd, kOr, kXor, kNor, kSlt, kSltu,
    kMovz, kMovn,
    kDmult, kDmultu, kDdiv, kDdivu, kMfhi, kMflo,

    // --- ALU immediate ---
    kAddiu, kDaddiu, kSlti, kSltiu, kAndi, kOri, kXori, kLui,

    // --- control flow ---
    kJ, kJal, kJr, kJalr,
    kBeq, kBne, kBlez, kBgtz, kBltz, kBgez,
    kSyscall, kBreak,

    // --- legacy loads/stores (implicitly via C0) ---
    kLb, kLbu, kLh, kLhu, kLw, kLwu, kLd,
    kSb, kSh, kSw, kSd,
    kLld, kScd,

    // --- CHERI: inspection (Table 1) ---
    kCGetBase, kCGetLen, kCGetTag, kCGetPerm, kCGetPcc,

    // --- CHERI: monotonic manipulation ---
    kCIncBase, kCSetLen, kCClearTag, kCAndPerm,

    // --- CHERI: pointer interop ---
    kCToPtr, kCFromPtr,

    // --- CHERI: tag branches ---
    kCBtu, kCBts,

    // --- CHERI: capability loads/stores ---
    kCLc, kCSc,
    kClb, kClbu, kClh, kClhu, kClw, kClwu, kCld,
    kCsb, kCsh, kCsw, kCsd,
    kClld, kCscd,

    // --- CHERI: jumps ---
    kCJr, kCJalr,

    // --- CHERI: sealing and protected domain crossing (Section 11) ---
    kCSeal, kCUnseal, kCGetType, kCCall, kCReturn,
};

/** One past the last Opcode value: sizes handler/dispatch tables. */
inline constexpr std::size_t kNumOpcodes =
    static_cast<std::size_t>(Opcode::kCReturn) + 1;

/**
 * Encoding class: where an instruction's selector and fields sit in
 * its word (fields are [hi:lo]; every major in [31:26]).
 */
enum class Format : std::uint8_t
{
    /** rs [25:21], rt [20:16], rd [15:11], sa [10:6]; funct [5:0]
     *  selects. */
    kSpecial,
    /** rs [25:21], imm [15:0]; [20:16] selects. */
    kRegimm,
    /** target [25:0]. */
    kJump,
    /** rs [25:21], rt [20:16], imm [15:0]; also every unused major. */
    kImm,
    /** sub-opcode [25:21] selects; registers fill [20:16], [15:11],
     *  [10:6] in written order, a parenthesised base before the index
     *  in front of it; a branch offset fills [15:0]. */
    kCop2,
    /** rd [25:21], cb [20:16], rt [15:11], imm [10:3] (signed, scaled
     *  by the access size); sign [2] and size [1:0] select, and stores
     *  ignore the sign bit. */
    kCapMem,
    /** cd [25:21], cb [20:16], rt [15:11], imm [10:0] (signed, x32). */
    kCapCap,
};

/** Class flags the predicates below read. */
enum OpFlags : std::uint8_t
{
    kDelaySlot = 1 << 0,   ///< branch or jump with a delay slot
    kConditional = 1 << 1, ///< falls through its delay slot untaken
    kSwapsPcc = 1 << 2,    ///< CJR/CJALR: the PCC swap spans the slot
    kEndsBlock = 1 << 3,   ///< traps or leaves the run loop
    kCapMemory = 1 << 4,   ///< load/store through a capability register
    kZeroExtend = 1 << 5,  ///< unsigned load
    kStore = 1 << 6,       ///< writes memory (stores, SC, CSC)
};

/**
 * One row of the instruction table. The syntax lists the operands in
 * written order, comma separated, one letter per Instruction field:
 *
 *   d s t   rd rs rt: integer register, printed by ABI name
 *   D B T   cd cb ct: capability register, printed cN
 *   <       sa: shift amount 0..31
 *   i       imm: signed decimal, scaled by the format
 *   u       imm: unsigned 16 bits, printed 0x...
 *   h       imm: 16 bits signed or unsigned, printed 0x...
 *   p       imm: branch offset in words; a label in assembly
 *   a       target: jump word target, printed as a byte address;
 *           a label in assembly
 *   x(y)    memory operand: offset or index x from base y
 */
struct OpInfo
{
    Opcode op;
    const char *name;
    Format format;
    std::uint8_t major;
    /** SPECIAL funct, REGIMM [20:16], COP2 sub-opcode, or capability
     *  memory sign << 2 | size; 0 for the other formats. */
    std::uint8_t select;
    const char *syntax;
    std::uint8_t flags = 0;
    /** log2 bytes a memory access moves; -1 for everything else. */
    std::int8_t size_log2 = -1;
};

/** The instruction table, one row per Opcode in declaration order. */
inline constexpr std::array<OpInfo, kNumOpcodes> kOps = [] {
    using enum Opcode;
    using enum Format;
    return std::array<OpInfo, kNumOpcodes>{{
        // op, mnemonic, format, major, select, syntax, flags, size
        {kInvalid, "invalid", kImm, 0x00, 0, "", kEndsBlock},

        {kSll, "sll", kSpecial, 0x00, 0x00, "d,t,<"},
        {kSrl, "srl", kSpecial, 0x00, 0x02, "d,t,<"},
        {kSra, "sra", kSpecial, 0x00, 0x03, "d,t,<"},
        {kSllv, "sllv", kSpecial, 0x00, 0x04, "d,t,s"},
        {kSrlv, "srlv", kSpecial, 0x00, 0x06, "d,t,s"},
        {kSrav, "srav", kSpecial, 0x00, 0x07, "d,t,s"},
        {kDsll, "dsll", kSpecial, 0x00, 0x38, "d,t,<"},
        {kDsrl, "dsrl", kSpecial, 0x00, 0x3a, "d,t,<"},
        {kDsra, "dsra", kSpecial, 0x00, 0x3b, "d,t,<"},
        {kDsll32, "dsll32", kSpecial, 0x00, 0x3c, "d,t,<"},
        {kDsrl32, "dsrl32", kSpecial, 0x00, 0x3e, "d,t,<"},
        {kDsra32, "dsra32", kSpecial, 0x00, 0x3f, "d,t,<"},
        {kDsllv, "dsllv", kSpecial, 0x00, 0x14, "d,t,s"},
        {kDsrlv, "dsrlv", kSpecial, 0x00, 0x16, "d,t,s"},
        {kDsrav, "dsrav", kSpecial, 0x00, 0x17, "d,t,s"},

        {kAddu, "addu", kSpecial, 0x00, 0x21, "d,s,t"},
        {kDaddu, "daddu", kSpecial, 0x00, 0x2d, "d,s,t"},
        {kSubu, "subu", kSpecial, 0x00, 0x23, "d,s,t"},
        {kDsubu, "dsubu", kSpecial, 0x00, 0x2f, "d,s,t"},
        {kAnd, "and", kSpecial, 0x00, 0x24, "d,s,t"},
        {kOr, "or", kSpecial, 0x00, 0x25, "d,s,t"},
        {kXor, "xor", kSpecial, 0x00, 0x26, "d,s,t"},
        {kNor, "nor", kSpecial, 0x00, 0x27, "d,s,t"},
        {kSlt, "slt", kSpecial, 0x00, 0x2a, "d,s,t"},
        {kSltu, "sltu", kSpecial, 0x00, 0x2b, "d,s,t"},
        {kMovz, "movz", kSpecial, 0x00, 0x0a, "d,s,t"},
        {kMovn, "movn", kSpecial, 0x00, 0x0b, "d,s,t"},
        {kDmult, "dmult", kSpecial, 0x00, 0x1c, "s,t"},
        {kDmultu, "dmultu", kSpecial, 0x00, 0x1d, "s,t"},
        {kDdiv, "ddiv", kSpecial, 0x00, 0x1e, "s,t"},
        {kDdivu, "ddivu", kSpecial, 0x00, 0x1f, "s,t"},
        {kMfhi, "mfhi", kSpecial, 0x00, 0x10, "d"},
        {kMflo, "mflo", kSpecial, 0x00, 0x12, "d"},

        {kAddiu, "addiu", kImm, 0x09, 0, "t,s,i"},
        {kDaddiu, "daddiu", kImm, 0x19, 0, "t,s,i"},
        {kSlti, "slti", kImm, 0x0a, 0, "t,s,i"},
        {kSltiu, "sltiu", kImm, 0x0b, 0, "t,s,i"},
        {kAndi, "andi", kImm, 0x0c, 0, "t,s,u"},
        {kOri, "ori", kImm, 0x0d, 0, "t,s,u"},
        {kXori, "xori", kImm, 0x0e, 0, "t,s,u"},
        {kLui, "lui", kImm, 0x0f, 0, "t,h"},

        {kJ, "j", kJump, 0x02, 0, "a", kDelaySlot},
        {kJal, "jal", kJump, 0x03, 0, "a", kDelaySlot},
        {kJr, "jr", kSpecial, 0x00, 0x08, "s", kDelaySlot},
        {kJalr, "jalr", kSpecial, 0x00, 0x09, "d,s", kDelaySlot},
        {kBeq, "beq", kImm, 0x04, 0, "s,t,p", kDelaySlot | kConditional},
        {kBne, "bne", kImm, 0x05, 0, "s,t,p", kDelaySlot | kConditional},
        {kBlez, "blez", kImm, 0x06, 0, "s,p", kDelaySlot | kConditional},
        {kBgtz, "bgtz", kImm, 0x07, 0, "s,p", kDelaySlot | kConditional},
        {kBltz, "bltz", kRegimm, 0x01, 0, "s,p", kDelaySlot | kConditional},
        {kBgez, "bgez", kRegimm, 0x01, 1, "s,p", kDelaySlot | kConditional},
        {kSyscall, "syscall", kSpecial, 0x00, 0x0c, "", kEndsBlock},
        {kBreak, "break", kSpecial, 0x00, 0x0d, "", kEndsBlock},

        {kLb, "lb", kImm, 0x20, 0, "t,i(s)", 0, 0},
        {kLbu, "lbu", kImm, 0x24, 0, "t,i(s)", kZeroExtend, 0},
        {kLh, "lh", kImm, 0x21, 0, "t,i(s)", 0, 1},
        {kLhu, "lhu", kImm, 0x25, 0, "t,i(s)", kZeroExtend, 1},
        {kLw, "lw", kImm, 0x23, 0, "t,i(s)", 0, 2},
        {kLwu, "lwu", kImm, 0x27, 0, "t,i(s)", kZeroExtend, 2},
        {kLd, "ld", kImm, 0x37, 0, "t,i(s)", 0, 3},
        {kSb, "sb", kImm, 0x28, 0, "t,i(s)", kStore, 0},
        {kSh, "sh", kImm, 0x29, 0, "t,i(s)", kStore, 1},
        {kSw, "sw", kImm, 0x2b, 0, "t,i(s)", kStore, 2},
        {kSd, "sd", kImm, 0x3f, 0, "t,i(s)", kStore, 3},
        {kLld, "lld", kImm, 0x34, 0, "t,i(s)", 0, 3},
        {kScd, "scd", kImm, 0x3c, 0, "t,i(s)", kStore, 3},

        {kCGetBase, "cgetbase", kCop2, 0x12, 0, "d,B"},
        {kCGetLen, "cgetlen", kCop2, 0x12, 1, "d,B"},
        {kCGetTag, "cgettag", kCop2, 0x12, 2, "d,B"},
        {kCGetPerm, "cgetperm", kCop2, 0x12, 3, "d,B"},
        {kCGetPcc, "cgetpcc", kCop2, 0x12, 4, "D,d"},
        {kCIncBase, "cincbase", kCop2, 0x12, 5, "D,B,t"},
        {kCSetLen, "csetlen", kCop2, 0x12, 6, "D,B,t"},
        {kCClearTag, "ccleartag", kCop2, 0x12, 7, "D,B"},
        {kCAndPerm, "candperm", kCop2, 0x12, 8, "D,B,t"},
        {kCToPtr, "ctoptr", kCop2, 0x12, 9, "d,B,T"},
        {kCFromPtr, "cfromptr", kCop2, 0x12, 10, "D,B,t"},
        {kCBtu, "cbtu", kCop2, 0x12, 11, "B,p", kDelaySlot | kConditional},
        {kCBts, "cbts", kCop2, 0x12, 12, "B,p", kDelaySlot | kConditional},

        {kCLc, "clc", kCapCap, 0x36, 0, "D,t,i(B)", kCapMemory, 5},
        {kCSc, "csc", kCapCap, 0x3e, 0, "D,t,i(B)", kCapMemory | kStore, 5},
        {kClb, "clb", kCapMem, 0x32, 0, "d,t,i(B)", kCapMemory, 0},
        {kClbu, "clbu", kCapMem, 0x32, 4, "d,t,i(B)",
         kCapMemory | kZeroExtend, 0},
        {kClh, "clh", kCapMem, 0x32, 1, "d,t,i(B)", kCapMemory, 1},
        {kClhu, "clhu", kCapMem, 0x32, 5, "d,t,i(B)",
         kCapMemory | kZeroExtend, 1},
        {kClw, "clw", kCapMem, 0x32, 2, "d,t,i(B)", kCapMemory, 2},
        {kClwu, "clwu", kCapMem, 0x32, 6, "d,t,i(B)",
         kCapMemory | kZeroExtend, 2},
        {kCld, "cld", kCapMem, 0x32, 3, "d,t,i(B)", kCapMemory, 3},
        {kCsb, "csb", kCapMem, 0x3a, 0, "d,t,i(B)", kCapMemory | kStore, 0},
        {kCsh, "csh", kCapMem, 0x3a, 1, "d,t,i(B)", kCapMemory | kStore, 1},
        {kCsw, "csw", kCapMem, 0x3a, 2, "d,t,i(B)", kCapMemory | kStore, 2},
        {kCsd, "csd", kCapMem, 0x3a, 3, "d,t,i(B)", kCapMemory | kStore, 3},
        {kClld, "clld", kCop2, 0x12, 15, "d,t(B)", kCapMemory, 3},
        {kCscd, "cscd", kCop2, 0x12, 16, "d,t(B)", kCapMemory | kStore, 3},

        {kCJr, "cjr", kCop2, 0x12, 13, "t(B)", kDelaySlot | kSwapsPcc},
        {kCJalr, "cjalr", kCop2, 0x12, 14, "D,t(B)",
         kDelaySlot | kSwapsPcc},

        {kCSeal, "cseal", kCop2, 0x12, 17, "D,B,T"},
        {kCUnseal, "cunseal", kCop2, 0x12, 18, "D,B,T"},
        {kCGetType, "cgettype", kCop2, 0x12, 21, "d,B"},
        {kCCall, "ccall", kCop2, 0x12, 19, "B,T", kEndsBlock},
        {kCReturn, "creturn", kCop2, 0x12, 20, "", kEndsBlock},
    }};
}();

/** The table row of op. */
constexpr const OpInfo &
opInfo(Opcode op)
{
    return kOps[static_cast<std::size_t>(op)];
}

constexpr bool
rowsFollowOpcodeOrder()
{
    for (std::size_t i = 0; i < kNumOpcodes; ++i) {
        if (static_cast<std::size_t>(kOps[i].op) != i)
            return false;
    }
    return true;
}
static_assert(rowsFollowOpcodeOrder(),
              "kOps rows must follow Opcode declaration order");

/**
 * A decoded instruction: semantic opcode plus every field any
 * instruction uses (unused fields are zero).
 */
struct Instruction
{
    Opcode op = Opcode::kInvalid;
    std::uint8_t rs = 0; ///< integer source register
    std::uint8_t rt = 0; ///< integer source/dest register
    std::uint8_t rd = 0; ///< integer dest register
    std::uint8_t sa = 0; ///< shift amount
    std::uint8_t cd = 0; ///< capability dest register
    std::uint8_t cb = 0; ///< capability base register
    std::uint8_t ct = 0; ///< capability source register
    std::int32_t imm = 0; ///< sign-extended immediate (unscaled)
    std::uint32_t target = 0; ///< J/JAL 26-bit target field
    std::uint32_t raw = 0; ///< original encoding

    /** True for instructions with an architectural delay slot. */
    bool hasDelaySlot() const
    {
        return opInfo(op).flags & kDelaySlot;
    }

    /** True for loads/stores through a capability register. */
    bool isCapMemory() const { return opInfo(op).flags & kCapMemory; }
};

/** Dies on a non-memory opcode handed to accessSizeLog2. */
[[noreturn]] void accessSizePanic(Opcode op);

/** Log2 access size in bytes for a memory opcode (0,1,2,3 → 1..8B).
 *  Inline: runs once per simulated load/store. */
inline unsigned
accessSizeLog2(Opcode op)
{
    std::int8_t size = opInfo(op).size_log2;
    if (size < 0)
        accessSizePanic(op);
    return static_cast<unsigned>(size);
}

/** True when the memory opcode zero-extends (unsigned load). */
inline bool
loadIsUnsigned(Opcode op)
{
    return opInfo(op).flags & kZeroExtend;
}

/**
 * True when a superblock may continue *through* this instruction:
 * anything whose execution never consults or perturbs the fetch
 * stream mid-block. Control flow, SYSCALL/BREAK (run-loop exits),
 * CCALL/CRETURN (always trap), CJR/CJALR (swap PCC over two slots)
 * and kInvalid are excluded. Inline: runs only at block-mint time.
 */
inline bool
superblockBody(Opcode op)
{
    return !(opInfo(op).flags & (kDelaySlot | kEndsBlock));
}

/**
 * True when this instruction may *terminate* a superblock together
 * with its delay slot: branches and jumps that keep PCC unchanged.
 * CJR/CJALR are excluded (the PCC swap countdown spans the block
 * boundary); they always fall back to the per-instruction path.
 */
inline bool
superblockTerminal(Opcode op)
{
    return (opInfo(op).flags & (kDelaySlot | kSwapsPcc)) == kDelaySlot;
}

/**
 * True for the conditional branches: when one is not taken,
 * execution falls through its delay slot to the next sequential
 * instruction, so a superblock may keep minting past the pair and
 * simply exit early at run time when the branch is taken. The
 * unconditional jumps (and JR/JALR) always leave, so a block never
 * continues past them.
 */
inline bool
superblockFallsThrough(Opcode op)
{
    return opInfo(op).flags & kConditional;
}

/**
 * True for the straight-line ALU opcodes, whose handlers touch only
 * the integer register file (plus HI/LO and a host-side stat): they
 * cannot trap, branch, or consult the PC. Superblock dispatch skips
 * all per-slot PC bookkeeping across them and reconstructs it at the
 * next full slot or block exit. Inline: runs only at block-mint time.
 */
inline bool
superblockSimple(Opcode op)
{
    static_assert(static_cast<int>(Opcode::kLui) -
                          static_cast<int>(Opcode::kSll) ==
                      40,
                  "ALU opcodes must stay contiguous");
    return op >= Opcode::kSll && op <= Opcode::kLui;
}

/**
 * True when executing this instruction can touch the data side of
 * the memory system — a legacy or capability load/store. Everything
 * else can neither move the TLB's LRU, change its generation, nor
 * store into code, so the superblock tier may skip its per-slot
 * translation re-checks after such an instruction. Inline: runs only
 * at block-mint time.
 */
inline bool
touchesDataMemory(Opcode op)
{
    return opInfo(op).size_log2 >= 0;
}

/** Conventional MIPS ABI register names, index 0..31. */
extern const char *const kRegNames[32];

/** Mnemonic for an opcode (lower case, as in Table 1 style). */
inline const char *
opcodeName(Opcode op)
{
    return static_cast<std::size_t>(op) < kNumOpcodes ? opInfo(op).name
                                                       : "unknown";
}

} // namespace cheri::isa

#endif // CHERI_ISA_ISA_H
