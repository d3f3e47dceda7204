/**
 * @file
 * The decoder and the encoder, both read off kOps: a Layout says where
 * a row's selector and fields sit in its word, and Codec holds the
 * lookups both run, built from the table at compile time.
 */

#include "isa/decoder.h"
#include "isa/encoder.h"
#include "support/logging.h"

namespace cheri::isa
{

namespace
{

constexpr std::size_t kFields = static_cast<std::size_t>(Field::kNone);

/** One past the last Format value. */
constexpr std::size_t kFormats =
    static_cast<std::size_t>(Format::kCapCap) + 1;

/**
 * Where a row's selector and fields sit in its word: a field is
 * (word >> lsb) & mask, and a field the row lacks has mask 0. Every
 * field is unsigned except imm, which is signed and counts units of
 * 2^scale bytes.
 */
struct Layout
{
    std::uint8_t select_lsb = 0;
    std::uint8_t select_mask = 0;
    std::uint8_t scale = 0;
    std::array<std::uint8_t, kFields> lsb{};
    std::array<std::uint32_t, kFields> mask{};

    constexpr Layout &
    select(std::uint8_t at, unsigned bits)
    {
        select_lsb = at;
        select_mask = static_cast<std::uint8_t>((1u << bits) - 1);
        return *this;
    }

    constexpr Layout &
    place(Field field, std::uint8_t at, unsigned bits = 5)
    {
        lsb[static_cast<std::size_t>(field)] = at;
        mask[static_cast<std::size_t>(field)] = (1u << bits) - 1;
        return *this;
    }
};

constexpr Layout
layoutOf(Format format, const char *syntax, std::int8_t size_log2)
{
    using F = Field;
    Layout layout;
    switch (format) {
      case Format::kSpecial:
        return layout.select(0, 6).place(F::kRs, 21).place(F::kRt, 16)
            .place(F::kRd, 11).place(F::kSa, 6);
      case Format::kRegimm:
        return layout.select(16, 5).place(F::kRs, 21)
            .place(F::kImm, 0, 16);
      case Format::kJump:
        return layout.place(F::kTarget, 0, 26);
      case Format::kImm:
        return layout.place(F::kRs, 21).place(F::kRt, 16)
            .place(F::kImm, 0, 16);
      case Format::kCapMem:
        layout.scale = static_cast<std::uint8_t>(size_log2);
        return layout.select(0, 3).place(F::kRd, 21).place(F::kCb, 16)
            .place(F::kRt, 11).place(F::kImm, 3, 8);
      case Format::kCapCap:
        layout.scale = 5;
        return layout.place(F::kCd, 21).place(F::kCb, 16)
            .place(F::kRt, 11).place(F::kImm, 0, 11);
      case Format::kCop2:
        break;
    }
    layout.select(21, 5);
    std::uint8_t next_lsb = 16;
    auto place = [&](char letter) {
        if (fieldOf(letter) == F::kImm) {
            layout.place(F::kImm, 0, 16);
        } else {
            layout.place(fieldOf(letter), next_lsb);
            next_lsb -= 5;
        }
    };
    for (const char *c = syntax; *c != '\0'; ++c) {
        if (c[1] == '(') { // index(base): the base takes the earlier slot
            place(c[2]);
            place(c[0]);
            c += 3;
        } else if (*c != ',') {
            place(*c);
        }
    }
    return layout;
}

/** One operand of a row as encode() checks and places it. */
struct OperandSpec
{
    char letter = 0; ///< syntax letter; 0 past the row's last operand
    std::uint8_t lsb = 0;
    std::uint8_t scale = 0; ///< imm counts units of 2^scale bytes
    std::uint32_t mask = 0;
    std::int64_t lo = 0; ///< inclusive range of the operand value
    std::int64_t hi = 0;
};

/** A row's fixed bits and its operands in syntax order. */
struct RowEncoding
{
    std::uint32_t fixed = 0;
    std::array<OperandSpec, 4> operands{};
};

/** Registers, sa and the jump target are unsigned; imm is signed
 *  unless the letter says otherwise ('u' unsigned, 'h' either). */
constexpr RowEncoding
encodingOf(const OpInfo &row, const Layout &layout)
{
    RowEncoding encoding;
    encoding.fixed = std::uint32_t{row.major} << 26 |
                     std::uint32_t{row.select} << layout.select_lsb;
    std::size_t next = 0;
    for (const char *c = row.syntax; *c != '\0'; ++c) {
        Field field = fieldOf(*c);
        if (field == Field::kNone)
            continue;
        auto index = static_cast<std::size_t>(field);
        if (layout.mask[index] == 0)
            throw "syntax names a field its format lacks";
        OperandSpec spec{*c, layout.lsb[index], 0, layout.mask[index], 0,
                         layout.mask[index]};
        if (field == Field::kImm && *c != 'u') {
            spec.scale = layout.scale;
            std::int64_t half = (std::int64_t{spec.mask} + 1) / 2;
            spec.lo = -half << spec.scale;
            spec.hi = *c == 'h' ? spec.mask : (half - 1) << spec.scale;
        }
        encoding.operands[next++] = spec;
    }
    return encoding;
}

/**
 * The tables built from kOps at compile time. decode() looks a word
 * up in two steps: the major picks a selector field and a run of
 * entries, and the selector value picks the entry. encode() reads a
 * row's fixed bits and operand specs.
 */
struct Codec
{
    struct Major
    {
        std::uint8_t select_lsb = 0;
        std::uint8_t select_mask = 0;
        std::uint16_t first = 0; ///< entries index of selector value 0
    };
    /** A row and the layout its words decode with: the row's own, or
     *  for kInvalid the operand-free layout of the major's format. */
    struct Entry
    {
        std::uint8_t row = 0;
        std::uint8_t layout = 0;
    };
    std::array<Major, 64> majors{};
    std::array<Entry, 256> entries{};
    /** Each row's layout, then each Format's with no operands. */
    std::array<Layout, kNumOpcodes + kFormats> layouts{};
    std::array<RowEncoding, kNumOpcodes> encodings{};
};

constexpr Codec
buildCodec()
{
    Codec map;
    for (std::size_t r = 0; r < kNumOpcodes; ++r) {
        map.layouts[r] = layoutOf(kOps[r].format, kOps[r].syntax,
                                  kOps[r].size_log2);
        map.encodings[r] = encodingOf(kOps[r], map.layouts[r]);
    }
    for (std::size_t f = 0; f < kFormats; ++f)
        map.layouts[kNumOpcodes + f] = layoutOf(Format(f), "", 0);
    // A major no row uses still fills the I-type fields.
    std::array<Format, 64> formats{};
    formats.fill(Format::kImm);
    for (std::size_t r = 1; r < kNumOpcodes; ++r)
        formats[kOps[r].major] = kOps[r].format;
    std::size_t next = 0;
    for (std::size_t m = 0; m < 64; ++m) {
        auto format = static_cast<std::size_t>(formats[m]);
        const Layout &layout = map.layouts[kNumOpcodes + format];
        map.majors[m] = {layout.select_lsb, layout.select_mask,
                         static_cast<std::uint16_t>(next)};
        for (std::size_t sel = 0; sel <= layout.select_mask; ++sel) {
            map.entries[next++] = {
                0, static_cast<std::uint8_t>(kNumOpcodes + format)};
        }
    }
    for (std::size_t r = 1; r < kNumOpcodes; ++r) {
        const OpInfo &row = kOps[r];
        const Codec::Major &major = map.majors[row.major];
        if (row.format != formats[row.major])
            throw "rows sharing a major must share a format";
        if (row.select > major.select_mask)
            throw "selector wider than its field";
        Codec::Entry &entry = map.entries[major.first + row.select];
        if (entry.row != 0)
            throw "two rows share an encoding";
        entry = {static_cast<std::uint8_t>(r), static_cast<std::uint8_t>(r)};
    }
    // A capability-memory selector no row claims decodes as the row
    // with its sign bit clear: stores ignore the bit, and cld is the
    // only 64-bit load.
    for (std::size_t m = 0; m < 64; ++m) {
        if (formats[m] != Format::kCapMem)
            continue;
        std::size_t first = map.majors[m].first;
        for (std::size_t sel = 4; sel < 8; ++sel) {
            if (map.entries[first + sel].row == 0)
                map.entries[first + sel] = map.entries[first + sel - 4];
        }
    }
    return map;
}

constexpr Codec kCodec = buildCodec();

} // namespace

Instruction
decode(std::uint32_t word)
{
    const Codec::Major &major = kCodec.majors[word >> 26];
    const Codec::Entry &entry =
        kCodec.entries[major.first +
                           ((word >> major.select_lsb) & major.select_mask)];
    const Layout &layout = kCodec.layouts[entry.layout];
    auto field = [&](Field f) {
        auto index = static_cast<std::size_t>(f);
        return (word >> layout.lsb[index]) & layout.mask[index];
    };
    Instruction inst;
    inst.op = static_cast<Opcode>(entry.row);
    inst.rs = static_cast<std::uint8_t>(field(Field::kRs));
    inst.rt = static_cast<std::uint8_t>(field(Field::kRt));
    inst.rd = static_cast<std::uint8_t>(field(Field::kRd));
    inst.sa = static_cast<std::uint8_t>(field(Field::kSa));
    inst.cd = static_cast<std::uint8_t>(field(Field::kCd));
    inst.cb = static_cast<std::uint8_t>(field(Field::kCb));
    inst.ct = static_cast<std::uint8_t>(field(Field::kCt));
    // Sign-extend imm from the top bit its mask covers.
    std::int64_t sign =
        (layout.mask[static_cast<std::size_t>(Field::kImm)] >> 1) + 1;
    std::int64_t imm = field(Field::kImm);
    inst.imm = static_cast<std::int32_t>(((imm ^ sign) - sign) *
                                         (std::int64_t{1} << layout.scale));
    inst.target = field(Field::kTarget);
    inst.raw = word;
    return inst;
}

void
decodeLine(const std::uint8_t *bytes, Instruction *out,
           std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i) {
        std::uint32_t word = 0;
        for (unsigned b = 0; b < 4; ++b) {
            word |= static_cast<std::uint32_t>(bytes[4 * i + b])
                    << (8 * b);
        }
        out[i] = decode(word);
    }
}

std::string
operandError(Opcode op, const Operands &operands)
{
    const RowEncoding &encoding =
        kCodec.encodings[static_cast<std::size_t>(op)];
    for (std::size_t k = 0; k < operands.size(); ++k) {
        const OperandSpec &spec = encoding.operands[k];
        if (spec.letter == 0)
            break;
        std::int64_t value = operands[k];
        std::int64_t step = std::int64_t{1} << spec.scale;
        if (value % step != 0) {
            return support::format(
                "immediate %lld is not a multiple of %lld",
                static_cast<long long>(value),
                static_cast<long long>(step));
        }
        if (value >= spec.lo && value <= spec.hi)
            continue;
        Field field = fieldOf(spec.letter);
        if (field == Field::kSa)
            return "shift amount out of range";
        if (field != Field::kImm && field != Field::kTarget) {
            return support::format("register %lld out of range",
                                   static_cast<long long>(value));
        }
        return support::format("immediate %lld out of range (%lld..%lld)",
                               static_cast<long long>(value),
                               static_cast<long long>(spec.lo),
                               static_cast<long long>(spec.hi));
    }
    return {};
}

std::uint32_t
encode(Opcode op, const Operands &operands)
{
    if (op == Opcode::kInvalid)
        support::panic("the invalid opcode has no encoding");
    const RowEncoding &encoding =
        kCodec.encodings[static_cast<std::size_t>(op)];
    std::uint32_t word = encoding.fixed;
    for (std::size_t k = 0; k < operands.size(); ++k) {
        const OperandSpec &spec = encoding.operands[k];
        if (spec.letter == 0)
            break;
        std::int64_t value = operands[k];
        std::uint64_t below_step = (std::uint64_t{1} << spec.scale) - 1;
        if (value < spec.lo || value > spec.hi ||
            (static_cast<std::uint64_t>(value) & below_step) != 0) {
            support::panic("%s: %s", opcodeName(op),
                           operandError(op, operands).c_str());
        }
        word |= (static_cast<std::uint32_t>(value >> spec.scale) & spec.mask)
                << spec.lsb;
    }
    return word;
}

} // namespace cheri::isa
