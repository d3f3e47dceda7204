#include "isa/text_assembler.h"

#include <cctype>
#include <functional>
#include <map>
#include <optional>
#include <sstream>
#include <string_view>

#include "isa/assembler.h"
#include "support/logging.h"

namespace cheri::isa
{

namespace
{

/** A parsed operand. */
struct Operand
{
    enum class Kind
    {
        kGpr,   ///< $t0 / $8
        kCap,   ///< $c1
        kImm,   ///< 42 / -8 / 0x1000
        kLabel, ///< bare identifier
        kMem,   ///< offset($base): offset is imm or gpr, base gpr/cap
    };

    Kind kind;
    unsigned reg = 0;        ///< kGpr/kCap register number
    std::int64_t imm = 0;    ///< kImm value / kMem immediate offset
    std::string label;       ///< kLabel name
    // kMem fields:
    bool base_is_cap = false;
    unsigned base_reg = 0;
    bool offset_is_reg = false;
    unsigned offset_reg = 0;
};

std::string
trim(const std::string &text)
{
    std::size_t first = text.find_first_not_of(" \t");
    if (first == std::string::npos)
        return "";
    std::size_t last = text.find_last_not_of(" \t");
    return text.substr(first, last - first + 1);
}

/** Strip comments (#, ;, //) outside of any context. */
std::string
stripComment(const std::string &line)
{
    for (std::size_t i = 0; i < line.size(); ++i) {
        char c = line[i];
        if (c == '#' || c == ';')
            return line.substr(0, i);
        if (c == '/' && i + 1 < line.size() && line[i + 1] == '/')
            return line.substr(0, i);
    }
    return line;
}

/** Parse a register token like "t0", "8", "c3", "zero". */
std::optional<std::pair<bool, unsigned>> // {is_cap, index}
parseRegisterName(const std::string &name)
{
    if (name.empty())
        return std::nullopt;
    // Capability register: c0..c31.
    if (name[0] == 'c' && name.size() > 1 &&
        std::isdigit(static_cast<unsigned char>(name[1]))) {
        unsigned index = 0;
        for (std::size_t i = 1; i < name.size(); ++i) {
            if (!std::isdigit(static_cast<unsigned char>(name[i])))
                return std::nullopt;
            index = index * 10 + static_cast<unsigned>(name[i] - '0');
        }
        if (index >= 32)
            return std::nullopt;
        return std::make_pair(true, index);
    }
    // Numeric GPR.
    if (std::isdigit(static_cast<unsigned char>(name[0]))) {
        unsigned index = 0;
        for (char c : name) {
            if (!std::isdigit(static_cast<unsigned char>(c)))
                return std::nullopt;
            index = index * 10 + static_cast<unsigned>(c - '0');
        }
        if (index >= 32)
            return std::nullopt;
        return std::make_pair(false, index);
    }
    // ABI name.
    for (unsigned i = 0; i < 32; ++i) {
        if (name == kRegNames[i])
            return std::make_pair(false, i);
    }
    return std::nullopt;
}

std::optional<std::int64_t>
parseImmediate(const std::string &text)
{
    if (text.empty())
        return std::nullopt;
    std::size_t pos = 0;
    bool negative = false;
    if (text[0] == '-' || text[0] == '+') {
        negative = text[0] == '-';
        pos = 1;
    }
    if (pos >= text.size())
        return std::nullopt;
    int base = 10;
    if (text.size() > pos + 1 && text[pos] == '0' &&
        (text[pos + 1] == 'x' || text[pos + 1] == 'X')) {
        base = 16;
        pos += 2;
    }
    std::uint64_t value = 0;
    bool any = false;
    for (; pos < text.size(); ++pos) {
        char c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(text[pos])));
        int digit;
        if (c >= '0' && c <= '9')
            digit = c - '0';
        else if (base == 16 && c >= 'a' && c <= 'f')
            digit = c - 'a' + 10;
        else
            return std::nullopt;
        value = value * static_cast<std::uint64_t>(base) +
                static_cast<std::uint64_t>(digit);
        any = true;
    }
    if (!any)
        return std::nullopt;
    std::int64_t result = static_cast<std::int64_t>(value);
    return negative ? -result : result;
}

std::optional<Operand>
parseOperand(const std::string &raw)
{
    std::string text = trim(raw);
    if (text.empty())
        return std::nullopt;

    // offset($base) — offset may be empty, an immediate, or $reg.
    std::size_t open = text.find('(');
    if (open != std::string::npos && text.back() == ')') {
        std::string offset_text = trim(text.substr(0, open));
        std::string base_text =
            trim(text.substr(open + 1, text.size() - open - 2));
        if (base_text.empty() || base_text[0] != '$')
            return std::nullopt;
        auto base = parseRegisterName(base_text.substr(1));
        if (!base)
            return std::nullopt;

        Operand op;
        op.kind = Operand::Kind::kMem;
        op.base_is_cap = base->first;
        op.base_reg = base->second;
        if (offset_text.empty()) {
            op.imm = 0;
        } else if (offset_text[0] == '$') {
            auto offset = parseRegisterName(offset_text.substr(1));
            if (!offset || offset->first)
                return std::nullopt;
            op.offset_is_reg = true;
            op.offset_reg = offset->second;
        } else {
            auto imm = parseImmediate(offset_text);
            if (!imm)
                return std::nullopt;
            op.imm = *imm;
        }
        return op;
    }

    if (text[0] == '$') {
        auto reg = parseRegisterName(text.substr(1));
        if (!reg)
            return std::nullopt;
        Operand op;
        op.kind = reg->first ? Operand::Kind::kCap : Operand::Kind::kGpr;
        op.reg = reg->second;
        return op;
    }

    if (auto imm = parseImmediate(text)) {
        Operand op;
        op.kind = Operand::Kind::kImm;
        op.imm = *imm;
        return op;
    }

    // Identifier -> label reference.
    if (std::isalpha(static_cast<unsigned char>(text[0])) ||
        text[0] == '_' || text[0] == '.') {
        Operand op;
        op.kind = Operand::Kind::kLabel;
        op.label = text;
        return op;
    }
    return std::nullopt;
}

/** Statement context handed to per-mnemonic emitters. */
class LineAssembler
{
  public:
    LineAssembler(Assembler &assembler,
                  std::map<std::string, Assembler::Label> &labels)
        : assembler_(assembler), labels_(labels)
    {
    }

    Assembler &a() { return assembler_; }

    Assembler::Label
    labelFor(const std::string &name)
    {
        auto it = labels_.find(name);
        if (it != labels_.end())
            return it->second;
        Assembler::Label label = assembler_.newLabel();
        labels_.emplace(name, label);
        return label;
    }

  private:
    Assembler &assembler_;
    std::map<std::string, Assembler::Label> &labels_;
};

using Ops = std::vector<Operand>;
using Emitter =
    std::function<bool(LineAssembler &, const Ops &, std::string &)>;

bool
expectKinds(const Ops &ops, const std::vector<Operand::Kind> &kinds,
            std::string &error)
{
    if (ops.size() != kinds.size()) {
        error = support::format("expected %zu operands, got %zu",
                                kinds.size(), ops.size());
        return false;
    }
    for (std::size_t index = 0; index < kinds.size(); ++index) {
        if (ops[index].kind != kinds[index]) {
            error = support::format("operand %zu has the wrong form",
                                    index + 1);
            return false;
        }
    }
    return true;
}

constexpr auto kGpr = Operand::Kind::kGpr;
constexpr auto kCap = Operand::Kind::kCap;
constexpr auto kImm = Operand::Kind::kImm;
constexpr auto kLabel = Operand::Kind::kLabel;
constexpr auto kMem = Operand::Kind::kMem;

/** Pseudo-ops: mnemonics that are not rows of the instruction table. */
const std::map<std::string, Emitter> &
pseudoOps()
{
    static const std::map<std::string, Emitter> table = {
        {"nop",
         [](LineAssembler &ctx, const Ops &ops, std::string &error) {
             if (!expectKinds(ops, {}, error))
                 return false;
             ctx.a().nop();
             return true;
         }},
        {"b",
         [](LineAssembler &ctx, const Ops &ops, std::string &error) {
             if (!expectKinds(ops, {kLabel}, error))
                 return false;
             ctx.a().b(ctx.labelFor(ops[0].label));
             return true;
         }},
        {"move",
         [](LineAssembler &ctx, const Ops &ops, std::string &error) {
             if (!expectKinds(ops, {kGpr, kGpr}, error))
                 return false;
             ctx.a().move(ops[0].reg, ops[1].reg);
             return true;
         }},
        {"li",
         [](LineAssembler &ctx, const Ops &ops, std::string &error) {
             if (!expectKinds(ops, {kGpr, kImm}, error))
                 return false;
             if (ops[1].imm < INT32_MIN || ops[1].imm > INT32_MAX) {
                 error = "constant does not fit li; use li64";
                 return false;
             }
             ctx.a().li(ops[0].reg, static_cast<std::int32_t>(ops[1].imm));
             return true;
         }},
        {"li64",
         [](LineAssembler &ctx, const Ops &ops, std::string &error) {
             if (!expectKinds(ops, {kGpr, kImm}, error))
                 return false;
             ctx.a().li64(ops[0].reg,
                          static_cast<std::uint64_t>(ops[1].imm));
             return true;
         }},
        {".word",
         [](LineAssembler &ctx, const Ops &ops, std::string &error) {
             if (!expectKinds(ops, {kImm}, error))
                 return false;
             ctx.a().emit(static_cast<std::uint32_t>(ops[0].imm));
             return true;
         }},
    };
    return table;
}

/** The operand kind a syntax operand ("t", "i(s)", ...) is written as. */
Operand::Kind
kindOf(std::string_view spec)
{
    if (spec.size() > 1)
        return kMem;
    switch (spec[0]) {
      case 'd': case 's': case 't': return kGpr;
      case 'D': case 'B': case 'T': return kCap;
      case 'p': case 'a': return kLabel;
      default: return kImm;
    }
}

/** How a diagnostic spells a register-indexed syntax: "$r, $index($cN)". */
std::string
spelled(std::string_view syntax)
{
    std::string text;
    for (char c : syntax) {
        switch (c) {
          case ',': text += ", "; break;
          case 'd': text += "$r"; break;
          case 'D': text += "$cd"; break;
          case 't': text += "$index"; break;
          case 'B': text += "$cN"; break;
          default: text += c; break;
        }
    }
    return text;
}

/**
 * Check ops against row's syntax and emit the instruction. A memory
 * operand x(y) is always the syntax's last operand; the three memory
 * families (legacy imm($gpr), capability imm($cN), register-indexed
 * $index($cN)) each keep their own diagnostics.
 */
bool
assembleOp(LineAssembler &ctx, const OpInfo &row, Ops ops,
           std::string &error)
{
    std::string_view syntax = row.syntax;
    std::vector<Operand::Kind> kinds;
    for (std::size_t start = 0; start < syntax.size();) {
        std::size_t comma = std::min(syntax.find(',', start), syntax.size());
        kinds.push_back(kindOf(syntax.substr(start, comma - start)));
        start = comma + 1;
    }
    std::size_t open = syntax.find('(');
    bool cap_imm = open != std::string_view::npos &&
                   syntax.substr(open - 1, 3) == "i(B";

    // Shorthands: "jalr $rs" links through $ra, and a capability
    // access may leave out a zero index ("cld $t0, 8($c1)").
    Operand implied;
    implied.kind = kGpr;
    if (row.op == Opcode::kJalr && ops.size() == 1 && ops[0].kind == kGpr) {
        implied.reg = reg::ra;
        ops.insert(ops.begin(), implied);
    } else if (cap_imm && ops.size() == 2 && ops[1].kind == kMem) {
        ops.insert(ops.begin() + 1, implied);
    }

    if (open == std::string_view::npos) {
        if (!expectKinds(ops, kinds, error))
            return false;
    } else if (syntax[open - 1] == 't') {
        bool fits = ops.size() == kinds.size() &&
                    ops.back().base_is_cap && ops.back().offset_is_reg;
        for (std::size_t k = 0; fits && k < kinds.size(); ++k)
            fits = ops[k].kind == kinds[k];
        if (!fits) {
            error = "expected " + spelled(syntax);
            return false;
        }
    } else if (cap_imm) {
        // The data operand's register file is not checked, so every
        // line this family has accepted still assembles.
        if (ops.size() != 3 || ops[1].kind != kGpr || ops[2].kind != kMem) {
            error = "expected $r, $index, imm($cN)";
            return false;
        }
        if (!ops[2].base_is_cap || ops[2].offset_is_reg) {
            error = "capability memory operand must be imm($cN)";
            return false;
        }
    } else {
        if (!expectKinds(ops, kinds, error))
            return false;
        if (ops.back().base_is_cap || ops.back().offset_is_reg) {
            error = "legacy memory operand must be imm($gpr)";
            return false;
        }
    }

    Operands values{};
    std::size_t next = 0;
    const std::string *label = nullptr;
    for (std::size_t k = 0; k < kinds.size(); ++k) {
        const Operand &op = ops[k];
        switch (kinds[k]) {
          case kMem:
            values[next++] = op.offset_is_reg ? op.offset_reg : op.imm;
            values[next++] = op.base_reg;
            break;
          case kImm: values[next++] = op.imm; break;
          case kLabel:
            label = &op.label;
            ++next;
            break;
          default: values[next++] = op.reg; break;
        }
    }
    error = operandError(row.op, values);
    if (!error.empty())
        return false;
    if (label != nullptr)
        ctx.a().emit(row.op, values, ctx.labelFor(*label));
    else
        ctx.a().emit(row.op, values);
    return true;
}

/** The table row spelled mnemonic, or nullptr. */
const OpInfo *
findOp(const std::string &mnemonic)
{
    for (const OpInfo &row : kOps) {
        if (row.op != Opcode::kInvalid && mnemonic == row.name)
            return &row;
    }
    return nullptr;
}

} // namespace

AsmResult
assembleText(const std::string &source, std::uint64_t base_addr)
{
    AsmResult result;
    Assembler assembler(base_addr);
    std::map<std::string, Assembler::Label> labels;
    std::map<std::string, bool> bound;
    LineAssembler ctx(assembler, labels);

    std::istringstream stream(source);
    std::string raw_line;
    unsigned line_number = 0;

    while (std::getline(stream, raw_line)) {
        ++line_number;
        std::string line = trim(stripComment(raw_line));

        // Peel leading labels ("name:").
        while (true) {
            std::size_t colon = line.find(':');
            if (colon == std::string::npos)
                break;
            std::string head = trim(line.substr(0, colon));
            // Only treat as label when the head is a lone identifier.
            bool is_label = !head.empty();
            for (char c : head) {
                if (!std::isalnum(static_cast<unsigned char>(c)) &&
                    c != '_' && c != '.')
                    is_label = false;
            }
            if (!is_label ||
                std::isdigit(static_cast<unsigned char>(head[0])))
                break;
            if (bound[head]) {
                result.errors.push_back(
                    {line_number,
                     support::format("label '%s' bound twice",
                                     head.c_str())});
            } else {
                assembler.bind(ctx.labelFor(head));
                bound[head] = true;
            }
            line = trim(line.substr(colon + 1));
        }
        if (line.empty())
            continue;

        // Mnemonic and operand list.
        std::size_t space = line.find_first_of(" \t");
        std::string mnemonic = line.substr(0, space);
        for (char &c : mnemonic)
            c = static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
        std::string rest =
            space == std::string::npos ? "" : trim(line.substr(space));

        Ops ops;
        bool parse_ok = true;
        if (!rest.empty()) {
            std::size_t start = 0;
            while (start <= rest.size()) {
                std::size_t comma = rest.find(',', start);
                std::string piece =
                    comma == std::string::npos
                        ? rest.substr(start)
                        : rest.substr(start, comma - start);
                auto operand = parseOperand(piece);
                if (!operand) {
                    result.errors.push_back(
                        {line_number,
                         support::format("cannot parse operand '%s'",
                                         trim(piece).c_str())});
                    parse_ok = false;
                    break;
                }
                ops.push_back(*operand);
                if (comma == std::string::npos)
                    break;
                start = comma + 1;
            }
        }
        if (!parse_ok)
            continue;

        std::string error;
        auto pseudo = pseudoOps().find(mnemonic);
        const OpInfo *row = findOp(mnemonic);
        if (pseudo != pseudoOps().end()) {
            if (!pseudo->second(ctx, ops, error))
                result.errors.push_back({line_number, error});
        } else if (row == nullptr) {
            result.errors.push_back(
                {line_number, support::format("unknown mnemonic '%s'",
                                              mnemonic.c_str())});
        } else if (!assembleOp(ctx, *row, ops, error)) {
            result.errors.push_back({line_number, error});
        }
    }

    // Unbound labels referenced by branches would panic in finish();
    // report them as errors instead.
    for (const auto &[name, label] : labels) {
        if (!bound[name]) {
            result.errors.push_back(
                {0, support::format("label '%s' never defined",
                                    name.c_str())});
        }
    }
    if (!result.errors.empty())
        return result;

    result.words = assembler.finish();
    return result;
}

} // namespace cheri::isa
