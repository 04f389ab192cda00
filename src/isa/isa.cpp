#include "isa/isa.hpp"

#include <cassert>
#include <cctype>
#include <sstream>

namespace sepe::isa {

namespace {

struct OpInfo {
  const char* name;
  Format format;
};

const OpInfo kOpInfo[kNumOpcodes] = {
    {"ADD", Format::R},     {"SUB", Format::R},    {"SLL", Format::R},
    {"SLT", Format::R},     {"SLTU", Format::R},   {"XOR", Format::R},
    {"SRL", Format::R},     {"SRA", Format::R},    {"OR", Format::R},
    {"AND", Format::R},     {"ADDI", Format::I},   {"SLTI", Format::I},
    {"SLTIU", Format::I},   {"XORI", Format::I},   {"ORI", Format::I},
    {"ANDI", Format::I},    {"SLLI", Format::Shift}, {"SRLI", Format::Shift},
    {"SRAI", Format::Shift}, {"LUI", Format::U},   {"LW", Format::Load},
    {"SW", Format::Store},  {"MUL", Format::R},    {"MULH", Format::R},
    {"MULHSU", Format::R},  {"MULHU", Format::R},  {"DIV", Format::R},
    {"DIVU", Format::R},    {"REM", Format::R},    {"REMU", Format::R},
    {"NOP", Format::None},
};

}  // namespace

const char* opcode_name(Opcode op) { return kOpInfo[static_cast<int>(op)].name; }

std::optional<Opcode> opcode_from_name(const std::string& name) {
  std::string upper;
  for (char c : name) upper.push_back(static_cast<char>(std::toupper(c)));
  for (int i = 0; i < kNumOpcodes; ++i)
    if (upper == kOpInfo[i].name) return static_cast<Opcode>(i);
  return std::nullopt;
}

Format opcode_format(Opcode op) { return kOpInfo[static_cast<int>(op)].format; }

bool is_rtype(Opcode op) { return opcode_format(op) == Format::R; }
bool is_itype(Opcode op) {
  const Format f = opcode_format(op);
  return f == Format::I || f == Format::Shift;
}
bool is_mul_family(Opcode op) {
  return op == Opcode::MUL || op == Opcode::MULH || op == Opcode::MULHSU ||
         op == Opcode::MULHU;
}
bool is_div_family(Opcode op) {
  return op == Opcode::DIV || op == Opcode::DIVU || op == Opcode::REM ||
         op == Opcode::REMU;
}
bool is_load(Opcode op) { return op == Opcode::LW; }
bool is_store(Opcode op) { return op == Opcode::SW; }
bool is_commutative(Opcode op) {
  return op == Opcode::ADD || op == Opcode::AND || op == Opcode::OR ||
         op == Opcode::XOR || op == Opcode::MUL || op == Opcode::MULH ||
         op == Opcode::MULHU;
}
bool writes_register(Opcode op) { return op != Opcode::SW && op != Opcode::NOP; }

Instruction Instruction::rtype(Opcode op, unsigned rd, unsigned rs1, unsigned rs2) {
  assert(is_rtype(op) && rd < 32 && rs1 < 32 && rs2 < 32);
  return Instruction{op, static_cast<std::uint8_t>(rd), static_cast<std::uint8_t>(rs1),
                     static_cast<std::uint8_t>(rs2), 0};
}

Instruction Instruction::itype(Opcode op, unsigned rd, unsigned rs1, std::int32_t imm) {
  assert(is_itype(op) && rd < 32 && rs1 < 32);
  if (opcode_format(op) == Format::Shift) {
    assert(imm >= 0 && imm < 32);
  } else {
    assert(imm >= -2048 && imm <= 2047);
  }
  return Instruction{op, static_cast<std::uint8_t>(rd), static_cast<std::uint8_t>(rs1),
                     0, imm};
}

Instruction Instruction::lui(unsigned rd, std::int32_t imm20) {
  assert(rd < 32 && imm20 >= 0 && imm20 < (1 << 20));
  return Instruction{Opcode::LUI, static_cast<std::uint8_t>(rd), 0, 0, imm20};
}

Instruction Instruction::lw(unsigned rd, unsigned rs1, std::int32_t offset) {
  assert(rd < 32 && rs1 < 32 && offset >= -2048 && offset <= 2047);
  return Instruction{Opcode::LW, static_cast<std::uint8_t>(rd),
                     static_cast<std::uint8_t>(rs1), 0, offset};
}

Instruction Instruction::sw(unsigned rs2, unsigned rs1, std::int32_t offset) {
  assert(rs2 < 32 && rs1 < 32 && offset >= -2048 && offset <= 2047);
  return Instruction{Opcode::SW, 0, static_cast<std::uint8_t>(rs1),
                     static_cast<std::uint8_t>(rs2), offset};
}

std::string Instruction::to_string() const {
  std::ostringstream os;
  os << opcode_name(op);
  switch (opcode_format(op)) {
    case Format::R:
      os << " x" << int(rd) << ", x" << int(rs1) << ", x" << int(rs2);
      break;
    case Format::I:
    case Format::Shift:
      os << " x" << int(rd) << ", x" << int(rs1) << ", " << imm;
      break;
    case Format::U:
      os << " x" << int(rd) << ", " << imm;
      break;
    case Format::Load:
      os << " x" << int(rd) << ", " << imm << "(x" << int(rs1) << ")";
      break;
    case Format::Store:
      os << " x" << int(rs2) << ", " << imm << "(x" << int(rs1) << ")";
      break;
    case Format::None:
      break;
  }
  return os.str();
}

namespace {

struct EncodingSpec {
  std::uint32_t opcode7;
  std::uint32_t funct3;
  std::uint32_t funct7;
};

// Standard RV32IM encodings.
bool encoding_for(Opcode op, EncodingSpec& spec) {
  switch (op) {
    case Opcode::ADD: spec = {0x33, 0x0, 0x00}; return true;
    case Opcode::SUB: spec = {0x33, 0x0, 0x20}; return true;
    case Opcode::SLL: spec = {0x33, 0x1, 0x00}; return true;
    case Opcode::SLT: spec = {0x33, 0x2, 0x00}; return true;
    case Opcode::SLTU: spec = {0x33, 0x3, 0x00}; return true;
    case Opcode::XOR: spec = {0x33, 0x4, 0x00}; return true;
    case Opcode::SRL: spec = {0x33, 0x5, 0x00}; return true;
    case Opcode::SRA: spec = {0x33, 0x5, 0x20}; return true;
    case Opcode::OR: spec = {0x33, 0x6, 0x00}; return true;
    case Opcode::AND: spec = {0x33, 0x7, 0x00}; return true;
    case Opcode::MUL: spec = {0x33, 0x0, 0x01}; return true;
    case Opcode::MULH: spec = {0x33, 0x1, 0x01}; return true;
    case Opcode::MULHSU: spec = {0x33, 0x2, 0x01}; return true;
    case Opcode::MULHU: spec = {0x33, 0x3, 0x01}; return true;
    case Opcode::DIV: spec = {0x33, 0x4, 0x01}; return true;
    case Opcode::DIVU: spec = {0x33, 0x5, 0x01}; return true;
    case Opcode::REM: spec = {0x33, 0x6, 0x01}; return true;
    case Opcode::REMU: spec = {0x33, 0x7, 0x01}; return true;
    case Opcode::ADDI: spec = {0x13, 0x0, 0}; return true;
    case Opcode::SLTI: spec = {0x13, 0x2, 0}; return true;
    case Opcode::SLTIU: spec = {0x13, 0x3, 0}; return true;
    case Opcode::XORI: spec = {0x13, 0x4, 0}; return true;
    case Opcode::ORI: spec = {0x13, 0x6, 0}; return true;
    case Opcode::ANDI: spec = {0x13, 0x7, 0}; return true;
    case Opcode::SLLI: spec = {0x13, 0x1, 0x00}; return true;
    case Opcode::SRLI: spec = {0x13, 0x5, 0x00}; return true;
    case Opcode::SRAI: spec = {0x13, 0x5, 0x20}; return true;
    case Opcode::LUI: spec = {0x37, 0, 0}; return true;
    case Opcode::LW: spec = {0x03, 0x2, 0}; return true;
    case Opcode::SW: spec = {0x23, 0x2, 0}; return true;
    case Opcode::NOP: spec = {0x13, 0x0, 0}; return true;  // ADDI x0,x0,0
  }
  return false;
}

}  // namespace

std::uint32_t encode(const Instruction& inst) {
  EncodingSpec spec{};
  const bool ok = encoding_for(inst.op, spec);
  assert(ok);
  (void)ok;
  const std::uint32_t rd = inst.rd, rs1 = inst.rs1, rs2 = inst.rs2;
  const std::uint32_t imm = static_cast<std::uint32_t>(inst.imm);
  switch (opcode_format(inst.op)) {
    case Format::R:
      return (spec.funct7 << 25) | (rs2 << 20) | (rs1 << 15) | (spec.funct3 << 12) |
             (rd << 7) | spec.opcode7;
    case Format::I:
    case Format::Load:
      return ((imm & 0xfff) << 20) | (rs1 << 15) | (spec.funct3 << 12) | (rd << 7) |
             spec.opcode7;
    case Format::Shift:
      return (spec.funct7 << 25) | ((imm & 0x1f) << 20) | (rs1 << 15) |
             (spec.funct3 << 12) | (rd << 7) | spec.opcode7;
    case Format::U:
      return ((imm & 0xfffff) << 12) | (rd << 7) | spec.opcode7;
    case Format::Store:
      return (((imm >> 5) & 0x7f) << 25) | (rs2 << 20) | (rs1 << 15) |
             (spec.funct3 << 12) | ((imm & 0x1f) << 7) | spec.opcode7;
    case Format::None:
      return 0x00000013;  // ADDI x0,x0,0
  }
  return 0;
}

std::optional<Instruction> decode(std::uint32_t word) {
  const std::uint32_t opcode7 = word & 0x7f;
  const std::uint32_t rd = (word >> 7) & 0x1f;
  const std::uint32_t funct3 = (word >> 12) & 0x7;
  const std::uint32_t rs1 = (word >> 15) & 0x1f;
  const std::uint32_t rs2 = (word >> 20) & 0x1f;
  const std::uint32_t funct7 = (word >> 25) & 0x7f;
  const auto sext12 = [](std::uint32_t v) {
    return static_cast<std::int32_t>(v << 20) >> 20;
  };

  switch (opcode7) {
    case 0x33: {  // R-type
      for (int i = 0; i < kNumOpcodes; ++i) {
        const Opcode op = static_cast<Opcode>(i);
        if (!is_rtype(op)) continue;
        EncodingSpec spec{};
        encoding_for(op, spec);
        if (spec.funct3 == funct3 && spec.funct7 == funct7)
          return Instruction::rtype(op, rd, rs1, rs2);
      }
      return std::nullopt;
    }
    case 0x13: {  // I-type ALU
      const std::int32_t imm = sext12(word >> 20);
      switch (funct3) {
        case 0x0: return Instruction::itype(Opcode::ADDI, rd, rs1, imm);
        case 0x2: return Instruction::itype(Opcode::SLTI, rd, rs1, imm);
        case 0x3: return Instruction::itype(Opcode::SLTIU, rd, rs1, imm);
        case 0x4: return Instruction::itype(Opcode::XORI, rd, rs1, imm);
        case 0x6: return Instruction::itype(Opcode::ORI, rd, rs1, imm);
        case 0x7: return Instruction::itype(Opcode::ANDI, rd, rs1, imm);
        case 0x1:
          if (funct7 == 0x00) return Instruction::itype(Opcode::SLLI, rd, rs1, rs2);
          return std::nullopt;
        case 0x5:
          if (funct7 == 0x00) return Instruction::itype(Opcode::SRLI, rd, rs1, rs2);
          if (funct7 == 0x20) return Instruction::itype(Opcode::SRAI, rd, rs1, rs2);
          return std::nullopt;
      }
      return std::nullopt;
    }
    case 0x37:
      return Instruction::lui(rd, static_cast<std::int32_t>((word >> 12) & 0xfffff));
    case 0x03:
      if (funct3 == 0x2) return Instruction::lw(rd, rs1, sext12(word >> 20));
      return std::nullopt;
    case 0x23:
      if (funct3 == 0x2)
        return Instruction::sw(rs2, rs1, sext12((funct7 << 5) | rd));
      return std::nullopt;
  }
  return std::nullopt;
}

namespace {

// Parse "x7" / "X7" register tokens.
std::optional<unsigned> parse_reg(const std::string& tok) {
  if (tok.size() < 2 || (tok[0] != 'x' && tok[0] != 'X')) return std::nullopt;
  unsigned v = 0;
  for (std::size_t i = 1; i < tok.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(tok[i]))) return std::nullopt;
    v = v * 10 + static_cast<unsigned>(tok[i] - '0');
  }
  return v < 32 ? std::optional<unsigned>(v) : std::nullopt;
}

std::optional<std::int32_t> parse_imm(const std::string& tok) {
  if (tok.empty()) return std::nullopt;
  try {
    std::size_t pos = 0;
    const long v = std::stol(tok, &pos, 0);  // handles 0x..., decimal, negatives
    if (pos != tok.size()) return std::nullopt;
    return static_cast<std::int32_t>(v);
  } catch (...) {
    return std::nullopt;
  }
}

std::vector<std::string> tokenize(const std::string& line) {
  std::vector<std::string> toks;
  std::string cur;
  for (char c : line) {
    if (std::isspace(static_cast<unsigned char>(c)) || c == ',' || c == '(' || c == ')') {
      if (!cur.empty()) toks.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) toks.push_back(cur);
  return toks;
}

}  // namespace

std::optional<Instruction> parse_asm(const std::string& line) {
  const auto toks = tokenize(line);
  if (toks.empty()) return std::nullopt;
  const auto op = opcode_from_name(toks[0]);
  if (!op) return std::nullopt;

  switch (opcode_format(*op)) {
    case Format::R: {
      if (toks.size() != 4) return std::nullopt;
      const auto rd = parse_reg(toks[1]), rs1 = parse_reg(toks[2]),
                 rs2 = parse_reg(toks[3]);
      if (!rd || !rs1 || !rs2) return std::nullopt;
      return Instruction::rtype(*op, *rd, *rs1, *rs2);
    }
    case Format::I:
    case Format::Shift: {
      if (toks.size() != 4) return std::nullopt;
      const auto rd = parse_reg(toks[1]), rs1 = parse_reg(toks[2]);
      const auto imm = parse_imm(toks[3]);
      if (!rd || !rs1 || !imm) return std::nullopt;
      // I-type immediates are 12-bit two's complement: accept 0x800..0xfff
      // hex spellings as their negative values, reject out-of-range.
      std::int32_t v = *imm;
      if (opcode_format(*op) == Format::I) {
        if (v >= 2048 && v <= 4095) v -= 4096;
        if (v < -2048 || v > 2047) return std::nullopt;
      } else if (v < 0 || v > 31) {
        return std::nullopt;
      }
      return Instruction::itype(*op, *rd, *rs1, v);
    }
    case Format::U: {
      if (toks.size() != 3) return std::nullopt;
      const auto rd = parse_reg(toks[1]);
      const auto imm = parse_imm(toks[2]);
      if (!rd || !imm || *imm < 0 || *imm >= (1 << 20)) return std::nullopt;
      return Instruction::lui(*rd, *imm);
    }
    case Format::Load: {
      if (toks.size() != 4) return std::nullopt;  // lw rd, off (rs1)
      const auto rd = parse_reg(toks[1]);
      const auto off = parse_imm(toks[2]);
      const auto rs1 = parse_reg(toks[3]);
      if (!rd || !off || !rs1) return std::nullopt;
      return Instruction::lw(*rd, *rs1, *off);
    }
    case Format::Store: {
      if (toks.size() != 4) return std::nullopt;  // sw rs2, off (rs1)
      const auto rs2 = parse_reg(toks[1]);
      const auto off = parse_imm(toks[2]);
      const auto rs1 = parse_reg(toks[3]);
      if (!rs2 || !off || !rs1) return std::nullopt;
      return Instruction::sw(*rs2, *rs1, *off);
    }
    case Format::None:
      return Instruction::nop();
  }
  return std::nullopt;
}

std::string program_to_string(const Program& p) {
  std::string s;
  for (const Instruction& inst : p) {
    s += inst.to_string();
    s += '\n';
  }
  return s;
}

}  // namespace sepe::isa
