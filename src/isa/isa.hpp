// isa.hpp — RV32IM instruction set: opcodes, formats, encode/decode, asm.
//
// The instruction vocabulary shared by the synthesizer (src/synth), the
// golden simulator (src/sim), the processor model (src/proc) and the QED
// modules (src/qed). The datapath width is parameterized (see
// semantics.hpp) so the BMC benches can run at reduced XLEN; encodings are
// the standard 32-bit RV32IM forms regardless of datapath width.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace sepe::isa {

/// RV32IM mnemonics (user-level subset used throughout the paper).
enum class Opcode : std::uint8_t {
  // RV32I register-register
  ADD, SUB, SLL, SLT, SLTU, XOR, SRL, SRA, OR, AND,
  // RV32I register-immediate
  ADDI, SLTI, SLTIU, XORI, ORI, ANDI, SLLI, SRLI, SRAI,
  // Upper-immediate
  LUI,
  // Loads / stores (word only; the QED memory discipline uses word access)
  LW, SW,
  // RV32M
  MUL, MULH, MULHSU, MULHU, DIV, DIVU, REM, REMU,
  // Used as an explicit no-op bubble by the pipeline model
  NOP,
};

constexpr int kNumOpcodes = static_cast<int>(Opcode::NOP) + 1;

const char* opcode_name(Opcode op);
std::optional<Opcode> opcode_from_name(const std::string& name);

/// Instruction format classes (drives operand/immediates handling).
enum class Format : std::uint8_t { R, I, Shift, U, Load, Store, None };

Format opcode_format(Opcode op);

bool is_rtype(Opcode op);
bool is_itype(Opcode op);          // ALU immediate forms incl. shifts
bool is_mul_family(Opcode op);
bool is_div_family(Opcode op);
bool is_load(Opcode op);
bool is_store(Opcode op);
/// An R-type opcode whose result is symmetric in rs1 and rs2.
bool is_commutative(Opcode op);
/// Writes a general-purpose register (everything except SW and NOP).
bool writes_register(Opcode op);

/// A decoded instruction. `imm` carries the sign-extended immediate for
/// I/S-type, the raw 20-bit payload for LUI, and the shift amount for
/// SLLI/SRLI/SRAI.
struct Instruction {
  Opcode op = Opcode::NOP;
  std::uint8_t rd = 0;
  std::uint8_t rs1 = 0;
  std::uint8_t rs2 = 0;
  std::int32_t imm = 0;

  static Instruction rtype(Opcode op, unsigned rd, unsigned rs1, unsigned rs2);
  static Instruction itype(Opcode op, unsigned rd, unsigned rs1, std::int32_t imm);
  static Instruction lui(unsigned rd, std::int32_t imm20);
  static Instruction lw(unsigned rd, unsigned rs1, std::int32_t offset);
  static Instruction sw(unsigned rs2, unsigned rs1, std::int32_t offset);
  static Instruction nop() { return Instruction{}; }

  bool operator==(const Instruction& o) const = default;

  /// "SUB x1, x2, x3" style rendering.
  std::string to_string() const;
};

/// Encode to the standard RV32 32-bit word. NOP encodes as ADDI x0,x0,0.
std::uint32_t encode(const Instruction& inst);

/// Decode a 32-bit word; nullopt for encodings outside the supported
/// subset.
std::optional<Instruction> decode(std::uint32_t word);

/// Parse one line of assembly ("sub x1, x2, x3", "lw x5, 8(x2)",
/// "addi x1, x0, -5"); nullopt on syntax error.
std::optional<Instruction> parse_asm(const std::string& line);

/// A straight-line program (the synthesis output unit).
using Program = std::vector<Instruction>;

std::string program_to_string(const Program& p);

}  // namespace sepe::isa
