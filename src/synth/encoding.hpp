// encoding.hpp — component-based program synthesis encoding + CEGIS core.
//
// Implements the constraint system of paper §2.2/§4.1 (after Gulwani [11]
// and Buchwald [12]):
//
//   * location variables L: every component instance ("line") gets an
//     output slot; every component data input gets a source location
//     (a spec register input or an earlier slot);
//   * ψ_wfp : slot permutation (alldiff), acyclicity (inputs read strictly
//     earlier locations), and a no-dead-code constraint (every line's
//     output is the program output or feeds another line);
//   * ψ_conn: value-at-location muxes tie per-example slot values to line
//     outputs;
//   * φ_lib : each line's output equals its component's semantics;
//   * the identity-exclusion constraint of §4.1: a component with the same
//     name as the original instruction must not read the spec inputs
//     verbatim (otherwise synthesis would degenerate into SQED
//     self-duplication);
//   * internal attributes (DIC/CIC immediates) are solved constants,
//     optionally *passthrough-wired* to the original instruction's own
//     immediate operand of the same width class;
//   * symmetry breaking, which [11] and [12] do not have:
//       (a) when adjacent multiset entries are the same component, their
//           output slots increase (out_loc[j] < out_loc[j+1]). Sound
//           because swapping every variable of two identical lines maps
//           a solution to a solution;
//       (b) a component whose one instruction is a commutative R-type
//           (isa::is_commutative) reads its inputs in non-decreasing
//           location order (in_loc[0] <= in_loc[1]). Sound because
//           swapping the two input locations leaves the line's value
//           unchanged. Skipped on a line the identity exclusion
//           constrains: that constraint is not swap-invariant (for spec
//           ADD over {ADD}, ADD v0, in1, in0 is the only program).
//     Every solution therefore has a representative satisfying both, so a
//     multiset succeeds or fails exactly as without them; only the
//     refutations of failing multisets shrink.
//
// cegis_multiset() runs the full CEGIS refinement loop (synthesize over
// accumulated examples -> verify candidate -> add counterexample) for one
// multiset of components, exactly the CEGIS(g, S) call of Algorithm 1.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "smt/eval.hpp"
#include "smt/smt_solver.hpp"
#include "synth/component.hpp"
#include "synth/spec.hpp"

namespace sepe::synth {

/// An internal-attribute binding in a synthesized line: either a solved
/// constant or a passthrough of one of the spec's immediate inputs.
struct AttrBinding {
  bool passthrough = false;
  unsigned input_index = 0;  // spec input index when passthrough
  BitVec constant;           // attr-class width when !passthrough
};

/// One line of a synthesized program, in execution order.
struct SynthLine {
  const Component* comp = nullptr;
  std::vector<unsigned> input_locs;  // < num_reg_inputs: spec reg input;
                                     // else line index + num_reg_inputs
  std::vector<AttrBinding> attrs;
};

/// A verified synthesized program: the semantically equivalent program of
/// the paper. Lines are in execution order; the last line produces the
/// program output.
struct SynthProgram {
  const SynthSpec* spec = nullptr;
  std::vector<SynthLine> lines;

  /// Total instruction count after lowering (components may expand).
  unsigned instruction_count() const;

  /// Build the program's output term over the given spec input terms.
  smt::TermRef to_term(smt::TermManager& mgr,
                       const std::vector<smt::TermRef>& spec_inputs,
                       unsigned xlen) const;

  /// Concrete execution (for tests / QED testing).
  BitVec eval(const std::vector<BitVec>& spec_inputs, unsigned xlen) const;

  /// Human-readable listing, e.g. "XOR v0, in0, in1".
  std::string to_string() const;

  /// Canonical fingerprint used to deduplicate programs.
  std::string fingerprint() const;

  /// Does any instruction of the lowered program use `op`? (Table-1 bug
  /// detection needs equivalent programs that avoid the buggy opcode.)
  bool uses_opcode(isa::Opcode op) const;

  /// Lower to concrete instructions. `in_regs` maps spec reg inputs to
  /// register numbers, `imm_values` gives the original instruction's
  /// immediate operands (for passthrough attrs), `out_reg` receives the
  /// result and `temps` supplies scratch registers (enough for
  /// intermediate lines + component-internal temporaries; consumed in
  /// order, respecting read-after-write as §5 requires).
  isa::Program lower(const std::vector<std::uint8_t>& in_regs, std::uint8_t out_reg,
                     const std::vector<std::int32_t>& imm_values,
                     const std::vector<std::uint8_t>& temps) const;

  /// Scratch registers lower() consumes.
  unsigned temps_needed() const;
};

/// Budgets and knobs for one CEGIS run.
struct CegisOptions {
  unsigned xlen = 16;
  unsigned max_iterations = 24;
  std::uint64_t synth_conflict_budget = 200000;
  std::uint64_t verify_conflict_budget = 400000;
  /// Wall cap per synthesis solver call (0 = none); bounds monolithic
  /// classical-CEGIS queries that a conflict budget alone under-controls.
  double synth_seconds_budget = 0.0;
  bool exclude_identity = true;       // the §4.1 input constraint
  bool require_all_outputs_used = true;
  /// Forbid the program's *output* line from lowering to the original
  /// instruction's opcode. Optional strengthening of the §4.1 constraint:
  /// it rules out degenerate "conjugation-prefix" programs whose final
  /// instruction recomputes g on identical values (which a uniform
  /// single-instruction bug would corrupt identically on both streams).
  bool forbid_output_op = false;
};

/// Counters for the evaluation harness.
struct CegisStats {
  unsigned iterations = 0;
  unsigned examples = 0;
  std::uint64_t solver_conflicts = 0;
};

/// The two examples every CEGIS run starts from, before any
/// counterexample: every input 1, then every input 0x5a…5a.
std::vector<std::vector<BitVec>> seed_examples(const SynthSpec& spec, unsigned xlen);

/// CEGIS(g, S): search for a program over exactly the components of
/// `multiset` that is semantically equivalent to `spec` for all inputs.
/// Returns nullopt if the multiset cannot synthesize the spec (or a
/// resource budget was exhausted).
std::optional<SynthProgram> cegis_multiset(const SynthSpec& spec,
                                           const std::vector<const Component*>& multiset,
                                           const CegisOptions& options,
                                           CegisStats* stats = nullptr);

/// Indices of the spec inputs an attribute of class `cls` may be
/// passthrough-wired to: the same class, or a Shamt5 input for an Imm12
/// attribute (zero-extended).
std::vector<unsigned> passthrough_candidates(const SynthSpec& spec, AttrClass cls);

/// Exhaustive-for-all-inputs equivalence check of an already-built
/// program against its spec (used by tests and by the width-generic
/// re-verification step before a program enters the equivalence table).
bool verify_program(const SynthProgram& program, unsigned xlen,
                    std::uint64_t conflict_budget = 0);

}  // namespace sepe::synth
