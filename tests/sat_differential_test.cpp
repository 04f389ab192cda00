// Brute-force differential test of the CDCL solver on small, binary-heavy
// incremental CNFs (at most 12 variables), over every config variant.
//
// Binary clauses take their own path through propagation, conflict
// analysis, minimization, final-conflict analysis and learnt-clause
// reduction, so the instances are mostly binary and the learnt database is
// reduced after almost every conflict: a binary learnt that is the reason
// of an assignment must survive reduce_learnts. Every answer is checked
// against exhaustive enumeration:
//   - a Sat model satisfies every clause and every assumption;
//   - an Unsat verdict agrees with brute force;
//   - failed_assumptions() is a subset of the assumptions that is itself
//     unsatisfiable together with the clauses.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sat/solver.hpp"
#include "solver_variants.hpp"
#include "util/rng.hpp"

namespace sepe::sat {
namespace {

/// Clauses as bit masks over at most 12 variables, for fast enumeration.
class Oracle {
 public:
  explicit Oracle(int nvars) : nvars_(nvars) {}

  void add(const std::vector<Lit>& clause) { masks_.push_back(mask_of(clause)); }

  /// True when some assignment satisfies every clause plus `units`.
  bool satisfiable(const std::vector<Lit>& units) const {
    std::vector<Mask> all = masks_;
    for (const Lit l : units) all.push_back(mask_of({l}));
    for (std::uint32_t m = 0; m < (1u << nvars_); ++m) {
      bool ok = true;
      for (const Mask& c : all) {
        if (((m & c.pos) | (~m & c.neg)) == 0) {
          ok = false;
          break;
        }
      }
      if (ok) return true;
    }
    return false;
  }

  bool model_ok(const Solver& s) const {
    for (const Mask& c : masks_) {
      bool sat = false;
      for (int v = 0; v < nvars_ && !sat; ++v) {
        const bool val = s.model_value(v);
        sat = (val && ((c.pos >> v) & 1)) || (!val && ((c.neg >> v) & 1));
      }
      if (!sat) return false;
    }
    return true;
  }

 private:
  struct Mask {
    std::uint32_t pos = 0, neg = 0;
  };

  static Mask mask_of(const std::vector<Lit>& clause) {
    Mask m;
    for (const Lit l : clause) (l.sign() ? m.neg : m.pos) |= 1u << l.var();
    return m;
  }

  int nvars_;
  std::vector<Mask> masks_;
};

/// The variant with learnt reduction firing after almost every conflict
/// and inprocessing (where the variant runs it) at every restart.
SolverConfig stressed_config(SolverConfig c) {
  c.reduce_base = 2;
  c.reduce_increment = 1;
  if (c.inprocess_interval != 0) c.inprocess_interval = 1;
  return c;
}

/// Three clauses in five are binary, the rest ternary.
std::vector<Lit> random_clause(Rng& rng, int nvars) {
  const int width = rng.below(5) < 2 ? 3 : 2;
  std::vector<Lit> c;
  for (int k = 0; k < width; ++k)
    c.emplace_back(static_cast<int>(rng.below(nvars)), rng.flip());
  return c;
}

bool contains(const std::vector<Lit>& lits, Lit l) {
  for (const Lit x : lits)
    if (x == l) return true;
  return false;
}

TEST(SatDifferential, BinaryHeavyIncrementalMatchesBruteForce) {
  std::uint64_t seed = 0xb1a7;
  for (const testing::Variant& variant : testing::solver_variants()) {
    Rng rng(seed++);
    for (int round = 0; round < 300; ++round) {
      const int nvars = 3 + static_cast<int>(rng.below(10));  // 3..12
      Solver s(stressed_config(variant.config));
      for (int v = 0; v < nvars; ++v) s.new_var();
      Oracle oracle(nvars);
      for (int batch = 0; batch < 16; ++batch) {
        const int fresh = batch == 0 ? nvars : 1 + static_cast<int>(rng.below(2));
        for (int i = 0; i < fresh; ++i) {
          const std::vector<Lit> c = random_clause(rng, nvars);
          oracle.add(c);
          s.add_clause(c);
        }
        std::vector<Lit> assumptions;
        const int nassume = static_cast<int>(rng.below(5));
        for (int i = 0; i < nassume; ++i)
          assumptions.emplace_back(static_cast<int>(rng.below(nvars)), rng.flip());

        const SolveResult r = s.solve(assumptions);
        const bool expect_sat = oracle.satisfiable(assumptions);
        ASSERT_NE(r, SolveResult::Unknown) << variant.name << " round " << round;
        ASSERT_EQ(r == SolveResult::Sat, expect_sat)
            << variant.name << " round " << round << " batch " << batch;
        if (r == SolveResult::Sat) {
          ASSERT_TRUE(oracle.model_ok(s))
              << variant.name << " round " << round << " batch " << batch;
          for (const Lit a : assumptions) ASSERT_TRUE(s.model_value(a));
        } else {
          const std::vector<Lit>& failed = s.failed_assumptions();
          for (const Lit l : failed)
            ASSERT_TRUE(contains(assumptions, l))
                << variant.name << " round " << round << " batch " << batch
                << ": failed literal is not an assumption";
          ASSERT_FALSE(oracle.satisfiable(failed))
              << variant.name << " round " << round << " batch " << batch
              << ": failed assumptions are satisfiable with the clauses";
        }

        // The plain formula, too; once it is Unsat the solver stays so.
        const SolveResult plain = s.solve();
        ASSERT_EQ(plain == SolveResult::Sat, oracle.satisfiable({}))
            << variant.name << " round " << round << " batch " << batch;
        if (plain == SolveResult::Unsat) break;
        ASSERT_TRUE(oracle.model_ok(s));
      }
    }
  }
}

}  // namespace
}  // namespace sepe::sat
