// Search pins for the CDCL solver: exact counter values, not just verdicts.
//
// A hot-path change to sat::Solver (propagation, conflict analysis,
// minimization, inprocessing bookkeeping) is meant to leave the search
// untouched: the same decisions, trail, learnt clauses and watch order,
// hence the same counters. These fixed, seeded workloads record the exact
// num_conflicts / num_decisions / num_propagations (and the inprocessing
// counters) each portfolio member reaches. Any drift means the search
// changed; re-record the table only for a change that is meant to alter
// the search (docs/SOLVER.md, "Search-identical changes").
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "sat/solver.hpp"
#include "util/rng.hpp"

namespace sepe::sat {
namespace {

enum Workload { kMixed, kIncremental, kAssumptions };

const char* workload_name(Workload w) {
  switch (w) {
    case kMixed: return "kMixed";
    case kIncremental: return "kIncremental";
    case kAssumptions: return "kAssumptions";
  }
  return "?";
}

/// One recorded row: how many solve() calls answered Sat and Unsat, the
/// counters after the last call, and an FNV-1a digest of every verdict,
/// model, conflict count and decision count along the way.
struct Pin {
  unsigned member;
  Workload workload;
  unsigned sat;
  unsigned unsat;
  std::uint64_t conflicts;
  std::uint64_t decisions;
  std::uint64_t propagations;
  std::uint64_t eliminated;
  std::uint64_t subsumed;
  std::uint64_t vivified;
  std::uint64_t digest;

  bool operator==(const Pin&) const = default;
};

/// The portfolio member with its reduction and inprocessing cadences cut
/// so both fire many times within a few thousand conflicts.
SolverConfig pinned_config(unsigned member) {
  SolverConfig c = SolverConfig::portfolio_member(member);
  c.reduce_base = 300;
  c.reduce_increment = 150;
  if (c.inprocess_interval != 0) c.inprocess_interval = 400;
  return c;
}

/// Random clause over 2 or 3 distinct variables, binary with
/// probability `binary_pct` percent.
std::vector<Lit> random_clause(Rng& rng, int nvars, unsigned binary_pct) {
  const int width = rng.below(100) < binary_pct ? 2 : 3;
  std::vector<Lit> c;
  while (static_cast<int>(c.size()) < width) {
    const int v = static_cast<int>(rng.below(nvars));
    bool fresh = true;
    for (const Lit l : c) fresh = fresh && l.var() != v;
    if (fresh) c.emplace_back(v, rng.flip());
  }
  return c;
}

class Recorder {
 public:
  Recorder(const Solver& s, unsigned member, Workload w) : s_(s) {
    pin_.member = member;
    pin_.workload = w;
    pin_.digest = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  }

  void solved(SolveResult r) {
    pin_.sat += r == SolveResult::Sat;
    pin_.unsat += r == SolveResult::Unsat;
    mix(static_cast<std::uint64_t>(r));
    if (r == SolveResult::Sat) {
      for (int v = 0; v < s_.num_vars(); ++v) mix(s_.model_value(v));
    }
    mix(s_.num_conflicts());
    mix(s_.num_decisions());
  }

  Pin pin() const {
    Pin p = pin_;
    p.conflicts = s_.num_conflicts();
    p.decisions = s_.num_decisions();
    p.propagations = s_.num_propagations();
    p.eliminated = s_.num_eliminated_vars();
    p.subsumed = s_.num_subsumed_clauses();
    p.vivified = s_.num_vivified_clauses();
    return p;
  }

 private:
  void mix(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      pin_.digest ^= (x >> (8 * i)) & 0xff;
      pin_.digest *= 0x100000001b3ULL;
    }
  }

  const Solver& s_;
  Pin pin_{};
};

Pin run_workload(unsigned member, Workload w) {
  Solver s(pinned_config(member));
  Recorder rec(s, member, w);
  Rng rng(0x5e9e5e9e + static_cast<std::uint64_t>(w));
  switch (w) {
    case kMixed: {
      // Near-threshold mixed binary/ternary CNF: one hard solve.
      constexpr int kVars = 360;
      for (int v = 0; v < kVars; ++v) s.new_var();
      for (int i = 0; i < 1290; ++i) s.add_clause(random_clause(rng, kVars, 12));
      rec.solved(s.solve());
      break;
    }
    case kIncremental: {
      // Clauses arrive in batches between solves until the formula dies.
      constexpr int kVars = 250;
      for (int v = 0; v < kVars; ++v) s.new_var();
      for (int batch = 0; batch < 24; ++batch) {
        for (int i = 0; i < (batch == 0 ? 830 : 12); ++i)
          s.add_clause(random_clause(rng, kVars, 12));
        const SolveResult r = s.solve();
        rec.solved(r);
        if (r == SolveResult::Unsat) break;
      }
      break;
    }
    case kAssumptions: {
      // One satisfiable base, many assumption sets.
      constexpr int kVars = 250;
      for (int v = 0; v < kVars; ++v) s.new_var();
      for (int i = 0; i < 860; ++i) s.add_clause(random_clause(rng, kVars, 12));
      for (int round = 0; round < 40; ++round) {
        std::vector<Lit> assumptions;
        const int n = 4 + static_cast<int>(rng.below(12));
        for (int i = 0; i < n; ++i)
          assumptions.emplace_back(static_cast<int>(rng.below(kVars)), rng.flip());
        rec.solved(s.solve(assumptions));
      }
      break;
    }
  }
  return rec.pin();
}

/// The row as it appears in kPins, for re-recording.
std::string row_text(const Pin& p) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{%u, %s, %u, %u, %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                ", %" PRIu64 ", %" PRIu64 ", 0x%016" PRIx64 "ULL},",
                p.member, workload_name(p.workload), p.sat, p.unsat, p.conflicts,
                p.decisions, p.propagations, p.eliminated, p.subsumed, p.vivified,
                p.digest);
  return buf;
}

// Recorded before the search-identical hot-path rework of the solver
// (implicit binary watches, literal-indexed values, poisoned
// minimization); that rework had to reproduce every row exactly.
constexpr Pin kPins[] = {
    {0, kMixed, 0, 1, 3153, 3927, 199328, 26, 17, 2, 0x29e3c0165ff06a2fULL},
    {0, kIncremental, 7, 1, 680, 1156, 38221, 12, 7, 1, 0xd0edc3e89de34b0fULL},
    {0, kAssumptions, 3, 37, 1387, 1787, 68942, 36, 11, 1, 0xaf5678a4235ff51aULL},
    {1, kMixed, 0, 1, 2373, 2903, 155015, 26, 17, 0, 0x572af991f748b960ULL},
    {1, kIncremental, 7, 1, 720, 1221, 41607, 12, 7, 1, 0x3eabc5e060a32b7fULL},
    {1, kAssumptions, 3, 37, 1370, 1727, 69855, 36, 11, 1, 0x68e6bf0b7c546d39ULL},
    {2, kMixed, 0, 1, 3047, 3918, 186492, 26, 17, 0, 0xb6f4935a39b3ec0dULL},
    {2, kIncremental, 7, 1, 770, 1329, 41012, 12, 7, 0, 0x927dbae1e892c27bULL},
    {2, kAssumptions, 3, 37, 1406, 1857, 68602, 35, 10, 0, 0xbe62eec65a6dc7a2ULL},
    {3, kMixed, 0, 1, 2548, 3098, 166759, 0, 0, 0, 0x351da9295691b4cdULL},
    {3, kIncremental, 7, 1, 1224, 1784, 66114, 0, 0, 0, 0x4af31b4c92b33643ULL},
    {3, kAssumptions, 3, 37, 1485, 1910, 74679, 0, 0, 0, 0x39fe986869af273bULL},
    {4, kMixed, 0, 1, 3573, 4482, 223457, 26, 17, 2, 0x92c4284601600de3ULL},
    {4, kIncremental, 7, 1, 911, 1521, 58428, 23, 12, 106, 0xecc230fabd654a75ULL},
    {4, kAssumptions, 3, 37, 1362, 1815, 67335, 36, 11, 1, 0xbddb2f1474e980e1ULL},
};

TEST(SearchPin, CountersMatchTheRecordedSearch) {
  std::string table;
  bool all_match = true;
  for (unsigned member = 0; member < 5; ++member) {
    for (const Workload w : {kMixed, kIncremental, kAssumptions}) {
      const Pin got = run_workload(member, w);
      table += "    " + row_text(got) + "\n";
      const Pin* want = nullptr;
      for (const Pin& p : kPins)
        if (p.member == member && p.workload == w) want = &p;
      if (want == nullptr) {
        ADD_FAILURE() << "no pin for member " << member << " " << workload_name(w);
        all_match = false;
        continue;
      }
      EXPECT_TRUE(got == *want) << "search drifted\n  want " << row_text(*want)
                                << "\n  got  " << row_text(got);
      all_match = all_match && got == *want;
    }
  }
  if (!all_match) std::printf("actual pin table:\n%s", table.c_str());
}

TEST(SearchPin, WorkloadsExerciseEveryMechanism) {
  // The pins only guard what the workloads reach: conflicts on every
  // member, both verdicts, and inprocessing wherever the member runs it.
  unsigned sat = 0, unsat = 0;
  for (const Pin& p : kPins) {
    EXPECT_GT(p.conflicts, 500u) << row_text(p);
    sat += p.sat;
    unsat += p.unsat;
    if (pinned_config(p.member).inprocess_interval != 0) {
      EXPECT_GT(p.subsumed + p.eliminated, 0u) << row_text(p);
    }
  }
  EXPECT_GT(sat, 0u);
  EXPECT_GT(unsat, 0u);
}

}  // namespace
}  // namespace sepe::sat
