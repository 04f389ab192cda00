// Search pins for the CDCL solver: exact counter values, not just verdicts.
//
// A hot-path change to sat::Solver (propagation, conflict analysis,
// minimization, inprocessing bookkeeping) is meant to leave the search
// untouched: the same decisions, trail, learnt clauses and watch order,
// hence the same counters. These fixed, seeded workloads record the exact
// num_conflicts / num_decisions / num_propagations (and the inprocessing
// counters) each named solver variant reaches. Any drift means the search
// changed; re-record the table only for a change that is meant to alter
// the search (docs/SOLVER.md, "Search-identical changes").
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "sat/solver.hpp"
#include "solver_variants.hpp"
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
  std::string_view variant;
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

/// The variant with its reduction and inprocessing cadences cut so both
/// fire many times within a few thousand conflicts.
SolverConfig pinned_config(SolverConfig c) {
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
  Recorder(const Solver& s, std::string_view variant, Workload w) : s_(s) {
    pin_.variant = variant;
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

Pin run_workload(const testing::Variant& v, Workload w) {
  Solver s(pinned_config(v.config));
  Recorder rec(s, v.name, w);
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
                "{\"%.*s\", %s, %u, %u, %" PRIu64 ", %" PRIu64 ", %" PRIu64 ", %" PRIu64
                ", %" PRIu64 ", %" PRIu64 ", 0x%016" PRIx64 "ULL},",
                static_cast<int>(p.variant.size()), p.variant.data(),
                workload_name(p.workload), p.sat, p.unsat, p.conflicts,
                p.decisions, p.propagations, p.eliminated, p.subsumed, p.vivified,
                p.digest);
  return buf;
}

// The default rows were recorded before the search-identical hot-path
// rework of the solver (implicit binary watches, literal-indexed values,
// poisoned minimization), which had to reproduce them exactly. The other
// variants were recorded on that reworked solver before its portfolio
// presets and their knobs were deleted.
constexpr Pin kPins[] = {
    {"default", kMixed, 0, 1, 3153, 3927, 199328, 26, 17, 2, 0x29e3c0165ff06a2fULL},
    {"default", kIncremental, 7, 1, 680, 1156, 38221, 12, 7, 1, 0xd0edc3e89de34b0fULL},
    {"default", kAssumptions, 3, 37, 1387, 1787, 68942, 36, 11, 1, 0xaf5678a4235ff51aULL},
    {"no_inprocess", kMixed, 0, 1, 2814, 3572, 174404, 0, 0, 0, 0x71fc0eb900b53967ULL},
    {"no_inprocess", kIncremental, 7, 1, 696, 1191, 37399, 0, 0, 0, 0xa4c3312aeddaa47cULL},
    {"no_inprocess", kAssumptions, 3, 37, 1360, 1787, 70072, 0, 0, 0, 0x555439ab29d0bd24ULL},
    {"no_vivify", kMixed, 0, 1, 2741, 3446, 167793, 26, 17, 0, 0x346368214d3b2da6ULL},
    {"no_vivify", kIncremental, 7, 1, 642, 1118, 34160, 12, 7, 0, 0xd031f011edb2309fULL},
    {"no_vivify", kAssumptions, 3, 37, 1261, 1654, 62928, 35, 10, 0, 0xa33f1a66b4ce9142ULL},
    {"no_bve", kMixed, 0, 1, 3017, 3814, 198788, 0, 11, 1, 0xf6c817e7bf5f4da8ULL},
    {"no_bve", kIncremental, 7, 1, 730, 1216, 39452, 0, 7, 1, 0xb4474943bf890ab9ULL},
    {"no_bve", kAssumptions, 3, 37, 1261, 1645, 65928, 0, 8, 1, 0x833f807d26021480ULL},
};

TEST(SearchPin, CountersMatchTheRecordedSearch) {
  std::string table;
  bool all_match = true;
  for (const testing::Variant& v : testing::solver_variants()) {
    for (const Workload w : {kMixed, kIncremental, kAssumptions}) {
      const Pin got = run_workload(v, w);
      table += "    " + row_text(got) + "\n";
      const Pin* want = nullptr;
      for (const Pin& p : kPins)
        if (p.variant == v.name && p.workload == w) want = &p;
      if (want == nullptr) {
        ADD_FAILURE() << "no pin for variant " << v.name << " " << workload_name(w);
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
  // variant, both verdicts, and inprocessing wherever the variant runs it.
  unsigned sat = 0, unsat = 0;
  for (const Pin& p : kPins) {
    EXPECT_GT(p.conflicts, 500u) << row_text(p);
    sat += p.sat;
    unsat += p.unsat;
    if (p.variant != "no_inprocess") {
      EXPECT_GT(p.subsumed + p.eliminated, 0u) << row_text(p);
    }
  }
  EXPECT_GT(sat, 0u);
  EXPECT_GT(unsat, 0u);
}

}  // namespace
}  // namespace sepe::sat
