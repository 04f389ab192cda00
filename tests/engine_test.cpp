// Tests for the parallel verification-campaign engine: verdict parity
// between multi-threaded and sequential runs, deterministic reports,
// the BMC/k-induction race, and cooperative cancellation (the losing
// prover observes the stop flag and exits without finishing its sweep).
#include <gtest/gtest.h>

#include <atomic>

#include "engine/campaign.hpp"
#include "engine/pinned_table.hpp"
#include "engine/workload.hpp"
#include "proc/mutations.hpp"
#include "sat/solver.hpp"
#include "smt/smt_solver.hpp"

namespace sepe::engine {
namespace {

using smt::TermRef;

/// Job over a counter that increments by an input-controlled step:
/// falsified at depth `target` when target <= max_bound, bound-clean
/// otherwise (never provable — a symbolic window state can sit at the
/// target, so the inductive step stays satisfiable).
JobSpec counter_job(const std::string& name, unsigned width, std::uint64_t target,
                    const JobBudget& budget) {
  JobSpec job;
  job.name = name;
  job.budget = budget;
  job.build = [width, target](ts::TransitionSystem& ts, std::string*) {
    smt::TermManager& mgr = ts.mgr();
    const TermRef cnt = ts.add_state("cnt", width);
    const TermRef inc = ts.add_input("inc", 1);
    ts.set_init(cnt, mgr.mk_const(width, 0));
    ts.set_next(cnt, mgr.mk_ite(inc, mgr.mk_add(cnt, mgr.mk_const(width, 1)), cnt));
    ts.add_bad(mgr.mk_eq(cnt, mgr.mk_const(width, target)), "cnt-target");
    return true;
  };
  return job;
}

/// Job over a frozen register: init 0, never changes, bad = (x == 1).
/// k-induction proves it at k = 1 (x != 1 stays x != 1); BMC alone can
/// only ever sweep bounds.
JobSpec frozen_job(const std::string& name, unsigned width, const JobBudget& budget) {
  JobSpec job;
  job.name = name;
  job.budget = budget;
  job.build = [width](ts::TransitionSystem& ts, std::string*) {
    smt::TermManager& mgr = ts.mgr();
    const TermRef x = ts.add_state("x", width);
    ts.set_init(x, mgr.mk_const(width, 0));
    ts.set_next(x, x);
    ts.add_bad(mgr.mk_eq(x, mgr.mk_const(width, 1)), "x-one");
    return true;
  };
  return job;
}

TEST(EngineJob, FalsifiesReachableCounter) {
  JobBudget budget;
  budget.max_bound = 10;
  budget.max_k = 4;
  const JobResult r = run_job(counter_job("cnt5", 8, 5, budget));
  EXPECT_EQ(r.verdict, Verdict::Falsified);
  EXPECT_EQ(r.trace_length, 5u);
  EXPECT_EQ(r.bad_label, "cnt-target");
  EXPECT_NE(r.winner, Prover::None);
  EXPECT_NE(r.witness.find("counterexample of length 5"), std::string::npos);
}

TEST(EngineJob, ProvesFrozenRegisterByInduction) {
  JobBudget budget;
  budget.max_bound = 3;
  budget.max_k = 4;
  const JobResult r = run_job(frozen_job("frozen", 8, budget));
  EXPECT_EQ(r.verdict, Verdict::Proved);
  EXPECT_EQ(r.winner, Prover::KInduction);
  EXPECT_GE(r.proved_k, 1u);
}

TEST(EngineJob, BoundCleanWhenUnreachableWithinBound) {
  JobBudget budget;
  budget.max_bound = 5;
  budget.max_k = 3;
  const JobResult r = run_job(counter_job("cnt40", 8, 40, budget));
  EXPECT_EQ(r.verdict, Verdict::BoundClean);
  EXPECT_EQ(r.winner, Prover::None);
  EXPECT_EQ(r.bmc_bounds_checked, 6u);  // bounds 0..5, all clean
}

TEST(EngineJob, RaceDisabledNeverProves) {
  JobBudget budget;
  budget.max_bound = 3;
  budget.max_k = 4;
  budget.race_k_induction = false;
  const JobResult r = run_job(frozen_job("frozen", 8, budget));
  EXPECT_EQ(r.verdict, Verdict::BoundClean);
  EXPECT_EQ(r.winner, Prover::None);
}

// The acceptance check for the cancellation hook: the frozen register is
// proved by k-induction almost immediately, while the BMC side faces a
// sweep five orders of magnitude deeper than it can finish first. The
// losing BMC prover must observe the stop flag raised by the winner and
// exit mid-sweep instead of checking all 200000 bounds.
TEST(EngineJob, LosingBmcSweepIsCancelledPromptly) {
  JobBudget budget;
  budget.max_bound = 200000;
  budget.max_k = 4;
  const JobResult r = run_job(frozen_job("frozen-deep", 24, budget));
  EXPECT_EQ(r.verdict, Verdict::Proved);
  EXPECT_EQ(r.winner, Prover::KInduction);
  EXPECT_TRUE(r.loser_cancelled);
  EXPECT_LT(r.bmc_bounds_checked, 200000u);
}

TEST(EngineCancellation, PresetStopFlagCancelsBmcBeforeAnyBound) {
  smt::TermManager mgr;
  ts::TransitionSystem ts(mgr);
  const TermRef cnt = ts.add_state("cnt", 8);
  ts.set_init(cnt, mgr.mk_const(8, 0));
  ts.set_next(cnt, mgr.mk_add(cnt, mgr.mk_const(8, 1)));
  ts.add_bad(mgr.mk_eq(cnt, mgr.mk_const(8, 3)), "cnt-3");

  std::atomic<bool> stop{true};
  bmc::Bmc checker(ts);
  bmc::BmcOptions bo;
  bo.max_bound = 10;
  bo.stop = &stop;
  EXPECT_FALSE(checker.check(bo).has_value());
  EXPECT_TRUE(checker.stats().cancelled);
  EXPECT_FALSE(checker.stats().hit_resource_limit);
  EXPECT_EQ(checker.stats().bounds_checked, 0u);
}

TEST(EngineCancellation, PresetStopFlagCancelsKInduction) {
  smt::TermManager mgr;
  ts::TransitionSystem ts(mgr);
  const TermRef x = ts.add_state("x", 8);
  ts.set_init(x, mgr.mk_const(8, 0));
  ts.set_next(x, x);
  ts.add_bad(mgr.mk_eq(x, mgr.mk_const(8, 1)), "x-one");

  std::atomic<bool> stop{true};
  bmc::KInductionOptions ko;
  ko.max_k = 5;
  ko.stop = &stop;
  const bmc::KInductionResult r = bmc::prove_by_k_induction(ts, ko);
  EXPECT_EQ(r.status, bmc::KInductionStatus::Unknown);
  EXPECT_TRUE(r.cancelled);
}

// Regression for a race in the prover duel: the losing prover can get a
// Sat result and *then* see the stop flag raised by the winner while it
// reads back the witness. Model extension inside value() (triggered by
// blasting a term the last solve never covered) must ignore the stop
// flag instead of tearing the model mid-read.
TEST(EngineCancellation, WitnessExtractionSurvivesLateStopFlag) {
  smt::TermManager mgr;
  smt::SmtSolver solver(mgr);
  std::atomic<bool> stop{false};
  solver.set_stop_flag(&stop);
  const smt::TermRef x = mgr.mk_var("x", 8);
  solver.assert_formula(mgr.mk_eq(x, mgr.mk_const(8, 42)));
  ASSERT_EQ(solver.check(), smt::Result::Sat);
  // The other prover claims the job now...
  stop.store(true);
  // ...and reading a not-yet-blasted term still extends the model.
  const smt::TermRef doubled = mgr.mk_add(x, x);
  EXPECT_EQ(solver.value(doubled), BitVec(8, 84));
  EXPECT_EQ(solver.value(x), BitVec(8, 42));
}

TEST(EngineCancellation, PresetStopFlagAbortsSatSolve) {
  sat::Solver solver;
  const int a = solver.new_var(), b = solver.new_var();
  solver.add_clause(sat::Lit(a, false), sat::Lit(b, false));
  std::atomic<bool> stop{true};
  solver.set_stop_flag(&stop);
  EXPECT_EQ(solver.solve(), sat::SolveResult::Unknown);
  stop.store(false);
  EXPECT_EQ(solver.solve(), sat::SolveResult::Sat);
}

/// A mixed 12-job campaign covering every verdict class.
CampaignSpec mixed_spec() {
  JobBudget budget;
  budget.max_bound = 8;
  budget.max_k = 3;
  CampaignSpec spec;
  spec.seed = 42;
  for (unsigned t = 1; t <= 6; ++t)
    spec.jobs.push_back(
        counter_job("cnt-" + std::to_string(t), 6 + t % 3, t, budget));
  for (unsigned w = 4; w <= 7; ++w)
    spec.jobs.push_back(frozen_job("frozen-" + std::to_string(w), w, budget));
  spec.jobs.push_back(counter_job("clean-20", 8, 20, budget));
  spec.jobs.push_back(counter_job("clean-30", 8, 30, budget));
  return spec;
}

TEST(EngineCampaign, MultiThreadedVerdictsMatchSequential) {
  const CampaignSpec spec = mixed_spec();
  CampaignOptions seq;
  seq.threads = 1;
  CampaignOptions par;
  par.threads = 4;
  const CampaignReport a = run_campaign(spec, seq);
  const CampaignReport b = run_campaign(spec, par);
  ASSERT_EQ(a.jobs.size(), spec.jobs.size());
  ASSERT_EQ(b.jobs.size(), spec.jobs.size());
  for (std::size_t i = 0; i < spec.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].name, spec.jobs[i].name) << "report out of spec order";
    EXPECT_EQ(a.jobs[i].name, b.jobs[i].name);
    EXPECT_EQ(a.jobs[i].verdict, b.jobs[i].verdict) << spec.jobs[i].name;
    EXPECT_EQ(a.jobs[i].trace_length, b.jobs[i].trace_length) << spec.jobs[i].name;
    EXPECT_EQ(a.jobs[i].proved_k, b.jobs[i].proved_k) << spec.jobs[i].name;
  }
  // Expected verdict mix: 6 falsified counters, 4 proved frozen
  // registers, 2 clean sweeps.
  EXPECT_EQ(a.count(Verdict::Falsified), 6u);
  EXPECT_EQ(a.count(Verdict::Proved), 4u);
  EXPECT_EQ(a.count(Verdict::BoundClean), 2u);
  EXPECT_EQ(a.count(Verdict::Unknown), 0u);
}

TEST(EngineCampaign, StableReportIsByteDeterministic) {
  const CampaignSpec spec = mixed_spec();
  CampaignOptions par;
  par.threads = 4;
  const std::string a = run_campaign(spec, par).to_json(/*include_timing=*/false);
  const std::string b = run_campaign(spec, par).to_json(/*include_timing=*/false);
  EXPECT_EQ(a, b);
  CampaignOptions seq;
  seq.threads = 1;
  EXPECT_EQ(a, run_campaign(spec, seq).to_json(/*include_timing=*/false));
  EXPECT_NE(a.find("\"seed\": 42"), std::string::npos);
  EXPECT_NE(a.find("\"verdict\": \"FALSIFIED\""), std::string::npos);
  EXPECT_NE(a.find("\"verdict\": \"PROVED\""), std::string::npos);
}

TEST(EngineCampaign, TableReportCountsVerdicts) {
  CampaignSpec spec;
  JobBudget budget;
  budget.max_bound = 4;
  budget.max_k = 2;
  spec.jobs.push_back(counter_job("cnt-2", 8, 2, budget));
  spec.jobs.push_back(frozen_job("frozen", 8, budget));
  CampaignOptions two;
  two.threads = 2;
  const CampaignReport report = run_campaign(spec, two);
  const std::string table = report.to_table();
  EXPECT_NE(table.find("cnt-2"), std::string::npos);
  EXPECT_NE(table.find("FALSIFIED"), std::string::npos);
  EXPECT_NE(table.find("PROVED"), std::string::npos);
  EXPECT_NE(table.find("1 falsified"), std::string::npos);
}

TEST(EngineMatrix, ExpandsMutationsTimesModes) {
  CampaignMatrix matrix;
  matrix.modes = {qed::QedMode::EddiV, qed::QedMode::EdsepV};
  auto bugs = proc::table1_single_instruction_bugs();
  bugs.resize(3);
  matrix.mutations = bugs;
  const auto pinned = make_pinned_table(4);
  matrix.equivalences = &pinned->table;
  const CampaignSpec spec = expand(matrix, 7);
  ASSERT_EQ(spec.jobs.size(), 6u);
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_EQ(spec.jobs[0].name, bugs[0].name + "/EDDI-V");
  EXPECT_EQ(spec.jobs[1].name, bugs[0].name + "/EDSEP-V");
  EXPECT_EQ(spec.jobs[1].provenance.family, kQedFamily);
  EXPECT_EQ(spec.jobs[1].provenance.mode, "EDSEP-V");
  EXPECT_EQ(spec.jobs[1].provenance.source, bugs[0].name);
  for (const JobSpec& job : spec.jobs) EXPECT_TRUE(static_cast<bool>(job.build));
}

// --- sequential deterministic perf mode (bench/campaign_perf) ---

TEST(EngineSequential, VerdictsMatchRaceAndCountersAreDeterministic) {
  CampaignSpec spec = mixed_spec();
  CampaignOptions one;
  one.threads = 1;
  const CampaignReport raced = run_campaign(spec, one);
  for (JobSpec& job : spec.jobs) job.budget.sequential_provers = true;
  const CampaignReport seq_a = run_campaign(spec, one);
  const CampaignReport seq_b = run_campaign(spec, one);
  ASSERT_EQ(raced.jobs.size(), seq_a.jobs.size());
  for (std::size_t i = 0; i < raced.jobs.size(); ++i) {
    // Same verdict fields as the race...
    EXPECT_EQ(seq_a.jobs[i].verdict, raced.jobs[i].verdict) << raced.jobs[i].name;
    EXPECT_EQ(seq_a.jobs[i].trace_length, raced.jobs[i].trace_length);
    EXPECT_EQ(seq_a.jobs[i].proved_k, raced.jobs[i].proved_k);
    EXPECT_EQ(seq_a.jobs[i].bad_label, raced.jobs[i].bad_label);
    // ...and fully reproducible work counters between runs.
    EXPECT_EQ(seq_a.jobs[i].conflicts, seq_b.jobs[i].conflicts) << raced.jobs[i].name;
    EXPECT_EQ(seq_a.jobs[i].propagations, seq_b.jobs[i].propagations);
    EXPECT_EQ(seq_a.jobs[i].decisions, seq_b.jobs[i].decisions);
    EXPECT_EQ(seq_a.jobs[i].cnf_vars, seq_b.jobs[i].cnf_vars);
    EXPECT_EQ(seq_a.jobs[i].cnf_clauses, seq_b.jobs[i].cnf_clauses);
    EXPECT_GT(seq_a.jobs[i].cnf_vars, 0u);
    EXPECT_FALSE(seq_a.jobs[i].loser_cancelled);
  }
  // Tiny jobs can fold to zero problem clauses, but not a whole campaign.
  std::uint64_t total_clauses = 0;
  for (const JobResult& j : seq_a.jobs) total_clauses += j.cnf_clauses;
  EXPECT_GT(total_clauses, 0u);
  EXPECT_EQ(raced.to_json(false), seq_a.to_json(false));
}

// --- Plaisted–Greenbaum vs full Tseitin across the pinned QED table ---

TEST(EngineQedEncoding, PlaistedGreenbaumMatchesTseitinVerdicts) {
  // Both encodings must agree on the QED verification models themselves:
  // one falsifiable EDSEP-V job (Sat path) and one clean EDDI-V sweep
  // (Unsat path) per sampled Table-1 bug, driven through Bmc directly so
  // the encoding is the only difference.
  const auto pinned = make_pinned_table(4);
  const auto bugs = proc::table1_single_instruction_bugs();
  CampaignMatrix matrix;
  matrix.xlen = 4;
  matrix.modes = {qed::QedMode::EddiV, qed::QedMode::EdsepV};
  matrix.equivalences = &pinned->table;
  for (std::size_t bi = 0; bi < 2; ++bi) {
    for (qed::QedMode mode : matrix.modes) {
      matrix.mutations = {bugs[bi]};
      const proc::ProcConfig config = derive_duv_config(matrix, &bugs[bi]);
      const JobSpec job =
          make_qed_job(bugs[bi].name, mode, config, bugs[bi], &pinned->table, {});
      // EDDI-V misses these bugs (clean sweep); keep its bound shallow so
      // the double encode stays unit-test sized. EDSEP-V falsifies at 6.
      const unsigned bound = mode == qed::QedMode::EddiV ? 3 : 6;
      std::optional<unsigned> lengths[2];
      for (int pg = 0; pg < 2; ++pg) {
        smt::TermManager mgr;
        ts::TransitionSystem ts(mgr);
        std::string build_error;
        ASSERT_TRUE(job.build(ts, &build_error)) << build_error;
        bmc::Bmc checker(ts, sat::SolverConfig{}, /*plaisted_greenbaum=*/pg == 1);
        bmc::BmcOptions bo;
        bo.max_bound = bound;
        const auto w = checker.check(bo);
        lengths[pg] = w ? std::optional<unsigned>(w->length) : std::nullopt;
      }
      EXPECT_EQ(lengths[0], lengths[1])
          << bugs[bi].name << " " << mode_tag(mode) << ": encodings disagree";
      if (mode == qed::QedMode::EdsepV) {
        ASSERT_TRUE(lengths[0].has_value()) << bugs[bi].name;
        EXPECT_EQ(*lengths[0], 6u);
      } else {
        EXPECT_FALSE(lengths[0].has_value()) << bugs[bi].name;
      }
    }
  }
}

// End-to-end integration: a real Table-1 QED job through the engine. The
// xor_as_or bug is invisible to EDDI-V (uniform corruption) and must be
// falsified under EDSEP-V with the pinned equivalence table.
TEST(EnginePinnedTable, FailedMultisetIsAHardError) {
  // Checked in every build type, not by assert: a failed multiset must
  // never reach the table.
  PinnedTable t;
  EXPECT_THROW(t.add("AND", synth::make_spec(isa::Opcode::AND), {"ADD", "ADD"}, 4),
               std::runtime_error);
  EXPECT_THROW(t.comp("NO_SUCH_COMPONENT"), std::logic_error);
  EXPECT_EQ(t.table.size(), 0u);
}

TEST(EngineQedIntegration, EdsepFalsifiesSingleInstructionBug) {
  const auto pinned = make_pinned_table(4);
  proc::Mutation bug;
  bool found = false;
  for (const proc::Mutation& m : proc::table1_single_instruction_bugs())
    if (m.name == "xor_as_or") {
      bug = m;
      found = true;
    }
  ASSERT_TRUE(found);

  CampaignMatrix matrix;
  matrix.xlen = 4;
  matrix.modes = {qed::QedMode::EdsepV};
  matrix.mutations = {bug};
  matrix.equivalences = &pinned->table;
  matrix.budget.max_bound = 6;
  matrix.budget.max_k = 2;
  CampaignOptions two;
  two.threads = 2;
  const CampaignReport report = run_campaign(expand(matrix, 1), two);
  ASSERT_EQ(report.jobs.size(), 1u);
  EXPECT_EQ(report.jobs[0].verdict, Verdict::Falsified);
  EXPECT_EQ(report.jobs[0].trace_length, 6u);
}

}  // namespace
}  // namespace sepe::engine
