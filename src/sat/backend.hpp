// backend.hpp — the IPASIR-style seam under every SAT consumer.
//
// Everything above the SAT layer (the bit-blaster, the SMT facade, BMC,
// k-induction, the campaign engine) talks to an abstract sat::Backend:
// add clauses, solve under assumptions, read a model, thread budgets and
// the cooperative stop flag. Two engines implement it today — the native
// CDCL solver (sat::Solver, solver.hpp) and a subprocess DIMACS bridge
// (sat::DimacsBackend, dimacs_backend.hpp) — and the seam is what a
// future SMT-level backend would plug into.
//
// The contract a conforming backend must honor is documented in
// docs/SOLVER.md ("The backend seam"): deterministic verdicts for
// deterministic budgets, stop-flag polling inside solve(), and variable
// indices issued densely by new_var() so cone-cache replay tapes stay
// byte-exact.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/fault.hpp"

namespace sepe::sat {

struct SolverConfig;

/// A propositional literal: variable index plus sign. Encoded as
/// 2*var + (negated ? 1 : 0), the classic MiniSat representation.
class Lit {
 public:
  Lit() : code_(-2) {}
  Lit(int var, bool negated) : code_(2 * var + (negated ? 1 : 0)) {}

  static Lit from_code(int code) {
    Lit l;
    l.code_ = code;
    return l;
  }

  int var() const { return code_ >> 1; }
  bool sign() const { return code_ & 1; }  // true = negated
  int code() const { return code_; }
  Lit operator~() const { return from_code(code_ ^ 1); }

  friend bool operator==(Lit a, Lit b) { return a.code_ == b.code_; }
  friend bool operator!=(Lit a, Lit b) { return a.code_ != b.code_; }

 private:
  int code_;
};

enum class Value : std::uint8_t { False = 0, True = 1, Unknown = 2 };

/// Result of a solve() call.
enum class SolveResult { Sat, Unsat, Unknown /* resource limit hit */ };

/// The engines the factory can build. The kind is part of the
/// verdict-cache key and the spec digest (a campaign solved by a
/// different engine is a different campaign), so the enumerator values
/// and names are stable.
enum class BackendKind : std::uint8_t { Native = 0, Dimacs = 1 };

/// Stable lowercase name ("native", "dimacs") — the `--backend` value
/// and the token mixed into cache keys and spec digests.
const char* backend_kind_name(BackendKind kind);
std::optional<BackendKind> backend_kind_from_name(std::string_view name);

/// Abstract incremental SAT engine (the IPASIR shape: add / assume /
/// solve / value / failed, plus the budget and stop-flag threading the
/// campaign engine relies on).
///
/// Budgets and the stop flag live in the base class so every engine
/// inherits identical threading semantics; solve() implementations must
/// poll stop_requested() often enough that a raced solve aborts within
/// microseconds (native) or one subprocess poll interval (DIMACS).
class Backend {
 public:
  virtual ~Backend() = default;

  virtual BackendKind kind() const = 0;
  /// Human-readable engine identity for diagnostics ("native",
  /// "dimacs:kissat", ...).
  virtual std::string name() const = 0;
  /// False when the engine cannot run on this host (e.g. no external
  /// DIMACS solver found). Callers report unavailability; they never
  /// treat it as a solver failure.
  virtual bool available() const { return true; }

  /// Allocate a fresh variable; returns its index. Indices are dense,
  /// starting at 0, in allocation order (the cone cache replays tapes of
  /// recorded allocations and depends on this).
  virtual int new_var() = 0;
  virtual int num_vars() const = 0;

  /// Add a clause (disjunction of literals). Returns false if the engine
  /// is already in an unsatisfiable root state.
  virtual bool add_clause(std::vector<Lit> lits) = 0;
  bool add_clause(Lit a) { return add_clause(std::vector<Lit>{a}); }
  bool add_clause(Lit a, Lit b) { return add_clause(std::vector<Lit>{a, b}); }
  bool add_clause(Lit a, Lit b, Lit c) { return add_clause(std::vector<Lit>{a, b, c}); }

  SolveResult solve() { return solve({}); }
  virtual SolveResult solve(const std::vector<Lit>& assumptions) = 0;

  /// Value of a variable in the last satisfying assignment. Variables
  /// created after that solve read as false.
  virtual bool model_value(int var) const = 0;
  bool model_value(Lit l) const { return model_value(l.var()) ^ l.sign(); }

  /// After Unsat under assumptions: a (not necessarily minimal) subset of
  /// the assumptions, as passed to solve(), that is unsatisfiable together
  /// with the clauses.
  virtual const std::vector<Lit>& failed_assumptions() const = 0;

  /// Abort solve() with Unknown after this many conflicts (0 = no
  /// limit). Engines that cannot meter conflicts (subprocess backends)
  /// document the budget as best-effort.
  void set_conflict_budget(std::uint64_t budget) { conflict_budget_ = budget; }
  std::uint64_t conflict_budget() const { return conflict_budget_; }

  /// Abort solve() with Unknown after this many wall-clock seconds
  /// (0 = no limit).
  void set_time_budget(double seconds) { time_budget_seconds_ = seconds; }
  double time_budget() const { return time_budget_seconds_; }

  /// Cooperative cancellation: when `stop` is non-null and becomes true
  /// (typically set from another thread), solve() aborts with Unknown at
  /// the next poll point. The flag must outlive the backend or be
  /// cleared with set_stop_flag(nullptr).
  void set_stop_flag(const std::atomic<bool>* stop) { stop_ = stop; }
  const std::atomic<bool>* stop_flag() const { return stop_; }
  /// True when either the per-race stop flag or the process-global
  /// crash-only stop (SIGTERM/SIGINT, fault::Action::Stop) is raised, so
  /// a termination request interrupts every running CDCL loop through the
  /// same poll points the race cancellation already uses.
  bool stop_requested() const {
    return (stop_ != nullptr && stop_->load(std::memory_order_relaxed)) ||
           fault::global_stop_requested();
  }

  // --- statistics (deterministic proxies; engines that cannot observe a
  // --- counter report 0 rather than guessing) ---
  virtual std::uint64_t num_conflicts() const = 0;
  virtual std::uint64_t num_decisions() const = 0;
  virtual std::uint64_t num_propagations() const = 0;
  virtual std::uint64_t num_restarts() const = 0;
  virtual std::size_t num_clauses() const = 0;
  virtual std::size_t num_learnts() const = 0;
  // Inprocessing counters; engines without inprocessing report zero.
  virtual std::uint64_t num_eliminated_vars() const { return 0; }
  virtual std::uint64_t num_subsumed_clauses() const { return 0; }
  virtual std::uint64_t num_vivified_clauses() const { return 0; }
  // --- robustness observables ---
  /// True once a solve degraded to Unknown because the per-job memory
  /// ceiling (SolverConfig::memory_limit_mb) tripped. Sticky.
  virtual bool out_of_memory() const { return false; }
  /// Transient failures absorbed by retrying (subprocess respawns, torn
  /// model re-reads). Engines that never retry report zero.
  virtual std::uint64_t num_retries() const { return 0; }

 protected:
  std::uint64_t conflict_budget_ = 0;
  double time_budget_seconds_ = 0.0;
  const std::atomic<bool>* stop_ = nullptr;
};

/// Build an engine of the given kind. `config` tunes the native CDCL
/// heuristics; the DIMACS backend records it but solves with the
/// external solver's own defaults. Never fails: an unavailable engine is
/// still constructed and reports available() == false.
std::unique_ptr<Backend> make_backend(BackendKind kind, const SolverConfig& config);

}  // namespace sepe::sat
