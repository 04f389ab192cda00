#include "sat/solver.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

namespace sepe::sat {

namespace {

bool by_code(Lit a, Lit b) { return a.code() < b.code(); }

}  // namespace

std::string SolverConfig::to_string() const {
  char buf[336];
  int n = std::snprintf(buf, sizeof buf,
                        "decay=%.17g;restart=%s;base=%u;mult=%.17g;phase=%d;rand=%u;"
                        "seed=%" PRIu64 ";reduce=%" PRIu64 "+%" PRIu64 ";inproc=%" PRIu64
                        ";bve=%u;vivify=%d",
                        var_decay, restart == Restart::Luby ? "luby" : "geometric",
                        restart_base, restart_mult, phase_init_true ? 1 : 0,
                        random_branch_freq, seed, reduce_base, reduce_increment,
                        inprocess_interval, bve_occurrence_limit, vivify ? 1 : 0);
  // Tail segments are appended only when non-default so existing
  // (pre-knob) strings stay byte-identical and keep parsing.
  if (memory_limit_mb != 0)
    std::snprintf(buf + n, sizeof buf - n, ";mem=%u", memory_limit_mb);
  return buf;
}

std::optional<SolverConfig> SolverConfig::from_string(const std::string& text) {
  SolverConfig c;
  char restart_name[16] = {0};
  int phase = 0;
  int vivify_flag = 0;
  int consumed = 0;
  const int got = std::sscanf(
      text.c_str(),
      "decay=%lg;restart=%15[a-z];base=%u;mult=%lg;phase=%d;rand=%u;"
      "seed=%" SCNu64 ";reduce=%" SCNu64 "+%" SCNu64 ";inproc=%" SCNu64
      ";bve=%u;vivify=%d%n",
      &c.var_decay, restart_name, &c.restart_base, &c.restart_mult, &phase,
      &c.random_branch_freq, &c.seed, &c.reduce_base, &c.reduce_increment,
      &c.inprocess_interval, &c.bve_occurrence_limit, &vivify_flag, &consumed);
  if (got != 12) return std::nullopt;
  // Optional tail segments, in emission order. to_string writes each one
  // only when the knob is non-default, so a tail carrying the default
  // value is non-canonical and rejected.
  const char* tail = text.c_str() + consumed;
  int seg = 0;
  if (std::sscanf(tail, ";mem=%u%n", &c.memory_limit_mb, &seg) == 1) {
    if (c.memory_limit_mb == 0) return std::nullopt;
    tail += seg;
  }
  if (*tail != '\0') return std::nullopt;
  if (!std::strcmp(restart_name, "luby")) {
    c.restart = Restart::Luby;
  } else if (!std::strcmp(restart_name, "geometric")) {
    c.restart = Restart::Geometric;
  } else {
    return std::nullopt;
  }
  if (phase != 0 && phase != 1) return std::nullopt;
  c.phase_init_true = phase == 1;
  if (vivify_flag != 0 && vivify_flag != 1) return std::nullopt;
  c.vivify = vivify_flag == 1;
  if (!(c.var_decay > 0.0 && c.var_decay <= 1.0)) return std::nullopt;
  if (!(c.restart_mult >= 1.0) || c.restart_base == 0) return std::nullopt;
  // A zero reduction cadence would purge the learnt DB on every conflict.
  if (c.reduce_base == 0 || c.reduce_increment == 0) return std::nullopt;
  return c;
}

SolverConfig SolverConfig::portfolio_member(unsigned index) {
  SolverConfig c;
  if (index == 0) return c;  // member 0: the default configuration, untouched
  switch (index % 4) {
    case 0:
      // Index 4, 8, ...: default heuristics plus seeded random branching,
      // so the per-index seed actually diversifies the search.
      c.random_branch_freq = 256;
      break;
    case 1:
      // Slow decay + geometric restarts + eager inprocessing: long-haul
      // UNSAT grinder.
      c.var_decay = 0.99;
      c.restart = Restart::Geometric;
      c.restart_base = 200;
      c.restart_mult = 1.3;
      c.inprocess_interval = 2000;
      break;
    case 2:
      // Phase-true init + occasional random branching, no vivification:
      // model diversity for SAT-leaning queries.
      c.phase_init_true = true;
      c.random_branch_freq = 128;
      c.vivify = false;
      break;
    case 3:
      // The pre-tuning historical configuration: slower decay, longer
      // Luby bursts, eager learnt reduction, no inprocessing at all —
      // structurally different search from the retention-heavy default.
      c.var_decay = 0.95;
      c.restart_base = 100;
      c.reduce_base = 4000;
      c.reduce_increment = 2000;
      c.inprocess_interval = 0;
      break;
  }
  c.seed = 0x9e3779b97f4a7c15ULL * (index + 1);
  return c;
}

Solver::Solver(const SolverConfig& config) : config_(config), rng_state_(config.seed) {}

std::uint64_t Solver::next_random() {
  // splitmix64 — deterministic from config_.seed.
  std::uint64_t z = (rng_state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int Solver::new_var() {
  const int v = num_vars();
  values_.push_back(Value::Unknown);
  values_.push_back(Value::Unknown);
  model_.push_back(Value::False);
  saved_phase_.push_back(config_.phase_init_true ? Value::True : Value::False);
  level_.push_back(0);
  reason_.push_back(kNullRef);
  activity_.push_back(0.0);
  heap_index_.push_back(-1);
  seen_.push_back(0);
  eliminated_.push_back(0);
  watches_.emplace_back();
  watches_.emplace_back();
  heap_insert(v);
  return v;
}

Solver::ClauseRef Solver::alloc_clause(std::span<const Lit> clause_lits, bool learnt) {
  const std::size_t bytes = sizeof(ClauseHeader) + clause_lits.size() * sizeof(Lit);
  // Keep 4-byte alignment of the arena.
  const std::size_t aligned = (bytes + 3) & ~std::size_t(3);
  const ClauseRef ref = static_cast<ClauseRef>(arena_.size());
  arena_.resize(arena_.size() + aligned);
  ClauseHeader* h = header(ref);
  h->size = static_cast<std::uint32_t>(clause_lits.size());
  h->lbd = learnt ? 2 : 0;
  h->activity = 0.0f;
  std::copy(clause_lits.begin(), clause_lits.end(), lits(ref));
  return ref;
}

void Solver::attach(ClauseRef ref) {
  const Lit* c = lits(ref);
  const ClauseRef tagged = header(ref)->size == 2 ? ref | kBinaryBit : ref;
  watches_[(~c[0]).code()].push_back({tagged, c[1]});
  watches_[(~c[1]).code()].push_back({tagged, c[0]});
}

void Solver::detach(ClauseRef ref) {
  const Lit* c = lits(ref);
  for (Lit w : {~c[0], ~c[1]}) {
    auto& ws = watches_[w.code()];
    for (std::size_t i = 0; i < ws.size(); ++i) {
      if (ws[i].ref() == ref) {
        ws[i] = ws.back();
        ws.pop_back();
        break;
      }
    }
  }
}

bool Solver::add_clause(std::vector<Lit> clause_lits) {
  if (root_unsat_) return false;
  assert(decision_level() == 0);

  // A clause mentioning a variable eliminated by inprocessing brings that
  // variable back first (restoring its removed clauses), so elimination
  // stays invisible to incremental callers.
  for (Lit l : clause_lits)
    if (eliminated(l.var())) reactivate(l.var());
  if (root_unsat_) return false;

  // Normalize in place: sort, dedupe, drop false literals, detect
  // tautology/sat.
  std::sort(clause_lits.begin(), clause_lits.end(), by_code);
  std::size_t kept = 0;
  Lit prev = Lit::from_code(-2);
  for (const Lit l : clause_lits) {
    if (l == prev) continue;
    if (l == ~prev) return true;  // tautology
    if (value(l) == Value::True) return true;
    prev = l;
    if (value(l) == Value::False) continue;
    clause_lits[kept++] = l;
  }
  clause_lits.resize(kept);

  if (clause_lits.empty()) {
    root_unsat_ = true;
    return false;
  }
  if (clause_lits.size() == 1) {
    enqueue(clause_lits[0], kNullRef);
    if (propagate() != kNullRef) {
      root_unsat_ = true;
      return false;
    }
    return true;
  }
  const ClauseRef ref = alloc_clause(clause_lits, /*learnt=*/false);
  clauses_.push_back(ref);
  attach(ref);
  return true;
}

template <bool kProblemOnly>
Solver::ClauseRef Solver::propagate_impl() {
  ClauseRef confl = kNullRef;
  while (confl == kNullRef && propagate_head_ < trail_.size()) {
    const Lit p = trail_[propagate_head_++];
    const Lit not_p = ~p;
    ++stats_propagations_;
    std::vector<Watcher>& ws = watches_[p.code()];
    Watcher* i = ws.data();
    Watcher* j = i;
    Watcher* const end = i + ws.size();
    while (i != end) {
      const Watcher w = *i++;
      const Value blocker_value = value(w.blocker);
      if (blocker_value == Value::True) {
        *j++ = w;
        continue;
      }
      if (kProblemOnly && header(w.ref())->lbd != 0) {
        // Vivification proofs must not lean on learnt clauses: a learnt is
        // a consequence of the *original* formula, not of the current
        // (post-elimination) database, and reduce_learnts may drop it
        // later — a problem clause deleted on its strength would be gone
        // for good. Skipped watchers are left in place; the caller re-runs
        // a full propagation afterwards to restore their watch invariants.
        *j++ = w;
        continue;
      }
      if (w.binary()) {
        // The blocker of a binary clause is its other literal.
        *j++ = w;
        if (blocker_value == Value::False) {
          // Conflict analysis reads the conflicting clause in this order.
          Lit* c = lits(w.ref());
          c[0] = w.blocker;
          c[1] = not_p;
          confl = w.ref();
          break;
        }
        enqueue(w.blocker, w.ref());
        continue;
      }
      const ClauseRef ref = w.ref();
      Lit* c = lits(ref);
      // Ensure the false literal ~p is at position 1.
      if (c[0] == not_p) std::swap(c[0], c[1]);
      assert(c[1] == not_p);
      const Lit first = c[0];
      const Value first_value = value(first);
      if (first_value == Value::True) {
        *j++ = {w.tagged, first};
        continue;
      }
      // Look for a new watch.
      const std::uint32_t size = header(ref)->size;
      bool found = false;
      for (std::uint32_t k = 2; k < size; ++k) {
        if (value(c[k]) != Value::False) {
          c[1] = c[k];
          c[k] = not_p;
          watches_[(~c[1]).code()].push_back({w.tagged, first});
          found = true;
          break;
        }
      }
      if (found) continue;  // watcher moved elsewhere; do not keep
      // Clause is unit or conflicting.
      if (first_value == Value::False) {
        *j++ = w;
        confl = ref;
        break;
      }
      enqueue(first, ref);
      *j++ = {w.tagged, first};
    }
    // After a conflict the unvisited watchers stay as they were.
    while (i != end) *j++ = *i++;
    ws.resize(static_cast<std::size_t>(j - ws.data()));
  }
  return confl;
}

const Lit* Solver::reason_lits(int var, std::uint32_t* size) {
  const ClauseRef r = reason_[var];
  Lit* c = lits(r);
  *size = header(r)->size;
  if (*size == 2 && c[0].var() != var) std::swap(c[0], c[1]);
  return c;
}

std::uint32_t Solver::compute_lbd(const std::vector<Lit>& clause) {
  // LBD = number of distinct decision levels in the clause.
  if (++lbd_stamp_ == 0) {  // wrapped: forget every old stamp
    std::fill(lbd_mark_.begin(), lbd_mark_.end(), 0);
    lbd_stamp_ = 1;
  }
  std::uint32_t lbd = 0;
  for (Lit l : clause) {
    const std::size_t lev = static_cast<std::size_t>(level_[l.var()]);
    if (lev >= lbd_mark_.size()) lbd_mark_.resize(lev + 1, 0);
    if (lbd_mark_[lev] != lbd_stamp_) {
      lbd_mark_[lev] = lbd_stamp_;
      ++lbd;
    }
  }
  return lbd;
}

void Solver::bump_var(int var) {
  activity_[var] += var_inc_;
  if (activity_[var] > kActivityLimit) rescale_var_activity();
  if (heap_contains(var)) heap_percolate_up(heap_index_[var]);
}

void Solver::rescale_var_activity() {
  for (double& a : activity_) a *= 1e-100;
  var_inc_ *= 1e-100;
}

void Solver::bump_clause(ClauseRef ref) {
  ClauseHeader* h = header(ref);
  h->activity += static_cast<float>(clause_inc_);
  if (h->activity > 1e20f) {
    for (ClauseRef r : learnts_) header(r)->activity *= 1e-20f;
    clause_inc_ *= 1e-20;
  }
}

void Solver::analyze(ClauseRef confl, std::vector<Lit>& out_learnt, int& out_btlevel,
                     std::uint32_t& out_lbd) {
  out_learnt.clear();
  out_learnt.push_back(Lit());  // placeholder for the asserting literal
  int counter = 0;
  Lit p;
  std::size_t index = trail_.size();
  bool first = true;

  do {
    assert(confl != kNullRef);
    bump_clause(confl);
    std::uint32_t size;
    const Lit* c;
    if (first) {
      c = lits(confl);
      size = header(confl)->size;
    } else {
      c = reason_lits(p.var(), &size);
    }
    for (std::uint32_t k = first ? 0 : 1; k < size; ++k) {
      const Lit q = c[k];
      const int v = q.var();
      if (!seen_[v] && level_[v] > 0) {
        seen_[v] = kSeenSource;
        bump_var(v);
        if (level_[v] >= decision_level()) {
          ++counter;
        } else {
          out_learnt.push_back(q);
        }
      }
    }
    // Find the next literal on the trail to resolve on.
    while (!seen_[trail_[--index].var()]) {}
    p = trail_[index];
    confl = reason_[p.var()];
    seen_[p.var()] = kSeenNone;
    --counter;
    first = false;
  } while (counter > 0);
  out_learnt[0] = ~p;

  // Clause minimization: drop literals implied by the rest of the clause.
  // Every var marked so far, and every mark minimization adds, is cleared
  // at the end (stale marks corrupt later calls).
  analyze_toclear_.clear();
  for (Lit l : out_learnt) analyze_toclear_.push_back(l.var());
  if (level_lits_.size() <= static_cast<std::size_t>(decision_level()))
    level_lits_.resize(decision_level() + 1, 0);
  std::uint32_t abstract_levels = 0;
  for (std::size_t k = 1; k < out_learnt.size(); ++k) {
    const int lev = level_[out_learnt[k].var()];
    abstract_levels |= 1u << (lev & 31);
    ++level_lits_[lev];
  }
  std::size_t keep = 1;
  for (std::size_t k = 1; k < out_learnt.size(); ++k) {
    const Lit l = out_learnt[k];
    // A literal alone on its level can only reach that level's decision,
    // which is not in the clause: it is never redundant.
    if (reason_[l.var()] == kNullRef || level_lits_[level_[l.var()]] == 1 ||
        !literal_redundant(l, abstract_levels)) {
      out_learnt[keep++] = l;
    }
  }
  for (std::size_t k = 1; k < out_learnt.size(); ++k)
    level_lits_[level_[out_learnt[k].var()]] = 0;
  out_learnt.resize(keep);

  // Find backtrack level: the second-highest level in the clause.
  out_btlevel = 0;
  if (out_learnt.size() > 1) {
    std::size_t max_i = 1;
    for (std::size_t k = 2; k < out_learnt.size(); ++k)
      if (level_[out_learnt[k].var()] > level_[out_learnt[max_i].var()]) max_i = k;
    std::swap(out_learnt[1], out_learnt[max_i]);
    out_btlevel = level_[out_learnt[1].var()];
  }
  out_lbd = compute_lbd(out_learnt);

  for (int v : analyze_toclear_) seen_[v] = kSeenNone;
}

bool Solver::literal_redundant(Lit l, std::uint32_t abstract_levels) {
  // Depth-first walk of the implication graph back from `l`: `l` is
  // redundant when every path ends in a clause literal, a root-level
  // literal or a literal already shown removable. A decision, a literal
  // on a level the clause does not mention, or a poisoned literal ends the
  // walk, and every literal on the current path is poisoned (it reaches
  // that failure too). Finished literals are marked removable. The marks
  // do not change the answer for any literal: a removable literal stops a
  // walk exactly where continuing it would have succeeded.
  minimize_stack_.clear();
  Lit p = l;
  std::uint32_t size;
  const Lit* c = reason_lits(p.var(), &size);
  for (std::uint32_t i = 1;;) {
    if (i < size) {
      const Lit q = c[i++];
      const int v = q.var();
      const std::uint8_t mark = seen_[v];
      if (mark == kSeenSource || mark == kSeenRemovable || level_[v] == 0) continue;
      if (mark == kSeenPoison || reason_[v] == kNullRef ||
          !((1u << (level_[v] & 31)) & abstract_levels)) {
        minimize_stack_.push_back({p, i});
        for (const MinimizeFrame& f : minimize_stack_) {
          if (seen_[f.lit.var()] == kSeenNone) {
            seen_[f.lit.var()] = kSeenPoison;
            analyze_toclear_.push_back(f.lit.var());
          }
        }
        return false;
      }
      minimize_stack_.push_back({p, i});
      p = q;
      c = reason_lits(v, &size);
      i = 1;
    } else {
      if (seen_[p.var()] == kSeenNone) {
        seen_[p.var()] = kSeenRemovable;
        analyze_toclear_.push_back(p.var());
      }
      if (minimize_stack_.empty()) return true;
      p = minimize_stack_.back().lit;
      i = minimize_stack_.back().next;
      minimize_stack_.pop_back();
      c = reason_lits(p.var(), &size);
    }
  }
}

void Solver::analyze_final(Lit p) {
  // Compute the set of assumptions implying ~p (conflict core).
  conflict_core_.clear();
  conflict_core_.push_back(~p);
  if (decision_level() == 0) return;
  seen_[p.var()] = kSeenSource;
  for (std::size_t i = trail_.size(); i-- > static_cast<std::size_t>(trail_lim_[0]);) {
    const int v = trail_[i].var();
    if (!seen_[v]) continue;
    if (reason_[v] == kNullRef) {
      conflict_core_.push_back(trail_[i]);
    } else {
      std::uint32_t size;
      const Lit* c = reason_lits(v, &size);
      for (std::uint32_t k = 1; k < size; ++k)
        if (level_[c[k].var()] > 0) seen_[c[k].var()] = kSeenSource;
    }
    seen_[v] = kSeenNone;
  }
  seen_[p.var()] = kSeenNone;
}

void Solver::backtrack(int target) {
  if (decision_level() <= target) return;
  for (std::size_t i = trail_.size();
       i-- > static_cast<std::size_t>(trail_lim_[target]);) {
    const int v = trail_[i].var();
    saved_phase_[v] = values_[2 * v];
    values_[2 * v] = Value::Unknown;
    values_[2 * v + 1] = Value::Unknown;
    reason_[v] = kNullRef;
    if (!heap_contains(v)) heap_insert(v);
  }
  trail_.resize(trail_lim_[target]);
  trail_lim_.resize(target);
  propagate_head_ = trail_.size();
}

Lit Solver::pick_branch() {
  // Portfolio diversity: every Nth decision branches on a pseudo-random
  // unassigned variable instead of the VSIDS top. Deterministic (seeded);
  // falls through to VSIDS when the drawn variable is already assigned.
  if (config_.random_branch_freq != 0 && num_vars() != 0 &&
      (stats_decisions_ + 1) % config_.random_branch_freq == 0) {
    const int v = static_cast<int>(next_random() % (values_.size() / 2));
    if (value(v) == Value::Unknown && !eliminated(v)) {
      ++stats_decisions_;
      return Lit(v, saved_phase_[v] == Value::False);
    }
  }
  while (!heap_empty()) {
    const int v = heap_pop();
    if (value(v) == Value::Unknown && !eliminated(v)) {
      ++stats_decisions_;
      return Lit(v, saved_phase_[v] == Value::False);
    }
  }
  return Lit();  // all assigned
}

std::uint64_t Solver::restart_interval(std::uint64_t restart_count) const {
  if (config_.restart == SolverConfig::Restart::Luby)
    return config_.restart_base * luby(restart_count + 1);
  const double interval =
      static_cast<double>(config_.restart_base) *
      std::pow(config_.restart_mult, static_cast<double>(restart_count));
  constexpr double kCap = 1e18;  // avoid overflow on long geometric runs
  return static_cast<std::uint64_t>(std::min(interval, kCap));
}

std::uint64_t Solver::luby(std::uint64_t i) {
  // Luby sequence, 1-based: luby(1..)= 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
  assert(i >= 1);
  std::uint64_t k = 1;
  while ((1ULL << (k + 1)) - 1 <= i) ++k;
  while (i != (1ULL << k) - 1) {
    i -= (1ULL << k) - 1;
    k = 1;
    while ((1ULL << (k + 1)) - 1 <= i) ++k;
  }
  return 1ULL << (k - 1);
}

void Solver::reduce_learnts() {
  // Keep low-LBD ("glue") clauses; drop the worse half of the rest.
  std::vector<ClauseRef> sorted = learnts_;
  std::sort(sorted.begin(), sorted.end(), [this](ClauseRef a, ClauseRef b) {
    const ClauseHeader *ha = header(a), *hb = header(b);
    if (ha->lbd != hb->lbd) return ha->lbd < hb->lbd;
    return ha->activity > hb->activity;
  });
  const std::size_t keep_count = sorted.size() / 2;
  std::vector<ClauseRef> kept;
  kept.reserve(keep_count + 16);
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const ClauseRef r = sorted[i];
    // Never drop clauses that are reasons for current assignments or glue.
    // A long reason has its implied literal first; a binary one may have
    // it in either position.
    const Lit* c = lits(r);
    const auto implies = [&](Lit l) {
      return value(l) == Value::True && reason_[l.var()] == r;
    };
    const bool locked = implies(c[0]) || (header(r)->size == 2 && implies(c[1]));
    if (i < keep_count || header(r)->lbd <= 3 || locked) {
      kept.push_back(r);
    } else {
      detach(r);
    }
  }
  learnts_ = std::move(kept);
}

// --- inprocessing -----------------------------------------------------
//
// The pipeline runs between restarts at decision level 0, bounded so a
// round costs a small fraction of the search it interleaves with:
//
//   1. copy-out      arena -> plain literal vectors; root-satisfied
//                    clauses dropped, root-false literals stripped
//   2. subsumption   forward subsumption + self-subsuming resolution
//                    over the problem clauses
//   3. elimination   bounded variable elimination (occurrence- and
//                    growth-limited); removed clauses go to elim_stack_
//   4. unit fixpoint units produced by 2/3 are propagated at the vector
//                    level until stable
//   5. rebuild       the arena is re-allocated compactly (this is also
//                    what reclaims leaked learnt-clause bytes)
//   6. vivification  bounded re-propagation of problem clauses through
//                    the solver's own watches, shrinking or dropping them
//
// Assumption variables of the running solve are frozen (never
// eliminated); variables eliminated in an earlier solve are reactivated
// by add_clause()/solve() when mentioned again. docs/SOLVER.md states
// the contract in prose.

namespace {

/// True when every literal of `small` occurs in `big` (both sorted by
/// code), with at most one occurring *negated*. On success `*flipped` is
/// that negated literal's code in `big` (self-subsuming resolution), or
/// -1 when `small` subsumes `big` outright. The flipped code is reported
/// out-of-band because code 0 is a valid literal (variable 0, positive).
bool subsume_check(std::span<const Lit> small, std::span<const Lit> big, int* flipped) {
  *flipped = -1;
  std::size_t i = 0, j = 0;
  while (i < small.size()) {
    if (j == big.size()) return false;
    const int a = small[i].code(), b = big[j].code();
    if (a == b) {
      ++i;
      ++j;
    } else if ((a ^ 1) == b) {
      if (*flipped != -1) return false;
      *flipped = b;
      ++i;
      ++j;
    } else if (a > b) {
      ++j;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

void Solver::build_occurrences() {
  ip_occ_.resize(values_.size());
  for (auto& occ : ip_occ_) occ.clear();
  for (std::size_t i = 0; i < ip_problem_.size(); ++i)
    for (const Lit l : copied(ip_problem_[i]))
      ip_occ_[l.code()].push_back(static_cast<std::uint32_t>(i));
}

void Solver::inprocess(const std::vector<Lit>& assumptions) {
  assert(decision_level() == 0);
  // Root assignments need no reasons from here on; clearing them lets the
  // arena be rebuilt without dangling clause references.
  for (Lit l : trail_) reason_[l.var()] = kNullRef;

  std::vector<std::uint8_t> frozen(num_vars(), 0);
  for (Lit a : assumptions) frozen[a.var()] = 1;

  // 1. Copy-out. Surviving clauses have >= 2 unassigned literals
  // (propagation is complete); problem clauses are sorted by code.
  ip_lits_.clear();
  ip_problem_.clear();
  ip_learnts_.clear();
  const auto copy_out = [this](ClauseRef ref, std::vector<CopiedClause>* out) {
    const ClauseHeader* h = header(ref);
    const Lit* c = lits(ref);
    const auto begin = static_cast<std::uint32_t>(ip_lits_.size());
    for (std::uint32_t k = 0; k < h->size; ++k) {
      const Value v = value(c[k]);
      if (v == Value::True) {
        ip_lits_.resize(begin);
        return false;
      }
      if (v == Value::Unknown) ip_lits_.push_back(c[k]);
    }
    out->push_back({begin, static_cast<std::uint32_t>(ip_lits_.size()) - begin, h->lbd});
    assert(out->back().size >= 2);
    return true;
  };
  for (const ClauseRef ref : clauses_) {
    if (!copy_out(ref, &ip_problem_)) continue;
    const std::span<Lit> c = copied(ip_problem_.back());
    std::sort(c.begin(), c.end(), by_code);
  }
  for (const ClauseRef ref : learnts_) copy_out(ref, &ip_learnts_);

  // 2. Forward subsumption + self-subsuming resolution over the problem
  // clauses, driven by occurrence lists of the least-frequent literal.
  {
    std::vector<std::uint8_t> alive(ip_problem_.size(), 1);
    build_occurrences();
    constexpr std::size_t kOccSkip = 64;  // skip super-frequent pivot literals
    for (std::size_t i = 0; i < ip_problem_.size(); ++i) {
      if (!alive[i]) continue;
      const std::span<const Lit> c = copied(ip_problem_[i]);
      // Pivot on the literal with the fewest occurrences; a flipped pivot
      // also finds the self-subsumption cases on the pivot literal.
      std::size_t best = ip_occ_[c[0].code()].size();
      Lit pivot = c[0];
      for (Lit l : c) {
        const std::size_t n = ip_occ_[l.code()].size();
        if (n < best) {
          best = n;
          pivot = l;
        }
      }
      if (best > kOccSkip) continue;
      for (int side = 0; side < 2; ++side) {
        const Lit probe = side == 0 ? pivot : ~pivot;
        for (const std::uint32_t j : ip_occ_[probe.code()]) {
          if (j == i || !alive[j]) continue;
          CopiedClause& d = ip_problem_[j];
          if (d.size < c.size()) continue;
          int flipped_code;
          if (!subsume_check(c, copied(d), &flipped_code)) continue;
          if (flipped_code < 0) {
            // c subsumes d outright.
            alive[j] = 0;
            ++stats_subsumed_clauses_;
          } else {
            // Self-subsuming resolution: remove the flipped literal
            // from d. occ entries for d go stale; the alive/membership
            // checks above tolerate that.
            const Lit flipped = Lit::from_code(flipped_code);
            const std::span<Lit> dl = copied(d);
            const auto last = std::remove(dl.begin(), dl.end(), flipped);
            d.size = static_cast<std::uint32_t>(last - dl.begin());
            ++stats_subsumed_clauses_;
            if (d.size <= 1) alive[j] = 0;  // re-added as a unit below
          }
        }
      }
    }
    // Units produced by strengthening go last, for the fixpoint pass.
    std::vector<CopiedClause> units;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < ip_problem_.size(); ++i) {
      if (alive[i]) {
        ip_problem_[kept++] = ip_problem_[i];
      } else if (ip_problem_[i].size == 1) {
        units.push_back(ip_problem_[i]);
      }
    }
    ip_problem_.resize(kept);
    ip_problem_.insert(ip_problem_.end(), units.begin(), units.end());
  }

  // 3. Bounded variable elimination. A candidate variable must be
  // unassigned, unfrozen, and occur at most bve_occurrence_limit times in
  // each polarity; elimination must not grow the clause count.
  if (config_.bve_occurrence_limit != 0 && !root_unsat_) {
    constexpr std::size_t kMaxResolventLits = 24;
    build_occurrences();
    std::vector<std::uint8_t> live(ip_problem_.size(), 1);
    const auto gather = [&](Lit l, std::vector<std::uint32_t>* out) {
      out->clear();
      for (const std::uint32_t i : ip_occ_[l.code()]) {
        if (!live[i]) continue;
        const std::span<const Lit> c = copied(ip_problem_[i]);
        if (std::find(c.begin(), c.end(), l) == c.end())
          continue;  // stale entry (clause strengthened elsewhere)
        out->push_back(i);
      }
    };
    std::vector<std::uint32_t> pos, neg;
    std::vector<CopiedClause> resolvents;
    for (int v = 0; v < num_vars(); ++v) {
      if (frozen[v] || eliminated(v) || value(v) != Value::Unknown) continue;
      const Lit pl(v, false), nl(v, true);
      gather(pl, &pos);
      gather(nl, &neg);
      if (pos.empty() && neg.empty()) continue;
      if (pos.size() > config_.bve_occurrence_limit ||
          neg.size() > config_.bve_occurrence_limit)
        continue;
      // Build the resolvents at the end of the literal buffer (indices,
      // not pointers: the buffer may grow); give up on growth.
      const std::size_t lits_mark = ip_lits_.size();
      resolvents.clear();
      bool aborted = false;
      for (const std::uint32_t pi : pos) {
        for (const std::uint32_t ni : neg) {
          const auto r_begin = static_cast<std::uint32_t>(ip_lits_.size());
          const CopiedClause pc = ip_problem_[pi], nc = ip_problem_[ni];
          bool tautology = false;
          for (std::uint32_t k = pc.begin; k < pc.begin + pc.size; ++k) {
            const Lit l = ip_lits_[k];
            if (l != pl) ip_lits_.push_back(l);
          }
          for (std::uint32_t k = nc.begin; k < nc.begin + nc.size; ++k) {
            const Lit l = ip_lits_[k];
            if (l == nl) continue;
            const auto r_first = ip_lits_.begin() + r_begin;
            if (std::find(r_first, ip_lits_.end(), ~l) != ip_lits_.end()) {
              tautology = true;
              break;
            }
            if (std::find(r_first, ip_lits_.end(), l) == ip_lits_.end())
              ip_lits_.push_back(l);
          }
          if (tautology) {
            ip_lits_.resize(r_begin);
            continue;
          }
          const auto r_size = static_cast<std::uint32_t>(ip_lits_.size()) - r_begin;
          if (r_size > kMaxResolventLits) {
            aborted = true;
            break;
          }
          std::sort(ip_lits_.begin() + r_begin, ip_lits_.end(), by_code);
          resolvents.push_back({r_begin, r_size, 0});
          if (resolvents.size() > pos.size() + neg.size()) {
            aborted = true;
            break;
          }
        }
        if (aborted) break;
      }
      if (aborted) {
        ip_lits_.resize(lits_mark);
        continue;
      }
      // Commit: record the removed clauses for model repair and
      // reactivation, splice in the resolvents.
      ElimRecord record;
      record.var = v;
      for (const std::vector<std::uint32_t>* side : {&pos, &neg}) {
        for (const std::uint32_t i : *side) {
          const std::span<const Lit> c = copied(ip_problem_[i]);
          record.clauses.emplace_back(c.begin(), c.end());
          live[i] = 0;
        }
      }
      elim_stack_.push_back(std::move(record));
      eliminated_[v] = 1;
      ++stats_eliminated_vars_;
      for (const CopiedClause& r : resolvents) {
        const auto idx = static_cast<std::uint32_t>(ip_problem_.size());
        for (Lit l : copied(r)) ip_occ_[l.code()].push_back(idx);
        ip_problem_.push_back(r);
        live.push_back(1);
      }
    }
    std::size_t kept = 0;
    for (std::size_t i = 0; i < ip_problem_.size(); ++i)
      if (live[i]) ip_problem_[kept++] = ip_problem_[i];
    ip_problem_.resize(kept);
    // Learnt clauses over an eliminated variable are dropped (they are
    // implied; keeping them would resurrect the variable).
    std::erase_if(ip_learnts_, [this](const CopiedClause& c) {
      for (Lit l : copied(c))
        if (eliminated(l.var())) return true;
      return false;
    });
  }

  // 4. Unit fixpoint: apply units produced above at the root level until
  // the copied database is stable. A contradiction makes the solver
  // root-unsat (the arena is left untouched in that case — it is never
  // consulted again).
  const auto simplify_one = [this](CopiedClause& cc) -> int {
    // Returns -1 drop clause, 0 keep, 1 clause changed (re-check).
    const std::span<Lit> c = copied(cc);
    std::uint32_t keep = 0;
    for (const Lit l : c) {
      if (value(l) == Value::True) return -1;
      if (value(l) == Value::Unknown) c[keep++] = l;
    }
    const bool shrunk = keep != cc.size;
    cc.size = keep;
    if (keep == 0) {
      root_unsat_ = true;
      return -1;
    }
    if (keep == 1) {
      enqueue(c[0], kNullRef);
      return -1;  // absorbed into the trail
    }
    return shrunk ? 1 : 0;
  };
  for (bool changed = true; changed && !root_unsat_;) {
    changed = false;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < ip_problem_.size(); ++i) {
      const int r = simplify_one(ip_problem_[i]);
      if (root_unsat_) break;
      if (r >= 0) ip_problem_[kept++] = ip_problem_[i];
      if (r != 0) changed = true;
    }
    if (root_unsat_) break;
    ip_problem_.resize(kept);
    kept = 0;
    for (std::size_t i = 0; i < ip_learnts_.size(); ++i) {
      if (!root_unsat_) {
        const int r = simplify_one(ip_learnts_[i]);
        if (r != 0) changed = true;
        if (r < 0) continue;
      }
      ip_learnts_[kept++] = ip_learnts_[i];
    }
    ip_learnts_.resize(kept);
  }
  if (root_unsat_) return;

  // 5. Rebuild the arena compactly and re-anchor propagation.
  rebuild_clause_db();
  propagate_head_ = 0;
  if (propagate() != kNullRef) {
    root_unsat_ = true;
    return;
  }

  // 6. Vivification over the rebuilt database. Its problem-only
  // propagation leaves learnt watchers unrepaired for any root units it
  // derives, so finish with one full re-propagation of the trail.
  if (config_.vivify && !root_unsat_) {
    vivify_round();
    if (!root_unsat_) {
      propagate_head_ = 0;
      if (propagate() != kNullRef) root_unsat_ = true;
    }
  }
}

void Solver::rebuild_clause_db() {
  arena_.clear();
  clauses_.clear();
  learnts_.clear();
  for (auto& ws : watches_) ws.clear();
  for (const CopiedClause& c : ip_problem_) {
    const ClauseRef ref = alloc_clause(copied(c), /*learnt=*/false);
    clauses_.push_back(ref);
    attach(ref);
  }
  for (const CopiedClause& c : ip_learnts_) {
    const ClauseRef ref = alloc_clause(copied(c), /*learnt=*/true);
    header(ref)->lbd = c.lbd;
    learnts_.push_back(ref);
    attach(ref);
  }
}

void Solver::vivify_round() {
  // Re-propagate a bounded slice of the problem clauses: assert the
  // negation of each literal in turn; a conflict or an implied literal
  // proves the clause can be shortened or dropped. The cursor rotates so
  // successive rounds cover the whole database.
  constexpr std::size_t kClausesPerRound = 128;
  constexpr std::uint64_t kPropagationBudget = 1 << 20;
  const std::uint64_t props_start = stats_propagations_;
  std::size_t examined = 0;
  while (examined < kClausesPerRound && examined < clauses_.size() &&
         stats_propagations_ - props_start < kPropagationBudget && !root_unsat_) {
    if (stop_requested()) return;
    ++examined;
    if (vivify_cursor_ >= clauses_.size()) vivify_cursor_ = 0;
    const ClauseRef ref = clauses_[vivify_cursor_];
    if (header(ref)->size < 3) {
      ++vivify_cursor_;
      continue;
    }
    detach(ref);
    const Lit* c = lits(ref);
    std::vector<Lit> original(c, c + header(ref)->size);
    std::vector<Lit> keep;
    bool redundant = false;
    bool conflicted = false;
    for (const Lit l : original) {
      if (value(l) == Value::True) {
        redundant = true;  // implied by the negated prefix: clause is
        break;             // entailed by the rest of the formula
      }
      if (value(l) == Value::False) continue;  // literal is redundant in c
      keep.push_back(l);
      trail_lim_.push_back(static_cast<int>(trail_.size()));
      enqueue(~l, kNullRef);
      if (propagate_problem_only() != kNullRef) {
        conflicted = true;  // the kept prefix alone is contradictory
        break;
      }
    }
    backtrack(0);
    const bool changed = redundant || conflicted || keep.size() < original.size();
    if (!changed) {
      attach(ref);
      ++vivify_cursor_;
      continue;
    }
    // Drop the clause from the database (swap-erase keeps the cursor
    // position pointing at an unexamined clause).
    clauses_[vivify_cursor_] = clauses_.back();
    clauses_.pop_back();
    ++stats_vivified_clauses_;
    if (redundant) continue;
    if (keep.empty()) {
      root_unsat_ = true;
      return;
    }
    if (keep.size() == 1) {
      if (value(keep[0]) == Value::False) {
        root_unsat_ = true;
        return;
      }
      if (value(keep[0]) == Value::Unknown) {
        enqueue(keep[0], kNullRef);
        if (propagate_problem_only() != kNullRef) {
          root_unsat_ = true;
          return;
        }
      }
      continue;
    }
    const ClauseRef shorter = alloc_clause(keep, /*learnt=*/false);
    clauses_.push_back(shorter);
    attach(shorter);
  }
}

void Solver::reactivate(int var) {
  assert(eliminated(var));
  eliminated_[var] = 0;
  if (value(var) == Value::Unknown && !heap_contains(var)) heap_insert(var);
  // Find the record (tombstoning keeps reverse elimination order intact
  // for repair_model), restore its clauses. The restored clauses can in
  // turn mention variables eliminated later; add_clause reactivates them
  // recursively.
  for (auto& record : elim_stack_) {
    if (record.var != var) continue;
    std::vector<std::vector<Lit>> clauses = std::move(record.clauses);
    record.var = -1;
    record.clauses.clear();
    for (auto& c : clauses) {
      if (root_unsat_) return;
      add_clause(std::move(c));
    }
    return;
  }
}

void Solver::repair_model() {
  // Extend the model over eliminated variables, newest elimination
  // first: a variable's saved clauses only ever mention variables
  // eliminated *later* (already repaired) or live ones, so each step
  // sees final values for every other literal.
  for (std::size_t i = elim_stack_.size(); i-- > 0;) {
    const ElimRecord& record = elim_stack_[i];
    if (record.var < 0) continue;
    const Lit positive(record.var, false);
    bool needs_true = false;
    for (const auto& clause : record.clauses) {
      bool contains_positive = false;
      bool others_satisfied = false;
      for (const Lit l : clause) {
        if (l == positive) {
          contains_positive = true;
        } else if (model_value(l)) {
          others_satisfied = true;
          break;
        }
      }
      if (contains_positive && !others_satisfied) {
        needs_true = true;
        break;
      }
    }
    model_[record.var] = needs_true ? Value::True : Value::False;
  }
}

bool Solver::memory_exceeded() {
  if (config_.memory_limit_mb != 0 &&
      arena_.size() >
          static_cast<std::size_t>(config_.memory_limit_mb) * 1024 * 1024) {
    hit_memory_limit_ = true;
    return true;
  }
  if (fault::armed()) {
    const auto a = fault::hit("solver.alloc");
    if (a && *a == fault::Action::Oom) {
      hit_memory_limit_ = true;
      return true;
    }
  }
  return false;
}

SolveResult Solver::solve(const std::vector<Lit>& assumptions) {
  if (root_unsat_) {
    conflict_core_.clear();
    return SolveResult::Unsat;
  }
  if (stop_requested()) return SolveResult::Unknown;
  // The arena is mostly grown by add_clause before the search starts
  // (bit-blasting), so the ceiling is checked on entry as well as per
  // conflict. Degrade, don't abort: Unknown is an honest verdict.
  if (memory_exceeded()) return SolveResult::Unknown;
  backtrack(0);
  // Assumptions over variables eliminated in an earlier solve bring them
  // back (with their clauses) before the search starts.
  for (const Lit a : assumptions)
    if (eliminated(a.var())) reactivate(a.var());
  if (root_unsat_) {
    conflict_core_.clear();
    return SolveResult::Unsat;
  }
  if (propagate() != kNullRef) {
    root_unsat_ = true;
    return SolveResult::Unsat;
  }
  const auto solve_start = std::chrono::steady_clock::now();
  std::uint64_t conflicts_at_start = stats_conflicts_;
  std::uint64_t restart_count = 0;
  std::uint64_t restart_limit = restart_interval(restart_count);
  std::uint64_t conflicts_this_restart = 0;
  std::uint64_t next_reduce = config_.reduce_base;
  if (config_.inprocess_interval != 0 && next_inprocess_ == 0)
    next_inprocess_ = config_.inprocess_interval;

  std::vector<Lit> learnt;
  for (;;) {
    // Cooperative cancellation: one relaxed atomic load per
    // propagate/decide cycle, so a raced solve aborts within a few
    // microseconds of the winner raising the flag.
    if (stop_requested()) {
      backtrack(0);
      return SolveResult::Unknown;
    }
    const ClauseRef confl = propagate();
    if (confl != kNullRef) {
      ++stats_conflicts_;
      ++conflicts_this_restart;
      if (decision_level() == 0) {
        root_unsat_ = true;
        conflict_core_.clear();
        return SolveResult::Unsat;
      }
      int btlevel;
      std::uint32_t lbd;
      analyze(confl, learnt, btlevel, lbd);
      backtrack(btlevel);
      if (learnt.size() == 1) {
        if (value(learnt[0]) == Value::Unknown) {
          enqueue(learnt[0], kNullRef);
        } else if (value(learnt[0]) == Value::False) {
          root_unsat_ = true;
          conflict_core_.clear();
          return SolveResult::Unsat;
        }
      } else {
        const ClauseRef ref = alloc_clause(learnt, /*learnt=*/true);
        header(ref)->lbd = lbd;
        learnts_.push_back(ref);
        attach(ref);
        enqueue(learnt[0], ref);
      }
      decay_var_activity();
      clause_inc_ *= 1.001;
      if (conflict_budget_ != 0 &&
          stats_conflicts_ - conflicts_at_start >= conflict_budget_) {
        backtrack(0);
        return SolveResult::Unknown;
      }
      if (memory_exceeded()) {
        backtrack(0);
        return SolveResult::Unknown;
      }
      if (time_budget_seconds_ > 0 &&
          (stats_conflicts_ - conflicts_at_start) % 1024 == 0) {
        const double elapsed =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - solve_start)
                .count();
        if (elapsed >= time_budget_seconds_) {
          backtrack(0);
          return SolveResult::Unknown;
        }
      }
      continue;
    }

    if (conflicts_this_restart >= restart_limit &&
        decision_level() > static_cast<int>(assumptions.size())) {
      ++stats_restarts_;
      ++restart_count;
      restart_limit = restart_interval(restart_count);
      conflicts_this_restart = 0;
      backtrack(static_cast<int>(assumptions.size()));
      // Inprocess between restarts, whenever enough conflicts accrued
      // since the previous round (the cadence knob).
      if (config_.inprocess_interval != 0 && stats_conflicts_ >= next_inprocess_) {
        next_inprocess_ = stats_conflicts_ + config_.inprocess_interval;
        backtrack(0);
        inprocess(assumptions);
        if (root_unsat_) {
          conflict_core_.clear();
          return SolveResult::Unsat;
        }
      }
      continue;
    }
    if (learnts_.size() >= next_reduce) {
      next_reduce += config_.reduce_increment;
      reduce_learnts();
    }

    // Extend with assumptions first, then branch.
    Lit next = Lit();
    bool have_next = false;
    while (decision_level() < static_cast<int>(assumptions.size())) {
      const Lit a = assumptions[decision_level()];
      if (value(a) == Value::True) {
        trail_lim_.push_back(static_cast<int>(trail_.size()));  // dummy level
      } else if (value(a) == Value::False) {
        analyze_final(~a);
        backtrack(0);
        return SolveResult::Unsat;
      } else {
        next = a;
        have_next = true;
        break;
      }
    }
    if (!have_next) {
      next = pick_branch();
      if (next == Lit()) {
        // Full assignment: record the model, then extend it over
        // eliminated variables from their saved clauses.
        for (int v = 0; v < num_vars(); ++v) model_[v] = value(v);
        backtrack(0);
        repair_model();
        return SolveResult::Sat;
      }
    }
    trail_lim_.push_back(static_cast<int>(trail_.size()));
    enqueue(next, kNullRef);
  }
}

// --- binary max-heap keyed on activity ---

void Solver::heap_insert(int var) {
  heap_index_[var] = static_cast<int>(heap_.size());
  heap_.push_back(var);
  heap_percolate_up(heap_index_[var]);
}

void Solver::heap_percolate_up(int i) {
  const int v = heap_[i];
  while (i > 0) {
    const int parent = (i - 1) / 2;
    if (activity_[heap_[parent]] >= activity_[v]) break;
    heap_[i] = heap_[parent];
    heap_index_[heap_[i]] = i;
    i = parent;
  }
  heap_[i] = v;
  heap_index_[v] = i;
}

void Solver::heap_percolate_down(int i) {
  const int v = heap_[i];
  const int n = static_cast<int>(heap_.size());
  for (;;) {
    int child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && activity_[heap_[child + 1]] > activity_[heap_[child]]) ++child;
    if (activity_[heap_[child]] <= activity_[v]) break;
    heap_[i] = heap_[child];
    heap_index_[heap_[i]] = i;
    i = child;
  }
  heap_[i] = v;
  heap_index_[v] = i;
}

int Solver::heap_pop() {
  const int v = heap_[0];
  heap_index_[v] = -1;
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_index_[heap_[0]] = 0;
    heap_percolate_down(0);
  }
  return v;
}

}  // namespace sepe::sat
