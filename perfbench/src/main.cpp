// perfbench — the repository benchmark's in-process runner.
//
// Runs one named workload through the engine's public API and prints its
// raw measurements as one JSON object on the last line of stdout; the
// Python front end (perfbench/run.py) starts one fresh process per run,
// gates the outputs against the committed reference and reduces the
// samples to the metrics named in BENCHMARK.json.
//
//   perfbench run --workload W --seed N --seconds S --trace 0|1 --work DIR
//                 [--cache DIR] [--fixtures DIR]
//   perfbench fill --seed N --cache DIR      cold fill of a verdict journal
//   perfbench capture --job NAME             one job's CNFs via the DIMACS backend
//
// Workloads: table1-cold, table1-warm (needs --cache from `fill`),
// hpf-synth. See perfbench/README.md for what each one exercises.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bmc/bmc.hpp"
#include "bmc/kind.hpp"
#include "engine/campaign.hpp"
#include "engine/pinned_table.hpp"
#include "engine/shard.hpp"
#include "engine/verdict_cache.hpp"
#include "engine/witness.hpp"
#include "engine/workload.hpp"
#include "proc/mutations.hpp"
#include "sat/solver.hpp"
#include "smt/bitblast.hpp"
#include "synth/cegis.hpp"
#include "trace.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace sepe;
using perfbench::Tracer;

// --- fixed workload parameters (README "Workloads") ---
constexpr unsigned kXlen = 4;
constexpr unsigned kBound = 6;
constexpr unsigned kMaxK = 2;
constexpr std::size_t kRows = 8;       // Table-1 rows (bench/baseline.json grid)
constexpr unsigned kThreadsWide = 4;   // the wide leg: wall_s_t4
constexpr unsigned kSetupReps = 9;     // setup_s is the median of these
constexpr unsigned kHpfPrograms = 3;   // k: programs per synthesis case
constexpr unsigned kHpfMultiset = 3;   // n: components per multiset
const char* const kFingerprint = "xlen=4;modes=both";

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_utime.tv_usec * 1e-6 + ru.ru_stime.tv_sec +
         ru.ru_stime.tv_usec * 1e-6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // Linux reports KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

double sum_of(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// The next job order of the workload seed's sequence (Fisher–Yates):
/// the same seed gives the same orders.
void shuffle(std::vector<engine::JobSpec>* jobs, Rng* order) {
  for (std::size_t i = jobs->size(); i > 1; --i)
    std::swap((*jobs)[i - 1], (*jobs)[order->below(i)]);
}

// --- a minimal JSON object writer for the result line ---

class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    return raw(key, buf);
  }
  JsonObject& nums(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%s%.9g", i ? ", " : "", v[i]);
      s += buf;
    }
    return raw(key, s + "]");
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    std::ostringstream os;
    json_escape(os, v);
    return raw(key, os.str());
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    std::ostringstream os;
    os << (body_.empty() ? "" : ", ");
    json_escape(os, key);
    os << ": " << json;
    body_ += os.str();
    return *this;
  }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// --- the Table-1 campaign (table1-cold / table1-warm) ---

struct Table1 {
  std::unique_ptr<engine::PinnedTable> pinned;
  engine::CampaignSpec spec;
};

/// Set-up of a Table-1 workload: pinned-table synthesis plus spec
/// expansion, in canonical job order.
Table1 make_table1() {
  Table1 t;
  t.pinned = engine::make_pinned_table(kXlen);
  engine::CampaignMatrix m;
  m.xlen = kXlen;
  m.modes = {qed::QedMode::EddiV, qed::QedMode::EdsepV};
  m.mutations = proc::table1_single_instruction_bugs();
  m.mutations.resize(kRows);
  m.extra_opcodes = {isa::Opcode::ADD, isa::Opcode::ADDI};
  m.equivalences = &t.pinned->table;
  m.budget.max_bound = kBound;
  m.budget.max_k = kMaxK;
  t.spec = engine::expand(m);
  return t;
}

std::string row_json(const engine::JobResult& j) {
  JsonObject o;
  o.str("name", j.name)
      .str("verdict", engine::verdict_name(j.verdict))
      .num("trace_length", j.trace_length)
      .num("proved_k", j.proved_k)
      .str("bad_label", j.bad_label)
      .str("note", j.note);
  return o.text();
}

std::string rows_json(const std::vector<engine::JobResult>& jobs) {
  std::string s = "[";
  for (std::size_t i = 0; i < jobs.size(); ++i) s += (i ? ", " : "") + row_json(jobs[i]);
  return s + "]";
}

struct OpSample {
  double wall = 0.0;
  double cpu = 0.0;
  std::string rows;  // JSON array of verdict rows (or synthesis cases)
};

/// One campaign run through engine::run_sharded. With a tracer, every
/// model build and job is a span; at one thread the witness post-pass
/// also runs here, one span per row, instead of inside the engine (the
/// engine runs it serially at one thread too, so the work is the same).
OpSample run_table1(const Table1& t, unsigned threads, const std::string& cache_dir,
                    Tracer* tracer, engine::CampaignReport* report_out = nullptr) {
  engine::ShardRunOptions o;
  o.pool.threads = threads;
  o.cache_dir = cache_dir;
  o.fingerprint = kFingerprint;
  engine::CampaignSpec spec = t.spec;
  std::mutex mu;
  std::map<std::string, double> first_build;
  const bool post_pass_here = tracer != nullptr && threads == 1;
  auto cones = std::make_shared<smt::ConeCache>();
  if (tracer) {
    for (engine::JobSpec& job : spec.jobs) {
      job.build = [inner = job.build, id = job.name, tracer, &mu, &first_build](
                      ts::TransitionSystem& ts, std::string* error) {
        {
          std::lock_guard<std::mutex> lock(mu);
          first_build.emplace(id, tracer->now());
        }
        return tracer->span("qed.build", "qed", id, [&] { return inner(ts, error); });
      };
    }
    o.pool.on_job_done = [tracer, &mu, &first_build](std::size_t, const engine::JobResult& r) {
      const double end = tracer->now();
      double start = end - r.seconds;
      {
        std::lock_guard<std::mutex> lock(mu);
        const auto it = first_build.find(r.name);
        if (it != first_build.end()) start = std::min(start, it->second);
      }
      tracer->record("engine.job", "engine", r.name, start, end);
    };
    o.pool.cone_cache = cones;
    if (post_pass_here) o.pool.witness.check = false;
  }

  Stopwatch clock;
  const double cpu0 = cpu_seconds();
  std::string error;
  engine::CampaignReport report;
  const auto run = [&] { report = engine::run_sharded(spec, o, &error); };
  if (tracer)
    tracer->span("engine.run_sharded", "engine", "", run);
  else
    run();
  if (post_pass_here) {
    for (std::size_t i = 0; i < report.jobs.size(); ++i) {
      engine::JobResult& r = report.jobs[i];
      if (r.verdict != engine::Verdict::Falsified || r.witness_checked) continue;
      tracer->span(r.from_cache ? "witness.post_pass.cached" : "witness.post_pass.fresh",
                   "witness", r.name, [&] {
                     engine::witness_post_pass(spec.jobs[i], engine::WitnessOptions{},
                                               cones, &r);
                   });
    }
  }
  OpSample s;
  s.cpu = cpu_seconds() - cpu0;
  s.wall = clock.seconds();
  if (!error.empty()) {
    std::fprintf(stderr, "perfbench: run_sharded: %s\n", error.c_str());
    std::exit(1);
  }
  s.rows = rows_json(report.jobs);
  if (report_out) *report_out = std::move(report);
  return s;
}

std::string fresh_dir(const std::string& work, const std::string& tag) {
  static unsigned counter = 0;
  const std::string dir = work + "/" + tag + "-" + std::to_string(counter++);
  std::filesystem::remove_all(dir);
  return dir;
}

// --- HPF-CEGIS over the Fig-3 cases (hpf-synth) ---

struct HpfSetup {
  std::vector<synth::Component> lib;
  std::vector<synth::SynthSpec> cases;
};

/// Set-up of hpf-synth: the component library and the 26 Fig-3 cases in
/// the paper's order. The seed does not permute them: with one shared
/// dictionary the order decides what HPF learns, and the work varied 2x
/// between seeds (README, "Why hpf-synth ignores the seed").
HpfSetup make_hpf() {
  HpfSetup h;
  h.lib = synth::make_standard_library();
  h.cases = synth::make_figure3_cases();
  return h;
}

synth::DriverOptions hpf_driver_options() {
  synth::DriverOptions o;
  o.cegis.xlen = kXlen;
  o.multiset_size = kHpfMultiset;
  o.target_programs = kHpfPrograms;
  o.max_seconds = 0.0;  // conflict budgets only: deterministic work
  return o;
}

/// Add the weight updates `after` made over `before` to `into`.
void merge_updates(const synth::PriorityDict& before, const synth::PriorityDict& after,
                   std::size_t components, synth::PriorityDict* into) {
  const int step = synth::HpfOptions{}.weight_increment;
  for (unsigned j = 0; j < components; ++j) {
    for (int d = after.choice_weight(j) - before.choice_weight(j); d > 0; d -= step)
      into->reward({j});
    for (int d = after.exclusion_weight(j) - before.exclusion_weight(j); d > 0; d -= step)
      into->penalize({j});
  }
}

/// HPF-CEGIS over every case with one PriorityDict learning across them
/// (Algorithm 1). With T threads the cases run in rounds of T: each case
/// of a round starts from the dictionary as the previous rounds left it,
/// and the round's weight updates are merged before the next round, so
/// the work is deterministic for any thread count.
std::vector<synth::SynthesisResult> run_hpf_cases(const HpfSetup& h, unsigned threads,
                                                  Tracer* tracer) {
  std::vector<synth::SynthesisResult> results(h.cases.size());
  const synth::DriverOptions opts = hpf_driver_options();
  const synth::HpfOptions hpf;
  synth::PriorityDict shared(h.lib.size(), hpf);
  const auto run_case = [&](std::size_t i, synth::PriorityDict* dict) {
    const auto call = [&] { results[i] = synth::hpf_cegis(h.cases[i], h.lib, opts, hpf, dict); };
    if (tracer)
      tracer->span("synth.hpf_case", "synth", h.cases[i].name, call);
    else
      call();
  };
  if (threads == 1) {
    for (std::size_t i = 0; i < h.cases.size(); ++i) run_case(i, &shared);
    return results;
  }
  for (std::size_t round = 0; round < h.cases.size(); round += threads) {
    const std::size_t n = std::min<std::size_t>(threads, h.cases.size() - round);
    std::vector<synth::PriorityDict> dicts(n, shared);
    std::vector<std::thread> pool;
    for (std::size_t w = 0; w < n; ++w) pool.emplace_back(run_case, round + w, &dicts[w]);
    for (std::thread& t : pool) t.join();
    const synth::PriorityDict before = shared;
    for (const synth::PriorityDict& d : dicts) merge_updates(before, d, h.lib.size(), &shared);
  }
  return results;
}

/// Outside the timed region: re-prove every program with verify_program.
std::string hpf_rows(const HpfSetup& h, const std::vector<synth::SynthesisResult>& rs) {
  std::string s = "[";
  for (std::size_t i = 0; i < rs.size(); ++i) {
    unsigned verified = 0;
    for (const synth::SynthProgram& p : rs[i].programs)
      verified += synth::verify_program(p, kXlen);
    JsonObject o;
    o.str("name", h.cases[i].name)
        .num("programs", rs[i].programs.size())
        .num("verified", verified)
        .num("tried", rs[i].multisets_tried)
        .num("succeeded", rs[i].multisets_succeeded);
    s += (i ? ", " : "") + o.text();
  }
  return s + "]";
}

OpSample run_hpf_op(const HpfSetup& h, unsigned threads, Tracer* tracer,
                    std::vector<synth::SynthesisResult>* out = nullptr) {
  OpSample s;
  Stopwatch clock;
  const double cpu0 = cpu_seconds();
  std::vector<synth::SynthesisResult> rs =
      tracer ? tracer->span("synth.hpf_cegis", "synth", "",
                            [&] { return run_hpf_cases(h, threads, tracer); })
             : run_hpf_cases(h, threads, nullptr);
  s.cpu = cpu_seconds() - cpu0;
  s.wall = clock.seconds();
  s.rows = hpf_rows(h, rs);
  if (out) *out = std::move(rs);
  return s;
}

// --- layer probes (traced runs only; fixed inputs on every workload) ---

struct LayerMetrics {
  std::map<std::string, double> m;
  void set(const std::string& k, double v) { m[k] = v; }
  void add(const std::string& k, double v) { m[k] += v; }
};

struct CnfFixture {
  std::string file;
  std::string expect;  // "SAT" / "UNSAT"
};

/// Parse a DIMACS CNF into a fresh native solver.
bool load_cnf(const std::string& path, sat::Solver* solver) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  std::vector<sat::Lit> clause;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == 'c' || line[0] == 'p') continue;
    std::istringstream ls(line);
    long lit = 0;
    while (ls >> lit) {
      if (lit == 0) {
        solver->add_clause(clause);
        clause.clear();
        continue;
      }
      const int var = static_cast<int>(lit > 0 ? lit : -lit) - 1;
      while (solver->num_vars() <= var) solver->new_var();
      clause.push_back(sat::Lit(var, lit < 0));
    }
  }
  return clause.empty();
}

/// SAT layer: the committed CNF fixtures, each solved by a fresh native
/// solver; the expected answer is checked on every solve.
bool probe_sat(const std::string& fixtures, Tracer* tr, LayerMetrics* lm) {
  std::ifstream manifest(fixtures + "/MANIFEST");
  if (!manifest) {
    std::fprintf(stderr, "perfbench: no fixture manifest in %s\n", fixtures.c_str());
    return false;
  }
  std::vector<CnfFixture> list;
  std::string digest, expect, file;
  while (manifest >> digest >> expect >> file) list.push_back({file, expect});
  double seconds = 0.0, props = 0.0, conflicts = 0.0;
  bool ok = !list.empty();
  for (const CnfFixture& f : list) {
    sat::Solver solver;
    if (!load_cnf(fixtures + "/" + f.file, &solver)) {
      std::fprintf(stderr, "perfbench: cannot read fixture %s\n", f.file.c_str());
      return false;
    }
    double dt = 0.0;
    const sat::SolveResult r =
        tr->span("sat.solve", "sat", f.file, [&] { return solver.solve(); }, &dt);
    const std::string got = r == sat::SolveResult::Sat     ? "SAT"
                            : r == sat::SolveResult::Unsat ? "UNSAT"
                                                           : "UNKNOWN";
    if (got != f.expect) {
      std::fprintf(stderr, "perfbench: fixture %s: expected %s, solver says %s\n",
                   f.file.c_str(), f.expect.c_str(), got.c_str());
      ok = false;
    }
    lm->add(f.expect == "SAT" ? "sat.solve_s.sat" : "sat.solve_s.unsat", dt);
    seconds += dt;
    props += static_cast<double>(solver.num_propagations());
    conflicts += static_cast<double>(solver.num_conflicts());
  }
  lm->set("sat.props_per_s", seconds > 0 ? props / seconds : 0.0);
  lm->set("sat.conflicts", conflicts);
  return ok;
}

/// Blast one QED frame (every next-state function, constraint and bad
/// condition over the untimed variables) into a fresh native solver.
std::size_t blast_frame(const ts::TransitionSystem& ts) {
  sat::Solver solver;
  smt::BitBlaster bb(ts.mgr(), solver);
  for (smt::TermRef s : ts.states()) {
    bb.blast(s);
    if (ts.next_of(s) != smt::kNullTerm) bb.blast(ts.next_of(s));
  }
  for (smt::TermRef c : ts.constraints()) bb.blast_bit(c);
  for (smt::TermRef c : ts.init_constraints()) bb.blast_bit(c);
  for (smt::TermRef b : ts.bads()) bb.blast_bit(b);
  return solver.num_clauses();
}

/// QED, SMT, BMC, k-induction and witness layers over the canonical
/// Table-1 jobs: build, blast one frame, sweep BMC bound by bound,
/// k-induction on the EDDI-V rows, and replay / shrink / post-pass the
/// EDSEP-V counterexamples (fresh with the solver's trace, cached with a
/// re-derived one).
bool probe_qed_stack(const Table1& t, Tracer* tr, LayerMetrics* lm) {
  bool ok = true;
  std::vector<double> builds;
  for (const engine::JobSpec& job : t.spec.jobs) {
    const bool eddi = job.provenance.mode == "EDDI-V";
    const auto build = [&](ts::TransitionSystem& ts) {
      std::string error;
      double dt = 0.0;
      const bool built =
          tr->span("qed.build", "qed", job.name, [&] { return job.build(ts, &error); }, &dt);
      builds.push_back(dt);
      if (!built) {
        std::fprintf(stderr, "perfbench: build %s: %s\n", job.name.c_str(), error.c_str());
        std::exit(1);
      }
    };
    {
      smt::TermManager mgr;
      ts::TransitionSystem ts(mgr);
      build(ts);
      double dt = 0.0;
      const std::size_t clauses =
          tr->span("smt.blast_frame", "smt", job.name, [&] { return blast_frame(ts); }, &dt);
      lm->add("smt.blast_frame_s", dt);
      lm->add("smt.frame_clauses", static_cast<double>(clauses));
    }
    smt::TermManager mgr;
    ts::TransitionSystem ts(mgr);
    build(ts);
    bmc::Bmc checker(ts);
    std::optional<bmc::Witness> found;
    for (unsigned b = 0; b <= kBound && !found; ++b) {
      bmc::BmcOptions bo;
      bo.max_bound = b;
      double dt = 0.0;
      found = tr->span("bmc.check", "bmc", job.name, [&] { return checker.check(bo); }, &dt);
      lm->add(eddi ? "bmc.check_s.eddi" : "bmc.check_s.edsep", dt);
      if (eddi && b == kBound) lm->add("bmc.final_bound_s.eddi", dt);
    }
    lm->add("bmc.conflicts", static_cast<double>(checker.stats().solver_conflicts));
    lm->add("bmc.propagations", static_cast<double>(checker.stats().solver_propagations));
    lm->add("bmc.cnf_clauses", static_cast<double>(checker.stats().cnf_clauses));
    if (eddi) {
      if (found) {
        std::fprintf(stderr, "perfbench: probe: %s falsified\n", job.name.c_str());
        ok = false;
      }
      smt::TermManager kmgr;
      ts::TransitionSystem kts(kmgr);
      build(kts);
      bmc::KInductionOptions ko;
      ko.max_k = kMaxK;
      double dt = 0.0;
      const bmc::KInductionResult kr = tr->span(
          "kind.prove", "kind", job.name, [&] { return bmc::prove_by_k_induction(kts, ko); },
          &dt);
      lm->add("kind.prove_s", dt);
      lm->add("kind.conflicts", static_cast<double>(kr.solver_conflicts));
      continue;
    }
    if (!found || found->length != kBound) {
      std::fprintf(stderr, "perfbench: probe: %s not falsified at %u\n", job.name.c_str(),
                   kBound);
      ok = false;
      continue;
    }
    const engine::WitnessTrace trace = engine::extract_trace(ts, *found);
    double dt = 0.0;
    const engine::WitnessReplay replay = tr->span(
        "witness.replay", "witness", job.name, [&] { return engine::replay_trace(ts, trace); },
        &dt);
    lm->add("witness.replay_s", dt);
    engine::WitnessTrace shrunk = trace;
    tr->span("witness.shrink", "witness", job.name,
             [&] { return engine::shrink_trace(ts, &shrunk); }, &dt);
    lm->add("witness.shrink_s", dt);
    ok = ok && replay.ok;

    for (const bool cached : {false, true}) {
      engine::JobResult r;
      r.name = job.name;
      r.provenance = job.provenance;
      r.verdict = engine::Verdict::Falsified;
      r.trace_length = found->length;
      r.bad_label = found->bad_label;
      r.from_cache = cached;
      if (!cached) r.trace = std::make_shared<const engine::WitnessTrace>(trace);
      const std::string name = cached ? "witness.post_pass.cached" : "witness.post_pass.fresh";
      tr->span(name, "witness", job.name, [&] {
        engine::witness_post_pass(job, engine::WitnessOptions{}, nullptr, &r);
      }, &dt);
      lm->add(cached ? "witness.post_pass_s.cached" : "witness.post_pass_s.fresh", dt);
      ok = ok && r.witness_checked && r.verdict == engine::Verdict::Falsified;
    }
  }
  lm->set("qed.build_s", median(builds));
  return ok;
}

/// Verdict-cache layer: append every Table-1 key to a fresh journal,
/// reopen it, look every key up.
bool probe_verdict_cache(const Table1& t, const std::string& dir, Tracer* tr,
                         LayerMetrics* lm) {
  std::string error;
  std::vector<std::string> keys;
  for (const engine::JobSpec& job : t.spec.jobs)
    keys.push_back(engine::VerdictCache::key_of(job, kFingerprint));
  {
    auto cache = engine::VerdictCache::open(dir, &error);
    if (!cache) return false;
    std::vector<double> appends;
    for (const std::string& key : keys) {
      engine::VerdictCache::Entry e;
      e.verdict = engine::Verdict::BoundClean;
      double dt = 0.0;
      tr->span("verdict_cache.append", "verdict_cache", "", [&] { cache->append(key, e); }, &dt);
      appends.push_back(dt);
    }
    lm->set("verdict_cache.append_s", median(appends));
  }
  double dt = 0.0;
  auto cache = tr->span("verdict_cache.open", "verdict_cache", "",
                        [&] { return engine::VerdictCache::open(dir, &error); }, &dt);
  lm->set("verdict_cache.open_s", dt);
  if (!cache) return false;
  std::vector<double> lookups;
  bool ok = true;
  for (const std::string& key : keys) {
    const auto hit = tr->span("verdict_cache.lookup", "verdict_cache", "",
                              [&] { return cache->lookup(key); }, &dt);
    lookups.push_back(dt);
    ok = ok && hit.has_value();
  }
  lm->set("verdict_cache.lookup_s", median(lookups));
  return ok;
}

/// Synthesis layer: CEGIS on the 15 pinned multisets, re-proof of each
/// program, and the iterative-CEGIS baseline over the Fig-3 cases.
bool probe_synth(Tracer* tr, LayerMetrics* lm) {
  using isa::Opcode;
  const auto lib = synth::make_standard_library();
  const auto comp = [&](const std::string& name) -> const synth::Component* {
    for (const auto& c : lib)
      if (c.name == name) return &c;
    return nullptr;
  };
  struct Pinned {
    const char* key;
    synth::SynthSpec spec;
    std::vector<std::string> multiset;
  };
  // The multisets of engine/pinned_table.hpp.
  const auto spec = [](Opcode op) { return synth::make_spec(op); };
  std::vector<Pinned> pinned = {
      {"ADD", spec(Opcode::ADD), {"NOT", "SUB", "NOT"}},
      {"SUB", spec(Opcode::SUB), {"NOT", "ADD", "NOT"}},
      {"XOR", spec(Opcode::XOR), {"OR", "AND", "SUB"}},
      {"OR", spec(Opcode::OR), {"ADD", "AND", "SUB"}},
      {"AND", spec(Opcode::AND), {"ADD", "OR", "SUB"}},
      {"SLT", spec(Opcode::SLT), {"XORI", "XORI", "SLTU"}},
      {"SLTU", spec(Opcode::SLTU), {"XORI", "XORI", "SLT"}},
      {"SRA", spec(Opcode::SRA), {"NOT", "SRA", "NOT"}},
      {"MULH", spec(Opcode::MULH), {"MULHSU_C", "SIGNSEL", "SUB"}},
      {"XORI", spec(Opcode::XORI), {"NOT", "XORI", "NOT"}},
      {"SLLI", spec(Opcode::SLLI), {"XOR", "ADDI", "SLL"}},
      {"SRAI", spec(Opcode::SRAI), {"NOT", "SRAI", "NOT"}},
      {"ADDI", spec(Opcode::ADDI), {"NOT", "NOT", "ADDI"}},
      {"LW_ADDR", synth::make_address_spec(Opcode::LW), {"NOT", "NOT", "ADDI"}},
      {"SW_ADDR", synth::make_address_spec(Opcode::SW), {"NOT", "NOT", "ADDI"}},
  };
  bool ok = true;
  double cegis_s = 0.0, verify_s = 0.0, iterations = 0.0, dt = 0.0;
  for (const Pinned& p : pinned) {
    std::vector<const synth::Component*> comps;
    for (const std::string& name : p.multiset) comps.push_back(comp(name));
    // As PinnedTable::add: prefer a program whose output instruction
    // differs from the original opcode, else the plain constraint.
    std::optional<synth::SynthProgram> prog;
    for (const bool forbid : {true, false}) {
      synth::CegisOptions o;
      o.xlen = kXlen;
      o.forbid_output_op = forbid;
      synth::CegisStats stats;
      prog = tr->span("synth.cegis_multiset", "synth", p.key,
                      [&] { return synth::cegis_multiset(p.spec, comps, o, &stats); }, &dt);
      cegis_s += dt;
      iterations += stats.iterations;
      if (prog) break;
    }
    if (!prog) {
      std::fprintf(stderr, "perfbench: pinned multiset %s failed\n", p.key);
      ok = false;
      continue;
    }
    ok = tr->span("synth.verify_program", "synth", p.key,
                  [&] { return synth::verify_program(*prog, kXlen); }, &dt) &&
         ok;
    verify_s += dt;
  }
  lm->set("synth.cegis_s", cegis_s);
  lm->set("synth.cegis_iterations", iterations);
  lm->set("synth.verify_program_s", verify_s);

  const auto cases = synth::make_figure3_cases();
  const synth::DriverOptions opts = hpf_driver_options();
  double iterative_s = 0.0;
  for (const synth::SynthSpec& c : cases) {
    tr->span("synth.iterative_cegis", "synth", c.name,
             [&] { return synth::iterative_cegis(c, lib, opts); }, &dt);
    iterative_s += dt;
  }
  lm->set("synth.iterative_s", iterative_s);
  return ok;
}

// --- the engine- and synthesis-family metrics of a traced run ---

void engine_metrics(const Tracer& wide, unsigned threads, LayerMetrics* lm) {
  const double run = wide.total("engine.run_sharded");
  const std::vector<double> jobs = wide.durations("engine.job");
  lm->set("engine.run_s", run);
  lm->set("engine.job_s.p50", median(jobs));
  lm->set("engine.job_s.max", max_of(jobs));
  lm->set("engine.pool_idle_s", threads * run - sum_of(jobs));
}

void synth_metrics(const Tracer& tr, const std::vector<synth::SynthesisResult>& rs,
                   LayerMetrics* lm) {
  const std::vector<double> cases = tr.durations("synth.hpf_case");
  lm->set("synth.case_s.p50", median(cases));
  lm->set("synth.case_s.max", max_of(cases));
  double tried = 0.0, succeeded = 0.0;
  for (const auto& r : rs) {
    tried += r.multisets_tried;
    succeeded += r.multisets_succeeded;
  }
  lm->set("synth.multisets_tried", tried);
  lm->set("synth.multiset_hit_ratio", tried > 0 ? succeeded / tried : 0.0);
}

double cache_hit_ratio(const engine::CampaignReport& report) {
  double hits = 0.0;
  for (const engine::JobResult& j : report.jobs) hits += j.from_cache;
  return report.jobs.empty() ? 0.0 : hits / report.jobs.size();
}

// --- command line ---

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work = ".";
  std::string cache;
  std::string fixtures;
  std::string job;
};

[[noreturn]] void usage_error(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\nusage: perfbench run|fill|capture [options]\n",
               what.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  if (argc < 2) usage_error("missing mode");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error(flag + " needs a value");
    const std::string v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::atof(v.c_str());
    else if (flag == "--trace") a.trace = v == "1";
    else if (flag == "--work") a.work = v;
    else if (flag == "--cache") a.cache = v;
    else if (flag == "--fixtures") a.fixtures = v;
    else if (flag == "--job") a.job = v;
    else usage_error("unknown flag " + flag);
  }
  if (a.seed == 0) usage_error("--seed must be positive (0 is the canonical order)");
  return a;
}

int run_fill(const Args& a) {
  Stopwatch clock;
  Table1 t = make_table1();
  Rng order(a.seed);
  shuffle(&t.spec.jobs, &order);
  const OpSample s = run_table1(t, kThreadsWide, a.cache, nullptr);
  JsonObject o;
  o.num("fill_s", clock.seconds()).raw("rows", s.rows);
  std::printf("%s\n", o.text().c_str());
  return 0;
}

/// Sweep one canonical Table-1 job to the bound through the DIMACS
/// backend, so that SEPE_EXTERNAL_SOLVER (the copy-through wrapper of
/// perfbench/capture_fixtures.py) sees every bound's CNF.
int run_capture(const Args& a) {
  const Table1 t = make_table1();
  for (const engine::JobSpec& job : t.spec.jobs) {
    if (job.name != a.job) continue;
    smt::TermManager mgr;
    ts::TransitionSystem ts(mgr);
    std::string error;
    if (!job.build(ts, &error)) usage_error("cannot build " + a.job + ": " + error);
    bmc::Bmc checker(ts, sat::SolverConfig{}, false, nullptr, sat::BackendKind::Dimacs);
    bmc::BmcOptions bo;
    bo.max_bound = kBound;
    const auto found = checker.check(bo);
    std::printf("%s %s\n", a.job.c_str(), found ? "SAT" : "UNSAT");
    return 0;
  }
  usage_error("no job " + a.job);
}

int run_workload(const Args& a) {
  const bool table1 = a.workload == "table1-cold" || a.workload == "table1-warm";
  const bool warm = a.workload == "table1-warm";
  if (!table1 && a.workload != "hpf-synth") usage_error("unknown workload " + a.workload);
  if (warm && a.cache.empty()) usage_error("table1-warm needs --cache (from `fill`)");
  std::filesystem::create_directories(a.work);

  // Set-up, several times; the last one is kept. A set-up faster than
  // 10 ms is timed in batches of at least 10 ms, so that its median is
  // neither timer jitter nor one short burst of host load.
  std::vector<double> setup;
  Table1 t;
  HpfSetup h;
  const auto set_up = [&] {
    if (table1)
      t = make_table1();
    else
      h = make_hpf();
  };
  unsigned batch = 1;
  for (unsigned rep = 0; rep < kSetupReps; ++rep) {
    Stopwatch clock;
    for (unsigned i = 0; i < batch; ++i) set_up();
    setup.push_back(clock.seconds() / batch);
    if (rep == 0) batch = std::max(1.0, std::ceil(1e-2 / setup[0]));
  }

  JsonObject out;
  out.str("workload", a.workload)
      .num("setup_s", median(setup));
  // Every Table-1 operation takes the next job order of the seed's
  // sequence, so a run's median covers many orders, not one.
  Rng order(a.seed);
  const auto next_order = [&]() -> const Table1& {
    shuffle(&t.spec.jobs, &order);
    return t;
  };
  std::string last_cache;  // the journal of the latest Table-1 operation
  const auto cache_dir = [&] {
    return last_cache = warm ? a.cache : fresh_dir(a.work, "cache");
  };
  const auto op = [&](unsigned threads, Tracer* tracer,
                      engine::CampaignReport* report = nullptr,
                      std::vector<synth::SynthesisResult>* hpf_out = nullptr) {
    if (!table1) return run_hpf_op(h, threads, tracer, hpf_out);
    return run_table1(next_order(), threads, cache_dir(), tracer, report);
  };

  if (!a.trace) {
    // The 1- and 4-thread legs run in turn, each time the leg with less
    // time so far, until the next one would overrun --seconds. Each leg
    // runs at least once.
    std::vector<double> wall, wall4, cpu;
    std::string rows = "[";
    double spent1 = 0.0, spent4 = 0.0;
    for (Stopwatch clock;;) {
      const bool one = wall.empty() || (!wall4.empty() && spent1 <= spent4);
      const double next = one ? spent1 / std::max<std::size_t>(1, wall.size())
                              : spent4 / std::max<std::size_t>(1, wall4.size());
      if (!wall.empty() && !wall4.empty() && clock.seconds() + next > a.seconds) break;
      const OpSample s = op(one ? 1 : kThreadsWide, nullptr);
      if (one) {
        spent1 += s.wall;
        wall.push_back(s.wall);
        cpu.push_back(s.cpu);
      } else {
        spent4 += s.wall;
        wall4.push_back(s.wall);
      }
      rows += (rows.size() > 1 ? ", " : "") + s.rows;
    }
    out.nums("wall_s", wall).nums("wall_s_t4", wall4).nums("cpu_s", cpu);
    out.raw("ops", rows + "]").num("peak_rss_mb", peak_rss_mb());
    std::printf("%s\n", out.text().c_str());
    return 0;
  }

  // Traced run. Tracing overhead: the same one-thread operation without
  // and with spans, alternating while half the run budget lasts (at
  // least once each). The first traced pass is the workload's trace.
  LayerMetrics lm;
  Tracer work, wide, probes;
  std::vector<double> untraced, traced;
  std::string rows = "[";
  std::vector<synth::SynthesisResult> hpf_results;
  Stopwatch budget;
  do {
    untraced.push_back(op(1, nullptr).wall);
    Tracer again;
    Tracer* pass = traced.empty() ? &work : &again;
    const OpSample s = op(1, pass, nullptr, &hpf_results);
    traced.push_back(s.wall);
    rows += (traced.size() > 1 ? ", " : "") + s.rows;
  } while (budget.seconds() * (traced.size() + 1) / traced.size() <= a.seconds / 2);
  lm.set("trace.overhead_s", median(traced) - median(untraced));

  // Engine family: this workload's campaign, or — for hpf-synth — the
  // Table-1 cold campaign in canonical order, at one thread (into the
  // workload's trace) and at four (engine.* metrics).
  const Table1 canon = make_table1();
  if (!table1) {
    last_cache = fresh_dir(a.work, "cache");
    rows += ", " + run_table1(canon, 1, last_cache, &work).rows;
  }
  // Cache reads: the 1-thread campaign again, into the workload trace,
  // against the journal its last pass wrote (or read, on table1-warm).
  engine::CampaignReport report;
  rows += ", " + run_table1(table1 ? t : canon, 1, last_cache, &work, &report).rows;
  lm.set("verdict_cache.hit_ratio", cache_hit_ratio(report));
  rows += ", " + (table1 ? op(kThreadsWide, &wide)
                         : run_table1(canon, kThreadsWide, fresh_dir(a.work, "cache"), &wide))
                     .rows;
  engine_metrics(wide, kThreadsWide, &lm);

  // Synthesis family: this workload's cases, or HPF-CEGIS over the
  // canonical case order (into the workload's trace).
  if (table1) {
    const HpfSetup canon_cases = make_hpf();
    rows += ", " + run_hpf_op(canon_cases, 1, &work, &hpf_results).rows;
  }
  synth_metrics(work, hpf_results, &lm);
  work.finalize();
  for (const auto& [layer, self] : work.self_seconds()) lm.set("self_s." + layer, self);

  bool ok = true;
  ok = probe_sat(a.fixtures, &probes, &lm) && ok;
  ok = probe_qed_stack(canon, &probes, &lm) && ok;
  ok = probe_verdict_cache(canon, fresh_dir(a.work, "vc-probe"), &probes, &lm) && ok;
  ok = probe_synth(&probes, &lm) && ok;
  probes.finalize();
  wide.finalize();
  perfbench::write_chrome_trace(a.work + "/trace.json", {{"workload x1", &work},
                                                         {"engine x4", &wide},
                                                         {"layer probes", &probes}});

  std::string layers = "{";
  for (const auto& [k, v] : lm.m) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", v);
    std::ostringstream key;
    json_escape(key, k);
    layers += (layers.size() > 1 ? ", " : "") + key.str() + ": " + buf;
  }
  out.nums("wall_s", untraced).nums("wall_s_traced", traced);
  out.raw("ops", rows + "]").raw("layers", layers + "}").raw("probes_ok", ok ? "true" : "false");
  std::printf("%s\n", out.text().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  if (a.mode == "run") return run_workload(a);
  if (a.mode == "fill") return run_fill(a);
  if (a.mode == "capture") return run_capture(a);
  usage_error("unknown mode " + a.mode);
}
