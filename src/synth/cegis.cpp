#include "synth/cegis.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <set>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "util/stopwatch.hpp"

namespace sepe::synth {

std::vector<std::vector<unsigned>> combinations_with_replacement(unsigned lib_size,
                                                                 unsigned n) {
  std::vector<std::vector<unsigned>> out;
  std::vector<unsigned> cur(n, 0);
  for (;;) {
    out.push_back(cur);
    // Advance the non-decreasing index tuple.
    int i = static_cast<int>(n) - 1;
    while (i >= 0 && cur[i] == lib_size - 1) --i;
    if (i < 0) break;
    const unsigned v = cur[i] + 1;
    for (unsigned j = static_cast<unsigned>(i); j < n; ++j) cur[j] = v;
  }
  return out;
}

PriorityDict::PriorityDict(std::size_t num_components, const HpfOptions& opts)
    : opts_(opts),
      choice_(num_components, opts.initial_choice_weight),
      exclusion_(num_components, opts.initial_exclusion_weight) {}

double PriorityDict::priority(const std::vector<unsigned>& multiset,
                              const SynthSpec& spec,
                              const std::vector<Component>& lib) const {
  // priority = Σ_j (c_j − α·χ_j) / Σ_j e_j   (paper §4.2)
  double num = 0.0, den = 0.0;
  for (unsigned j : multiset) {
    const bool same_name = lib[j].opcode == spec.opcode;
    num += choice_[j] - (opts_.enable_alpha_penalty && same_name ? opts_.alpha : 0);
    den += exclusion_[j];
  }
  return den > 0 ? num / den : num;
}

void PriorityDict::reward(const std::vector<unsigned>& multiset) {
  if (!opts_.enable_choice_updates) return;
  for (unsigned j : multiset) choice_[j] += opts_.weight_increment;
}

void PriorityDict::penalize(const std::vector<unsigned>& multiset) {
  if (!opts_.enable_exclusion_updates) return;
  for (unsigned j : multiset) exclusion_[j] += opts_.weight_increment;
}

// --- the multiset refuter (rules in cegis.hpp) ---

namespace {

constexpr unsigned kRefuteExamples = 8;  // CEGIS's two seeds + six patterns
constexpr unsigned kMaxWiredInputs = 3;  // ADD3, the widest component
/// Component applications one wiring search may spend before it gives up
/// unrefuted. The size-3 multisets of the Fig-3 cases spend at most
/// about 6·10^3.
constexpr std::uint64_t kWiringBudget = std::uint64_t{1} << 17;

/// One location's value on every example.
using Values = std::array<std::uint64_t, kRefuteExamples>;

std::uint64_t hash_step(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 0x100000001b3ULL + (h >> 29);
}

/// A component applied to concrete input values (exact at any xlen).
struct ValueKey {
  const Component* comp;
  std::array<std::uint64_t, kMaxWiredInputs> in;
  bool operator==(const ValueKey&) const = default;
};

/// A component applied to interned value vectors.
struct VectorKey {
  const Component* comp;
  std::array<std::uint32_t, kMaxWiredInputs> ids;
  bool operator==(const VectorKey&) const = default;
};

struct KeyHash {
  template <typename Array>
  static std::uint64_t of(const void* comp, const Array& a) {
    std::uint64_t h = reinterpret_cast<std::uintptr_t>(comp);
    for (auto v : a) h = hash_step(h, v);
    return h;
  }
  std::size_t operator()(const ValueKey& k) const { return of(k.comp, k.in); }
  std::size_t operator()(const VectorKey& k) const { return of(k.comp, k.ids); }
  std::size_t operator()(const Values& v) const { return of(nullptr, v); }
};

/// CEGIS's seeds, then six fixed patterns that give the register inputs
/// pairwise distinct values (the seeds give them all the same one).
std::vector<std::vector<BitVec>> refutation_examples(const SynthSpec& spec,
                                                     unsigned xlen) {
  std::vector<std::vector<BitVec>> examples = seed_examples(spec, xlen);
  Rng rng(3);
  while (examples.size() < kRefuteExamples) {
    std::vector<BitVec> ex, regs;
    for (InputClass ic : spec.inputs) {
      const unsigned w = input_class_width(ic, xlen);
      BitVec v(w, rng.next());
      if (ic == InputClass::Reg) {
        while (regs.size() < (std::uint64_t{1} << std::min(w, 63u)) &&
               std::find(regs.begin(), regs.end(), v) != regs.end())
          v = BitVec(w, rng.next());
        regs.push_back(v);
      }
      ex.push_back(v);
    }
    examples.push_back(std::move(ex));
  }
  return examples;
}

std::uint64_t eval_spec(smt::TermManager& mgr, const SynthSpec& spec,
                        const std::vector<BitVec>& example, unsigned xlen) {
  std::vector<smt::TermRef> in;
  for (const BitVec& v : example) in.push_back(mgr.mk_const(v));
  return smt::eval_term(mgr, spec.semantics(mgr, in, xlen), {}).uval();
}

}  // namespace

/// The concrete wiring search over attribute-free multisets. Value
/// vectors are interned, so a location is one id and a program's output
/// matches the spec iff its id is `target`.
struct MultisetRefuter::Wirings {
  Wirings(const SynthSpec& spec, const std::vector<std::vector<BitVec>>& examples,
          unsigned xlen)
      : xlen(xlen) {
    Values target_values{};
    for (unsigned e = 0; e < kRefuteExamples; ++e)
      target_values[e] = eval_spec(mgr, spec, examples[e], xlen);
    target = intern(target_values);
    for (unsigned i = 0; i < spec.inputs.size(); ++i) {
      if (spec.inputs[i] != InputClass::Reg) continue;
      Values v{};
      for (unsigned e = 0; e < kRefuteExamples; ++e) v[e] = examples[e][i].uval();
      registers.push_back(intern(v));
    }
  }

  /// Does some wiring of `multiset` reproduce the target on every
  /// example? Also true when the search outgrows its budget.
  bool some_wiring_matches(std::vector<const Component*> multiset) {
    std::sort(multiset.begin(), multiset.end());
    spent = 0;
    std::vector<std::uint32_t> locations = registers;
    return reaches(locations, multiset);
  }

  std::uint32_t intern(const Values& v) {
    const auto [it, fresh] = ids.try_emplace(v, static_cast<std::uint32_t>(values.size()));
    if (fresh) values.push_back(v);
    return it->second;
  }

  std::uint64_t apply(const Component* c, const std::array<std::uint64_t, kMaxWiredInputs>& in) {
    const auto [it, fresh] = value_memo.try_emplace(ValueKey{c, in}, 0);
    if (fresh) {
      std::vector<smt::TermRef> terms;
      for (unsigned k = 0; k < c->num_inputs; ++k) terms.push_back(mgr.mk_const(xlen, in[k]));
      it->second = smt::eval_term(mgr, c->semantics(mgr, terms, {}, xlen), {}).uval();
    }
    return it->second;
  }

  std::uint32_t apply(const Component* c, const std::array<std::uint32_t, kMaxWiredInputs>& in) {
    ++spent;
    const auto [it, fresh] = vector_memo.try_emplace(VectorKey{c, in}, 0);
    if (fresh) {
      Values out{};
      for (unsigned e = 0; e < kRefuteExamples; ++e) {
        std::array<std::uint64_t, kMaxWiredInputs> at{};
        for (unsigned k = 0; k < c->num_inputs; ++k) at[k] = values[in[k]][e];
        out[e] = apply(c, at);
      }
      it->second = intern(out);
    }
    return it->second;
  }

  /// Does `c` over the locations `in` produce the target? The patterns,
  /// which tell more functions apart than the seeds, are checked first.
  bool matches_target(const Component* c, const std::array<std::uint32_t, kMaxWiredInputs>& in) {
    ++spent;
    for (unsigned i = 0; i < kRefuteExamples; ++i) {
      const unsigned e = (i + 2) % kRefuteExamples;
      std::array<std::uint64_t, kMaxWiredInputs> at{};
      for (unsigned k = 0; k < c->num_inputs; ++k) at[k] = values[in[k]][e];
      if (apply(c, at) != values[target][e]) return false;
    }
    return true;
  }

  /// Can the lines `rest`, placed after `locations`, end in a line whose
  /// value is the target? `rest` is sorted, so equal components are
  /// adjacent and each distinct one is tried once per slot. Outcomes
  /// already seen at this slot are skipped: the rest of the search
  /// depends only on the set of values available.
  bool reaches(std::vector<std::uint32_t>& locations, std::vector<const Component*>& rest) {
    constexpr std::uint32_t kKnown = ~std::uint32_t{0};
    for (std::size_t r = 0; r < rest.size(); ++r) {
      if (r > 0 && rest[r] == rest[r - 1]) continue;
      const Component* c = rest[r];
      rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(r));
      const bool last = rest.empty();
      std::vector<std::uint32_t> outcomes;
      std::array<std::size_t, kMaxWiredInputs> pick{};
      bool found = false;
      bool more = c->num_inputs == 0 || !locations.empty();
      while (more && !found) {
        std::array<std::uint32_t, kMaxWiredInputs> in{};
        for (unsigned k = 0; k < c->num_inputs; ++k) in[k] = locations[pick[k]];
        if (last) {
          found = matches_target(c, in);
        } else {
          const std::uint32_t id = apply(c, in);
          const bool known =
              std::find(locations.begin(), locations.end(), id) != locations.end();
          const std::uint32_t outcome = known ? kKnown : id;
          if (std::find(outcomes.begin(), outcomes.end(), outcome) == outcomes.end()) {
            outcomes.push_back(outcome);
            if (!known) locations.push_back(id);
            found = reaches(locations, rest);
            if (!known) locations.pop_back();
          }
        }
        found |= spent > kWiringBudget;  // give up unrefuted
        // Next input tuple (odometer over the locations).
        unsigned k = 0;
        while (k < c->num_inputs && ++pick[k] == locations.size()) pick[k++] = 0;
        more = k < c->num_inputs;
      }
      rest.insert(rest.begin() + static_cast<std::ptrdiff_t>(r), c);
      if (found) return true;
    }
    return false;
  }

  unsigned xlen;
  smt::TermManager mgr;
  std::vector<std::uint32_t> registers;  // value id per register input
  std::uint32_t target = 0;              // value id of the spec's outputs
  std::vector<Values> values;            // id -> values
  std::unordered_map<Values, std::uint32_t, KeyHash> ids;
  std::unordered_map<ValueKey, std::uint64_t, KeyHash> value_memo;
  std::unordered_map<VectorKey, std::uint32_t, KeyHash> vector_memo;
  std::uint64_t spent = 0;
};

MultisetRefuter::MultisetRefuter(const SynthSpec& spec, const CegisOptions& options)
    : spec_(spec), all_outputs_used_(options.require_all_outputs_used) {
  const unsigned xlen = options.xlen;
  const auto examples = refutation_examples(spec, xlen);
  wirings_ = std::make_unique<Wirings>(spec, examples, xlen);
  // An input is essential when flipping one or all of its bits on some
  // example changes the spec's output.
  for (unsigned i = 0; i < spec.inputs.size(); ++i) {
    bool essential = false;
    for (unsigned e = 0; e < kRefuteExamples && !essential; ++e) {
      const std::uint64_t base = wirings_->values[wirings_->target][e];
      const BitVec& v = examples[e][i];
      const unsigned w = v.width();
      for (std::uint64_t flip : {std::uint64_t{1}, std::uint64_t{1} << (w - 1), ~std::uint64_t{0}}) {
        std::vector<BitVec> other = examples[e];
        other[i] = BitVec(w, v.uval() ^ flip);
        if (eval_spec(wirings_->mgr, spec, other, xlen) != base) {
          essential = true;
          break;
        }
      }
    }
    essential_.push_back(essential);
  }
}

MultisetRefuter::~MultisetRefuter() = default;

const std::vector<bool>& MultisetRefuter::essential_inputs() const { return essential_; }

bool MultisetRefuter::unreachable(const std::vector<const Component*>& multiset) const {
  int essential_regs = 0;
  for (unsigned i = 0; i < spec_.inputs.size(); ++i) {
    if (!essential_[i]) continue;
    if (spec_.inputs[i] == InputClass::Reg) {
      ++essential_regs;
      continue;
    }
    bool routed = false;  // (b)
    for (const Component* c : multiset)
      for (AttrClass a : c->attrs) {
        const auto cands = passthrough_candidates(spec_, a);
        routed |= std::find(cands.begin(), cands.end(), i) != cands.end();
      }
    if (!routed) return true;
  }
  if (!all_outputs_used_) return false;
  int free_slots = 1 - static_cast<int>(multiset.size());  // (a)
  for (const Component* c : multiset) free_slots += static_cast<int>(c->num_inputs);
  return essential_regs > free_slots;
}

bool MultisetRefuter::refutes(const std::vector<const Component*>& multiset) {
  if (multiset.empty()) return false;
  if (unreachable(multiset)) return true;
  for (const Component* c : multiset)
    if (!c->attrs.empty() || c->num_inputs > kMaxWiredInputs) return false;
  return !wirings_->some_wiring_matches(multiset);
}

namespace {

std::vector<const Component*> to_pointers(const std::vector<unsigned>& multiset,
                                          const std::vector<Component>& lib) {
  std::vector<const Component*> ptrs;
  ptrs.reserve(multiset.size());
  for (unsigned j : multiset) ptrs.push_back(&lib[j]);
  return ptrs;
}

/// Shared per-multiset attempt: refute or run CEGIS, dedupe, account.
bool attempt_multiset(const SynthSpec& spec, const std::vector<unsigned>& multiset,
                      const std::vector<Component>& lib, const DriverOptions& opts,
                      MultisetRefuter& refuter, SynthesisResult& result,
                      std::set<std::string>& seen) {
  ++result.multisets_tried;
  const std::vector<const Component*> comps = to_pointers(multiset, lib);
  if (refuter.refutes(comps)) return false;
  auto program = cegis_multiset(spec, comps, opts.cegis);
  if (!program) return false;
  ++result.multisets_succeeded;
  const std::string fp = program->fingerprint();
  if (seen.insert(fp).second) result.programs.push_back(std::move(*program));
  return true;
}

bool reached_target(const SynthesisResult& result, const DriverOptions& opts,
                    const Stopwatch& clock) {
  if (result.programs.size() >= opts.target_programs) return true;
  if (opts.max_seconds > 0 && clock.seconds() >= opts.max_seconds) return true;
  return false;
}

}  // namespace

SynthesisResult hpf_cegis(const SynthSpec& spec, const std::vector<Component>& lib,
                          const DriverOptions& opts, const HpfOptions& hpf,
                          PriorityDict* shared_dict) {
  Stopwatch clock;
  SynthesisResult result;
  std::set<std::string> seen;

  PriorityDict local_dict(lib.size(), hpf);
  PriorityDict& dict = shared_dict ? *shared_dict : local_dict;
  MultisetRefuter refuter(spec, opts.cegis);

  // MULTISETS <- COMBINATIONSWITHREPLACEMENT(B, n)   (Algorithm 1, line 5)
  auto multisets = combinations_with_replacement(static_cast<unsigned>(lib.size()),
                                                 opts.multiset_size);

  while (!multisets.empty() && !reached_target(result, opts, clock)) {
    // SORTED(MULTISETS, PRIORITY_DICT, g); S <- MULTISETS[0]  (lines 9-10)
    // A full sort is what the paper specifies; one scan that keeps the
    // first maximum is the same selection, with each priority evaluated
    // once. The chosen multiset is then removed so each is attempted at
    // most once per instruction.
    std::size_t best = 0;
    double best_priority = dict.priority(multisets[0], spec, lib);
    for (std::size_t i = 1; i < multisets.size(); ++i) {
      const double p = dict.priority(multisets[i], spec, lib);
      if (best_priority < p) {
        best = i;
        best_priority = p;
      }
    }
    const std::vector<unsigned> chosen = std::move(multisets[best]);
    multisets[best] = std::move(multisets.back());
    multisets.pop_back();

    if (attempt_multiset(spec, chosen, lib, opts, refuter, result, seen)) {
      dict.reward(chosen);     // line 16
    } else {
      dict.penalize(chosen);   // line 13
    }
  }
  result.exhausted = multisets.empty();
  result.seconds = clock.seconds();
  return result;
}

SynthesisResult iterative_cegis(const SynthSpec& spec, const std::vector<Component>& lib,
                                const DriverOptions& opts) {
  Stopwatch clock;
  SynthesisResult result;
  std::set<std::string> seen;

  auto multisets = combinations_with_replacement(static_cast<unsigned>(lib.size()),
                                                 opts.multiset_size);
  // §6.1: "we shuffle all multisets before synthesis to prevent the
  // clustering of similar data types".
  Rng rng(opts.shuffle_seed);
  for (std::size_t i = multisets.size(); i > 1; --i)
    std::swap(multisets[i - 1], multisets[rng.below(i)]);

  MultisetRefuter refuter(spec, opts.cegis);
  for (const auto& multiset : multisets) {
    if (reached_target(result, opts, clock)) break;
    attempt_multiset(spec, multiset, lib, opts, refuter, result, seen);
  }
  result.exhausted = true;
  result.seconds = clock.seconds();
  return result;
}

SynthesisResult classical_cegis(const SynthSpec& spec, const std::vector<Component>& lib,
                                const DriverOptions& opts, unsigned instances) {
  Stopwatch clock;
  SynthesisResult result;
  std::set<std::string> seen;

  // One monolithic multiset: `instances` copies of every component.
  std::vector<unsigned> all;
  for (unsigned rep = 0; rep < instances; ++rep)
    for (unsigned j = 0; j < lib.size(); ++j) all.push_back(j);

  MultisetRefuter refuter(spec, opts.cegis);
  attempt_multiset(spec, all, lib, opts, refuter, result, seen);
  result.exhausted = true;
  result.seconds = clock.seconds();
  return result;
}

void EquivalenceTable::add(const std::string& instr_name, SynthProgram program) {
  table_[instr_name].push_back(std::move(program));
}

const std::vector<SynthProgram>* EquivalenceTable::find(
    const std::string& instr_name) const {
  const auto it = table_.find(instr_name);
  return it != table_.end() ? &it->second : nullptr;
}

const SynthProgram* EquivalenceTable::first(const std::string& instr_name) const {
  const auto* v = find(instr_name);
  return v && !v->empty() ? &v->front() : nullptr;
}

const SynthProgram* EquivalenceTable::first_avoiding(const std::string& instr_name,
                                                     isa::Opcode op) const {
  const auto* v = find(instr_name);
  if (!v) return nullptr;
  for (const SynthProgram& p : *v)
    if (!p.uses_opcode(op)) return &p;
  return nullptr;
}

EquivalenceTable EquivalenceTable::select_distinct() const {
  EquivalenceTable out;
  for (const auto& [name, programs] : table_) {
    const SynthProgram* chosen = nullptr;
    // Prefer a program that avoids the instruction's own opcode — it
    // maximizes datapath separation, the property §4.2's α-penalty aims
    // for.
    for (const SynthProgram& p : programs) {
      if (!p.uses_opcode(p.spec->opcode)) {
        chosen = &p;
        break;
      }
    }
    if (!chosen && !programs.empty()) chosen = &programs.front();
    if (chosen) out.add(name, *chosen);
  }
  return out;
}

std::string EquivalenceTable::to_string() const {
  std::ostringstream os;
  for (const auto& [name, programs] : table_) {
    os << "# " << name << " (" << programs.size() << " equivalent program"
       << (programs.size() == 1 ? "" : "s") << ")\n";
    for (const SynthProgram& p : programs) {
      std::istringstream lines(p.to_string());
      std::string line;
      while (std::getline(lines, line)) os << "    " << line << "\n";
      os << "    --\n";
    }
  }
  return os.str();
}

EquivalenceTable build_equivalence_table(const std::vector<SynthSpec>& specs,
                                         const std::vector<Component>& lib,
                                         const DriverOptions& opts,
                                         unsigned programs_per_instr) {
  EquivalenceTable table;
  HpfOptions hpf;
  PriorityDict dict(lib.size(), hpf);
  for (const SynthSpec& spec : specs) {
    DriverOptions per = opts;
    per.target_programs = programs_per_instr;
    // Escalate the multiset size when the configured one cannot express
    // the instruction (the iterative-CEGIS idea of growing multisets).
    for (unsigned n = opts.multiset_size; n <= opts.multiset_size + 2; ++n) {
      per.multiset_size = n;
      auto result = hpf_cegis(spec, lib, per, hpf, &dict);
      if (!result.programs.empty()) {
        for (SynthProgram& p : result.programs) table.add(spec.name, std::move(p));
        break;
      }
    }
  }
  return table;
}

}  // namespace sepe::synth
