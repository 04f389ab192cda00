#include "synth/cegis.hpp"

#include <cassert>
#include <set>
#include <sstream>
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

namespace {

std::vector<const Component*> to_pointers(const std::vector<unsigned>& multiset,
                                          const std::vector<Component>& lib) {
  std::vector<const Component*> ptrs;
  ptrs.reserve(multiset.size());
  for (unsigned j : multiset) ptrs.push_back(&lib[j]);
  return ptrs;
}

/// Shared per-multiset attempt: run CEGIS, dedupe, account.
bool attempt_multiset(const SynthSpec& spec, const std::vector<unsigned>& multiset,
                      const std::vector<Component>& lib, const DriverOptions& opts,
                      SynthesisResult& result, std::set<std::string>& seen) {
  ++result.multisets_tried;
  auto program = cegis_multiset(spec, to_pointers(multiset, lib), opts.cegis);
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

    if (attempt_multiset(spec, chosen, lib, opts, result, seen)) {
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

  for (const auto& multiset : multisets) {
    if (reached_target(result, opts, clock)) break;
    attempt_multiset(spec, multiset, lib, opts, result, seen);
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

  attempt_multiset(spec, all, lib, opts, result, seen);
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
