// solver_variants.hpp — named CDCL configurations the solver tests sweep.
//
// The default config plus one variant per inprocessing toggle, so every
// stage of the pipeline is both exercised and switched off somewhere.
#pragma once

#include <array>

#include "sat/solver.hpp"

namespace sepe::sat::testing {

struct Variant {
  const char* name;
  SolverConfig config;
};

inline std::array<Variant, 4> solver_variants() {
  SolverConfig no_inprocess, no_vivify, no_bve;
  no_inprocess.inprocess_interval = 0;
  no_vivify.vivify = false;
  no_bve.bve_occurrence_limit = 0;
  return {{{"default", SolverConfig{}},
           {"no_inprocess", no_inprocess},
           {"no_vivify", no_vivify},
           {"no_bve", no_bve}}};
}

}  // namespace sepe::sat::testing
