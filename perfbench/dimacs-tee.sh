#!/bin/sh
# Copy-through DIMACS solver: keeps a copy of every CNF file the DIMACS
# backend hands to its external solver, then runs the real solver on it.
#   PERFBENCH_CAPTURE_DIR  where the copies go (capture-<n>.cnf, in order)
#   PERFBENCH_SOLVER       the real solver (sepe-dimacs)
set -e
n=$(ls "$PERFBENCH_CAPTURE_DIR" | wc -l)
cp "$1" "$PERFBENCH_CAPTURE_DIR/capture-$n.cnf"
exec "$PERFBENCH_SOLVER" "$1"
