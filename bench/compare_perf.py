#!/usr/bin/env python3
"""Compare a campaign_perf report against the committed baseline.

Verdict-bearing fields (job set, verdict, trace_length, proved_k,
bad_label) must match exactly — any drift is a hard failure, because it
means the prover stack changed answers, not just speed. The deterministic
work counters (conflicts / propagations / decisions, CNF sizes) are
advisory: regressions beyond the threshold are reported loudly but exit 0,
so a deliberate trade (e.g. more conflicts for less memory) can land with
an updated baseline rather than a red CI. Wall time is ignored entirely.
When every counter of every job and of the totals matches exactly, the
report says so in one line (`counters: identical to baseline`), which is
what a search-identical solver change must show.

usage: compare_perf.py BASELINE.json CURRENT.json [--threshold 0.10]
"""
import json
import sys

COUNTERS = ("conflicts", "propagations", "decisions", "cnf_vars", "cnf_clauses")
# Campaign-cache traffic (cone lookups/hits and clauses replayed instead
# of re-blasted). Advisory like the work counters, and tolerated when
# absent from a baseline recorded before the cache existed.
CACHE_COUNTERS = ("cone_lookups", "cone_hits", "cone_clauses_replayed")
# CDCL inprocessing work (variables eliminated, clauses subsumed or
# strengthened, clauses vivified). Advisory and absence-tolerant like the
# cache counters: baselines recorded before inprocessing existed simply
# skip them. More inprocessing is not inherently better or worse, so the
# smaller-is-better regression marker does not apply.
INPROC_COUNTERS = ("eliminated_vars", "subsumed_clauses", "vivified_clauses")
# Robustness observables (docs/ROBUSTNESS.md): transient backend failures
# absorbed by retrying, and jobs that tripped a memory ceiling. Advisory
# and absence-tolerant — baselines recorded before the fault framework
# existed simply skip them. In the fault-free bench both should be zero;
# a nonzero value is flagged loudly (it means the bench host itself is
# failing transiently) but never fails the run.
ROBUST_COUNTERS = ("sat_retries", "jobs_hit_memory_limit")
VERDICT_FIELDS = ("verdict", "trace_length", "proved_k", "bad_label")


def main() -> int:
    args = []
    threshold = 0.10
    argv = sys.argv[1:]
    i = 0
    while i < len(argv):
        a = argv[i]
        if a.startswith("--threshold"):
            if "=" in a:
                threshold = float(a.split("=", 1)[1])
            else:
                i += 1
                if i >= len(argv):
                    print("--threshold needs a value", file=sys.stderr)
                    return 2
                threshold = float(argv[i])
        elif a.startswith("--"):
            print(f"unknown flag {a}", file=sys.stderr)
            return 2
        else:
            args.append(a)
        i += 1
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(args[0]) as f:
        base = json.load(f)
    with open(args[1]) as f:
        cur = json.load(f)

    drift = []
    base_jobs = {j["name"]: j for j in base["jobs"]}
    cur_jobs = {j["name"]: j for j in cur["jobs"]}
    if list(base_jobs) != list(cur_jobs):
        drift.append(f"job set changed: {sorted(set(base_jobs) ^ set(cur_jobs))}")
    for name in base_jobs.keys() & cur_jobs.keys():
        for field in VERDICT_FIELDS:
            b, c = base_jobs[name].get(field), cur_jobs[name].get(field)
            if b != c:
                drift.append(f"{name}: {field} {b!r} -> {c!r}")
    if drift:
        print("VERDICT DRIFT — the prover stack changed answers:")
        for line in drift:
            print(f"  {line}")
        return 1

    warm = cur.get("warm_totals")
    if warm is not None:
        print(
            f"warm rerun: {warm['jobs_from_cache']}/{warm['jobs_total']} jobs "
            f"from cache, {warm['conflicts']} conflicts, "
            f"{warm['cnf_clauses']} blasted clauses"
        )
        if warm["jobs_from_cache"] < warm["jobs_total"]:
            print(
                "  warning: the warm rerun did not serve every job from the "
                "verdict cache (advisory)"
            )

    all_counters = COUNTERS + CACHE_COUNTERS + INPROC_COUNTERS + ROBUST_COUNTERS
    regressed = False
    for counter in all_counters:
        b, c = base["totals"].get(counter), cur["totals"].get(counter)
        if b is None or c is None:
            which = "baseline" if b is None else "current"
            print(f"{counter:>22}: not recorded in the {which} report — skipped")
            continue
        # A zero baseline must not mask growth: any nonzero current value
        # counts as an (infinitely large) relative regression.
        delta = (c - b) / b if b else (float("inf") if c else 0.0)
        marker = ""
        if counter in CACHE_COUNTERS:
            # Cache traffic is informational: a higher hit / replay count
            # is an improvement, so the regression marker logic (which
            # assumes smaller-is-better) does not apply.
            if abs(delta) > threshold:
                marker = "  (cache-traffic shift — informational)"
        elif counter in INPROC_COUNTERS:
            if abs(delta) > threshold:
                marker = "  (inprocessing shift — informational)"
        elif delta > threshold:
            marker = f"  <-- REGRESSION beyond {threshold:.0%} (advisory)"
            regressed = True
        elif delta < -threshold:
            marker = "  (improvement — consider refreshing bench/baseline.json)"
        print(f"{counter:>14}: {b:>12} -> {c:>12}  ({delta:+.1%}){marker}")
    if regressed:
        print(
            "\nadvisory: deterministic counters regressed; if intentional, "
            "refresh bench/baseline.json in the same PR"
        )
    else:
        print("\nverdicts identical, counters within threshold")
    drifted = [
        name
        for name in base_jobs
        if any(base_jobs[name].get(c) != cur_jobs[name].get(c) for c in all_counters)
    ]
    if any(base["totals"].get(c) != cur["totals"].get(c) for c in all_counters):
        drifted.append("totals")
    if drifted:
        print(f"counters: differ from baseline in {len(drifted)} of "
              f"{len(base_jobs) + 1} rows (jobs and totals)")
    else:
        print("counters: identical to baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
