#!/usr/bin/env python3
"""The repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload table1-cold --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout. The first run builds the
benchmark (Release) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset. Each run starts the workload
in a fresh `perfbench` process, gates every output against the committed
reference, prints one line per metric and, as the last line of stdout,
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones, and the spans land in .bench_out/ as a Chrome Trace
Event file. Exit status 0 only when every output passed the gate.
"""
import argparse
import gzip
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("table1-cold", "table1-warm", "hpf-synth")
HPF_PROGRAMS = 3  # k of the hpf-synth workload (perfbench/src/main.cpp)
FILLS = 3         # cold fills per table1-warm run; setup_s takes their median
RUN_LIMIT_S = 170  # a run must end within 180 s

END_TO_END = {"setup_s": "s", "wall_s": "s", "wall_s_t4": "s", "cpu_s": "s",
              "peak_rss_mb": "MB", "ok_ratio": "ratio"}


def layer_unit(name):
    if name.endswith("props_per_s"):
        return "1/s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "count"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def work_root():
    path = os.path.abspath(".bench_work")
    os.makedirs(path, exist_ok=True)
    return path


def build_dir():
    return os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
                        "perfbench")


def build():
    """Configure (once) and build the benchmark; build output goes to stderr."""
    if not os.path.isfile(os.path.join(HERE, "..", "src", "engine", "shard.hpp")):
        sys.exit("perfbench: run from the root of a source checkout "
                 "(the repository sources are missing)")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j4", "--target", "perfbench", "sepe-dimacs"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return out


def run_binary(args, work, deadline):
    """Run perfbench in a fresh process; its last stdout line is JSON."""
    cmd = [os.path.join(build_dir(), "perfbench")] + args
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              env=dict(os.environ, TMPDIR=work),
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded its time limit: " + " ".join(cmd))
    if done.returncode != 0:
        sys.exit(f"perfbench: {' '.join(cmd)} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class Gate:
    """Counts operations and failures; every mismatch is reported."""

    def __init__(self):
        with open(os.path.join(HERE, "reference", "table1.json")) as f:
            self.reference = json.load(f)["jobs"]
        self.attempted = 0
        self.failed = 0

    def fail(self, what):
        self.failed += 1
        log("perfbench: GATE FAILURE: " + what)

    def table1(self, rows):
        names = sorted(r["name"] for r in rows)
        if names != sorted(self.reference):
            self.attempted += 1
            self.fail(f"job set differs from the reference: {names}")
            return
        for row in rows:
            self.attempted += 1
            want = self.reference[row["name"]]
            diff = {k: (row[k], v) for k, v in want.items() if row[k] != v}
            if row["verdict"] == "UNKNOWN" or diff:
                self.fail(f"{row['name']}: (got, want) {diff or row['verdict']}")

    def hpf(self, cases):
        for case in cases:
            self.attempted += 1
            if case["verified"] < HPF_PROGRAMS or case["verified"] != case["programs"]:
                self.fail(f"{case['name']}: {case['verified']} of {case['programs']} "
                          f"programs re-verified, need {HPF_PROGRAMS}")

    def ops(self, ops):
        for op in ops:
            if op and "verified" in op[0]:
                self.hpf(op)
            else:
                self.table1(op)


def median(values):
    v = sorted(values)
    n = len(v)
    return v[n // 2] if n % 2 else 0.5 * (v[n // 2 - 1] + v[n // 2])


def describe(name, values, unit):
    """Median plus the highest of p75/p90/p95/p99 with >= 10 samples beyond it."""
    n = len(values)
    line = f"{name:<28} median {median(values):.6g} {unit}  (n={n}"
    tail = [p for p in (75, 90, 95, 99) if n * (100 - p) / 100 >= 10]
    if tail:
        p = tail[-1]
        v = sorted(values)[min(n - 1, int(n * p / 100))]
        line += f", p{p} {v:.6g} {unit}"
    return line + ")"


def prepare_fixtures(work):
    """Decompress the committed CNF fixtures and check their digests."""
    src = os.path.join(HERE, "fixtures")
    dst = os.path.join(work, "fixtures")
    os.makedirs(dst)
    with open(os.path.join(src, "MANIFEST")) as f:
        manifest = f.read()
    for line in manifest.splitlines():
        digest, _expect, name = line.split()
        with gzip.open(os.path.join(src, name + ".gz"), "rb") as f:
            data = f.read()
        if hashlib.sha256(data).hexdigest() != digest:
            sys.exit(f"perfbench: fixture {name} does not match its digest")
        with open(os.path.join(dst, name), "wb") as f:
            f.write(data)
    with open(os.path.join(dst, "MANIFEST"), "w") as f:
        f.write(manifest)
    return dst


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seed < 1:
        ap.error("--seed must be positive")

    build()
    deadline = time.monotonic() + RUN_LIMIT_S
    gate = Gate()
    work = tempfile.mkdtemp(prefix=f"{a.workload}-{a.seed}-", dir=work_root())
    try:
        args = ["run", "--workload", a.workload, "--seed", str(a.seed),
                "--seconds", str(a.seconds), "--trace", str(a.trace), "--work", work]
        fill_s = []
        if a.workload == "table1-warm":
            # Each cold fill runs in a process of its own, so that its peak
            # memory cannot mask the warm process's.
            for i in range(FILLS):
                fill = run_binary(["fill", "--seed", str(a.seed), "--cache",
                                   os.path.join(work, f"fill-{i}")], work, deadline)
                gate.table1(fill["rows"])
                fill_s.append(fill["fill_s"])
            args += ["--cache", os.path.join(work, "fill-0")]
        if a.trace:
            args += ["--fixtures", prepare_fixtures(work)]
        res = run_binary(args, work, deadline)
        gate.ops(res["ops"])

        samples = {}
        if a.trace:
            if not res["probes_ok"]:
                gate.attempted += 1
                gate.fail("a layer probe returned a wrong answer (see above)")
            metrics = {k: {"value": v, "unit": layer_unit(k)}
                       for k, v in sorted(res["layers"].items())}
            out = os.path.abspath(".bench_out")
            os.makedirs(out, exist_ok=True)
            shutil.copy(os.path.join(work, "trace.json"),
                        os.path.join(out, f"trace-{a.workload}-{a.seed}.json"))
            log(f"perfbench: spans written to .bench_out/trace-{a.workload}-{a.seed}.json")
        else:
            samples = {"wall_s": res["wall_s"], "wall_s_t4": res["wall_s_t4"],
                       "cpu_s": res["cpu_s"]}
            setup = res["setup_s"] + (median(fill_s) if fill_s else 0.0)
            values = {k: median(v) for k, v in samples.items()}
            values.update(setup_s=setup, peak_rss_mb=res["peak_rss_mb"])
            values["ok_ratio"] = (gate.attempted - gate.failed) / max(1, gate.attempted)
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, m in metrics.items():
        if name in samples:
            print(describe(name, samples[name], m["unit"]))
        else:
            print(f"{name:<28} {m['value']:.6g} {m['unit']}")
    print(f"{'operations':<28} {gate.attempted} attempted, {gate.failed} failed")
    correct = gate.failed == 0 and gate.attempted > 0
    print(json.dumps({"correct": correct, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
