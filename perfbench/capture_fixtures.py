#!/usr/bin/env python3
"""Capture the SAT-layer CNF fixtures.

Sweeps xor_as_or/EDDI-V and xor_as_or/EDSEP-V to bound 6 through the
DIMACS subprocess backend, with sepe-dimacs behind the copy-through
wrapper dimacs-tee.sh, and keeps the CNF of the last (bound-6) solve of
each: UNSAT for EDDI-V, SAT for EDSEP-V. The fixtures are stored
gzip-compressed with the SHA-256 of their uncompressed bytes in
fixtures/MANIFEST, which perfbench/run.py checks before every traced run.

Run from the root of the repository (builds the benchmark first):
    python3 perfbench/capture_fixtures.py
"""
import gzip
import hashlib
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (build paths)

JOBS = [("xor_as_or/EDDI-V", "UNSAT", "xor_as_or.eddi.b6.cnf"),
        ("xor_as_or/EDSEP-V", "SAT", "xor_as_or.edsep.b6.cnf")]


def main():
    build = run.build()
    fixtures = os.path.join(HERE, "fixtures")
    os.makedirs(fixtures, exist_ok=True)
    lines = []
    for job, expect, name in JOBS:
        with tempfile.TemporaryDirectory(dir=run.work_root()) as capture:
            env = dict(os.environ,
                       SEPE_EXTERNAL_SOLVER=os.path.join(HERE, "dimacs-tee.sh"),
                       PERFBENCH_CAPTURE_DIR=capture,
                       PERFBENCH_SOLVER=os.path.join(build, "sepe", "sepe-dimacs"))
            out = subprocess.run([os.path.join(build, "perfbench"), "capture", "--job", job],
                                 env=env, check=True, capture_output=True, text=True)
            if out.stdout.split() != [job, expect]:
                sys.exit(f"capture: {job}: expected {expect}, got {out.stdout!r}")
            files = sorted(os.listdir(capture), key=lambda f: int(f[8:-4]))
            with open(os.path.join(capture, files[-1]), "rb") as f:
                data = f.read()
        with gzip.GzipFile(os.path.join(fixtures, name + ".gz"), "wb", mtime=0) as f:
            f.write(data)
        lines.append(f"{hashlib.sha256(data).hexdigest()} {expect} {name}\n")
        print(f"{name}: {expect}, {len(data)} bytes, {len(files)} solves captured")
    with open(os.path.join(fixtures, "MANIFEST"), "w") as f:
        f.writelines(lines)


if __name__ == "__main__":
    main()
