"""Produce the stored references the benchmark checks outputs against.

    python3 benchmarks/make_references.py [WORKLOAD ...]

Runs every invocation of every input set at ``--threads 1`` from ``src/``
and writes ``benchmarks/references/<workload>.json``.  Run it from the root
of a checkout of the commit whose outputs are the reference.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

from hwbench import checks
from hwbench.proc import run_child
from hwbench.workloads import INPUT_SETS, WORKLOADS, make_plan

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def references_for(workload: str, scratch: str) -> dict:
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    out = {}
    for input_set in range(INPUT_SETS):
        plan = make_plan(workload, input_set, os.path.join(scratch, str(input_set)))
        out[str(input_set)] = {}
        for inv in plan.with_threads(1).invocations:
            res = run_child([sys.executable, "-m", "hetwishart.cli", *inv.argv], env=env,
                            cwd=ROOT, timeout=600, log_path=os.path.join(scratch, "stderr.txt"))
            if res.returncode != 0:
                raise SystemExit(f"{workload} set {input_set} {inv.label}: {res.stderr_tail}")
            out[str(input_set)][inv.label] = checks.parse_output(inv.kind, inv.output)
        print(f"{workload} input set {input_set} done", file=sys.stderr)
    return out


def main(argv: list[str]) -> int:
    os.makedirs(checks.REFERENCE_DIR, exist_ok=True)
    for workload in argv or WORKLOADS:
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_refs-") as scratch:
            refs = references_for(workload, scratch)
        with open(checks.reference_path(workload), "w", encoding="utf-8") as fh:
            json.dump({"workload": workload, "threads": 1, "references": refs}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
