"""Benchmark of the hetwishart command line.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the CLI runs from ``src/`` in child
processes, one at a time.  Workloads (see ``BENCHMARK.json``):

- ``mc_small``: ``simulate`` on a 100x100 uniform(0,1) profile, Gaussian
  model, 500 replicates, ``--threads 2``;
- ``sweep_tall``: ``sweep`` over a ``homoskedastic_rows_grid`` family with
  p1 in {500, 1000, 2000, 3000}, p2 = 100, heavy tail b = 1.5, bound
  ``structured_rows``, 2 replicates, ``--threads 1``;
- ``oracle_desk``: ``oracle`` comparison, deletion, contraction and
  shape_trace at q = 4 on 3x3 and 4x4 profiles;
- ``cluster_phase``: ``cluster`` with n = 400, p = 1000, heteroskedastic
  sigmas, three signal strengths around the SNR threshold, ``--threads 1``.

The seed picks the input set (see ``hwbench.workloads``); every output is
checked against the stored reference of that set (``hwbench.checks``).  A
unit is one pass over a workload's CLI calls; units repeat until ``--seconds``
have passed and timings are medians over units.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (CLI wall time of a
unit), ``work_per_s`` (replicates per second, or bipartite cycles covered
per second on ``oracle_desk``), ``setup_s`` (median of fresh processes that
import the CLI and load the inputs) and ``peak_rss_mb`` (largest ru_maxrss
of a unit's CLI processes).  ``--trace 1`` spends the time on untraced units,
then traced ones (and on ``mc_small`` traced units at ``--threads 1``), and
prints the per-layer metrics of ``hwbench.tracing`` plus ``cli.cpu_per_wall``,
``experiments.pool.speedup`` and ``trace.overhead``.  Per-layer metrics of a
layer that does no work on a workload read 0.

BLAS thread variables are passed to the CLI as found, never set.  The line
before the result is a JSON record of the run: seed, input set, shapes,
environment, each unit's figures and any failure.  Spans and the record stay
in ``.bench_work/`` under the checkout.  The last line is the result:
``{"correct", "attempted", "failed", "metrics"}``; ``failed`` counts CLI calls
that exited nonzero, timed out or failed their output check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

from hwbench import checks, tracing
from hwbench.proc import run_child
from hwbench.workloads import WORKLOADS, Plan, make_plan

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150.0
RUN_LIMIT_S = 170.0  # no CLI call may still run after this
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Unit:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)

    def summary(self) -> dict:
        return {"wall_s": self.wall_s, "cpu_s": self.cpu_s, "peak_rss_mb": self.peak_rss_mb,
                "attempted": self.attempted, "failures": self.failures}


class Runner:
    def __init__(self, plan: Plan, references: dict, workdir: str, started: float):
        self.plan = plan
        self.references = references
        self.workdir = workdir
        self.started = started
        self.calls = 0
        base = dict(os.environ)
        self.env_plain = {**base, "PYTHONPATH": SRC}
        self.env_bench = {**base, "PYTHONPATH": os.pathsep.join((SRC, HERE))}

    def _child(self, argv: list[str], env: dict):
        self.calls += 1
        timeout = min(CHILD_TIMEOUT_S, RUN_LIMIT_S - (perf_counter() - self.started))
        log = os.path.join(self.workdir, f"stderr-{self.calls}.txt")
        return run_child([sys.executable, *argv], env=env, cwd=ROOT, timeout=timeout,
                         log_path=log)

    def setup(self) -> float:
        loads = [f"{loader}={path}" for loader, path in self.plan.loads]
        res = self._child(["-m", "hwbench.setup_probe", *loads], self.env_bench)
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe failed ({res.returncode}): {res.stderr_tail}")
        return res.wall_s

    def unit(self, plan: Plan, traced: bool) -> Unit:
        unit = Unit()
        for inv in plan.invocations:
            if os.path.exists(inv.output):
                os.remove(inv.output)
            if traced:
                spans = os.path.join(self.workdir, f"spans-{self.calls + 1}.json")
                res = self._child(["-m", "hwbench.traced_cli", spans, *inv.argv], self.env_bench)
            else:
                res = self._child(["-m", "hetwishart.cli", *inv.argv], self.env_plain)
            unit.attempted += 1
            unit.wall_s += res.wall_s
            unit.cpu_s += res.cpu_s
            unit.peak_rss_mb = max(unit.peak_rss_mb, res.peak_rss_mb)
            failure = self._check(inv, res)
            if failure:
                unit.failures.append(f"{inv.label}: {failure}")
            elif traced:
                with open(spans, encoding="utf-8") as fh:
                    unit.traces.append(json.load(fh))
        return unit

    def _check(self, inv, res) -> str | None:
        if res.timed_out:
            return "timed out"
        if res.returncode != 0:
            return f"exit code {res.returncode}: {res.stderr_tail.strip()[-300:]}"
        try:
            got = checks.parse_output(inv.kind, inv.output)
        except (OSError, ValueError, KeyError) as exc:
            return f"unreadable output: {exc!r}"
        errors = checks.compare(inv.kind, got, self.references[inv.label])
        return "; ".join(errors[:3]) if errors else None

    def measure(self, plan: Plan, budget_s: float, traced: bool) -> list[Unit]:
        """At least one unit, then more while the next is expected to end
        within budget_s (and within the run limit)."""
        units: list[Unit] = []
        start = perf_counter()
        while True:
            units.append(self.unit(plan, traced))
            expected = _median(u.wall_s for u in units)
            now = perf_counter()
            if (now - start + expected > budget_s
                    or now - self.started + 1.5 * expected > RUN_LIMIT_S):
                return units


def _median(values) -> float:
    return float(statistics.median(values))


def _timed(units: list[Unit]) -> list[Unit]:
    """Units whose calls all passed; all units if none did."""
    return [u for u in units if not u.failures] or units


def end_to_end(plan: Plan, units: list[Unit], setups: list[float]) -> dict[str, float]:
    good = _timed(units)
    return {
        "wall_s": _median(u.wall_s for u in good),
        "work_per_s": _median(plan.work / u.wall_s for u in good),
        "setup_s": _median(setups),
        "peak_rss_mb": _median(u.peak_rss_mb for u in good),
    }


def per_layer(plan: Plan, plain: list[Unit], traced: list[Unit],
              traced_one_thread: list[Unit]) -> dict[str, float]:
    cycles = plan.work if plan.work_unit == "cycles" else 0
    rows = [tracing.unit_metrics(u.traces, threads=plan.threads, cycles=cycles)
            for u in _timed(traced)]
    metrics = {key: _median(row[key] for row in rows) for key in rows[0]}
    plain_good, traced_good = _timed(plain), _timed(traced)
    metrics["cli.cpu_per_wall"] = (sum(u.cpu_s for u in plain_good)
                                   / sum(u.wall_s for u in plain_good))
    traced_wall = _median(u.wall_s for u in traced_good)
    metrics["trace.overhead"] = traced_wall / _median(u.wall_s for u in plain_good) - 1.0
    metrics["experiments.pool.speedup"] = (
        _median(u.wall_s for u in _timed(traced_one_thread)) / traced_wall
        if traced_one_thread else 0.0)
    return metrics


def _blas_info(module) -> dict | None:
    try:
        deps = module.show_config(mode="dicts")["Build Dependencies"]
        blas = deps["blas"]
    except (AttributeError, KeyError, TypeError):
        return None
    return {k: blas.get(k) for k in ("name", "version", "found")}


def environment() -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    package = os.path.join(SRC, "hetwishart")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "blas_numpy": _blas_info(numpy),
        "blas_scipy": _blas_info(scipy),
        "blas_thread_variables": {v: os.environ.get(v) for v in BLAS_VARIABLES},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def _units_by_name() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    started = perf_counter()
    workdir = os.path.join(ROOT, ".bench_work", f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(workdir, ignore_errors=True)
    plan = make_plan(workload, seed, os.path.join(workdir, "inputs"))
    runner = Runner(plan, checks.load_references(workload)[plan.input_set], workdir, started)
    phases: dict[str, list[Unit]] = {}
    setups: list[float] = []
    if not trace:
        setups = [runner.setup() for _ in range(SETUP_PROBES)]
        phases["plain"] = runner.measure(plan, seconds, traced=False)
        metrics = end_to_end(plan, phases["plain"], setups)
    else:
        # the pool comparison at --threads 1 gets a third of the time
        share = seconds / (3 if plan.threads > 1 else 2)
        phases["plain"] = runner.measure(plan, share, traced=False)
        phases["traced"] = runner.measure(plan, share, traced=True)
        phases["traced_one_thread"] = (
            runner.measure(plan.with_threads(1), share, traced=True) if plan.threads > 1 else [])
        metrics = per_layer(plan, phases["plain"], phases["traced"],
                            phases["traced_one_thread"])
    units = [u for phase in phases.values() for u in phase]
    attempted = sum(u.attempted for u in units)
    failed = sum(len(u.failures) for u in units)
    record = {
        "workload": workload, "seed": seed, "input_set": plan.input_set, "trace": int(trace),
        "seconds": seconds, "threads": plan.threads, "shapes": plan.shapes,
        "work_unit": plan.work_unit, "work_per_unit": plan.work,
        "error_rate": failed / attempted, "setup_s": setups,
        "units": {name: [u.summary() for u in phase] for name, phase in phases.items()},
        "environment": environment(), "workdir": os.path.relpath(workdir, ROOT),
    }
    with open(os.path.join(workdir, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    unit_of = _units_by_name()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of[name]}
                    for name, value in metrics.items()},
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not 0 < args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in (0, 60]")
    if not os.path.isfile(os.path.join(SRC, "hetwishart", "cli.py")):
        print(f"error: no hetwishart source under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    record, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
