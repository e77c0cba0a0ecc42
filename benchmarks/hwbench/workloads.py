"""The four CLI workloads: input files generated from a workload seed, and
the invocations that consume them.

A workload seed selects one of ``INPUT_SETS`` input sets (seed modulo
``INPUT_SETS``); each set has a stored reference in ``benchmarks/references``.
Inputs are drawn with Python's ``random.Random`` seeded by a string, whose
stream is fixed across Python and numpy versions, so a stored reference
stays valid wherever the benchmark runs.

Every size below is chosen so that the work a unit does (replicates, or
covered cycles) is the same for every input set; only the values change.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field, replace

INPUT_SETS = 16

WORKLOADS = ("mc_small", "sweep_tall", "oracle_desk", "cluster_phase")

MC_SHAPE = (100, 100)
MC_REPS = 500
MC_THREADS = 2

SWEEP_P1_GRID = (500, 1000, 2000, 3000)
SWEEP_P2 = 100
SWEEP_REPS = 2
SWEEP_TAIL_B = 1.5
# The sweep's sample stream is the same for every input set: at p1 = 3000 the
# ARPACK solve on -A takes 2.1 to 4.9 s per replicate depending on the
# sample, more spread than 8 replicates average out.  Input sets vary the
# profile's sigma range instead.
SWEEP_SAMPLE_SEED = 1

ORACLE_Q = 4

CLUSTER_N = 400
CLUSTER_P = 1000
CLUSTER_REPS = 30
CLUSTER_LAMBDA_FACTORS = (0.5, 2.0, 6.0)  # multiples of the SNR threshold


@dataclass(frozen=True)
class Invocation:
    """One CLI process: its arguments, the file it writes, and its work."""

    label: str              # key of this call's stored reference
    argv: tuple[str, ...]   # arguments after ``python -m hetwishart.cli``
    output: str             # file the CLI writes; parsed by ``checks``
    kind: str               # simulate | sweep | oracle | cluster
    work: int               # replicates, or covered cycles for the oracle


@dataclass(frozen=True)
class Plan:
    workload: str
    input_set: int
    threads: int
    work_unit: str
    invocations: tuple[Invocation, ...]
    loads: tuple[tuple[str, str], ...]  # (loader, path) pairs the setup probe runs
    shapes: dict = field(default_factory=dict)

    @property
    def work(self) -> int:
        return sum(inv.work for inv in self.invocations)

    def with_threads(self, threads: int) -> "Plan":
        """The same inputs run with another ``--threads`` value."""
        invocations = []
        for inv in self.invocations:
            argv = list(inv.argv)
            if "--threads" in argv:
                argv[argv.index("--threads") + 1] = str(threads)
            invocations.append(replace(inv, argv=tuple(argv)))
        return replace(self, threads=threads, invocations=tuple(invocations))


def _rng(workload: str, input_set: int) -> random.Random:
    return random.Random(f"hetwishart-bench:{workload}:{input_set}")


def _write_json(path: str, payload) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return path


def _explicit(sigma) -> dict:
    return {"kind": "explicit", "sigma": sigma}


def _mc_small(rng, workdir):
    p1, p2 = MC_SHAPE
    sigma = [[rng.random() for _ in range(p2)] for _ in range(p1)]
    profile = _write_json(os.path.join(workdir, "mc_profile.json"), _explicit(sigma))
    out = os.path.join(workdir, "mc_out.json")
    argv = ("simulate", "--profile", profile, "--reps", str(MC_REPS),
            "--seed", str(rng.randrange(2**31)), "--threads", str(MC_THREADS), "--out", out)
    invocations = (Invocation("simulate", argv, out, "simulate", MC_REPS),)
    shapes = {"p1": p1, "p2": p2, "reps": MC_REPS, "model": "gaussian"}
    return MC_THREADS, "replicates", invocations, (("profile", profile),), shapes


def _sweep_tall(rng, workdir):
    config = {
        "family": {"kind": "homoskedastic_rows_grid", "p1_grid": list(SWEEP_P1_GRID),
                   "p2": SWEEP_P2, "sigma_min": rng.uniform(0.4, 0.6),
                   "sigma_max": rng.uniform(1.4, 1.6)},
        "model": {"model": "heavy_tail", "params": {"b": SWEEP_TAIL_B}},
        "bound": {"id": "structured_rows"},
        "reps": SWEEP_REPS,
    }
    path = _write_json(os.path.join(workdir, "sweep_config.json"), config)
    out = os.path.join(workdir, "sweep_out.csv")
    argv = ("sweep", "--config", path, "--seed", str(SWEEP_SAMPLE_SEED),
            "--threads", "1", "--out", out)
    work = SWEEP_REPS * len(SWEEP_P1_GRID)
    invocations = (Invocation("sweep", argv, out, "sweep", work),)
    shapes = {"p1_grid": list(SWEEP_P1_GRID), "p2": SWEEP_P2, "reps": SWEEP_REPS,
              "model": f"heavy_tail b={SWEEP_TAIL_B}", "bound": "structured_rows"}
    return 1, "replicates", invocations, (("config", path),), shapes


def _variance_grid(rng, p1, p2, lo, hi):
    return [[rng.uniform(lo, hi) for _ in range(p2)] for _ in range(p1)]


def _sqrt_grid(var):
    return [[math.sqrt(v) for v in row] for row in var]


def oracle_profiles(rng) -> dict[str, list[list[float]]]:
    """Standard-deviation grids for the oracle checks.

    comparison (3x3): every row and column variance sum lies in (1, 2], so
    m1 = m2 = 2 + q - 1 for every input set.  deletion (4x4): every column
    maximum variance lies in [0.75, 0.85], so sum_j sigma_j^4 lies in (2, 3]
    and m = 3 + q - 1.  contraction and shape_trace need no such band.
    """
    comparison = _variance_grid(rng, 3, 3, 0.4, 0.65)
    deletion = _variance_grid(rng, 4, 4, 0.2, 0.75)
    for j in range(4):
        deletion[j][j] = rng.uniform(0.75, 0.85)
    general = _variance_grid(rng, 4, 4, 0.1, 1.0)
    return {"comparison": _sqrt_grid(comparison), "deletion": _sqrt_grid(deletion),
            "general": _sqrt_grid(general)}


def covered_cycles(check: str, sigma: list[list[float]], q: int) -> int:
    """Bipartite cycles (p1 p2)^q over both sides of an oracle check.

    Computed from the input profile with the sizes the paper's comparisons
    define, independently of what the oracle reports.
    """
    p1, p2 = len(sigma), len(sigma[0])
    lhs = (p1 * p2) ** q
    if check in ("trace", "shape_trace", "deleted_trace"):
        return lhs
    var = [[s * s for s in row] for row in sigma]
    if check == "comparison":
        m1 = math.ceil(max(sum(var[i][j] for i in range(p1)) for j in range(p2))) + q - 1
        m2 = math.ceil(max(sum(row) for row in var)) + q - 1
        return lhs + (m1 * m2) ** q
    if check == "deletion":
        col_max = [max(sigma[i][j] for i in range(p1)) for j in range(p2)]
        m = math.ceil(sum(c**4 for c in col_max)) + q - 1
        return lhs + (p1 * m) ** q
    if check == "contraction":
        return lhs + ((p1 - 1) * p2) ** q
    raise ValueError(f"no cycle count for oracle check {check!r}")


ORACLE_CALLS = (
    ("comparison", "comparison"),
    ("deletion", "deletion"),
    ("contraction", "general"),
    ("shape_trace", "general"),
)


def _oracle_desk(rng, workdir):
    grids = oracle_profiles(rng)
    paths = {name: _write_json(os.path.join(workdir, f"oracle_{name}.json"), _explicit(grid))
             for name, grid in grids.items()}
    invocations = []
    for check, grid in ORACLE_CALLS:
        out = os.path.join(workdir, f"oracle_{check}_out.json")
        argv = ("oracle", "--check", check, "--profile", paths[grid], "--q", str(ORACLE_Q),
                "--out", out)
        invocations.append(
            Invocation(check, argv, out, "oracle", covered_cycles(check, grids[grid], ORACLE_Q)))
    shapes = {check: f"{len(grids[g])}x{len(grids[g][0])} q={ORACLE_Q}" for check, g in ORACLE_CALLS}
    loads = tuple(("profile", p) for p in paths.values())
    return 1, "cycles", tuple(invocations), loads, shapes


def snr_threshold(sigmas, n: int) -> float:
    """sigma_* v sigma_tilde / n^(1/4), with sigma_tilde^4 = sum_i sigma_i^4."""
    return max(max(sigmas), sum(s**4 for s in sigmas) ** 0.25 / n**0.25)


def _cluster_phase(rng, workdir):
    sigmas = [rng.uniform(0.5, 1.5) for _ in range(CLUSTER_P)]
    threshold = snr_threshold(sigmas, CLUSTER_N)
    lambdas = [f * threshold for f in CLUSTER_LAMBDA_FACTORS]
    config = {"n": CLUSTER_N, "p": CLUSTER_P, "reps": CLUSTER_REPS, "lambdas": lambdas,
              "sigmas": sigmas}
    path = _write_json(os.path.join(workdir, "cluster_config.json"), config)
    out = os.path.join(workdir, "cluster_out.csv")
    argv = ("cluster", "--config", path, "--seed", str(rng.randrange(2**31)),
            "--threads", "1", "--out", out)
    work = CLUSTER_REPS * len(lambdas)
    invocations = (Invocation("cluster", argv, out, "cluster", work),)
    shapes = {"n": CLUSTER_N, "p": CLUSTER_P, "reps": CLUSTER_REPS,
              "lambda_over_threshold": list(CLUSTER_LAMBDA_FACTORS)}
    return 1, "replicates", invocations, (("config", path),), shapes


_BUILDERS = {
    "mc_small": _mc_small,
    "sweep_tall": _sweep_tall,
    "oracle_desk": _oracle_desk,
    "cluster_phase": _cluster_phase,
}


def make_plan(workload: str, seed: int, workdir: str) -> Plan:
    """Write the workload's input files into ``workdir`` and return its plan."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    input_set = seed % INPUT_SETS
    os.makedirs(workdir, exist_ok=True)
    threads, unit, invocations, loads, shapes = _BUILDERS[workload](_rng(workload, input_set), workdir)
    return Plan(workload, input_set, threads, unit, invocations, loads, shapes)
