"""Acceptance suite: one test per numbered criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import contextlib
import csv
import io
import json
import math
import time
from itertools import product

import numpy as np
import pytest
from scipy import integrate

import hetwishart as hw
from hetwishart.cli import main as cli_main
from hetwishart.experiments import concentration_norms, phase_diagram
from hetwishart.moment_oracle import double_factorial

MASTER_SEED = 20250810


def _report(num: int, ok: bool, detail: str, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed <= budget else "FAIL"
    print(f"[acceptance {num:02d}] {status} ({elapsed:.1f}s/{budget:.0f}s) {detail}")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed <= budget, f"criterion {num}: runtime {elapsed:.1f}s over budget {budget:.0f}s"


def _gaussian_pdf(x: float) -> float:
    # closed form: one scipy.stats.norm.pdf call per quadrature point took
    # most of the criterion's 1 s budget
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def test_criterion_01_gaussian_moments():
    start = time.time()
    worst = 0.0
    for alpha in range(0, 11, 2):
        for beta in range(6):
            exact = hw.gaussian_moment(alpha, beta)
            target, _ = integrate.quad(
                lambda x: (x**alpha) * ((x * x - 1.0) ** beta) * _gaussian_pdf(x),
                -np.inf, np.inf, limit=200,
            )
            scale = max(1.0, abs(target))
            worst = max(worst, abs(exact - target) / scale)
            if alpha + 2 * beta >= 2:
                lower = double_factorial(alpha + 2 * beta - 3) * (alpha + beta - 1)
                upper = double_factorial(alpha + 2 * beta - 1)
                assert lower <= exact <= upper
    odd_ok = all(
        hw.gaussian_moment(alpha, beta) == 0
        for alpha in range(1, 11, 2)
        for beta in range(6)
    )
    elapsed = time.time() - start
    _report(1, worst <= 1e-8 and odd_ok, f"max quadrature gap {worst:.2e}", elapsed, 1.0)


def closed_form_q2(sigma: np.ndarray) -> float:
    var = sigma**2
    col = var.T @ var  # (j-sums of products over row pairs)
    total = 0.0
    p1 = var.shape[0]
    for i in range(p1):
        for k in range(p1):
            if i != k:
                total += float(np.sum(var[i] * var[k]))
    return total + 2.0 * float(np.sum(var**2))


def test_criterion_02_oracle_exactness_q2():
    start = time.time()
    # pre-verify the closed form itself by brute-force Monte Carlo on one profile
    sigma0 = np.array([[1.0, 0.5], [0.25, 0.75]])
    rng = np.random.default_rng(MASTER_SEED)
    n = 1_000_000
    Z = rng.standard_normal((n, 2, 2)) * sigma0
    gram = Z @ np.transpose(Z, (0, 2, 1))
    centered = gram - np.diag((sigma0**2).sum(axis=1))
    traces = (centered**2).sum(axis=(1, 2))  # tr(A^2) = ||A||_F^2 for symmetric A
    mc_gap = abs(traces.mean() - closed_form_q2(sigma0))
    mc_se = traces.std(ddof=1) / math.sqrt(n)
    assert mc_gap <= 4 * mc_se, "closed form disagrees with Monte Carlo"

    worst = 0.0
    for _ in range(20):
        p1, p2 = rng.integers(1, 4, size=2)
        sigma = rng.uniform(0.0, 1.0, size=(p1, p2))
        oracle = hw.exact_trace_moment(hw.VarianceProfile(sigma), 2)
        closed = closed_form_q2(sigma)
        worst = max(worst, abs(oracle - closed) / max(1e-300, abs(closed)))
    elapsed = time.time() - start
    _report(2, worst <= 1e-10, f"max relative gap {worst:.2e}; MC gap {mc_gap:.3f} <= 4se", elapsed, 10.0)


def test_criterion_03_gaussian_comparison_exhaustive():
    start = time.time()
    values = (0.0, 0.5, 1.0)
    failures = []
    count = 0
    for entries in product(values, repeat=4):
        sigma = np.array(entries).reshape(2, 2)
        for q in (2, 3):
            res = hw.check_gaussian_comparison(hw.VarianceProfile(sigma), q)
            count += 1
            if not res.holds:
                failures.append((entries, q))
    elapsed = time.time() - start
    _report(3, not failures, f"{count} comparisons, failures: {failures}", elapsed, 300.0)


def test_criterion_04_contraction_and_deletion_exhaustive():
    start = time.time()
    failures = []
    count = 0
    for p1 in (1, 2, 3):
        for p2 in (1, 2):
            for entries in product((0.0, 1.0), repeat=p1 * p2):
                sigma = np.array(entries).reshape(p1, p2)
                prof = hw.VarianceProfile(sigma)
                if p1 >= 2:
                    res = hw.check_variance_contraction(prof, 2)
                    count += 1
                    if not res.holds:
                        failures.append(("contraction", entries, (p1, p2)))
                res = hw.check_diagonal_deletion(prof, 2)
                count += 1
                if not res.holds:
                    failures.append(("deletion", entries, (p1, p2)))
    elapsed = time.time() - start
    _report(4, not failures, f"{count} checks, failures: {failures}", elapsed, 120.0)


def test_criterion_05_paired_moment_exhaustive():
    start = time.time()
    failures = []
    count = 0
    for xs in product(range(5), repeat=5):
        x1, x2, x3, x4, x5 = xs
        if (x1 + x5) % 2 or (x2 + x5) % 2:
            continue
        res = hw.check_paired_moment(*xs)
        count += 1
        if not res.holds:
            failures.append(xs)
    elapsed = time.time() - start
    _report(5, not failures, f"{count} tuples, failures: {failures}", elapsed, 1.0)


def test_criterion_06_homoskedastic_ratio():
    start = time.time()
    p = 300
    prof = hw.VarianceProfile(np.ones((p, p)))
    norms = concentration_norms(prof, hw.Gaussian(), 20, MASTER_SEED)
    ratio = float(norms.mean()) / (2.0 * math.sqrt(p * p) + p)
    elapsed = time.time() - start
    _report(6, 0.80 <= ratio <= 1.10, f"mean/(2 sqrt(p1 p2) + p1) = {ratio:.4f}", elapsed, 120.0)


SWEEP_SEED = MASTER_SEED + 7


@pytest.fixture(scope="module")
def thm1_sweep(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("thm1")
    cfg = {
        "family": {
            "kind": "random_uniform",
            "count": 50,
            "p1_min": 10, "p1_max": 200,
            "p2_min": 10, "p2_max": 200,
            "sigma_min": 0.0, "sigma_max": 1.0,
        },
        "model": {"model": "gaussian", "params": {}},
        "reps": 20,
        "bound": {"id": "gaussian", "eps1": 0.1, "eps2": 0.1},
    }
    cfg_path = tmp / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp / "threads1.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(["sweep", "--config", str(cfg_path), "--seed", str(SWEEP_SEED),
                         "--threads", "1", "--out", str(out)])
    assert code == 0
    return cfg_path, out


def test_criterion_07_gaussian_bound_never_violated(thm1_sweep, capsys):
    start = time.time()
    _, csv_path = thm1_sweep
    rows = list(csv.DictReader(io.StringIO(csv_path.read_text())))
    assert len(rows) == 50
    ratios = [float(r["ratio"]) for r in rows]
    worst = max(ratios)
    elapsed = time.time() - start
    with capsys.disabled():
        _report(7, worst <= 1.0, f"50 profiles, max mean/bound = {worst:.4f}", elapsed, 600.0)


def test_criterion_08_structured_rates_window():
    start = time.time()
    rng = np.random.default_rng(MASTER_SEED + 1)
    ratios = {}
    for kind, grid in (("rows", (50, 100, 200)), ("columns", (50, 100, 200))):
        named = []
        for dim in grid:
            sig = rng.uniform(0.5, 1.5, size=dim)
            prof = (
                hw.homoskedastic_rows(sig, 100) if kind == "rows"
                else hw.homoskedastic_columns(sig, 100)
            )
            named.append((f"{kind}{dim}", prof))
        rows = hw.rate_sweep(
            named, hw.Gaussian(), 20, f"structured_{kind}", MASTER_SEED + 2
        )
        for row in rows:
            ratios[row.name] = row.ratio
    ok = all(0.2 <= r <= 3.0 for r in ratios.values())
    elapsed = time.time() - start
    detail = ", ".join(f"{k}={v:.2f}" for k, v in ratios.items())
    _report(8, ok, detail, elapsed, 600.0)


def test_criterion_09_tail_probabilities():
    start = time.time()
    prof = hw.VarianceProfile(np.ones((100, 100)))
    n_reps = 2000
    rows = hw.tail_empirics(prof, hw.Gaussian(), n_reps, [0.5, 1.0, 2.0], C=10.0,
                            master_seed=MASTER_SEED + 3)
    ok = True
    parts = []
    for row in rows:
        allowance = row.tail_prob + 3.0 * math.sqrt(row.tail_prob * (1 - row.tail_prob) / n_reps)
        ok = ok and row.frequency <= allowance
        parts.append(f"x={row.x}: freq {row.frequency:.4f} <= {allowance:.4f}")
    elapsed = time.time() - start
    _report(9, ok, "; ".join(parts), elapsed, 300.0)


def test_criterion_10_clustering_phase_transition():
    start = time.time()
    n, p = 200, 500
    threshold_expected = max(1.0, (p / n) ** 0.25)
    rows, threshold = phase_diagram(
        n=n, p=p, sigmas=np.ones(p),
        lambda_grid=[0.1 * threshold_expected, 5.0 * threshold_expected],
        n_reps=20, master_seed=MASTER_SEED + 4,
    )
    assert threshold == pytest.approx(threshold_expected, rel=1e-12)
    low, high = rows[0].mean_misclassification, rows[1].mean_misclassification
    ok = high < 0.05 and low > 0.30
    elapsed = time.time() - start
    _report(10, ok, f"mis(0.1 thr) = {low:.3f} > 0.30, mis(5 thr) = {high:.3f} < 0.05",
            elapsed, 180.0)


def test_criterion_11_threads_byte_identical(thm1_sweep, tmp_path, capsys):
    start = time.time()
    cfg_path, csv_threads1 = thm1_sweep
    out8 = tmp_path / "threads8.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(["sweep", "--config", str(cfg_path), "--seed", str(SWEEP_SEED),
                         "--threads", "8", "--out", str(out8)])
    assert code == 0
    identical = csv_threads1.read_bytes() == out8.read_bytes()
    elapsed = time.time() - start
    with capsys.disabled():
        _report(11, identical, "threads=1 and threads=8 CSVs byte-identical", elapsed, 600.0)
