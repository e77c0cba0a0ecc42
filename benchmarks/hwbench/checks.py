"""Parse what each CLI call wrote and compare it with its stored reference.

Nothing is compared byte for byte, so a change of numerical route that keeps
the program's guarantees needs no new references.  Tolerances follow those
guarantees:

- oracle values: 1e-12 relative, the exactness gate of the oracle;
- Monte Carlo means and quantiles: 1e-8 relative, the residual certificate
  ``spectral_norm`` gives each replicate (``tol * estimate``);
- closed-form bounds and thresholds: 1e-12 relative;
- clustering misclassification: exact.
"""

from __future__ import annotations

import csv
import json
import os

ORACLE_REL = 1e-12
MC_REL = 1e-8
BOUND_REL = 1e-12
# A standard error moves by at most max|delta| when every replicate moves by
# delta; replicate norms on these inputs stay below four times their mean.
MC_STD_ERR_OF_MEAN = 4 * MC_REL

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "references")


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def parse_output(kind: str, path: str):
    """The values of one CLI output file that the checks compare."""
    if kind == "simulate":
        est = _read_json(path)["estimate"]
        return {"n_reps": est["n_reps"], "mean": est["mean"], "std_err": est["std_err"],
                "quantiles": est["quantiles"]}
    if kind == "sweep":
        return [{"name": r["name"], "p1": int(r["p1"]), "p2": int(r["p2"]),
                 "n_reps": int(r["n_reps"]), "mean": float(r["mean"]),
                 "std_err": float(r["std_err"]), "bound": float(r["bound"]),
                 "ratio": float(r["ratio"])} for r in _read_csv(path)]
    if kind == "oracle":
        out = _read_json(path)
        keys = ("value",) if "value" in out else ("lhs", "rhs", "holds")
        return {k: out[k] for k in keys}
    if kind == "cluster":
        return [{"lambda": float(r["lambda"]),
                 "mean_misclassification": float(r["mean_misclassification"]),
                 "std_err": float(r["std_err"]), "n_reps": int(r["n_reps"]),
                 "snr_threshold": float(r["snr_threshold"])} for r in _read_csv(path)]
    raise ValueError(f"unknown output kind {kind!r}")


def _close(a: float, b: float, rel: float = 0.0, abs_tol: float = 0.0) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_tol)


class _Diff:
    def __init__(self):
        self.errors: list[str] = []

    def close(self, where: str, got, want, rel=0.0, abs_tol=0.0):
        if not _close(float(got), float(want), rel, abs_tol):
            self.errors.append(f"{where}: {got!r} != {want!r} (rel {rel:g}, abs {abs_tol:g})")

    def equal(self, where: str, got, want):
        if got != want:
            self.errors.append(f"{where}: {got!r} != {want!r}")


def _compare_mc(d: _Diff, where: str, got: dict, want: dict):
    d.equal(f"{where}.n_reps", got["n_reps"], want["n_reps"])
    d.close(f"{where}.mean", got["mean"], want["mean"], rel=MC_REL)
    d.close(f"{where}.std_err", got["std_err"], want["std_err"],
            abs_tol=MC_STD_ERR_OF_MEAN * abs(want["mean"]))


def compare(kind: str, got, want) -> list[str]:
    """Mismatches between a parsed output and its reference; empty if it passes."""
    d = _Diff()
    if kind == "simulate":
        _compare_mc(d, "estimate", got, want)
        d.equal("quantile levels", sorted(got["quantiles"]), sorted(want["quantiles"]))
        for level in set(got["quantiles"]) & set(want["quantiles"]):
            d.close(f"quantile {level}", got["quantiles"][level], want["quantiles"][level],
                    rel=MC_REL)
    elif kind == "sweep":
        d.equal("rows", len(got), len(want))
        for i, (g, w) in enumerate(zip(got, want)):
            for key in ("name", "p1", "p2"):
                d.equal(f"row {i}.{key}", g[key], w[key])
            _compare_mc(d, f"row {i}", g, w)
            d.close(f"row {i}.bound", g["bound"], w["bound"], rel=BOUND_REL)
            d.close(f"row {i}.ratio", g["ratio"], w["ratio"], rel=MC_REL + BOUND_REL)
    elif kind == "oracle":
        d.equal("fields", sorted(got), sorted(want))
        for key in set(got) & set(want):
            if key == "holds":
                d.equal("holds", got[key], want[key])
            else:
                d.close(key, got[key], want[key], rel=ORACLE_REL)
    elif kind == "cluster":
        d.equal("rows", len(got), len(want))
        for i, (g, w) in enumerate(zip(got, want)):
            d.equal(f"row {i}.n_reps", g["n_reps"], w["n_reps"])
            d.equal(f"row {i}.mean_misclassification", g["mean_misclassification"],
                    w["mean_misclassification"])
            d.close(f"row {i}.std_err", g["std_err"], w["std_err"], rel=BOUND_REL)
            d.close(f"row {i}.lambda", g["lambda"], w["lambda"], rel=BOUND_REL)
            d.close(f"row {i}.snr_threshold", g["snr_threshold"], w["snr_threshold"],
                    rel=BOUND_REL)
    else:
        raise ValueError(f"unknown output kind {kind!r}")
    return d.errors


def reference_path(workload: str) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_references(workload: str) -> dict:
    """``{input set: {invocation label: parsed output}}`` for one workload."""
    blob = _read_json(reference_path(workload))
    return {int(k): v for k, v in blob["references"].items()}
