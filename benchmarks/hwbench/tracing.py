"""Spans around calls into each hetwishart module, recorded from outside it.

``install`` replaces module attributes with timing wrappers at the names
their callers look up (``experiments.sample`` rather than
``samplers.sample``, because ``experiments`` imported the name).  Spans are
kept in memory and written out once, when the traced process ends; the
benchmark turns them into per-layer metrics with ``unit_metrics``.

Layers are the package modules: cli, profiles, samplers, spectral, bounds,
moment_oracle and experiments.  ``*_mb`` and ``*_gflop`` span attributes are
computed from array shapes, not measured.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import statistics
import threading
from dataclasses import dataclass
from time import perf_counter

# ---------------------------------------------------------------- recording


def _sample_attrs(args, kwargs):
    seed = args[2] if len(args) > 2 else kwargs["seed"]
    p1, p2 = args[0].shape
    return {"rep": seed.replicate_index, "mb": p1 * p2 * 8 / 1e6}


def _expected_gram_attrs(args, kwargs):
    p1 = args[0].shape[0]
    return {"mb": p1 * p1 * 8 / 1e6}


def _centered_gram_attrs(args, kwargs):
    p1, p2 = args[0].shape
    return {"mb": p1 * p1 * 8 / 1e6, "gflop": 2.0 * p1 * p1 * p2 / 1e9}


def _mixture_attrs(args, kwargs):
    seed = args[1] if len(args) > 1 else kwargs["seed"]
    return {"rep": seed.replicate_index}


def _cluster_attrs(args, kwargs):
    n, p = args[0].shape
    # Y Y' costs 2 n^2 p; a symmetric eigensolver with vectors about 9 n^3
    return {"gflop": (2.0 * n * n * p + 9.0 * n**3) / 1e9}


def _oracle_attrs(args, kwargs):
    profile = args[0] if args else kwargs["profile"]
    return {"ones": bool((profile.sigma == 1.0).all())}


LAYERS = ("cli", "profiles", "samplers", "spectral", "bounds", "moment_oracle", "experiments")

ORACLE_ENUMERATORS = (
    "exact_trace_moment",
    "exact_trace_moment_by_shape",
    "exact_deleted_diagonal_trace_moment",
)

PROFILE_LOADERS = ("load_profile", "profile_from_json", "homoskedastic_rows")

# (module, attribute, span name, attribute extractor).  The module is where
# callers look the name up; a missing attribute is skipped, so the tracer
# keeps working when a later version removes or moves a function.
TARGETS = (
    *(("hetwishart.profiles", f, f"profiles.{f}", None) for f in PROFILE_LOADERS),
    ("hetwishart.profiles", "summarize", "profiles.summarize", None),
    ("hetwishart.experiments", "summarize", "profiles.summarize", None),
    ("hetwishart.experiments", "sample", "samplers.sample", _sample_attrs),
    ("hetwishart.spectral", "expected_gram", "samplers.expected_gram", _expected_gram_attrs),
    ("hetwishart.experiments", "centered_gram", "spectral.centered_gram", _centered_gram_attrs),
    ("hetwishart.experiments", "spectral_norm", "spectral.spectral_norm", None),
    *(("hetwishart.moment_oracle", f, f"moment_oracle.{f}", _oracle_attrs)
      for f in ORACLE_ENUMERATORS),
    *(("hetwishart.moment_oracle", f, f"moment_oracle.{f}", None)
      for f in ("check_gaussian_comparison", "check_variance_contraction",
                "check_diagonal_deletion", "merge_last_rows")),
    *(("hetwishart.experiments", f, f"experiments.{f}", None)
      for f in ("estimate_concentration", "concentration_norms", "rate_sweep",
                "evaluate_bound", "sweep_rows_to_csv", "phase_diagram",
                "misclassification", "phase_rows_to_csv")),
    ("hetwishart.experiments", "generate_mixture", "experiments.generate_mixture", _mixture_attrs),
    ("hetwishart.experiments", "spectral_cluster", "experiments.spectral_cluster", _cluster_attrs),
)

# Solver calls are counted, with the span they were made from, but get no
# span of their own: their time stays in the calling span's self time.
COUNTED = (
    ("scipy.sparse.linalg", "eigsh", "spectral.eigsh"),
    ("numpy.linalg", "eigvalsh", "spectral.eigvalsh"),
)


class Recorder:
    """Collects spans (id, name, start, end, parent, thread, replicate, attrs)
    and counted calls (name, id of the open span they were made from).

    Each thread keeps its own stack of open spans.  A span opened on a
    worker thread with an empty stack takes the innermost open span of the
    main thread as its parent: the call that started the worker pool.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: list[tuple] = []
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._rep: dict[int, int] = {}
        self._main = threading.main_thread().ident

    def wrap(self, name: str, fn, attrs=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = rec._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main = rec._stacks.get(rec._main) if tid != rec._main else None
                parent = main[-1] if main else None
            extra = None
            if attrs is not None:
                try:
                    extra = attrs(args, kwargs)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    extra = None
                if extra and "rep" in extra:
                    rec._rep[tid] = extra["rep"]
            span_id = next(rec._ids)
            stack.append(span_id)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                rec.spans.append((span_id, name, start, end, parent, tid, rec._rep.get(tid), extra))

        return traced

    def counter(self, name: str, fn):
        rec = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            stack = rec._stacks.get(threading.get_ident())
            rec.counts.append((name, stack[-1] if stack else None))
            return fn(*args, **kwargs)

        return counted

    def dump(self, path: str, **extras) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts, **extras}, fh)


def install(rec: Recorder) -> list[str]:
    """Wrap every target that exists; returns the span names installed."""
    installed = []
    for module, attr, name, attrs in TARGETS:
        mod = importlib.import_module(module)
        fn = getattr(mod, attr, None)
        if callable(fn):
            setattr(mod, attr, rec.wrap(name, fn, attrs))
            installed.append(name)
    for module, attr, name in COUNTED:
        mod = importlib.import_module(module)
        fn = getattr(mod, attr, None)
        if callable(fn):
            setattr(mod, attr, rec.counter(name, fn))
            installed.append(name)
    bounds = importlib.import_module("hetwishart.bounds")
    for attr in getattr(bounds, "__all__", ()):
        fn = getattr(bounds, attr, None)
        if inspect.isfunction(fn):
            setattr(bounds, attr, rec.wrap(f"bounds.{attr}", fn))
            installed.append(f"bounds.{attr}")
    return installed


# ---------------------------------------------------------------- analysis


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    rep: int | None
    attrs: dict | None
    self_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def with_self_times(raw) -> list[Span]:
    """Spans of one process, each with its duration minus what its children cover."""
    spans = [Span(*row) for row in raw]
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    for s in spans:
        kids = children.get(s.id, ())
        s.self_s = s.duration - covered_length(((k.start, k.end) for k in kids), s.start, s.end)
    return spans


REPLICATE_BOUNDS = {
    "samplers.sample": "spectral.spectral_norm",
    "experiments.generate_mixture": "experiments.spectral_cluster",
}


def replicate_intervals(spans: list[Span]) -> list[tuple[float, float]]:
    """Replicates: from a sample (or mixture) call to the end of the norm (or
    clustering) call on the same thread with the same replicate index."""
    by_thread: dict[int, list[Span]] = {}
    for s in spans:
        by_thread.setdefault(s.thread, []).append(s)
    out = []
    for thread_spans in by_thread.values():
        open_rep = None
        for s in sorted(thread_spans, key=lambda s: s.start):
            if s.name in REPLICATE_BOUNDS:
                open_rep = (REPLICATE_BOUNDS[s.name], s.rep, s.start)
            elif open_rep and s.name == open_rep[0] and s.rep == open_rep[1]:
                out.append((open_rep[2], s.end))
                open_rep = None
    return out


TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_level(n: int) -> float:
    """Highest percentile with at least ten samples beyond it (50 if none)."""
    for level in TAIL_LEVELS:
        if n * (1.0 - level / 100.0) >= 10:
            return level
    return 50.0


def percentile(values, level: float) -> float:
    """Linearly interpolated percentile (numpy's default); 0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * level / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def unit_metrics(children: list[dict], *, threads: int, cycles: int) -> dict[str, float]:
    """Per-layer metrics of one traced unit (the span dumps of its CLI calls).

    ``threads`` is the unit's ``--threads``; ``cycles`` the covered cycles
    (0 for Monte Carlo workloads).
    """
    spans: list[Span] = []
    replicates: list[tuple[float, float]] = []
    solver_calls = {name: 0 for _, _, name in COUNTED}
    hits = misses = 0
    for child in children:
        own = with_self_times(child["spans"])
        spans.extend(own)
        replicates.extend(replicate_intervals(own))
        norm_ids = {s.id for s in own if s.name == "spectral.spectral_norm"}
        for name, parent in child.get("counts", ()):
            if parent in norm_ids:
                solver_calls[name] += 1
        hits += child.get("gaussian_moment_cache", {}).get("hits", 0)
        misses += child.get("gaussian_moment_cache", {}).get("misses", 0)

    def named(name):
        return [s for s in spans if s.name == name]

    def self_s(*names, prefix=None):
        return sum(s.self_s for s in spans
                   if s.name in names or (prefix and s.name.startswith(prefix)))

    def attr_max(name, key):
        return max((s.attrs[key] for s in named(name) if s.attrs and key in s.attrs), default=0.0)

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in named(name) if s.attrs and key in s.attrs)

    norms = named("spectral.spectral_norm")

    def per_norm(solver):
        return solver_calls[solver] / len(norms) if norms else 0.0

    rep_ms = [(b - a) * 1e3 for a, b in replicates]
    rep_total = sum(b - a for a, b in replicates)
    pool_wall = sum(s.duration for s in spans
                    if s.name in ("experiments.concentration_norms", "experiments.phase_diagram"))
    level = tail_level(len(rep_ms))
    oracle = [s for s in spans if s.name.removeprefix("moment_oracle.") in ORACLE_ENUMERATORS]
    oracle_s = sum(s.self_s for s in oracle)
    reference_s = sum(s.self_s for s in oracle if s.attrs and s.attrs.get("ones"))

    total_self = sum(s.self_s for s in spans)
    shares = {f"{layer}.self_share": self_s(prefix=f"{layer}.") / total_self if total_self else 0.0
              for layer in LAYERS}

    return {
        **shares,
        "cli.import_s": statistics.fmean(c["import_s"] for c in children) if children else 0.0,
        "profiles.load_s": self_s(*(f"profiles.{f}" for f in PROFILE_LOADERS)),
        "profiles.summarize.calls": len(named("profiles.summarize")),
        "samplers.sample.calls": len(named("samplers.sample")),
        "samplers.sample.self_s": self_s("samplers.sample"),
        "samplers.sample.mb": attr_max("samplers.sample", "mb"),
        "samplers.expected_gram.self_s": self_s("samplers.expected_gram"),
        "samplers.expected_gram.mb": attr_max("samplers.expected_gram", "mb"),
        "spectral.centered_gram.self_s": self_s("spectral.centered_gram"),
        "spectral.centered_gram.mb": attr_max("spectral.centered_gram", "mb"),
        "spectral.centered_gram.gflop": attr_sum("spectral.centered_gram", "gflop"),
        "spectral.spectral_norm.calls": len(norms),
        "spectral.spectral_norm.self_s": self_s("spectral.spectral_norm"),
        "spectral.spectral_norm.share":
            sum(s.duration for s in norms) / rep_total if rep_total else 0.0,
        "spectral.eigsh.per_norm": per_norm("spectral.eigsh"),
        "spectral.eigvalsh.per_norm": per_norm("spectral.eigvalsh"),
        "bounds.calls": sum(1 for s in spans if s.name.startswith("bounds.")),
        "bounds.self_s": self_s(prefix="bounds."),
        **{f"moment_oracle.{f}.self_s": self_s(f"moment_oracle.{f}") for f in ORACLE_ENUMERATORS},
        "moment_oracle.cycles_covered": cycles,
        "moment_oracle.ns_per_cycle": oracle_s / cycles * 1e9 if cycles else 0.0,
        "moment_oracle.reference_share": reference_s / oracle_s if oracle_s else 0.0,
        "moment_oracle.gaussian_moment.hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
        "experiments.replicate.count": len(rep_ms),
        "experiments.replicate_ms.p50": percentile(rep_ms, 50.0),
        "experiments.replicate_ms.tail": percentile(rep_ms, level),
        "experiments.replicate_ms.tail_pct": level if rep_ms else 0.0,
        "experiments.pool.busy_share":
            rep_total / (threads * pool_wall) if pool_wall else 0.0,
        "experiments.self_s": self_s(prefix="experiments."),
        "experiments.generate_mixture.self_s": self_s("experiments.generate_mixture"),
        "experiments.spectral_cluster.self_s": self_s("experiments.spectral_cluster"),
        "experiments.spectral_cluster.gflop": attr_sum("experiments.spectral_cluster", "gflop"),
    }
