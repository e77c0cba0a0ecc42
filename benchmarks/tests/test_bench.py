"""Tests of the benchmark itself: span arithmetic, output checks, work counts
and the metric names it prints."""

import importlib.util
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

from hwbench import checks, tracing, workloads  # noqa: E402
from hwbench.proc import ChildResult  # noqa: E402

_spec = importlib.util.spec_from_file_location("bench_run", os.path.join(BENCH, "run.py"))
bench_run = sys.modules["bench_run"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_run)


def _span(id, name, start, end, parent=None, thread=1, rep=None, attrs=None):
    return (id, name, start, end, parent, thread, rep, attrs)


def test_self_time_on_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6] (b on a worker thread,
    # overlapping a) and c [9, 12], which runs past the root's end;
    # a has one child d [2, 3].
    spans = tracing.with_self_times([
        _span(0, "root", 0.0, 10.0),
        _span(1, "a", 1.0, 4.0, parent=0),
        _span(2, "b", 3.0, 6.0, parent=0, thread=2),
        _span(3, "c", 9.0, 12.0, parent=0),
        _span(4, "d", 2.0, 3.0, parent=1),
    ])
    self_s = {s.name: s.self_s for s in spans}
    assert self_s == pytest.approx({"root": 10 - 5 - 1, "a": 2.0, "b": 3.0, "c": 3.0, "d": 1.0})


def test_replicates_pair_sample_with_norm_on_the_same_thread():
    spans = tracing.with_self_times([
        _span(0, "samplers.sample", 0.0, 1.0, thread=1, rep=0),
        _span(1, "samplers.sample", 0.5, 1.5, thread=2, rep=1),
        _span(2, "spectral.spectral_norm", 2.0, 3.0, thread=2, rep=1),
        _span(3, "spectral.spectral_norm", 1.0, 4.0, thread=1, rep=0),
    ])
    assert sorted(tracing.replicate_intervals(spans)) == [(0.0, 4.0), (0.5, 3.0)]
    assert tracing.tail_level(1000) == 99.0 and tracing.tail_level(8) == 50.0


def test_recorder_parents_worker_spans_on_the_pool_call():
    rec = tracing.Recorder()
    solver = rec.counter("solver", lambda x: x)
    leaf = rec.wrap("leaf", solver)

    def pool(n):
        with ThreadPoolExecutor(max_workers=2) as ex:
            return list(ex.map(leaf, range(n)))

    assert rec.wrap("pool", pool)(4) == [0, 1, 2, 3]
    names = {row[0]: row[1] for row in rec.spans}
    parents = [names[row[4]] for row in rec.spans if row[1] == "leaf"]
    assert parents == ["pool"] * 4
    leaf_ids = {row[0] for row in rec.spans if row[1] == "leaf"}
    assert sorted(parent for _, parent in rec.counts) == sorted(leaf_ids)


REFERENCE_OUTPUTS = {
    "simulate": {"n_reps": 10, "mean": 5.0, "std_err": 0.1,
                 "quantiles": {"0.05": 4.0, "0.5": 5.0}},
    "sweep": [{"name": "rows500", "p1": 500, "p2": 100, "n_reps": 2, "mean": 10.0,
               "std_err": 1.0, "bound": 8.0, "ratio": 1.25}],
    "oracle": {"lhs": 190.5, "rhs": 12000.0, "holds": True},
    "cluster": [{"lambda": 0.75, "mean_misclassification": 0.25, "std_err": 0.01,
                 "n_reps": 30, "snr_threshold": 1.5}],
}

# (kind, path to one value, relative change inside tolerance, change beyond it)
PERTURBATIONS = [
    ("simulate", ("mean",), 5e-9, 1e-7),
    ("simulate", ("quantiles", "0.05"), 5e-9, 1e-7),
    ("sweep", (0, "mean"), 5e-9, 1e-7),
    ("sweep", (0, "bound"), 5e-13, 1e-11),
    ("oracle", ("lhs",), 5e-13, 1e-11),
    ("cluster", (0, "mean_misclassification"), 0.0, 1e-15),
]


def _perturbed(kind, path, rel):
    out = json.loads(json.dumps(REFERENCE_OUTPUTS[kind]))
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] *= 1.0 + rel
    return out


@pytest.mark.parametrize("kind,path,inside,beyond", PERTURBATIONS)
def test_output_beyond_tolerance_is_a_mismatch(kind, path, inside, beyond):
    want = REFERENCE_OUTPUTS[kind]
    assert checks.compare(kind, _perturbed(kind, path, inside), want) == []
    assert checks.compare(kind, _perturbed(kind, path, beyond), want) != []


def test_mismatch_counts_as_a_failed_call(tmp_path):
    out = tmp_path / "out.json"
    out.write_text(json.dumps({"check": "comparison", "lhs": 190.5 * (1 + 1e-9),
                               "rhs": 12000.0, "holds": True}))
    inv = workloads.Invocation("comparison", (), str(out), "oracle", 1)
    runner = bench_run.Runner.__new__(bench_run.Runner)
    runner.references = {"comparison": REFERENCE_OUTPUTS["oracle"]}
    ok = ChildResult(0, False, 1.0, 1.0, 60.0, "")
    assert "lhs" in runner._check(inv, ok)
    assert runner._check(inv, ChildResult(5, False, 1.0, 1.0, 60.0, "boom")).startswith("exit")
    assert runner._check(inv, ChildResult(-9, True, 1.0, 1.0, 60.0, "")) == "timed out"


@pytest.mark.parametrize("input_set", range(workloads.INPUT_SETS))
def test_oracle_work_counts_match_cycle_count(input_set, tmp_path):
    moment_oracle = pytest.importorskip("hetwishart.moment_oracle")
    from hetwishart.profiles import VarianceProfile

    plan = workloads.make_plan("oracle_desk", input_set, str(tmp_path))
    assert plan.work == workloads.make_plan("oracle_desk", 0, str(tmp_path / "0")).work
    grids = workloads.oracle_profiles(workloads._rng("oracle_desk", input_set))
    for check, grid in workloads.ORACLE_CALLS:
        profile = VarianceProfile(grids[grid])
        for q in (2, 3):
            want = workloads.covered_cycles(check, grids[grid], q)
            if check == "shape_trace":
                assert want == moment_oracle.cycle_count(profile.p1, profile.p2, q)
                continue
            run_check = {"comparison": moment_oracle.check_gaussian_comparison,
                         "deletion": moment_oracle.check_diagonal_deletion,
                         "contraction": moment_oracle.check_variance_contraction}[check]
            assert run_check(profile, q).cycles_enumerated == want


def test_printed_metric_names_match_benchmark_json(tmp_path):
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    plan = workloads.make_plan("mc_small", 0, str(tmp_path))
    dump = {"spans": [_span(0, "cli.main", 0.0, 1.0)], "import_s": 0.3,
            "gaussian_moment_cache": {"hits": 1, "misses": 1}}
    plain = [bench_run.Unit(wall_s=1.0, cpu_s=1.5, peak_rss_mb=60.0, attempted=1)]
    traced = [bench_run.Unit(wall_s=1.1, cpu_s=1.5, peak_rss_mb=60.0, attempted=1,
                             traces=[dump])]
    e2e = bench_run.end_to_end(plan, plain, [0.5])
    layers = bench_run.per_layer(plan, plain, traced, traced)
    assert set(e2e) == {m["name"] for m in spec["end_to_end"]}
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
