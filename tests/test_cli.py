import json
import os
import re
import shlex
import subprocess
import sys
import weakref
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from hetwishart import (
    VarianceProfile,
    baseline_bounds,
    gaussian_upper_bound,
    lower_bound_rate,
    moment_and_tail,
    profile_to_json,
    structured_rates,
    summarize,
    unified_bound,
)
from hetwishart.bounds import _FAMILY_ALIASES, BOUNDS
from hetwishart.cli import VERSION_TABLE, build_parser, main
from hetwishart.spectral import DENSE_CUTOFF


def write_profile(tmp_path, sigma, name="profile.json"):
    path = tmp_path / name
    path.write_text(profile_to_json(VarianceProfile(np.asarray(sigma, dtype=float))))
    return str(path)


def test_profile_summary(tmp_path, capsys):
    path = write_profile(tmp_path, np.ones((4, 9)))
    assert main(["profile", "--in", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["sigma_C"] == 2.0 and out["sigma_R"] == 3.0 and out["p_min"] == 4


def test_profile_resolves_generator_forms(tmp_path, capsys):
    src = tmp_path / "rows.json"
    src.write_text(json.dumps({"kind": "homoskedastic_rows", "sigmas": [1.0, 1.0], "other_dim": 2}))
    resolved = tmp_path / "explicit.json"
    assert main(["profile", "--in", str(src), "--out", str(resolved)]) == 0
    blob = json.loads(resolved.read_text())
    assert blob["kind"] == "explicit"
    assert blob["sigma"] == [[1.0, 1.0], [1.0, 1.0]]


def test_bound_subcommand(tmp_path, capsys):
    path = write_profile(tmp_path, np.ones((4, 9)))
    assert main(["bound", "--profile", path, "--id", "gaussian", "--eps1", "0.1", "--eps2", "0.1"]) == 0
    report = json.loads(capsys.readouterr().out)
    prof = VarianceProfile(np.ones((4, 9)))
    assert report["value"] == pytest.approx(
        gaussian_upper_bound(summarize(prof), 0.1, 0.1).value, rel=1e-12
    )
    assert report["bound_id"] == "gaussian"
    assert set(report["terms"]) == {"cross", "column", "sqrt_log", "log"}


def test_bound_unknown_id_exit_3(tmp_path, capsys):
    path = write_profile(tmp_path, np.ones((2, 2)))
    assert main(["bound", "--profile", path, "--id", "bogus"]) == 3
    assert "structured_rows" in capsys.readouterr().err  # the error lists the known ids


def test_simulate_zero_profile(tmp_path, capsys):
    path = write_profile(tmp_path, np.zeros((3, 3)))
    assert main(["simulate", "--profile", path, "--reps", "5", "--seed", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["estimate"]["mean"] == 0.0
    assert out["config"]["seed"] == 1


def test_simulate_requires_seed(tmp_path, capsys):
    path = write_profile(tmp_path, np.zeros((2, 2)))
    assert main(["simulate", "--profile", path, "--reps", "3"]) == 3
    assert "seed" in capsys.readouterr().err


def test_simulate_round_trips_its_config(tmp_path, capsys):
    path = write_profile(tmp_path, np.full((4, 4), 0.5))
    out_path = tmp_path / "run.json"
    assert main([
        "simulate", "--profile", path, "--reps", "4", "--seed", "9", "--out", str(out_path),
    ]) == 0
    first = json.loads(out_path.read_text())
    capsys.readouterr()
    assert list(first["estimate"]) == ["mean", "n_reps", "quantiles", "std_err"]
    assert list(first["estimate"]["quantiles"]) == ["0.05", "0.25", "0.5", "0.75", "0.95"]

    cfg_path = tmp_path / "echo.json"
    cfg_path.write_text(json.dumps(first["config"]))
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    second = json.loads(capsys.readouterr().out)
    assert second["estimate"] == first["estimate"]
    assert second["config"] == first["config"]


def test_oracle_checks(tmp_path, capsys):
    path = write_profile(tmp_path, [[1.0, 0.5], [0.0, 1.0]])
    assert main(["oracle", "--check", "comparison", "--profile", path, "--q", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["holds"] is True
    assert out["lhs"] <= out["rhs"]
    assert out["cycles_enumerated"] > 0

    assert main(["oracle", "--check", "paired", "--xs", "2,2,0,0,0"]) == 0
    paired = json.loads(capsys.readouterr().out)
    assert (paired["lhs"], paired["rhs"]) == (1.0, 3.0)

    # the right side, of order 42, is within gaussian_moment's guard of 64
    assert main(["oracle", "--check", "paired", "--xs", "0,0,0,0,21"]) == 0
    assert json.loads(capsys.readouterr().out)["holds"] is True

    assert main(["oracle", "--check", "trace", "--profile", path, "--q", "2"]) == 0
    trace = json.loads(capsys.readouterr().out)
    assert trace["value"] > 0


def test_oracle_guard_exit_4(tmp_path, capsys):
    # each refusal is one short line, printed before the oracle builds a
    # count, a cycle of q steps or a cycle count of q digits
    cases = [
        ("comparison", np.full((40, 40), 0.5), 5),
        ("trace", [[1.0, 0.5], [0.25, 1.0]], 3000),
        ("trace", [[1.0, 0.5], [0.25, 1.0]], 30000),
        ("comparison", [[1.0, 0.5], [0.25, 1.0]], 300000),
        ("trace", [[1.0]], 30000),
        ("trace", np.random.default_rng(5).uniform(0, 1, (3, 3)), 10),
    ]
    for check, sigma, q in cases:
        path = write_profile(tmp_path, sigma)
        assert main(["oracle", "--check", check, "--profile", path, "--q", str(q)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("size guard: ") and len(err[0]) < 200, err


def test_oracle_paired_guard_names_the_order_and_the_limit(capsys):
    assert main(["oracle", "--check", "paired", "--xs", "0,0,0,0,33"]) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("size guard: "), err
    assert "66" in err[0] and "64" in err[0], err


@pytest.mark.parametrize("case", ["sweep_random_uniform", "profile_homoskedastic_rows"])
def test_refused_allocation_exits_4(tmp_path, capsys, case):
    # both allocations exceed 2^47 bytes, more than any host's address space
    if case == "sweep_random_uniform":
        dims = {key: 10**8 for key in ("p1_min", "p1_max", "p2_min", "p2_max")}
        cfg = {"family": {"kind": "random_uniform", "count": 1, **dims}, "reps": 2}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        argv = ["sweep", "--config", str(path), "--seed", "1", "--out", str(tmp_path / "out.csv")]
    else:
        path = tmp_path / "profile.json"
        path.write_text(json.dumps({"kind": "homoskedastic_rows", "sigmas": [1.0, 0.5],
                                    "other_dim": 10**15}))
        argv = ["profile", "--in", str(path)]
    assert main(argv) == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("size guard: "), err


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as err:
        main(["unknown-subcommand"])
    assert err.value.code == 2


def test_version_prints_constant_table(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    out = capsys.readouterr().out.splitlines()
    for line in VERSION_TABLE.splitlines():
        assert line in out


def sweep_config(tmp_path, reps=3):
    cfg = {
        "family": {
            "kind": "random_uniform",
            "count": 3,
            "p1_min": 4, "p1_max": 8,
            "p2_min": 4, "p2_max": 8,
        },
        "model": {"model": "gaussian", "params": {}},
        "reps": reps,
        "bound": {"id": "gaussian", "eps1": 0.1, "eps2": 0.1},
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(cfg))
    return path


def test_sweep_threads_byte_identical(tmp_path, capsys):
    cfg = sweep_config(tmp_path)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["sweep", "--config", str(cfg), "--seed", "11", "--threads", "1", "--out", str(out1)]) == 0
    assert main(["sweep", "--config", str(cfg), "--seed", "11", "--threads", "8", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_round_trips_its_config(tmp_path, capsys):
    cfg = sweep_config(tmp_path)
    out1 = tmp_path / "a.csv"
    assert main(["sweep", "--config", str(cfg), "--seed", "21", "--out", str(out1)]) == 0
    summary = json.loads(capsys.readouterr().out)

    echo = tmp_path / "echo.json"
    echo.write_text(json.dumps(summary["config"]))
    out2 = tmp_path / "b.csv"
    assert main(["sweep", "--config", str(echo), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cluster_subcommand(tmp_path, capsys):
    out = tmp_path / "phase.csv"
    code = main([
        "cluster", "--n", "30", "--p", "10", "--reps", "4",
        "--lambdas", "0.1,4.0", "--sigma-const", "1.0",
        "--seed", "3", "--out", str(out),
    ])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["snr_threshold"] == pytest.approx(max(1.0, (10 / 30) ** 0.25))
    assert len(summary["rows"]) == 2
    text = out.read_text()
    assert text.startswith("lambda,")
    assert len(text.strip().splitlines()) == 3


# Expected report of every bound id on an all-ones profile (admissible for the
# lower bound and homoskedastic both ways), called straight on the library
# with the CLI's defaults and the flags in BOUND_FLAGS, which each id reads.
BOUND_FLAGS = {"unified_heavy_tail": ["--alpha", "1.5"], "unified_bounded": ["--B", "2.0"]}
ONES = VarianceProfile(np.ones((3, 5)))
EXPECTED_REPORTS = {
    "gaussian": lambda s: asdict(gaussian_upper_bound(s, 0.1, 0.1)),
    "symmetrization": lambda s: asdict(baseline_bounds(s, 5)[0]),
    "matrix_sum": lambda s: asdict(baseline_bounds(s, 5)[1]),
    "lower_bound": lambda s: asdict(lower_bound_rate(s, 3, 5)),
    "structured_rows": lambda s: asdict(structured_rates("rows", np.ones(3), 5)),
    "structured_columns": lambda s: asdict(structured_rates("columns", np.ones(5), 3)),
    "moment_tail": lambda s: {**asdict(moment_and_tail(s, 2.0, 1.0, 1.0)),
                              "bound_id": "moment_tail"},
    **{
        f"unified_{family}": (
            lambda s, family=family: asdict(unified_bound(
                s, family, alpha=1.5, B=2.0, p_max=5, c0=1.0
            ))
        )
        for family in _FAMILY_ALIASES
    },
}


def test_expected_reports_cover_every_bound():
    assert set(EXPECTED_REPORTS) == set(BOUNDS)


README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_readme_bound_table_lists_every_bound_id():
    """Each row names its ids, and the --flags they read with their defaults,
    "(required)" for a parameter the id needs: the same as BOUNDS[id].reads,
    and each flag is one that `bound` takes."""
    table = README.split("| id | reads |\n| --- | --- |\n", 1)[1].split("\n\n", 1)[0]
    ids = []
    for line in table.splitlines():
        _, names, reads, _ = line.split("|")
        listed = {flag: None if default == "required" else float(default)
                  for flag, default in re.findall(r"`--(\w+)` \(([^)]*)\)", reads)}
        for name in re.findall(r"`(\w+)`", names):
            ids.append(name)
            assert listed == BOUNDS[name].reads, name
            args = build_parser().parse_args(
                ["bound", "--profile", "p.json", "--id", name, *(f"--{flag}=1" for flag in listed)])
            assert all(getattr(args, flag) == 1.0 for flag in listed), name
    assert sorted(ids) == sorted(BOUNDS)


README_COMMANDS = [shlex.split(line, comments=True)[1:]
                   for block in re.findall(r"```bash\n(.*?)```", README, re.S)
                   for line in block.splitlines() if line.startswith("hetwishart ")]


def test_readme_shows_every_subcommand():
    assert {argv[0] for argv in README_COMMANDS} == {
        "profile", "bound", "simulate", "oracle", "sweep", "cluster", "--version"}


@pytest.mark.parametrize("argv", README_COMMANDS, ids=" ".join)
def test_readme_command_parses(argv):
    parser = build_parser()
    if argv == ["--version"]:
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 0
    else:
        assert parser.parse_args(argv).command == argv[0]


@pytest.mark.parametrize("bound_id", sorted(EXPECTED_REPORTS))
def test_bound_prints_the_library_report(tmp_path, capsys, bound_id):
    path = write_profile(tmp_path, ONES.sigma)
    assert main(["bound", "--profile", path, "--id", bound_id, *BOUND_FLAGS.get(bound_id, [])]) == 0
    assert json.loads(capsys.readouterr().out) == EXPECTED_REPORTS[bound_id](summarize(ONES))


@pytest.mark.parametrize("bound_id", ["structured_rows", "moment_tail"])
def test_sweep_accepts_every_bound_kind(tmp_path, capsys, bound_id):
    rows = [
        {"kind": "homoskedastic_rows", "sigmas": [0.5, 1.0, 1.5], "other_dim": 4},
        {"kind": "homoskedastic_rows", "sigmas": [1.0, 2.0], "other_dim": 6},
    ]
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "family": {"kind": "list", "profiles": [{"profile": r} for r in rows]},
        "reps": 2,
        "bound": {"id": bound_id, **({"b": 3.0} if bound_id == "moment_tail" else {})},
    }))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--seed", "5", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()[1:]
    assert len(lines) == len(rows)
    for line, row in zip(lines, rows):
        prof = VarianceProfile(np.tile(np.asarray(row["sigmas"])[:, None], (1, row["other_dim"])))
        if bound_id == "structured_rows":
            expected = structured_rates("rows", row["sigmas"], row["other_dim"]).value
        else:
            expected = moment_and_tail(summarize(prof), 3.0, 1.0, 1.0).value
        fields = line.split(",")
        assert fields[7] == bound_id
        assert float(fields[8]) == expected


def _bad_input_args(tmp_path):
    profile = write_profile(tmp_path, np.full((2, 2), 0.5))
    no_family = tmp_path / "no_family.json"
    no_family.write_text(json.dumps({"reps": 2}))
    no_count = tmp_path / "no_count.json"
    no_count.write_text(json.dumps({
        "family": {"kind": "random_uniform", "p1_max": 4, "p2_max": 4}, "reps": 2,
    }))
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"reps": 2,')
    missing = str(tmp_path / "missing.json")
    family = {"kind": "random_uniform", "count": 1, "p1_max": 4, "p2_max": 4}
    sweeps = {
        "sweep_reps_not_a_number": {"family": family, "reps": "x"},
        "sweep_count_not_a_number": {"family": {**family, "count": "two"}, "reps": 2},
        "sweep_family_not_an_object": {"family": "list", "reps": 2},
        "sweep_unknown_bound_empty_family": {"family": {"kind": "list", "profiles": []},
                                             "bound": {"id": "bogus"}, "reps": 2},
    }
    for name, cfg in sweeps.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
    bad_profiles = {
        "profile_other_dim_not_a_number": {"kind": "homoskedastic_rows", "sigmas": [1.0],
                                           "other_dim": "x"},
        "profile_ragged_sigma": {"kind": "explicit", "sigma": [[1.0, 0.5], [1.0]]},
    }
    for name, payload in bad_profiles.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    sigmas_not_numbers = tmp_path / "sigmas_not_numbers.json"
    sigmas_not_numbers.write_text(json.dumps({
        "n": 4, "p": 3, "reps": 2, "lambdas": [1.0], "seed": 1, "sigmas": "abc",
    }))
    nan_bound = tmp_path / "nan_bound.json"
    nan_bound.write_text(json.dumps({
        "family": {"kind": "list", "profiles": [{"profile": {"kind": "explicit",
                                                             "sigma": [[0.5, 0.5]]}}]},
        "bound": {"id": "gaussian", "eps1": float("nan")}, "reps": 2,
    }))
    nan_sigmas = tmp_path / "nan_sigmas.json"
    nan_sigmas.write_text('{"n": 20, "p": 3, "reps": 2, "lambdas": [1.0], "seed": 1, '
                          '"sigmas": [1, NaN, 1]}')
    small_family = '"family": {"kind": "random_uniform", "count": 1, "p1_max": 2, "p2_max": 2'
    for constant in ("NaN", "Infinity"):
        (tmp_path / f"sigma_max_{constant}.json").write_text(
            f'{{{small_family}, "sigma_max": {constant}}}, "reps": 2}}')
    seed_inf = tmp_path / "seed_inf.json"
    seed_inf.write_text(f'{{{small_family}}}, "reps": 2, "seed": Infinity}}')
    lower_nan = tmp_path / "lower_nan.json"
    lower_nan.write_text('{"kind": "lower_bound", "variant": "block", "params": {"sigma_star": NaN, '
                         '"sigma_C": 1, "sigma_R": 1, "p1": 2, "p2": 2}}')
    listed = {"kind": "list", "profiles": [{"profile": {"kind": "explicit", "sigma": [[0.5, 0.5]]}}]}
    grid = {"kind": "homoskedastic_rows_grid", "p1_grid": [3], "p2": 2}
    misread = {  # name -> (command, config or profile) with one value of the wrong kind
        "sweep_bound_id_list": ("sweep", {"family": listed, "reps": 2, "bound": {"id": ["gaussian"]}}),
        "sweep_model_name_dict": ("sweep", {"family": listed, "reps": 2, "model": {"model": {"x": 1}}}),
        "sweep_reps_fraction": ("sweep", {"family": listed, "reps": 2.9}),
        "sweep_grid_dim_fraction": ("sweep", {"family": {**grid, "p1_grid": [3.7]}, "reps": 2}),
        "sweep_grid_dim_string": ("sweep", {"family": {**grid, "p1_grid": ["4"]}, "reps": 2}),
        "sweep_grid_p2_fraction": ("sweep", {"family": {**grid, "p2": 2.5}, "reps": 2}),
        "sweep_seed_string": ("sweep", {"family": grid, "reps": 2, "seed": "7"}),
        "sweep_bound_eps1_string": ("sweep", {"family": listed, "reps": 2,
                                              "bound": {"id": "gaussian", "eps1": "0.5"}}),
        "sweep_bound_eps2_true": ("sweep", {"family": listed, "reps": 2,
                                            "bound": {"id": "gaussian", "eps2": True}}),
        "sweep_bound_unread_param": ("sweep", {"family": listed, "reps": 2,
                                               "bound": {"id": "gaussian", "eps_1": 5.0}}),
        "simulate_threads_true": ("simulate", {"profile": {"kind": "explicit", "sigma": [[0.5]]},
                                               "reps": 2, "seed": 1, "threads": True}),
        "cluster_n_fraction": ("cluster", {"n": 20.9, "p": 2, "reps": 2, "seed": 1, "lambdas": [1.0]}),
        "cluster_p_string": ("cluster", {"n": 20, "p": "4", "reps": 2, "seed": 1, "lambdas": [1.0]}),
        "cluster_lambdas_string": ("cluster", {"n": 20, "p": 2, "reps": 2, "seed": 1,
                                               "lambdas": ["1.5"]}),
        "cluster_lambdas_empty": ("cluster", {"n": 20, "p": 2, "reps": 2, "seed": 1, "lambdas": []}),
        "profile_other_dim_fraction": ("profile", {"kind": "homoskedastic_rows", "sigmas": [1.0],
                                                   "other_dim": 3.5}),
        "profile_lower_p2_true": ("profile", {"kind": "lower_bound", "variant": "block", "params": {
            "sigma_star": 1, "sigma_C": 1, "sigma_R": 1, "p1": 2, "p2": True}}),
        "profile_sigma_string_and_true": ("profile", {"kind": "explicit",
                                                      "sigma": [["0.5", True], [0.5, 0.5]]}),
    }
    for name, (command, payload) in misread.items():
        seeded = {"seed": 1, **payload} if command == "sweep" else payload
        (tmp_path / f"{name}.json").write_text(json.dumps(seeded))
    read_as = {"sweep": ["--out", str(tmp_path / "misread.csv")]}
    simulate = ["simulate", "--profile", profile, "--reps", "2", "--seed", "1"]
    cluster = ["cluster", "--n", "30", "--lambdas", "1.0", "--seed", "1"]
    cluster_grid = ["cluster", "--n", "30", "--p", "4", "--reps", "2", "--sigma-const", "1",
                    "--seed", "1", "--lambdas"]
    bound = ["bound", "--profile", profile]
    return {
        **{name: ["sweep", "--config", str(tmp_path / f"{name}.json"), "--seed", "1",
                  "--out", str(tmp_path / f"{name}.csv")] for name in sweeps},
        "simulate_malformed_config": ["simulate", "--config", str(malformed)],
        "sweep_malformed_config": ["sweep", "--config", str(malformed), "--out",
                                   str(tmp_path / "c.csv")],
        "cluster_malformed_config": ["cluster", "--config", str(malformed)],
        "simulate_missing_config": ["simulate", "--config", missing],
        "model_malformed_inline": [*simulate, "--model", "{bad"],
        "model_missing_file": [*simulate, "--model", missing],
        "model_list_read_as_path": [*simulate, "--model", "[1]"],
        "model_malformed_file": [*simulate, "--model", str(malformed)],
        "profile_missing_in": ["profile", "--in", missing],
        "profile_malformed_in": ["profile", "--in", str(malformed)],
        "simulate_missing_profile": ["simulate", "--profile", missing, "--reps", "2", "--seed", "1"],
        "bound_missing_profile": ["bound", "--profile", missing, "--id", "gaussian"],
        "oracle_missing_profile": ["oracle", "--check", "trace", "--profile", missing],
        "cluster_without_n": ["cluster", "--seed", "1"],
        "sweep_without_family": ["sweep", "--config", str(no_family), "--seed", "1",
                                 "--out", str(tmp_path / "a.csv")],
        "sweep_without_count": ["sweep", "--config", str(no_count), "--seed", "1",
                                "--out", str(tmp_path / "b.csv")],
        "oracle_without_profile": ["oracle", "--check", "trace", "--q", "2"],
        "model_param_not_a_number": ["simulate", "--profile", profile, "--reps", "2", "--seed", "1",
                                     "--model", '{"model":"bounded","params":{"B":"x"}}'],
        **{name: ["profile", "--in", str(tmp_path / f"{name}.json")] for name in bad_profiles},
        "cluster_sigmas_not_numbers": ["cluster", "--config", str(sigmas_not_numbers)],
        "cluster_reps_zero": [*cluster, "--p", "10", "--reps", "0"],
        "cluster_reps_negative": [*cluster, "--p", "10", "--reps", "-3"],
        "cluster_p_zero": [*cluster, "--p", "0", "--reps", "2"],
        "cluster_p_negative": [*cluster, "--p", "-5", "--reps", "2", "--sigma-const", "1"],
        "bound_eps1_nan": [*bound, "--id", "gaussian", "--eps1", "nan"],
        "bound_eps1_inf": [*bound, "--id", "gaussian", "--eps1", "inf"],
        "bound_B_nan": [*bound, "--id", "unified_bounded", "--B", "nan"],
        "bound_b_nan": [*bound, "--id", "moment_tail", "--b", "nan"],
        "sweep_bound_param_nan": ["sweep", "--config", str(nan_bound), "--seed", "1",
                                  "--out", str(tmp_path / "nan.csv")],
        "model_heavy_tail_b_nan": [*simulate, "--model",
                                   '{"model":"heavy_tail","params":{"b":NaN}}'],
        "model_heavy_tail_b_inf": [*simulate, "--model",
                                   '{"model":"heavy_tail","params":{"b":Infinity}}'],
        "model_bernoulli_theta_nan": [*simulate, "--model",
                                      '{"model":"bernoulli","params":{"theta":[[NaN,0.5],[0.5,0.5]]}}'],
        "cluster_sigma_const_nan": [*cluster, "--p", "4", "--reps", "2", "--sigma-const", "nan"],
        "cluster_lambdas_nan": [*cluster_grid, "nan"],
        "cluster_lambdas_inf": [*cluster_grid, "inf"],
        "cluster_config_sigmas_nan": ["cluster", "--config", str(nan_sigmas)],
        "model_bounded_B_inf": [*simulate, "--model", '{"model":"bounded","params":{"B":Infinity}}'],
        "model_bounded_B_inf_text": [*simulate, "--model", '{"model":"bounded","params":{"B":"inf"}}'],
        **{f"sweep_sigma_max_{constant}": [
            "sweep", "--config", str(tmp_path / f"sigma_max_{constant}.json"), "--seed", "1",
            "--out", str(tmp_path / f"{constant}.csv")] for constant in ("NaN", "Infinity")},
        "sweep_seed_inf": ["sweep", "--config", str(seed_inf), "--out", str(tmp_path / "s.csv")],
        "profile_lower_bound_sigma_star_nan": ["profile", "--in", str(lower_nan)],
        **{name: [command, "--in" if command == "profile" else "--config",
                  str(tmp_path / f"{name}.json"), *read_as.get(command, [])]
           for name, (command, _) in misread.items()},
        "model_name_list": [*simulate, "--model", '{"model": ["gaussian"]}'],
        "bound_unread_flag": [*bound, "--id", "gaussian", "--alpha", "3"],
        "bound_unread_flag_of_an_alias": [*bound, "--id", "unified_bernoulli", "--B", "2"],
    }


@pytest.mark.parametrize("case", [
    "cluster_without_n", "sweep_without_family", "sweep_without_count",
    "oracle_without_profile", "model_param_not_a_number",
    "sweep_reps_not_a_number", "sweep_count_not_a_number", "sweep_family_not_an_object",
    "simulate_malformed_config", "sweep_malformed_config", "cluster_malformed_config",
    "simulate_missing_config", "model_malformed_inline", "model_missing_file",
    "model_list_read_as_path", "model_malformed_file", "profile_missing_in",
    "profile_malformed_in", "simulate_missing_profile", "bound_missing_profile",
    "oracle_missing_profile", "profile_other_dim_not_a_number", "profile_ragged_sigma",
    "cluster_sigmas_not_numbers", "sweep_unknown_bound_empty_family",
    "cluster_reps_zero", "cluster_reps_negative", "cluster_p_zero", "cluster_p_negative",
    "bound_eps1_nan", "bound_eps1_inf", "bound_B_nan", "bound_b_nan", "sweep_bound_param_nan",
    "model_heavy_tail_b_nan", "model_heavy_tail_b_inf", "model_bernoulli_theta_nan",
    "cluster_sigma_const_nan", "cluster_lambdas_nan", "cluster_lambdas_inf",
    "cluster_config_sigmas_nan", "model_bounded_B_inf", "model_bounded_B_inf_text",
    "sweep_sigma_max_NaN", "sweep_sigma_max_Infinity", "sweep_seed_inf",
    "profile_lower_bound_sigma_star_nan",
    "sweep_bound_id_list", "sweep_model_name_dict", "sweep_reps_fraction",
    "sweep_grid_dim_fraction", "sweep_grid_dim_string", "sweep_grid_p2_fraction",
    "sweep_seed_string", "sweep_bound_eps1_string", "sweep_bound_eps2_true",
    "sweep_bound_unread_param", "simulate_threads_true", "cluster_n_fraction", "cluster_p_string",
    "cluster_lambdas_string", "cluster_lambdas_empty", "profile_other_dim_fraction", "profile_lower_p2_true",
    "profile_sigma_string_and_true", "model_name_list", "bound_unread_flag",
    "bound_unread_flag_of_an_alias",
])
def test_bad_input_exits_3_with_error_line(tmp_path, capsys, case):
    assert main(_bad_input_args(tmp_path)[case]) == 3
    err = capsys.readouterr().err
    assert any(line.startswith("error: ") for line in err.splitlines())


def _strict_json(text):
    def reject(name):
        raise ValueError(f"{name} in output")

    return json.loads(text, parse_constant=reject)


# flag text of a value that is not a number -> the JSON value it stands for
NOT_NUMBERS = {"x": "x", '"0.5"': "0.5", "true": True}


def _float_field_argv(tmp_path, field, value):
    """argv of a run on a 2x2 profile that puts ``value`` (the text of a flag,
    or in JSON the number it reads as, or the value of NOT_NUMBERS) into
    ``field``.  Every case writes its own files, so building them all leaves
    each intact."""
    number = NOT_NUMBERS[value] if value in NOT_NUMBERS else float(value)

    def put(name, payload):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))  # NaN and Infinity as Python writes them
        return str(path)

    profile = put("profile", {"kind": "explicit", "sigma": [[0.5, 0.5], [0.5, 0.5]]})
    odd_profile = put("odd", {"kind": "explicit", "sigma": [[number, 0.5], [0.5, 0.5]]})
    lower = {"sigma_star": 1.0, "sigma_C": 1.0, "sigma_R": 1.0, "p1": 2, "p2": 2}
    simulate = ["simulate", "--profile", profile, "--reps", "2", "--seed", "1"]
    cluster = ["cluster", "--n", "20", "--p", "2", "--reps", "2", "--seed", "1"]
    cluster_cfg = {"n": 20, "p": 2, "reps": 2, "seed": 1, "lambdas": [1.0], "sigmas": [1.0, 1.0]}
    uniform = {"kind": "random_uniform", "count": 1, "p1_max": 2, "p2_max": 2}
    grid = {"kind": "homoskedastic_rows_grid", "p1_grid": [2], "p2": 2}

    def sweep(name, family=uniform, bound=None):
        cfg = put(name, {"family": family, "reps": 2, "bound": bound or {"id": "gaussian"}})
        return ["sweep", "--config", cfg, "--seed", "1", "--out", str(tmp_path / "sweep.csv")]

    def model(name, params):
        return [*simulate, "--model", json.dumps({"model": name, "params": params})]

    if field in FLAG_FIELDS:
        bound_id, flag = FLAG_FIELDS[field]
        return ["bound", "--profile", profile, "--id", bound_id, f"--{flag}={value}"]
    return {
        "cluster_sigma_const": [*cluster, "--lambdas", "1.0", f"--sigma-const={value}"],
        "cluster_lambdas": [*cluster, f"--lambdas={value}"],
        "cluster_config_sigmas": ["cluster", "--config",
                                  put("sigmas", {**cluster_cfg, "sigmas": [number, 1.0]})],
        "cluster_config_lambdas": ["cluster", "--config",
                                   put("lambdas", {**cluster_cfg, "lambdas": [number]})],
        "profile_sigma": ["profile", "--in", odd_profile],
        "profile_rows_sigmas": ["profile", "--in", put("rows", {
            "kind": "homoskedastic_rows", "sigmas": [number, 0.5], "other_dim": 2})],
        **{f"profile_lower_{key}": ["profile", "--in", put(key, {
            "kind": "lower_bound", "variant": "block", "params": {**lower, key: number}})]
           for key in ("sigma_star", "sigma_C", "sigma_R")},
        "bound_profile_sigma": ["bound", "--profile", odd_profile, "--id", "gaussian"],
        "simulate_profile_sigma": ["simulate", "--profile", odd_profile, "--reps", "2",
                                   "--seed", "1"],
        "oracle_profile_sigma": ["oracle", "--check", "trace", "--profile", odd_profile],
        "simulate_bounded_B": model("bounded", {"B": number}),
        "simulate_heavy_tail_b": model("heavy_tail", {"b": number}),
        "simulate_bernoulli_theta": model("bernoulli", {"theta": [[number, 0.5], [0.5, 0.5]]}),
        "sweep_bound_eps1": sweep("eps1", bound={"id": "gaussian", "eps1": number}),
        **{f"sweep_{name}_{key}": sweep(f"{name}_{key}", {**family, key: number})
           for name, family in (("uniform", uniform), ("grid", grid))
           for key in ("sigma_min", "sigma_max")},
    }[field]


# bound flag field -> (bound id that reads it, flag)
FLAG_FIELDS = {
    "bound_eps1": ("gaussian", "eps1"), "bound_eps2": ("gaussian", "eps2"),
    "bound_b": ("moment_tail", "b"), "bound_x": ("moment_tail", "x"),
    "bound_C": ("moment_tail", "C"), "bound_alpha": ("unified_heavy_tail", "alpha"),
    "bound_B": ("unified_bounded", "B"), "bound_c0": ("unified_gaussian", "c0"),
}
FLOAT_FIELDS = (
    *FLAG_FIELDS, "cluster_sigma_const", "cluster_lambdas", "cluster_config_sigmas",
    "cluster_config_lambdas", "profile_sigma", "profile_rows_sigmas", "profile_lower_sigma_star",
    "profile_lower_sigma_C", "profile_lower_sigma_R", "bound_profile_sigma",
    "simulate_profile_sigma", "oracle_profile_sigma", "simulate_bounded_B",
    "simulate_heavy_tail_b", "simulate_bernoulli_theta", "sweep_bound_eps1",
    "sweep_uniform_sigma_min", "sweep_uniform_sigma_max", "sweep_grid_sigma_min",
    "sweep_grid_sigma_max",
)
FLAG_TEXT_FIELDS = (*FLAG_FIELDS, "cluster_sigma_const", "cluster_lambdas")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "0", "1e308", "1e-320", *NOT_NUMBERS])
@pytest.mark.parametrize("field", FLOAT_FIELDS)
def test_every_float_field_keeps_the_finite_rule(tmp_path, capsys, field, value):
    """A number that comes in is a finite JSON number in range, or the run
    exits 3; a number that goes out is finite, or the run exits 5.  No input
    raises."""
    try:
        code = main(_float_field_argv(tmp_path, field, value))
    except SystemExit as exc:  # argparse rejects the text of a flag
        code = exc.code
    out = capsys.readouterr().out
    if value in NOT_NUMBERS and field in FLAG_TEXT_FIELDS:
        assert code == 2
    elif value in ("nan", "inf", "-inf", *NOT_NUMBERS):
        assert code == 3
    else:
        assert code in (0, 3, 4, 5)
    if code == 0:
        _strict_json(out)


def _integer_field_argv(tmp_path, field, value):
    """argv of a small run whose JSON input puts ``value`` into ``field``."""
    uniform = {"kind": "random_uniform", "count": 1, "p1_max": 2, "p2_max": 2}
    rows = {"kind": "homoskedastic_rows_grid", "p1_grid": [2], "p2": 2}
    columns = {"kind": "homoskedastic_columns_grid", "p2_grid": [2], "p1": 2}
    sweep = {"family": uniform, "reps": 2, "seed": 1}
    cluster = {"n": 20, "p": 2, "reps": 2, "seed": 1, "lambdas": [1.0]}
    simulate = {"profile": {"kind": "explicit", "sigma": [[0.5, 0.5], [0.5, 0.5]]}, "reps": 2, "seed": 1}
    lower = {"sigma_star": 1.0, "sigma_C": 1.0, "sigma_R": 1.0, "p1": 2, "p2": 2}
    command, payload = {
        **{f"simulate_{key}": ("simulate", {**simulate, key: value}) for key in ("reps", "threads", "seed")},
        **{f"sweep_{key}": ("sweep", {**sweep, key: value}) for key in ("reps", "threads", "seed")},
        **{f"sweep_{key}": ("sweep", {**sweep, "family": {**uniform, key: value}})
           for key in ("count", "p1_min", "p1_max", "p2_min", "p2_max")},
        "sweep_p1_grid": ("sweep", {**sweep, "family": {**rows, "p1_grid": [value]}}),
        "sweep_p2": ("sweep", {**sweep, "family": {**rows, "p2": value}}),
        "sweep_p2_grid": ("sweep", {**sweep, "family": {**columns, "p2_grid": [value]}}),
        "sweep_p1": ("sweep", {**sweep, "family": {**columns, "p1": value}}),
        **{f"cluster_{key}": ("cluster", {**cluster, key: value})
           for key in ("n", "p", "reps", "seed", "threads")},
        **{f"profile_{kind}_other_dim": ("profile", {"kind": f"homoskedastic_{kind}", "sigmas": [0.5, 0.5],
                                                     "other_dim": value}) for kind in ("rows", "columns")},
        **{f"profile_lower_{key}": ("profile", {"kind": "lower_bound", "variant": "block",
                                                 "params": {**lower, key: value}}) for key in ("p1", "p2")},
    }[field]
    path = tmp_path / f"{field}.json"
    path.write_text(json.dumps(payload))
    if command == "profile":
        return ["profile", "--in", str(path)]
    return [command, "--config", str(path), *(["--out", str(tmp_path / "out.csv")] if command == "sweep" else [])]


# integer field -> the least value a run takes there (None: any integer)
INTEGER_FIELDS = {
    "simulate_reps": 2, "simulate_threads": 1, "simulate_seed": None,
    "sweep_reps": 2, "sweep_threads": 1, "sweep_seed": None, "sweep_count": 0,
    "sweep_p1_min": 1, "sweep_p1_max": 1, "sweep_p2_min": 1, "sweep_p2_max": 1,
    "sweep_p1_grid": 1, "sweep_p2": 1, "sweep_p2_grid": 1, "sweep_p1": 1,
    "cluster_n": 1, "cluster_p": 1, "cluster_reps": 1, "cluster_seed": None, "cluster_threads": 1,
    "profile_rows_other_dim": 1, "profile_columns_other_dim": 1,
    "profile_lower_p1": 1, "profile_lower_p2": 1,
}


@pytest.mark.parametrize("value", [2.5, True, "3", -1, 0])
@pytest.mark.parametrize("field", INTEGER_FIELDS)
def test_every_integer_field_keeps_the_integer_rule(tmp_path, capsys, field, value):
    """An integer that comes in is exact (not a fraction, a boolean or a
    string) and in range, or the run exits 3.  No input raises."""
    low = INTEGER_FIELDS[field]
    code = main(_integer_field_argv(tmp_path, field, value))
    err = capsys.readouterr().err
    if type(value) is int and (low is None or value >= low):
        assert code == 0
    else:
        assert code == 3
        assert err.startswith("error: ") and err.count("\n") == 1


def test_sweep_summary_ratios_skip_zero_bounds_in_any_order(tmp_path, capsys):
    """A row whose bound is 0 has ratio nan in the CSV; the summary's
    max_ratio and min_ratio are taken over the finite ratios, whatever the
    row order, and are null when there are none."""
    half, zero = [[0.5, 0.5], [0.5, 0.5]], [[0.0, 0.0], [0.0, 0.0]]
    for name, sigmas, finite_row in (("first", [half, zero], 0), ("last", [zero, half], 1)):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"family": {"kind": "list", "profiles": [
            {"profile": {"kind": "explicit", "sigma": sigma}} for sigma in sigmas]}, "reps": 2}))
        out = tmp_path / f"{name}.csv"
        assert main(["sweep", "--config", str(cfg), "--seed", "1", "--out", str(out)]) == 0
        summary = _strict_json(capsys.readouterr().out)
        ratios = [line.split(",")[-1] for line in out.read_text().strip().splitlines()[1:]]
        assert ratios[1 - finite_row] == "nan"
        assert summary["max_ratio"] == summary["min_ratio"] == float(ratios[finite_row])

    cfg = tmp_path / "empty.json"
    cfg.write_text(json.dumps({"family": {"kind": "list", "profiles": []}, "reps": 2}))
    assert main(["sweep", "--config", str(cfg), "--seed", "1",
                 "--out", str(tmp_path / "empty.csv")]) == 0
    summary = _strict_json(capsys.readouterr().out)
    assert summary["max_ratio"] is None and summary["min_ratio"] is None


@pytest.mark.parametrize("kind, grid_key, other_key, label", [
    ("homoskedastic_rows_grid", "p1_grid", "p2", "rows"),
    ("homoskedastic_columns_grid", "p2_grid", "p1", "columns"),
])
def test_sweep_over_a_homoskedastic_grid(tmp_path, capsys, kind, grid_key, other_key, label):
    dims = [3, 5, 8]
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "family": {"kind": kind, grid_key: dims, other_key: 4},
        "reps": 2,
    }))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--seed", "3", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",")[:3] == ["name", "p1", "p2"]
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == [f"{label}{dim}" for dim in dims]
    for r, dim in zip(rows, dims):
        p1, p2 = (dim, 4) if label == "rows" else (4, dim)
        assert (int(r[1]), int(r[2])) == (p1, p2)


GRID_KINDS = [("homoskedastic_rows_grid", "p1_grid", "p2"),
              ("homoskedastic_columns_grid", "p2_grid", "p1")]


def _count_calls(monkeypatch, module, name, before=None):
    """Replace module.name by a wrapper that runs ``before`` on each call's
    arguments; returns a list that gains one entry, the call's index, per
    call (it keeps no argument alive)."""
    real, calls = getattr(module, name), []

    def wrapper(*args, **kwargs):
        if before is not None:
            before(*args)
        calls.append(len(calls))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


@pytest.mark.parametrize("kind, grid_key, other_key", GRID_KINDS)
def test_grid_sweep_holds_one_row_profile(tmp_path, capsys, monkeypatch, kind, grid_key, other_key):
    """A grid row's profile is built when the sweep reaches the row: when
    row k runs, the profiles of the rows before it are gone."""
    from hetwishart import experiments

    refs, alive = [], []

    def record(profile, *args):
        alive.append(sum(ref() is not None for ref in refs))
        refs.append(weakref.ref(profile))

    _count_calls(monkeypatch, experiments, "estimate_concentration", record)
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"family": {"kind": kind, grid_key: [3, 5, 8, 4], other_key: 6},
                               "reps": 2}))
    assert main(["sweep", "--config", str(cfg), "--seed", "3", "--out", str(tmp_path / "o.csv")]) == 0
    assert alive == [0, 0, 0, 0]


@pytest.mark.parametrize("kind, grid_key, other_key", GRID_KINDS)
@pytest.mark.parametrize("case", ["sigma_min_above_max", "fractional_last_dim", "zero_other_dim",
                                  "string_sigma_max", "too_large_for_numpy"])
def test_grid_sweep_checks_every_field_before_any_replicate(tmp_path, capsys, monkeypatch,
                                                            kind, grid_key, other_key, case):
    from hetwishart import experiments

    family = {"kind": kind, grid_key: [3, 4], other_key: 2, **{
        "sigma_min_above_max": {"sigma_min": 2.0, "sigma_max": 1.0},
        "fractional_last_dim": {grid_key: [3, 2.5]},
        "zero_other_dim": {other_key: 0},
        "string_sigma_max": {"sigma_max": "1.5"},
        "too_large_for_numpy": {other_key: 2**61},
    }[case]}
    replicates = _count_calls(monkeypatch, experiments, "sample")
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"family": family, "reps": 2}))
    out = tmp_path / "o.csv"
    assert main(["sweep", "--config", str(cfg), "--seed", "3", "--out", str(out)]) == 3
    assert replicates == [] and not out.exists()
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("kind, grid_key, other_key", GRID_KINDS)
def test_refused_allocation_in_a_later_grid_row(tmp_path, capsys, monkeypatch, kind, grid_key, other_key):
    """A grid row whose profile the machine refuses exits 4 after the rows
    before it ran, and writes nothing."""
    from hetwishart import experiments, profiles

    make = "homoskedastic_rows" if kind.endswith("rows_grid") else "homoskedastic_columns"

    def refuse_the_last(vec, other):
        if vec.size == 8:
            raise MemoryError("Unable to allocate the last row")

    _count_calls(monkeypatch, profiles, make, refuse_the_last)
    replicates = _count_calls(monkeypatch, experiments, "sample")
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"family": {"kind": kind, grid_key: [3, 5, 8], other_key: 4}, "reps": 2}))
    out = tmp_path / "o.csv"
    assert main(["sweep", "--config", str(cfg), "--seed", "3", "--out", str(out)]) == 4
    assert len(replicates) == 4 and not out.exists()
    assert capsys.readouterr().err == "size guard: Unable to allocate the last row\n"


PROFILE_KINDS = ("explicit", "homoskedastic_rows", "homoskedastic_columns", "lower_bound")
FAMILY_KINDS = ("list", "random_uniform", "homoskedastic_rows_grid", "homoskedastic_columns_grid")


def _unknown_kind_args(tmp_path, table):
    if table == "profile":
        bad = tmp_path / "bad_profile.json"
        bad.write_text(json.dumps({"kind": "bogus", "sigma": [[1.0]]}))
        return ["profile", "--in", str(bad)], PROFILE_KINDS
    bad = tmp_path / "bad_sweep.json"
    bad.write_text(json.dumps({"family": {"kind": "bogus"}, "reps": 2}))
    return ["sweep", "--config", str(bad), "--seed", "1", "--out", str(tmp_path / "x.csv")], FAMILY_KINDS


@pytest.mark.parametrize("table", ["profile", "family"])
def test_unknown_kind_lists_the_known_ones(tmp_path, capsys, table):
    argv, known = _unknown_kind_args(tmp_path, table)
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "'bogus'" in err
    for kind in known:
        assert kind in err


_SRC = Path(__file__).resolve().parents[1] / "src"

_SCIPY_PROBE = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
if argv is None:
    import hetwishart.cli
else:
    from hetwishart.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def _scipy_free_argv(tmp_path, case):
    path = write_profile(tmp_path, np.full((DENSE_CUTOFF, 10), 0.5))
    tall = write_profile(tmp_path, np.full((DENSE_CUTOFF + 32, 10), 0.5), "tall.json")
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({
        "family": {"kind": "homoskedastic_rows_grid", "p1_grid": [DENSE_CUTOFF + 32], "p2": 10},
        "reps": 2,
    }))
    return {
        "import": None,
        "oracle": ["oracle", "--check", "comparison", "--profile",
                   write_profile(tmp_path, [[1.0, 0.5], [0.0, 1.0]], "small.json"), "--q", "2"],
        "bound": ["bound", "--profile", path, "--id", "gaussian"],
        "simulate_dense": ["simulate", "--profile", path, "--reps", "3", "--seed", "1"],
        "simulate_lanczos": ["simulate", "--profile", tall, "--reps", "3", "--seed", "1"],
        "sweep_lanczos": ["sweep", "--config", str(sweep), "--seed", "1",
                          "--out", str(tmp_path / "sweep.csv")],
        "cluster_lanczos": ["cluster", "--n", str(DENSE_CUTOFF + 32), "--p", "40", "--reps", "2",
                            "--lambdas", "0.5,4.0", "--seed", "1", "--out", str(tmp_path / "phase.csv")],
    }[case]


@pytest.mark.parametrize("case", ["import", "oracle", "bound", "simulate_dense", "simulate_lanczos",
                                  "sweep_lanczos", "cluster_lanczos"])
def test_cli_runs_without_loading_scipy(tmp_path, case):
    """No CLI run loads scipy: not the import, the oracle or bounds, and not
    the simulations, sweeps and clustering on either side of DENSE_CUTOFF."""
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    argv = json.dumps(_scipy_free_argv(tmp_path, case))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, argv],
                          capture_output=True, text=True, env=env, check=True)
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []


_MODULES_PROBE = """
import contextlib, io, json, sys
argv = json.loads(sys.argv[1])
if argv is None:
    import numpy
else:
    from hetwishart.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # --version
            code = exc.code
    assert code == 0
print(json.dumps(sorted(sys.modules)))
"""

# modules that only simulate, sweep and cluster need
_RUN_ONLY_MODULES = {"hetwishart.experiments", "hetwishart.spectral", "concurrent.futures",
                     "hashlib", "numpy.random"}


def _modules_loaded_beyond_numpy(argv) -> set[str]:
    """The modules a CLI run in a fresh process loads that a bare ``import
    numpy`` in the same environment does not."""
    env = {**os.environ, "PYTHONPATH": str(_SRC)}

    def loaded(args):
        proc = subprocess.run([sys.executable, "-c", _MODULES_PROBE, json.dumps(args)],
                              capture_output=True, text=True, env=env, check=True)
        return set(json.loads(proc.stdout.strip().splitlines()[-1]))

    return loaded(argv) - loaded(None)


@pytest.mark.parametrize("case", ["oracle", "profile", "version"])
def test_oracle_profile_and_version_load_no_run_modules(tmp_path, case):
    """``oracle``, ``profile`` and ``--version`` import neither the Monte
    Carlo stack, the pool, hashlib nor numpy's random module."""
    path = write_profile(tmp_path, [[1.0, 0.5], [0.25, 1.0]])
    argv = {"oracle": ["oracle", "--check", "trace", "--profile", path, "--q", "2"],
            "profile": ["profile", "--in", path],
            "version": ["--version"]}[case]
    assert _modules_loaded_beyond_numpy(argv) & _RUN_ONLY_MODULES == set()


def test_cluster_on_one_thread_loads_no_pool(tmp_path):
    argv = ["cluster", "--n", "20", "--p", "10", "--reps", "2", "--lambdas", "1.0",
            "--seed", "1", "--threads", "1"]
    assert "concurrent.futures" not in _modules_loaded_beyond_numpy(argv)


def test_simulate_on_the_lanczos_route_is_thread_independent(tmp_path, capsys):
    p1 = DENSE_CUTOFF + 32
    path = write_profile(tmp_path, np.linspace(0.5, 1.5, p1 * 20).reshape(p1, 20))
    outs = []
    for threads in ("1", "3"):
        assert main(["simulate", "--profile", path, "--reps", "6", "--seed", "4",
                     "--threads", threads]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["config"].pop("threads") == int(threads)
        outs.append(json.dumps(out))
    assert outs[0] == outs[1]  # floats round-trip exactly through JSON


def test_simulate_output_is_independent_of_blas_threads(tmp_path):
    """The same ``simulate --threads 2`` run on the dense route writes the same
    bytes under 1 and 2 OpenBLAS threads: replicates run on one BLAS thread
    whatever the process was started with."""
    path = write_profile(tmp_path, np.random.default_rng(7).uniform(size=(100, 100)))
    outs = []
    for blas_threads in ("1", "2"):
        out = tmp_path / f"out{blas_threads}.json"
        env = {**os.environ, "PYTHONPATH": str(_SRC), "OPENBLAS_NUM_THREADS": blas_threads}
        subprocess.run([sys.executable, "-m", "hetwishart.cli", "simulate", "--profile", path,
                        "--reps", "200", "--seed", "5", "--threads", "2", "--out", str(out)],
                       capture_output=True, env=env, check=True)
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def _overflow_argv(tmp_path, case, threads):
    big = write_profile(tmp_path, [[1e308, 0.5], [0.5, 0.5]], "big.json")
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({
        "family": {"kind": "list", "profiles": [
            {"profile": {"kind": "homoskedastic_rows", "sigmas": [1e200, 1e200], "other_dim": 2}}]},
        "reps": 4, "bound": {"id": "structured_rows"},
    }))
    bound_sweep = tmp_path / "bound_sweep.json"
    bound_sweep.write_text(json.dumps({
        "family": {"kind": "list", "profiles": [{"profile": {"kind": "explicit", "sigma": [[0.5]]}}]},
        "reps": 2, "bound": {"id": "gaussian", "eps1": 1e308},
    }))
    out = ["--out", str(tmp_path / "out.csv")]
    return {
        "profile": ["profile", "--in", big],
        "bound": ["bound", "--profile", big, "--id", "gaussian"],
        "simulate": ["simulate", "--profile", big, "--reps", "4", "--seed", "1", "--threads", threads],
        "sweep_profile": ["sweep", "--config", str(sweep), "--seed", "1", "--threads", threads, *out],
        "sweep_bound": ["sweep", "--config", str(bound_sweep), "--seed", "1", "--threads", threads, *out],
    }[case]


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("case", ["profile", "bound", "simulate", "sweep_profile", "sweep_bound"])
def test_an_overflow_exits_5_with_one_line_and_no_output_file(tmp_path, case, threads):
    """A finite input whose result overflows exits 5 and prints exactly one
    stderr line, with no numpy warning and no errno tuple, on any number of
    threads; a sweep writes no CSV."""
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    proc = subprocess.run([sys.executable, "-m", "hetwishart.cli",
                           *_overflow_argv(tmp_path, case, threads)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 5
    assert proc.stderr.startswith("numerical failure: ") and proc.stderr.count("\n") == 1
    assert "(34," not in proc.stderr
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("case", ["bound", "simulate", "oracle"])
def test_out_file_and_stdout_are_the_same_bytes(tmp_path, case):
    """With --out, the file, stdout and the payload's
    ``json.dumps(indent=2, sort_keys=True)`` plus a newline are equal bytes."""
    path = write_profile(tmp_path, np.random.default_rng(3).uniform(size=(30, 7)))
    small = write_profile(tmp_path, [[1.0, 0.5], [0.25, 1.0]], "small.json")
    out = tmp_path / "out.json"
    argv = {"bound": ["bound", "--profile", path, "--id", "gaussian"],
            "simulate": ["simulate", "--profile", path, "--reps", "20", "--seed", "2",
                         "--threads", "2"],
            "oracle": ["oracle", "--check", "comparison", "--profile", small, "--q", "4"]}[case]
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    proc = subprocess.run([sys.executable, "-m", "hetwishart.cli", *argv, "--out", str(out)],
                          capture_output=True, env=env, check=True)
    text = json.dumps(json.loads(out.read_bytes()), indent=2, sort_keys=True) + "\n"
    assert out.read_bytes() == proc.stdout == text.encode()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.json", "profile.json", "small.json"]


@pytest.mark.parametrize("case", ["bound", "simulate"])
def test_a_non_finite_result_with_out_writes_nothing(tmp_path, case):
    """A result that overflows exits 5 with --out too, and leaves no file, no
    temp file and no stdout."""
    out = tmp_path / "out.json"
    argv = [*_overflow_argv(tmp_path, case, "1"), "--out", str(out)]
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    proc = subprocess.run([sys.executable, "-m", "hetwishart.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 5 and proc.stdout == ""
    assert not out.exists() and not (tmp_path / "out.json.tmp").exists()


def test_emit_removes_its_temp_file_on_a_late_non_finite_number(tmp_path, capsys):
    """A NaN after much of the JSON has been streamed is a NumericalError; the
    temp file is removed and nothing reaches the path or stdout."""
    from hetwishart import cli
    from hetwishart.errors import NumericalError

    out = tmp_path / "out.json"
    with pytest.raises(NumericalError, match="not a finite number"):
        cli._emit(str(out), {"a": [0.5] * 10_000, "z": float("nan")})
    assert list(tmp_path.iterdir()) == [] and capsys.readouterr().out == ""


@pytest.mark.parametrize("case", ["simulate", "sweep"])
def test_simulate_and_sweep_do_not_load_numpy_ma(tmp_path, case):
    """The quantiles are read from one sort, so no Monte Carlo run imports
    ``numpy.ma`` (``np.quantile`` would, through ``np.unique``)."""
    path = write_profile(tmp_path, np.full((20, 10), 0.5))
    sweep = tmp_path / "sweep.json"
    sweep.write_text(json.dumps({
        "family": {"kind": "homoskedastic_rows_grid", "p1_grid": [20, 30], "p2": 10}, "reps": 3,
    }))
    argv = {"simulate": ["simulate", "--profile", path, "--reps", "5", "--seed", "1",
                         "--threads", "2", "--out", str(tmp_path / "out.json")],
            "sweep": ["sweep", "--config", str(sweep), "--seed", "1",
                      "--out", str(tmp_path / "sweep.csv")]}[case]
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    proc = subprocess.run([sys.executable, "-c", _MODULES_PROBE, json.dumps(argv)],
                          capture_output=True, text=True, env=env, check=True)
    loaded = set(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert "hetwishart.experiments" in loaded and "numpy.ma" not in loaded


def test_unified_heavy_tail_without_alpha_names_alpha_only(tmp_path, capsys):
    """``p_max`` comes from the profile, so the error names only ``alpha``."""
    path = write_profile(tmp_path, np.ones((4, 9)))
    assert main(["bound", "--profile", path, "--id", "unified_heavy_tail"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "alpha" in err and "p_max" not in err
