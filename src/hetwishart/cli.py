"""Command-line entry point.

Subcommands: profile, bound, simulate, oracle, sweep, cluster.  Machine
readable output is written atomically (temp file + rename).  Every command
prints its full JSON result to stdout: bound, simulate and oracle print the
same bytes as their --out file, and sweep those of its --summary file; the
sweep and cluster CSVs and profile's --out (the resolved profile) go only to
their files.  All randomness flows from an explicit seed; there is no
wall-clock fallback.  Exit codes: 0 success, 2 usage, 3 validation, 4 size
guard (a guard, or an allocation the machine refuses), 5 numerical failure.
Every value that comes in, from a flag or a JSON file, follows the rule of
its kind, or the run exits 3: a number is a finite JSON number in range (not
a string or a boolean), an integer is exact and at least its least value,
and a name is in its table.  Every number that goes out is finite, or the
run exits 5.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from typing import Iterable, Iterator

import numpy as np

from . import __version__, bounds, moment_oracle, profiles, samplers
from .errors import ContractError, NumericalError, ParameterError, SizeGuardError

_SALT_FAMILY = 4 << 32

VERSION_TABLE = f"""hetwishart {__version__}
constants:
  C1(eps1)       = 10 (1+eps1) sqrt(ceil(1/log(1+eps1)))
  C2(eps1,eps2)  = (1+eps1) ceil(1/log(1+eps1)) (25/eps2 + 24)
  s_b^2          = 2^(b-1) Gamma(b-1/2) / Gamma(1/2)  (heavy-tail variance normalizer)
guards:
  moment order <= {moment_oracle.MAX_GAUSSIAN_ORDER} (gaussian_moment and heavy_tail_moment)
  oracle walk <= {moment_oracle._WALK_GUARD} edge cells of new states per trace moment
  oracle sum <= {moment_oracle.ENUMERATION_GUARD} labelings per general-profile trace moment"""


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _emit(path: str | None, payload: dict) -> None:
    """Print the JSON payload, and write it to path if one is given.  A NaN
    or infinite number in it is a NumericalError, and nothing is written.

    With a path the JSON is streamed into the temp file, which is renamed
    and then copied to stdout line by line, so no copy of the text (about
    300 KB for a 100 x 100 ``simulate`` echoing its sigma) is built."""
    if not path:
        try:
            text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
        except ValueError:
            raise NumericalError("result is not a finite number") from None
        print(text)
        return
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
    except ValueError:
        os.remove(tmp)
        raise NumericalError("result is not a finite number") from None
    os.replace(tmp, path)
    with open(path, encoding="utf-8") as fh:
        sys.stdout.writelines(fh)


def _load_model(spec: str) -> samplers.NoiseModel:
    if not spec.strip().startswith("{"):
        return samplers.model_from_json_dict(profiles._read_json(spec, "noise model"))
    return samplers.model_from_json_dict(profiles._parse_json(spec, "inline noise model JSON"))


def _load_config(args) -> dict:
    cfg = {}
    if getattr(args, "config", None):
        cfg = profiles._read_json(args.config, "config")
        if not isinstance(cfg, dict):
            raise ParameterError("config file must contain a JSON object")
    return cfg


def _setting(args, cfg: dict, name: str, default=None):
    """The --name flag if given, else the config's value, else the default;
    a setting without a default is required."""
    value = getattr(args, name)
    if value is None:
        value = cfg.get(name, default)
    if value is None:
        raise ParameterError(f"--{name} (or a config with {name!r}) is required")
    return value


def _integer_setting(args, cfg: dict, name: str, default=None, low=-math.inf) -> int:
    """``_setting`` as an exact integer of at least ``low``."""
    return profiles._integer(_setting(args, cfg, name, default), name, low)


# ---------------------------------------------------------------- profile


def cmd_profile(args) -> int:
    prof = profiles.load_profile(args.infile)
    s = profiles.summarize(prof)
    _emit(None, {"p1": prof.p1, "p2": prof.p2, **dataclasses.asdict(s)})
    if args.out:
        _atomic_write(args.out, profiles.profile_to_json(prof) + "\n")
    return 0


# ---------------------------------------------------------------- bound


# one --flag per parameter that some bound id reads
_BOUND_FLAGS = tuple(dict.fromkeys(name for entry in bounds.BOUNDS.values() for name in entry.reads))


def cmd_bound(args) -> int:
    bound = bounds.BOUNDS[args.id]
    params = {k: getattr(args, k) for k in _BOUND_FLAGS if getattr(args, k) is not None}
    _emit(args.out, dataclasses.asdict(bound(profiles.load_profile(args.profile), params)))
    return 0


# ---------------------------------------------------------------- simulate


def cmd_simulate(args) -> int:
    from . import experiments

    cfg = _load_config(args)
    seed = _integer_setting(args, cfg, "seed")
    threads = _integer_setting(args, cfg, "threads", 1)
    reps = _integer_setting(args, cfg, "reps")
    if args.profile:
        prof = profiles.load_profile(args.profile)
    elif "profile" in cfg:
        prof = profiles._profile_from_payload(cfg["profile"])
    else:
        raise ParameterError("--profile (or a config with one) is required")
    model = _load_model(args.model) if args.model else samplers.model_from_json_dict(
        cfg.get("model", {"model": "gaussian", "params": {}})
    )
    est = experiments.estimate_concentration(prof, model, reps, seed, threads)
    resolved = {
        "profile": profiles._profile_payload(prof),
        "model": samplers.model_to_json_dict(model),
        "reps": reps,
        "seed": seed,
        "threads": threads,
    }
    _emit(args.out, {"command": "simulate", "config": resolved, "estimate": dataclasses.asdict(est)})
    return 0


# ---------------------------------------------------------------- oracle


def _oracle_profile(args) -> profiles.VarianceProfile:
    if args.profile is None:
        raise ParameterError(f"--profile is required for the {args.check} check")
    return profiles.load_profile(args.profile)


def _check(fn):
    """A comparison check on the profile; the payload is its ComparisonResult."""
    return lambda args: dataclasses.asdict(fn(_oracle_profile(args), args.q))


def _paired(args) -> dict:
    if args.xs is None:
        raise ParameterError("--xs x1,x2,x3,x4,x5 is required for the paired check")
    if len(args.xs) != 5:
        raise ParameterError("--xs must list exactly five integers")
    return dataclasses.asdict(moment_oracle.check_paired_moment(*args.xs))


def _moment(fn):
    def run(args) -> dict:
        prof = _oracle_profile(args)
        return {"value": fn(prof, args.q),
                "cycles_enumerated": moment_oracle.cycle_count(prof.p1, prof.p2, args.q)}
    return run


# --check name -> function of the parsed arguments returning the payload
ORACLE_CHECKS = {
    "comparison": _check(moment_oracle.check_gaussian_comparison),
    "contraction": _check(moment_oracle.check_variance_contraction),
    "deletion": _check(moment_oracle.check_diagonal_deletion),
    "paired": _paired,
    "trace": _moment(moment_oracle.exact_trace_moment),
    "deleted_trace": _moment(moment_oracle.exact_deleted_diagonal_trace_moment),
    "shape_trace": _moment(moment_oracle.exact_trace_moment),  # alias of trace
}


def cmd_oracle(args) -> int:
    payload = {"check": args.check, **ORACLE_CHECKS[args.check](args)}
    _emit(args.out, payload)
    return 5 if payload.get("holds") is False else 0


# ---------------------------------------------------------------- sweep


_NamedProfile = tuple[str, profiles.VarianceProfile]


def _listed_profiles(family: dict, family_seed: int) -> list[_NamedProfile]:
    out = []
    for entry in family["profiles"]:
        prof = profiles._profile_from_payload(entry["profile"])
        out.append((str(entry.get("name", f"profile{len(out)}")), prof))
    return out


def _random_uniform_profiles(family: dict, family_seed: int) -> list[_NamedProfile]:
    count = profiles._integer(family["count"], "count", 0)
    p1_lo, p2_lo = (profiles._integer(family.get(key, 2), key, 1) for key in ("p1_min", "p2_min"))
    p1_hi, p2_hi = (profiles._integer(family[key], key, 1) for key in ("p1_max", "p2_max"))
    lo, hi = (profiles._finite(family.get(key, default), key, 0.0)
              for key, default in (("sigma_min", 0.0), ("sigma_max", 1.0)))
    out = []
    for k in range(count):
        rng = samplers.generator(samplers.SampleSeed(family_seed, k))
        p1 = int(rng.integers(p1_lo, p1_hi + 1))
        p2 = int(rng.integers(p2_lo, p2_hi + 1))
        sigma = rng.uniform(lo, hi, size=(p1, p2))
        out.append((f"random{k}", profiles.VarianceProfile(sigma)))
    return out


def _homoskedastic_grid(rows: bool):
    """Builder of one homoskedastic profile per grid dimension, named
    rows{p1} (over "p1_grid", with "p2") or columns{p2} (over "p2_grid", with "p1").

    Every field is checked, and every scale vector drawn, when the builder
    runs; each p1-by-p2 profile is built only when the sweep reaches its
    row, so a sweep holds one row's profile at a time."""
    label, grid_key, other_key = ("rows", "p1_grid", "p2") if rows else ("columns", "p2_grid", "p1")

    def build(family: dict, family_seed: int) -> Iterator[_NamedProfile]:
        make = profiles.homoskedastic_rows if rows else profiles.homoskedastic_columns
        grid = [profiles._integer(v, grid_key, 1) for v in family[grid_key]]
        other = profiles._integer(family[other_key], other_key, 1)
        lo, hi = (profiles._finite(family.get(key, default), key, 0.0)
                  for key, default in (("sigma_min", 0.5), ("sigma_max", 1.5)))
        scales = [(f"{label}{dim}",
                   samplers.generator(samplers.SampleSeed(family_seed, k)).uniform(lo, hi, size=dim))
                  for k, dim in enumerate(grid)]
        # numpy's own limit on an array's bytes, checked before any row runs
        if max(grid, default=0) * other > sys.maxsize // 8:
            raise ParameterError(f"{grid_key} entry {max(grid)} with {other_key} = {other} "
                                 "exceeds numpy's array size limit")
        return ((name, make(vec, other)) for name, vec in scales)

    return build


# sweep family "kind" -> builder of the (name, profile) rows from the family
# object and the family seed
_FAMILIES = profiles._Table("profile family kind", {
    "list": _listed_profiles,
    "random_uniform": _random_uniform_profiles,
    "homoskedastic_rows_grid": _homoskedastic_grid(rows=True),
    "homoskedastic_columns_grid": _homoskedastic_grid(rows=False),
})


def _resolve_family(family: dict, master_seed: int) -> Iterable[_NamedProfile]:
    if not isinstance(family, dict):
        raise ParameterError(f"sweep family must be a JSON object, got {family!r}")
    return _FAMILIES[family.get("kind")](family, samplers.derive_seed(master_seed, _SALT_FAMILY))


def cmd_sweep(args) -> int:
    import hashlib

    from . import experiments

    cfg = _load_config(args)
    seed = _integer_setting(args, cfg, "seed")
    threads = _integer_setting(args, cfg, "threads", 1)
    with profiles._fields("sweep config"):
        named = _resolve_family(cfg["family"], seed)
        reps = profiles._integer(cfg["reps"], "reps")
        bound_cfg = dict(cfg.get("bound", {"id": "gaussian"}))
        bound_id = bound_cfg.pop("id")
    model = samplers.model_from_json_dict(cfg.get("model", {"model": "gaussian", "params": {}}))
    rows = experiments.rate_sweep(
        named, model, reps, bound_id, seed, threads, bound_params=bound_cfg
    )
    csv_text = experiments.sweep_rows_to_csv(rows)
    _atomic_write(args.out, csv_text)
    resolved = dict(cfg)
    resolved["seed"] = seed
    resolved["threads"] = threads
    # a row whose bound is 0 has ratio NaN, which max and min would order by position
    ratios = [r.ratio for r in rows if math.isfinite(r.ratio)]
    summary = {
        "command": "sweep",
        "config": resolved,
        "rows": len(rows),
        "csv_path": args.out,
        "csv_sha256": hashlib.sha256(csv_text.encode()).hexdigest(),
        "max_ratio": max(ratios, default=None),
        "min_ratio": min(ratios, default=None),
    }
    _emit(args.summary, summary)
    return 0


# ---------------------------------------------------------------- cluster


def cmd_cluster(args) -> int:
    from . import experiments

    cfg = _load_config(args)
    seed = _integer_setting(args, cfg, "seed")
    threads = _integer_setting(args, cfg, "threads", 1)
    n = _integer_setting(args, cfg, "n")
    p = _integer_setting(args, cfg, "p", low=1)
    reps = _integer_setting(args, cfg, "reps")
    lambda_grid = _setting(args, cfg, "lambdas")
    if args.sigma_const is not None:
        sigmas = np.full(p, args.sigma_const)
    else:
        sigmas = cfg.get("sigmas", np.ones(p))
    rows, threshold = experiments.phase_diagram(n, p, sigmas, lambda_grid, reps, seed, threads=threads)
    csv_text = experiments.phase_rows_to_csv(rows, threshold)
    if args.out:
        _atomic_write(args.out, csv_text)
    resolved = {
        "n": n,
        "p": p,
        "reps": reps,
        "lambdas": [r.lam for r in rows],
        "sigmas": [float(s) for s in sigmas],
        "seed": seed,
        "threads": threads,
    }
    summary = {
        "command": "cluster",
        "config": resolved,
        "snr_threshold": threshold,
        "rows": [
            {"lambda": r.lam, "mean_misclassification": r.mean_misclassification,
             "std_err": r.std_err}
            for r in rows
        ],
    }
    _emit(None, summary)
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    # the raw formatter keeps VERSION_TABLE's lines, which argparse would re-wrap
    parser = argparse.ArgumentParser(prog="hetwishart", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=VERSION_TABLE)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="summarize a variance profile file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", help="write the resolved explicit profile here")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("bound", help="evaluate a closed-form bound on a profile")
    p.add_argument("--profile", required=True)
    p.add_argument("--id", required=True)
    for flag in _BOUND_FLAGS:
        p.add_argument(f"--{flag}", type=float)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("simulate", help="Monte Carlo estimate of E||ZZ' - E ZZ'||")
    p.add_argument("--profile")
    p.add_argument("--model", help="noise model JSON file or inline JSON")
    p.add_argument("--reps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int)
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("oracle", help="exact trace-moment computations and checks")
    p.add_argument("--check", required=True, choices=list(ORACLE_CHECKS))
    p.add_argument("--profile")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--xs", type=lambda text: [int(v) for v in text.split(",")],
                   help="x1,x2,x3,x4,x5 for the paired check")
    p.add_argument("--out")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("sweep", help="Monte Carlo vs bound over a profile family")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int)
    p.add_argument("--out", required=True, help="CSV output path")
    p.add_argument("--summary", help="also write the JSON summary here")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("cluster", help="two-component clustering phase diagram")
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=int)
    p.add_argument("--reps", type=int)
    p.add_argument("--lambdas", type=lambda text: [float(v) for v in text.split(",")],
                   help="comma-separated signal strengths")
    p.add_argument("--sigma-const", type=float, dest="sigma_const")
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int)
    p.add_argument("--config")
    p.add_argument("--out")
    p.set_defaults(func=cmd_cluster)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # an overflow is caught by the finite-output rule, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (ParameterError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (SizeGuardError, MemoryError) as exc:
        # numpy's MemoryError names the allocation the machine refused
        print(f"size guard: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 4
    except (NumericalError, np.linalg.LinAlgError, OverflowError) as exc:
        # a float power's OverflowError carries (errno, text): print the text
        print(f"numerical failure: {exc.args[-1]}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
