import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hetwishart

# the names ``hetwishart`` re-exports, by the submodule that defines them
EXPORTS = {
    "bounds": ["BoundReport", "ClusteringRates", "MomentTail", "baseline_bounds", "c1_constant",
               "c2_constant", "clustering_rates", "gaussian_upper_bound", "lower_bound_rate",
               "moment_and_tail", "structured_rates", "unified_bound"],
    "errors": ["ContractError", "HetWishartError", "NumericalError", "ParameterError",
               "SizeGuardError"],
    "experiments": ["ClusteringInstance", "ConcentrationEstimate", "estimate_concentration",
                    "generate_mixture", "misclassification", "phase_diagram", "rate_sweep",
                    "spectral_cluster", "tail_empirics"],
    "moment_oracle": ["check_diagonal_deletion", "check_gaussian_comparison",
                      "check_paired_moment", "check_variance_contraction",
                      "exact_deleted_diagonal_trace_moment", "exact_trace_moment",
                      "gaussian_moment", "heavy_tail_moment"],
    "profiles": ["ProfileSummary", "VarianceProfile", "homoskedastic_columns",
                 "homoskedastic_rows", "lower_bound_profile", "profile_from_json",
                 "profile_to_json", "summarize"],
    "samplers": ["Bernoulli", "Bounded", "Gaussian", "HeavyTail", "NoiseModel", "SampleSeed",
                 "ScaledRademacher", "heavy_tail_scale", "sample"],
    "spectral": ["centered_operator", "spectral_norm", "trace_power"],
}
NAMES = [name for names in EXPORTS.values() for name in names]
_SRC = Path(__file__).resolve().parents[1] / "src"


def test_all_lists_the_54_exported_names():
    assert len(NAMES) == 54
    assert sorted(hetwishart.__all__) == sorted(NAMES)


@pytest.mark.parametrize("module,name", [(m, n) for m, names in EXPORTS.items() for n in names])
def test_each_name_is_its_submodules_object(module, name):
    submodule = getattr(hetwishart, module)
    assert submodule.__name__ == f"hetwishart.{module}"
    assert getattr(hetwishart, name) is getattr(submodule, name)


# the submodules that declare ``__all__``
ALL_DECLARING = ["bounds", "experiments", "moment_oracle", "profiles", "samplers", "spectral"]


@pytest.mark.parametrize("module", ALL_DECLARING)
def test_each_submodules_all_resolves(module):
    submodule = importlib.import_module(f"hetwishart.{module}")
    scope = {}
    exec(f"from hetwishart.{module} import *", scope)
    assert {name: scope[name] for name in submodule.__all__} == {
        name: getattr(submodule, name) for name in submodule.__all__}


def test_dir_lists_names_and_submodules():
    listed = dir(hetwishart)
    assert set(NAMES) <= set(listed) and set(EXPORTS) <= set(listed)
    assert "__version__" in listed


def test_star_import_binds_every_name():
    scope = {}
    exec("from hetwishart import *", scope)
    assert {name: scope[name] for name in NAMES} == {n: getattr(hetwishart, n) for n in NAMES}


def test_submodule_names_resolve():
    from hetwishart import spectral

    assert hetwishart.spectral is spectral is sys.modules["hetwishart.spectral"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hetwishart.no_such_name
    with pytest.raises(ImportError):
        exec("from hetwishart import no_such_name", {})


def test_import_loads_no_submodule_and_binds_the_version():
    probe = ("import json, sys, hetwishart; print(json.dumps("
             "[[m for m in sys.modules if m.startswith('hetwishart.')], vars(hetwishart)['__version__']]))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(_SRC)}, check=True)
    assert json.loads(proc.stdout) == [[], "0.1.0"]
