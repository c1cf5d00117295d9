"""The public surface: what ``specbound`` exports and what it no longer ships."""

import argparse
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import _dyck
import _oracles
import _reductions
import _treeval
import _walks
import specbound
from specbound import (
    InputError,
    McConfig,
    NormSequence,
    VarianceMatrix,
    critical_w,
    density,
    density_scan,
    estimate_support,
    gram_linearize,
    inf_norm,
    load_dense,
    load_matrix,
    mc_experiment,
    moment_recursion,
    norm_sequence,
    resolve_profile,
    root_function,
    sample_matrix,
    support_bound,
    support_from_moments,
    wigner_profile,
)
from specbound.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"

LIBRARY_MODULES = ["errors", "linalg", "bounds", "qve", "montecarlo"]

# every name defined by the test-only helpers: the paper's proof machinery,
# the brute-force evaluators that check it and the exact reduced edges
TEST_ONLY_NAMES = sorted(
    n for m in (_dyck, _treeval, _walks, _oracles, _reductions)
    for n, obj in vars(m).items()
    if not n.startswith("_") and getattr(obj, "__module__", None) == m.__name__)


# the package's public names that are not modules
PUBLIC = {n: obj for n, obj in vars(specbound).items()
          if not n.startswith("_") and not inspect.ismodule(obj)}


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_module_exports_match_the_package(name):
    # __all__ is the module's one export list: it names only the module's
    # own objects, every public class and function defined there among
    # them, and the package re-exports each of them as is
    mod = importlib.import_module(f"specbound.{name}")
    defined = {n for n, obj in vars(mod).items()
               if not n.startswith("_")
               and getattr(obj, "__module__", None) == mod.__name__}
    assert defined <= set(mod.__all__)
    for n in mod.__all__:
        obj = getattr(mod, n)
        assert getattr(obj, "__module__", mod.__name__) == mod.__name__, n
        assert PUBLIC[n] is obj, n


def test_package_exports_the_union_of_the_module_lists():
    lists = [importlib.import_module(f"specbound.{m}").__all__
             for m in LIBRARY_MODULES]
    names = [n for names in lists for n in names]
    assert len(names) == len(set(names))
    assert set(PUBLIC) == set(names)
    assert "ENSEMBLES" in PUBLIC
    assert "spectral_radius" not in PUBLIC


def test_package_ships_the_runtime_modules_and_four_subcommands():
    shipped = {m.name for m in pkgutil.iter_modules(specbound.__path__)}
    assert shipped == {"bounds", "cli", "errors", "linalg", "montecarlo", "qve"}
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == {"bound", "qve", "mc", "report"}


def test_readme_library_import_resolves():
    text = README.read_text()
    section = text[text.index("## Library"):]
    stmt = re.search(r"from specbound import \([^)]*\)", section).group(0)
    namespace = {}
    exec(stmt, namespace)
    assert "support_bound" in namespace


@pytest.mark.parametrize("name", ["specbound", *(
    f"specbound.{m.name}" for m in pkgutil.iter_modules(specbound.__path__))])
def test_test_oracles_are_not_shipped(name):
    mod = importlib.import_module(name)
    for oracle in TEST_ONLY_NAMES:
        assert not hasattr(mod, oracle), f"{name}.{oracle}"


# ------------------------------------------------- values that are not real

S3 = wigner_profile(3)
NS = NormSequence(1.0, [1.0, 0.5])

NOT_REAL = {
    "z-complex": lambda: NormSequence(1.0, [1 + 1j]),
    "z-text": lambda: NormSequence(1.0, ["a"]),
    "z-ragged": lambda: NormSequence(1.0, [[1.0], [1.0, 0.5]]),
    "norm-text": lambda: NormSequence("x", [1.0]),
    "norm-bool": lambda: NormSequence(True, [1.0]),
    "matrix-complex-array": lambda: VarianceMatrix(np.array([[1 + 1j]])),
    "gram-complex-array": lambda: gram_linearize(np.array([[1 + 1j]])),
    "matrix-text-array": lambda: VarianceMatrix(np.array([["1"]])),
    "matrix-bool-array": lambda: VarianceMatrix(np.array([[True]])),
    "taus-complex-array": lambda: density_scan(S3, np.array([1 + 1j])),
    "taus-text": lambda: density_scan(S3, ["a"]),
    "eta-text": lambda: density_scan(S3, [1.0], eta="a"),
    "grid-step-text": lambda: estimate_support(S3, grid_step="a"),
    "eta-bool": lambda: estimate_support(S3, eta=True),
    "w-text": lambda: root_function("a", NS),
    "w-complex": lambda: root_function(1j, NS),
    "table-complex": lambda: support_from_moments(np.array([[1.0, 1 + 1j]])),
    "table-nan": lambda: support_from_moments(np.array([[1.0, np.nan]])),
}


@pytest.mark.parametrize("call", NOT_REAL.values(), ids=NOT_REAL)
def test_values_that_are_not_real_numbers_are_input_errors(call):
    # never NumPy's TypeError or ValueError, an AttributeError, a
    # ComplexWarning with the imaginary part dropped, a bool read as 0 or
    # 1, text read as a number, or a NaN result
    with pytest.raises(InputError, match="real number"):
        call()


def test_a_moment_table_given_as_nested_lists_is_read_as_an_array():
    assert support_from_moments([[1.0, 2.0]]) == 2.0 ** 0.5


# ------------------------------------------------- objects of the wrong type

# each case takes the path of a valid 1x1 matrix file, so that the type
# of the argument is the only thing wrong with it
WRONG_TYPE = {
    "support-bound-array": lambda f: support_bound(np.eye(3)),
    "norm-sequence-array": lambda f: norm_sequence(np.eye(2), 3),
    "inf-norm-array": lambda f: inf_norm(np.eye(2)),
    "moments-array": lambda f: moment_recursion(np.eye(2), 2),
    "density-scan-array": lambda f: density_scan(np.eye(2), [0.1]),
    "density-array": lambda f: density(np.eye(2), 0.1, 1e-3),
    "support-estimate-list": lambda f: estimate_support([[1.0]]),
    "root-function-list": lambda f: root_function(0.5, [1.0]),
    "critical-w-list": lambda f: critical_w([1.0]),
    "sample-array": lambda f: sample_matrix(
        np.eye(2), "real-symmetric", np.random.default_rng(0)),
    "sample-int-rng": lambda f: sample_matrix(S3, "real-symmetric", 0),
    "sample-random-state": lambda f: sample_matrix(
        S3, "complex-hermitian", np.random.RandomState(0)),
    "mc-array": lambda f: mc_experiment(np.eye(2), McConfig(trials=1, seed=0)),
    "mc-dict-config": lambda f: mc_experiment(S3, {"trials": 1}),
    "config-ensemble-array": lambda f: McConfig(
        trials=1, seed=0, ensemble=np.array(["a", "b"])),
    "resolve-int": lambda f: resolve_profile(5),
    "resolve-path": lambda f: resolve_profile(Path(f)),
    "load-dense-int": lambda f: load_dense(5),
    "load-matrix-none": lambda f: load_matrix(None),
    "repair-text": lambda f: VarianceMatrix(np.eye(2), repair="no"),
}


@pytest.mark.parametrize("call", WRONG_TYPE.values(), ids=WRONG_TYPE)
def test_objects_of_the_wrong_type_are_input_errors(call, tmp_path):
    # never an AttributeError or TypeError from reaching into the object,
    # nor a truthy string read as True
    f = tmp_path / "m.txt"
    f.write_text("1\n1.0\n")
    with pytest.raises(InputError, match=r" must be a \w+.*, got \w+"):
        call(str(f))
