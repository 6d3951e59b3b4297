"""What importing the package and running its common paths loads.

scipy takes several times longer to import than the rest of the package, so
no path of it imports ``scipy``, ``scipy.linalg`` or ``scipy.optimize``.
Only the Eve-aware rows with as many intended as transmit antennas and an
eavesdropper two or more antennas short (nb = na, ne <= na - 2) load
anything of scipy's: its LAPACK extension module, read from its file on
first use for the reciprocal generalized eigensolver and left out of
``sys.modules``; a later ``import scipy.linalg`` still works beside it.  The
worker pool's module loads only for multi-worker sweeps.  Each check runs
in a fresh interpreter, since this test session has long since imported
scipy itself.  No module of the package imports another one's private
names, every public name the benchmark calls or ``__all__`` lists exists,
and so does every entry point its tracer wraps but the five it has long
reported absent.
"""
from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PERFBENCH = SRC.parent / "perfbench"


def _modules_after(code: str) -> set[str]:
    """Names in ``sys.modules`` after ``code`` runs in a fresh interpreter."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\n{code}\nprint(*sys.modules, sep='\\n')"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    )
    return set(proc.stdout.split())


def _scipy(modules: set[str]) -> set[str]:
    return {m for m in modules if m == "scipy" or m.startswith("scipy.")}


def test_import_loads_neither_scipy_nor_the_worker_pool():
    modules = _modules_after("import wiretap")
    assert "wiretap.harness" in modules
    assert not _scipy(modules)
    assert "concurrent.futures.process" not in modules


@pytest.mark.parametrize(
    "scenario", ["fig2_prediction", "fig3_sinr_vs_target", "fig5_sigma_sweep"]
)
def test_sweeps_without_eve_aware_designs_load_no_scipy(scenario):
    modules = _modules_after(
        "import wiretap as wt\n"
        f"wt.run_experiment(wt.preset_config({scenario!r}, trials=3))"
    )
    assert not _scipy(modules)


@pytest.mark.parametrize(
    "call",
    [
        "wt.perfect_csi_trial(chan, 10.0, svd=svd)",
        "wt.fdd_receiver(chan, chan.h_ba.entries + err, 10.0)",
        "wt.tdd_receiver(chan, svd, wt.compute_moments(svd, wt.CsiErrorModel.iid(0.01)),"
        " err, 10.0)",
    ],
    ids=["perfect_csi_trial", "fdd_receiver", "tdd_receiver"],
)
def test_single_channel_calls_load_no_scipy(call):
    modules = _modules_after(
        "import numpy as np\n"
        "import wiretap as wt\n"
        "chan = wt.generate_channels(4, 4, 2, rng_seed=1)\n"
        "svd = wt.partition_svd(chan.h_ba)\n"
        "err = wt.complex_gaussian(np.random.default_rng(2), 4, 4, entry_var=0.01)\n"
        f"{call}"
    )
    assert "wiretap.robust" in modules
    assert not _scipy(modules)


@pytest.mark.parametrize("shape", [(4, 4, 3), (4, 4, 4), (4, 2, 2)], ids=str)
def test_eve_aware_designs_short_of_the_reciprocal_rows_load_no_scipy(shape):
    na, nb, ne = shape
    modules = _modules_after(
        "import wiretap as wt\n"
        f"chan = wt.generate_channels({na}, {nb}, {ne}, rng_seed=1)\n"
        "wt.design_known_ecsi(chan, chan.h_ea, 10.0)"
    )
    assert "wiretap.transmit" in modules
    assert not _scipy(modules)


@pytest.mark.parametrize(
    "config",
    [
        "wt.preset_config('fig4_secrecy', trials=3)",
        "wt.ExperimentConfig(na=4, nb=4, ne=(3, 4, 6), trials=3, schemes=('known_ecsi',))",
    ],
    ids=["fig4_secrecy", "ne_3_4_6"],
)
def test_eve_aware_sweeps_short_of_the_reciprocal_rows_load_no_scipy(config):
    modules = _modules_after(f"import wiretap as wt\nwt.run_experiment({config})")
    assert not _scipy(modules)


def test_eve_aware_sweep_loads_the_eigensolver_only():
    modules = _modules_after(
        "import wiretap as wt\n"
        "wt.run_experiment(wt.preset_config('fig1_ne_sweep', trials=2))\n"
        "assert wt.transmit._hegvd.cache_info().currsize == 1"
    )
    assert not _scipy(modules)


@pytest.mark.parametrize(
    "first, second",
    [("hegvd = transmit._hegvd()", "import scipy.linalg"),
     ("import scipy.linalg", "hegvd = transmit._hegvd()")],
    ids=["driver first", "scipy.linalg first"],
)
def test_scipy_linalg_loads_beside_the_eigensolver(first, second):
    # The driver stays out of sys.modules, and scipy.linalg's own module
    # stays registered there, whichever loads first; both solve alike.
    _modules_after(
        "import numpy as np\n"
        "from wiretap import transmit\n"
        f"{first}\n{second}\n"
        "rng = np.random.default_rng(4)\n"
        "hb, he = (rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4)) for n in (4, 2))\n"
        "a, b = hb.conj().T @ hb, he.conj().T @ he\n"
        "w, v, info = hegvd(b, a, **transmit._HEGVD_ARGS)\n"
        "want = scipy.linalg.eigh(b, a)\n"
        "assert info == 0 and np.array_equal(w, want[0]) and np.array_equal(v, want[1])\n"
        "assert sys.modules['scipy.linalg._flapack'] is scipy.linalg._flapack"
    )


def test_no_module_imports_a_private_name_from_a_sibling():
    offenders = []
    for path in sorted((SRC / "wiretap").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            sibling = isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "wiretap"
            )
            if sibling:
                offenders += [f"{path.name}: {alias.name}" for alias in node.names
                              if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert not offenders


def test_every_name_the_benchmark_calls_and_all_lists_resolves():
    import wiretap

    called = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            # wt.<name>, or workloads.wt.<name> from the benchmark's self test
            if isinstance(node, ast.Attribute) and (
                isinstance(node.value, ast.Name) and node.value.id == "wt"
                or isinstance(node.value, ast.Attribute) and node.value.attr == "wt"
            ):
                called.add(node.attr)
    assert called, "found no wt.<name> in the benchmark"
    missing = sorted(name for name in called | set(wiretap.__all__)
                     if not hasattr(wiretap, name))
    assert not missing


# Entry points the benchmark's tracer lists that the library no longer
# defines; the tracer reports them absent.
ABSENT_ENTRY_POINTS = {
    "harness._rng", "harness._seed", "robust._rank1_gain",
    "transmit.noise_covariance_for", "transmit.noise_factor_for",
}


def test_every_entry_point_the_tracer_wraps_resolves():
    # A refactor that renames a wrapped function would silently zero the
    # per-layer figures built on it.  Resolved as the tracer resolves them.
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    entry_points = next(
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "ENTRY_POINTS" for t in node.targets)
    )
    absent = set()
    for layer, names in entry_points.items():
        module = importlib.import_module(f"wiretap.{layer}")
        for name in names:
            owner_name, _, attr = name.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            if owner is None or attr not in vars(owner):
                absent.add(f"{layer}.{name}")
    assert absent <= ABSENT_ENTRY_POINTS, sorted(absent - ABSENT_ENTRY_POINTS)
