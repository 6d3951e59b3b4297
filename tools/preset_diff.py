"""Compare the preset sweeps and single-channel API of this tree with
those of a git ref.

    python tools/preset_diff.py REF [--trials 1 1024] [--seeds 1]

Runs fig1-fig5, and fig3 and fig5 with ``propagate_through_estimate``, at
each trial count and master seed, once on this tree's ``src`` and once on
REF's, which ``git archive`` extracts into a temporary directory.  At each
master seed it also calls the single-channel API on fixed channels of
shapes 2, 5, 8 and (4, 2, 2) (:func:`dump_api`).  Each side runs in its own
process.  For every per-trial metric row of every scheme, every reduced
series and every float, bool and array a single-channel call returns, it
prints whether the arrays are ``np.array_equal``, the largest relative
move between them and whether their NaN patterns match; a call that
raises counts by its exception's type and message.  It exits 1 on any
difference, else 0.  ``REF`` may be ``HEAD``, which checks that both
dumps, and so every preset and call, are deterministic.
"""
from __future__ import annotations

import argparse
import dataclasses
import io
import os
import pickle
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
# Case name -> (preset, config overrides).
CASES = {
    "fig1": ("fig1_ne_sweep", {}),
    "fig2": ("fig2_prediction", {}),
    "fig3": ("fig3_sinr_vs_target", {}),
    "fig4": ("fig4_secrecy", {}),
    "fig5": ("fig5_sigma_sweep", {}),
    "fig3-propagated": ("fig3_sinr_vs_target", {"propagate_through_estimate": True}),
    "fig5-propagated": ("fig5_sigma_sweep", {"propagate_through_estimate": True}),
}
# Single-channel inputs: (na, nb, ne) shapes, channels per shape and master
# seed, target SINRs (linear), and the i.i.d. error power and correlation of
# the Kronecker-correlated error, rx then tx.
API_SHAPES = ((2, 2, 2), (5, 5, 5), (8, 8, 8), (4, 2, 2))
API_CHANNELS = 3
API_TARGETS = (0.5, 100.0, 1e4)
API_ERR_POWER = 0.01
API_CORRELATION = (0.3, 0.6)
# The deferred fields of ``PerturbMoments``, read after the stored ones.
MOMENT_FIELDS = ("d", "g", "g_prime", "g_dprime", "k", "e_dv_s", "e_vs_dvs", "e_dv1_outer")


class Row(NamedTuple):
    """How one named array moved: equality, largest relative move, NaN pattern."""

    name: str
    equal: bool
    max_rel: float
    same_nan: bool


def dump(trials: list[int], seeds: list[int]) -> dict[str, np.ndarray]:
    """Every case's per-trial metric rows and reduced series, and every
    output of :func:`dump_api`, by name, from the ``wiretap`` on the path."""
    from wiretap import harness
    from wiretap.transmit import METRICS

    arrays = dump_api(seeds)
    for case, (preset, overrides) in CASES.items():
        for n in trials:
            for seed in seeds:
                cfg = harness.preset_config(preset, trials=n, master_seed=seed, **overrides)
                at = f"{case} trials={n} seed={seed}"
                # (points, schemes, metrics, trials)
                metrics = harness._run_chunk(cfg, 0, cfg.trials)
                series = harness.run_experiment(cfg).series
                for s, scheme in enumerate(cfg.schemes):
                    for m, metric in enumerate(METRICS):
                        arrays[f"{at} {scheme} {metric}"] = metrics[:, s, m]
                    for key, values in series[scheme].items():
                        arrays[f"{at} {scheme} series.{key}"] = np.array(values, dtype=float)
    return arrays


def flatten(name: str, value, out: dict[str, np.ndarray]) -> None:
    """Every float, bool and array in ``value`` into ``out``, by name.

    Tuples and dataclasses are entered field by field (private fields
    skipped), a dict key by key; a bool becomes a float array, and a string
    or None, which has no array, is written into the name of an empty one.
    """
    if isinstance(value, (tuple, list)):
        for k, item in enumerate(value):
            flatten(f"{name}[{k}]", item, out)
    elif isinstance(value, dict):
        for key, item in value.items():
            flatten(f"{name}.{key}", item, out)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            if not f.name.startswith("_"):
                flatten(f"{name}.{f.name}", getattr(value, f.name), out)
    elif value is None or isinstance(value, str):
        out[f"{name}={value}"] = np.zeros(0)
    else:
        arr = np.asarray(value)
        out[name] = arr.astype(float) if arr.dtype == bool else arr


def _record(name: str, call, out: dict[str, np.ndarray]):
    """``call()``, flattened into ``out`` under ``name``; a library error
    it raises is recorded by its type and message, and None returned."""
    try:
        value = call()
    except (ValueError, RuntimeError) as exc:
        out[f"{name} raises {type(exc).__name__}: {exc}"] = np.zeros(0)
        return None
    flatten(name, value, out)
    return value


def _moments(svd, err):
    """``compute_moments`` with its deferred fields read."""
    import wiretap as wt

    m = wt.compute_moments(svd, err)
    return m, {field: getattr(m, field) for field in MOMENT_FIELDS}


def dump_api(seeds: list[int]) -> dict[str, np.ndarray]:
    """Every output of the single-channel API, by name, from the ``wiretap``
    on the path: ``perfect_csi_trial``; ``compute_moments`` for i.i.d. and
    Kronecker-correlated error, with ``predict_naive_sinr`` on each;
    ``simulate_naive`` and ``naive_trial``; ``fdd_receiver`` in both modes;
    ``tdd_receiver`` on each moments; ``design_known_ecsi``.  Each master
    seed draws ``API_CHANNELS`` channels and error samples per shape."""
    import wiretap as wt

    out = {}
    for seed in seeds:
        for na, nb, ne in API_SHAPES:
            r_rx, r_tx = API_CORRELATION
            idx_a, idx_b = np.arange(na), np.arange(nb)
            cov = API_ERR_POWER * np.kron(r_tx ** np.abs(idx_a[:, None] - idx_a).T,
                                          r_rx ** np.abs(idx_b[:, None] - idx_b))
            for k in range(API_CHANNELS):
                at = f"api ({na},{nb},{ne}) seed={seed} channel={k}"
                chan = wt.generate_channels(na, nb, ne, rng_seed=[seed, na, nb, ne, k])
                svd = wt.partition_svd(chan.h_ba)
                err = wt.sample_csi_error(wt.CsiErrorModel.iid(API_ERR_POWER), nb, na,
                                          rng_seed=[seed, na, nb, ne, k, 1])
                est = chan.h_ba.entries + err
                moments = {}
                for kind, model in (("iid", wt.CsiErrorModel.iid(API_ERR_POWER)),
                                    ("full", wt.CsiErrorModel.full(cov))):
                    got = _record(f"{at} moments.{kind}", lambda: _moments(svd, model), out)
                    moments[kind] = None if got is None else got[0]
                for target in API_TARGETS:
                    tag = f"{at} target={target:g}"
                    calls = {
                        "perfect_csi_trial": lambda: wt.perfect_csi_trial(chan, target, svd=svd),
                        "simulate_naive": lambda: wt.simulate_naive(chan, err, target),
                        "naive_trial": lambda: wt.naive_trial(chan, err, target),
                        "fdd_receiver": lambda: wt.fdd_receiver(chan, est, target),
                        "fdd_receiver.propagated": lambda: wt.fdd_receiver(
                            chan, est, target, propagate_through_estimate=True),
                        "design_known_ecsi": lambda: wt.design_known_ecsi(chan, chan.h_ea, target),
                    }
                    for kind, m in moments.items():
                        if m is not None:
                            calls[f"predict_naive_sinr.{kind}"] = (
                                lambda m=m: wt.predict_naive_sinr(svd, m, chan, target))
                            calls[f"tdd_receiver.{kind}"] = (
                                lambda m=m: wt.tdd_receiver(chan, svd, m, err, target))
                    for name, call in calls.items():
                        _record(f"{tag} {name}", call, out)
    return out


def compare(ref: dict[str, np.ndarray], new: dict[str, np.ndarray]) -> list[Row]:
    """One :class:`Row` per name in either mapping; a name missing on one
    side, or arrays of different shapes, count as unequal with an infinite move."""
    rows = []
    for name in sorted(set(ref) | set(new)):
        a, b = ref.get(name), new.get(name)
        if a is None or b is None or a.shape != b.shape:
            rows.append(Row(name, False, np.inf, False))
            continue
        nan_a, nan_b = np.isnan(a), np.isnan(b)
        both = ~(nan_a | nan_b)
        x, y = a[both], b[both]
        with np.errstate(all="ignore"):
            move = np.where(x == y, 0.0, abs(x - y) / np.maximum(abs(x), abs(y)))
        rel = float(np.nan_to_num(move, nan=np.inf).max(initial=0.0))
        same_nan = bool(np.array_equal(nan_a, nan_b))
        rows.append(Row(name, bool(np.array_equal(a, b, equal_nan=True)), rel, same_nan))
    return rows


def report(rows: list[Row]) -> int:
    """Print one line per row and a summary; 1 if any row differs, else 0."""
    for row in rows:
        verdict = "equal" if row.equal else "DIFFERS"
        print(f"{verdict:8s} max_rel={row.max_rel:.3g} nan_match={row.same_nan} {row.name}")
    differ = sum(not (row.equal and row.same_nan) for row in rows)
    print(f"{len(rows)} arrays compared, {differ} differ")
    return 1 if differ else 0


def _side(src: Path, trials: list[int], seeds: list[int], out: Path) -> dict[str, np.ndarray]:
    """:func:`dump` run in a fresh process on the ``wiretap`` under ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    cmd = [sys.executable, __file__, "--dump", str(out), "--trials", *map(str, trials),
           "--seeds", *map(str, seeds)]
    subprocess.run(cmd, check=True, env=env, cwd=out.parent)
    with open(out, "rb") as f:
        return pickle.load(f)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", nargs="?", help="git ref to compare this tree with")
    parser.add_argument("--trials", type=int, nargs="+", default=[1, 1024])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--dump", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.dump is not None:
        with open(args.dump, "wb") as f:
            pickle.dump(dump(args.trials, args.seeds), f)
        return 0
    if args.ref is None:
        parser.error("a git ref is required")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "archive", "--format=tar", args.ref, "src"],
                                 cwd=ROOT, check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "ref", filter="data")
        ref = _side(tmp / "ref" / "src", args.trials, args.seeds, tmp / "ref.pickle")
        new = _side(ROOT / "src", args.trials, args.seeds, tmp / "new.pickle")
    return report(compare(ref, new))


if __name__ == "__main__":
    sys.exit(main())
