"""Compare the preset sweeps of this tree with those of a git ref.

    python tools/preset_diff.py REF [--trials 1 1024] [--seeds 1]

Runs fig1-fig5, and fig3 and fig5 with ``propagate_through_estimate``, at
each trial count and master seed, once on this tree's ``src`` and once on
REF's, which ``git archive`` extracts into a temporary directory.  Each
side runs in its own process.  For every per-trial metric row of every
scheme, and for every reduced series, it prints whether the arrays are
``np.array_equal``, the largest relative move between them and whether
their NaN patterns match.  It exits 1 on any difference, else 0.
"""
from __future__ import annotations

import argparse
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


class Row(NamedTuple):
    """How one named array moved: equality, largest relative move, NaN pattern."""

    name: str
    equal: bool
    max_rel: float
    same_nan: bool


def dump(trials: list[int], seeds: list[int]) -> dict[str, np.ndarray]:
    """Every case's per-trial metric rows and reduced series, by name, from
    the ``wiretap`` on the path."""
    from wiretap import harness
    from wiretap.transmit import METRICS

    arrays = {}
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
