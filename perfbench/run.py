"""Benchmark for the wiretap simulator: end-to-end and per-module figures.

Usage, from the repository root:

    python3 perfbench/run.py --workload sweep_ecsi --seed 1 --seconds 30 --trace 0

Runs one workload (see ``workloads.py`` and ``NOTES.md``) in this single
process with one worker, closed loop: the next operation starts when the
previous one has finished.  Each operation's output is checked.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the details (sample
counts, tail percentile, environment, set-up samples, problems found).

Timings are in seconds at a reference machine speed.  The host this
benchmark was built on is shared, and its speed drifts by 20-50 % within
minutes; a fixed numpy kernel that does not touch the library is timed
between operations, and each operation's wall time is scaled by
``CAL_REF_S`` over the kernel time measured around it (see NOTES.md).  The
raw wall figures are in the details line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half the
time untraced and half with the span tracer installed, reports the per-layer
metrics plus the tracing overhead, and writes the spans to
``perfbench/out/``.

The library is imported from ``src/`` of the checkout; BLAS and OpenMP are
pinned to one thread through this process's environment.
"""
from __future__ import annotations

import os

# Pin before numpy loads its BLAS, so timings measure the program rather
# than the thread scheduler.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"

WORKLOAD_NAMES = ("sweep_ecsi", "sweep_robust", "scalar_api")
# Fresh processes timed for setup_s; the median is reported.
SETUP_RUNS = 5
# Speed-kernel runs timed by each set-up process after its warm-up; the
# median scales its set-up time.
SETUP_CAL_RUNS = 5
SETUP_TIMEOUT_S = 120
# A tail with fewer samples above it than this is flagged in the details.
TAIL_MIN_BEYOND = 10
# The speed kernel runs after the first operation that ends this long after
# its previous run, so every operation lies between two kernel timings.
CAL_EVERY_S = 0.25
# Median time of one speed-kernel run on the baseline machine (NOTES.md);
# normalized seconds are wall seconds at that speed.
CAL_REF_S = 0.0100

END_TO_END_UNITS = {
    "scheme_trials_per_s": "1/s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "completed_frac": "ratio",
}
PER_LAYER_UNITS = {
    "harness.self_ms_per_op": "ms",
    "harness.seed_us_per_trial": "us",
    "harness.valid_frac": "ratio",
    "channels.partition_svd.calls_per_op": "count",
    "channels.partition_svd.us_per_call": "us",
    "channels.draw.calls_per_op": "count",
    "channels.draw.us_per_call": "us",
    "channels.self_ms_per_op": "ms",
    "perturbation.compute_moments.us_per_call": "us",
    "perturbation.compute_moments_correlated.us_per_call": "us",
    "perturbation.compute_moments.calls_per_op": "count",
    "perturbation.naive_trial.us_per_call": "us",
    "perturbation.predict.reject_frac": "ratio",
    "perturbation.self_ms_per_op": "ms",
    "transmit.link_sinr.calls_per_scheme_trial": "count",
    "transmit.link_sinr.us_per_call": "us",
    "transmit.eve_mmse_beamformer.us_per_call": "us",
    "transmit.design_artificial_noise.us_per_call": "us",
    "transmit.design_known_ecsi.us_per_call": "us",
    "transmit.design_known_ecsi.fail_frac": "ratio",
    "transmit.txscheme_build.us_per_call": "us",
    "transmit.self_ms_per_op": "ms",
    "robust.fdd.us_per_call": "us",
    "robust.tdd.us_per_call": "us",
    "robust.fdd.gain_evals_per_call": "count",
    "robust.tdd.loaded_frac": "ratio",
    "robust.self_ms_per_op": "ms",
    "trace.overhead_frac": "ratio",
}


def import_library() -> None:
    """Put the checkout's ``src`` first on the path and import wiretap."""
    if not (SRC / "wiretap" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: library source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import wiretap  # noqa: F401


class SpeedKernel:
    """A fixed amount of small dense linear algebra and interpreter work.

    It does not call the library, so a change to the library cannot change
    its time; the time tracks the speed the shared host gives this process.
    Its mix (complex SVD, Hermitian eigh, solve, a Python loop) resembles
    the per-trial work of the workloads, whose times follow it within about
    10 % while raw wall time drifts by 30-50 %.
    """

    REPS = 120
    LOOP = 10_000

    def __init__(self):
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        self.a5 = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        h8 = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        self.h8 = h8 @ h8.conj().T + np.eye(8)
        self.m20 = rng.standard_normal((20, 20)) + 5.0 * np.eye(20)
        self.b20 = rng.standard_normal(20)

    def time(self) -> float:
        """Wall seconds of one kernel run."""
        np = self.np
        start = time.perf_counter()
        for _ in range(self.REPS):
            np.linalg.svd(self.a5)
            np.linalg.eigh(self.h8)
            np.linalg.solve(self.m20, self.b20)
            x = self.a5 @ self.a5.conj().T
            np.abs(x).max()
        acc = 0.0
        for i in range(self.LOOP):
            acc += i * 0.5
        return time.perf_counter() - start


def measure(workload, seed: int, seconds: float, tracer=None):
    """Run operations 1, 2, ... until ``seconds`` have passed.

    Returns the per-operation wall times, the same times scaled to the
    reference speed, the check results and the speed-kernel timings.  Input
    generation, checking and the speed kernel lie outside the timed spans.
    """
    kernel = SpeedKernel()
    cals = [kernel.time()]
    last_cal = time.perf_counter()
    durations, blocks, results = [], [], []
    index = 1
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        inp = workload.make_input(seed, index)
        if tracer is not None:
            tracer.begin_op(index)
        out = error = None
        start = time.perf_counter()
        try:
            out = workload.run(inp)
        except Exception as exc:  # a failed operation is counted, not fatal
            error = exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()
        results.append(workload.check(inp, out, error))
        durations.append(elapsed)
        blocks.append(len(cals) - 1)
        index += 1
        if time.perf_counter() - last_cal >= CAL_EVERY_S:
            cals.append(kernel.time())
            last_cal = time.perf_counter()
    if blocks and blocks[-1] == len(cals) - 1:
        cals.append(kernel.time())
    # An operation in block b ran between kernel timings b and b + 1.
    normalized = [d * CAL_REF_S / (0.5 * (cals[b] + cals[b + 1]))
                  for d, b in zip(durations, blocks)]
    return durations, normalized, results, cals


def tail(durations: list[float], pct: float) -> tuple[float, int]:
    """(value, samples above it) of the ``pct`` percentile, by nearest rank."""
    ordered = sorted(durations)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def setup_probe(workload_name: str, seed: int) -> tuple[float, float]:
    """Seconds to import wiretap and run one untimed-input warm-up operation,
    and the median speed-kernel time measured right after them."""
    start = time.perf_counter()
    import_library()
    import workloads

    imported = time.perf_counter() - start
    workload = workloads.WORKLOADS[workload_name]()
    inp = workload.make_input(seed, 0)
    start = time.perf_counter()
    workload.run(inp)
    elapsed = imported + time.perf_counter() - start
    kernel = SpeedKernel()
    return elapsed, statistics.median([kernel.time() for _ in range(SETUP_CAL_RUNS)])


def setup_samples(workload_name: str, seed: int) -> tuple[list[float], list[float]]:
    """Raw set-up seconds of fresh processes, and the same at reference speed."""
    raw, normalized = [], []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload_name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        elapsed, cal = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(elapsed)
        normalized.append(elapsed * CAL_REF_S / cal)
    return raw, normalized


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def account(results) -> dict:
    attempted = sum(r.attempted for r in results)
    return {
        "ops": len(results),
        "failed_ops": sum(not r.ok for r in results),
        "scheme_trials_attempted": attempted,
        "scheme_trials_completed": sum(r.completed for r in results),
        "validity_rejects": sum(r.rejects for r in results),
        "problems": [p for r in results for p in r.problems][:20],
    }


def timing(durations, completed: int, tail_pct: float) -> dict:
    tail_value, _ = tail(durations, tail_pct)
    return {
        "scheme_trials_per_s": completed / sum(durations),
        "op_s_p50": statistics.median(durations),
        "op_s_tail": tail_value,
    }


def end_to_end(measured, setup, tail_pct) -> tuple[dict, dict]:
    """End-to-end metrics from ``measure``'s output and ``setup_samples``'s."""
    raw, normalized, results, cals = measured
    acc = account(results)
    values = {
        **timing(normalized, acc["scheme_trials_completed"], tail_pct),
        "setup_s": statistics.median(setup[1]) if setup else None,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "completed_frac": acc["scheme_trials_completed"] / acc["scheme_trials_attempted"],
    }
    wall = timing(raw, acc["scheme_trials_completed"], tail_pct)
    if setup:
        wall["setup_s"] = statistics.median(setup[0])
    beyond = tail(normalized, tail_pct)[1]
    details = {**acc, "tail_percentile": tail_pct,
               "tail_samples_beyond": beyond, "tail_underpowered": beyond < TAIL_MIN_BEYOND,
               "setup_samples": setup[1] if setup else [], "timed_s": sum(raw),
               "wall": wall, "speed_kernel_s_p50": statistics.median(cals),
               "speed_kernel_runs": len(cals)}
    return values, details


def per_layer(stats, results, p50_untraced, p50_traced, trials_per_op) -> dict:
    n_ops = len(results)
    acc = account(results)
    calls = stats.calls
    seed_trials = n_ops * trials_per_op
    tdd_calls = calls["robust._tdd_trial"]
    fdd_calls = calls["robust._fdd_trial"]
    moments_calls = (calls["perturbation.compute_moments"]
                     + calls["perturbation.compute_moments_correlated"])
    return {
        "harness.self_ms_per_op": 1e3 * stats.layer_self["harness"] / n_ops,
        "harness.seed_us_per_trial": 1e6 * stats.seed_time / seed_trials if seed_trials else 0.0,
        "harness.valid_frac": (sum(r.valid for r in results) / acc["scheme_trials_attempted"]
                               if trials_per_op else 0.0),
        "channels.partition_svd.calls_per_op": calls["channels.partition_svd"] / n_ops,
        "channels.partition_svd.us_per_call": stats.us_per_call("channels.partition_svd"),
        "channels.draw.calls_per_op": calls["channels.complex_gaussian"] / n_ops,
        "channels.draw.us_per_call": stats.us_per_call("channels.complex_gaussian"),
        "channels.self_ms_per_op": 1e3 * stats.layer_self["channels"] / n_ops,
        "perturbation.compute_moments.us_per_call":
            stats.us_per_call("perturbation.compute_moments"),
        "perturbation.compute_moments_correlated.us_per_call":
            stats.us_per_call("perturbation.compute_moments_correlated"),
        "perturbation.compute_moments.calls_per_op": moments_calls / n_ops,
        "perturbation.naive_trial.us_per_call": stats.us_per_call("perturbation.naive_trial"),
        "perturbation.predict.reject_frac":
            stats.predict_rejects / stats.predict_calls if stats.predict_calls else 0.0,
        "perturbation.self_ms_per_op": 1e3 * stats.layer_self["perturbation"] / n_ops,
        "transmit.link_sinr.calls_per_scheme_trial":
            calls["transmit.link_sinr"] / acc["scheme_trials_attempted"],
        "transmit.link_sinr.us_per_call": stats.us_per_call("transmit.link_sinr"),
        "transmit.eve_mmse_beamformer.us_per_call":
            stats.us_per_call("transmit.eve_mmse_beamformer"),
        "transmit.design_artificial_noise.us_per_call":
            stats.us_per_call("transmit.design_artificial_noise"),
        "transmit.design_known_ecsi.us_per_call": stats.us_per_call("transmit.design_known_ecsi"),
        "transmit.design_known_ecsi.fail_frac": stats.fail_frac("transmit.design_known_ecsi"),
        "transmit.txscheme_build.us_per_call": stats.us_per_call("transmit.TxScheme.__init__"),
        "transmit.self_ms_per_op": 1e3 * stats.layer_self["transmit"] / n_ops,
        "robust.fdd.us_per_call": stats.us_per_call("robust._fdd_trial"),
        "robust.tdd.us_per_call": stats.us_per_call("robust._tdd_trial"),
        "robust.fdd.gain_evals_per_call":
            stats.counts["robust.gain_eval"] / fdd_calls if fdd_calls else 0.0,
        "robust.tdd.loaded_frac":
            stats.counts["robust.tdd_loaded"] / tdd_calls if tdd_calls else 0.0,
        "robust.self_ms_per_op": 1e3 * stats.layer_self["robust"] / n_ops,
        "trace.overhead_frac": p50_traced / p50_untraced - 1.0,
    }


def with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed)))
        return 0

    import_library()
    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    warm = workload.make_input(args.seed, 0)
    workload.check(warm, workload.run(warm), None)

    details: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace == 0:
        setup = setup_samples(args.workload, args.seed)
        measured = measure(workload, args.seed, args.seconds)
        values, extra = end_to_end(measured, setup, workload.tail_percentile)
        metrics = with_units(values, END_TO_END_UNITS)
        all_results = measured[2]
    else:
        half = args.seconds / 2.0
        plain = measure(workload, args.seed, half)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = measure(workload, args.seed, half, tracer=tracer)
        finally:
            tracer.uninstall()
        results = traced[2]
        values = per_layer(tracing.SpanStats(tracer), results, statistics.median(plain[1]),
                           statistics.median(traced[1]), workload.trials)
        metrics = with_units(values, PER_LAYER_UNITS)
        e2e_untraced, extra = end_to_end(plain, None, workload.tail_percentile)
        extra["end_to_end_untraced"] = {k: e2e_untraced[k] for k in
                                        ("scheme_trials_per_s", "op_s_p50", "op_s_tail")}
        extra["traced_ops"] = len(results)
        extra["absent_entry_points"] = tracer.absent
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.dump(span_file)
        extra["span_file"] = str(span_file.relative_to(HERE.parent))
        all_results = plain[2] + results

    details.update(extra)
    details["environment"] = environment()
    failed = sum(not r.ok for r in all_results)
    details["failed_frac"] = failed / len(all_results)
    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(all_results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
