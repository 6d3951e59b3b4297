"""Quick self-test of the benchmark itself (under a minute).

Usage, from the repository root:

    python3 perfbench/selftest.py

Checks that
  * ``run.py``'s metric names and units match ``BENCHMARK.json``;
  * every workload runs at minimal size in both modes and prints a result
    line with exactly the expected keys, metrics and units;
  * each workload's correctness check rejects a deliberately corrupted
    output, so the gate is not vacuous;
  * the tracer records a robust TDD trial and reads its loading flag;
  * in a directory holding only ``BENCHMARK.json`` and ``perfbench/`` the
    benchmark exits non-zero without printing a result.
Exits non-zero on the first group of failures.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

ROOT = run.HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_spec(spec: dict) -> list[str]:
    problems = []
    for section, units in (("end_to_end", run.END_TO_END_UNITS),
                           ("per_layer", run.PER_LAYER_UNITS)):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        if declared != units:
            problems.append(f"{section}: BENCHMARK.json {declared} != run.py {units}")
    names = tuple(w["name"] for w in spec["workloads"])
    if names != run.WORKLOAD_NAMES:
        problems.append(f"workloads: BENCHMARK.json {names} != run.py {run.WORKLOAD_NAMES}")
    return problems


def invoke(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_runs() -> list[str]:
    problems = []
    for workload in run.WORKLOAD_NAMES:
        for trace, units in ((0, run.END_TO_END_UNITS), (1, run.PER_LAYER_UNITS)):
            proc = invoke(ROOT, workload, trace)
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != RESULT_KEYS:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != units:
                problems.append(f"{where}: metrics {got} != {units}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{where}: correct={result['correct']} "
                                f"failed={result['failed']} attempted={result['attempted']}")
            bad = [n for n, m in result["metrics"].items()
                   if not isinstance(m["value"], (int, float)) or m["value"] != m["value"]]
            if bad:
                problems.append(f"{where}: non-numeric values for {bad}")
    return problems


def _replace_series(result, scheme: str, metric: str, transform):
    values = list(result.series[scheme][metric])
    values[0] = transform(values[0])
    result.series[scheme][metric] = tuple(values)


def check_gate() -> list[str]:
    """Every workload's check must reject a corrupted output."""
    import workloads

    problems = []
    for name in ("sweep_ecsi", "sweep_robust"):
        workload = workloads.WORKLOADS[name]()
        # Index 0 runs a stored reference seed; index 1 a derived one.
        for index, metric, transform in ((0, "mean_sinr_b", lambda v: v * (1 + 1e-4)),
                                         (1, "n_valid", lambda v: v - 1)):
            cfg = workload.make_input(1, index)
            result = workload.run(cfg)
            if not workload.check(cfg, result, None).ok:
                problems.append(f"{name}[{index}]: clean output failed its check")
            _replace_series(result, cfg.schemes[0], metric, transform)
            if workload.check(cfg, result, None).ok:
                problems.append(f"{name}[{index}]: corrupted {metric} passed the check")
        if workload.check(cfg, None, RuntimeError("boom")).ok:
            problems.append(f"{name}: a raised operation passed the check")

    workload = workloads.WORKLOADS["scalar_api"]()
    for index in range(1, 9):
        inp = workload.make_input(1, index)
        out = workload.run(inp)
        scheme, w_b, w_e, report = out["perfect"]
        if not scheme.outage:
            break
    if not workload.check(inp, out, None).ok:
        problems.append("scalar_api: clean output failed its check")
    out["perfect"] = (scheme, w_b, w_e,
                      dataclasses.replace(report, sinr_b=report.sinr_b * (1 + 1e-6)))
    if workload.check(inp, out, None).ok:
        problems.append("scalar_api: corrupted perfect-CSI SINR passed the check")
    if workload.check(inp, None, RuntimeError("boom")).ok:
        problems.append("scalar_api: a raised operation passed the check")
    return problems


def check_tracer() -> list[str]:
    """A traced ``tdd_receiver`` call records one ``_tdd_trial`` span and
    counts diagonal loading from the trial's returned context."""
    import types

    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS["scalar_api"]()
    inp = workload.make_input(1, 1)
    chan = workloads.wt.generate_channels(inp.na, inp.nb, inp.ne, rng_seed=inp.channel_seed)
    svd = workloads.wt.partition_svd(chan.h_ba)
    moments = workloads.wt.compute_moments(svd, workloads.wt.CsiErrorModel.iid(0.01))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_op(0)
        workloads.wt.tdd_receiver(chan, svd, moments, inp.err, workload.TARGET)
        tracer.end_op()
    finally:
        tracer.uninstall()
    stats = tracing.SpanStats(tracer)
    problems = []
    if stats.calls["robust._tdd_trial"] != 1:
        problems.append(f"tracer: {stats.calls['robust._tdd_trial']} _tdd_trial spans, not 1")
    if tracer.counts["robust.tdd_loaded"] != 0:
        problems.append("tracer: counted loading on an unloaded trial")
    ctx = types.SimpleNamespace
    if not tracing._tdd_loaded((None, None, ctx(loaded=True))) or tracing._tdd_loaded(
            (None, None, ctx(loaded=False))):
        problems.append("tracer: loading flag misread")
    return problems


def check_bare_directory() -> list[str]:
    """Without the library source the benchmark must fail, printing no result."""
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = invoke(bare, run.WORKLOAD_NAMES[0], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    problems = []
    if proc.returncode == 0:
        problems.append("bare directory: exit code 0")
    if '"metrics"' in proc.stdout:
        problems.append("bare directory: printed a result")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run.import_library()
    failed = False
    for label, step in (("spec", lambda: check_spec(spec)), ("gate", check_gate),
                        ("tracer", check_tracer), ("bare directory", check_bare_directory),
                        ("runs", check_runs)):
        problems = step()
        print(f"{label}: {'ok' if not problems else 'FAILED'}")
        for problem in problems:
            print(f"  {problem}")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
