"""The benchmark's three workloads: inputs, one operation, and its check.

Every workload turns (run seed, operation index) into the inputs of one
operation, runs the operation through the public library, and checks the
output.  The library receives only generated configs, channels and error
samples; all seeding happens here.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import wiretap as wt

REFERENCE_FILE = Path(__file__).with_name("reference.json")
# Relative tolerance for agreement with the stored reference means, plus an
# absolute floor for figures that are zero up to round-off (Eve's SINR when
# the design nulls her).
REF_RTOL = 1e-6
REF_ATOL = 1e-12
# Every REF_EVERY-th sweep operation runs a stored reference master seed.
REF_EVERY = 10
# Exactness tolerance of the perfect-CSI and zero-error FDD checks.
EXACT_RTOL = 1e-9


def derived_seed(tag: int, seed: int, index: int) -> int:
    """A 63-bit master seed for one operation of one run."""
    state = np.random.SeedSequence([tag, seed, index]).generate_state(2, np.uint32)
    return (int(state[0]) << 31) | int(state[1] >> 1)


@dataclass
class OpResult:
    """Outcome of one operation as the benchmark accounts for it."""

    ok: bool
    attempted: int  # scheme-trials attempted
    completed: int  # scheme-trials that returned a result
    problems: list[str] = field(default_factory=list)
    rejects: int = 0  # documented ValidityRangeError outcomes
    valid: int = 0  # n_valid summed over the simulated series


class SweepWorkload:
    """One preset sweep at a fixed trial count per operation."""

    REF_METRICS = ("mean_sinr_b", "mean_sinr_e", "mean_secrecy", "outage_count", "n_valid")

    # op_s_tail percentile.  Fixed, so that a parent and a change that runs
    # more operations in the same time compare the same percentile.
    tail_percentile = 75.0

    def __init__(self, name: str, preset: str, trials: int, tag: int):
        self.name = name
        self.preset = preset
        self.trials = trials
        self.tag = tag
        self._refs = None

    def references(self) -> dict:
        if self._refs is None:
            data = json.loads(REFERENCE_FILE.read_text())[self.name]
            if data["trials"] != self.trials:
                raise RuntimeError(f"{self.name}: references were made at {data['trials']} trials")
            self._refs = {int(k): v for k, v in data["seeds"].items()}
        return self._refs

    def make_input(self, seed: int, index: int):
        if index % REF_EVERY == 0:
            ref_seeds = sorted(self.references())
            master = ref_seeds[(seed + index // REF_EVERY) % len(ref_seeds)]
        else:
            master = derived_seed(self.tag, seed, index)
        return wt.preset_config(self.preset, trials=self.trials, master_seed=master)

    def run(self, cfg):
        return wt.run_experiment(cfg)

    def scheme_trials(self, cfg) -> int:
        return cfg.trials * len(cfg.axis()[1]) * len(cfg.schemes)

    def summary(self, result) -> dict:
        """The series figures compared against the stored references."""
        return {
            scheme: {m: list(result.series[scheme][m]) for m in self.REF_METRICS}
            for scheme in result.schemes
        }

    def check(self, cfg, result, error) -> OpResult:
        attempted = self.scheme_trials(cfg)
        if error is not None:
            return OpResult(False, attempted, 0, [f"raised {type(error).__name__}: {error}"])
        problems = []
        n_points = len(cfg.axis()[1])
        valid = 0
        if tuple(result.schemes) != tuple(cfg.schemes):
            problems.append(f"schemes {result.schemes} != {cfg.schemes}")
        for scheme in cfg.schemes:
            series = result.series.get(scheme, {})
            for metric, values in series.items():
                if len(values) != n_points:
                    problems.append(f"{scheme}.{metric} has {len(values)} points, not {n_points}")
            if scheme == "analytic_naive":
                continue
            for metric in ("mean_sinr_b", "mean_sinr_e", "mean_secrecy"):
                if not all(math.isfinite(v) for v in series.get(metric, ())):
                    problems.append(f"{scheme}.{metric} is not finite")
            n_valid = series.get("n_valid", ())
            if any(n != cfg.trials for n in n_valid):
                problems.append(f"{scheme}.n_valid {n_valid} != {cfg.trials}")
            valid += sum(n_valid)
        ref = self.references().get(cfg.master_seed)
        if ref is not None and not problems:
            problems.extend(_compare(ref, self.summary(result)))
        ok = not problems
        return OpResult(ok, attempted, attempted if ok else 0, problems, valid=valid)


def _compare(ref: dict, got: dict) -> list[str]:
    problems = []
    for scheme, metrics in ref.items():
        for metric, ref_values in metrics.items():
            for p, (a, b) in enumerate(zip(ref_values, got[scheme][metric])):
                if not abs(a - b) <= REF_RTOL * max(abs(a), abs(b)) + REF_ATOL:
                    problems.append(f"{scheme}.{metric}[{p}] = {b!r}, reference {a!r}")
    return problems


@dataclass
class ApiInput:
    na: int
    nb: int
    ne: int
    channel_seed: int
    err: np.ndarray  # i.i.d. estimation error, per-entry variance ERR_POWER
    cov: np.ndarray  # correlated error covariance of vec(dH), same mean power


class ScalarApiWorkload:
    """One call per channel through the public library, no harness."""

    # (na, nb, ne) cycle; (4, 2, 2) hits the nb < na known_ecsi defect.
    SHAPES = ((2, 2, 2), (5, 5, 5), (8, 8, 8), (4, 2, 2))
    TARGET = 100.0  # 20 dB
    ERR_POWER = 0.01  # -20 dB per-entry error power
    STAGES = ("perfect", "predict_iid", "predict_correlated", "naive", "fdd", "tdd", "known_ecsi")
    trials = 0  # no harness trials
    # p99 of a 4 ms call measures the host's short stalls: on the same code
    # it spread 11 % across runs at reference speed, p95 3 %.
    tail_percentile = 95.0

    def __init__(self, name: str, tag: int):
        self.name = name
        self.tag = tag

    def make_input(self, seed: int, index: int) -> ApiInput:
        na, nb, ne = self.SHAPES[index % len(self.SHAPES)]
        rng = np.random.default_rng(np.random.SeedSequence([self.tag, seed, index]))
        scale = math.sqrt(self.ERR_POWER / 2.0)
        err = scale * (rng.standard_normal((nb, na)) + 1j * rng.standard_normal((nb, na)))
        # Kronecker-correlated error: dH = R_rx^1/2 W R_tx^1/2 with
        # exponential correlation, so cov(vec dH) = R_tx^T kron R_rx.
        r_rx, r_tx = rng.uniform(0.2, 0.8, size=2)
        cov = self.ERR_POWER * np.kron(_exp_corr(na, r_tx).T, _exp_corr(nb, r_rx))
        return ApiInput(na, nb, ne, derived_seed(self.tag, seed, index), err, cov.astype(complex))

    def run(self, inp: ApiInput) -> dict:
        out: dict = {}
        chan = wt.generate_channels(inp.na, inp.nb, inp.ne, rng_seed=inp.channel_seed)
        target = self.TARGET
        svd = wt.partition_svd(chan.h_ba)
        out["chan"] = chan
        out["perfect"] = wt.perfect_csi_trial(chan, target, svd=svd)
        mom_iid = wt.compute_moments(svd, wt.CsiErrorModel.iid(self.ERR_POWER))
        mom_corr = wt.compute_moments(svd, wt.CsiErrorModel.full(inp.cov))
        for stage, mom in (("predict_iid", mom_iid), ("predict_correlated", mom_corr)):
            try:
                out[stage] = wt.predict_naive_sinr(svd, mom, chan, target)
            except wt.ValidityRangeError as exc:
                out[stage] = exc
        out["naive"] = wt.simulate_naive(chan, inp.err, target)
        out["fdd"] = wt.fdd_receiver(chan, chan.h_ba.entries + inp.err, target)
        out["tdd"] = wt.tdd_receiver(chan, svd, mom_iid, inp.err, target)
        try:
            out["known_ecsi"] = wt.design_known_ecsi(chan, chan.h_ea, target)
        except wt.DegenerateChannelError as exc:
            # The nb < na defect; counted as an incomplete stage, not a
            # failed operation.
            out["known_ecsi"] = exc
        return out

    def check(self, inp: ApiInput, out, error) -> OpResult:
        attempted = len(self.STAGES)
        if error is not None:
            return OpResult(False, attempted, 0, [f"raised {type(error).__name__}: {error}"])
        problems = []
        target = self.TARGET
        chan = out["chan"]
        scheme, _, _, report = out["perfect"]
        if not scheme.outage:
            if abs(report.sinr_b - target) > EXACT_RTOL * target:
                problems.append(f"perfect SINR {report.sinr_b!r} misses target {target}")
            budget = scheme.data_power + scheme.noise_power
            if abs(budget - chan.power_p) > EXACT_RTOL * chan.power_p:
                problems.append(f"perfect power {budget!r} misses budget {chan.power_p}")
        # The check's own call, made outside the timed operation.
        _, zero_err = wt.fdd_receiver(chan, chan.h_ba.entries, target)
        if not zero_err.outage and abs(zero_err.sinr_b - target) > EXACT_RTOL * target:
            problems.append(f"zero-error FDD SINR {zero_err.sinr_b!r} misses target {target}")
        rejects = 0
        for stage in ("predict_iid", "predict_correlated"):
            value = out[stage]
            if isinstance(value, wt.ValidityRangeError):
                rejects += 1
            elif not (math.isfinite(value) and value > 0):
                problems.append(f"{stage} prediction {value!r} is not a positive number")
        for stage in ("naive", "fdd", "tdd"):
            report = out[stage] if stage == "naive" else out[stage][1]
            if not (math.isfinite(report.sinr_b) and math.isfinite(report.sinr_e)
                    and report.sinr_b >= 0 and report.sinr_e >= 0):
                problems.append(f"{stage} SINRs {report.sinr_b!r}, {report.sinr_e!r} are invalid")
        defects = isinstance(out["known_ecsi"], wt.DegenerateChannelError)
        ok = not problems
        completed = attempted - defects if ok else 0
        return OpResult(ok, attempted, completed, problems, rejects=rejects)


def _exp_corr(n: int, r: float) -> np.ndarray:
    idx = np.arange(n)
    return r ** np.abs(idx[:, None] - idx[None, :])


# Trials per sweep operation.  Enough that the fixed per-sweep cost
# (validation, reduction, result building) stays a few percent of an
# operation and a block of trials can be batched, while a 30 s run still
# holds about 40 operations for the p75 tail.  See NOTES.md for the sizing.
WORKLOADS = {
    "sweep_ecsi": lambda: SweepWorkload("sweep_ecsi", "fig1_ne_sweep", trials=20, tag=11),
    "sweep_robust": lambda: SweepWorkload("sweep_robust", "fig3_sinr_vs_target", trials=48, tag=13),
    "scalar_api": lambda: ScalarApiWorkload("scalar_api", tag=17),
}
