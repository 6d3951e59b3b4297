"""Monte Carlo experiment harness: sweeps, pairing, and reproducibility.

A sweep varies exactly one quantity (eavesdropper antennas, target SINR, or
error level) and runs every requested scheme on identical channel and error
draws at each point, so scheme-to-scheme gaps are paired.  Seeding is
hierarchical and absolute: each trial's stream of each kind is numpy's
``default_rng(SeedSequence([master_seed, tag, trial]))``, with the point
index appended for Eve's per-point streams on the ne axis, which makes
results bit-identical no matter how trials are split across worker
processes.

Trials run in blocks of ``BLOCK_TRIALS``.  A block derives the seed words
of all those streams in one vectorised pass (numpy's SeedSequence hashing
as array arithmetic over every stream at once), hands each trial's words to
its own PCG64, draws the streams into one stack and decomposes the
channels.  Each scheme's design kernel (``transmit.artificial_noise``,
``transmit.eve_aware``, ``robust.robust_fdd``, ``robust.robust_tdd``) then
runs once per block on the sweep's own values: every input, the target SINR
included, has a leading points axis, which holds each point's target, error
level or draw of Eve's on those axes and has length 1 otherwise (Bob's
channels and decomposition enter as (1, n, ...) views or (n, ...) arrays,
the target as (points or 1, 1)), so every ``transmit.Design`` field is
(points or 1, n, ...) as it stands, a repeated value designed again at
each of its points.  One call of the shared
``transmit.evaluate`` per scheme broadcasts the design, Bob's channels,
Eve's and her Gram matrices over the (point, trial) grid.  Eve's channels
and Gram matrices are one stack of n draws, shared by every scheme, except
on the ne axis, which draws her anew at each point: there they are (points,
n, ...), her channels zero-padded to her largest antenna count.  Against
interference, ``transmit.eve_link`` gives her figures in closed form from
one eigendecomposition of her Gram matrices per block, with no combiner
built, or, where each draw of hers serves one combiner and her noise is at
least ``_SOLVE_NOISE_FLOOR`` times the power, at her combiners from one
stacked solve of them (``_Block.eve_gram``: fig2-fig5 decompose; fig1 and
one-point configs with one such scheme solve).  Against a design without
interference her figures come straight from ||H t||^2.  No trial's numbers
depend on its neighbours, so results are also bit-identical for any block
size.

Per-trial metrics are materialized and reduced once at the end, every
(point, scheme) cell at once; means are arithmetic means of linear SINR,
and a pooled ratio-of-expectations figure (mean signal power over mean
interference-plus-noise power) is kept alongside for comparisons against
the closed-form degradation estimate, which predicts exactly that ratio.

A sweep pays per trial for its streams' generators and draws and its rows
of every stacked stage, once per block for the stage calls themselves (a
few hundred numpy dispatches whatever the block's size), and once for the
reduction and the manifest; a config is checked when it is built.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Any

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .channels import (
    NOISE_RANGE,
    Basis,
    amplitude_spectrum,
    complex_from_parts,
    estimate_basis,
    partition_stack,
)
from .exceptions import ConfigError
from .perturbation import iid_moments, naive_terms, self_drift
from .robust import robust_fdd, robust_tdd
from .stacked import herm
from .transmit import METRICS, artificial_noise, evaluate, eve_aware, required_rho
from .units import from_db, to_db
from .version import __version__

SCHEMES = (
    "perfect",
    "known_ecsi",
    "imperfect_ecsi",
    "naive",
    "robust_fdd",
    "robust_tdd",
    "analytic_naive",
)
_NEEDS_ERROR = {"naive", "robust_fdd", "robust_tdd", "analytic_naive"}
SCENARIOS = (
    "fig1_ne_sweep",
    "fig2_prediction",
    "fig3_sinr_vs_target",
    "fig4_secrecy",
    "fig5_sigma_sweep",
    "custom",
)
# Error levels above this (dB) are outside the trusted range of the
# second-order expansion; such points are marked extrapolated.
EXTRAPOLATION_EDGE_DB = -10.0
# Transmit powers (dB) a config accepts; with the noise powers inside
# channels.NOISE_RANGE every stage stays in double range.
POWER_DB_RANGE = (-1000.0, 1000.0)
# The largest error level (dB) a config accepts, less a positive power_db, and at
# most half of it above Bob's noise in dB, so that the estimates' Gram matrices, the
# naive design's sigma1^2 P and the statistical combiner in outage, (1 + c) sigma1 /
# sigma_b^2 with c of the order of the error power, stay in double range.
ERROR_DB_MAX = 3000.0
# The largest target SINR (dB) a config accepts, less the larger of power_db and
# Bob's noise in dB over a power of at most 0 dB, so that the data fractions'
# target sigma_b^2 / (sigma1^2 P) and the statistical receiver's target lam1 P stay
# in double range.
TARGET_DB_MAX = 3000.0

# Stream tags for per-trial seeding.
_TAG_CHANNEL = 101
_TAG_EVE = 102
_TAG_ERROR = 103
_TAG_ECSI = 104

# numpy's SeedSequence hash constants and pool size (numpy/random/
# bit_generator.pyx), for deriving every stream's seed words in one
# vectorised pass.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF

# Trials the engine evaluates together.  Results do not depend on it; it
# bounds memory, since a block holds a few stacks of this many matrices per
# sweep point, and on the ne axis Eve's are padded to her largest antenna
# count at every point (fig1: 20 points x 256 trials x 20 x 4 entries, 6.6 MB).
BLOCK_TRIALS = 256

# Eve's combiners are solved for only where her noise is at least this
# fraction of the power.  At ne = na - 1 the solve's SINR is 3e-13 off the
# closed form at 1e8 power over noise, 3e-11 at 1e10; from 1e16 it is singular.
_SOLVE_NOISE_FLOOR = 1e-8

@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one sweep needs; exactly one field may hold a list.

    ``ne``, ``target_sinr_db``, and ``sigma_h_db`` accept either a scalar or
    a sequence; a sequence marks the sweep axis.  ``sigma_h_db`` may be None
    when no scheme involves transmitter-side channel error.
    """

    scenario: str = "custom"
    na: int = 5
    nb: int = 5
    ne: int | tuple[int, ...] = 5
    target_sinr_db: float | tuple[float, ...] = 20.0
    sigma_h_db: float | tuple[float, ...] | None = None
    gamma_ecsi: float = 0.05
    trials: int = 3000
    power_db: float = 20.0
    sigma_b_sq: float = 1.0
    sigma_e_sq: float = 1.0
    master_seed: int = 1
    schemes: tuple[str, ...] = ("perfect",)
    threads: int = 1
    propagate_through_estimate: bool = False
    secrecy_metric: str = "goodput"

    def __post_init__(self):
        for name in ("ne", "target_sinr_db", "sigma_h_db"):
            value = getattr(self, name)
            if isinstance(value, (list, tuple, np.ndarray)):
                # Entries keep their values: numpy scalars become Python ones
                # and numeric levels floats, but nothing is rounded or read as
                # a number, so validate() sees 2.5 antennas or a bool level.
                values = [v.item() if isinstance(v, np.generic) else v for v in value]
                if name != "ne":
                    values = [float(v) if _is_real(v) else v for v in values]
                object.__setattr__(self, name, tuple(values))
        if isinstance(self.schemes, str):
            object.__setattr__(
                self, "schemes",
                tuple(s.strip() for s in self.schemes.split(",") if s.strip()),
            )
        elif isinstance(self.schemes, (list, np.ndarray)):
            object.__setattr__(self, "schemes", tuple(self.schemes))
        self.validate()

    def validate(self) -> None:
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; choose from {SCENARIOS}")
        if any(isinstance(n, bool) or not isinstance(n, int) for n in (self.na, self.nb)):
            raise ConfigError(f"na and nb must be integers, got {self.na!r} and {self.nb!r}")
        if self.na < 1 or self.nb < 1:
            raise ConfigError("na and nb must be at least 1")
        if self.nb > self.na:
            raise ConfigError(
                f"more receive than transmit antennas (nb={self.nb} > na={self.na}) "
                "is not supported by the decomposition convention"
            )
        for name in ("ne", "target_sinr_db", "sigma_h_db"):
            if _as_tuple(getattr(self, name)) == ():
                raise ConfigError(f"{name} must hold at least one value")
        for v in _as_tuple(self.ne):
            if isinstance(v, bool) or not isinstance(v, int) or v < 1:
                raise ConfigError(f"ne values must be positive integers, got {v!r}")
        for name in ("trials", "threads"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        seed = self.master_seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ConfigError(f"master_seed must be a non-negative integer, got {seed!r}")
        if self.trials < 1:
            raise ConfigError(f"trials must be at least 1, got {self.trials}")
        if self.threads < 1:
            raise ConfigError(f"threads must be at least 1, got {self.threads}")
        if not (_is_real(self.gamma_ecsi) and 0.0 <= self.gamma_ecsi <= 1.0):
            raise ConfigError(f"gamma_ecsi must lie in [0, 1], got {self.gamma_ecsi!r}")
        for name, (lo, hi) in (("sigma_b_sq", NOISE_RANGE), ("sigma_e_sq", NOISE_RANGE),
                               ("power_db", POWER_DB_RANGE)):
            value = getattr(self, name)
            if not (_is_real(value) and lo <= value <= hi):
                raise ConfigError(f"{name} must lie in [{lo:g}, {hi:g}], got {value!r}")
        # Decibel values must be finite numbers, and the target must stay
        # positive and finite in linear units too.
        for name, positive in (("target_sinr_db", True), ("sigma_h_db", False)):
            for value in _as_tuple(getattr(self, name)):
                if value is None:
                    continue
                if not _is_real(value):
                    raise ConfigError(f"{name} must be a finite level, got {value!r}")
                with np.errstate(over="ignore", under="ignore"):
                    linear = np.power(10.0, value / 10.0)
                finite = np.isfinite(value) and np.isfinite(linear)
                if not (finite and (linear > 0 or not positive)):
                    raise ConfigError(f"{name} must be a finite level, got {value!r}")
        top = min(ERROR_DB_MAX - max(self.power_db, 0.0), ERROR_DB_MAX / 2 + to_db(self.sigma_b_sq))
        if self.sigma_h_db is not None and max(_as_tuple(self.sigma_h_db)) > top:
            raise ConfigError(f"sigma_h_db must be at most {top:g} dB at this power_db and "
                              f"sigma_b_sq, got {self.sigma_h_db!r}")
        top = TARGET_DB_MAX - max(to_db(self.sigma_b_sq / min(self.power_p, 1.0)), self.power_db)
        if max(_as_tuple(self.target_sinr_db)) > top:
            raise ConfigError(f"target_sinr_db must be at most {top:g} dB at this power_db and "
                              f"sigma_b_sq, got {self.target_sinr_db!r}")
        if not self.schemes:
            raise ConfigError("at least one scheme is required")
        for s in self.schemes:
            if s not in SCHEMES:
                raise ConfigError(f"unknown scheme {s!r}; choose from {SCHEMES}")
        if len(set(self.schemes)) < len(self.schemes):
            raise ConfigError(f"schemes must not repeat, got {self.schemes}")
        axes = [
            name
            for name in ("ne", "target_sinr_db", "sigma_h_db")
            if isinstance(getattr(self, name), tuple)
        ]
        if len(axes) > 1:
            raise ConfigError(f"only one quantity may be swept, got {axes}")
        if self.sigma_h_db is None and _NEEDS_ERROR.intersection(self.schemes):
            raise ConfigError(
                "sigma_h_db is required for schemes with transmitter-side error: "
                f"{sorted(_NEEDS_ERROR.intersection(self.schemes))}"
            )
        if self.secrecy_metric not in ("goodput", "proxy", "full"):
            raise ConfigError(
                "secrecy_metric must be 'goodput', 'proxy', or 'full', "
                f"got {self.secrecy_metric!r}"
            )

    @property
    def power_p(self) -> float:
        return float(from_db(self.power_db))

    def axis(self) -> tuple[str, tuple]:
        """The swept field and its values; a scalar run sweeps one target."""
        for name in ("ne", "target_sinr_db", "sigma_h_db"):
            value = getattr(self, name)
            if isinstance(value, tuple):
                return name, value
        return "target_sinr_db", (float(self.target_sinr_db),)

    def to_dict(self) -> dict[str, Any]:
        """The fields by name, a swept one's values as a list."""
        values = {name: getattr(self, name) for name in self.__dataclass_fields__}
        return {name: list(v) if isinstance(v, tuple) else v for name, v in values.items()}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ExperimentConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


def _is_real(value) -> bool:
    """Whether ``value`` is a real number; a bool is not."""
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, (bool, np.bool_)))


def _as_tuple(value) -> tuple:
    return value if isinstance(value, tuple) else (value,)


def preset_config(scenario: str, **overrides) -> ExperimentConfig:
    """Named sweep setups matching the package's standard experiments."""
    presets: dict[str, dict[str, Any]] = {
        "fig1_ne_sweep": dict(
            na=4, nb=4, ne=tuple(range(1, 21)), target_sinr_db=20.0,
            sigma_h_db=None, schemes=("perfect", "known_ecsi", "imperfect_ecsi"),
        ),
        "fig2_prediction": dict(
            na=5, nb=5, ne=5, target_sinr_db=20.0,
            sigma_h_db=(-30.0, -25.0, -20.0, -15.0, -10.0),
            schemes=("naive", "analytic_naive"),
        ),
        "fig3_sinr_vs_target": dict(
            na=5, nb=5, ne=5, target_sinr_db=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0),
            sigma_h_db=-10.0,
            schemes=("perfect", "naive", "robust_fdd", "robust_tdd"),
        ),
        "fig4_secrecy": dict(
            na=5, nb=5, ne=5, target_sinr_db=(5.0, 10.0, 15.0, 20.0),
            sigma_h_db=-10.0,
            schemes=("naive", "robust_fdd", "robust_tdd", "known_ecsi"),
        ),
        "fig5_sigma_sweep": dict(
            na=5, nb=5, ne=5, target_sinr_db=20.0,
            sigma_h_db=(-40.0, -35.0, -30.0, -25.0, -20.0, -15.0, -10.0, -5.0),
            schemes=("naive", "robust_fdd", "robust_tdd"),
        ),
    }
    if scenario not in presets:
        raise ConfigError(f"no preset for scenario {scenario!r}; choose from {sorted(presets)}")
    params: dict[str, Any] = {"scenario": scenario, **presets[scenario]}
    params.update(overrides)
    return ExperimentConfig(**params)


@dataclass(frozen=True)
class SweepResult:
    """Reduced sweep output plus enough metadata to reproduce it."""

    axis_name: str
    axis: tuple
    schemes: tuple[str, ...]
    series: dict[str, dict[str, tuple]]
    extrapolated: tuple[bool, ...]
    meta: dict[str, Any] = field(default_factory=dict)

    def records(self) -> list[dict[str, Any]]:
        """Flatten to one record per (point, scheme), for table output."""
        rows = []
        for p, value in enumerate(self.axis):
            for scheme in self.schemes:
                row: dict[str, Any] = {
                    "axis": self.axis_name,
                    "axis_value": value,
                    "scheme": scheme,
                    "extrapolated": self.extrapolated[p],
                }
                for metric, values in self.series[scheme].items():
                    row[metric] = values[p]
                rows.append(row)
        return rows


def _run_chunk(cfg: ExperimentConfig, lo: int, hi: int) -> np.ndarray:
    """Metrics for trials [lo, hi): shape (points, schemes, metrics, trials)."""
    blocks = [_run_block(cfg, b, min(b + BLOCK_TRIALS, hi)) for b in range(lo, hi, BLOCK_TRIALS)]
    return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=3)


def _words(value: int) -> list[int]:
    """``value`` as ``SeedSequence`` reads an entropy integer: its uint32
    words, least significant first, at least one."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _entropy(cfg: ExperimentConfig, lo: int, hi: int, streams):
    """The entropy words ``[master_seed, tag, trial(, point)]`` of every
    (tag, rows, point) stream's trials [lo, hi), stream by stream: a
    (streams * (hi - lo), width) uint32 array, zero-padded to its longest
    row and to at least the pool size, and each row's word count.  A tag or
    a point takes one word."""
    master = _words(int(cfg.master_seed))
    at = len(master) + 1  # the trial's first word
    trial = (np.arange(lo, hi, dtype=np.uint64)[:, None] >> np.uint64([0, 32])).astype(np.uint32)
    after = at + 1 + (trial[:, 1] > 0)  # trials from 2**32 on take both words
    rows = np.zeros((len(streams), hi - lo, at + 3), np.uint32)
    rows[:, :, :at] = np.array([master + [tag] for tag, _, _ in streams], np.uint32)[:, None]
    rows[:, :, at:at + 2] = trial
    # A stream without a point writes a zero past its rows' ends.
    points = np.array([[point or 0] for _, _, point in streams], np.uint32)
    rows[:, np.arange(hi - lo), after] = points
    lengths = after + np.array([[point is not None] for _, _, point in streams])
    width = max(_POOL_SIZE, lengths.max())
    return rows[:, :, :width].reshape(-1, width), lengths.reshape(-1)


@cache
def _hash_consts(init: int, mult: int, steps: int) -> np.ndarray:
    """numpy SeedSequence's hash constants init * mult^k mod 2^32, k = 0..steps, (steps + 1, 1)."""
    consts = [init]
    for _ in range(steps):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, np.uint32)[:, None]


def _hasher(init: int, mult: int, steps: int):
    """numpy SeedSequence's running uint32 hash over ``steps`` constants, ``count`` steps a
    call: row j of the (count, rows) result is step j's hash of ``value`` or its row j."""
    consts, at = _hash_consts(init, mult, steps), 0

    def hash_(value: np.ndarray, count: int) -> np.ndarray:
        nonlocal at
        step, at = consts[at:at + count + 1], at + count
        value = (value ^ step[:-1]) * step[1:]
        return value ^ (value >> np.uint32(16))

    return hash_


def _seed_words(entropy: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``SeedSequence(row).generate_state(4, np.uint64)`` of every entropy
    row, zero-padded as ``_entropy`` lays them out: a C-contiguous (rows, 4)
    uint64 array.

    numpy's pool mixing and state generation run as uint32 array arithmetic
    over all rows at once, every pool word a row of one (4, rows) array;
    words past a row's length are skipped, as a shorter row never mixes
    them in.  The hash constants are built once per entropy width.
    """
    hashmix = _hasher(_INIT_A, _MULT_A, _POOL_SIZE * entropy.shape[1])

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> np.uint32(16))

    pool = hashmix(entropy[:, :_POOL_SIZE].T, _POOL_SIZE)
    for src in range(_POOL_SIZE):
        dst = np.arange(_POOL_SIZE) != src
        pool[dst] = mix(pool[dst], hashmix(pool[src], _POOL_SIZE - 1))
    for src in range(_POOL_SIZE, entropy.shape[1]):
        pool = np.where(lengths > src, mix(pool, hashmix(entropy[:, src], _POOL_SIZE)), pool)
    words = _hasher(_INIT_B, _MULT_B, 2 * _POOL_SIZE)(np.concatenate([pool, pool]), 2 * _POOL_SIZE)
    # Little-endian word pairs, as generate_state builds its uint64 words.
    return words.T.astype("<u4", order="C").view("<u8").astype(np.uint64, copy=False)


class _Words(ISeedSequence):
    """A seed sequence that hands ``PCG64`` one row of ``_seed_words``."""

    def __init__(self, row: np.ndarray):
        self.row = row

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise ValueError(f"holds 4 uint64 words, not {n_words} of {np.dtype(dtype)}")
        return self.row


def _draws(cfg: ExperimentConfig, lo: int, hi: int, streams) -> list[np.ndarray]:
    """Each (tag, rows, point) stream of trials [lo, hi), stacked (hi - lo, rows, na).

    Trial i's entries are those of ``channels.complex_gaussian`` on
    ``default_rng(SeedSequence([master_seed, tag, trial(, point)]))``: the
    real parts, then the imaginary parts, at unit variance.  Every stream's
    entropy and seed words are derived in one pass; each trial's PCG64 then
    takes its words through ``_Words`` and fills the trial's real and
    imaginary parts in one call, and ``channels.complex_from_parts`` joins
    and scales each stream's parts as ``complex_gaussian`` does.
    """
    seeds = _seed_words(*_entropy(cfg, lo, hi, streams)).reshape(len(streams), hi - lo, 4)
    out = []
    for (_, rows, _), words in zip(streams, seeds):
        buf = np.empty((hi - lo, 2, rows, cfg.na))
        for trial_buf, row in zip(buf, words):
            np.random.Generator(np.random.PCG64(_Words(row))).standard_normal(out=trial_buf)
        out.append(complex_from_parts(buf, np.sqrt(0.5)))
    return out


def _blend(cfg: ExperimentConfig, eve: np.ndarray, fresh: np.ndarray | None) -> np.ndarray:
    """The transmitter's stale estimates of a stack of eavesdropper channels,
    ``channels.perturb_ecsi`` of each trial given its fresh ECSI draw (none
    is needed when ``gamma_ecsi`` is 0)."""
    gamma = cfg.gamma_ecsi
    if gamma == 0.0:
        return eve
    return np.sqrt(1.0 - gamma) * eve + np.sqrt(gamma) * fresh


class _Block:
    """The draws of trials [lo, hi) and the stages every sweep point shares.

    Every random stream the block needs is drawn at construction, in one
    pass.  Each scheme's kernel (``_DESIGNS``) then runs once, on inputs
    with a leading points axis, which runs over the sweep's points on the
    swept quantity and has length 1 otherwise.
    """

    def __init__(self, cfg: ExperimentConfig, lo: int, hi: int):
        self.cfg = cfg
        self.n = hi - lo
        self.n_points = len(cfg.axis()[1])
        # Each point's target on the target axis, else the one target,
        # broadcasting over the trials: (points or 1, 1).
        self.point_targets = np.array(
            [float(from_db(t)) for t in _as_tuple(cfg.target_sinr_db)])[:, None]
        # The design kernels' last arguments: the target, power and Bob's noise.
        self.budget = (self.point_targets, cfg.power_p, cfg.sigma_b_sq)
        names = set(cfg.schemes)
        # Eve is drawn once, or anew at each point of the ne axis, whose
        # streams carry the point's index.
        counts = _as_tuple(cfg.ne)
        blend = "imperfect_ecsi" in names and cfg.gamma_ecsi != 0.0
        streams = {"h": (_TAG_CHANNEL, cfg.nb, None)}
        if names & _NEEDS_ERROR:
            streams["dh"] = (_TAG_ERROR, cfg.nb, None)
        for p, ne in enumerate(counts):
            index = p if isinstance(cfg.ne, tuple) else None
            streams["eve", p] = (_TAG_EVE, ne, index)
            if blend:
                streams["fresh", p] = (_TAG_ECSI, ne, index)
        draws = dict(zip(streams, _draws(cfg, lo, hi, list(streams.values()))))
        self.h = draws["h"]
        self.part = partition_stack(self.h)
        self.dh_unit = draws.get("dh")
        self.moments = None
        if names & {"robust_tdd", "analytic_naive"}:
            self.moments = iid_moments(self.part.s, cfg.na)
        eve = [draws["eve", p] for p in range(len(counts))]
        # The Gram matrices of her draws, (draws, n, na, na), as each
        # Eve-aware design assumes them, and her antenna count per draw.
        self.gram_e = {"known_ecsi": np.array([herm(x) @ x for x in eve])}
        if "imperfect_ecsi" in names:
            blended = [_blend(cfg, x, draws.get(("fresh", p))) for p, x in enumerate(eve)]
            self.gram_e["imperfect_ecsi"] = np.array([herm(x) @ x for x in blended])
        self.ne = np.array([x.shape[1] for x in eve])[:, None]
        # Her true channels: the one draw, or on the ne axis every point's,
        # zero-padded to her largest antenna count.
        self.eve = eve[0]
        if len(eve) > 1:
            self.eve = np.zeros((len(eve), self.n, self.ne.max(), cfg.na), dtype=complex)
            for rows, x in zip(self.eve, eve):
                rows[:, :x.shape[1]] = x

    @cached_property
    def level_powers(self) -> np.ndarray:
        """Linear error power of each point on the error axis, else of the
        one level, (levels, 1, 1)."""
        levels = _as_tuple(self.cfg.sigma_h_db)
        return np.array([float(from_db(sigma_db)) for sigma_db in levels])[:, None, None]

    @cached_property
    def estimate(self) -> np.ndarray:
        """The transmitter's estimates H + dH, (levels, n, nb, na)."""
        return self.h + np.sqrt(self.level_powers[..., None]) * self.dh_unit

    @cached_property
    def tilde(self) -> Basis:
        """``channels.estimate_basis`` of :attr:`estimate`, (levels, n, ...)."""
        return estimate_basis(self.estimate)

    @cached_property
    def eve_spectrum(self):
        """``channels.amplitude_spectrum`` (lam, U) of Eve's Gram matrices,
        one per draw of hers: (1, n, ...), or (points, n, ...) on the ne axis,
        where her padded rows leave each point's na - ne smallest exactly
        zero; read only where :meth:`eve_gram` returns it."""
        return amplitude_spectrum(self.eve, self.gram_e["known_ecsi"])

    def eve_gram(self, designs):
        """Eve's Gram stack, from which ``transmit.eve_link`` solves for her
        combiners of ``designs``, where each draw of hers serves at most one
        and her noise is at least ``_SOLVE_NOISE_FLOOR`` times the power;
        else :attr:`eve_spectrum`, from which it evaluates her link in closed
        form.  Each design that sends interference (``beta`` set) forms one
        combiner per entry of its points axis broadcast against her draws
        axis, so the route depends on the config alone."""
        cfg, draws = self.cfg, len(self.gram_e["known_ecsi"])
        served = sum(max(len(d.t), len(d.beta), draws)
                     for d in designs if d.beta is not None) // draws
        exact = cfg.sigma_e_sq >= _SOLVE_NOISE_FLOOR * cfg.power_p
        return self.eve_spectrum if served > (1 if exact else 0) else self.gram_e["known_ecsi"]

    @cached_property
    def e_dv1(self) -> np.ndarray:
        """Mean drift of the dominant right vector, (levels, n, na)."""
        return self.moments.drift[:, None] * self.part.v1 * self.level_powers


# Every simulated scheme's designs for all points of the sweep at once, each
# field (points or 1, n, ...), on Bob's channels and decomposition as
# (1, n, ...) views.  Every scheme shares transmit.evaluate.
_DESIGNS = {
    # Data on the dominant direction of the channel, or of its estimates at
    # every level, noise on the rest; Bob matches his channel's own.
    "perfect": lambda blk: artificial_noise(
        blk.part.sigma1[None], blk.part.v1[None], blk.h[None], blk.part.v1[None], *blk.budget),
    "naive": lambda blk: artificial_noise(
        blk.tilde.sigma1, blk.tilde.v1, blk.h[None], blk.part.v1[None], *blk.budget),
    # The Eve-aware schemes differ only in the Gram matrices they assume.
    **{name: lambda blk, name=name: eve_aware(blk.h[None], blk.gram_e[name], blk.ne, *blk.budget)
       for name in ("known_ecsi", "imperfect_ecsi")},
    # Propagated through the estimate, the exact-knowledge design is the naive one.
    "robust_fdd": lambda blk: (
        artificial_noise(blk.tilde.sigma1, blk.tilde.v1, blk.estimate, blk.tilde.v1, *blk.budget)
        if blk.cfg.propagate_through_estimate else robust_fdd(blk.part, blk.tilde.v1, *blk.budget)),
    # i.i.d. error's mean drift lies along v1: Bob's dominant triplet is all it couples.
    "robust_tdd": lambda blk: robust_tdd(
        blk.part.u[None, ..., :1], blk.part.s[None, ..., :1],
        self_drift(blk.part.v1[None], blk.e_dv1)[..., None], blk.tilde.v1, *blk.budget),
}


def _analytic_naive(blk: _Block) -> np.ndarray:
    """Closed-form expected powers of the mismatched link, (metrics, points or 1, n).

    Trials whose nominal design is already in outage are outside the
    expansion's validity range; they and trials with a nonpositive term
    are flagged and carry no SINR.
    """
    cfg, sigma1 = blk.cfg, blk.part.sigma1
    sigma_sq = blk.level_powers[..., 0]
    rho = required_rho(sigma1, blk.point_targets, cfg.power_p, cfg.sigma_b_sq)
    valid = rho < 1.0
    # Trials out of range are expanded at rho = 1, where no term leaves double range.
    num, den = naive_terms(
        sigma1, np.minimum(rho, 1.0), 2.0 * self_drift(blk.part.v1, blk.e_dv1),
        blk.moments.e_dsigma1 * sigma_sq, blk.moments.e_dsigma1_sq * sigma_sq,
        cfg.power_p, cfg.sigma_b_sq, cfg.na,
    )
    ok = valid & (num > 0.0) & (den > 0.0)
    rows = np.full((len(METRICS),) + num.shape, np.nan)
    rows[4] = np.where(valid, num, np.nan)
    rows[5] = np.where(valid, den, np.nan)
    with np.errstate(all="ignore"):
        rows[0] = np.where(ok, num / den, np.nan)
    rows[8] = np.where(ok, 0.0, 1.0)
    return rows


def _run_block(cfg: ExperimentConfig, lo: int, hi: int) -> np.ndarray:
    """Metrics for the block of trials [lo, hi), every stage stacked.

    Every scheme is designed first, which settles how Eve's combiners are
    built (:meth:`_Block.eve_gram`); then each scheme's designs for all
    points are evaluated together, broadcast over the (point, trial) grid:
    Bob's channels, Eve's and her Gram matrices or their spectrum enter
    once per draw.
    """
    blk = _Block(cfg, lo, hi)
    designs = {name: _DESIGNS[name](blk) for name in cfg.schemes if name != "analytic_naive"}
    gram = blk.eve_gram(designs.values())
    targets, power_p, sigma_b_sq = blk.budget
    out = np.empty((blk.n_points, len(cfg.schemes), len(METRICS), blk.n))
    for s, name in enumerate(cfg.schemes):
        rows = _analytic_naive(blk) if name == "analytic_naive" else evaluate(
            designs[name], blk.h, blk.eve, gram, targets, power_p, sigma_b_sq, cfg.sigma_e_sq,
            cfg.secrecy_metric)
        out[:, s] = rows.swapaxes(0, 1)
    return out


def _db_or_neg_inf(x: np.ndarray) -> np.ndarray:
    """Decibels of positive finite entries; 0 maps to -inf and the rest to NaN.
    Call it with divide and invalid floating-point errors ignored."""
    return np.where(x < np.inf, to_db(x), np.nan)


# A series' keys: its float columns in the order of ``_reduce``'s table, then its counts.
_SERIES_KEYS = ("mean_sinr_b", "stderr_sinr_b", "mean_sinr_b_db", "stderr_sinr_b_db",
                "mean_sinr_e", "stderr_sinr_e", "mean_sinr_e_db", "mean_secrecy", "stderr_secrecy",
                "roe_sinr_b", "roe_sinr_b_db", "roe_sinr_e", "roe_sinr_e_db",
                "outage_count", "flagged_count", "n_valid")


def _reduce(metrics: np.ndarray, cfg: ExperimentConfig) -> dict[str, dict[str, tuple]]:
    """Per-scheme series over the points, every (point, scheme) cell at once.

    One NaN-skipping sum over the trials, as ``np.nansum`` takes it, serves
    the three per-trial figures' means, the pooled ratios and the counts;
    one pass takes the standard errors and one the decibel columns.  Each
    column lands in one float or integer table, converted by one ``tolist``.
    """
    nan = np.isnan(metrics)
    valid = ~nan[:, :, :3]
    n = valid.sum(axis=-1)
    sums = np.where(nan, 0.0, metrics).sum(axis=-1)
    table = np.empty(n.shape[:2] + (13,))
    counts = np.empty(n.shape[:2] + (3,), dtype=int)
    counts[..., :2] = sums[..., [3, 8]]  # outage, flagged
    counts[..., 2] = n[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = sums[..., :3] / n
        dev = np.where(valid, metrics[:, :, :3] - mean[..., None], 0.0)
        # Deviations are squared in units of a power of two near the largest
        # one, so an SINR near 1e200 cannot overflow; the scaling is exact.
        scale = np.ldexp(1.0, np.frexp(np.abs(dev).max(axis=-1))[1])
        dev = dev / scale[..., None]
        se = scale * np.sqrt((dev * dev).sum(axis=-1) / (n - 1)) / np.sqrt(n)
        table[..., [0, 4, 7]] = np.where(n > 0, mean, np.nan)
        table[..., [1, 5, 8]] = np.where(n > 1, se, np.nan)
        intnoise = sums[..., [5, 7]]
        table[..., [9, 11]] = np.where(intnoise > 0, sums[..., [4, 6]] / intnoise, np.nan)
        table[..., [2, 6, 10, 12]] = _db_or_neg_inf(table[..., [0, 4, 9, 11]])
        mean_b, se_b = table[..., 0], table[..., 1]
        table[..., 3] = np.where((mean_b > 0) & np.isfinite(se_b),
                                 10.0 / np.log(10.0) * se_b / mean_b, np.nan)
    floats, ints = table.transpose(1, 2, 0).tolist(), counts.transpose(1, 2, 0).tolist()
    return {scheme: dict(zip(_SERIES_KEYS, map(tuple, f + i)))
            for scheme, f, i in zip(cfg.schemes, floats, ints)}


def run_experiment(cfg: ExperimentConfig) -> SweepResult:
    """Run one configured sweep and reduce it to a :class:`SweepResult`.

    Results are reproducible bit for bit from the config alone, including
    across different ``threads`` settings.  The config was validated when
    it was built; it is frozen, so it is not checked again.
    """
    started = time.perf_counter()
    axis_name, axis_values = cfg.axis()

    # Results do not depend on the worker count, so no more start than CPUs.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cfg.threads, cpus or 1)
    if workers == 1 or cfg.trials < 2 * workers:
        metrics = _run_chunk(cfg, 0, cfg.trials)
    else:
        from concurrent.futures import ProcessPoolExecutor

        bounds = np.linspace(0, cfg.trials, workers + 1, dtype=int)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(_run_chunk, [cfg] * workers, bounds[:-1], bounds[1:]))
        metrics = np.concatenate(parts, axis=3)

    series = _reduce(metrics, cfg)
    if axis_name == "sigma_h_db":
        extrapolated = tuple(v > EXTRAPOLATION_EDGE_DB for v in axis_values)
    elif cfg.sigma_h_db is None:
        extrapolated = tuple(False for _ in axis_values)
    else:
        flag = float(cfg.sigma_h_db) > EXTRAPOLATION_EDGE_DB
        extrapolated = tuple(flag for _ in axis_values)

    meta = {
        "config": cfg.to_dict(),
        "version": __version__,
        "wall_time_s": time.perf_counter() - started,
    }
    return SweepResult(
        axis_name=axis_name,
        axis=tuple(axis_values),
        schemes=cfg.schemes,
        series=series,
        extrapolated=extrapolated,
        meta=meta,
    )

