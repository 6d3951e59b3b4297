"""The batched sweep engine against the per-trial loop it replaced.

``oracles._run_chunk`` is the old loop: one trial, one point and one scheme
at a time through the single-channel functions.  The engine must reproduce
its per-trial metric array to round-off, with the same NaN pattern and the
same outage and flag columns, and must not depend on how trials are grouped
into blocks.  The places where the engine deliberately uses a different
algorithm than the single-channel path (among them Eve's link, evaluated in
closed form from her spectrum or at a combiner from one lean solve rather
than at the public beamformer's) are checked against their counterparts
directly, and so are the stacked Eve-aware directions, the stacked draws
and the vectorised reduction against the per-matrix, per-trial and
per-point code they replaced.
"""
from __future__ import annotations

import math
import warnings
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from wiretap import harness, robust, transmit
from wiretap.channels import (
    ChannelMatrix,
    ChannelSet,
    CsiErrorModel,
    SvdStack,
    amplitude_spectrum,
    complex_from_parts,
    complex_gaussian,
    estimate_basis,
    generate_channels,
    partition_stack,
    partition_svd,
    perturb_ecsi,
)
from wiretap.exceptions import DegenerateChannelError, DimensionError
from wiretap.harness import SCENARIOS, SCHEMES, ExperimentConfig, preset_config, run_experiment
from wiretap.perturbation import compute_moments, iid_moments
from wiretap.perturbation import naive_sinr_terms, naive_trial
from wiretap.robust import fdd_receiver, solve_fractions, tdd_receiver
from wiretap.stacked import herm, matvec, vdot
from wiretap.transmit import (
    artificial_noise,
    design_known_ecsi,
    evaluate,
    eve_aware,
    eve_aware_directions,
    eve_mmse_beamformer,
    link_sinr,
    perfect_csi_trial,
    run_trial,
    secure_goodput,
)
from wiretap.units import from_db

# Per-trial agreement: relative round-off plus an absolute floor for the
# figures that are zero up to round-off (Eve's powers when she is nulled).
RTOL = 1e-12
ATOL = 1e-12
EXACT_COLUMNS = ("outage", "flagged")
SHAPES = [(1, 1, 1), (2, 1, 3), (3, 3, 2), (4, 4, 20), (5, 5, 5)]
# Shapes where both Gram matrices of the Eve-aware designs are singular.
NB_BELOW_NA = [(2, 1, 1), (4, 2, 1), (4, 2, 2), (5, 3, 3), (4, 3, 3), (4, 3, 2), (5, 4, 4), (5, 4, 3)]


def assert_matches_loop(cfg: ExperimentConfig) -> None:
    got = harness._run_chunk(cfg, 0, cfg.trials)
    want = oracles._run_chunk(cfg, 0, cfg.trials)
    assert got.shape == want.shape
    for m, name in enumerate(harness.METRICS):
        a, b = got[:, :, m], want[:, :, m]
        np.testing.assert_array_equal(np.isnan(a), np.isnan(b), err_msg=f"{name} NaN pattern")
        if name in EXACT_COLUMNS:
            np.testing.assert_array_equal(a, b, err_msg=name)
            continue
        both = ~np.isnan(a)
        miss = np.abs(a - b)[both]
        allowed = (RTOL * np.maximum(np.abs(a), np.abs(b)) + ATOL)[both]
        assert np.all(miss <= allowed), (name, float(np.max(miss / allowed)))


def _config(shape, axis: str, **overrides) -> ExperimentConfig:
    na, nb, ne = shape
    params = dict(
        na=na, nb=nb, ne=ne, target_sinr_db=15.0, sigma_h_db=-15.0, trials=12,
        master_seed=3, schemes=SCHEMES,
    )
    # Each axis repeats a value out of order, at points 0 and 2.
    if axis == "ne":
        params.update(ne=(ne, 1, ne))
    elif axis == "target_sinr_db":
        params.update(target_sinr_db=(25.0, 0.0, 25.0, 10.0))
    else:
        params.update(sigma_h_db=(-10.0, -30.0, -10.0))
    params.update(overrides)
    return ExperimentConfig(**params)


@pytest.mark.parametrize("axis", ["ne", "target_sinr_db", "sigma_h_db"])
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_engine_matches_the_loop(shape, axis):
    assert_matches_loop(_config(shape, axis))


@pytest.mark.parametrize("axis", ["target_sinr_db", "sigma_h_db"])
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_a_repeated_value_gives_the_same_rows_at_each_of_its_points(shape, axis):
    # Each point is designed on its own, a repeated value included, and
    # must give the same numbers for every scheme.  The ne axis draws Eve
    # anew at each point, so its repeated points differ by design.
    cfg = _config(shape, axis)
    got = harness._run_chunk(cfg, 0, cfg.trials)
    np.testing.assert_array_equal(got[0], got[2])


@pytest.mark.parametrize("metric", ["proxy", "full"])
@pytest.mark.parametrize("shape", [(2, 1, 3), (5, 5, 5)], ids=str)
def test_engine_matches_the_loop_under_every_secrecy_metric(shape, metric):
    assert_matches_loop(_config(shape, "target_sinr_db", secrecy_metric=metric))


@pytest.mark.parametrize("shape", [(3, 3, 2), (4, 4, 20)], ids=str)
def test_engine_matches_the_loop_through_the_estimate(shape):
    assert_matches_loop(_config(shape, "sigma_h_db", propagate_through_estimate=True))


def test_engine_matches_the_loop_when_most_trials_are_in_outage():
    cfg = _config((5, 5, 5), "target_sinr_db", power_db=-5.0)
    outage = oracles._run_chunk(cfg, 0, cfg.trials)[:, :, harness.METRICS.index("outage")]
    assert np.nanmean(outage) > 0.5
    assert_matches_loop(cfg)


@pytest.mark.parametrize("preset", ["fig1_ne_sweep", "fig3_sinr_vs_target", "fig2_prediction"])
def test_engine_matches_the_loop_on_presets(preset):
    assert_matches_loop(preset_config(preset, trials=6, master_seed=11))


@pytest.mark.parametrize("sigma_e_sq", [0.3, 4.0])
@pytest.mark.parametrize("gamma_ecsi", [0.0, 1.0])
def test_engine_matches_the_loop_at_other_noise_powers_and_blends(sigma_e_sq, gamma_ecsi):
    # Eve's combiner comes from a Sherman-Morrison solve, which scales
    # differently from the loop's general one, and the blend draws through the
    # stacked streams, which skip the fresh draw at gamma = 0; cover other
    # noise powers and blends.
    cfg = _config(
        (4, 4, 6), "ne", sigma_e_sq=sigma_e_sq, sigma_b_sq=2.0, gamma_ecsi=gamma_ecsi,
        schemes=("perfect", "known_ecsi", "imperfect_ecsi"),
    )
    assert_matches_loop(cfg)


def test_a_target_met_at_the_bracket_floor_runs_in_both():
    cfg = ExperimentConfig(na=3, nb=3, ne=2, target_sinr_db=-150.0, sigma_h_db=-20.0,
                           trials=5, schemes=("robust_fdd",))
    assert_matches_loop(cfg)
    got = harness._run_chunk(cfg, 0, cfg.trials)
    assert not np.any(got[:, :, harness.METRICS.index("outage")])


@pytest.mark.parametrize("shape", NB_BELOW_NA, ids=str)
def test_nb_below_na_eve_aware_designs_null_the_eavesdropper(shape):
    # Both Gram matrices are singular: the direction is the intended
    # receiver's strongest one in Eve's null space, in the engine and the
    # loop alike, and the exactly known eavesdropper is nulled.
    na, nb, ne = shape
    cfg = ExperimentConfig(na=na, nb=nb, ne=ne, trials=40, master_seed=5,
                           schemes=("known_ecsi", "imperfect_ecsi"))
    assert_matches_loop(cfg)
    sinr_e = harness._run_chunk(cfg, 0, cfg.trials)[0, 0, harness.METRICS.index("sinr_e")]
    assert np.all(sinr_e < 1e-25)


def _per_point_rows(cfg: ExperimentConfig):
    """Each point of an ne sweep on its own: the kernels and
    ``transmit.evaluate`` on that point's unpadded draws, as the engine ran
    them before its points shared one padded stack.  Returns the metrics and
    each Eve-aware scheme's directions, point after point."""
    streams = [(harness._TAG_CHANNEL, cfg.nb, None)]
    for p, ne in enumerate(cfg.ne):
        streams += [(harness._TAG_EVE, ne, p), (harness._TAG_ECSI, ne, p)]
    h, *eve_draws = harness._draws(cfg, 0, cfg.trials, streams)
    part = partition_stack(h)
    target = float(from_db(cfg.target_sinr_db))
    budget = (target, cfg.power_p, cfg.sigma_b_sq)
    out = np.empty((len(cfg.ne), len(cfg.schemes), len(harness.METRICS), cfg.trials))
    directions = {name: [] for name in cfg.schemes}
    for p, ne in enumerate(cfg.ne):
        eve, fresh = eve_draws[2 * p], eve_draws[2 * p + 1]
        for s, name in enumerate(cfg.schemes):
            if name == "perfect":
                d = artificial_noise(part.s[:, 0], part.v1, h, part.v1, *budget)
            else:
                assumed = eve if name == "known_ecsi" else harness._blend(cfg, eve, fresh)
                d = eve_aware(h, herm(assumed) @ assumed, ne, *budget)
                directions[name].append(d.t)
            out[p, s] = evaluate(d, h, eve, amplitude_spectrum(eve, herm(eve) @ eve), target,
                                 cfg.power_p, cfg.sigma_b_sq, cfg.sigma_e_sq, cfg.secrecy_metric)
    return out, {name: np.concatenate(t) for name, t in directions.items() if t}


@pytest.mark.parametrize("metric", ["goodput", "full"])
@pytest.mark.parametrize("na, ne", [(4, (1, 2, 3, 6)), (3, (1, 2, 4))], ids=str)
def test_ragged_eve_axis_matches_the_per_point_path(monkeypatch, na, ne, metric):
    # Points with ne <= na - 2 leave Eve outnumbered by two or more antennas,
    # where the reciprocal problem's pick in her null space flips on one-ulp
    # changes to her Gram matrix, and the largest ne pads every other point's
    # draws with zeros.  (A Gram matrix of the padded draws differs in the
    # last bit at na = 3, ne = 1.)  The directions must still be the
    # per-point ones, scipy's on those reciprocal rows and the oracle's up to
    # phase on the others, and Bob's columns must not move; Eve's move only
    # at round-off.
    cfg = ExperimentConfig(na=na, nb=na, ne=ne, trials=25, master_seed=8,
                           schemes=("perfect", "known_ecsi", "imperfect_ecsi"),
                           secrecy_metric=metric)
    recorded = []

    def recording(*args):
        designs = transmit.eve_aware(*args)
        recorded.append(designs.t.reshape(-1, designs.t.shape[-1]))
        return designs

    monkeypatch.setattr(harness, "eve_aware", recording)
    got = harness._run_chunk(cfg, 0, cfg.trials)
    want, directions = _per_point_rows(cfg)
    np.testing.assert_array_equal(recorded[0], directions["known_ecsi"])
    np.testing.assert_array_equal(recorded[1], directions["imperfect_ecsi"])
    h, *eve = harness._draws(cfg, 0, cfg.trials, [(harness._TAG_CHANNEL, cfg.nb, None)] + [
        (harness._TAG_EVE, ne, p) for p, ne in enumerate(cfg.ne)])
    for p, x in enumerate(eve):
        for b, e, g in zip(h, x, recorded[0][p * cfg.trials:(p + 1) * cfg.trials]):
            _assert_the_oracles_direction(b, e, g)
    for m, name in enumerate(harness.METRICS):
        if name in ("sinr_b", "signal_b", "intnoise_b", "outage", "flagged"):
            np.testing.assert_array_equal(got[:, :, m], want[:, :, m], err_msg=name)
        else:
            np.testing.assert_allclose(got[:, :, m], want[:, :, m], rtol=RTOL, atol=ATOL,
                                       err_msg=name)


@pytest.mark.parametrize(
    "preset", ["fig1_ne_sweep", "fig3_sinr_vs_target", "fig4_secrecy", "fig5_sigma_sweep"]
)
def test_one_design_call_and_one_evaluation_per_scheme_per_block(monkeypatch, preset):
    # On every sweep axis: the ne axis (fig1), the target axis (fig3, fig4)
    # and the error axis (fig5).
    calls = Counter()

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return wrapper

    for module, name in ((transmit, "evaluate"), (transmit, "artificial_noise"),
                         (transmit, "eve_aware"), (robust, "robust_fdd"), (robust, "robust_tdd")):
        monkeypatch.setattr(harness, name, counted(getattr(module, name)))
    monkeypatch.setattr(harness, "BLOCK_TRIALS", 4)
    cfg = preset_config(preset, trials=10, master_seed=3)
    harness._run_chunk(cfg, 0, cfg.trials)
    blocks = 3
    simulated = [s for s in cfg.schemes if s != "analytic_naive"]
    aware = [s for s in cfg.schemes if s.endswith("_ecsi")]
    designs = sum(calls[name] for name in ("artificial_noise", "eve_aware", "robust_fdd",
                                           "robust_tdd"))
    assert calls["evaluate"] == designs == blocks * len(simulated)
    assert calls["eve_aware"] == blocks * len(aware)


@pytest.mark.parametrize("block", [1, 7, 1000])
def test_block_size_does_not_change_a_bit(monkeypatch, block):
    cfgs = [
        preset_config("fig1_ne_sweep", ne=(1, 4, 6), trials=15, master_seed=2),
        _config((5, 5, 5), "target_sinr_db", trials=15),
        _config((3, 3, 2), "sigma_h_db", trials=15, secrecy_metric="full"),
    ]
    whole = [harness._run_chunk(cfg, 0, cfg.trials) for cfg in cfgs]
    monkeypatch.setattr(harness, "BLOCK_TRIALS", block)
    for cfg, want in zip(cfgs, whole):
        got = harness._run_chunk(cfg, 0, cfg.trials)
        np.testing.assert_array_equal(got, want)


@settings(max_examples=30, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    na=st.integers(1, 4),
    nb_gap=st.integers(0, 3),
    ne=st.integers(1, 5),
    target_db=st.floats(-5.0, 30.0),
    sigma_db=st.floats(-40.0, -3.0),
    power_db=st.floats(-10.0, 30.0),
    schemes=st.lists(st.sampled_from(SCHEMES), min_size=1, max_size=4, unique=True),
    metric=st.sampled_from(["goodput", "proxy", "full"]),
    seed=st.integers(0, 2**16),
    axis=st.sampled_from(["ne", "target_sinr_db", "sigma_h_db"]),
    picks=st.lists(st.integers(0, 2), min_size=1, max_size=4),
)
def test_engine_equals_the_loop_on_random_configs(
    na, nb_gap, ne, target_db, sigma_db, power_db, schemes, metric, seed, axis, picks
):
    # One axis is swept over 1-4 values drawn from three, repeats allowed.
    values = {"ne": (ne, 1, 5), "target_sinr_db": (target_db, -5.0, 30.0),
              "sigma_h_db": (sigma_db, -40.0, -3.0)}[axis]
    params = dict(ne=ne, target_sinr_db=target_db, sigma_h_db=sigma_db)
    params[axis] = tuple(values[i] for i in picks)
    cfg = ExperimentConfig(
        na=na, nb=max(na - nb_gap, 1), power_db=power_db, trials=3, master_seed=seed,
        schemes=tuple(schemes), secrecy_metric=metric, **params,
    )
    try:
        oracles._run_chunk(cfg, 0, cfg.trials)
    except Exception as exc:  # the engine must fail the same way
        with pytest.raises(type(exc)):
            harness._run_chunk(cfg, 0, cfg.trials)
        return
    assert_matches_loop(cfg)


# ------------------------------------------- broadcast targets and the point grid


def _flat(x: np.ndarray, shape: tuple, row_dims: int) -> np.ndarray:
    """``x`` broadcast to the batch ``shape`` and laid out one row per batch
    entry, as the engine tiled its stacks before they broadcast."""
    row = x.shape[x.ndim - row_dims:]
    return np.broadcast_to(x, shape + row).reshape(math.prod(shape), *row)


def test_every_kernel_designs_its_targets_in_one_pass_bit_for_bit():
    # Each kernel designs all targets at once, on inputs stacked over two
    # error levels or two draws of Eve's while Bob's channel is shared.
    # Each target's design must be the single-target call's on flat stacks
    # with one row per (level or draw, trial), bit for bit; 1e6 is out of
    # reach everywhere.
    count, na, power_p = 20, 4, 100.0
    targets = (0.5, 30.0, 1e6)
    # The targets on a leading axis that broadcasts against the inputs' grid.
    stacked = np.array(targets)[:, None, None]
    h = _random_channels(count, na, na, seed=41)
    part = partition_stack(h)
    levels = np.array([0.01, 0.1])[:, None, None]
    tilde = estimate_basis(h + np.sqrt(levels[..., None]) * _random_channels(count, na, na, 42))
    e_dv1 = iid_moments(part.s, na).drift[:, None] * part.v1 * levels
    gram = np.stack([herm(x) @ x for x in (_random_channels(count, ne, na, 43 + ne)
                                             for ne in (2, 5))])
    kernels = {
        "artificial_noise": (artificial_noise, (tilde.sigma1, tilde.v1, h, part.v1),
                             (0, 1, 2, 1)),
        "eve_aware": (eve_aware, (h, gram, np.array([[2], [5]])), (2, 2, 0)),
        "robust_fdd": (lambda u, s, v, *rest: robust.robust_fdd(SvdStack(u, s, v), *rest),
                       (part.u, part.s, part.v, tilde.v1), (2, 1, 2, 1)),
        "robust_tdd": (robust.robust_tdd,
                       (part.sigma1, part.u1, part.v1, e_dv1, tilde.v1),
                       (0, 1, 1, 1, 1)),
    }
    grid = (2, count)
    for name, (kernel, args, row_dims) in kernels.items():
        joint = kernel(*args, stacked, power_p, 1.0)
        rows = [_flat(x, grid, dims) for x, dims in zip(args, row_dims)]
        for k, target in enumerate(targets):
            single = kernel(*rows, target, power_p, 1.0)
            for field, got, want in zip(transmit.Design._fields, joint, single):
                if want is None:
                    assert got is None, f"{name}.{field}[{k}]"
                    continue
                got = np.broadcast_to(got, (len(targets),) + grid + want.shape[1:])[k]
                np.testing.assert_array_equal(_flat(got, grid, want.ndim - 1), want,
                                              err_msg=f"{name}.{field}[{k}]")
        assert joint.outage[-1].all() and not joint.outage[0].any(), name


@pytest.mark.parametrize("metric", ["goodput", "proxy", "full"])
@pytest.mark.parametrize("preset", ["fig1_ne_sweep", "fig3_sinr_vs_target", "fig5_sigma_sweep"])
def test_evaluate_on_the_point_grid_equals_evaluate_on_tiled_rows(preset, metric):
    # The engine passes each design's fields, Bob's and Eve's channels and
    # her Gram matrices (fig1) or their spectrum (fig3, fig5) once per draw,
    # and evaluate broadcasts them over the (point, trial) grid.  Copied out
    # to one row per (point, trial), as the engine laid them out before,
    # they must give the same bits.
    cfg = preset_config(preset, trials=9, master_seed=12, secrecy_metric=metric)
    blk = harness._Block(cfg, 0, cfg.trials)
    grid = (blk.n_points, blk.n)
    budget = (cfg.power_p, cfg.sigma_b_sq, cfg.sigma_e_sq, cfg.secrecy_metric)
    designs = {name: harness._DESIGNS[name](blk) for name in cfg.schemes}
    gram = blk.eve_gram(designs.values())
    assert isinstance(gram, tuple) == (preset != "fig1_ne_sweep")
    if isinstance(gram, tuple):
        tiled = (_flat(gram[0], grid, 1), _flat(gram[1], grid, 2))
    else:
        tiled = _flat(gram, grid, 2)
    for name, d in designs.items():
        got = evaluate(d, blk.h, blk.eve, gram, blk.point_targets, *budget)
        rows = transmit.Design(*(f if f is None else _flat(f, grid, f.ndim - 2) for f in d))
        want = evaluate(rows, _flat(blk.h, grid, 2), _flat(blk.eve, grid, 2), tiled,
                        _flat(blk.point_targets, grid, 0), *budget)
        np.testing.assert_array_equal(_flat(got, (len(harness.METRICS),) + grid, 0),
                                      want.ravel(), err_msg=name)


@pytest.mark.parametrize("preset, draws", [("fig3_sinr_vs_target", 1), ("fig5_sigma_sweep", 1),
                                           ("fig1_ne_sweep", 20)])
def test_eve_is_held_once_per_draw_not_once_per_point(preset, draws):
    # On the target and error axes every point shares Eve's draw, so her
    # channels and her decomposition have one row per trial; only the ne
    # axis, which draws her anew at each point, has points x trials rows.
    cfg = preset_config(preset, trials=11, master_seed=2)
    blk = harness._Block(cfg, 0, cfg.trials)
    lam, evecs = blk.eve_spectrum
    assert lam.shape == (draws, 11, cfg.na)
    assert evecs.shape == (draws, 11, cfg.na, cfg.na)
    assert blk.eve.shape[:-2] == ((11,) if draws == 1 else (draws, 11))


# ------------------------------------------------- the single-channel interface


def _single_channel_rows(cfg: ExperimentConfig, i: int, h, dh_unit, eve) -> np.ndarray:
    """The engine's metrics (all but ``flagged``) of trial ``i`` of a target
    sweep, from the single-channel functions on that trial's draws."""
    sigma_sq = float(from_db(cfg.sigma_h_db))
    chan = ChannelSet(h_ba=ChannelMatrix(h[i]), h_ea=ChannelMatrix(eve[i]),
                      sigma_b_sq=cfg.sigma_b_sq, sigma_e_sq=cfg.sigma_e_sq, power_p=cfg.power_p)
    svd = partition_svd(chan.h_ba)
    err = np.sqrt(sigma_sq) * dh_unit[i]
    tilde = estimate_basis(h[i] + err)
    mom = compute_moments(svd, CsiErrorModel.iid(sigma_sq))
    rows = np.empty((len(cfg.axis()[1]), len(cfg.schemes), len(harness.METRICS) - 1))
    for p, target_db in enumerate(cfg.axis()[1]):
        target = float(from_db(target_db))
        for s, name in enumerate(cfg.schemes):
            if name == "perfect":
                d = transmit.single_artificial_noise(chan, svd, svd, target)
                scheme, report, bob, eve_link = run_trial(chan, d, target)
                _, w_b, _, perfect = perfect_csi_trial(chan, target, svd=svd)
                assert perfect == report
                # The public link is the engine's: the same figures, down to the
                # round-off residual of interference at Bob's matched combiner.
                assert link_sinr(chan.h_ba, scheme, w_b, chan.sigma_b_sq) == bob
                assert bob.interference_power <= 1e-24 * bob.signal_power
            elif name == "known_ecsi":
                d = eve_aware(h[i][None], (herm(eve[i]) @ eve[i])[None], cfg.ne, target,
                              cfg.power_p, cfg.sigma_b_sq)
                scheme, report, bob, eve_link = run_trial(chan, d, target)
                np.testing.assert_array_equal(design_known_ecsi(chan, chan.h_ea, target).t, d.t[0])
            elif name == "naive":
                report, bob, eve_link, scheme = naive_trial(chan, err, target, svd=svd)
            elif name == "robust_fdd":
                _, report, d = robust._fdd_trial(chan, tilde, target)
                scheme, again, bob, eve_link = run_trial(chan, d, target)
                assert again == report
                assert fdd_receiver(chan, h[i] + err, target)[1] == report
            else:
                _, report, d = robust._tdd_trial(chan, svd, mom, tilde, target)
                scheme, again, bob, eve_link = run_trial(chan, d, target)
                assert again == report
                assert tdd_receiver(chan, svd, mom, err, target)[1] == report
            rows[p, s] = (
                report.sinr_b, report.sinr_e, secure_goodput(report.sinr_b, report.sinr_e, target),
                report.outage, bob.signal_power, bob.interference_plus_noise,
                eve_link.signal_power, eve_link.interference_plus_noise,
            )
    return rows


@pytest.mark.parametrize("preset", ["fig3_sinr_vs_target", "fig4_secrecy"])
def test_single_channel_functions_return_the_engines_numbers(preset):
    # The single-channel functions are batches of one over the engine's
    # kernels, so on the engine's own draws they give its numbers exactly.
    cfg = preset_config(preset, trials=20, master_seed=6)
    h, dh_unit, eve = harness._draws(cfg, 0, cfg.trials, [
        (harness._TAG_CHANNEL, cfg.nb, None), (harness._TAG_ERROR, cfg.nb, None),
        (harness._TAG_EVE, cfg.ne, None),
    ])
    engine = harness._run_chunk(cfg, 0, cfg.trials)
    for i in range(cfg.trials):
        rows = _single_channel_rows(cfg, i, h, dh_unit, eve)
        np.testing.assert_array_equal(rows, engine[:, :, :-1, i], err_msg=f"trial {i}")


# --------------------------------------------- deliberate algorithm differences


def _random_channels(count: int, rows: int, cols: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.stack([complex_gaussian(rng, rows, cols) for _ in range(count)])


def _unit(w: np.ndarray) -> np.ndarray:
    """Each vector of the stack ``w`` at unit norm."""
    return w / np.linalg.norm(w, axis=-1, keepdims=True)


def _eve_combiner(h_e: np.ndarray, t: np.ndarray, beta, sigma_sq: float):
    """``eve_mmse_beamformer``'s combiner for Eve's channel ``h_e`` against the
    direction ``t`` and interference beta (I - t t^H), at unit norm: it is
    the MMSE combiner up to a positive scale."""
    na = h_e.shape[1]
    chan = ChannelSet(h_ba=ChannelMatrix(np.eye(na, dtype=complex)), h_ea=ChannelMatrix(h_e),
                      sigma_b_sq=1.0, sigma_e_sq=sigma_sq, power_p=100.0)
    scheme = transmit.TxScheme(t=t, rho=0.5, power_p=100.0, target_sinr=1.0, beta=beta)
    return _unit(eve_mmse_beamformer(chan, scheme).w)


def test_stacked_lu_solve_matches_the_cholesky_solve():
    # The public beamformer, from the spectrum of Eve's Gram matrix, against
    # the oracle's Cholesky solve of her interference covariance, with 20
    # antennas against 3 interference directions: 17 of its eigenvalues are
    # zero by shape.
    h = _random_channels(40, 20, 4, seed=1)
    t = partition_stack(_random_channels(40, 4, 4, seed=2)).v1
    for i in range(len(h)):
        factor = oracles.interference_factor(t[i], 30.0)
        cholesky = oracles.mmse_combiner(h[i], t[i], factor @ factor.conj().T, 1.0)
        np.testing.assert_allclose(_eve_combiner(h[i], t[i], 30.0, 1.0), _unit(cholesky),
                                   rtol=1e-11, atol=0)


def test_stacked_solve_substitutes_the_unit_vector_for_a_zero_solution():
    h = np.zeros((2, 3, 2), dtype=complex)
    h[1] = _random_channels(1, 3, 2, seed=3)[0]
    t = np.array([1.0, 0.0], dtype=complex)
    # A scheme of zero interference and one of none take the same construction.
    # Eve's figures on an all-zero channel are checked on both of eve_link's
    # routes in test_an_all_zero_eve_channel_gets_the_stand_ins_figures.
    for beta in (0.0, None):
        np.testing.assert_array_equal(_eve_combiner(h[0], t, beta, 1.0), [1.0, 0.0, 0.0])
        np.testing.assert_allclose(_eve_combiner(h[1], t, beta, 1.0), _unit(h[1] @ t))


@pytest.mark.parametrize("sigma_sq", [1.0, 0.3, 4.0])
def test_push_through_solve_is_the_direct_solve(sigma_sq):
    # The public beamformer is the direct ne x ne solve of
    # (H Q H^H + s I) w = H t, up to a positive scale, for Eve with fewer, as
    # many and more antennas than the transmitter, with and without
    # interference.
    t = partition_stack(_random_channels(30, 4, 4, seed=5)).v1
    for ne in (2, 4, 9):
        h = _random_channels(30, ne, 4, seed=4 + ne)
        for beta in (30.0, None):
            factors = [oracles.interference_factor(x, beta) for x in t]
            cov = h @ np.stack([f @ f.conj().T for f in factors]) @ herm(h) + sigma_sq * np.eye(ne)
            direct = _unit(np.linalg.solve(cov, h @ t[..., None])[..., 0])
            got = np.stack([_eve_combiner(h[i], t[i], beta, sigma_sq) for i in range(30)])
            np.testing.assert_allclose(got, direct, rtol=1e-10, atol=1e-13 * np.abs(direct).max())


def _kernel_designs(h: np.ndarray, eve: np.ndarray, power_p: float):
    """Every kernel's design on Bob's channels ``h`` and Eve's ``eve``, at a
    reachable target and one out of reach (no interference, columns kept)."""
    na, sigma_sq = h.shape[-1], 0.01
    targets = (30.0, 1e6)
    part = partition_stack(h)
    tilde = estimate_basis(h + np.sqrt(sigma_sq) * _random_channels(len(h), *h.shape[1:], seed=9))
    e_dv1 = iid_moments(part.s, na).drift[:, None] * part.v1 * sigma_sq
    kernels = {
        "perfect": lambda *budget: artificial_noise(part.sigma1, part.v1, h, part.v1, *budget),
        "naive": lambda *budget: artificial_noise(tilde.sigma1, tilde.v1, h, part.v1,
                                                  *budget),
        "known_ecsi": lambda *budget: eve_aware(h, herm(eve) @ eve, eve.shape[1], *budget),
        "robust_fdd": lambda *budget: robust.robust_fdd(part, tilde.v1, *budget),
        "robust_tdd": lambda *budget: robust.robust_tdd(part.sigma1, part.u1, part.v1, e_dv1,
                                                        tilde.v1, *budget),
    }
    return [(name, kernel(target, power_p, 1.0)) for name, kernel in kernels.items()
            for target in targets]


@pytest.mark.parametrize("sigma_sq", [1.0, 0.3])
@pytest.mark.parametrize("ne", [2, 4, 7])
def test_spectral_combiner_is_the_push_through_solve(ne, sigma_sq):
    # perfect_csi_trial returns Eve's combiner built from the spectrum of her
    # interference covariance; it points where the oracle's Cholesky solve
    # does, at a positive real scale, with fewer, as many and more antennas
    # than the transmitter, at a reachable target and at one out of reach
    # (beta = 0).
    for k in range(12):
        na, nb = [(4, 4), (4, 2), (3, 3)][k % 3]
        chan = generate_channels(na, nb, ne, rng_seed=[61, ne, k], sigma_e_sq=sigma_sq)
        for target in (30.0, 1e6):
            scheme, _, w_e, _ = perfect_csi_trial(chan, target)
            want = oracles.mmse_combiner(chan.h_ea.entries, scheme.t, scheme.q_z, sigma_sq)
            overlap = np.vdot(want, w_e.w) / (np.linalg.norm(want) * np.linalg.norm(w_e.w))
            assert 1.0 - abs(overlap) <= 1e-12, (k, target, 1.0 - abs(overlap))
            assert abs(np.angle(overlap)) <= 1e-10, (k, target)


@pytest.mark.parametrize("sigma_sq", [1.0, 0.3])
@pytest.mark.parametrize("ne", [1, 3, 4, 8])
def test_eve_combiner_by_solve_is_the_spectral_one(ne, sigma_sq):
    # eve_link evaluates her figures at a combiner solved for from her Gram
    # stack, or in closed form from its spectrum; on every kernel's design,
    # at a reachable target and at one out of reach (beta = 0, columns
    # kept), with ne = 1, na - 1, na and 2 na, the two agree to 1e-12.  Her
    # stack carries two zero rows of padding, and the trial whose channel
    # is exactly zero gets the stand-in's figures from both.
    count, na, power_p = 40, 4, 100.0
    h = _random_channels(count, na, na, seed=31)
    eve = _random_channels(count, ne, na, seed=32 + ne)
    designs = _kernel_designs(h, eve, power_p)
    eve[0] = 0.0
    padded = np.concatenate([eve, np.zeros((count, 2, na), dtype=complex)], axis=1)
    gram = herm(eve) @ eve
    spectrum = amplitude_spectrum(padded, gram)
    idle = 0
    for name, d in designs:
        routes = []
        for route in (gram, spectrum):
            sinr, sig, interf, noise = (np.broadcast_to(x, (count,)) for x in
                                        transmit.eve_link(d, padded, route, power_p, sigma_sq))
            assert (sinr[0], sig[0], interf[0], noise[0]) == (0.0, 0.0, 0.0, sigma_sq), name
            routes.append(np.stack([sinr, sig, interf + noise]))
        solved, spectral = routes
        live = spectral[0] >= 1e-20
        assert np.all(solved[0, ~live] < 1e-20), name
        miss = np.abs(solved - spectral)[:, live] / spectral[:, live]
        assert np.all(miss <= 1e-12), (name, float(miss.max()))
        if d.beta is not None:
            idle += np.count_nonzero(d.beta == 0.0)
    # At the target out of reach all four interference kernels (perfect,
    # naive, robust_fdd, robust_tdd) design beta = 0 on every trial.
    assert idle >= 4 * count


def _oracle_eve_links(h, eve, d, power_p: float, sigma_sq: float) -> np.ndarray:
    """Eve's (SINR, signal, interference plus noise) of every row of the
    design ``d``: the oracle's LU-solved combiner and its link, row by row."""
    out = np.empty((3, len(h)))
    for r in range(len(h)):
        chan = ChannelSet(h_ba=ChannelMatrix(h[r]), h_ea=ChannelMatrix(eve[r]), sigma_b_sq=1.0,
                          sigma_e_sq=sigma_sq, power_p=power_p)
        rho = float(np.broadcast_to(d.rho, (len(h),))[r])
        t = np.broadcast_to(d.t, (len(h), h.shape[-1]))[r]
        f = oracles.interference_factor(
            t, None if d.beta is None else float(np.broadcast_to(d.beta, (len(h),))[r]))
        scheme = oracles.Scheme(t=t, rho=rho, q_z=f @ f.conj().T, power_p=power_p,
                                target_sinr=1.0, q_z_factor=f)
        got = oracles.link_sinr(eve[r], scheme, oracles.eve_mmse_beamformer(chan, scheme),
                                sigma_sq)
        out[:, r] = got.sinr, got.signal_power, got.interference_plus_noise
    return out


@pytest.mark.parametrize("preset", ["fig3_sinr_vs_target", "fig5_sigma_sweep"])
def test_link_is_the_deleted_factor_form(preset):
    # Designs store beta, and link takes the interference beta ||x - t t^H x||^2
    # for x = H^H w; designs and schemes used to store F = sqrt(beta) T', T'
    # an orthonormal basis of the directions orthogonal to t, and took
    # ||F^H x||^2.  On every kernel's designs of a block, at the preset's
    # targets and at one out of reach (beta = 0), and on eve_aware's designs
    # (beta None), the two agree to 1e-12 at Eve's matched combiner, and at
    # Bob's to 1e-12 of beta ||x||^2, the interference of a combiner that
    # sees all of it: Bob's on the perfect designs sees only a residual of
    # order epsilon squared, which the two forms round differently.
    schemes = ("perfect", "naive", "known_ecsi", "imperfect_ecsi", "robust_fdd", "robust_tdd")
    for reach in ({}, {"target_sinr_db": 60.0}):
        cfg = preset_config(preset, trials=8, master_seed=15, schemes=schemes, **reach)
        blk = harness._Block(cfg, 0, cfg.trials)
        for name in schemes:
            d = harness._DESIGNS[name](blk)
            receivers = (("bob", blk.h, d.w_b, cfg.sigma_b_sq),
                         ("eve", blk.eve, matvec(blk.eve, d.t), cfg.sigma_e_sq))
            for who, h, w, sigma_sq in receivers:
                got = transmit.link(h, d.t, d.rho * cfg.power_p, d.beta, w, sigma_sq)[2]
                grid = np.broadcast_shapes(got.shape, d.rho.shape)
                for p, i in np.ndindex(grid):
                    def at(f):
                        return f[min(p, len(f) - 1), i]
                    t, w_i = at(d.t), at(w)
                    beta = None if d.beta is None else at(d.beta)
                    factor = oracles.interference_factor(t, beta)
                    want = oracles.factor_form_interference(h[i], factor, w_i)
                    x = h[i].conj().T @ (w_i / np.linalg.norm(w_i))
                    scale = want if who == "eve" else (beta or 0.0) * np.vdot(x, x).real
                    miss = abs(np.broadcast_to(got, grid)[p, i] - want)
                    assert miss <= 1e-12 * scale, (name, who, p, i, miss / scale)
            if reach and d.beta is not None:
                assert not d.beta.any(), name
            assert (d.beta is None) == name.endswith("_ecsi"), name


@pytest.mark.parametrize("sigma_sq", [1.0, 0.3])
@pytest.mark.parametrize("shape", SHAPES + NB_BELOW_NA, ids=str)
def test_eves_closed_form_figures_are_the_oracles(shape, sigma_sq):
    # Eve's figures from her spectrum, with no combiner, against the oracle's
    # LU solve and link on every kernel's design, at a reachable target and
    # at one out of reach (beta = 0), and with and without interference
    # columns; the per-trial tolerances of the engine's comparisons.
    na, nb, ne = shape
    count, power_p = 30, 100.0
    h = _random_channels(count, nb, na, seed=[41, *shape])
    eve = _random_channels(count, ne, na, seed=[42, *shape])
    spectrum = amplitude_spectrum(eve, herm(eve) @ eve)
    for name, d in _kernel_designs(h, eve, power_p):
        sinr, sig, interf, noise = transmit.eve_link(d, eve, spectrum, power_p, sigma_sq)
        got = np.stack(np.broadcast_arrays(sinr, sig, interf + noise))
        want = _oracle_eve_links(h, eve, d, power_p, sigma_sq)
        allowed = RTOL * np.maximum(np.abs(got), np.abs(want)) + ATOL
        miss = np.abs(got - want) / allowed
        assert np.all(miss <= 1.0), (name, float(miss.max()))


def test_the_spectral_route_evaluates_a_padded_ne_axis_against_the_loop():
    # Two interference schemes on the ne axis: each draw of Eve's serves two
    # combiners, so the block evaluates her in closed form from the spectrum
    # of a stack zero-padded to her largest count, and matches the loop.
    cfg = ExperimentConfig(na=4, nb=4, ne=(1, 6, 3), target_sinr_db=15.0, sigma_h_db=-15.0,
                           trials=12, master_seed=13, schemes=("perfect", "naive", "known_ecsi"))
    blk = harness._Block(cfg, 0, cfg.trials)
    designs = {name: harness._DESIGNS[name](blk) for name in cfg.schemes}
    assert isinstance(blk.eve_gram(designs.values()), tuple)
    assert blk.eve.shape == (3, cfg.trials, 6, 4) and not blk.eve[0, :, 1:].any()
    assert_matches_loop(cfg)


@pytest.mark.parametrize("na, ne", [(4, 1), (4, 3), (5, 4), (4, 4), (4, 8)])
def test_eve_is_solved_for_only_where_the_solve_keeps_its_digits(na, ne):
    # The solve's error grows with the square of power over noise, most at
    # ne = na - 1, and from about 1e16 her loaded Gram matrix is singular.
    # So a block solves only down to the noise floor; from 1e2 to 1e20 power
    # over noise every run finishes, and each trial's SINR of Eve's is the
    # closed form's from the block's spectrum to 1e-12.
    for k in range(19):
        cfg = ExperimentConfig(na=na, nb=na, ne=ne, sigma_e_sq=10.0 ** -k, power_db=20.0,
                               schemes=("perfect",), trials=512)
        assert run_experiment(cfg).series["perfect"]["n_valid"] == (cfg.trials,)
        for lo in range(0, cfg.trials, harness.BLOCK_TRIALS):
            hi = min(lo + harness.BLOCK_TRIALS, cfg.trials)
            got = harness._run_block(cfg, lo, hi)[0, 0, 1]
            blk = harness._Block(cfg, lo, hi)
            d = harness._DESIGNS["perfect"](blk)
            solved = not isinstance(blk.eve_gram([d]), tuple)
            assert solved == (cfg.sigma_e_sq >= harness._SOLVE_NOISE_FLOOR * cfg.power_p), k
            want = transmit.eve_link(d, blk.eve, blk.eve_spectrum, cfg.power_p, cfg.sigma_e_sq)[0]
            np.testing.assert_allclose(got, want[0], rtol=1e-12, atol=0, err_msg=f"k={k}")


def test_a_vanishing_eve_noise_is_evaluated_in_closed_form():
    # Far below the floor her loaded Gram matrix is singular to working
    # precision; the block evaluates her from the spectrum instead.
    cfg = ExperimentConfig(na=4, nb=4, ne=3, sigma_e_sq=1e-100, schemes=("perfect",), trials=50)
    series = run_experiment(cfg).series["perfect"]
    assert series["n_valid"] == (50,) and np.isfinite(series["mean_sinr_e"]).all()


def _engine_eve_sinrs(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """Eve's SINR of every (point, scheme, trial) of ``cfg``, from the engine
    and from ``oracles.eve_sinr`` on the block's own draws and designs."""
    got = harness._run_chunk(cfg, 0, cfg.trials)[:, :, harness.METRICS.index("sinr_e")]
    blk = harness._Block(cfg, 0, cfg.trials)
    want = np.empty_like(got)
    for s, name in enumerate(cfg.schemes):
        d = harness._DESIGNS[name](blk)
        for p, ne in enumerate(blk.ne[:, 0]):
            eve = blk.eve[p] if blk.eve.ndim == 4 else blk.eve
            for i in range(cfg.trials):
                t, rho = (f[min(p, len(f) - 1), i] for f in (d.t, d.rho))
                beta = None if d.beta is None else d.beta[min(p, len(d.beta) - 1), i]
                want[p, s, i] = oracles.eve_sinr(eve[i, :ne], t,
                                                 oracles.interference_factor(t, beta),
                                                 rho * cfg.power_p, cfg.sigma_e_sq)
    return got, want


@pytest.mark.parametrize("ne, schemes, noises", [
    ((1, 2, 3, 4, 6), ("perfect", "naive"), (1.0, 1e-30)),
    (3, ("perfect",), (1e-30,)),
], ids=["ne_axis", "one_point"])
def test_the_engines_eve_sinr_is_the_oracles(ne, schemes, noises):
    # Her SINR over her interference covariance's own eigenpairs, whose null
    # eigenvalues are zero by shape, on an ne axis (closed form from the
    # spectrum of a padded stack) and on one point at ne = na - 1, below the
    # solve's noise floor: with ne < na her Gram matrix's null eigenvalues
    # must not count as directions she hears along.
    for sigma_e_sq in noises:
        cfg = ExperimentConfig(na=4, nb=4, ne=ne, schemes=schemes, sigma_h_db=-20.0,
                               sigma_e_sq=sigma_e_sq, trials=200 if len(schemes) > 1 else 20)
        got, want = _engine_eve_sinrs(cfg)
        miss = np.abs(got - want) / want
        assert np.all(miss <= 1e-12), (sigma_e_sq, float(miss.max()))


def test_the_single_channel_eve_sinr_is_the_oracles():
    # From 1e4 to 1e102 power over noise, with fewer, as many and more
    # antennas than the transmitter, without a warning.
    for ne in (1, 3, 4, 8):
        for sigma_sq in (1e-2, 1e-16, 1e-30, 1e-60, 1e-100):
            for k in range(20):
                chan = generate_channels(4, 4, ne, rng_seed=[71, ne, k], sigma_e_sq=sigma_sq,
                                         power_p=100.0)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    scheme, _, _, report = perfect_csi_trial(chan, 100.0)
                want = oracles.eve_sinr(chan.h_ea.entries, scheme.t,
                                        oracles.interference_factor(scheme.t, scheme.beta),
                                        scheme.data_power, sigma_sq)
                assert abs(report.sinr_e - want) <= 1e-12 * want, (ne, sigma_sq, k)


@pytest.mark.parametrize("sigma_sq", [1e-14, 1e-15, 1e-30, 1e-100])
def test_eve_mmse_beamformer_holds_at_a_vanishing_noise(sigma_sq):
    # With ne < na her interference covariance is full rank, and her Gram
    # matrix has na - ne eigenvalues that are zero by shape, which her
    # combiner must leave out.  It is built for any noise a channel set
    # accepts, with one, two and three zero eigenvalues, and at it her SINR
    # is the oracle's.
    for ne in (1, 2, 3):
        for k in range(300):
            chan = generate_channels(4, 4, ne, rng_seed=[7, k], sigma_e_sq=sigma_sq,
                                     power_p=100.0)
            scheme = transmit.design_artificial_noise(chan, partition_svd(chan.h_ba), 100.0)
            got = link_sinr(chan.h_ea, scheme, eve_mmse_beamformer(chan, scheme), sigma_sq).sinr
            want = oracles.eve_sinr(chan.h_ea.entries, scheme.t,
                                    oracles.interference_factor(scheme.t, scheme.beta),
                                    scheme.data_power, sigma_sq)
            assert abs(got - want) <= 1e-12 * want, (ne, k)


@pytest.mark.parametrize("sigma_sq", [1.0, 1e-100, 1e100])
def test_an_all_zero_eve_channel_gets_the_stand_ins_figures(sigma_sq):
    # Her combiner would be exactly zero, so both routes and the matched one
    # report the stand-in's figures: no signal, no interference, her noise.
    count, na, ne, power_p = 6, 4, 5, 100.0
    h = _random_channels(count, na, na, seed=51)
    eve = _random_channels(count, ne, na, seed=52)
    designs = _kernel_designs(h, eve, power_p)
    eve[2] = 0.0
    gram = herm(eve) @ eve
    for name, d in designs:
        for route in (gram, amplitude_spectrum(eve, gram)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                figures = transmit.eve_link(d, eve, route, power_p, sigma_sq)
            sinr, sig, interf, noise = (np.broadcast_to(x, (count,)) for x in figures)
            assert (sinr[2], sig[2], interf[2], noise[2]) == (0.0, 0.0, 0.0, sigma_sq), name
            assert np.all(sig[[0, 1, 3, 4, 5]] > 0.0), name


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(
    na=st.integers(2, 6),
    ne=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    power_db=st.floats(-1000.0, 1000.0),
    noise_exp=st.floats(-100.0, 100.0),
    target_db=st.floats(-30.0, 60.0),
    stale=st.booleans(),
)
def test_eves_interference_is_never_negative(na, ne, seed, power_db, noise_exp, target_db, stale):
    # Every term of the Lagrange form is nonnegative, so over the whole range
    # of powers and noise a config accepts her interference is >= 0 and her
    # interference plus noise >= sigma_e^2, with no warning and no overflow.
    count = 4
    h = _random_channels(count, na, na, seed=seed)
    eve = _random_channels(count, ne, na, seed=seed + 1)
    power_p, sigma_sq = 10.0 ** (power_db / 10.0), 10.0 ** noise_exp
    tx = partition_stack(h + 0.1 * _random_channels(count, na, na, seed=seed + 2) if stale else h)
    d = artificial_noise(tx.sigma1, tx.v1, h, partition_stack(h).v1, 10.0 ** (target_db / 10.0),
                         power_p, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sinr, sig, interf, noise = transmit.eve_link(
            d, eve, amplitude_spectrum(eve, herm(eve) @ eve), power_p, sigma_sq)
    for x in (sinr, sig, interf, noise):
        assert np.all(np.isfinite(x))
    assert np.all(interf >= 0.0)
    assert np.all(interf + noise >= sigma_sq)


def _eve_linear_algebra(monkeypatch, cfg: ExperimentConfig, n: int):
    """Run one block of ``cfg``'s first ``n`` trials and return how many
    ``eigh`` calls took Eve's Gram matrices, the number of those matrices
    (her distinct draws: one per trial, or one per point and trial on the ne
    axis) and the number of matrices in each ``solve``.  The public
    beamformer is refused."""
    streams = [(harness._TAG_EVE, ne, p if isinstance(cfg.ne, tuple) else None)
               for p, ne in enumerate(harness._as_tuple(cfg.ne))]
    gram = np.stack([herm(x) @ x for x in harness._draws(cfg, 0, n, streams)])
    seen, solved = [], []
    eigh, solve = np.linalg.eigh, np.linalg.solve

    def recording(a, *args, **kwargs):
        seen.append(a.size == gram.size and np.array_equal(a.reshape(gram.shape), gram))
        return eigh(a, *args, **kwargs)

    def solving(a, b):
        solved.append(math.prod(a.shape[:-2]))
        return solve(a, b)

    def refused(*args, **kwargs):
        raise AssertionError("the evaluation built a public Eve combiner")

    monkeypatch.setattr(np.linalg, "eigh", recording)
    monkeypatch.setattr(np.linalg, "solve", solving)
    monkeypatch.setattr(transmit, "eve_mmse_beamformer", refused)
    harness._run_block(cfg, 0, n)
    return sum(seen), len(gram) * n, solved


@pytest.mark.parametrize("preset, n, rows", [("fig3_sinr_vs_target", 48, 48)])
def test_a_block_decomposes_each_eve_draw_once_and_solves_nothing(monkeypatch, preset, n, rows):
    # On the target axis each draw of Eve's serves 24 combiners against
    # interference (6 points, 4 schemes): one eigh of her Gram matrices per
    # block, one per trial, and her combiners take no solve.
    cfg = preset_config(preset, trials=n, master_seed=4)
    assert _eve_linear_algebra(monkeypatch, cfg, n) == (1, rows, [])


@pytest.mark.parametrize("preset, n, rows", [("fig1_ne_sweep", 6, 20 * 6), ("default", 9, 9)])
def test_a_block_solves_for_eve_when_a_draw_serves_one_combiner(
        monkeypatch, preset, n, rows):
    # fig1 draws Eve anew at each of its 20 points and only perfect sends
    # interference; the default config has one point and one scheme.  Each
    # draw of hers then serves one combiner, so no eigh takes her Gram
    # matrices and her combiners are one stacked solve over every row.
    cfg = (ExperimentConfig(trials=n, master_seed=4) if preset == "default"
           else preset_config(preset, trials=n, master_seed=4))
    assert _eve_linear_algebra(monkeypatch, cfg, n) == (0, rows, [rows])


@pytest.mark.parametrize("propagate", [False, True])
@pytest.mark.parametrize("preset", ["fig3_sinr_vs_target", "fig5_sigma_sweep"])
def test_a_block_makes_no_svd_of_an_estimate(monkeypatch, preset, propagate):
    # A block's one SVD is of Bob's true channels; the transmitter's
    # estimates H + sqrt(sigma^2) dH are decomposed by one Gram eigh, whose
    # sigma1 and dominant direction are the SVD's to round-off.  robust_fdd
    # designs from that one SVD; under propagation it is not called, and
    # artificial_noise is handed the estimates themselves as Bob's channels.
    cfg = preset_config(preset, trials=6, master_seed=17, propagate_through_estimate=propagate)
    h, dh_unit = harness._draws(cfg, 0, cfg.trials, [
        (harness._TAG_CHANNEL, cfg.nb, None), (harness._TAG_ERROR, cfg.nb, None)])
    levels = np.array([float(from_db(x)) for x in harness._as_tuple(cfg.sigma_h_db)])
    estimates = h + np.sqrt(levels)[:, None, None, None] * dh_unit
    svds, fdd_svds, naive_channels = [], [], []
    svd, fdd, naive = np.linalg.svd, harness.robust_fdd, harness.artificial_noise
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: svds.append(a) or svd(a, **kw))
    monkeypatch.setattr(harness, "robust_fdd", lambda part, *a: fdd_svds.append(part) or fdd(
        part, *a))
    monkeypatch.setattr(harness, "artificial_noise", lambda s1, t, hb, *a: naive_channels.append(
        hb) or naive(s1, t, hb, *a))
    harness._run_block(cfg, 0, cfg.trials)
    monkeypatch.undo()
    assert len(svds) == 1 and np.array_equal(svds[0], h)
    assert len(fdd_svds) == (0 if propagate else 1)
    for part in fdd_svds:
        for got, want in zip(part, partition_stack(h)):
            np.testing.assert_array_equal(got, want)
    channels = [h[None] for name in cfg.schemes if name in ("perfect", "naive")]
    channels += [estimates] if propagate else []
    assert len(naive_channels) == len(channels)
    for got, want in zip(naive_channels, channels):
        np.testing.assert_array_equal(got, want)
    tilde, want = harness._Block(cfg, 0, cfg.trials).tilde, partition_stack(estimates)
    assert np.abs(tilde.sigma1 / want.sigma1 - 1.0).max() <= 1e-13
    assert (1.0 - np.abs(vdot(tilde.v1, want.v1))).max() <= 1e-14


def test_eve_mmse_beamformer_agrees_with_the_spectral_route():
    # The public beamformer, built from her cached spectrum, gives on the
    # kernels' designs the SINR the trials report in closed form from it.
    checked = 0
    for k in range(24):
        na, nb, ne = [(4, 4, 2), (4, 4, 4), (3, 3, 6), (5, 2, 5)][k % 4]
        chan = generate_channels(na, nb, ne, rng_seed=[9, k], sigma_e_sq=(1.0, 0.3)[k % 2])
        svd = partition_svd(chan.h_ba)
        err = 0.1 * _random_channels(1, nb, na, seed=30 + k)[0]
        tilde = estimate_basis(chan.h_ba.entries + err)
        mom = compute_moments(svd, CsiErrorModel.iid(0.01))
        he = chan.h_ea.entries
        for target in (30.0, 1e6):
            known_design = eve_aware(chan.h_ba.entries[None], (herm(he) @ he)[None], ne, target,
                                     chan.power_p, chan.sigma_b_sq)
            perfect = perfect_csi_trial(chan, target, svd=svd)
            naive = naive_trial(chan, err, target, svd=svd)
            fdd = run_trial(chan, robust._fdd_trial(chan, tilde, target)[2], target)
            tdd = run_trial(chan, robust._tdd_trial(chan, svd, mom, tilde, target)[2], target)
            aware = run_trial(chan, known_design, target)
            trials = [(perfect[0], perfect[3]), (naive[3], naive[0]), (fdd[0], fdd[1]),
                      (tdd[0], tdd[1]), (aware[0], aware[1])]
            for scheme, report in trials:
                want = link_sinr(chan.h_ea, scheme, eve_mmse_beamformer(chan, scheme),
                                 chan.sigma_e_sq).sinr
                if want < 1e-20:
                    assert report.sinr_e < 1e-20
                    continue
                assert abs(report.sinr_e - want) <= 1e-12 * want
                checked += 1
    assert checked > 150


def test_vectorised_root_solve_reproduces_brentq():
    # Newton's roots agree with scipy's brentq on the same closed-form curve
    # within brentq's own tolerance, with the same outage flags, and a
    # single bracket is solved exactly as it is inside a call with six
    # others.  -150 dB is met already at the floor fraction.
    targets = 10.0 ** (np.array([-150.0, -5.0, 0.0, 10.0, 20.0, 30.0, 45.0]) / 10.0)
    for k in range(60):
        na, nb = [(5, 5), (4, 2), (2, 1), (8, 8)][k % 4]
        chan = generate_channels(na, nb, 2, rng_seed=[5, k])
        dh = 0.3 * _random_channels(1, nb, na, seed=k)[0]
        tilde = partition_svd(chan.h_ba.entries + dh)
        lam, weights = oracles.fdd_curve(partition_svd(chan.h_ba), tilde.v1)
        rho, outage = solve_fractions(lam[None], weights[None], chan.power_p, na, 1.0, targets)
        for j, target in enumerate(targets):
            want_rho, want_outage = oracles.solve_fraction(
                lambda r: float(oracles.fdd_gains(r, lam, weights, chan.power_p, na, 1.0)), target
            )
            assert bool(outage[j]) == want_outage
            assert abs(rho[j] - want_rho) <= oracles._XTOL + 4 * oracles._RTOL * want_rho
            single = solve_fractions(lam[None], weights[None], chan.power_p, na, 1.0, target)
            assert np.array_equal(single[0], rho[j:j + 1])
            assert np.array_equal(single[1], outage[j:j + 1])


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(
    nb=st.integers(1, 9),
    curves=st.lists(
        st.lists(st.tuples(st.floats(0.0, 1e3), st.floats(0.0, 1e3)), min_size=1, max_size=9),
        min_size=1, max_size=4,
    ),
    power_db=st.floats(-30.0, 30.0),
    noise_db=st.floats(-30.0, 30.0),
    target_db=st.floats(-60.0, 60.0),
)
def test_root_solve_meets_the_target_at_the_smallest_fraction(
    nb, curves, power_db, noise_db, target_db
):
    # Curves of na squared singular values, nb of them nonzero, and
    # overlaps of a unit direction with their singular vectors (all on the
    # last one where none is drawn) over wide power, noise and target
    # ranges: no warning, outage exactly where the full budget falls short,
    # and otherwise the floor or the crossing within 1e-12 relative in rho.
    # The bound is on rho, not on g: where the curve is steep, one unit in
    # the last place of rho moves g by more than 1e-12.
    na = min(len(c) for c in curves)
    pairs = np.array([c[:na] for c in curves])
    lam = np.where(np.arange(na) < nb, pairs[..., 0], 0.0)
    weights, total = pairs[..., 1], pairs[..., 1].sum(axis=-1, keepdims=True)
    weights = np.where(total > 0.0, weights / np.where(total > 0.0, total, 1.0),
                       np.arange(na) == na - 1)
    power_p, sigma_sq, target = 10.0 ** (np.array([power_db, noise_db, target_db]) / 10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho, outage = solve_fractions(lam, weights, power_p, na, sigma_sq, target)
        lit = (weights * lam).any(axis=-1)
        full = np.zeros(len(lam))
        full[lit] = oracles.fdd_gains(np.ones(lit.sum()), lam[lit], weights[lit], power_p, na,
                                      sigma_sq)
        np.testing.assert_array_equal(outage, full < target)
        solved = ~outage & (rho != robust._RHO_FLOOR)
        above = oracles.fdd_gains(rho[solved] * (1 + 1e-12), lam[solved], weights[solved],
                                  power_p, na, sigma_sq)
        below = oracles.fdd_gains(rho[solved] * (1 - 1e-12), lam[solved], weights[solved],
                                  power_p, na, sigma_sq)
    assert np.all(rho[outage] == 1.0)
    assert np.all((rho >= robust._RHO_FLOOR) & (rho <= 1.0))
    assert np.all(above >= target)
    assert np.all(below < target)


@pytest.mark.parametrize("na, lam, weights, power_p, sigma_sq, target", [
    (6, [11.56168248, 6.77893452, 1.24700846, 0.0, 0.0, 0.0],
     [1.0, 2.12815259e-31, 4.81482486e-32, 1.51787354e-32, 1.59055200e-32, 2.23407874e-32],
     1.8745716682840442e21, 7.293467837975519e-94, 7.167937624962466e32),
    (3, [5.42777479, 1.27907078, 0.0], [1.0, 1.10933565e-31, 3.75964471e-32],
     4.082443968346747e93, 3.5816388092810415e-100, 8.058838553534834e43),
], ids=["crossing-far-below-1", "crossing-next-to-1"])
def test_the_root_solve_crosses_where_the_gain_turns_steeply_up(
        na, lam, weights, power_p, sigma_sq, target):
    # A direction on Bob's strongest singular vector but for 1e-31 of its
    # weight, at power over noise of 1e114 and 1e193: the gain climbs by
    # tens of orders of magnitude next to rho = 1.  From there a tangent of
    # the gain moves by less than an ulp (the first case's crossing is at
    # 0.88), and the pair terms of m', formed in the wrong order, underflow
    # to zero and throw the second case's step far below its crossing.
    lam, weights = np.array(lam), np.array(weights)
    rho, outage = solve_fractions(lam[None], weights[None], power_p, na, sigma_sq, target)
    want, want_outage = oracles.solve_fraction(
        lambda r: float(oracles.fdd_gains(r, lam, weights, power_p, na, sigma_sq)), target)
    assert not outage[0] and not want_outage
    assert abs(rho[0] - want) <= oracles._XTOL + 4 * oracles._RTOL * want, (rho[0], want)


def _steps_alone(lam, weights, power_p, na, target, monkeypatch):
    """The Newton steps one entry takes before it settles on its own: the
    fewest ``robust._MAXITER`` that solves it as a batch of one."""
    for count in range(1, 101):
        monkeypatch.setattr(robust, "_MAXITER", count)
        try:
            solve_fractions(lam[None], weights[None], power_p, na, 1.0, target)
            return count
        except RuntimeError:
            continue
    raise AssertionError("no entry should need more than 100 steps")


def test_retired_entries_keep_their_batch_of_one_values(monkeypatch):
    # A batch of four channels at eight targets, whose entries settle after
    # different numbers of steps and so retire on different iterations:
    # each entry, retired early or late, is its batch of one bit for bit.
    na, curves = 5, []
    for k in range(4):
        chan = generate_channels(na, na, 2, rng_seed=[11, k])
        dh = 0.3 * _random_channels(1, na, na, seed=40 + k)[0]
        curves.append(oracles.fdd_curve(partition_svd(chan.h_ba),
                                        partition_svd(chan.h_ba.entries + dh).v1))
    lam, weights = (np.array(x)[:, None] for x in zip(*curves))
    targets = 10.0 ** (np.linspace(-10.0, 30.0, 8) / 10.0)
    rho, outage = solve_fractions(lam, weights, 100.0, na, 1.0, targets)
    assert rho.shape == outage.shape == (4, 8)
    for (c, t), value in np.ndenumerate(rho):
        single = solve_fractions(lam[c], weights[c], 100.0, na, 1.0, targets[t])
        assert single[0][0] == value and single[1][0] == outage[c, t], (c, t)
    steps = {_steps_alone(lam[c, 0], weights[c, 0], 100.0, na, targets[t], monkeypatch)
             for c, t in zip(*np.nonzero(~outage))}
    assert len(steps) >= 3, steps


def test_a_batch_with_nothing_to_solve_returns_at_once(monkeypatch):
    # An empty batch, and one whose every entry is an outage (no gain, or a
    # target out of reach), return before any Newton step: they return even
    # when no step is allowed, every outage entry at (1.0, outage).
    monkeypatch.setattr(robust, "_MAXITER", 0)
    rho, outage = solve_fractions(np.zeros((0, 4)), np.zeros((0, 4)), 10.0, 4, 1.0, 3.0)
    assert rho.shape == outage.shape == (0,)
    lam = np.array([[2.0, 1.0, 0.5, 0.0], [2.0, 1.0, 0.5, 0.0]])
    weights = np.array([[0.0, 0.0, 0.0, 1.0], [0.4, 0.3, 0.2, 0.1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho, outage = solve_fractions(lam[:, None], weights[:, None], 10.0, 4, 1.0, [20.0, 1e3])
    np.testing.assert_array_equal(outage, np.ones((2, 2), dtype=bool))
    np.testing.assert_array_equal(rho, np.ones((2, 2)))


def test_a_curve_without_weight_is_an_outage():
    # A direction in Bob's null space, all its weight past his singular
    # values, has gain 0 at every fraction: an outage, solved next to an
    # ordinary row without a division by zero.
    lam = np.array([[2.0, 1.0, 0.5, 0.0], [2.0, 1.0, 0.5, 0.0]])
    weights = np.array([[0.0, 0.0, 0.0, 1.0], [0.4, 0.3, 0.2, 0.1]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rho, outage = solve_fractions(lam, weights, 10.0, 4, 1.0, 3.0)
    np.testing.assert_array_equal(outage, [True, False])
    assert rho[0] == 1.0 and 0.0 < rho[1] < 1.0


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(
    na=st.integers(1, 6),
    short=st.integers(0, 5),
    seed=st.integers(0, 2**16),
    rows=st.lists(st.tuples(st.floats(-3000.0, 3000.0), st.floats(-3000.0, 3000.0)),
                  min_size=1, max_size=4),
    power_db=st.floats(-1000.0, 1000.0),
    noise_exp=st.floats(-100.0, 100.0),
)
def test_the_closed_form_is_the_leak_eigh_route(na, short, seed, rows, power_db, noise_exp):
    # robust_fdd over Bob's SVD against the eigh of the leak it replaced,
    # at error levels and targets (dB) from -3000 to 3000 and power and
    # noise across the ranges a config accepts.  Each row's fraction is
    # the brentq root of the eigh route's curve within brentq's tolerance
    # plus that route's own round-off: its eigenvalues and weights are off
    # by about n eps ||H||^2 and n eps ||H t||^2, which moves its gain by up
    # to n eps (1 + beta ||H||^2 / sigma^2) relative, and a fraction by no
    # more than its gain.  The outage flags are equal, and every row of the
    # batch is its batch of one bit for bit.
    nb = max(1, na - short)
    power_p, sigma_sq = float(from_db(power_db)), 10.0 ** noise_exp
    levels, targets = (np.array([float(from_db(x)) for x in col]) for col in zip(*rows))
    h = _random_channels(len(rows), nb, na, seed=[71, seed])
    dh = _random_channels(len(rows), nb, na, seed=[72, seed])
    part = partition_stack(h)
    t = estimate_basis(h + np.sqrt(levels)[:, None, None] * dh).v1
    d = robust.robust_fdd(part, t, targets, power_p, sigma_sq)
    eps = np.finfo(float).eps
    for r in range(len(rows)):
        lam, _, _, weights = oracles.fdd_spectrum(h[r], t[r])
        want, outage = oracles.solve_fraction(
            lambda x: float(oracles.rank1_gains(x, lam, weights, power_p, na, sigma_sq)),
            targets[r])
        assert bool(d.outage[r]) == outage
        rho = d.rho[r]
        beta = transmit.noise_share(min(rho, want), power_p, na)
        allowed = (oracles._XTOL + 4 * oracles._RTOL * want
                   + max(rho, want) * na * eps * (1.0 + beta * part.s[r, 0] ** 2 / sigma_sq))
        assert abs(rho - want) <= allowed, (r, rho, want)
        single = robust.robust_fdd(SvdStack(*(x[r:r + 1] for x in part)), t[r:r + 1],
                                   targets[r], power_p, sigma_sq)
        for field, got, one in zip(transmit.Design._fields, d, single):
            np.testing.assert_array_equal(got[r:r + 1], one, err_msg=field)


@pytest.mark.parametrize("shape", [(1, 1), (1, 3), (2, 2), (3, 5), (5, 5)], ids=str)
def test_iid_closed_form_matches_compute_moments(shape):
    # compute_moments takes its stored i.i.d. fields from the closed form,
    # scaled as the engine scales it; the general expansion, reached through
    # a white full covariance, agrees with it to round-off.
    nb, na = shape
    sigma_sq = 0.03
    for k in range(10):
        svd = partition_svd(_random_channels(1, nb, na, seed=100 + k)[0])
        closed = iid_moments(svd.s, na)
        stored = compute_moments(svd, CsiErrorModel.iid(sigma_sq))
        np.testing.assert_array_equal(stored.e_dv1, (closed.drift * svd.v1) * sigma_sq)
        assert stored.e_dsigma1 == closed.e_dsigma1 * sigma_sq
        assert stored.e_dsigma1_sq == closed.e_dsigma1_sq * sigma_sq
        general = compute_moments(svd, CsiErrorModel.full(sigma_sq * np.eye(nb * na)))
        np.testing.assert_allclose(general.e_dv1, stored.e_dv1, rtol=1e-12, atol=1e-15)
        assert general.e_dsigma1 == pytest.approx(stored.e_dsigma1, rel=1e-12)
        assert general.e_dsigma1_sq == pytest.approx(stored.e_dsigma1_sq, rel=1e-12)


def test_naive_terms_on_library_moments_are_the_engines():
    # On a fig2 block, the closed-form terms from compute_moments are the
    # analytic_naive scheme's numerator and denominator at every level.
    cfg = preset_config("fig2_prediction", trials=16, master_seed=8)
    blk = harness._Block(cfg, 0, cfg.trials)
    rows = harness._analytic_naive(blk)
    target = float(from_db(cfg.target_sinr_db))
    checked = 0
    for i in range(cfg.trials):
        chan = ChannelSet(h_ba=ChannelMatrix(blk.h[i]), h_ea=ChannelMatrix(blk.eve[i]),
                          sigma_b_sq=cfg.sigma_b_sq, sigma_e_sq=cfg.sigma_e_sq,
                          power_p=cfg.power_p)
        svd = partition_svd(chan.h_ba)
        for p, sigma_db in enumerate(cfg.sigma_h_db):
            mom = compute_moments(svd, CsiErrorModel.iid(float(from_db(sigma_db))))
            num, den = naive_sinr_terms(svd, mom, chan, target)
            assert (num, den) == (rows[4, p, i], rows[5, p, i]), (i, p)
            checked += 1
    assert checked == cfg.trials * len(cfg.sigma_h_db)


def test_partition_stack_is_partition_svd_per_matrix():
    h = _random_channels(9, 3, 5, seed=7)
    stack = partition_stack(h)
    for i in range(len(h)):
        single = partition_svd(h[i])
        assert isinstance(single, SvdStack)
        for got, want in zip(single, stack):
            assert got.shape == want.shape[1:]
            np.testing.assert_array_equal(got, want[i])
        np.testing.assert_array_equal(single.v[:, 1:], stack.v[i, :, 1:])
        assert single.sigma1 == stack.sigma1[i]
    rebuilt = (stack.u * stack.s[..., None, :]) @ stack.v[..., :3].conj().swapaxes(-1, -2)
    np.testing.assert_allclose(rebuilt, h, atol=1e-13)


@pytest.mark.parametrize("shape", [(5,), (2, 3, 5), (1, 1, 3, 5)], ids=str)
def test_partition_svd_refuses_anything_but_one_matrix(shape):
    with pytest.raises(DimensionError):
        partition_svd(np.ones(shape, dtype=complex))


def test_partition_stack_refuses_a_rank_deficient_member():
    h = _random_channels(4, 2, 3, seed=8)
    h[2, 1] = h[2, 0]
    with pytest.raises(DegenerateChannelError):
        partition_stack(h)


def _eve_aware_direction(hb, he):
    """The stacked directions for one channel pair."""
    return eve_aware_directions((hb.conj().T @ hb)[None], (he.conj().T @ he)[None], he.shape[0],
                                hb.shape[0])[0]


def _assert_the_oracles_direction(hb, he, got) -> str:
    """``got`` is the scipy oracle's direction for the pair (hb, he) and
    returns the route the pair takes.  Reciprocal rows (nb = na, ne <= na - 2)
    are scipy's bit for bit; every other row is the oracle's up to phase,
    with at least its generalized Rayleigh quotient where Eve has full rank
    and in her null space where she does not."""
    want = oracles.eve_aware_direction(hb, he)
    (nb, na), ne = hb.shape, he.shape[0]
    if nb == na and ne <= na - 2:
        np.testing.assert_array_equal(got, want)
        return "reciprocal"
    assert 1.0 - abs(np.vdot(want, got)) <= 1e-12
    if np.linalg.matrix_rank(he) == na:
        a, b = herm(hb) @ hb, herm(he) @ he
        def quotient(t):
            return np.real(np.vdot(t, a @ t)) / np.real(np.vdot(t, b @ t))
        assert quotient(got) >= quotient(want) * (1.0 - 1e-10)
        return "whitened"
    _assert_null_space_direction(hb, he, got, want)
    if nb < na:
        return "null space by shape" if ne < na else "null space by rank"
    return "one null dimension" if ne == na - 1 else "rank-deficient Eve"


def test_eve_aware_direction_is_the_scalar_design():
    routes = set()
    for na, nb, ne in [(3, 3, 4), (4, 4, 4), (4, 4, 3), (4, 4, 2), (4, 2, 2)]:
        hb, he = _random_channels(1, nb, na, seed=9)[0], _random_channels(1, ne, na, seed=10)[0]
        got = _eve_aware_direction(hb, he)
        routes.add(_assert_the_oracles_direction(hb, he, got))
        chan = ChannelSet(h_ba=ChannelMatrix(hb), h_ea=ChannelMatrix(he), sigma_b_sq=1.0,
                          sigma_e_sq=1.0, power_p=100.0)
        np.testing.assert_array_equal(design_known_ecsi(chan, he, 10.0).t, got)
    assert routes == {"whitened", "one null dimension", "reciprocal", "null space by shape"}


def _eve_pairs(na: int, nb: int, ne: int, seed: int, count: int = 6):
    """Channel pairs of one shape: generic ones, and from ne >= na on also
    a rank-deficient Eve, which forces the reciprocal problem or her null
    space."""
    hb = _random_channels(count, nb, na, seed=seed)
    he = _random_channels(count, ne, na, seed=seed + 1)
    if ne >= na > 1:
        he[count // 2:, :, -1] = he[count // 2:, :, 0]
    return hb, he


def _assert_null_space_direction(hb, he, got, want):
    """``got`` lies in Eve's null space N, is the oracle's ``want`` up to
    phase, and its gain to the intended receiver is the top eigenvalue of
    N^H A N."""
    assert np.linalg.norm(he @ got) ** 2 <= 1e-12 * np.linalg.norm(he) ** 2
    assert 1.0 - abs(np.vdot(want, got)) <= 1e-12
    null = scipy.linalg.null_space(he)
    best = np.linalg.eigvalsh(herm(hb @ null) @ (hb @ null))[-1]
    assert np.linalg.norm(hb @ got) ** 2 == pytest.approx(best, rel=1e-10)


@pytest.mark.parametrize("na", range(1, 7))
def test_stacked_eve_aware_directions_are_the_per_matrix_eigh(na):
    # Every (nb <= na, ne) shape, each row against its batch of one bit for
    # bit and against the scipy oracle: the reciprocal rows (nb = na and
    # ne <= na - 2) bit for bit, the rest up to phase.  Where Eve has full
    # rank the whitened direction is the oracle's generalized eigenvector.
    # Where she has one null dimension, or nb < na and a rank below na (by
    # shape, or by a duplicated column at ne >= na even where Bob's singular
    # Gram matrix happens to pass a Cholesky factorization), the direction
    # is Bob's strongest in her null space.  A rank-deficient Eve with
    # ne >= na and nb = na is nulled whether or not her Gram matrix factors.
    outcomes = set()
    for nb in range(1, na + 1):
        for ne in range(1, 11):
            hb, he = _eve_pairs(na, nb, ne, seed=100 * na + 10 * nb + ne)
            got = eve_aware_directions(hb.conj().swapaxes(1, 2) @ hb,
                                       he.conj().swapaxes(1, 2) @ he, ne, nb)
            for b, e, g in zip(hb, he, got):
                np.testing.assert_array_equal(_eve_aware_direction(b, e), g)
                outcomes.add(_assert_the_oracles_direction(b, e, g))
    routes = {"whitened", "null space by shape", "null space by rank", "one null dimension",
              "rank-deficient Eve", "reciprocal"}
    assert outcomes == {1: {"whitened"}, 2: routes - {"reciprocal"}}.get(na, routes)


def test_a_stack_that_fails_to_factor_routes_each_row_on_its_own():
    # Generic pairs share a stack with rank-deficient Eves (a duplicated
    # column, nb = na, ne >= na), some of whose Gram matrices fail to factor,
    # so the stacked Cholesky raises.  Each row is still its batch of one bit
    # for bit, and a row whose own factorization fails nulls Eve.
    na = 4
    hb = _random_channels(24, na, na, seed=31)
    he = _random_channels(24, 6, na, seed=32)
    he[1::2, :, -1] = he[1::2, :, 0]
    a, b = hb.conj().swapaxes(1, 2) @ hb, he.conj().swapaxes(1, 2) @ he
    fails = np.zeros(len(b), dtype=bool)
    for i, m in enumerate(b):
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            fails[i] = True
    assert fails.any() and not fails[::2].any()
    got = eve_aware_directions(a, b, 6, na)
    for i in range(len(b)):
        np.testing.assert_array_equal(eve_aware_directions(a[i:i + 1], b[i:i + 1], 6, na)[0],
                                      got[i])
        _assert_the_oracles_direction(hb[i], he[i], got[i])
        if fails[i]:
            assert np.linalg.norm(he[i] @ got[i]) ** 2 <= 1e-12 * np.linalg.norm(he[i]) ** 2


def test_no_bob_gain_in_a_rank_deficient_eves_null_space_is_refused():
    hb, he = _eve_pairs(4, 2, 5, seed=7)
    a = np.zeros_like(hb.conj().swapaxes(1, 2) @ hb)
    with pytest.raises(DegenerateChannelError, match="null space"):
        eve_aware_directions(a, he.conj().swapaxes(1, 2) @ he, 5, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_eve_aware_directions_refuse_a_non_finite_gram(bad):
    a = np.tile(np.eye(3, dtype=complex), (4, 1, 1))
    b = a.copy()
    b[2, 1, 1] = bad
    with pytest.raises(ValueError):
        eve_aware_directions(a, b, 3, 3)
    with pytest.raises(ValueError):
        eve_aware_directions(b, a, 1, 3)
    with pytest.raises(ValueError):
        eve_aware_directions(b, a, 1, 2)


@pytest.mark.parametrize("preset", ["fig3_sinr_vs_target", "fig4_secrecy", "fig5_sigma_sweep"])
def test_the_statistical_combiner_is_closed_form_on_the_sweeps(monkeypatch, preset):
    # For i.i.d. error the expected interference is diagonal in Bob's left
    # singular vectors and the expected signature lies along u1, so the
    # engine builds his combiner as a multiple of u1 with no eigh.  It must
    # be the oracle's eigh-whitened combiner to round-off, and never loaded.
    cfg = preset_config(preset, trials=6, master_seed=14)
    blk = harness._Block(cfg, 0, cfg.trials)
    part, e_dv1 = blk.part, blk.e_dv1
    args = (part.sigma1[None], part.u1[None], part.v1[None], e_dv1, blk.tilde.v1,
            *blk.budget)
    eighs = []
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, fn=np.linalg.eigh: eighs.append(a) or fn(*a))
    d = robust.robust_tdd(*args)
    monkeypatch.undo()
    assert eighs == []
    for p, i in np.ndindex(d.rho.shape):
        w = d.w_b[p, i]
        assert 1.0 - abs(np.vdot(w / np.linalg.norm(w), part.u1[i])) <= 1e-14
        beta = transmit.noise_share(d.rho[p, i], cfg.power_p, cfg.na)
        want, loaded = oracles.tdd_combiner(blk.h[i], part.sigma1[i], part.u1[i], part.v1[i],
                                            e_dv1[min(p, len(e_dv1) - 1), i], beta,
                                            cfg.sigma_b_sq)
        assert not loaded
        assert np.linalg.norm(w - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("propagate", [False, True])
@pytest.mark.parametrize("preset", ["fig3_sinr_vs_target", "fig4_secrecy", "fig5_sigma_sweep"])
def test_the_exact_knowledge_receiver_is_closed_form_on_the_sweeps(monkeypatch, preset,
                                                                   propagate):
    # The exact-knowledge design comes from the block's SVD of Bob's
    # channels, or under propagation is the naive design on the estimates,
    # with no eigh.  Its fractions are the brentq roots of the oracle's
    # eigh-of-the-leak curve, through his channel or the estimate, and his
    # combiner is the oracle's whitened one at a positive scale.
    cfg = preset_config(preset, trials=6, master_seed=14, propagate_through_estimate=propagate)
    blk = harness._Block(cfg, 0, cfg.trials)
    tilde = blk.tilde
    eighs = []
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, fn=np.linalg.eigh: eighs.append(a) or fn(*a))
    d = harness._DESIGNS["robust_fdd"](blk)
    monkeypatch.undo()
    assert eighs == []
    through = blk.estimate if propagate else blk.h[None]
    for p, i in np.ndindex(d.rho.shape):
        h, t = through[min(p, len(through) - 1), i], tilde.v1[min(p, len(tilde.v1) - 1), i]
        target = blk.point_targets[min(p, len(blk.point_targets) - 1), 0]
        lam, evecs, signature, weights = oracles.fdd_spectrum(h, t)
        want, outage = oracles.solve_fraction(lambda r: float(oracles.rank1_gains(
            r, lam, weights, cfg.power_p, cfg.na, cfg.sigma_b_sq)), target)
        assert d.outage[p, i] == outage
        assert abs(d.rho[p, i] - want) <= 1e-12 * want, (p, i)
        beta = transmit.noise_share(d.rho[p, i], cfg.power_p, cfg.na)
        w = robust.whitened_combiner(evecs, lam, signature, beta, cfg.sigma_b_sq)
        got = d.w_b[min(p, len(d.w_b) - 1), i]
        overlap = np.vdot(w, got) / (np.linalg.norm(w) * np.linalg.norm(got))
        assert 1.0 - abs(overlap) <= 1e-14 and abs(np.angle(overlap)) <= 1e-7, (p, i)


# ------------------------------------------------------------ draws and reduction


@pytest.mark.parametrize("point", [None, 3])
@pytest.mark.parametrize("gamma", [0.0, 0.05, 1.0])
def test_stacked_draws_are_the_per_trial_streams(point, gamma):
    cfg = ExperimentConfig(na=4, nb=3, ne=5, gamma_ecsi=gamma, master_seed=2**62 + 9)
    lo, hi = 7, 19
    eve, fresh = harness._draws(
        cfg, lo, hi, [(harness._TAG_EVE, 5, point), (harness._TAG_ECSI, 5, point)]
    )
    want = np.stack([
        complex_gaussian(oracles._rng(cfg, harness._TAG_EVE, trial, point), 5, cfg.na)
        for trial in range(lo, hi)
    ])
    np.testing.assert_array_equal(eve, want)
    blend = np.stack([
        perturb_ecsi(h, gamma, oracles._seed(cfg, harness._TAG_ECSI, lo + i, point)).entries
        for i, h in enumerate(eve)
    ])
    np.testing.assert_array_equal(harness._blend(cfg, eve, fresh), blend)


_TAGS = (harness._TAG_CHANNEL, harness._TAG_EVE, harness._TAG_ERROR, harness._TAG_ECSI)


@pytest.mark.parametrize(
    "master", [0, 1, 2**32 - 1, 2**32, 2**62 + 9, 2**63 - 1, 2**64 + 3]
)
def test_seed_derivation_is_numpys(master):
    """Every stream's seed words are numpy's own for its SeedSequence
    entropy, and seed PCG64 to numpy's own state.

    The entropy runs from 3 words (a one-word master seed, no point) to 6
    (a three-word master seed with a point); trial 2**32 + 5 adds rows
    whose trial takes two words.  Each trial's rows of every tag and point
    are derived in one pass.
    """
    cfg = ExperimentConfig(master_seed=master)
    streams = [(tag, 1, point) for tag in _TAGS for point in (None, 0, 19)]
    for trial in (0, 1, 255, 2**31, 2**32 + 5):
        words = harness._seed_words(*harness._entropy(cfg, trial, trial + 1, streams))
        assert words.dtype == np.uint64 and words.flags.c_contiguous
        for (tag, _, point), row in zip(streams, words, strict=True):
            key = np.random.SeedSequence(
                [master, tag, trial] + ([] if point is None else [point]))
            np.testing.assert_array_equal(row, key.generate_state(4, np.uint64))
            assert np.random.PCG64(harness._Words(row)).state == np.random.PCG64(key).state


def test_seed_words_serve_only_pcg64s_request():
    words = harness._Words(np.arange(4, dtype=np.uint64))
    assert words.generate_state(4, np.dtype("<u8")) is words.row
    for n_words, dtype in ((2, np.uint64), (4, np.uint32), (8, np.uint64)):
        with pytest.raises(ValueError):
            words.generate_state(n_words, dtype)
    with pytest.raises(ValueError):
        np.random.MT19937(words)


@pytest.mark.parametrize("master", [5, 2**64 + 3])
def test_one_draw_pass_over_mixed_streams(master):
    """One ``_draws`` call over every tag, with and without a point, and over
    trials on both sides of 2**32, whose entropy rows differ in width."""
    cfg = ExperimentConfig(na=3, nb=2, ne=4, master_seed=master)
    lo, hi = 2**32 - 3, 2**32 + 3
    streams = [(tag, rows, point) for tag in _TAGS
               for rows, point in ((2, None), (4, 0), (1, 19))]
    draws = harness._draws(cfg, lo, hi, streams)
    for (tag, rows, point), got in zip(streams, draws, strict=True):
        assert got.shape == (hi - lo, rows, cfg.na)
        for i, trial in enumerate(range(lo, hi)):
            np.testing.assert_array_equal(
                got[i], complex_gaussian(oracles._rng(cfg, tag, trial, point), rows, cfg.na)
            )


def test_both_draw_paths_assemble_signed_zero_parts_alike(monkeypatch):
    """``complex_gaussian`` and ``_draws`` share one complex assembly: on
    planted real and imaginary parts of +0.0, -0.0 and nonzero values each
    entry is the scale times its part, sign included, and on real draws the
    bits are those of the old ``scale * (re + 1j * im)``."""
    re, im = np.meshgrid([0.0, -0.0, 1.5], [0.0, -0.0, -2.0], indexing="ij")
    parts = np.stack([re, im])

    class Planted:
        def __init__(self, *_):
            pass

        def standard_normal(self, size=None, out=None):
            if out is None:
                assert size == parts.shape
                return parts.copy()
            out[...] = parts
            return out

    scale = np.sqrt(0.5)
    want = np.stack([scale * re, scale * im], axis=-1)
    from_rng = complex_gaussian(Planted(), 3, 3)
    monkeypatch.setattr(np.random, "Generator", Planted)
    cfg = ExperimentConfig(na=3, nb=3, ne=3)
    (stack,) = harness._draws(cfg, 0, 2, [(harness._TAG_CHANNEL, 3, None)])
    monkeypatch.undo()
    assert from_rng.view(np.float64).reshape(want.shape).tobytes() == want.tobytes()
    for trial in stack:
        assert trial.tobytes() == from_rng.tobytes()
    rng = np.random.default_rng(12)
    buf = rng.standard_normal((40, 2, 4, 5))
    old = np.sqrt(0.5) * (buf[:, 0] + 1j * buf[:, 1])
    assert complex_from_parts(buf, np.sqrt(0.5)).tobytes() == old.tobytes()
    a, b = np.random.default_rng(13), np.random.default_rng(13)
    for var in (1.0, 0.25, 3e-4):
        old = np.sqrt(var / 2.0) * (a.standard_normal((4, 5)) + 1j * a.standard_normal((4, 5)))
        assert complex_gaussian(b, 4, 5, var).tobytes() == old.tobytes()


def test_block_streams_are_numpys_at_large_trial_indices():
    cfg = ExperimentConfig(na=3, nb=2, ne=4, master_seed=2**64 + 3)
    lo = 2**32 - 2
    h, eve = harness._draws(cfg, lo, lo + 4, [(harness._TAG_CHANNEL, 2, None),
                                              (harness._TAG_EVE, 4, 19)])
    for i, trial in enumerate(range(lo, lo + 4)):
        np.testing.assert_array_equal(
            h[i], complex_gaussian(oracles._rng(cfg, harness._TAG_CHANNEL, trial), 2, 3)
        )
        np.testing.assert_array_equal(
            eve[i], complex_gaussian(oracles._rng(cfg, harness._TAG_EVE, trial, 19), 4, 3)
        )


def _reduce_configs():
    for scenario in SCENARIOS[:-1]:
        for metric in ("goodput", "proxy", "full"):
            cfg = preset_config(scenario, trials=5, master_seed=4, secrecy_metric=metric)
            yield pytest.param(cfg, id=f"{scenario}-{metric}")
    # Mostly NaN rows, and a single trial (no standard error anywhere).
    cfg = preset_config("fig2_prediction", trials=5, master_seed=4, power_db=-10.0)
    yield pytest.param(cfg, id="fig2_prediction-low_power")
    yield pytest.param(preset_config("fig4_secrecy", trials=1, master_seed=4), id="one_trial")


@pytest.mark.parametrize("cfg", _reduce_configs())
def test_vectorised_reduction_matches_the_per_point_loop(cfg):
    metrics = harness._run_chunk(cfg, 0, cfg.trials)
    got, want = harness._reduce(metrics, cfg), oracles._reduce(metrics, cfg)
    assert list(got) == list(want)
    for s, scheme in enumerate(cfg.schemes):
        assert list(got[scheme]) == list(want[scheme])
        for key, values in want[scheme].items():
            assert len(got[scheme][key]) == len(values)
            for p, (a, b) in enumerate(zip(got[scheme][key], values)):
                assert type(a) is type(b), (scheme, key)
                if isinstance(b, int) or math.isnan(b) or math.isinf(b):
                    assert a == b or (math.isnan(a) and math.isnan(b)), (scheme, key, p)
                elif np.isnan(metrics[p, s]).any():
                    assert abs(a - b) <= 1e-15 * abs(b), (scheme, key, p)
                else:
                    assert a == b, (scheme, key, p)
