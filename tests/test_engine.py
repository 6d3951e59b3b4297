"""The batched sweep engine against the per-trial loop it replaced.

``oracles._run_chunk`` is the old loop: one trial, one point and one scheme
at a time through the single-channel functions.  The engine must reproduce
its per-trial metric array to round-off, with the same NaN pattern and the
same outage and flag columns, and must not depend on how trials are grouped
into blocks.  The three places where the engine deliberately uses a
different algorithm than the single-channel path are checked against their
counterparts directly.
"""
from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from wiretap import harness
from wiretap.channels import (
    CsiErrorModel,
    complex_gaussian,
    generate_channels,
    partition_stack,
    partition_svd,
)
from wiretap.exceptions import DegenerateChannelError
from wiretap.harness import SCHEMES, ExperimentConfig, preset_config
from wiretap.perturbation import compute_moments, iid_moments
from wiretap.robust import _rank1_gain, _solve_fraction, fdd_spectrum, solve_fractions
from wiretap.transmit import TxScheme, eve_aware_direction, mmse_combiner, mmse_combiners

# Per-trial agreement: relative round-off plus an absolute floor for the
# figures that are zero up to round-off (Eve's powers when she is nulled).
RTOL = 1e-12
ATOL = 1e-12
EXACT_COLUMNS = ("outage", "flagged")
SHAPES = [(1, 1, 1), (2, 1, 3), (3, 3, 2), (4, 4, 20), (5, 5, 5)]


def _schemes_for(na: int, nb: int, ne: int) -> tuple[str, ...]:
    # The Eve-aware designs refuse every trial when nb < na and ne < na.
    if nb < na and ne < na:
        return tuple(s for s in SCHEMES if not s.endswith("ecsi"))
    return SCHEMES


def assert_matches_loop(cfg: ExperimentConfig) -> None:
    got = harness._run_chunk(cfg, 0, cfg.trials)
    want = oracles._run_chunk(cfg, 0, cfg.trials)
    assert got.shape == want.shape
    for m, name in enumerate(harness._METRICS):
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
        master_seed=3, schemes=_schemes_for(na, nb, ne),
    )
    if axis == "ne":
        params.update(ne=(1, ne), schemes=_schemes_for(na, nb, 1))
    elif axis == "target_sinr_db":
        params.update(target_sinr_db=(0.0, 10.0, 25.0))
    else:
        params.update(sigma_h_db=(-30.0, -10.0, -3.0))
    params.update(overrides)
    return ExperimentConfig(**params)


@pytest.mark.parametrize("axis", ["ne", "target_sinr_db", "sigma_h_db"])
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_engine_matches_the_loop(shape, axis):
    assert_matches_loop(_config(shape, axis))


@pytest.mark.parametrize("metric", ["proxy", "full"])
@pytest.mark.parametrize("shape", [(2, 1, 3), (5, 5, 5)], ids=str)
def test_engine_matches_the_loop_under_every_secrecy_metric(shape, metric):
    assert_matches_loop(_config(shape, "target_sinr_db", secrecy_metric=metric))


@pytest.mark.parametrize("shape", [(3, 3, 2), (4, 4, 20)], ids=str)
def test_engine_matches_the_loop_through_the_estimate(shape):
    assert_matches_loop(_config(shape, "sigma_h_db", propagate_through_estimate=True))


def test_engine_matches_the_loop_when_most_trials_are_in_outage():
    cfg = _config((5, 5, 5), "target_sinr_db", power_db=-5.0)
    outage = oracles._run_chunk(cfg, 0, cfg.trials)[:, :, harness._METRICS.index("outage")]
    assert np.nanmean(outage) > 0.5
    assert_matches_loop(cfg)


@pytest.mark.parametrize("preset", ["fig1_ne_sweep", "fig3_sinr_vs_target", "fig2_prediction"])
def test_engine_matches_the_loop_on_presets(preset):
    assert_matches_loop(preset_config(preset, trials=6, master_seed=11))


def test_nb_below_na_eve_aware_design_fails_in_both():
    cfg = ExperimentConfig(na=4, nb=2, ne=2, trials=3, schemes=("known_ecsi",))
    with pytest.raises(DegenerateChannelError):
        harness._run_chunk(cfg, 0, cfg.trials)
    with pytest.raises(DegenerateChannelError):
        oracles._run_chunk(cfg, 0, cfg.trials)


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
)
def test_engine_equals_the_loop_on_random_configs(
    na, nb_gap, ne, target_db, sigma_db, power_db, schemes, metric, seed
):
    cfg = ExperimentConfig(
        na=na, nb=max(na - nb_gap, 1), ne=ne, target_sinr_db=target_db,
        sigma_h_db=sigma_db, power_db=power_db, trials=3, master_seed=seed,
        schemes=tuple(schemes), secrecy_metric=metric,
    )
    try:
        oracles._run_chunk(cfg, 0, cfg.trials)
    except Exception as exc:  # the engine must fail the same way
        with pytest.raises(type(exc)):
            harness._run_chunk(cfg, 0, cfg.trials)
        return
    assert_matches_loop(cfg)


# --------------------------------------------- deliberate algorithm differences


def _random_channels(count: int, rows: int, cols: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.stack([complex_gaussian(rng, rows, cols) for _ in range(count)])


def test_stacked_lu_solve_matches_the_cholesky_solve():
    h = _random_channels(40, 20, 4, seed=1)
    part = partition_stack(_random_channels(40, 4, 4, seed=2))
    t = part.v[..., 0]
    factor = np.sqrt(30.0) * part.v[..., 1:]
    q = factor @ np.swapaxes(factor, -1, -2).conj()
    stacked = mmse_combiners(h, t, q, 1.0)
    for i in range(len(h)):
        scheme = TxScheme(t=t[i], rho=0.1, q_z=q[i], power_p=100.0, target_sinr=1.0)
        single = mmse_combiner(h[i], scheme, 1.0)
        np.testing.assert_allclose(stacked[i], single, rtol=1e-11, atol=0)


def test_stacked_solve_substitutes_the_unit_vector_for_a_zero_solution():
    h = np.zeros((2, 3, 2), dtype=complex)
    h[1] = _random_channels(1, 3, 2, seed=3)[0]
    t = np.tile(np.array([1.0, 0.0], dtype=complex), (2, 1))
    w = mmse_combiners(h, t, np.zeros((2, 2, 2), dtype=complex), 1.0)
    np.testing.assert_array_equal(w[0], [1.0, 0.0, 0.0])
    np.testing.assert_allclose(w[1], h[1] @ t[1])


def test_vectorised_root_solve_reproduces_brentq():
    targets = 10.0 ** (np.array([-5.0, 0.0, 10.0, 20.0, 30.0, 45.0]) / 10.0)
    for k in range(60):
        na, nb = [(5, 5), (4, 2), (2, 1), (8, 8)][k % 4]
        chan = generate_channels(na, nb, 2, rng_seed=[5, k])
        dh = 0.3 * _random_channels(1, nb, na, seed=k)[0]
        tilde = partition_svd(chan.h_ba.entries + dh)
        _, lam, _, _, weights = fdd_spectrum(chan.h_ba.entries, tilde.v1, tilde.t_prime)
        rho, outage = solve_fractions(lam[None], weights[None], chan.power_p, na, 1.0, targets)
        gain = _rank1_gain(lam, weights, chan.power_p, na, 1.0)
        for j, target in enumerate(targets):
            assert (rho[j], outage[j]) == _solve_fraction(gain, target)


@pytest.mark.parametrize("shape", [(1, 1), (1, 3), (2, 2), (3, 5), (5, 5)], ids=str)
def test_iid_closed_form_matches_compute_moments(shape):
    nb, na = shape
    for k in range(10):
        svd = partition_svd(_random_channels(1, nb, na, seed=100 + k)[0])
        full = compute_moments(svd, CsiErrorModel.iid(1.0))
        closed = iid_moments(svd.singular_values, na, svd.ill_conditioned)
        np.testing.assert_allclose(closed.drift * svd.v1, full.e_dv1, rtol=1e-12, atol=1e-15)
        assert closed.e_dsigma1 == pytest.approx(full.e_dsigma1, rel=1e-12)
        assert closed.e_dsigma1_sq == full.e_dsigma1_sq


def test_partition_stack_is_partition_svd_per_matrix():
    h = _random_channels(9, 3, 5, seed=7)
    stack = partition_stack(h)
    for i in range(len(h)):
        single = partition_svd(h[i])
        np.testing.assert_array_equal(stack.v[i, :, 1:], single.t_prime)
        np.testing.assert_array_equal(stack.u[i], single.u_full)
        np.testing.assert_array_equal(stack.s[i], single.singular_values)
        assert stack.ill_conditioned[i] == single.ill_conditioned
    np.testing.assert_allclose(stack.reconstruct(), h, atol=1e-13)


def test_partition_stack_refuses_a_rank_deficient_member():
    h = _random_channels(4, 2, 3, seed=8)
    h[2, 1] = h[2, 0]
    with pytest.raises(DegenerateChannelError):
        partition_stack(h)


def test_eve_aware_direction_is_the_scalar_design():
    hb, he = _random_channels(1, 3, 3, seed=9)[0], _random_channels(1, 4, 3, seed=10)[0]
    _, vecs = scipy.linalg.eigh(hb.conj().T @ hb, he.conj().T @ he)
    t = eve_aware_direction(hb, he)
    np.testing.assert_allclose(t, vecs[:, -1] / np.linalg.norm(vecs[:, -1]))
