"""Tests for the second-order perturbation moments and the SINR prediction."""
from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import pytest

from wiretap.channels import (
    ChannelSet,
    CsiErrorModel,
    generate_channels,
    partition_svd,
    sample_csi_error,
)
from wiretap.exceptions import (
    IllConditionedGapError,
    ParameterError,
    ValidityRangeError,
)
from wiretap.perturbation import (
    _second_moment_tensor,
    compute_moments,
    first_vector_leak,
    naive_sinr_terms,
    naive_trial,
    predict_naive_sinr,
    simulate_naive,
)
from wiretap.robust import tdd_receiver

from oracles import field_agreement, mc_moments, second_moment_tensor

_COV_FIELDS = (
    "g", "g_prime", "g_dprime", "k", "e_dv_s", "e_vs_dvs",
    "e_dsigma1", "e_dsigma1_sq", "e_dv1", "e_dv1_outer",
)
# The fields compute_moments builds only when one of them is first read.
_DEFERRED = ("d", "g", "g_prime", "g_dprime", "k", "e_dv_s", "e_vs_dvs", "e_dv1_outer")


def _setup(nb: int, na: int, sigma_db: float, seed: int):
    chan = generate_channels(na, nb, 2, rng_seed=seed)
    svd = partition_svd(chan.h_ba)
    model = CsiErrorModel.iid(10.0 ** (sigma_db / 10.0))
    return chan, svd, model


@pytest.mark.parametrize("nb,na,seed", [(3, 3, 11), (2, 4, 12), (5, 5, 13)])
def test_moments_match_monte_carlo_oracle(nb, na, seed):
    """Every closed-form moment field agrees with brute-force simulation."""
    _, svd, model = _setup(nb, na, -20.0, seed)
    closed = compute_moments(svd, model)
    mc = mc_moments(svd, model.sigma_h_sq, pairs=20000, seed=seed + 500)
    name, miss, allowance, ratio = field_agreement(closed, mc)
    assert ratio <= 1.0, f"field {name}: |miss| {miss:.3e} exceeds {allowance:.3e}"


@pytest.mark.parametrize("nb,na", [(1, 1), (1, 3), (2, 4), (5, 5), (8, 8)])
def test_kronecker_tensor_is_the_four_stage_contraction(nb, na):
    """K^T C conj(K) with K = v kron conj(u) is the basis change of the
    covariance one index at a time, also for a rank-deficient covariance."""
    rng = np.random.default_rng(40 + 10 * nb + na)
    svd = partition_svd(generate_channels(na, nb, 1, rng_seed=nb * na).h_ba)
    side = nb * na
    for rank in (side, max(side // 2, 1)):
        a = rng.standard_normal((side, rank)) + 1j * rng.standard_normal((side, rank))
        cov = a @ a.conj().T / side
        got = _second_moment_tensor(svd, CsiErrorModel.full(cov))
        np.testing.assert_allclose(got, second_moment_tensor(svd, cov), rtol=1e-12, atol=1e-15)


def test_zero_error_model_gives_vanishing_moments():
    _, svd, _ = _setup(4, 4, -20.0, 3)
    m = compute_moments(svd, CsiErrorModel.zero())
    for name in _COV_FIELDS:
        assert np.max(np.abs(np.atleast_1d(getattr(m, name)))) == 0.0
    # The reciprocal gaps describe the channel, not the error.
    lam = svd.s**2
    np.testing.assert_allclose(m.d, 1.0 / (lam[:-1] - lam[-1]), rtol=1e-12)


def test_full_covariance_reduces_to_iid():
    """A scaled-identity full covariance is the white model, bit for bit."""
    _, svd, _ = _setup(4, 4, -20.0, 3)
    sig = 1e-2
    mi = compute_moments(svd, CsiErrorModel.iid(sig))
    mf = compute_moments(svd, CsiErrorModel.full(sig * np.eye(16)))
    for name in _COV_FIELDS:
        a = np.atleast_1d(getattr(mi, name))
        b = np.atleast_1d(getattr(mf, name))
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)


def test_scaled_is_linear_in_the_covariance():
    _, svd, _ = _setup(3, 5, -15.0, 21)
    base = compute_moments(svd, CsiErrorModel.iid(1e-2))
    direct = compute_moments(svd, CsiErrorModel.iid(3e-2))
    scaled = base.scaled(3.0)
    for name in _COV_FIELDS:
        np.testing.assert_allclose(
            np.atleast_1d(getattr(scaled, name)),
            np.atleast_1d(getattr(direct, name)),
            rtol=1e-12, atol=1e-18,
        )
    np.testing.assert_allclose(scaled.d, direct.d, rtol=0)


def test_scaled_rejects_negative_factor():
    _, svd, model = _setup(3, 3, -20.0, 2)
    m = compute_moments(svd, model)
    with pytest.raises(ParameterError):
        m.scaled(-1.0)


@pytest.mark.parametrize("factor", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", ["iid", "full"])
def test_scaled_refuses_a_nonfinite_factor(kind, factor):
    _, svd, _ = _setup(3, 3, -20.0, 2)
    model = CsiErrorModel.iid(1e-2) if kind == "iid" else CsiErrorModel.full(1e-2 * np.eye(9))
    m = compute_moments(svd, model)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="finite and >= 0"):
            m.scaled(factor)


@pytest.mark.parametrize("kind", ["iid", "full"])
def test_prediction_and_receiver_never_build_the_deferred_fields(kind):
    """The SINR prediction, the leak and the statistical receiver read only
    the three stored fields: a deferred builder that raises is never run."""
    chan, svd, model = _setup(4, 4, -20.0, 9)
    if kind == "full":
        model = CsiErrorModel.full(model.sigma_h_sq * np.eye(16))

    def refuse():
        raise AssertionError("deferred moments were built")

    m = replace(compute_moments(svd, model), _build=refuse)
    for moments in (m, m.scaled(2.0)):
        predict_naive_sinr(svd, moments, chan, 100.0)
        first_vector_leak(svd, moments)
        tdd_receiver(chan, svd, moments, sample_csi_error(model, 4, 4, rng_seed=[9, 0]), 100.0)
    with pytest.raises(AssertionError, match="deferred"):
        m.g


def test_deferred_fields_do_not_depend_on_the_reading_order():
    _, svd, _ = _setup(3, 5, -15.0, 21)
    model = CsiErrorModel.iid(1e-2)
    forward, backward = compute_moments(svd, model), compute_moments(svd, model)
    want = {name: getattr(forward, name) for name in _DEFERRED}
    got = {name: getattr(backward, name) for name in reversed(_DEFERRED)}
    for name in _DEFERRED:
        np.testing.assert_array_equal(got[name], want[name])
    # Scaled before or after the base fields exist, bit for bit the product.
    fresh = compute_moments(svd, model)
    early = fresh.scaled(3.0)
    np.testing.assert_array_equal(early.g, fresh.g * 3.0)
    for name in _DEFERRED:
        factor = 1.0 if name == "d" else 3.0
        np.testing.assert_array_equal(getattr(forward.scaled(3.0), name), want[name] * factor)
        np.testing.assert_array_equal(getattr(early, name), getattr(fresh, name) * factor)


def test_sandwich_moments_are_hermitian():
    """Quadratic forms against these fields must come out real."""
    _, svd, model = _setup(4, 6, -10.0, 8)
    m = compute_moments(svd, model)
    for name in ("g", "g_prime", "g_dprime", "k", "e_dv1_outer"):
        arr = getattr(m, name)
        herm = np.max(np.abs(arr - arr.conj().T))
        assert herm <= 1e-10 * max(np.max(np.abs(arr)), 1.0), name


def test_first_vector_leak_positive_and_matches_direct_average():
    chan, svd, model = _setup(4, 4, -20.0, 17)
    leak = first_vector_leak(svd, compute_moments(svd, model))
    assert leak > 0.0
    # Direct estimate of E{1 - |v1^H v~1|^2} over perturbed decompositions.
    rng = np.random.default_rng(170)
    scale = np.sqrt(model.sigma_h_sq / 2.0)
    h = chan.h_ba.entries
    acc = 0.0
    trials = 4000
    for _ in range(trials):
        dh = scale * (rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape))
        tilde = partition_svd(h + dh)
        acc += 1.0 - abs(np.vdot(svd.v1, tilde.v1)) ** 2
    assert acc / trials == pytest.approx(leak, rel=0.1)


def test_near_degenerate_gap_is_refused():
    svd = partition_svd(np.diag([2.0, 2.0, 1.0]).astype(complex))
    with pytest.raises(IllConditionedGapError):
        compute_moments(svd, CsiErrorModel.iid(1e-2))


def test_zero_error_prediction_returns_target_exactly():
    for seed, (nb, na) in enumerate([(2, 2), (4, 4), (3, 6)]):
        chan, svd, _ = _setup(nb, na, -20.0, 30 + seed)
        m = compute_moments(svd, CsiErrorModel.zero())
        pred = predict_naive_sinr(svd, m, chan, 100.0)
        assert abs(pred - 100.0) <= 1e-12 * 100.0
        # Plain floats, not numpy scalars, although the decomposition is arrays.
        assert type(pred) is float
        assert [type(x) for x in naive_sinr_terms(svd, m, chan, 100.0)] == [float, float]


def test_prediction_leaves_validity_range_for_huge_errors():
    chan, svd, _ = _setup(4, 4, 0.0, 3)
    big = compute_moments(svd, CsiErrorModel.iid(10.0 ** (5.0 / 10.0)))
    with pytest.raises(ValidityRangeError):
        predict_naive_sinr(svd, big, chan, 100.0)


def test_terms_refuse_a_design_already_in_outage():
    chan = generate_channels(4, 4, 2, rng_seed=3, power_p=1e-6)
    svd = partition_svd(chan.h_ba)
    m = compute_moments(svd, CsiErrorModel.iid(1e-2))
    with pytest.raises(ValidityRangeError):
        naive_sinr_terms(svd, m, chan, 100.0)


def test_prediction_tracks_simulated_average():
    """Closed form vs a paired Monte Carlo average, well inside 1 dB."""
    chan, svd, model = _setup(4, 4, -20.0, 9)
    pred = predict_naive_sinr(svd, compute_moments(svd, model), chan, 100.0)
    s_num = s_den = 0.0
    for trial in range(1500):
        err = sample_csi_error(model, 4, 4, rng_seed=[9, trial])
        _, bob, _, _ = naive_trial(chan, err, 100.0, svd=svd)
        s_num += bob.signal_power
        s_den += bob.interference_plus_noise
    gap_db = abs(10.0 * np.log10(pred * s_den / s_num))
    assert gap_db <= 1.0


def test_naive_trial_with_no_error_hits_target():
    chan, svd, _ = _setup(4, 4, -20.0, 5)
    report, bob, eve, scheme = naive_trial(chan, np.zeros((4, 4)), 100.0)
    assert report.sinr_b == pytest.approx(100.0, rel=1e-12)
    assert not report.outage
    assert bob.sinr == pytest.approx(bob.signal_power / bob.interference_plus_noise)
    assert eve.sinr == report.sinr_e
    assert scheme.target_sinr == 100.0


def test_simulate_naive_is_the_report_of_naive_trial():
    chan, svd, model = _setup(4, 4, -20.0, 7)
    err = sample_csi_error(model, 4, 4, rng_seed=[7, 0])
    report = simulate_naive(chan, err, 100.0)
    full, _, _, _ = naive_trial(chan, err, 100.0)
    assert report == full


def test_simulate_naive_reuses_the_stored_decomposition_of_h(monkeypatch):
    from wiretap import channels, perturbation

    chan, svd, model = _setup(4, 4, -20.0, 9)
    err = sample_csi_error(model, 4, 4, rng_seed=[9, 0])
    decomposed, partitioned = [], []
    basis, stack = perturbation.estimate_basis, channels.partition_stack
    monkeypatch.setattr(perturbation, "estimate_basis", lambda h: decomposed.append(h) or basis(h))
    monkeypatch.setattr(channels, "partition_stack", lambda h: partitioned.append(h) or stack(h))
    report = simulate_naive(chan, err, 100.0)
    # Only the estimate is decomposed: H's partition is the one stored on it.
    assert len(decomposed) == 1 and partitioned == []
    np.testing.assert_array_equal(decomposed[0], chan.h_ba.entries + err)
    assert report == naive_trial(chan, err, 100.0, svd=partition_svd(chan.h_ba))[0]
    # A fresh channel stores its partition on the first call, and it is
    # the decomposition of the bare entries bit for bit.
    fresh = generate_channels(4, 4, 2, rng_seed=9)
    report = simulate_naive(fresh, err, 100.0)
    assert report == naive_trial(fresh, err, 100.0, svd=partition_svd(fresh.h_ba.entries))[0]
