"""Tests for transmit designs, receive beamformers, and SINR bookkeeping."""
from __future__ import annotations

import warnings

import numpy as np
import oracles
import pytest

from wiretap import transmit
from wiretap.channels import (
    ChannelMatrix,
    ChannelSet,
    CsiErrorModel,
    generate_channels,
    partition_svd,
)
from wiretap.exceptions import DegenerateChannelError, DimensionError, ParameterError
from wiretap.perturbation import compute_moments, predict_naive_sinr, simulate_naive
from wiretap.robust import fdd_receiver, tdd_receiver
from wiretap.transmit import (
    RxBeamformer,
    TxScheme,
    bob_matched_beamformer,
    design_artificial_noise,
    design_known_ecsi,
    eve_aware,
    eve_mmse_beamformer,
    evaluate_sinr,
    link_sinr,
    perfect_csi_trial,
    required_rho,
    secrecy_capacity_full,
    secrecy_capacity_proxy,
    secure_goodput,
)


def _diag_channel(power_p: float = 100.0) -> ChannelSet:
    """A 2x2 intended channel diag(2, 1) with a fixed eavesdropper."""
    hb = ChannelMatrix(np.diag([2.0, 1.0]).astype(complex))
    he = ChannelMatrix(np.array([[0.3, 0.7], [0.2, -0.4]], dtype=complex))
    return ChannelSet(h_ba=hb, h_ea=he, sigma_b_sq=1.0, sigma_e_sq=1.0, power_p=power_p)


class TestTxScheme:
    def test_valid_scheme_and_power_properties(self):
        scheme = TxScheme(t=np.array([1.0, 0.0]), rho=0.25, power_p=100.0,
                          target_sinr=100.0, beta=75.0)
        assert scheme.data_power == 25.0
        assert scheme.noise_power == pytest.approx(75.0)
        np.testing.assert_allclose(scheme.q_z, np.diag([0.0, 75.0]))

    def test_direction_must_be_unit_norm(self):
        with pytest.raises(ParameterError):
            TxScheme(t=np.array([2.0, 0.0]), rho=0.5, power_p=1.0, target_sinr=1.0)

    def test_direction_must_be_a_vector(self):
        with pytest.raises(DimensionError):
            TxScheme(t=np.eye(2), rho=0.5, power_p=1.0, target_sinr=1.0)

    @pytest.mark.parametrize("rho", [-0.1, 1.5])
    def test_rho_range(self, rho):
        with pytest.raises(ParameterError):
            TxScheme(t=np.array([1.0, 0.0]), rho=rho, power_p=1.0, target_sinr=1.0)

    def test_positive_power_and_target(self):
        with pytest.raises(ParameterError):
            TxScheme(t=np.array([1.0, 0.0]), rho=0.5, power_p=0.0, target_sinr=1.0)
        with pytest.raises(ParameterError):
            TxScheme(t=np.array([1.0, 0.0]), rho=0.5, power_p=1.0, target_sinr=-2.0)

    @pytest.mark.parametrize("field, value", [
        ("power_p", np.nan), ("power_p", np.inf), ("target_sinr", np.nan), ("target_sinr", np.inf),
        ("t", np.array([np.nan, 0.0])), ("t", np.array([1.0, np.inf])),
        ("beta", np.nan), ("beta", np.inf), ("beta", -1.0),
    ])
    def test_non_finite_power_and_target_are_refused_by_name(self, field, value):
        # And a direction with a non-finite entry, and a negative or
        # non-finite interference power.
        args = dict(t=np.array([1.0, 0.0]), rho=0.5, power_p=1.0, target_sinr=1.0)
        with pytest.raises(ParameterError, match=rf"^{field} "):
            TxScheme(**{**args, field: value})

    def test_covariance_shape_checked(self):
        # The covariance is na x na for na = t's length, from one number beta.
        for beta in (np.zeros(2), np.zeros((3, 1))):
            with pytest.raises(DimensionError, match="beta"):
                TxScheme(t=np.array([1.0, 0.0]), rho=0.5, power_p=1.0, target_sinr=1.0,
                         beta=beta)
        scheme = TxScheme(t=np.array([1.0, 0.0]), rho=0.5, power_p=1.0, target_sinr=1.0)
        assert scheme.beta is None and scheme.noise_power == 0.0
        assert scheme.q_z.shape == (2, 2) and not np.any(scheme.q_z)
        wide = TxScheme(t=np.array([0.0, 1.0, 0.0]), rho=0.5, power_p=1.0, target_sinr=1.0,
                        beta=0.25)
        np.testing.assert_array_equal(wide.q_z, np.diag([0.25, 0.0, 0.25]))

    def test_factor_must_reproduce_covariance(self):
        # The covariance is derived from beta, never stored beside it, and
        # any factor sqrt(beta) T' over the directions T' orthogonal to t
        # reproduces it.
        t = np.array([0.6, 0.48j, -0.64])
        scheme = TxScheme(t=t, rho=0.5, power_p=1.0, target_sinr=1.0, beta=2.5)
        f = oracles.interference_factor(t, 2.5)
        np.testing.assert_allclose(scheme.q_z, 2.5 * (np.eye(3) - np.outer(t, t.conj())))
        np.testing.assert_allclose(scheme.q_z, f @ f.conj().T, atol=1e-15)
        np.testing.assert_allclose(scheme.q_z, scheme.q_z.conj().T)
        assert scheme.noise_power == pytest.approx(np.sum(np.abs(f) ** 2))
        assert scheme.noise_power == pytest.approx(np.trace(scheme.q_z).real)

    def test_outage_forces_all_power_to_data(self):
        with pytest.raises(ParameterError):
            TxScheme(t=np.array([1.0, 0.0]), rho=0.5, power_p=1.0, target_sinr=1.0,
                     outage=True)
        with pytest.raises(ParameterError):
            TxScheme(t=np.array([1.0, 0.0]), rho=1.0, power_p=1.0, target_sinr=1.0,
                     outage=True, beta=1.0)
        for beta in (0.0, None):
            scheme = TxScheme(t=np.array([1.0, 0.0]), rho=1.0, power_p=1.0, target_sinr=1.0,
                              outage=True, beta=beta)
            assert not np.any(scheme.q_z)


class TestRequiredRho:
    def test_hand_worked_value(self):
        # sigma1 = 2 gives gain 4; reaching SINR 100 at P = 100 with unit
        # noise needs a quarter of the budget.
        assert required_rho(2.0, 100.0, 100.0, 1.0) == pytest.approx(0.25)

    def test_monotone_in_target(self):
        rhos = [required_rho(2.0, s, 100.0, 1.0) for s in (10.0, 50.0, 100.0, 300.0)]
        assert all(a < b for a, b in zip(rhos, rhos[1:]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ParameterError):
            required_rho(2.0, 0.0, 100.0, 1.0)
        with pytest.raises(ParameterError):
            required_rho(-1.0, 10.0, 100.0, 1.0)
        with pytest.raises(ParameterError):
            required_rho(2.0, 10.0, 100.0, 0.0)


class TestDesignArtificialNoise:
    def test_hand_worked_diagonal_channel(self):
        chan = _diag_channel()
        scheme = design_artificial_noise(chan, partition_svd(chan.h_ba), 100.0)
        assert scheme.rho == pytest.approx(0.25, rel=1e-12)
        assert not scheme.outage
        np.testing.assert_allclose(scheme.t, [1.0, 0.0], atol=1e-12)
        expected_q = 75.0 * np.outer([0.0, 1.0], [0.0, 1.0])
        np.testing.assert_allclose(scheme.q_z, expected_q, atol=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_power_budget_is_conserved(self, seed):
        chan = generate_channels(5, 4, 3, rng_seed=seed)
        scheme = design_artificial_noise(chan, partition_svd(chan.h_ba), 100.0)
        total = scheme.rho * chan.power_p + np.real(np.trace(scheme.q_z))
        assert total == pytest.approx(chan.power_p, rel=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_interference_misses_the_intended_receiver(self, seed):
        chan = generate_channels(6, 4, 3, rng_seed=seed)
        svd = partition_svd(chan.h_ba)
        scheme = design_artificial_noise(chan, svd, 100.0)
        hb = chan.h_ba.entries
        sig = hb @ scheme.t
        cross = np.linalg.norm(sig.conj() @ (hb @ svd.v[:, 1:]))
        assert cross <= 1e-9 * svd.sigma1**2

    @pytest.mark.parametrize("nb,na", [(2, 2), (4, 4), (4, 6), (1, 3)])
    def test_matched_receiver_attains_the_target(self, nb, na):
        chan = generate_channels(na, nb, 2, rng_seed=nb * 10 + na)
        scheme = design_artificial_noise(chan, partition_svd(chan.h_ba), 100.0)
        if scheme.outage:
            pytest.skip("random channel too weak for the target")
        report = link_sinr(chan.h_ba, scheme, bob_matched_beamformer(chan, scheme), 1.0)
        assert report.sinr == pytest.approx(100.0, rel=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_residual_interference_is_epsilon_squared(self, seed):
        chan = generate_channels(5, 5, 3, rng_seed=seed)
        scheme = design_artificial_noise(chan, partition_svd(chan.h_ba), 100.0)
        w = bob_matched_beamformer(chan, scheme)
        out = link_sinr(chan.h_ba, scheme, w, chan.sigma_b_sq)
        assert out.interference_power <= 1e-18 * out.signal_power

    def test_rho_grows_with_the_target(self):
        chan = generate_channels(4, 4, 2, rng_seed=9)
        svd = partition_svd(chan.h_ba)
        rhos = [design_artificial_noise(chan, svd, s).rho for s in (1.0, 10.0, 100.0)]
        assert rhos[0] < rhos[1] < rhos[2]

    def test_outage_when_the_budget_cannot_reach_the_target(self):
        chan = _diag_channel(power_p=1e-6)
        scheme = design_artificial_noise(chan, partition_svd(chan.h_ba), 100.0)
        assert scheme.outage
        assert scheme.rho == 1.0
        assert not np.any(scheme.q_z)
        out = link_sinr(chan.h_ba, scheme, bob_matched_beamformer(chan, scheme), 1.0)
        assert out.sinr < 100.0

    def test_single_transmit_antenna_has_no_interference(self):
        chan = generate_channels(1, 1, 1, rng_seed=3)
        scheme = design_artificial_noise(chan, partition_svd(chan.h_ba), 2.0)
        assert scheme.q_z.shape == (1, 1) and not np.any(scheme.q_z)
        assert oracles.interference_factor(scheme.t, scheme.beta).shape == (1, 0)
        if not scheme.outage:
            out = link_sinr(chan.h_ba, scheme, bob_matched_beamformer(chan, scheme), 1.0)
            assert out.sinr == pytest.approx(2.0, rel=1e-9)

    def test_stale_estimate_still_conserves_power(self):
        chan = generate_channels(4, 4, 2, rng_seed=11)
        bumped = chan.h_ba.entries + 0.1 * np.ones((4, 4))
        stale = partition_svd(ChannelMatrix(bumped))
        scheme = design_artificial_noise(chan, stale, 100.0)
        total = scheme.rho * chan.power_p + np.real(np.trace(scheme.q_z))
        assert total == pytest.approx(chan.power_p, rel=1e-9)

    def test_interference_level_matches_the_split(self):
        # Each of the na - 1 interference directions carries an equal share.
        chan = generate_channels(5, 4, 2, rng_seed=2)
        scheme = design_artificial_noise(chan, partition_svd(chan.h_ba), 100.0)
        expected = (1.0 - scheme.rho) * chan.power_p / 4
        levels = np.sum(np.abs(oracles.interference_factor(scheme.t, scheme.beta)) ** 2, axis=0)
        np.testing.assert_allclose(levels, expected, rtol=1e-12)
        outage = design_artificial_noise(_diag_channel(1e-6),
                                         partition_svd(_diag_channel().h_ba), 100.0)
        assert not np.any(oracles.interference_factor(outage.t, outage.beta))


class TestDesignKnownEcsi:
    @pytest.mark.parametrize("ne", [1, 2, 3])
    def test_fewer_eve_antennas_means_an_exact_null(self, ne):
        chan = generate_channels(4, 4, ne, rng_seed=ne)
        scheme = design_known_ecsi(chan, chan.h_ea, 100.0)
        w_e = eve_mmse_beamformer(chan, scheme)
        out = link_sinr(chan.h_ea, scheme, w_e, chan.sigma_e_sq)
        assert out.sinr <= 1e-12 * scheme.rho * chan.power_p
        assert np.linalg.norm(chan.h_ea.entries @ scheme.t) <= 1e-9

    def test_intended_receiver_meets_the_target(self):
        chan = generate_channels(4, 4, 2, rng_seed=7)
        scheme = design_known_ecsi(chan, chan.h_ea, 100.0)
        if scheme.outage:
            pytest.skip("random channel too weak for the target")
        out = link_sinr(chan.h_ba, scheme, bob_matched_beamformer(chan, scheme), 1.0)
        assert out.sinr == pytest.approx(100.0, rel=1e-9)
        assert not np.any(scheme.q_z)

    def test_square_eavesdropper_balances_the_two_links(self):
        # With as many eavesdropper antennas as transmit antennas there is no
        # null space; the design should still produce a valid scheme that
        # serves the intended receiver.
        chan = generate_channels(4, 4, 4, rng_seed=13)
        scheme = design_known_ecsi(chan, chan.h_ea, 100.0)
        if not scheme.outage:
            out = link_sinr(chan.h_ba, scheme, bob_matched_beamformer(chan, scheme), 1.0)
            assert out.sinr == pytest.approx(100.0, rel=1e-9)

    def test_identical_channels_still_yield_a_direction(self):
        chan = generate_channels(3, 3, 3, rng_seed=21)
        same = ChannelSet(h_ba=chan.h_ba, h_ea=chan.h_ba,
                          sigma_b_sq=1.0, sigma_e_sq=1.0, power_p=100.0)
        scheme = design_known_ecsi(same, same.h_ea, 10.0)
        assert np.linalg.norm(scheme.t) == pytest.approx(1.0)

    def test_outage_at_a_tiny_budget(self):
        chan = generate_channels(4, 4, 2, rng_seed=8, power_p=1e-9)
        scheme = design_known_ecsi(chan, chan.h_ea, 100.0)
        assert scheme.outage and scheme.rho == 1.0

    def test_column_counts_must_agree(self):
        chan = generate_channels(4, 4, 2, rng_seed=1)
        with pytest.raises(DimensionError):
            design_known_ecsi(chan, np.ones((2, 3), dtype=complex), 10.0)

    def test_a_singular_bob_gram_on_the_reciprocal_route_falls_back_to_eves_null_space(
            self, monkeypatch):
        # With two eavesdropper antennas against four transmit antennas the
        # design solves the reciprocal problem, which needs Bob's Gram matrix
        # to factor; a rank-one channel of his does not, so the design takes
        # his strongest direction in her null space instead.
        rng = np.random.default_rng(5)
        a, b = (rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))) / np.sqrt(2)
        he = (rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))) / np.sqrt(2)
        chan = ChannelSet(h_ba=ChannelMatrix(np.outer(a, b)), h_ea=ChannelMatrix(he),
                          sigma_b_sq=1.0, sigma_e_sq=1.0, power_p=100.0)
        infos = []

        def hegvd(*args, driver=transmit._hegvd(), **kwargs):
            out = driver(*args, **kwargs)
            infos.append(out[-1])
            return out

        monkeypatch.setattr(transmit, "_hegvd", lambda: hegvd)
        scheme = design_known_ecsi(chan, chan.h_ea, 10.0)
        assert len(infos) == 1 and infos[0] != 0
        assert np.linalg.norm(he @ scheme.t) <= 1e-12
        null = np.linalg.svd(he)[2][2:].conj().T
        gram = null.conj().T @ np.outer(b.conj(), b) @ null
        want = null @ np.linalg.eigh(gram)[1][:, -1]
        assert 1.0 - abs(np.vdot(want, scheme.t)) <= 1e-12
        out = link_sinr(chan.h_ba, scheme, bob_matched_beamformer(chan, scheme), 1.0)
        assert not scheme.outage and out.sinr == pytest.approx(10.0, rel=1e-9)

    def test_a_direction_without_gain_to_bob_is_refused(self):
        # An all-zero intended channel against an eavesdropper with as many
        # antennas as the transmitter: the whitened direction exists, but
        # no power along it reaches Bob.
        hb = np.zeros((1, 3, 3), dtype=complex)
        he = generate_channels(3, 3, 3, rng_seed=2).h_ea.entries
        with pytest.raises(DegenerateChannelError, match="zero gain"):
            eve_aware(hb, (he.conj().T @ he)[None], 3, 10.0, 100.0, 1.0)

    def test_doubly_singular_pair_is_refused(self):
        hb = ChannelMatrix(np.zeros((2, 3), dtype=complex))
        he = ChannelMatrix(np.ones((1, 3), dtype=complex))
        chan = ChannelSet(h_ba=hb, h_ea=he, sigma_b_sq=1.0, sigma_e_sq=1.0, power_p=1.0)
        with pytest.raises(DegenerateChannelError):
            design_known_ecsi(chan, chan.h_ea, 10.0)


class TestBeamformers:
    def test_matched_combiner_is_the_received_signature(self):
        chan = generate_channels(4, 3, 2, rng_seed=5)
        scheme = design_artificial_noise(chan, partition_svd(chan.h_ba), 10.0)
        w = bob_matched_beamformer(chan, scheme)
        np.testing.assert_allclose(w.w, chan.h_ba.entries @ scheme.t)
        assert w.kind == "matched"

    def test_beamformer_validation(self):
        with pytest.raises(ParameterError):
            RxBeamformer(w=np.zeros(3, dtype=complex), kind="matched")
        with pytest.raises(ParameterError):
            RxBeamformer(w=np.ones(3, dtype=complex), kind="zf")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_a_non_finite_beamformer_is_refused_by_name(self, bad):
        with pytest.raises(ParameterError, match="^beamformer entries must be finite"):
            RxBeamformer(w=np.array([1.0, bad, 0.0]), kind="mmse")

    @pytest.mark.parametrize("seed", [0, 1])
    def test_eve_mmse_beats_random_combiners(self, seed):
        chan = generate_channels(4, 4, 3, rng_seed=seed)
        scheme = design_artificial_noise(chan, partition_svd(chan.h_ba), 100.0)
        best = link_sinr(chan.h_ea, scheme, eve_mmse_beamformer(chan, scheme),
                         chan.sigma_e_sq).sinr
        rng = np.random.default_rng(seed + 100)
        for _ in range(100):
            w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            trial = link_sinr(chan.h_ea, scheme, w / np.linalg.norm(w),
                              chan.sigma_e_sq).sinr
            assert trial <= best * (1 + 1e-9)

    def test_mmse_quadratic_form_identity(self):
        # The MMSE output SINR equals rho*P times the whitened quadratic
        # form of the received signature.
        chan = generate_channels(4, 4, 3, rng_seed=17)
        scheme = design_artificial_noise(chan, partition_svd(chan.h_ba), 100.0)
        he = chan.h_ea.entries
        cov = he @ scheme.q_z @ he.conj().T + chan.sigma_e_sq * np.eye(3)
        sig = he @ scheme.t
        direct = scheme.data_power * np.real(sig.conj() @ np.linalg.solve(cov, sig))
        via_link = link_sinr(chan.h_ea, scheme, eve_mmse_beamformer(chan, scheme),
                             chan.sigma_e_sq)
        assert via_link.sinr == pytest.approx(direct, rel=1e-9)

    def test_eves_combiner_reads_her_cached_spectrum(self, monkeypatch):
        # Her spectrum is one eigh per channel set; once it is cached, neither
        # her combiner nor the whole perfect-knowledge trial decomposes
        # anything by eigh, with fewer, as many and more antennas than the
        # transmitter.
        eigh, calls = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(a) or eigh(*a, **k))
        for ne in (2, 4, 6):
            chan = generate_channels(4, 4, ne, rng_seed=40 + ne)
            stale = partition_svd(chan.h_ba.entries + 0.1)
            calls.clear()
            chan.eve_spectrum
            assert len(calls) == 1
            calls.clear()
            scheme, _, w_e, _ = perfect_csi_trial(chan, 100.0)
            assert w_e.kind == "mmse"
            eve_mmse_beamformer(chan, design_artificial_noise(chan, stale, 100.0))
            assert calls == [], ne

    def test_exactly_nulled_eavesdropper_gets_a_stand_in(self):
        he = np.array([[0.5, -0.2, 0.0], [1.0, 0.3, 0.0]], dtype=complex)
        chan = ChannelSet(
            h_ba=ChannelMatrix(np.eye(3, dtype=complex)),
            h_ea=ChannelMatrix(he),
            sigma_b_sq=1.0, sigma_e_sq=1.0, power_p=100.0,
        )
        scheme = TxScheme(t=np.array([0.0, 0.0, 1.0]), rho=1.0, power_p=100.0,
                          target_sinr=10.0)
        w = eve_mmse_beamformer(chan, scheme)
        assert w.kind == "mmse"
        assert np.linalg.norm(w.w) > 0
        assert link_sinr(chan.h_ea, scheme, w, 1.0).sinr == 0.0


class TestLinkSinr:
    def test_combiner_scale_does_not_matter(self):
        chan = generate_channels(4, 3, 2, rng_seed=6)
        scheme = design_artificial_noise(chan, partition_svd(chan.h_ba), 50.0)
        w = np.array([1.0 + 1j, -0.5, 2.0], dtype=complex)
        a = link_sinr(chan.h_ba, scheme, w, 1.0)
        b = link_sinr(chan.h_ba, scheme, 7.0 * w, 1.0)
        assert a.sinr == pytest.approx(b.sinr, rel=1e-12)
        assert a.signal_power == pytest.approx(b.signal_power, rel=1e-12)
        assert a.noise_power == pytest.approx(1.0)

    def test_noise_power_is_the_variance(self):
        chan = generate_channels(3, 3, 2, rng_seed=6)
        scheme = design_artificial_noise(chan, partition_svd(chan.h_ba), 10.0)
        out = link_sinr(chan.h_ba, scheme, np.ones(3, dtype=complex), 2.5)
        assert out.noise_power == pytest.approx(2.5)
        assert out.interference_plus_noise == pytest.approx(
            out.interference_power + 2.5)

    def test_zero_combiner_is_refused(self):
        chan = generate_channels(3, 3, 2, rng_seed=6)
        scheme = design_artificial_noise(chan, partition_svd(chan.h_ba), 10.0)
        with pytest.raises(ParameterError):
            link_sinr(chan.h_ba, scheme, np.zeros(3, dtype=complex), 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_a_non_finite_combiner_is_refused_by_name(self, bad):
        # Refused before any figure is formed: no all-NaN result and no
        # invalid-value warning.
        chan = generate_channels(3, 3, 2, rng_seed=6)
        scheme = design_artificial_noise(chan, partition_svd(chan.h_ba), 10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="^combiner entries must be finite"):
                link_sinr(chan.h_ba, scheme, np.array([1.0, bad, 0.0]), 1.0)

    def test_dimension_and_noise_validation(self):
        chan = generate_channels(3, 3, 2, rng_seed=6)
        scheme = design_artificial_noise(chan, partition_svd(chan.h_ba), 10.0)
        with pytest.raises(DimensionError):
            link_sinr(chan.h_ba, scheme, np.ones(4, dtype=complex), 1.0)
        with pytest.raises(ParameterError):
            link_sinr(chan.h_ba, scheme, np.ones(3, dtype=complex), 0.0)

    @pytest.mark.parametrize("sigma_sq", [np.nan, np.inf, 1e-101, 1e101])
    def test_noise_outside_the_channels_range_is_refused_by_name(self, sigma_sq):
        # The range a channel set accepts for its noise powers.
        chan = generate_channels(3, 3, 2, rng_seed=6)
        scheme = design_artificial_noise(chan, partition_svd(chan.h_ba), 10.0)
        with pytest.raises(ParameterError, match="sigma_sq"):
            link_sinr(chan.h_ba, scheme, np.ones(3, dtype=complex), sigma_sq)

    def test_factor_and_covariance_paths_agree_when_not_orthogonal(self):
        chan = generate_channels(4, 3, 3, rng_seed=14)
        scheme = design_artificial_noise(chan, partition_svd(chan.h_ba), 100.0)
        w = np.ones(3, dtype=complex)
        via_link = link_sinr(chan.h_ea, scheme, w, 1.0)
        he = chan.h_ea.entries
        via_cov = np.real(np.vdot(w, he @ scheme.q_z @ he.conj().T @ w)) / np.vdot(w, w).real
        assert via_link.interference_power == pytest.approx(via_cov, rel=1e-9)


class TestSecrecyMetrics:
    def test_proxy_is_the_clamped_rate_difference(self):
        assert secrecy_capacity_proxy(3.0, 1.0) == pytest.approx(1.0)
        assert secrecy_capacity_proxy(1.0, 3.0) == 0.0
        with pytest.raises(ParameterError):
            secrecy_capacity_proxy(-1.0, 0.0)

    def test_goodput_gates_on_the_provisioned_rate(self):
        assert secure_goodput(99.0, 0.0, 100.0) == 0.0
        full = secure_goodput(100.0, 0.0, 100.0)
        assert full == pytest.approx(np.log2(101.0))
        # Round-off just below the target still counts as delivered.
        assert secure_goodput(100.0 * (1 - 1e-12), 0.0, 100.0) == pytest.approx(
            np.log2(101.0))
        assert secure_goodput(150.0, 0.0, 100.0) == pytest.approx(np.log2(101.0))

    def test_goodput_clamps_and_validates(self):
        assert secure_goodput(100.0, 500.0, 100.0) == 0.0
        with pytest.raises(ParameterError):
            secure_goodput(1.0, 1.0, 0.0)
        with pytest.raises(ParameterError):
            secure_goodput(-1.0, 1.0, 10.0)

    def test_full_covariance_rate_is_nonnegative_and_consistent(self):
        chan = generate_channels(4, 4, 2, rng_seed=3)
        scheme = design_known_ecsi(chan, chan.h_ea, 100.0)
        rate = secrecy_capacity_full(chan, scheme)
        assert rate >= 0.0
        # Eve is exactly nulled, so her mutual information term vanishes and
        # the rate is the intended link's capacity alone.
        hb = chan.h_ba.entries
        q_a = scheme.data_power * np.outer(scheme.t, scheme.t.conj())
        _, logdet = np.linalg.slogdet(np.eye(4) + hb @ q_a @ hb.conj().T)
        assert rate == pytest.approx(logdet / np.log(2.0), rel=1e-9)


class TestTrialWrappers:
    def test_perfect_csi_trial_meets_the_target(self):
        chan = generate_channels(4, 4, 3, rng_seed=19)
        scheme, w_b, w_e, report = perfect_csi_trial(chan, 100.0)
        assert report.sinr_b == pytest.approx(100.0, rel=1e-9)
        assert not report.outage
        again = evaluate_sinr(chan, scheme, w_b, w_e)
        assert again.sinr_b == pytest.approx(report.sinr_b, rel=1e-12)
        assert again.sinr_e == pytest.approx(report.sinr_e, rel=1e-12)

    def test_precomputed_partition_matches(self):
        chan = generate_channels(4, 4, 3, rng_seed=19)
        svd = partition_svd(chan.h_ba)
        _, _, _, direct = perfect_csi_trial(chan, 100.0)
        _, _, _, cached = perfect_csi_trial(chan, 100.0, svd=svd)
        assert direct.sinr_b == cached.sinr_b
        assert direct.sinr_e == cached.sinr_e

    def test_report_carries_the_proxy(self):
        chan = generate_channels(4, 4, 2, rng_seed=23)
        _, _, _, report = perfect_csi_trial(chan, 100.0)
        assert report.secrecy_capacity == pytest.approx(
            secrecy_capacity_proxy(report.sinr_b, report.sinr_e))


def _single_channel_calls() -> dict:
    """Every single-channel entry point that takes a target SINR, on one channel."""
    chan = generate_channels(3, 3, 2, rng_seed=6)
    svd = partition_svd(chan.h_ba)
    moments = compute_moments(svd, CsiErrorModel.iid(0.01))
    err = 0.1 * np.ones((3, 3), dtype=complex)
    return {
        "predict_naive_sinr": lambda target: predict_naive_sinr(svd, moments, chan, target),
        "simulate_naive": lambda target: simulate_naive(chan, err, target),
        "design_artificial_noise": lambda target: design_artificial_noise(chan, svd, target),
        "perfect_csi_trial": lambda target: perfect_csi_trial(chan, target),
        "design_known_ecsi": lambda target: design_known_ecsi(chan, chan.h_ea, target),
        "fdd_receiver": lambda target: fdd_receiver(chan, chan.h_ba.entries + err, target),
        "tdd_receiver": lambda target: tdd_receiver(chan, svd, moments, err, target),
    }


@pytest.mark.parametrize("target", [np.nan, np.inf])
@pytest.mark.parametrize("call", list(_single_channel_calls()))
def test_a_non_finite_target_sinr_is_refused_by_name(call, target):
    # Refused before any kernel runs: no NaN result, no failed root solve,
    # no complaint about the power fraction and no overflow warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="target_sinr must be positive and finite"):
            _single_channel_calls()[call](target)
