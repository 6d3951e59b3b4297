"""Tests for the two receiver-side recovery modes."""
from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from numpy.random import SeedSequence, default_rng

import oracles
from wiretap.channels import (
    ChannelMatrix,
    ChannelSet,
    CsiErrorModel,
    complex_gaussian,
    estimate_basis,
    generate_channels,
    partition_svd,
)
from wiretap.exceptions import DegenerateChannelError, OrientationError, ParameterError
from wiretap.perturbation import compute_moments, naive_trial, simulate_naive
from wiretap.robust import _fdd_trial, _tdd_trial, fdd_receiver, tdd_receiver
from wiretap import robust, transmit
from wiretap.transmit import link_sinr, run_trial

TARGET = 100.0
SIGMA_SQ = 0.1  # -10 dB error power, where recovery matters most


def _error(chan, seed):
    rng = default_rng(SeedSequence([31, seed]))
    return np.sqrt(SIGMA_SQ) * complex_gaussian(rng, chan.nb, chan.na)


def _error_model(chan, kind):
    """For ``kind`` "full" a correlated error covariance of mean per-entry
    power ``SIGMA_SQ``, else i.i.d. error of that power."""
    if kind != "full":
        return CsiErrorModel.iid(SIGMA_SQ)
    size = chan.nb * chan.na
    root = complex_gaussian(default_rng(SeedSequence([31, 99])), size, size)
    return CsiErrorModel.full(SIGMA_SQ * (root @ root.conj().T) / size)


def _tilde(h_tilde):
    """The estimate's basis as the trial functions take it."""
    return estimate_basis(h_tilde)


class TestFddReceiver:
    def test_zero_error_is_exact(self):
        chan = generate_channels(4, 4, 2, rng_seed=77)
        _, report = fdd_receiver(chan, chan.h_ba.entries, TARGET)
        assert report.sinr_b == pytest.approx(TARGET, rel=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_output_lands_exactly_on_target(self, seed):
        # The receiver chooses rho against the interference it actually
        # receives, so every non-outage trial meets the target to numerical
        # precision no matter how wrong the transmitter's estimate was.
        chan = generate_channels(5, 5, 3, rng_seed=seed)
        h_tilde = chan.h_ba.entries + _error(chan, seed)
        _, report = fdd_receiver(chan, h_tilde, TARGET)
        if report.outage:
            pytest.skip("trial in outage")
        assert report.sinr_b == pytest.approx(TARGET, rel=1e-9)

    def test_propagation_model_changes_the_combiner(self):
        chan = generate_channels(4, 4, 2, rng_seed=5)
        h_tilde = chan.h_ba.entries + _error(chan, 5)
        beam_true, rep_true = fdd_receiver(chan, h_tilde, TARGET)
        beam_est, rep_est = fdd_receiver(
            chan, h_tilde, TARGET, propagate_through_estimate=True)
        assert np.max(np.abs(beam_true.w - beam_est.w)) > 1e-9
        # Only the true-channel design still hits the target exactly.
        assert rep_true.sinr_b == pytest.approx(TARGET, rel=1e-9)
        assert abs(rep_est.sinr_b - TARGET) > 1e-6

    def test_report_matches_a_direct_reevaluation(self):
        chan = generate_channels(4, 4, 3, rng_seed=11)
        h_tilde = chan.h_ba.entries + _error(chan, 11)
        tilde = _tilde(h_tilde)
        beam, report, design = _fdd_trial(chan, tilde, TARGET)
        scheme, _, bob, _ = run_trial(chan, design, TARGET)
        again = link_sinr(chan.h_ba, scheme, beam, chan.sigma_b_sq)
        assert again.sinr == pytest.approx(report.sinr_b, rel=1e-12)
        assert bob.sinr == pytest.approx(report.sinr_b, rel=1e-12)
        assert beam.kind == "robust_fdd"
        assert 0.0 < scheme.rho <= 1.0
        np.testing.assert_array_equal(scheme.t, tilde.v1)

    def test_outage_at_a_tiny_budget(self):
        hb = ChannelMatrix(np.diag([2.0, 1.0]).astype(complex))
        he = ChannelMatrix(np.array([[0.3, 0.7]], dtype=complex))
        chan = ChannelSet(h_ba=hb, h_ea=he, sigma_b_sq=1.0, sigma_e_sq=1.0,
                          power_p=1e-6)
        _, report = fdd_receiver(chan, hb.entries, TARGET)
        assert report.outage
        assert report.sinr_b < TARGET

    def test_a_rank_deficient_channel_is_refused_as_its_decomposition_is(self):
        # The design reads the SVD partition_svd caches for the channel, which
        # refuses a rank-deficient one; propagated through the estimate, the
        # design reads no decomposition of the channel.
        hb = ChannelMatrix(np.array([[1.0, 0.5], [2.0, 1.0]], dtype=complex))
        he = ChannelMatrix(np.array([[0.3, 0.7]], dtype=complex))
        chan = ChannelSet(h_ba=hb, h_ea=he, sigma_b_sq=1.0, sigma_e_sq=1.0, power_p=100.0)
        h_tilde = hb.entries + np.array([[0.1, 0.0], [0.0, 0.2]])
        with pytest.raises(DegenerateChannelError):
            fdd_receiver(chan, h_tilde, TARGET)
        _, report = fdd_receiver(chan, h_tilde, TARGET, propagate_through_estimate=True)
        assert np.isfinite(report.sinr_b) and report.sinr_b > 0.0

    def test_rejects_a_nonpositive_target(self):
        chan = generate_channels(3, 3, 2, rng_seed=2)
        with pytest.raises(ParameterError):
            fdd_receiver(chan, chan.h_ba.entries, 0.0)

    def test_a_target_met_at_the_bracket_floor_requests_the_floor(self):
        # gain(rho) is already above a -150 dB target at the floor
        # fraction; the crossing lies below it.
        chan = generate_channels(3, 3, 2, rng_seed=2)
        target = 10.0 ** (-150.0 / 10.0)
        h_tilde = chan.h_ba.entries + 0.1 * _error(chan, 2)
        _, report, design = _fdd_trial(chan, _tilde(h_tilde), target)
        assert design.rho.item() == robust._RHO_FLOOR
        assert not report.outage
        assert report.sinr_b >= target
        _, report = fdd_receiver(chan, h_tilde, target)
        assert not report.outage


@pytest.mark.parametrize("propagate", [False, True])
def test_the_single_channel_receiver_is_the_eigh_reference(propagate):
    # fdd_receiver designs from the SVD its channel caches, or under
    # propagation is the naive design on the estimate; either way its
    # report is the oracle's eigh-whitened receiver's to round-off, with
    # nb < na and at a target out of reach.
    for k in range(24):
        na, nb, ne = [(4, 4, 2), (5, 3, 4), (3, 1, 2), (6, 6, 6)][k % 4]
        chan = generate_channels(na, nb, ne, rng_seed=[47, k])
        h_tilde = chan.h_ba.entries + _error(chan, 100 + k)
        for target in (10.0, 1e6):
            _, report = fdd_receiver(chan, h_tilde, target, propagate_through_estimate=propagate)
            want = oracles.fdd_trial(chan, partition_svd(h_tilde), target, propagate)[0]
            assert report.outage == want.outage
            for got, ref in ((report.sinr_b, want.sinr_b), (report.sinr_e, want.sinr_e)):
                assert got == pytest.approx(ref, rel=1e-10, abs=1e-12), (k, target)


class TestTddReceiver:
    def test_zero_error_is_exact(self):
        chan = generate_channels(4, 4, 2, rng_seed=77)
        svd = partition_svd(chan.h_ba)
        moments = compute_moments(svd, CsiErrorModel.zero())
        _, report = tdd_receiver(chan, svd, moments, np.zeros((4, 4)), TARGET)
        assert report.sinr_b == pytest.approx(TARGET, rel=1e-9)

    @pytest.mark.parametrize("model", ["iid", "full", "iid_scaled"])
    def test_expected_signature_drives_the_match(self, monkeypatch, model):
        # One kernel for both error models: i.i.d. moments, scaled ones
        # included, hand it Bob's dominant triplet alone and a full
        # covariance his whole basis; both whiten the same way.
        chan = generate_channels(5, 5, 2, rng_seed=3)
        svd = partition_svd(chan.h_ba)
        moments = compute_moments(svd, _error_model(chan, model))
        if model == "iid_scaled":
            moments = moments.scaled(0.5)
        assert (moments.iid_drift is None) == (model == "full")
        widths = []

        def spy(u, *args, robust_tdd=robust.robust_tdd):
            widths.append(u.shape[-1])
            return robust_tdd(u, *args)

        monkeypatch.setattr(robust, "robust_tdd", spy)
        h_tilde = chan.h_ba.entries + _error(chan, 3)
        beam, _, design = _tdd_trial(chan, svd, moments, _tilde(h_tilde), TARGET)
        assert widths == [chan.nb if model == "full" else 1]
        scheme = run_trial(chan, design, TARGET)[0]
        # The combiner whitens the expected interference shape and matches
        # the expected signature H (v1 + E{dv1}).
        h = chan.h_ba.entries
        beta = (1.0 - scheme.rho) * chan.power_p / (chan.na - 1)
        shape = oracles.tdd_shape(h, svd.sigma1, svd.u1, moments.e_dv1)
        want = np.linalg.solve(beta * shape + chan.sigma_b_sq * np.eye(chan.nb),
                               h @ (svd.v1 + moments.e_dv1))
        assert beam.kind == "robust_tdd"
        np.testing.assert_allclose(beam.w, want, rtol=1e-9)

    def test_requested_fraction_is_blind_to_the_realization(self):
        # The statistical receiver sizes power from moments alone, so two
        # different error draws produce the same rho.
        chan = generate_channels(4, 4, 2, rng_seed=9)
        svd = partition_svd(chan.h_ba)
        moments = compute_moments(svd, CsiErrorModel.iid(SIGMA_SQ))
        rhos = []
        for seed in (0, 1):
            tilde = _tilde(chan.h_ba.entries + _error(chan, seed))
            _, _, design = _tdd_trial(chan, svd, moments, tilde, TARGET)
            rhos.append(run_trial(chan, design, TARGET)[0].rho)
        assert rhos[0] == pytest.approx(rhos[1], rel=1e-12)

    def test_diagonal_loading_restores_definiteness(self, monkeypatch):
        # An expected beam drift orthogonal to the nominal direction makes
        # the cross terms indefinite; a fabricated drift forces that corner,
        # and loaded_noise reports the loading it applied.
        chan = generate_channels(4, 4, 2, rng_seed=9)
        svd = partition_svd(chan.h_ba)
        # Such a drift is not i.i.d. error's, so the moments are marked as a
        # full covariance's and couple Bob's whole basis.
        drift = 3.0 * svd.v[:, 1]
        moments = replace(compute_moments(svd, CsiErrorModel.zero()), e_dv1=drift.astype(complex),
                          iid_drift=None)
        tilde = _tilde(chan.h_ba.entries + _error(chan, 4))
        loads = []

        def spy(*args, loaded_noise=robust.loaded_noise):
            loads.append(loaded_noise(*args))
            return loads[-1]

        monkeypatch.setattr(robust, "loaded_noise", spy)
        beam, report, design = _tdd_trial(chan, svd, moments, tilde, TARGET)
        (noise, loaded), = loads
        assert loaded.all() and noise[0] > chan.sigma_b_sq
        assert np.isfinite(report.sinr_b)
        # The loaded system is positive definite, and the combiner solves it.
        h = chan.h_ba.entries
        beta = robust.noise_share(design.rho[0], chan.power_p, chan.na)
        system = (beta * oracles.tdd_shape(h, svd.sigma1, svd.u1, moments.e_dv1)
                  + noise[0] * np.eye(chan.nb))
        assert np.linalg.eigvalsh(system).min() > 0.0
        want = np.linalg.solve(system, h @ (svd.v1 + moments.e_dv1))
        np.testing.assert_allclose(beam.w, want, rtol=1e-9)

    def test_the_loading_decision_is_the_smallest_eigenvalues(self, monkeypatch):
        # beta M + sigma_b^2 I is positive definite exactly where the Schur
        # complement on its arrowhead corner is positive, so the kernel loads
        # where the smallest eigenvalue of the oracle's shape says it must,
        # on random full covariances from mild to strong (away from the
        # boundary); every combiner solves its system, loaded or not.
        loads = []

        def spy(*args, loaded_noise=robust.loaded_noise):
            loads.append(loaded_noise(*args))
            return loads[-1]

        monkeypatch.setattr(robust, "loaded_noise", spy)
        decided = Counter()
        for k in range(200):
            rng = default_rng(SeedSequence([37, k]))
            na = (2, 3, 5)[k % 3]
            nb = na - (k // 3) % 2 if na > 2 else na
            chan = generate_channels(na, nb, 2, rng_seed=[37, k])
            svd = partition_svd(chan.h_ba)
            root = complex_gaussian(rng, nb * na, nb * na)
            scale = 10.0 ** rng.uniform(-1.0, 2.0)
            cov = scale * (root @ root.conj().T) / (nb * na)
            moments = compute_moments(svd, CsiErrorModel.full(cov))
            target = (1.0, 100.0, 1e4)[k % 3]
            tilde = estimate_basis(chan.h_ba.entries)
            beam, _, design = _tdd_trial(chan, svd, moments, tilde, target)
            # loaded_noise runs only where some entry loads.
            noise, loaded = loads.pop() if loads else ([chan.sigma_b_sq], [False])
            h = chan.h_ba.entries
            beta = robust.noise_share(design.rho[0], chan.power_p, na)
            shape = beta * oracles.tdd_shape(h, svd.sigma1, svd.u1, moments.e_dv1)
            eye = np.eye(nb)
            least = np.linalg.eigvalsh(shape + chan.sigma_b_sq * eye).min()
            if abs(least) > 1e-9 * (np.linalg.norm(shape, 2) + chan.sigma_b_sq):
                assert loaded[0] == (least <= 0.0), k
                decided[bool(loaded[0])] += 1
            # Loading restores definiteness.
            assert np.linalg.eigvalsh(shape + noise[0] * eye).min() > 0.0, k
            want = np.linalg.solve(shape + noise[0] * eye, h @ (svd.v1 + moments.e_dv1))
            assert np.linalg.norm(beam.w - want) <= 1e-9 * np.linalg.norm(want), k
        # Both decisions are exercised.
        assert decided[True] >= 20 and decided[False] >= 100, decided

    @pytest.mark.parametrize("shape", [(2, 2, 2), (5, 5, 5), (8, 8, 8), (4, 2, 2)])
    def test_a_full_covariance_takes_no_decomposition(self, monkeypatch, shape):
        # The statistical receiver solves its arrowhead system in closed
        # form: no eigh, eigvalsh, solve or svd on a full covariance.  The
        # estimate's own eigh models the transmitter and is taken first, as
        # are the channel's cached SVD and Eve's spectrum.
        na, nb, ne = shape
        chan = generate_channels(na, nb, ne, rng_seed=[43, na, nb])
        svd = partition_svd(chan.h_ba)
        moments = compute_moments(svd, _error_model(chan, "full"))
        err = _error(chan, 5)
        tilde = estimate_basis(chan.h_ba.entries + err)
        assert chan.eve_spectrum is not None
        monkeypatch.setattr(robust, "estimate_basis", lambda est: tilde)
        calls = []
        for name in ("eigh", "eigvalsh", "solve", "svd"):
            monkeypatch.setattr(np.linalg, name,
                                lambda *a, name=name, fn=getattr(np.linalg, name):
                                calls.append(name) or fn(*a))
        beam, report = tdd_receiver(chan, svd, moments, err, TARGET)
        monkeypatch.undo()
        assert calls == []
        want_beam, want_report = tdd_receiver(chan, svd, moments, err, TARGET)
        np.testing.assert_array_equal(beam.w, want_beam.w)
        assert report == want_report

    def test_outage_at_a_tiny_budget(self):
        hb = ChannelMatrix(np.diag([2.0, 1.0]).astype(complex))
        he = ChannelMatrix(np.array([[0.3, 0.7]], dtype=complex))
        chan = ChannelSet(h_ba=hb, h_ea=he, sigma_b_sq=1.0, sigma_e_sq=1.0,
                          power_p=1e-6)
        svd = partition_svd(chan.h_ba)
        moments = compute_moments(svd, CsiErrorModel.zero())
        _, report = tdd_receiver(chan, svd, moments, np.zeros((2, 2)), TARGET)
        assert report.outage

    def test_rejects_a_nonpositive_target(self):
        chan = generate_channels(3, 3, 2, rng_seed=2)
        svd = partition_svd(chan.h_ba)
        moments = compute_moments(svd, CsiErrorModel.zero())
        with pytest.raises(ParameterError):
            tdd_receiver(chan, svd, moments, np.zeros((3, 3)), -1.0)


class TestRecoveryOrdering:
    def test_recovery_modes_bracket_the_naive_receiver(self):
        # Paired trials at strong error power: pooled ratio-of-expectations
        # SINR must order naive < tdd < fdd, with fdd exactly on target.
        trials = 400
        model = CsiErrorModel.iid(SIGMA_SQ)
        sums = {k: [0.0, 0.0] for k in ("naive", "tdd", "fdd")}
        for i in range(trials):
            chan = generate_channels(5, 5, 5, rng_seed=[41, i])
            svd = partition_svd(chan.h_ba)
            err = np.sqrt(SIGMA_SQ) * complex_gaussian(
                default_rng(SeedSequence([41, 100, i])), 5, 5)
            _, bob, _, _ = naive_trial(chan, err, TARGET, svd=svd)
            sums["naive"][0] += bob.signal_power
            sums["naive"][1] += bob.interference_plus_noise

            tilde = _tilde(chan.h_ba.entries + err)
            _, _, bob_f, _ = run_trial(chan, _fdd_trial(chan, tilde, TARGET)[2], TARGET)
            sums["fdd"][0] += bob_f.signal_power
            sums["fdd"][1] += bob_f.interference_plus_noise

            moments = compute_moments(svd, model)
            design = _tdd_trial(chan, svd, moments, tilde, TARGET)[2]
            _, _, bob_t, _ = run_trial(chan, design, TARGET)
            sums["tdd"][0] += bob_t.signal_power
            sums["tdd"][1] += bob_t.interference_plus_noise
        pooled = {k: s / n for k, (s, n) in sums.items()}
        assert pooled["naive"] < pooled["tdd"] < pooled["fdd"]
        assert pooled["fdd"] == pytest.approx(TARGET, rel=1e-9)
        # The statistical mode recovers most of the gap at this error power.
        assert pooled["tdd"] > 10 * pooled["naive"]


@pytest.mark.parametrize("trial", ["naive", "fdd", "tdd"])
def test_trial_paths_evaluate_each_link_once(monkeypatch, trial):
    # The powers a trial returns are the two link evaluations its SINR
    # report was built from, not a second evaluation of the same links:
    # Bob's through link, Eve's in closed form from her spectrum, which
    # builds no combiner and does not run link.  The receivers' trials
    # return their design, whose links run_trial evaluates into the same
    # report.
    chan = generate_channels(4, 4, 3, rng_seed=23, sigma_e_sq=0.5)
    err = _error(chan, 23)
    svd = partition_svd(chan.h_ba)
    tilde = _tilde(chan.h_ba.entries + err)
    moments = compute_moments(svd, CsiErrorModel.iid(SIGMA_SQ))
    calls = []
    link, eve_link = transmit.link, transmit.eve_link
    monkeypatch.setattr(transmit, "link", lambda *a: calls.append(("link", a[5])) or link(*a))
    monkeypatch.setattr(transmit, "eve_link",
                        lambda *a: calls.append(("eve_link", a[4])) or eve_link(*a))
    if trial == "naive":
        report, bob, eve, scheme = naive_trial(chan, err, TARGET, svd=svd)
    elif trial == "fdd":
        _, report, design = _fdd_trial(chan, tilde, TARGET)
    else:
        _, report, design = _tdd_trial(chan, svd, moments, tilde, TARGET)
    assert calls == [("link", chan.sigma_b_sq), ("eve_link", chan.sigma_e_sq)]
    if trial != "naive":
        _, again, bob, eve = run_trial(chan, design, TARGET)
        assert again == report
    assert (report.sinr_b, report.sinr_e) == (bob.sinr, eve.sinr)


def test_a_rank_deficient_estimate_is_designed_from():
    # The designs read only the estimate's sigma1 and dominant right vector,
    # which exist at any rank, so a rank-one estimate is designed from like
    # any other; a tall channel is still refused by shape, and the all-zero
    # estimate keeps its outcomes: the exact-knowledge receiver meets the
    # target through the true channel, but propagating through the zero
    # estimate and the naive design, which has no sigma1 to size from, are
    # refused by the estimate's name before any design.
    chan = generate_channels(4, 4, 2, rng_seed=3)
    h = chan.h_ba.entries
    svd = partition_svd(chan.h_ba)
    moments = compute_moments(svd, CsiErrorModel.iid(0.01))
    target = 10.0
    rank_one = np.outer(np.arange(1, 5), np.ones(4)).astype(complex)
    reports = [
        fdd_receiver(chan, rank_one, target)[1],
        fdd_receiver(chan, rank_one, target, propagate_through_estimate=True)[1],
        tdd_receiver(chan, svd, moments, rank_one - h, target)[1],
        simulate_naive(chan, rank_one - h, target),
    ]
    for report in reports:
        assert np.isfinite([report.sinr_b, report.sinr_e, report.secrecy_capacity]).all()
        assert min(report.sinr_b, report.sinr_e, report.secrecy_capacity) >= 0.0
    assert reports[0].sinr_b == pytest.approx(target, rel=1e-9)

    tall = generate_channels(2, 4, 2, rng_seed=3)
    with pytest.raises(OrientationError):
        fdd_receiver(tall, tall.h_ba.entries, target)
    with pytest.raises(OrientationError):
        estimate_basis(tall.h_ba.entries)

    zero = np.zeros_like(h)
    assert fdd_receiver(chan, zero, target)[1].sinr_b == pytest.approx(target, rel=1e-9)
    with pytest.raises(ParameterError, match="h_tilde is all zero"):
        fdd_receiver(chan, zero, target, propagate_through_estimate=True)
    assert np.isfinite(tdd_receiver(chan, svd, moments, zero - h, target)[1].sinr_b)
    with pytest.raises(ParameterError, match=r"H \+ err_sample is all zero"):
        simulate_naive(chan, zero - h, target)
