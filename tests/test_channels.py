"""Tests for channel generation, the SVD partition, and error models."""
from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wiretap import channels
from wiretap.channels import (
    ChannelMatrix,
    ChannelSet,
    CsiErrorModel,
    align_singular_vectors,
    generate_channels,
    partition_stack,
    partition_svd,
    perturb_ecsi,
    sample_csi_error,
)
from wiretap.exceptions import (
    DegenerateChannelError,
    DimensionError,
    IllConditionedGapError,
    OrientationError,
    ParameterError,
)
from wiretap.perturbation import (
    compute_moments,
    first_vector_leak,
    naive_trial,
    predict_naive_sinr,
    simulate_naive,
)
from wiretap.robust import fdd_receiver, tdd_receiver
from wiretap.transmit import design_artificial_noise, perfect_csi_trial


class TestGenerateChannels:
    def test_shapes_and_defaults(self):
        chan = generate_channels(4, 3, 2, rng_seed=0)
        assert chan.h_ba.entries.shape == (3, 4)
        assert chan.h_ea.entries.shape == (2, 4)
        assert chan.na == 4 and chan.nb == 3
        assert chan.sigma_b_sq == 1.0 and chan.sigma_e_sq == 1.0
        assert chan.power_p == 100.0

    def test_same_seed_reproduces_bit_for_bit(self):
        a = generate_channels(4, 4, 2, rng_seed=42)
        b = generate_channels(4, 4, 2, rng_seed=42)
        np.testing.assert_array_equal(a.h_ba.entries, b.h_ba.entries)
        np.testing.assert_array_equal(a.h_ea.entries, b.h_ea.entries)

    def test_different_seeds_differ(self):
        a = generate_channels(4, 4, 2, rng_seed=1)
        b = generate_channels(4, 4, 2, rng_seed=2)
        assert np.max(np.abs(a.h_ba.entries - b.h_ba.entries)) > 1e-3

    def test_entry_variance_and_ecsi_gain(self):
        chan = generate_channels(200, 200, 200, gamma_ea_sq=0.25, rng_seed=5)
        assert np.mean(np.abs(chan.h_ba.entries) ** 2) == pytest.approx(1.0, rel=0.05)
        assert np.mean(np.abs(chan.h_ea.entries) ** 2) == pytest.approx(0.25, rel=0.05)

    @pytest.mark.parametrize("bad", [0, -1, 2.5])
    def test_antenna_counts_validated(self, bad):
        with pytest.raises(ParameterError):
            generate_channels(bad, 2, 2, rng_seed=0)

    def test_ecsi_gain_must_be_positive(self):
        with pytest.raises(ParameterError):
            generate_channels(2, 2, 2, gamma_ea_sq=0.0, rng_seed=0)


class TestChannelContainers:
    def test_matrix_must_be_two_dimensional(self):
        with pytest.raises(DimensionError):
            ChannelMatrix(np.ones(3, dtype=complex))

    def test_matrix_holds_a_read_only_copy(self):
        arr = np.eye(2, 3, dtype=complex)
        m = ChannelMatrix(arr)
        arr[0, 0] = 5.0  # the caller's array stays theirs
        assert m.entries[0, 0] == 1.0 and not m.entries.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            m.entries[0, 0] = 5.0

    def test_matrix_rejects_nonfinite(self):
        with pytest.raises(ParameterError):
            ChannelMatrix(np.array([[np.inf, 0.0], [0.0, 1.0]], dtype=complex))

    def test_set_rejects_mismatched_transmit_counts(self):
        ba = ChannelMatrix(np.ones((2, 3), dtype=complex))
        ea = ChannelMatrix(np.ones((2, 4), dtype=complex))
        with pytest.raises(DimensionError):
            ChannelSet(h_ba=ba, h_ea=ea, sigma_b_sq=1.0, sigma_e_sq=1.0, power_p=1.0)

    def test_set_rejects_nonpositive_noise(self):
        ba = ChannelMatrix(np.ones((2, 3), dtype=complex))
        ea = ChannelMatrix(np.ones((2, 3), dtype=complex))
        with pytest.raises(ParameterError):
            ChannelSet(h_ba=ba, h_ea=ea, sigma_b_sq=0.0, sigma_e_sq=1.0, power_p=1.0)


    @pytest.mark.parametrize("noise", [dict(sigma_b_sq=1e-160), dict(sigma_e_sq=1e170)])
    def test_set_rejects_noise_outside_its_range(self, noise):
        ba = ChannelMatrix(np.ones((2, 3), dtype=complex))
        ea = ChannelMatrix(np.ones((2, 3), dtype=complex))
        params = {**dict(sigma_b_sq=1.0, sigma_e_sq=1.0, power_p=1.0), **noise}
        with pytest.raises(ParameterError, match=next(iter(noise))):
            ChannelSet(h_ba=ba, h_ea=ea, **params)

class TestPartitionSvd:
    @pytest.mark.parametrize("shape,seed", [((4, 4), 0), ((3, 6), 1), ((1, 4), 2)])
    def test_reconstruct_round_trips(self, shape, seed):
        h = generate_channels(shape[1], shape[0], 1, rng_seed=seed).h_ba.entries
        svd = partition_svd(h)
        rebuilt = (svd.u * svd.s) @ svd.v[:, : shape[0]].conj().T
        np.testing.assert_allclose(rebuilt, h, atol=1e-12)

    def test_values_descend_and_bases_are_orthonormal(self):
        h = generate_channels(6, 4, 1, rng_seed=3).h_ba.entries
        svd = partition_svd(h)
        s = svd.s
        assert np.all(np.diff(s) <= 0) and s[-1] > 0
        for basis in (svd.u, svd.v):
            np.testing.assert_allclose(
                basis.conj().T @ basis, np.eye(basis.shape[1]), atol=1e-12
            )

    def test_interference_subspace_excludes_the_dominant_direction(self):
        h = generate_channels(5, 3, 1, rng_seed=4).h_ba.entries
        svd = partition_svd(h)
        others = svd.v[:, 1:]
        assert others.shape == (5, 4)
        np.testing.assert_allclose(others.conj().T @ svd.v1, 0.0, atol=1e-12)

    def test_null_space_really_is_null(self):
        h = generate_channels(6, 3, 1, rng_seed=5).h_ba.entries
        svd = partition_svd(h)
        null = svd.v[:, 3:]
        assert null.shape == (6, 3)
        np.testing.assert_allclose(h @ null, 0.0, atol=1e-12)

    def test_phase_convention_pins_each_right_vector(self):
        h = generate_channels(4, 4, 1, rng_seed=6).h_ba.entries
        svd = partition_svd(h)
        for j in range(4):
            col = svd.v[:, j]
            pivot = col[int(np.argmax(np.abs(col)))]
            assert abs(pivot.imag) <= 1e-12 and pivot.real > 0

    def test_tall_matrices_are_refused(self):
        with pytest.raises(OrientationError):
            partition_svd(np.ones((4, 2), dtype=complex))

    def test_rank_deficiency_is_refused(self):
        h = np.zeros((3, 3), dtype=complex)
        h[0, 0] = 1.0
        h[1, 1] = 1.0
        with pytest.raises(DegenerateChannelError):
            partition_svd(h)

    def test_strong_value_near_the_weakest_sets_the_flag(self):
        err = CsiErrorModel.iid(0.01)
        with pytest.raises(IllConditionedGapError, match="gaps too small"):
            compute_moments(partition_svd(np.diag([2.0, 1.0 + 1e-9, 1.0]).astype(complex)), err)
        compute_moments(partition_svd(np.diag([2.0, 1.5, 1.0]).astype(complex)), err)

    def test_a_channel_matrix_keeps_its_decomposition_read_only(self):
        h = generate_channels(5, 3, 1, rng_seed=8).h_ba
        svd = partition_svd(h)
        assert partition_svd(h) is svd
        for arr in svd:
            assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            svd.v[0, 0] = 0.0
        # The stored decomposition is the one of the bare entries, bit for bit.
        for stored, fresh in zip(svd, partition_stack(h.entries)):
            np.testing.assert_array_equal(stored, fresh)

    def test_a_plain_array_is_never_cached(self):
        h = generate_channels(4, 4, 1, rng_seed=9).h_ba
        first, second = partition_svd(h.entries), partition_svd(h.entries)
        assert first is not second and first is not partition_svd(h)
        assert all(arr.flags.writeable for arr in first)
        first.u[0, 0] = 0.0  # a caller's own copy
        assert second.u[0, 0] != 0.0

    def test_a_nonfinite_array_is_refused_before_the_svd(self, monkeypatch):
        h = generate_channels(4, 2, 1, rng_seed=10).h_ba.entries.copy()
        h[1, 2] = np.nan
        monkeypatch.setattr(np.linalg, "svd", _no_decomposition)
        with pytest.raises(ParameterError, match="channel matrix entries must be finite"):
            partition_svd(h)


_SINGLE_CHANNEL_CALLS = {
    "compute_moments": lambda chan, svd, mom, err: compute_moments(svd, CsiErrorModel.iid(0.01)),
    "design_artificial_noise": lambda chan, svd, mom, err: design_artificial_noise(chan, svd, 10.0),
    "perfect_csi_trial": lambda chan, svd, mom, err: perfect_csi_trial(chan, 10.0, svd=svd),
    "naive_trial": lambda chan, svd, mom, err: naive_trial(chan, err, 10.0, svd=svd),
    "first_vector_leak": lambda chan, svd, mom, err: first_vector_leak(svd, mom),
    "predict_naive_sinr": lambda chan, svd, mom, err: predict_naive_sinr(svd, mom, chan, 10.0),
    "tdd_receiver": lambda chan, svd, mom, err: tdd_receiver(chan, svd, mom, err, 10.0),
}


@pytest.mark.parametrize("name", sorted(_SINGLE_CHANNEL_CALLS))
def test_single_channel_functions_refuse_a_stack(name):
    # A stacked SvdStack handed to a function of one channel is refused up
    # front with the stack's shape, not by a stray error deep inside.
    chan = generate_channels(4, 2, 2, rng_seed=3)
    mom = compute_moments(partition_svd(chan.h_ba), CsiErrorModel.iid(0.01))
    err = 0.1 * chan.h_ea.entries
    hs = np.stack([generate_channels(4, 2, 1, rng_seed=k).h_ba.entries for k in range(3)])
    with pytest.raises(DimensionError, match=r"\(3, 2, 4\)"):
        _SINGLE_CHANNEL_CALLS[name](chan, partition_stack(hs), mom, err)


def _no_decomposition(*args, **kwargs):
    raise AssertionError("a refused input reached a decomposition")


def _estimate(chan, err):
    """H + err, or a misshapen ``err`` itself as a misshapen estimate."""
    return chan.h_ba.entries + err if err.shape == chan.h_ba.entries.shape else err


# Entry points that decompose an estimate, called with a bad error sample.
_ESTIMATE_CALLS = {
    "simulate_naive": lambda chan, svd, mom, x: simulate_naive(chan, x, 10.0),
    "naive_trial": lambda chan, svd, mom, x: naive_trial(chan, x, 10.0, svd=svd),
    "fdd_receiver": lambda chan, svd, mom, x: fdd_receiver(chan, _estimate(chan, x), 10.0),
    "tdd_receiver": lambda chan, svd, mom, x: tdd_receiver(chan, svd, mom, x, 10.0),
}


@pytest.mark.parametrize("name", sorted(_ESTIMATE_CALLS))
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_a_nonfinite_estimate_is_refused_by_name(name, bad, monkeypatch):
    chan = generate_channels(4, 2, 2, rng_seed=3)
    svd = partition_svd(chan.h_ba)
    mom = compute_moments(svd, CsiErrorModel.iid(0.01))
    err = 0.1 * chan.h_ea.entries
    err[0, 1] = bad
    monkeypatch.setattr(np.linalg, "svd", _no_decomposition)
    monkeypatch.setattr(np.linalg, "eigh", _no_decomposition)
    with pytest.raises(ParameterError, match="must be finite"):
        _ESTIMATE_CALLS[name](chan, svd, mom, err)


@pytest.mark.parametrize("name", sorted(_ESTIMATE_CALLS))
@pytest.mark.parametrize("shape", [(2, 3), (4, 2), (1, 4), (2, 4, 1)])
def test_a_misshapen_error_sample_is_refused_by_name(name, shape, monkeypatch):
    chan = generate_channels(4, 2, 2, rng_seed=3)
    svd = partition_svd(chan.h_ba)
    mom = compute_moments(svd, CsiErrorModel.iid(0.01))
    err = np.full(shape, 0.1, dtype=complex)
    monkeypatch.setattr(np.linalg, "svd", _no_decomposition)
    monkeypatch.setattr(np.linalg, "eigh", _no_decomposition)
    with pytest.raises(DimensionError, match=r"has shape \(.*\), the channel \(2, 4\)"):
        _ESTIMATE_CALLS[name](chan, svd, mom, err)


class TestAlignSingularVectors:
    def test_inner_products_become_real_positive(self):
        rng = np.random.default_rng(0)
        ref = np.linalg.qr(rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3)))[0]
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
        aligned = align_singular_vectors(ref, ref * phases)
        ips = np.einsum("ij,ij->j", ref.conj(), aligned)
        np.testing.assert_allclose(ips.imag, 0.0, atol=1e-12)
        assert np.all(ips.real > 0)

    def test_orthogonal_columns_pass_through(self):
        ref = np.eye(3, 2, dtype=complex)
        perturbed = np.zeros((3, 2), dtype=complex)
        perturbed[2, 0] = 1j  # orthogonal to ref[:, 0]
        perturbed[1, 1] = 1.0
        out = align_singular_vectors(ref, perturbed)
        np.testing.assert_array_equal(out[:, 0], perturbed[:, 0])

    def test_shape_mismatch_raises(self):
        with pytest.raises(DimensionError):
            align_singular_vectors(np.eye(3), np.eye(4))


class TestCsiErrorModel:
    def test_iid_rejects_negative_variance(self):
        with pytest.raises(ParameterError):
            CsiErrorModel.iid(-1e-3)

    def test_full_rejects_non_hermitian(self):
        with pytest.raises(ParameterError):
            CsiErrorModel.full(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_full_rejects_indefinite(self):
        with pytest.raises(ParameterError):
            CsiErrorModel.full(np.diag([1.0, -1.0]))

    def test_full_psd_refusal_message_is_unchanged(self):
        with pytest.raises(ParameterError) as info:
            CsiErrorModel.full(np.diag([2.0, 1.0, -0.25]))
        assert str(info.value) == "covariance is not positive semidefinite (min eig -2.500e-01)"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan)])
    def test_full_refuses_a_nonfinite_entry_by_name(self, bad):
        cov = np.eye(4, dtype=complex)
        cov[2, 1] = bad
        with pytest.raises(ParameterError, match="covariance entries must be finite"):
            CsiErrorModel.full(cov)

    def test_full_accepts_a_psd_covariance_from_its_cholesky_factor(self, monkeypatch):
        # Full-rank and rank-deficient covariances alike: the shifted
        # factorization proves the bound, and no spectrum is computed.
        monkeypatch.setattr(np.linalg, "eigvalsh", _no_decomposition)
        rng = np.random.default_rng(11)
        for rank in (8, 3, 0):
            x = rng.standard_normal((8, rank)) + 1j * rng.standard_normal((8, rank))
            CsiErrorModel.full(x @ x.conj().T)

    @staticmethod
    def _planted(n, seed, scale_exp, plant, spike):
        """A Hermitian n x n matrix whose smallest eigenvalue is planted at
        0, at -0.5, -0.9 or -2 times the refusal threshold -1e-9 max(largest,
        1), or at 0 with half the spectrum (rank).  A spiked spectrum keeps
        the diagonal far below the largest eigenvalue, so the shifted
        Cholesky factor cannot prove a planted -0.9 and the eigenvalues
        decide."""
        rng = np.random.default_rng(seed)
        q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        lam = rng.uniform(0.1, 1.0, n) * 10.0 ** (scale_exp - 4 * spike)
        lam[-1] = 10.0**scale_exp if spike and n > 1 else lam[-1]
        threshold = 1e-9 * max(lam[1:].max(initial=0.0), 1.0)
        lam[0] = {"half": -0.5, "near": -0.9, "double": -2.0}.get(plant, 0.0) * threshold
        if plant == "rank":
            lam[: n // 2] = 0.0
        return (q * lam) @ q.conj().T

    def test_full_falls_back_to_the_spectrum_near_the_threshold(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
        CsiErrorModel.full(self._planted(16, 5, 3, "near", spike=True))
        with pytest.raises(ParameterError, match="not positive semidefinite"):
            CsiErrorModel.full(self._planted(16, 5, 3, "double", spike=True))
        assert len(calls) == 2

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
        scale_exp=st.integers(-3, 3),
        plant=st.sampled_from(["zero", "half", "near", "double", "rank"]),
        spike=st.booleans(),
    )
    def test_full_decides_as_the_spectrum_does(self, n, seed, scale_exp, plant, spike):
        # Round-off in forming the matrix (~1e-13 of the largest eigenvalue)
        # is far below the 10 % margins to the threshold, so the spectrum's
        # verdict is the planted one, and the check must agree with it.
        cov = self._planted(n, seed, scale_exp, plant, spike)
        eigs = np.linalg.eigvalsh((cov + cov.conj().T) / 2.0)
        refused_by_spectrum = eigs[0] < -1e-9 * max(eigs[-1], 1.0)
        assert refused_by_spectrum == (plant == "double")
        if refused_by_spectrum:
            with pytest.raises(ParameterError, match="not positive semidefinite"):
                CsiErrorModel.full(cov)
        else:
            CsiErrorModel.full(cov)

    def test_full_holds_a_read_only_copy(self):
        # Editing the caller's array after the check must not reach the model.
        c = np.eye(4, dtype=complex)
        m = CsiErrorModel.full(c)
        c[0, 0] = -5
        assert np.linalg.eigvalsh(m.cov)[0] == 1.0
        with pytest.raises(ValueError, match="read-only"):
            m.cov[0, 0] = -5
        with pytest.raises(ValueError, match="read-only"):
            m.scaled(2.0).cov[0, 0] = -5

    @pytest.mark.parametrize("factor", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind", ["iid", "full"])
    def test_scaled_refuses_a_nonfinite_factor(self, kind, factor):
        m = CsiErrorModel.iid(0.1) if kind == "iid" else CsiErrorModel.full(0.1 * np.eye(4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="finite and >= 0"):
                m.scaled(factor)

    @pytest.mark.parametrize("kind", ["iid", "full"])
    def test_scaled_keeps_finite_factors(self, kind):
        m = CsiErrorModel.iid(0.1) if kind == "iid" else CsiErrorModel.full(0.1 * np.eye(4))
        for factor in (0.0, 3.0):
            got = m.scaled(factor)
            assert got.kind == kind
            if kind == "iid":
                assert got.sigma_h_sq == 0.1 * factor
            else:
                np.testing.assert_array_equal(got.cov, 0.1 * factor * np.eye(4))

    def test_cov_tensor_of_iid_is_a_scaled_identity(self):
        t = CsiErrorModel.iid(0.5).cov_tensor(2, 3)
        assert t.shape == (2, 3, 2, 3)
        want = 0.5 * np.einsum("ab,pq->apbq", np.eye(2), np.eye(3))
        np.testing.assert_array_equal(t, want)


class TestSampleCsiError:
    def test_zero_model_samples_exact_zeros(self):
        out = sample_csi_error(CsiErrorModel.zero(), 3, 4, rng_seed=0)
        assert out.shape == (3, 4) and not np.any(out)

    def test_seeded_sampling_is_deterministic(self):
        model = CsiErrorModel.iid(1e-2)
        a = sample_csi_error(model, 3, 4, rng_seed=[1, 2])
        b = sample_csi_error(model, 3, 4, rng_seed=[1, 2])
        np.testing.assert_array_equal(a, b)

    def test_iid_second_moment(self):
        model = CsiErrorModel.iid(0.04)
        draws = np.stack(
            [sample_csi_error(model, 4, 4, rng_seed=[3, k]) for k in range(2000)]
        )
        assert np.mean(np.abs(draws) ** 2) == pytest.approx(0.04, rel=0.05)

    def test_full_covariance_is_matched_empirically(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        cov = a @ a.conj().T / 8.0
        model = CsiErrorModel.full(cov)
        acc = np.zeros((4, 4), dtype=complex)
        n = 4000
        for k in range(n):
            vec = sample_csi_error(model, 2, 2, rng_seed=[9, k]).reshape(-1, order="F")
            acc += np.outer(vec, vec.conj())
        assert np.max(np.abs(acc / n - cov)) <= 0.1 * np.max(np.abs(cov))

    def test_covariance_side_must_match_dimensions(self):
        model = CsiErrorModel.full(np.eye(4))
        with pytest.raises(DimensionError):
            sample_csi_error(model, 3, 3, rng_seed=0)


class TestPerturbEcsi:
    def test_gamma_zero_returns_the_input_unchanged(self):
        h = generate_channels(3, 2, 2, rng_seed=10).h_ea
        out = perturb_ecsi(h, 0.0, rng_seed=11)
        np.testing.assert_array_equal(out.entries, h.entries)

    def test_blend_preserves_average_power(self):
        h = generate_channels(40, 2, 40, rng_seed=12).h_ea
        out = perturb_ecsi(h, 0.3, rng_seed=13)
        assert np.mean(np.abs(out.entries) ** 2) == pytest.approx(1.0, rel=0.15)

    def test_gamma_one_is_a_fresh_draw(self):
        h = generate_channels(3, 2, 2, rng_seed=14).h_ea
        out = perturb_ecsi(h, 1.0, rng_seed=15)
        assert np.min(np.abs(out.entries - h.entries)) > 1e-6

    @pytest.mark.parametrize("gamma", [-0.1, 1.5])
    def test_gamma_outside_unit_interval_raises(self, gamma):
        h = generate_channels(3, 2, 2, rng_seed=16).h_ea
        with pytest.raises(ParameterError):
            perturb_ecsi(h, gamma)


@pytest.mark.parametrize("shape, sliced", [
    ((4, 4), False), ((5, 1), False), ((6, 3), True), ((3, 4, 4), False), ((7, 5, 1), False),
    ((2, 3, 5, 2), False), ((2, 3, 5, 3), True),
])
def test_phase_fixing_gathers_the_pivots_take_along_axis_gathers(shape, sliced):
    # No, one and two leading axes, a single column, and a strided view
    # (the last column of a stack, as estimate_basis passes it); exact ties
    # in magnitude resolve to the lowest index.
    rng = np.random.default_rng(sum(shape))
    v = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    v[..., :4, 0] = np.array([-5j, 5.0, 5j, -5.0])[:shape[-2]]
    if shape[-1] > 1:
        v[..., :3, 1] = np.array([0.5, 6j, -6.0])
    if sliced:
        v = v[..., 1:]
    pivot = np.take_along_axis(v, np.abs(v).argmax(axis=-2)[..., None, :], axis=-2)
    want = pivot / np.hypot(pivot.real, pivot.imag)
    fixed, phase = channels._phase_fixed(v)
    assert phase.shape == want.shape and fixed.shape == v.shape
    assert phase.tobytes() == want.tobytes()
    assert fixed.tobytes() == (v / want).tobytes()
    if not sliced:
        np.testing.assert_array_equal(phase[..., 0, 0], -1j)
