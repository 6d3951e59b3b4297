"""Second-order statistics of a perturbed singular value decomposition.

When the transmitter designs from an estimate H + dH instead of H, the
quantities the design rests on (the dominant right singular vector, the
largest singular value) move.  For zero-mean circularly-symmetric dH with
known covariance, every first and second moment of those movements has a
closed form in the unperturbed decomposition and the error covariance.  This
module computes them, turns them into a closed-form receive-SINR degradation
estimate, and provides the matching Monte Carlo simulation of the mismatched
("naive") link.

Conventions.  The channel is n_rx x n_tx with n_rx <= n_tx; perturbed
singular vectors are phase-aligned so the inner product with their
unperturbed counterpart is real and positive, matching
``channels.align_singular_vectors``.  All moment formulas are exact through
second order in dH.  The central object is the second-moment tensor of the
error expressed in the singular bases,

    M[i, j, k, l] = E{ (u_i^H dH v_j) (u_k^H dH v_l)^* },

with i, k over the n_rx left directions and j, l over all n_tx right
directions (null-space directions included).  For an i.i.d. error of
per-entry variance s2 the tensor collapses to s2 * delta_ik * delta_jl.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .channels import ChannelSet, CsiErrorModel, SvdStack, estimate_basis, finite, matching
from .channels import nonzero, partition_svd
from .exceptions import IllConditionedGapError, ParameterError, ValidityRangeError
from .stacked import vdot
from .transmit import (
    LinkSinr,
    SinrReport,
    TxScheme,
    noise_share,
    required_rho,
    run_trial,
    single_artificial_noise,
)

# Relative thresholds (of sigma_1^2) below which a gap between squared
# singular values makes the second-order expansion meaningless: a gap to the
# weakest value, then any adjacent gap.
_WEAKEST_GAP = 1e-8
_PAIR_GAP_TOL = 1e-10


def _check_gaps(s: np.ndarray) -> None:
    """Raise :class:`IllConditionedGapError` where the descending singular
    values ``s`` (..., m) are too close for the expansion to hold."""
    lam = s**2
    lam1 = lam[..., :1]
    if (lam[..., :-1] - lam[..., -1:] < _WEAKEST_GAP * lam1).any():
        raise IllConditionedGapError(
            "singular-value gaps too small: perturbation moments are unreliable"
        )
    if (lam[..., :-1] - lam[..., 1:] < _PAIR_GAP_TOL * lam1).any():
        raise IllConditionedGapError(
            "near-degenerate singular values: perturbation moments are unreliable"
        )


@dataclass(frozen=True)
class PerturbMoments:
    """Closed-form perturbation moments for one channel and error model.

    Fields:
      d             real (f-1,): reciprocal gaps 1/(sigma_i^2 - sigma_f^2).
      g             E{dH v_f v_f^H dH^H}, the error energy seen through the
                    weakest right direction (n_rx x n_rx).
      g_prime       E{dH V_s D V_s^H dH^H} with D = diag(d) (n_rx x n_rx).
      g_dprime      E{dH^H U_s D U_s^H dH} (n_tx x n_tx).
      k             E{dH V_s V_s^H dH^H} (n_rx x n_rx).
      e_dv_s        E{dV_s}: mean drift of the strong right singular
                    vectors, columns j = 1..f-1 (n_tx x (f-1)).
      e_vs_dvs      E{V_s^H dV_s}: the same drifts in the strong right
                    basis ((f-1) x (f-1)); diagonal entries are the real,
                    nonpositive self-alignment losses.
      e_dsigma1     E{d sigma_1}: mean drift of the top singular value.
      e_dsigma1_sq  E{(d sigma_1)^2}: its second moment.
      e_dv1         E{dv_1}: first column of e_dv_s (n_tx,).
      iid_drift     the real c with E{dv_1} = c v_1 when the moments come
                    from an i.i.d. error model (``CsiErrorModel.iid``),
                    else None.  It records the model's kind: the drift then
                    lies along v_1, so the statistical receiver
                    (``robust.robust_tdd``) couples Bob's dominant triplet
                    alone rather than his whole basis.
      e_dv1_outer   E{dv_1 dv_1^H}: spread of the dominant right vector
                    around its mean, Hermitian PSD (n_tx x n_tx).  Its trace
                    equals the leaked power E{1 - |v_1^H v~_1|^2}, so
                    v_1 v_1^H + v_1 e_dv1^H + e_dv1 v_1^H + e_dv1_outer is a
                    trace-one model of E{v~_1 v~_1^H}.

    Only ``e_dsigma1``, ``e_dsigma1_sq``, ``e_dv1`` and ``iid_drift`` are
    stored: they are what the SINR prediction and the statistical receiver
    read.  The other eight cost several times as much (covariance
    sandwiches and the drift of every strong vector) and are built together
    on first access of any of them, by ``_build``.
    """

    e_dsigma1: float
    e_dsigma1_sq: float
    e_dv1: np.ndarray
    iid_drift: float | None
    _build: Callable[[], dict[str, np.ndarray]] = field(repr=False, compare=False)

    @cached_property
    def _deferred(self) -> dict[str, np.ndarray]:
        return self._build()

    d = property(lambda self: self._deferred["d"])
    g = property(lambda self: self._deferred["g"])
    g_prime = property(lambda self: self._deferred["g_prime"])
    g_dprime = property(lambda self: self._deferred["g_dprime"])
    k = property(lambda self: self._deferred["k"])
    e_dv_s = property(lambda self: self._deferred["e_dv_s"])
    e_vs_dvs = property(lambda self: self._deferred["e_vs_dvs"])
    e_dv1_outer = property(lambda self: self._deferred["e_dv1_outer"])

    def scaled(self, factor: float) -> PerturbMoments:
        """Moments for the same channel with the error covariance scaled.

        Every expectation is linear in the error covariance, so scaling by
        ``factor`` is exact.  The reciprocal gaps ``d`` describe the channel,
        not the error, and stay as they are.  The deferred fields are scaled
        when they are built, and the error model's kind is kept.
        """
        if not (np.isfinite(factor) and factor >= 0):
            raise ParameterError(f"scale factor must be finite and >= 0, got {factor}")

        def build() -> dict[str, np.ndarray]:
            return {name: x if name == "d" else x * factor for name, x in self._deferred.items()}

        return replace(
            self,
            e_dsigma1=self.e_dsigma1 * factor,
            e_dsigma1_sq=self.e_dsigma1_sq * factor,
            e_dv1=self.e_dv1 * factor,
            iid_drift=None if self.iid_drift is None else self.iid_drift * factor,
            _build=build,
        )


def _second_moment_tensor(svd: SvdStack, err: CsiErrorModel) -> np.ndarray:
    """The tensor M[i, j, k, l] of the error in the singular bases.

    For the covariance C of the column-stacked error, M = K^T C conj(K) with
    K[(p, a), (i, j)] = v[p, j] conj(u[a, i]), the Kronecker product of v
    and conj(u) with its columns ordered (i, j): two matrix products.
    """
    u, v = svd.u, svd.v
    m, n = len(u), len(v)
    if err.kind == "iid":
        return err.sigma_h_sq * np.einsum(
            "ik,jl->ijkl", np.eye(m), np.eye(n)
        ).astype(np.complex128)
    # The checked tensor view, flattened back to C without a copy.
    cov = err.cov_tensor(m, n).reshape(m * n, m * n, order="F")
    k = (v[:, None, None, :] * u.conj()[None, :, :, None]).reshape(m * n, m * n)
    return (k.T @ cov @ k.conj()).reshape(m, n, m, n)


def _sandwich_rows(x: np.ndarray, err: CsiErrorModel, m: int, n: int) -> np.ndarray:
    """E{dH x dH^H} for the m x n error dH and an n x n weight x (result m x m)."""
    if err.kind == "iid":
        return err.sigma_h_sq * np.trace(x) * np.eye(m, dtype=np.complex128)
    t = err.cov_tensor(m, n)
    return np.einsum("pq,apbq->ab", x, t)


def _sandwich_cols(y: np.ndarray, err: CsiErrorModel, m: int, n: int) -> np.ndarray:
    """E{dH^H y dH} for the m x n error dH and an m x m weight y (result n x n)."""
    if err.kind == "iid":
        return err.sigma_h_sq * np.trace(y) * np.eye(n, dtype=np.complex128)
    t = err.cov_tensor(m, n)
    return np.einsum("ab,bqap->pq", y, t)


def compute_moments(svd: SvdStack, err: CsiErrorModel) -> PerturbMoments:
    """Closed-form perturbation moments of one channel's decomposition
    (:func:`~wiretap.channels.partition_svd`) under ``err``.

    For i.i.d. error the stored fields are the closed form
    :func:`iid_moments` scaled by the error power, formed as the sweep
    engine forms them, so the single-channel prediction and statistical
    receiver return the engine's numbers bit for bit, and ``iid_drift``
    holds the coefficient c of E{dv_1} = c v_1.  For a full covariance
    ``iid_drift`` is None and the other three come from the general
    expansion of :func:`_expansion`, which also builds the eight deferred
    fields of either kind when one of them is first read.

    Raises :class:`IllConditionedGapError` when a singular-value gap is too
    small for the expansion to hold.
    """
    s = svd.single().s
    if err.kind != "iid":
        stored, build = _expansion(svd, err)
        return PerturbMoments(*stored, None, build)
    closed = iid_moments(s, len(svd.v))
    power = err.sigma_h_sq
    return PerturbMoments(
        float(closed.e_dsigma1 * power), closed.e_dsigma1_sq * power,
        (closed.drift * svd.v1) * power, float(closed.drift * power),
        lambda: _expansion(svd, err)[1](),
    )


def _expansion(svd: SvdStack, err: CsiErrorModel):
    """The general second-order expansion of :func:`compute_moments`:
    ((e_dsigma1, e_dsigma1_sq, e_dv1), builder of the deferred fields).

    Expansion of the Gram matrix (H+dH)^H (H+dH) around H^H H through second
    order gives, for each strong right vector v_j, the coefficient of its
    drift on every other unperturbed right vector v_k.  First-order
    coefficients have zero mean; their magnitudes and the second-order means
    combine into all the fields documented on :class:`PerturbMoments`.
    Only the dominant vector's coefficients are computed here, for the
    three stored fields; the builder forms the rest from the same tensor.
    """
    _check_gaps(svd.s)
    sig, v = svd.s, svd.v
    m, n = len(sig), len(v)
    f = m  # nonzero singular values, min(n_rx, n_tx)
    lam = sig**2
    lam1 = lam[0]
    lam_ext = np.concatenate([lam, np.zeros(n - m)])
    rows, cols = np.arange(m), np.arange(n)

    mom = _second_moment_tensor(svd, err)
    # sq[k, l] = Re M[k, l, k, l], the squared first-order magnitudes.
    sq = mom.reshape(m * n, m * n).diagonal().real.reshape(m, n)

    def drift_coefficients(j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Mean drift coefficients of right vector j on every direction.

        Returns (coeff, num1, inv_gap): coeff[k] is E{v_k^H dv_j} through
        second order, with the k = j entry holding the real self-alignment
        loss, and num1 * inv_gap**2 is the mean squared first-order
        coefficient on each other direction.
        """
        gap = lam[j] - lam_ext
        gap[j] = np.inf
        inv_gap = 1.0 / gap

        # |first-order coefficient|^2 on every other direction.
        num1 = lam[j] * sq[j]
        num1[:m] += lam * sq[:, j]

        # Second-order mean coefficients: couplings through every third
        # direction, the diagonal correction, and the direct Gram term.
        through = mom[rows, j, rows]  # M[l, j, l, k]
        t1 = inv_gap[:m] @ (lam[:, None] * through)
        t1[:m] += sig * sig[j] * (mom[rows[:, None], cols, j, cols] @ inv_gap)
        t2 = lam[j] * mom[j, j, j]
        t2[:m] += sig * sig[j] * mom[:, j, j, j]

        coeff = t1 * inv_gap - t2 * inv_gap**2 + through.sum(axis=0) * inv_gap
        mask = cols != j
        coeff[j] = -0.5 * np.sum(num1[mask] * inv_gap[mask] ** 2)
        return coeff, num1, inv_gap

    # The dominant vector has a drift even when the strong set below is
    # empty (single-row channels, where it is also the weakest).
    coeff0, num1_0, inv_gap0 = drift_coefficients(0)
    e_dv1 = v @ coeff0

    trace_term = float(np.real(np.einsum("ii->", mom[:, 0, :, 0])))
    coupling_term = float(np.sum(num1_0 * inv_gap0))
    m1111 = float(sq[0, 0])
    sigma1 = sig[0]
    e_dsigma1 = (trace_term + coupling_term) / (2.0 * sigma1) - m1111 / (4.0 * sigma1)
    e_dsigma1_sq = 0.5 * m1111

    def build() -> dict[str, np.ndarray]:
        # Full covariance of the first-order fluctuation of v_1: cross moments
        # of the coefficients on every pair of other directions.  Unconjugated
        # error moments vanish by circular symmetry, leaving two terms.
        m_row = np.zeros((n, n), dtype=np.complex128)
        m_row[:m, :m] = mom[:, 0, :, 0]
        m_col = np.conj(mom[0, :, 0, :])
        sig_ext = np.concatenate([sig, np.zeros(n - m)])
        spread = (np.outer(sig_ext, sig_ext) * m_row + lam1 * m_col) * np.outer(
            inv_gap0, inv_gap0
        )
        e_dv1_outer = v @ spread @ v.conj().T
        e_dv1_outer = (e_dv1_outer + e_dv1_outer.conj().T) / 2.0

        e_dv_coeff = np.zeros((n, f - 1), dtype=np.complex128)
        for j in range(f - 1):
            e_dv_coeff[:, j] = drift_coefficients(j)[0] if j else coeff0

        # The strong block (U_s, V_s) and the weakest right vector v_f.
        u_s, v_s, v_f = svd.u[:, : f - 1], v[:, : f - 1], v[:, f - 1]
        d = 1.0 / (lam[: f - 1] - lam[f - 1])
        dmat_v = v_s @ np.diag(d) @ v_s.conj().T
        dmat_u = u_s @ np.diag(d) @ u_s.conj().T
        return dict(
            d=d,
            g=_sandwich_rows(np.outer(v_f, v_f.conj()), err, m, n),
            g_prime=_sandwich_rows(dmat_v, err, m, n),
            g_dprime=_sandwich_cols(dmat_u, err, m, n),
            k=_sandwich_rows(v_s @ v_s.conj().T, err, m, n),
            e_dv_s=v @ e_dv_coeff,
            e_vs_dvs=e_dv_coeff[: f - 1, :].copy(),
            e_dv1_outer=e_dv1_outer,
        )

    return (float(e_dsigma1), float(e_dsigma1_sq), e_dv1), build


class IidMoments(NamedTuple):
    """First-direction moments of :func:`compute_moments` for i.i.d. error.

    Per unit error power, over the leading axes of the channels they were
    computed for.  ``drift`` is the real coefficient c with E{dv_1} = c v_1,
    and ``e_dsigma1``/``e_dsigma1_sq`` are the fields of the same name.
    """

    drift: np.ndarray
    e_dsigma1: np.ndarray
    e_dsigma1_sq: float


def iid_moments(s: np.ndarray, n_tx: int) -> IidMoments:
    """Closed form of the fields the sweeps use, for unit i.i.d. error.

    ``s`` (..., n_rx) are the singular values in descending order of
    channels with ``n_tx`` transmit antennas.  With M = delta_ik delta_jl the
    general expansion collapses: the mean drift of v_1 lies along v_1 itself
    with coefficient -1/2 sum_{k>1} (lam_k + lam_1) / (lam_1 - lam_k)^2 over
    all n_tx directions (lam_k = 0 in the null space).  Raises
    :class:`IllConditionedGapError` where :func:`compute_moments` would.
    """
    _check_gaps(s)
    m = s.shape[-1]
    lam = s**2
    lam1 = lam[..., 0]
    others = np.concatenate([lam[..., 1:], np.zeros(lam.shape[:-1] + (n_tx - m,))], axis=-1)
    inv_gap = 1.0 / (lam1[..., None] - others)
    num1 = others + lam1[..., None]
    sigma1 = s[..., 0]
    coupling = np.sum(num1 * inv_gap, axis=-1)
    return IidMoments(
        drift=-0.5 * np.sum(num1 * inv_gap**2, axis=-1),
        e_dsigma1=(m + coupling) / (2.0 * sigma1) - 1.0 / (4.0 * sigma1),
        e_dsigma1_sq=0.5,
    )


def self_drift(v1: np.ndarray, e_dv1: np.ndarray) -> np.ndarray:
    """Re v_1^H E{dv_1}, the dominant vector's alignment loss, over the
    leading axes of ``v1`` and its mean drift ``e_dv1``."""
    return np.real(vdot(v1, e_dv1))


def first_vector_leak(svd: SvdStack, moments: PerturbMoments) -> float:
    """Expected power of the dominant right vector landing off itself.

    E{1 - |v_1^H v~_1|^2} through second order; equals minus twice the real
    part of the self-alignment drift.
    """
    return -2.0 * float(self_drift(svd.single().v1, moments.e_dv1))


def naive_sinr_terms(
    svd: SvdStack, moments: PerturbMoments, chan: ChannelSet, target_sinr: float
) -> tuple[float, float]:
    """Numerator and denominator of the closed-form naive-receiver SINR.

    The numerator is the expected received signal power (up to a common
    factor), the denominator the expected interference-plus-noise power at
    the matched combiner that was built from the unperturbed channel.
    Splitting the ratio out lets callers pool several channels before
    dividing.  Raises :class:`ValidityRangeError` if the nominal design is
    already in outage, where the expansion does not apply.
    """
    sigma1 = float(svd.single().sigma1)
    rho = required_rho(sigma1, target_sinr, chan.power_p, chan.sigma_b_sq)
    if rho >= 1.0:
        raise ValidityRangeError(
            "nominal design is in outage; the closed-form degradation is undefined"
        )
    return naive_terms(
        sigma1, rho, 2.0 * float(self_drift(svd.v1, moments.e_dv1)), moments.e_dsigma1,
        moments.e_dsigma1_sq, chan.power_p, chan.sigma_b_sq, chan.na,
    )


def naive_terms(sigma1, rho, two_re_drift, e_dsigma1, e_dsigma1_sq, power_p: float,
                sigma_b_sq: float, na: int):
    """Numerator and denominator of :func:`naive_sinr_terms`, elementwise.

    ``two_re_drift`` is 2 Re E{v_1^H dv_1}; every array argument shares the
    same leading axes.
    """
    lam1 = sigma1**2
    upsilon = 2.0 * e_dsigma1 / sigma1 + e_dsigma1_sq / lam1
    numerator = lam1 * rho * power_p * (1.0 + two_re_drift - upsilon)
    denominator = sigma_b_sq - lam1 * noise_share(rho, power_p, na) * two_re_drift
    return numerator, denominator


def predict_naive_sinr(
    svd: SvdStack, moments: PerturbMoments, chan: ChannelSet, target_sinr: float
) -> float:
    """Closed-form expected SINR of the mismatched (naive) receiver.

    The transmitter designs from a perturbed channel while the receiver
    keeps the combiner matched to the true one; the expected signal loss and
    expected interference leakage both follow from the moments.  With a zero
    error model this reduces exactly to ``target_sinr``.

    Raises :class:`ValidityRangeError` when either term of the ratio leaves
    the region where the second-order expansion is meaningful (too large an
    error for this channel).
    """
    numerator, denominator = naive_sinr_terms(svd, moments, chan, target_sinr)
    if denominator <= 0.0:
        raise ValidityRangeError(
            "predicted interference-plus-noise power is nonpositive; "
            "error variance is outside the validity range for this channel"
        )
    if numerator <= 0.0:
        raise ValidityRangeError(
            "predicted signal power is nonpositive; "
            "error variance is outside the validity range for this channel"
        )
    return numerator / denominator


def naive_trial(chan: ChannelSet, err_sample: np.ndarray, target_sinr: float, *,
                svd: SvdStack | None = None) -> tuple[SinrReport, LinkSinr, LinkSinr, TxScheme]:
    """One mismatched trial, returning the report plus both raw link powers.

    The batch of one of ``transmit.artificial_noise``: the transmitter
    designs everything (direction, power split, interference) from
    H + err_sample, the intended receiver keeps the matched combiner built
    from the true H, and the eavesdropper, as always, tracks the actual
    transmission.  ``svd``, the partition of H, defaults to the one stored on
    ``chan.h_ba``.  A misshapen error sample, a non-finite estimate and an
    all-zero one, which has no direction to design from, are refused
    (DimensionError, ParameterError).
    """
    part = svd if svd is not None else partition_svd(chan.h_ba)
    est = chan.h_ba.entries + matching(err_sample, chan.h_ba, "err_sample")
    tilde = estimate_basis(nonzero(finite(est, "H + err_sample"), "H + err_sample"))
    d = single_artificial_noise(chan, tilde, part, target_sinr)
    scheme, report, bob, eve = run_trial(chan, d, target_sinr)
    return report, bob, eve, scheme


def simulate_naive(chan: ChannelSet, err_sample: np.ndarray, target_sinr: float) -> SinrReport:
    """Simulate one trial of the mismatched design; see :func:`naive_trial`."""
    report, _, _, _ = naive_trial(chan, err_sample, target_sinr)
    return report
