"""Transmit designs, receive beamformers, and SINR evaluation.

One data stream is sent along a unit direction ``t`` with power ``rho * P``;
the rest is spread evenly over the directions orthogonal to ``t``, q_z =
beta (I - t t^H) (isotropic artificial noise: Goel and Negi, IEEE Trans.
Wireless Commun. 7(6), 2008), jamming everyone but the intended receiver.
Evaluation is deliberately generic: a design may have been made from a
stale channel estimate while propagation uses the true channel, which is
exactly the mismatch the rest of the package studies.

Every scheme is a kernel over stacks of channels with leading batch axes
(:func:`artificial_noise`, :func:`eve_aware`, and the robust receivers in
``robust``), the target SINR broadcasting against them like any other
input, returning one :class:`Design`, and every design is evaluated by
:func:`evaluate`, which broadcasts over the batch axes: Bob's link by
:func:`link` at his combiner, Eve's by :func:`eve_link` at her MMSE
combiner.  The single-channel functions run those kernels on a batch of one
at one target and wrap the results in :class:`TxScheme`,
:class:`RxBeamformer`, :class:`LinkSinr` and :class:`SinrReport`, so they
return the sweep engine's numbers bit for bit, with one exception: they
evaluate Eve's link in closed form from her spectrum, whereas sweeps where
each draw of hers serves one combiner (``harness``) solve for it, so there
the engine's Eve columns match them only to round-off.  A
:class:`TxScheme` stores the design's (t, rho, beta) as the kernels do,
:func:`link_sinr` is :func:`link` on it, and every Eve combiner the package
returns is :func:`eve_mmse_beamformer`'s, built from the spectrum her
:class:`~wiretap.channels.ChannelSet` caches.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from .channels import NOISE_RANGE, Basis, ChannelSet, SvdStack, as_matrix, finite
from .channels import partition_svd
from .exceptions import DegenerateChannelError, DimensionError, ParameterError
from .stacked import any_true, herm, matvec, norm, outer, vdot

# rho at or above this value means all power goes to the data stream.
_RHO_CEIL = 1.0 - 1e-15

# The per-trial figures :func:`evaluate` returns, one row each.
METRICS = (
    "sinr_b", "sinr_e", "secrecy", "outage",
    "signal_b", "intnoise_b", "signal_e", "intnoise_e", "flagged",
)


@dataclass(frozen=True)
class TxScheme:
    """A complete transmit configuration.

    ``t`` is the unit-norm data direction, ``rho`` the fraction of the budget
    spent on data, and ``outage`` records that the target SINR was
    unreachable so all power went to data.  ``target_sinr``, the linear
    SINR the design aimed for, and ``power_p`` are positive and finite.

    ``beta`` is the interference power per direction orthogonal to ``t``,
    nonnegative and finite, or None for a scheme that sends none, as in a
    :class:`Design`; ``q_z`` = beta (I - t t^H) is the interference
    covariance (:func:`interference_covariance`) and ``noise_power`` its trace.
    """

    t: np.ndarray
    rho: float
    power_p: float
    target_sinr: float
    outage: bool = False
    beta: float | None = None

    def __post_init__(self):
        t = np.asarray(self.t, dtype=np.complex128)
        if t.ndim != 1:
            raise DimensionError(f"t must be a vector, got shape {t.shape}")
        nrm = norm(finite(t, "t"))
        if abs(nrm - 1.0) > 1e-9:
            raise ParameterError(f"t must have unit norm, got {nrm}")
        if not (0.0 <= self.rho <= 1.0):
            raise ParameterError(f"rho must lie in [0, 1], got {self.rho}")
        if not (np.isfinite(self.power_p) and self.power_p > 0):
            raise ParameterError(f"power_p must be positive and finite, got {self.power_p}")
        check_target(self.target_sinr)
        if self.beta is not None:
            if np.ndim(self.beta) != 0:
                raise DimensionError(f"beta must be one number, got shape {np.shape(self.beta)}")
            if not (np.isfinite(self.beta) and self.beta >= 0):
                raise ParameterError(f"beta must be nonnegative and finite, got {self.beta}")
        if self.outage and (self.rho != 1.0 or self.beta):
            raise ParameterError("an outage scheme must have rho = 1 and no interference")
        object.__setattr__(self, "t", t)

    @property
    def q_z(self) -> np.ndarray:
        return interference_covariance(self.t, self.beta or 0.0)

    @property
    def data_power(self) -> float:
        return self.rho * self.power_p

    @property
    def noise_power(self) -> float:
        return 0.0 if self.beta is None else self.beta * (self.t.size - 1)


@dataclass(frozen=True)
class RxBeamformer:
    """A receive combining vector with a tag naming how it was built."""

    w: np.ndarray
    kind: str

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.complex128)
        if w.ndim != 1 or not finite(w, "beamformer").any():
            raise ParameterError("beamformer must be a nonzero vector")
        if self.kind not in ("matched", "mmse", "robust_fdd", "robust_tdd"):
            raise ParameterError(f"unknown beamformer kind {self.kind!r}")
        object.__setattr__(self, "w", w)


@dataclass(frozen=True)
class LinkSinr:
    """SINR of one link, with the powers behind it."""

    sinr: float
    signal_power: float
    interference_power: float
    noise_power: float

    @property
    def interference_plus_noise(self) -> float:
        return self.interference_power + self.noise_power


@dataclass(frozen=True)
class SinrReport:
    """Outcome of one trial: both receivers' SINRs and the secrecy proxy."""

    sinr_b: float
    sinr_e: float
    secrecy_capacity: float
    outage: bool


class Design(NamedTuple):
    """Batched transmit designs and Bob's combiners.

    ``t`` (..., na) is the unit data direction, ``rho`` (...) the data power
    fraction, ``beta`` (...) the interference power per direction orthogonal
    to ``t``, ``w_b`` (..., nb) Bob's combiner and ``outage`` (...) whether
    the target was out of reach.

    A field's batch axes ``...`` are those of the kernel inputs it was
    computed from, the target SINR among them, so the fields broadcast
    against each other but need not be equal (Bob's matched combiner has no
    axis over targets or error levels, the directions of stale estimates
    have one over error levels but none over targets).

    Every kernel spreads the interference evenly over the directions
    orthogonal to ``t``, q_z = beta (I - t t^H) with beta = :func:`noise_beta`
    of ``rho``, from which :func:`link` and :func:`eve_link` evaluate both
    links; :func:`eve_aware`, which never sends any, sets ``beta`` to None.
    """

    t: np.ndarray
    rho: np.ndarray
    beta: np.ndarray | None
    w_b: np.ndarray
    outage: np.ndarray


def outage_fallback(rho):
    """(rho, outage), elementwise: a fraction at the all-data ceiling means
    the target is out of reach, and the design falls back to rho = 1."""
    outage = rho >= _RHO_CEIL
    return np.where(outage, 1.0, rho), outage


def required_rho(sigma1: float, target_sinr: float, power_p: float, sigma_b_sq: float) -> float:
    """Data-power fraction that meets ``target_sinr`` on a clean link.

    With interference confined to the receiver's orthogonal subspace the
    matched combiner sees SINR = rho * P * sigma1^2 / sigma_b_sq, so the
    required fraction is sigma_b_sq * S / (sigma1^2 * P).  Values >= 1 mean
    the target is out of reach at this budget.  Works elementwise on
    arrays of ``sigma1`` and ``target_sinr``.
    """
    check_target(target_sinr)
    if power_p <= 0 or sigma_b_sq <= 0 or any_true(sigma1 <= 0):
        raise ParameterError("sigma1, power_p, sigma_b_sq must all be positive")
    return sigma_b_sq * target_sinr / (sigma1**2 * power_p)


def check_target(target_sinr) -> None:
    """Refuse (ParameterError) target SINRs that are not all positive and finite."""
    target = np.asarray(target_sinr)
    if not ((target > 0) & (target < np.inf)).all():
        raise ParameterError(f"target_sinr must be positive and finite, got {target_sinr}")


def noise_share(rho, power_p: float, na: int):
    """Per-direction interference power (1-rho)*P/(na-1), elementwise in rho.

    A single-antenna transmitter has no orthogonal direction and gets zero.
    """
    return (1.0 - rho) * power_p / (na - 1) if na > 1 else 0.0 * rho


def interference_covariance(t, beta):
    """The isotropic interference covariance beta (I - t t^H) of designs
    with directions ``t`` (..., na) and ``beta`` (...), over their
    broadcast batch axes."""
    return np.asarray(beta)[..., None, None] * (np.eye(t.shape[-1]) - outer(t, t))


def noise_beta(rho, power_p: float, na: int):
    """A design's ``beta``, elementwise in rho: the per-direction share
    :func:`noise_share`, or 0 where rho reaches the all-data ceiling."""
    rho = np.asarray(rho)
    return np.where(rho >= _RHO_CEIL, 0.0, noise_share(rho, power_p, na))


def artificial_noise(sigma1, t, h, v_rx, target_sinr, power_p: float, sigma_b_sq: float):
    """Artificial-noise designs (one :class:`Design`), over the batch axes
    of the inputs and of ``target_sinr``, which broadcast together.

    Data rides the dominant direction ``t`` (..., na) of the transmitter's
    channel or estimate (singular value ``sigma1``); the leftover budget is
    spread isotropically over the directions orthogonal to it, which the
    intended receiver never sees but any other receiver does.  When even
    the full budget cannot meet a target the design degrades to rho = 1
    with no interference and the outage flag set.  Bob's combiner is
    matched to ``h @ v_rx``, his channel's own dominant direction, so a
    stale estimate's ``t`` models the mismatched (naive) link.  Only the
    power split depends on the target; ``t`` and ``w_b`` are computed once.
    """
    rho, outage = outage_fallback(required_rho(sigma1, target_sinr, power_p, sigma_b_sq))
    return Design(t=t, rho=rho, beta=noise_beta(rho, power_p, t.shape[-1]),
                  w_b=matvec(h, v_rx), outage=outage)


def eve_aware(h, gram_e, ne, target_sinr, power_p: float, sigma_b_sq: float):
    """Designs that minimize the eavesdropper's SINR at fixed QoS (one
    :class:`Design`), over the batch axes of the inputs and of
    ``target_sinr``, which broadcast together.

    All power goes to the data stream; the direction weighs the intended
    channels ``h`` against the Gram matrices ``gram_e`` of the eavesdropper's
    channels as the design assumes them (exact or stale), which have ``ne``
    rows (:func:`eve_aware_directions`).  While she has fewer antennas than
    the transmitter the direction lands in her null space.  The data
    fraction is the minimum meeting the target at the intended receiver
    with a matched combiner (the remainder goes unused); it is the only
    field that depends on the target.  Raises DegenerateChannelError when a
    direction has zero gain to the intended receiver.
    """
    check_target(target_sinr)
    t = eve_aware_directions(herm(h) @ h, gram_e, ne, h.shape[-2])
    w_b = matvec(h, t)
    gain = np.real(vdot(w_b, w_b))
    if (gain <= 0).any():
        raise DegenerateChannelError("data direction has zero gain to the intended receiver")
    rho, outage = outage_fallback(sigma_b_sq * target_sinr / (power_p * gain))
    return Design(t=t, rho=rho, beta=None, w_b=w_b, outage=outage)


@cache
def _hegvd():
    """scipy.linalg.eigh's default driver for the generalized problem.

    Looked up on first use, so that only the reciprocal rows of
    :func:`eve_aware_directions` load scipy.linalg, which takes longer to
    import than the rest of the package.
    """
    from scipy.linalg.lapack import get_lapack_funcs

    return get_lapack_funcs("hegvd", dtype=np.complex128)


# The arguments scipy.linalg.eigh passes the driver; calling it directly
# skips eigh's per-call checks.
_HEGVD_ARGS = dict(itype=1, jobz="V", uplo="L")


def eve_aware_directions(a: np.ndarray, b: np.ndarray, ne, nb: int) -> np.ndarray:
    """Unit directions (..., na) of :func:`eve_aware` for Gram stacks.

    ``a`` and ``b`` (..., na, na), which broadcast against each other, are
    the Gram matrices H^H H of the intended receiver's channels, with ``nb``
    rows, and of the eavesdropper's, with ``ne`` rows (one count, or an
    array broadcasting against the leading axes).  Her rank is ``ne``, or
    that of ``b`` when ``a`` is singular by shape (nb < na), and it picks one
    of three routes per row:

    - rank na: the largest ratio of a t = lam b t, in one stacked pass:
      b = L L^H, y the top eigenvector of L^-1 a L^-H, t = L^-H y;
    - rank na - 1, or any rank below na while nb < na: his strongest
      direction in her null space N (the eigenvectors of b beyond her rank),
      N times the top eigenvector of N^H a N (Khisti and Wornell, IEEE
      Trans. IT 2010);
    - rank na - 2 or less while nb >= na: the smallest ratio of the
      reciprocal problem b t = mu a t, one scipy ``hegvd`` call per row,
      which lands somewhere in her null space.

    A full-rank row whose own ``b`` fails to factor takes the reciprocal
    route, and a reciprocal row whose ``a`` fails to factor takes the null
    space by the rank of ``b``.  Each row's route depends on that row alone,
    so a batch of one gives the stacked row bit for bit.  Raises ValueError
    for non-finite input and DegenerateChannelError when no direction
    reaches the intended receiver.
    """
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    na = a.shape[-1]
    if a.shape != b.shape:
        a, b = np.broadcast_arrays(a, b)
    shape = a.shape[:-2]
    a, b = a.reshape(-1, na, na), b.reshape(-1, na, na)
    rank = np.full(shape, ne).ravel()
    if nb < na:
        # A singular a can still pass a Cholesky factorization in floating
        # point, so her rank routes these rows.
        rank = np.linalg.matrix_rank(b, hermitian=True)
    t = np.empty(a.shape[:-1], dtype=np.complex128)
    full = rank >= na
    null = ~full & ((rank == na - 1) | (nb < na))
    reciprocal = ~(full | null)
    if full.any():
        # When every row is whitened, the stacks themselves rather than copies.
        rows = slice(None) if full.all() else np.flatnonzero(full)
        low, factored = _cholesky_rows(b[rows])
        if not factored.all():
            rows = np.flatnonzero(full)
            reciprocal[rows[~factored]] = True
            rows = rows[factored]
        inv = np.linalg.inv(low)
        y = np.linalg.eigh(inv @ a[rows] @ herm(inv))[1][..., -1]
        t[rows] = matvec(herm(inv), y)
    if reciprocal.any():
        hegvd = _hegvd()
        for i in np.flatnonzero(reciprocal):
            _, vecs, info = hegvd(b[i], a[i], **_HEGVD_ARGS)
            if info:
                rank[i] = np.linalg.matrix_rank(b[i], hermitian=True)
                if rank[i] >= na:
                    raise DegenerateChannelError(
                        "both channel Gram matrices are singular; no direction is identifiable"
                    )
                null[i] = True
                continue
            t[i] = vecs[:, 0]
    if null.any():
        for k in np.unique(rank[null]):
            rows = np.flatnonzero(null & (rank == k))
            basis = np.linalg.eigh(b[rows])[1][..., :na - k]
            lam, y = np.linalg.eigh(herm(basis) @ a[rows] @ basis)
            if (lam[:, -1] <= 0).any():
                raise DegenerateChannelError(
                    "the intended receiver has no gain in the eavesdropper's null space"
                )
            t[rows] = matvec(basis, y[..., -1])
    # np.linalg.norm's two real dot products, for every row at once.
    t = t / np.sqrt(vdot(t.real, t.real) + vdot(t.imag, t.imag))[..., None]
    return t.reshape(shape + (na,))


def _cholesky_rows(b: np.ndarray):
    """(L, factored): the lower Cholesky factors of the matrices of ``b``
    that factor, and a mask of which do.  One stacked call when all of them
    do; otherwise each matrix is factored on its own, so whether a matrix
    factors never depends on the rest of the stack."""
    try:
        return np.linalg.cholesky(b), np.ones(len(b), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    low = np.empty_like(b)
    factored = np.ones(len(b), dtype=bool)
    for i, m in enumerate(b):
        try:
            low[i] = np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            factored[i] = False
    return low[factored], factored


@cache
def _pairs(na: int):
    """Row and column indices of the pairs i < j of ``na`` entries."""
    return np.triu_indices(na, 1)


def eve_link(d: Design, eve, gram, power_p: float, sigma_sq: float):
    """The eavesdropper's (SINR, signal, interference, noise power) at her
    MMSE combiner against the design ``d``, as :func:`link` reports them,
    over the leading axes of ``d``'s fields, her channels ``eve`` and ``gram``.

    Against a design that sends no interference (``beta`` None) her
    combiner is the matched H t, which sees the signal rho P ||H t||^2, no
    interference and the noise ``sigma_sq``; ``gram`` is not read.
    Otherwise q_z = beta (I - t t^H), and by Sherman-Morrison her combiner is
    H y for y = (beta G + sigma^2 I)^-1 t, G = H^H H.  Given the Gram stack
    G, y is one stacked solve, which loses digits as beta ||G|| / sigma^2
    grows, and the figures are :func:`link`'s at H y.  Given its spectrum
    (lam, U) from ``channels.amplitude_spectrum``, whose eigenvalues on her
    null space are exactly zero, no combiner is built: with
    p = U^H t and d_i = beta lam_i + sigma^2, y = U (p / d), so t^H G y is
    c = sum lam_i |p_i|^2 / d_i and ||H y||^2 is N = sum lam_i |p_i|^2 / d_i^2.
    The signal is rho P c^2 / N, and the interference beta (||G y||^2 - c^2)
    / N is taken in Lagrange's form, beta sigma^4 sum_{i<j} |p_i|^2 |p_j|^2
    (lam_i - lam_j)^2 / (d_i d_j)^2 / N, every term of which is nonnegative
    (the single-user case of Gao, Smith and Clark, IEEE Trans. Commun. 46(5),
    1998).  A row whose combiner would be exactly zero (N = 0: an all-zero
    channel) gets the figures of its stand-in, the first unit vector
    (:func:`_nulled_stand_in`).
    """
    data_power, beta = d.rho * power_p, d.beta
    if beta is None:
        amps = matvec(eve, d.t)
        sig = data_power * (amps.conj() * amps).real.sum(axis=-1)
        return sig / sigma_sq, sig, np.zeros_like(sig), np.full_like(sig, sigma_sq)
    na = d.t.shape[-1]
    if not isinstance(gram, tuple):
        loaded = beta[..., None, None] * gram + sigma_sq * np.eye(na)
        y = np.linalg.solve(loaded, d.t[..., None])[..., 0]
        return link(eve, d.t, data_power, beta, _nulled_stand_in(matvec(eve, y)), sigma_sq)
    lam, evecs = gram
    proj = matvec(herm(evecs), d.t)
    scale = beta[..., None] * lam + sigma_sq
    inv = (proj.conj() * proj).real / scale
    inv_sq = inv / scale
    big_n = np.einsum("...i,...i->...", lam, inv_sq)
    nulled = big_n == 0.0
    big_n = np.where(nulled, 1.0, big_n)
    c = np.einsum("...i,...i->...", lam, inv)
    sig = data_power * (c * c / big_n)
    # sigma^4 |p_i|^2 |p_j|^2 / (d_i d_j)^2 as a product of sigma^2 |p|^2 / d^2
    # at i and at j, neither of which leaves double range at the noise and
    # power bounds a config accepts.  take keeps the pairs axis last in
    # memory, so every row sums its pairs in the same order.
    i, j = _pairs(na)
    gap = lam.take(i, axis=-1) - lam.take(j, axis=-1)
    amp = sigma_sq * inv_sq
    spread = np.einsum("...k,...k->...", amp.take(i, axis=-1) * (gap * gap), amp.take(j, axis=-1))
    interf = beta * spread / big_n
    noise = np.full_like(interf, sigma_sq)
    figures = (sig / (interf + noise), sig, interf, noise)
    if nulled.any():
        stand_in = link(eve, d.t, data_power, beta, np.eye(eve.shape[-2])[0], sigma_sq)
        figures = tuple(np.where(nulled, a, b) for a, b in zip(stand_in, figures))
    return figures


def _nulled_stand_in(w: np.ndarray) -> np.ndarray:
    """The first unit vector in place of each all-zero combiner."""
    nulled = ~w.any(axis=-1)
    return np.where(nulled[..., None], np.eye(w.shape[-1])[0], w) if nulled.any() else w


def link(h, t, data_power, beta, w, sigma_sq: float):
    """(SINR, signal, interference, noise power) at the unit-norm ``w``.

    Every argument may carry the same leading batch axes.  The combiners
    are normalized first, so the SINR does not depend on their scale and
    the noise power is ``sigma_sq``.  Interference is beta ||x - t t^H x||^2
    for x = H^H w (none where ``beta`` is None), the vector projected off
    ``t`` before its norm is taken, so a combiner orthogonal to the
    interference measures the true epsilon-squared residual.
    """
    scale = norm(w)
    if not scale.all():
        raise ParameterError("combiner must be nonzero")
    w = w / scale[..., None]
    sig = data_power * abs(vdot(w, matvec(h, t))) ** 2
    noise = sigma_sq * np.real(vdot(w, w))
    if beta is None:
        return sig / noise, sig, np.zeros_like(sig), noise
    x = matvec(herm(h), w)
    off = x - t * vdot(t, x)[..., None]
    interf = beta * np.real(vdot(off, off))
    return sig / (interf + noise), sig, interf, noise


def evaluate(d: Design, h, eve, gram, target, power_p: float, sigma_b_sq: float,
             sigma_e_sq: float, secrecy_metric: str) -> np.ndarray:
    """Metrics (len(METRICS), ...) of a design: Bob's :func:`link` at his
    combiner ``d.w_b`` on his channels ``h``, Eve's :func:`eve_link` on hers
    ``eve`` and ``gram``, and the secrecy metric.  No kernel design needs
    diagonal loading, so the ``flagged`` row is 0.

    All arguments (``target`` may be a scalar) broadcast against each
    other, and each metric has their broadcast shape.
    "goodput" pays the provisioned secret rate only on trials where the
    intended link actually reaches its target SINR, so schemes are compared
    on secrecy they reliably deliver rather than on lucky fades; "proxy" is
    the instantaneous clamped rate difference at the beamformer outputs;
    "full" is the matrix mutual-information rate of the transmitted
    covariance.
    """
    data_power = d.rho * power_p
    sinr_b, signal_b, interf_b, noise_b = link(h, d.t, data_power, d.beta, d.w_b, sigma_b_sq)
    sinr_e, signal_e, interf_e, noise_e = eve_link(d, eve, gram, power_p, sigma_e_sq)
    if secrecy_metric == "full":
        q = 0.0 if d.beta is None else interference_covariance(d.t, d.beta)
        secrecy = full_secrecy_rates(h, eve, d.t, data_power, q, sigma_b_sq, sigma_e_sq)
    elif secrecy_metric == "goodput":
        secrecy = secure_goodput(sinr_b, sinr_e, target)
    else:
        secrecy = secrecy_capacity_proxy(sinr_b, sinr_e)
    return np.stack(np.broadcast_arrays(
        sinr_b, sinr_e, secrecy, d.outage, signal_b, interf_b + noise_b,
        signal_e, interf_e + noise_e, 0.0,
    ), dtype=float)


def secrecy_capacity_proxy(sinr_b: float, sinr_e: float) -> float:
    """Clamped rate difference log2(1+SINR_b) - log2(1+SINR_e), in bits/use.

    Negative differences clamp to zero: secrecy is simply lost, not owed.
    Works elementwise on arrays.
    """
    _check_sinrs(sinr_b, sinr_e)
    rate = np.log2(1.0 + sinr_b) - np.log2(1.0 + sinr_e)
    return _as_output(np.maximum(rate, 0.0))


def _check_sinrs(sinr_b, sinr_e) -> None:
    if any_true(sinr_b < 0) or any_true(sinr_e < 0):
        raise ParameterError("SINRs must be nonnegative")


def _as_output(x):
    """A plain float for scalar results, the array otherwise."""
    return float(x) if np.ndim(x) == 0 else x


# Relative slack when checking whether a link delivered its provisioned
# rate; covers solver round-off in designs that hit the target exactly.
_GOODPUT_SLACK = 1e-9


def secure_goodput(sinr_b: float, sinr_e: float, target_sinr: float) -> float:
    """Secret bits per use actually banked at the provisioned rate.

    The transmitter commits to a code rate of log2(1 + target) before the
    realized channel is known.  A trial where the intended receiver's SINR
    falls short of the target is a decoding outage and earns nothing; on the
    remaining trials the secret rate is the provisioned rate minus the
    eavesdropper's rate, clamped at zero.  Unlike
    :func:`secrecy_capacity_proxy`, which credits whatever instantaneous
    rate gap a trial happens to produce, this metric only pays out for
    secrecy delivered at the rate the link was designed to carry.
    Works elementwise on arrays.
    """
    check_target(target_sinr)
    _check_sinrs(sinr_b, sinr_e)
    rate = np.maximum(np.log2(1.0 + target_sinr) - np.log2(1.0 + sinr_e), 0.0)
    return _as_output(np.where(sinr_b < target_sinr * (1.0 - _GOODPUT_SLACK), 0.0, rate))


def full_secrecy_rates(h_b, h_e, t, data_power, q, sigma_b_sq: float, sigma_e_sq: float):
    """Matrix mutual-information secrecy rates over the leading batch axes.

    Uses the full transmit covariance data_power * t t^H + q through both
    channels rather than the scalar beamformer outputs; ``t`` and
    ``data_power`` describe the data stream and ``q`` is the interference
    covariance, all with the channels' batch axes.
    """
    q_a = np.asarray(data_power)[..., None, None] * outer(t, t) + q
    eye_b = np.eye(h_b.shape[-2])
    eye_e = np.eye(h_e.shape[-2])
    _, logdet_b = np.linalg.slogdet(eye_b + h_b @ q_a @ herm(h_b) / sigma_b_sq)
    _, logdet_e = np.linalg.slogdet(eye_e + h_e @ q_a @ herm(h_e) / sigma_e_sq)
    return np.maximum((logdet_b - logdet_e) / np.log(2.0), 0.0)


# ---------------------------------------------------- single-channel interface
#
# Each function below runs a kernel on a batch of one channel at one target
# and wraps the only entry of its design in the public types.


def _tx_scheme(d: Design, power_p: float, target_sinr: float) -> TxScheme:
    """The transmit configuration of a design of one channel at one target,
    whatever leading axes of length 1 its fields carry."""
    return TxScheme(t=d.t.reshape(-1), rho=d.rho.item(), power_p=power_p, target_sinr=target_sinr,
                    outage=d.outage.item(), beta=None if d.beta is None else d.beta.item())


def _link_sinr(figures) -> LinkSinr:
    sinr, sig, interf, noise = (x.item() for x in figures)
    return LinkSinr(sinr=sinr, signal_power=sig, interference_power=interf, noise_power=noise)


def _report(bob: LinkSinr, eve: LinkSinr, outage: bool) -> SinrReport:
    return SinrReport(sinr_b=bob.sinr, sinr_e=eve.sinr,
                      secrecy_capacity=secrecy_capacity_proxy(bob.sinr, eve.sinr), outage=outage)


def run_trial(chan: ChannelSet, d: Design, target_sinr: float):
    """(scheme, report, Bob's link, Eve's link) of a design of one channel
    at one target, evaluated on ``chan``."""
    h, he = chan.h_ba.entries[None], chan.h_ea.entries[None]
    bob = _link_sinr(link(h, d.t, d.rho * chan.power_p, d.beta, d.w_b, chan.sigma_b_sq))
    eve = _link_sinr(eve_link(d, he, chan.eve_spectrum, chan.power_p, chan.sigma_e_sq))
    scheme = _tx_scheme(d, chan.power_p, target_sinr)
    return scheme, _report(bob, eve, scheme.outage), bob, eve


def single_artificial_noise(chan: ChannelSet, tx: SvdStack | Basis, rx: SvdStack, target_sinr):
    """:func:`artificial_noise` of one channel from ``tx``, its decomposition
    or its estimate's ``channels.Basis``, with Bob matched to ``rx``."""
    return artificial_noise(
        tx.sigma1[None], tx.v1[None], chan.h_ba.entries[None], rx.single().v1[None],
        target_sinr, chan.power_p, chan.sigma_b_sq,
    )


def design_artificial_noise(chan: ChannelSet, svd: SvdStack, target_sinr: float) -> TxScheme:
    """Transmit design when the eavesdropper channel is unknown.

    The batch of one of :func:`artificial_noise`.  Pass the decomposition
    of a perturbed channel to model a transmitter acting on a stale
    estimate; the power and noise figures still come from ``chan``.
    """
    d = single_artificial_noise(chan, svd, svd, target_sinr)
    return _tx_scheme(d, chan.power_p, target_sinr)


def design_known_ecsi(chan: ChannelSet, h_ea_assumed, target_sinr: float) -> TxScheme:
    """Transmit design that minimizes the eavesdropper SINR at fixed QoS.

    The batch of one of :func:`eve_aware`, against the eavesdropper channel
    ``h_ea_assumed``.
    """
    he = as_matrix(h_ea_assumed)
    if he.shape[1] != chan.na:
        raise DimensionError(f"channel column counts differ: {chan.na} vs {he.shape[1]}")
    d = eve_aware(chan.h_ba.entries[None], (herm(he) @ he)[None], he.shape[0], target_sinr,
                  chan.power_p, chan.sigma_b_sq)
    return _tx_scheme(d, chan.power_p, target_sinr)


def bob_matched_beamformer(chan: ChannelSet, scheme: TxScheme) -> RxBeamformer:
    """Combiner matched to the received data signature, w = H t.

    Optimal when no interference reaches the receiver; under
    ``design_artificial_noise`` with an exact channel it attains the target
    SINR exactly.
    """
    return RxBeamformer(w=matvec(chan.h_ba.entries[None], scheme.t[None])[0], kind="matched")


def eve_mmse_beamformer(chan: ChannelSet, scheme: TxScheme) -> RxBeamformer:
    """The best linear receiver the eavesdropper can run.

    She knows her channel H and the scheme.  Against interference
    beta (I - t t^H), by Sherman-Morrison her combiner is a positive multiple
    of H (beta G + sigma^2 I)^-1 t, G = H^H H, which over the spectrum
    (lam, U) ``chan.eve_spectrum`` caches is the sum of (H u_i)(u_i^H t) /
    (beta lam_i + sigma^2) over lam_i > 0; on her null space (lam_i = 0)
    H u_i is round-off, which a small sigma^2 would magnify.  Without
    interference she is matched, H t.  Where the combiner is exactly zero
    (a design that nulls her), the first unit vector stands in.
    """
    he, t = chan.h_ea.entries, scheme.t
    if scheme.beta is None:
        w = he @ t
    else:
        lam, evecs = (x[0] for x in chan.eve_spectrum)
        gain = (evecs.conj().T @ t) / (scheme.beta * lam + chan.sigma_e_sq)
        w = (he @ evecs) @ np.where(lam > 0.0, gain, 0.0)
    return RxBeamformer(w=_nulled_stand_in(w), kind="mmse")


def link_sinr(h, scheme: TxScheme, w, sigma_sq: float) -> LinkSinr:
    """SINR seen through channel ``h`` with combiner ``w``: :func:`link` of
    the scheme's design, after checking the combiner's length, that its
    entries are finite, and the noise.

    The scheme's direction and interference may come from a stale estimate
    while ``h`` is the true channel.  Powers are reported for the unit-norm
    combiner, so sums of the components across trials give a well-defined
    ratio-of-expectations estimate.
    """
    arr = as_matrix(h)
    w = w.w if isinstance(w, RxBeamformer) else np.asarray(w, dtype=np.complex128)
    if w.ndim != 1 or w.size != arr.shape[0]:
        raise DimensionError(f"combiner length {w.shape} does not match channel rows {arr.shape[0]}")
    finite(w, "combiner")
    lo, hi = NOISE_RANGE
    if not lo <= sigma_sq <= hi:
        raise ParameterError(f"sigma_sq must lie in [{lo:g}, {hi:g}], got {sigma_sq}")
    return _link_sinr(link(arr[None], scheme.t[None], scheme.data_power, scheme.beta, w[None],
                           sigma_sq))


def evaluate_sinr(chan: ChannelSet, scheme: TxScheme, w_b, w_e) -> SinrReport:
    """Evaluate one trial at both receivers.

    The secrecy number is the clamped difference of the two log rates at the
    beamformer outputs.
    """
    return _report(link_sinr(chan.h_ba, scheme, w_b, chan.sigma_b_sq),
                   link_sinr(chan.h_ea, scheme, w_e, chan.sigma_e_sq), scheme.outage)


def secrecy_capacity_full(chan: ChannelSet, scheme: TxScheme) -> float:
    """Matrix mutual-information secrecy rate of the transmitted covariance;
    the batch of one of :func:`full_secrecy_rates`.  Reported as an
    alternative metric; the scalar proxy is the default everywhere else."""
    return float(full_secrecy_rates(
        chan.h_ba.entries[None], chan.h_ea.entries[None], scheme.t[None], scheme.data_power,
        scheme.q_z[None], chan.sigma_b_sq, chan.sigma_e_sq,
    )[0])


def perfect_csi_trial(chan: ChannelSet, target_sinr: float, svd: SvdStack | None = None):
    """Run the whole perfect-knowledge pipeline for one channel.

    Returns (scheme, bob beamformer, eve beamformer, report), Eve's that of
    :func:`eve_mmse_beamformer`.  Convenience wrapper for single-channel
    callers such as the self checks.
    """
    part = svd if svd is not None else partition_svd(chan.h_ba)
    d = single_artificial_noise(chan, part, part, target_sinr)
    scheme, report, _, _ = run_trial(chan, d, target_sinr)
    return scheme, RxBeamformer(d.w_b[0], "matched"), eve_mmse_beamformer(chan, scheme), report
