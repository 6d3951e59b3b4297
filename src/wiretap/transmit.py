"""Transmit designs, receive beamformers, and SINR evaluation.

One data stream is sent along a unit direction ``t`` with power ``rho * P``;
the remaining budget feeds synthetic interference with covariance ``q_z``,
shaped to miss the intended receiver while jamming everyone else.  Evaluation
is deliberately generic: the scheme handed to ``evaluate_sinr`` may have been
designed from a stale channel estimate while propagation uses the true
channel, which is exactly the mismatch the rest of the package studies.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .channels import ChannelSet, SvdPartition, as_matrix, partition_svd
from .exceptions import DegenerateChannelError, DimensionError, ParameterError
from .stacked import any_true, herm, matvec, outer, vdot

# rho at or above this value means all power goes to the data stream.
_RHO_CEIL = 1.0 - 1e-15


@dataclass(frozen=True)
class TxScheme:
    """A complete transmit configuration.

    ``t`` is the unit-norm data direction, ``rho`` the fraction of the budget
    spent on data, ``q_z`` the interference covariance, and ``outage``
    records that the target SINR was unreachable so all power went to data.
    ``target_sinr`` is the linear SINR the design aimed for.

    ``q_z_factor``, when present, is a matrix F with q_z = F F^H.  Designs
    keep it because a receiver orthogonal to the interference sees a residual
    of order machine-epsilon squared, which only survives evaluation through
    the factor (amplitudes first, then squared); the assembled covariance
    buries it under round-off of the large cancelling entries.
    """

    t: np.ndarray
    rho: float
    q_z: np.ndarray
    power_p: float
    target_sinr: float
    outage: bool = False
    q_z_factor: np.ndarray | None = None

    def __post_init__(self):
        t = np.asarray(self.t, dtype=np.complex128)
        if t.ndim != 1:
            raise DimensionError(f"t must be a vector, got shape {t.shape}")
        nrm = np.linalg.norm(t)
        if abs(nrm - 1.0) > 1e-9:
            raise ParameterError(f"t must have unit norm, got {nrm}")
        if not (0.0 <= self.rho <= 1.0):
            raise ParameterError(f"rho must lie in [0, 1], got {self.rho}")
        if self.power_p <= 0 or self.target_sinr <= 0:
            raise ParameterError("power_p and target_sinr must be positive")
        q = np.asarray(self.q_z, dtype=np.complex128)
        if q.shape != (t.size, t.size):
            raise DimensionError(f"q_z shape {q.shape} does not match t length {t.size}")
        herm = np.max(np.abs(q - q.conj().T)) if q.size else 0.0
        scale = max(float(np.abs(np.trace(q)).real), 1.0)
        if herm > 1e-9 * scale:
            raise ParameterError(f"q_z is not Hermitian within tolerance ({herm:.3e})")
        if self.outage and (self.rho != 1.0 or np.any(q != 0)):
            raise ParameterError("an outage scheme must have rho = 1 and q_z = 0")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "q_z", q)
        if self.q_z_factor is not None:
            f = np.asarray(self.q_z_factor, dtype=np.complex128)
            if f.ndim != 2 or f.shape[0] != t.size:
                raise DimensionError(
                    f"q_z_factor shape {f.shape} does not match t length {t.size}"
                )
            mismatch = float(np.max(np.abs(f @ f.conj().T - q)))
            if mismatch > 1e-9 * scale:
                raise ParameterError(
                    f"q_z_factor does not reproduce q_z (max deviation {mismatch:.3e})"
                )
            object.__setattr__(self, "q_z_factor", f)

    @property
    def data_power(self) -> float:
        return self.rho * self.power_p

    @property
    def noise_power(self) -> float:
        return float(np.real(np.trace(self.q_z)))


@dataclass(frozen=True)
class RxBeamformer:
    """A receive combining vector with a tag naming how it was built."""

    w: np.ndarray
    kind: str

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.complex128)
        if w.ndim != 1 or not np.any(w):
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
    if any_true(target_sinr <= 0):
        raise ParameterError(f"target_sinr must be positive, got {target_sinr}")
    if power_p <= 0 or sigma_b_sq <= 0 or any_true(sigma1 <= 0):
        raise ParameterError("sigma1, power_p, sigma_b_sq must all be positive")
    return sigma_b_sq * target_sinr / (sigma1**2 * power_p)


def noise_share(rho, power_p: float, na: int):
    """Per-direction interference power (1-rho)*P/(na-1), elementwise in rho.

    A single-antenna transmitter has no orthogonal direction and gets zero.
    """
    return (1.0 - rho) * power_p / (na - 1) if na > 1 else 0.0 * rho


def noise_covariance_for(t_prime: np.ndarray, rho: float, power_p: float) -> np.ndarray:
    """Isotropic interference covariance over the columns of ``t_prime``.

    Spends (1-rho)*P split evenly across the na-1 columns.  A single-antenna
    transmitter has no orthogonal directions and gets an all-zero covariance,
    as does a design with rho = 1.
    """
    na = t_prime.shape[0]
    if na == 1 or rho >= _RHO_CEIL:
        return np.zeros((na, na), dtype=np.complex128)
    return noise_share(rho, power_p, na) * (t_prime @ t_prime.conj().T)


def noise_factors(t_prime: np.ndarray, rho, power_p: float) -> np.ndarray:
    """Factors sqrt(beta) * T' over the leading axes of ``t_prime`` and ``rho``.

    F F^H is the covariance of :func:`noise_covariance_for`; entries whose
    rho reaches the all-data ceiling get an all-zero factor.
    """
    rho = np.asarray(rho)
    beta = np.where(rho >= _RHO_CEIL, 0.0, noise_share(rho, power_p, t_prime.shape[-2]))
    return np.sqrt(beta)[..., None, None] * t_prime


def noise_factor_for(t_prime: np.ndarray, rho: float, power_p: float) -> np.ndarray | None:
    """Factor F with F F^H equal to :func:`noise_covariance_for`'s output.

    Returns None for the degenerate zero-covariance cases.
    """
    na = t_prime.shape[0]
    if na == 1 or rho >= _RHO_CEIL:
        return None
    return np.sqrt(noise_share(rho, power_p, na)) * t_prime


def interference_level(scheme: TxScheme) -> float:
    """Per-direction interference power of a scheme built by this module."""
    if scheme.rho >= _RHO_CEIL:
        return 0.0
    return noise_share(scheme.rho, scheme.power_p, scheme.t.size)


def design_artificial_noise(chan: ChannelSet, svd: SvdPartition, target_sinr: float) -> TxScheme:
    """Transmit design when the eavesdropper channel is unknown.

    Data rides the strongest right singular direction of the receiver
    channel; the leftover budget is spread isotropically over the orthogonal
    complement, which the intended receiver never sees but any other receiver
    does.  When even the full budget cannot meet the target the design
    degrades to rho = 1 with no interference and the outage flag set.

    Pass a perturbed partition to model a transmitter acting on a stale
    estimate; the power and noise figures still come from ``chan``.
    """
    rho, outage = outage_fallback(
        required_rho(svd.sigma1, target_sinr, chan.power_p, chan.sigma_b_sq)
    )
    rho, outage = float(rho), bool(outage)
    q = noise_covariance_for(svd.t_prime, rho, chan.power_p)
    return TxScheme(
        t=svd.v1, rho=rho, q_z=q, power_p=chan.power_p,
        target_sinr=target_sinr, outage=outage,
        q_z_factor=noise_factor_for(svd.t_prime, rho, chan.power_p),
    )


def design_known_ecsi(
    chan: ChannelSet,
    h_ea_assumed,
    target_sinr: float,
    *,
    full_power: bool = False,
) -> TxScheme:
    """Transmit design that minimizes the eavesdropper SINR at fixed QoS.

    All power goes to the data stream; the direction solves the generalized
    eigenproblem between the two channel Gram matrices.  With fewer
    eavesdropper antennas than transmit antennas the direction lands in the
    eavesdropper's null space and her SINR is exactly zero.  The data
    fraction is the minimum meeting ``target_sinr`` at the intended receiver
    with a matched combiner (the remainder goes unused); ``full_power=True``
    transmits the whole budget instead.
    """
    hb = chan.h_ba.entries
    t = eve_aware_direction(hb, as_matrix(h_ea_assumed))
    na = hb.shape[1]
    a = hb.conj().T @ hb
    gain = float(np.real(np.vdot(t, a @ t)))
    if gain <= 0:
        raise DegenerateChannelError("data direction has zero gain to the intended receiver")
    rho, outage = outage_fallback(chan.sigma_b_sq * target_sinr / (chan.power_p * gain))
    rho, outage = (1.0 if full_power else float(rho)), bool(outage)
    q = np.zeros((na, na), dtype=np.complex128)
    return TxScheme(t=t, rho=rho, q_z=q, power_p=chan.power_p,
                    target_sinr=target_sinr, outage=outage)


def eve_aware_direction(hb: np.ndarray, he: np.ndarray) -> np.ndarray:
    """Unit direction of :func:`design_known_ecsi` for one channel pair.

    The batch-of-one case of :func:`eve_aware_directions`, from the two
    channel matrices.
    """
    if hb.shape[1] != he.shape[1]:
        raise DimensionError(f"channel column counts differ: {hb.shape[1]} vs {he.shape[1]}")
    a = hb.conj().T @ hb
    b = he.conj().T @ he
    return eve_aware_directions(a[None], b[None], he.shape[0])[0]


@cache
def _hegvd():
    """scipy.linalg.eigh's default driver for the generalized problem.

    Looked up on first use, so that only the Eve-aware designs load
    scipy.linalg, which takes longer to import than the rest of the package.
    """
    from scipy.linalg.lapack import get_lapack_funcs

    return get_lapack_funcs("hegvd", dtype=np.complex128)


# The arguments scipy.linalg.eigh passes the driver; calling it directly
# skips eigh's per-call checks.
_HEGVD_ARGS = dict(itype=1, jobz="V", uplo="L")


def eve_aware_directions(a: np.ndarray, b: np.ndarray, ne: int) -> np.ndarray:
    """Unit directions (T, na) of :func:`design_known_ecsi` for Gram stacks.

    ``a`` and ``b`` (T, na, na) are the Gram matrices H^H H of the intended
    receiver's and the eavesdropper's channels, and ``ne`` is her antenna
    count.  Each direction solves the generalized eigenproblem a t = lam b t
    for the largest ratio.  While the eavesdropper has fewer antennas than
    the transmitter her Gram matrix is singular, and where it fails to
    factor the reciprocal problem is solved instead; its smallest ratio lies
    in her null space.  Raises ValueError for non-finite input and
    DegenerateChannelError when both Gram matrices are singular.
    """
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("array must not contain infs or NaNs")
    hegvd = _hegvd()
    t = np.empty(a.shape[:-1], dtype=np.complex128)
    for i, (a_i, b_i) in enumerate(zip(a, b)):
        info = 1  # the reciprocal problem unless the forward one is posed and solved
        if ne >= a.shape[-1]:
            _, vecs, info = hegvd(a_i, b_i, **_HEGVD_ARGS)
            vec = vecs[:, -1]
        if info:
            _, vecs, info = hegvd(b_i, a_i, **_HEGVD_ARGS)
            if info:
                raise DegenerateChannelError(
                    "both channel Gram matrices are singular; no direction is identifiable"
                )
            vec = vecs[:, 0]
        t[i] = vec / np.linalg.norm(vec)
    return t


def bob_matched_beamformer(chan: ChannelSet, scheme: TxScheme) -> RxBeamformer:
    """Combiner matched to the received data signature, w = H t.

    Optimal when no interference reaches the receiver; under
    ``design_artificial_noise`` with an exact channel it attains the target
    SINR exactly.
    """
    return RxBeamformer(w=chan.h_ba.entries @ scheme.t, kind="matched")


def mmse_combiner(h, scheme: TxScheme, sigma_sq: float, q_z_true=None) -> np.ndarray:
    """Max-SINR combiner against a scheme's interference plus noise.

    Solves (H Q H^H + sigma^2 I) w = H t for the channel ``h`` the combiner
    actually sees.  ``q_z_true`` overrides the scheme covariance when the
    transmitted interference differs from the nominal design.
    """
    arr = as_matrix(h)
    q = scheme.q_z if q_z_true is None else np.asarray(q_z_true, dtype=np.complex128)
    cov = arr @ q @ arr.conj().T + sigma_sq * np.eye(arr.shape[0])
    rhs = arr @ scheme.t
    return np.linalg.solve(cov, rhs)


def eve_mmse_beamformer(chan: ChannelSet, scheme: TxScheme, q_z_true=None) -> RxBeamformer:
    """The best linear receiver the eavesdropper can run.

    She knows her own channel and the full transmit configuration, so her
    combiner whitens the interference she actually receives.  A scheme that
    nulls her exactly leaves the MMSE solution at zero, where any combiner
    is equally good; a fixed unit vector stands in so the zero SINR is still
    reportable.
    """
    w = mmse_combiner(chan.h_ea, scheme, chan.sigma_e_sq, q_z_true=q_z_true)
    return RxBeamformer(w=_nulled_stand_in(w), kind="mmse")


def mmse_combiners(h: np.ndarray, t: np.ndarray, factor: np.ndarray, sigma_sq: float) -> np.ndarray:
    """Stacked eavesdropper combiners over the leading axes of the inputs.

    Solves (H Q H^H + sigma^2 I) w = H t with Q = F F^H for the interference
    factor ``factor`` (F), for every channel at once with the LU-based solve
    of the single-channel :func:`mmse_combiner`, and applies the stand-in of
    :func:`eve_mmse_beamformer` wherever the solution is exactly zero.  A
    factor without columns leaves sigma^2 I, whose solution is H t / sigma^2
    without a solve.
    """
    rhs = matvec(h, t)
    if factor.shape[-1] == 0:
        return _nulled_stand_in(rhs / sigma_sq)
    cov = h @ (factor @ herm(factor)) @ herm(h) + sigma_sq * np.eye(h.shape[-2])
    return _nulled_stand_in(np.linalg.solve(cov, rhs[..., None])[..., 0])


def _nulled_stand_in(w: np.ndarray) -> np.ndarray:
    """The first unit vector in place of each all-zero combiner."""
    if w.ndim == 1 and w.any():
        return w
    nulled = ~np.any(w, axis=-1)
    return np.where(nulled[..., None], np.eye(w.shape[-1])[0], w)


def link_powers(h, t, data_power, factor, w, sigma_sq: float):
    """Signal, interference and noise power at unit-norm combiners ``w``.

    Every argument may carry the same leading batch axes; ``factor`` is F
    with q_z = F F^H, or None to skip the interference power (returned as
    None).  Returns the powers as arrays over the batch axes.  Interference
    is the sum of squared amplitudes F^H H^H w, so a combiner orthogonal to
    it measures the true epsilon-squared residual instead of covariance
    round-off.
    """
    sig = data_power * abs(vdot(w, matvec(h, t))) ** 2
    noise = sigma_sq * np.real(vdot(w, w))
    if factor is None:
        return sig, None, noise
    amps = matvec(herm(factor), matvec(herm(h), w))
    return sig, np.real(vdot(amps, amps)), noise


def _as_vector(w) -> np.ndarray:
    if isinstance(w, RxBeamformer):
        return w.w
    return np.asarray(w, dtype=np.complex128)


def link_sinr(h, scheme: TxScheme, w, sigma_sq: float, q_z_true=None) -> LinkSinr:
    """SINR seen through channel ``h`` with combiner ``w``.

    The quadratic forms are evaluated directly, so the scheme's direction and
    covariance may come from a stale estimate while ``h`` is the true
    channel.  Powers are reported for the unit-norm combiner (the SINR does
    not depend on the scale of ``w``, but the split does); noise_power is
    then exactly ``sigma_sq``, and sums of the components across trials give
    a well-defined ratio-of-expectations estimate.
    """
    arr = as_matrix(h)
    w = _as_vector(w)
    if w.ndim != 1 or w.size != arr.shape[0]:
        raise DimensionError(f"combiner length {w.shape} does not match channel rows {arr.shape[0]}")
    if sigma_sq <= 0:
        raise ParameterError(f"sigma_sq must be positive, got {sigma_sq}")
    scale = np.linalg.norm(w)
    if scale == 0.0:
        raise ParameterError("combiner must be nonzero")
    w = w / scale
    factor = scheme.q_z_factor if q_z_true is None else None
    sig, interf, noise = link_powers(arr, scheme.t, scheme.data_power, factor, w, sigma_sq)
    noise = float(noise)
    if factor is not None:
        interf = float(interf)
    else:
        q = scheme.q_z if q_z_true is None else np.asarray(q_z_true, dtype=np.complex128)
        hqh = arr @ q @ arr.conj().T
        interf = float(np.real(np.vdot(w, hqh @ w)))
        # Clamp tiny negative round-off from the quadratic form.
        interf = max(interf, 0.0)
    return LinkSinr(
        sinr=float(sig) / (interf + noise),
        signal_power=float(sig),
        interference_power=interf,
        noise_power=noise,
    )


def evaluate_links(
    chan: ChannelSet, scheme: TxScheme, w_b, w_e, q_z_true=None
) -> tuple[SinrReport, LinkSinr, LinkSinr]:
    """Evaluate one trial at both receivers, keeping both links' powers.

    Returns the report of :func:`evaluate_sinr` together with the two
    :class:`LinkSinr` values it was built from.
    """
    bob = link_sinr(chan.h_ba, scheme, w_b, chan.sigma_b_sq, q_z_true=q_z_true)
    eve = link_sinr(chan.h_ea, scheme, w_e, chan.sigma_e_sq, q_z_true=q_z_true)
    report = SinrReport(
        sinr_b=bob.sinr,
        sinr_e=eve.sinr,
        secrecy_capacity=secrecy_capacity_proxy(bob.sinr, eve.sinr),
        outage=scheme.outage,
    )
    return report, bob, eve


def evaluate_sinr(chan: ChannelSet, scheme: TxScheme, w_b, w_e, q_z_true=None) -> SinrReport:
    """Evaluate one trial at both receivers.

    ``q_z_true`` is the interference covariance actually transmitted; it
    defaults to the scheme's own.  The secrecy number is the clamped
    difference of the two log rates at the beamformer outputs.
    """
    return evaluate_links(chan, scheme, w_b, w_e, q_z_true=q_z_true)[0]


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
    if any_true(target_sinr <= 0):
        raise ParameterError(f"target_sinr must be positive, got {target_sinr}")
    _check_sinrs(sinr_b, sinr_e)
    rate = np.maximum(np.log2(1.0 + target_sinr) - np.log2(1.0 + sinr_e), 0.0)
    return _as_output(np.where(sinr_b < target_sinr * (1.0 - _GOODPUT_SLACK), 0.0, rate))


def secrecy_capacity_full(chan: ChannelSet, scheme: TxScheme, q_z_true=None) -> float:
    """Matrix mutual-information secrecy rate for the transmitted covariance.

    Uses the full transmit covariance rho*P*t*t^H + q_z through both channels
    rather than the scalar beamformer outputs.  Reported as an alternative
    metric; the scalar proxy is the default everywhere else.
    """
    q = scheme.q_z if q_z_true is None else np.asarray(q_z_true, dtype=np.complex128)
    return float(full_secrecy_rates(
        chan.h_ba.entries, chan.h_ea.entries, scheme.t, scheme.data_power, q,
        chan.sigma_b_sq, chan.sigma_e_sq,
    ))


def full_secrecy_rates(h_b, h_e, t, data_power, q, sigma_b_sq: float, sigma_e_sq: float):
    """Stacked :func:`secrecy_capacity_full` over the leading batch axes.

    ``t`` and ``data_power`` describe the data stream and ``q`` is the
    interference covariance, all with the channels' batch axes.
    """
    q_a = np.asarray(data_power)[..., None, None] * outer(t, t) + q
    eye_b = np.eye(h_b.shape[-2])
    eye_e = np.eye(h_e.shape[-2])
    _, logdet_b = np.linalg.slogdet(eye_b + h_b @ q_a @ herm(h_b) / sigma_b_sq)
    _, logdet_e = np.linalg.slogdet(eye_e + h_e @ q_a @ herm(h_e) / sigma_e_sq)
    return np.maximum((logdet_b - logdet_e) / np.log(2.0), 0.0)


def perfect_csi_trial(chan: ChannelSet, target_sinr: float, svd: SvdPartition | None = None):
    """Run the whole perfect-knowledge pipeline for one channel.

    Returns (scheme, bob beamformer, eve beamformer, report).  Convenience
    wrapper for single-channel callers such as the self checks; the
    experiment harness runs its batched stages instead.
    """
    part = svd if svd is not None else partition_svd(chan.h_ba)
    scheme = design_artificial_noise(chan, part, target_sinr)
    w_b = bob_matched_beamformer(chan, scheme)
    w_e = eve_mmse_beamformer(chan, scheme)
    return scheme, w_b, w_e, evaluate_sinr(chan, scheme, w_b, w_e)
