"""Receiver-side defenses against a transmitter acting on stale channel data.

The transmitter's estimate H + dH misplaces the data direction and the
interference subspace, so the intended receiver is partly jammed.  Two
recovery modes are modeled, differing in what the receiver knows:

* ``fdd``: the receiver knows the exact estimate the transmitter used (it
  reported the estimate itself), so it can reconstruct the whole transmit
  configuration and whiten the leaked interference it actually receives.
* ``tdd``: the receiver knows only the true channel and the error
  statistics, so it whitens the expected interference instead, built from
  the closed-form perturbation moments.

In both modes the receiver also picks the data-power fraction: it solves for
the smallest fraction whose (predicted) output SINR meets the target and
feeds that number back to the transmitter, which otherwise keeps its own
estimated directions.  ``fdd`` inverts its output-SINR curve, which is
increasing and convex in the fraction, by a Newton descent from the full
budget (:func:`solve_fractions`); ``tdd`` sizes the fraction in closed form.
Reported SINRs are always evaluated against the transmission that actually
happened, through the true channel.
"""
from __future__ import annotations

import numpy as np

from .channels import ChannelSet, SvdStack, finite, matching, partition_stack
from .exceptions import ParameterError
from .perturbation import PerturbMoments, self_drift
from .stacked import any_true, herm, matvec, outer
from .transmit import (
    Design,
    LinkSinr,
    RxBeamformer,
    SinrReport,
    TxScheme,
    noise_factors,
    noise_share,
    run_trial,
    target_axis,
    whitened_combiner,
)

# Diagonal loading fraction applied when an expected-interference matrix
# fails to be positive definite.
_LOADING = 1e-8
# Floor of the power fraction and iteration cap of its root solve.
_RHO_FLOOR = 1e-14
_MAXITER = 100
# An entry of the root solve stops once its Newton step moves it by at most
# this many units in the last place; the steps after that only polish ulps.
_SETTLED_ULPS = 4


def solve_fractions(lam, weights, power_p: float, na: int, sigma_sq: float, target_sinr):
    """Smallest rho in (0, 1] with rank-one gain >= target, elementwise.

    ``lam`` and ``weights`` (..., nb) describe one gain curve per entry (see
    :func:`rank1_gains`) and ``target_sinr`` broadcasts against their
    leading axes.  An entry gets (1.0, outage) when even the full budget
    falls short, and ``_RHO_FLOOR`` when the crossing lies below it.

    Every other entry is solved by Newton's method.  With
    D_i = a_i (1 - rho) + sigma^2 and a_i = lam_i P / (na - 1) (0 if na = 1),
    the gain g(rho) = rho P sum_i w_i / D_i is increasing and convex, with
    slope g'(rho) = P sum_i w_i (a_i + sigma^2) / D_i^2.  As D_i <= a_i +
    sigma^2, g(rho) >= rho g'(0), so the start min(1, target / g'(0)) is not
    below the crossing, and each tangent step lands between the crossing and
    the current point.  The step is taken as

        rho - (g - target) / g' = (rho^2 P sum_i w_i a_i / D_i^2 + target) / g',

    a sum of nonnegative terms that keeps full relative precision however
    far it moves.  Each entry takes the smaller of its point and its step,
    and stops once that moves it by no more than ``_SETTLED_ULPS`` units in
    the last place; the convergence is quadratic, so the step it stops on
    is within about an ulp of the crossing.  An entry's iterates depend on
    that entry alone, so a batch gives each entry's value bit for bit.
    Returns (rho, outage).
    """
    if any_true(target_sinr <= 0):
        raise ParameterError(f"target_sinr must be positive, got {target_sinr}")
    shape = np.broadcast_shapes(lam.shape[:-1], np.shape(target_sinr))
    target = np.broadcast_to(target_sinr, shape)
    lam = np.broadcast_to(lam, shape + lam.shape[-1:])
    weights = np.broadcast_to(weights, lam.shape)
    outage = rank1_gains(np.ones(shape), lam, weights, power_p, na, sigma_sq) < target
    live = ~outage
    a = lam[live] * noise_share(0.0, power_p, na)
    rise = a + sigma_sq
    weights, target = weights[live], target[live] / power_p
    root = np.minimum(1.0, target / (weights / rise).sum(axis=-1))
    moving = np.ones(root.shape, dtype=bool)
    for _ in range(_MAXITER):
        scaled = weights / ((1.0 - root)[..., None] * a + sigma_sq) ** 2
        slope = (scaled * rise).sum(axis=-1)
        step = np.minimum(root, (root**2 * (scaled * a).sum(axis=-1) + target) / slope)
        settled = root - step <= _SETTLED_ULPS * np.spacing(root)
        root = np.where(moving, step, root)
        moving &= ~settled
        if not moving.any():
            rho = np.ones(shape)
            rho[live] = np.maximum(root, _RHO_FLOOR)
            return rho, outage
    raise RuntimeError(f"Failed to converge after {_MAXITER} iterations")


def rank1_gains(rho, lam, weights, power_p: float, na: int, sigma_sq: float):
    """Output SINR of the whitened combiner for a rank-one data signature.

    With interference eigenvalues lam and squared signature projections
    ``weights`` (both (..., nb)),

        g(rho) = rho * P * sum_i weights_i / (beta(rho) * lam_i + sigma_sq),

    elementwise over the leading axes, which ``rho`` broadcasts against.
    """
    beta = noise_share(rho, power_p, na)
    if isinstance(beta, np.ndarray):
        beta = beta[..., None]
    return rho * power_p * np.sum(weights / (beta * lam + sigma_sq), axis=-1)


def fdd_spectrum(h_design, t_tilde, t_prime):
    """What the exact-knowledge receiver whitens, over leading batch axes.

    Returns (lam, evecs, signature, weights): the eigenvalues (clipped at
    zero) and eigenvectors of the leaked interference covariance per unit
    interference power H T' T'^H H^H, the data signature H t~, and the
    signature's squared projections on the eigenvectors.
    """
    leak = h_design @ t_prime
    lam, evecs = np.linalg.eigh(leak @ herm(leak))
    lam = np.clip(lam, 0.0, None)
    signature = matvec(h_design, t_tilde)
    weights = np.abs(matvec(herm(evecs), signature)) ** 2
    return lam, evecs, signature, weights


def robust_fdd(h_design, v_tilde, targets, power_p: float, sigma_b_sq: float):
    """Exact-knowledge recovery designs for every entry of ``targets`` (one
    :class:`Design`).

    The receiver knows the transmitter's estimate, whose right singular
    vectors are ``v_tilde`` (..., na, na): data on column 0, interference
    on the rest.  It whitens the interference that leaks through
    ``h_design`` (the true channel, or the estimate's reconstruction) and
    requests the power fraction that lands its output SINR exactly on each
    target.  The eigendecomposition and one root solve serve all targets.
    """
    na = v_tilde.shape[-1]
    lam, evecs, signature, weights = fdd_spectrum(h_design, v_tilde[..., 0], v_tilde[..., 1:])
    rho, outage = solve_fractions(
        lam, weights, power_p, na, sigma_b_sq, target_axis(targets, lam.ndim - 1)
    )
    beta = noise_share(rho, power_p, na)
    return Design(
        t=v_tilde[None, ..., 0], rho=rho, factor=noise_factors(v_tilde[..., 1:], rho, power_p),
        w_b=whitened_combiner(evecs, lam, signature, beta, sigma_b_sq), outage=outage,
        flagged=np.zeros_like(outage),
    )


def tdd_shape(h, sigma1, u1, e_dv1):
    """Expected interference shape per unit interference power.

    The full channel subspace minus the nominal data direction, with the
    mean drift of the transmit beam folded in through the cross terms.  This
    is all the receiver's statistics can say about where the transmitter's
    interference floor moved.  Works over leading batch axes.
    """
    sigma1 = np.asarray(sigma1)[..., None, None]
    cross = sigma1 * outer(u1, matvec(h, e_dv1))
    shape = h @ herm(h) - sigma1**2 * outer(u1, u1) - cross - herm(cross)
    return 0.5 * (shape + herm(shape))


def tdd_fraction(lam1, leak, target_sinr, power_p: float, sigma_b_sq: float, na: int):
    """Requested data fraction of the statistical receiver, elementwise.

    Enough data power to hit the target against the mean leaked
    interference at the matched direction, at nominal beam gain.  The
    truncated leak overshoots the measured mean badly once errors get large,
    so it is resummed to leak/(1+leak), which respects the physical bound of
    one and tracks the measured mean leak closely.  The beam's misalignment
    itself is the transmitter's error; no receive-side choice undoes it, so
    it is deliberately not chased with extra data power (which would only
    bleed interference power and secrecy).  The residual shortfall, growing
    with the error power, is the misalignment loss.  Returns (rho, outage).
    """
    leak = np.maximum(leak, 0.0)
    leak = leak / (1.0 + leak)
    if na > 1:
        leak_share = leak / (na - 1)
        rho = (
            target_sinr
            * (sigma_b_sq + lam1 * power_p * leak_share)
            / (lam1 * power_p * (1.0 + target_sinr * leak_share))
        )
    else:
        rho = target_sinr * sigma_b_sq / (lam1 * power_p)
    outage = rho >= 1.0
    return np.where(outage, 1.0, rho), outage


def loaded_noise(beta, lam, sigma_sq: float):
    """Noise level that keeps beta * lam + sigma^2 positive, elementwise.

    The drift cross terms can push an eigenvalue of the expected covariance
    slightly negative for large error power; definiteness is restored by
    diagonal loading.  Returns (effective noise level, loaded flag).
    """
    n = lam.shape[-1]
    worst = beta * np.min(lam, axis=-1) + sigma_sq
    loaded = worst <= 0.0
    trace = beta * np.sum(lam, axis=-1) + n * sigma_sq
    delta = _LOADING * np.abs(trace) / n
    delta = np.where(worst + delta <= 0.0, (1.0 + 1e-6) * (-worst), delta)
    return np.where(loaded, sigma_sq + delta, sigma_sq), loaded


def robust_tdd(h, sigma1, u1, v1, e_dv1, v_tilde, targets, power_p: float, sigma_b_sq: float):
    """Statistics-only recovery designs for every entry of ``targets`` (one
    :class:`Design`).

    The receiver knows its channel ``h`` with dominant singular triplet
    (``sigma1``, ``u1``, ``v1``) and the mean drift ``e_dv1`` of the
    transmitter's data direction, but not the estimate (right singular
    vectors ``v_tilde``) the transmitter designs from.  It whitens the
    expected interference shape, matches to the expected data signature
    H (v1 + e_dv1), and requests the fraction :func:`tdd_fraction` sizes
    against the mean leak, loading the whitening where it is indefinite
    (``flagged``).  The eigendecomposition serves all targets.
    """
    if any_true(np.asarray(targets) <= 0):
        raise ParameterError(f"target_sinr must be positive, got {targets}")
    na = v_tilde.shape[-1]
    lam, evecs = np.linalg.eigh(tdd_shape(h, sigma1, u1, e_dv1))
    leak = -2.0 * self_drift(v1, e_dv1)
    signature = matvec(h, v1 + e_dv1)
    rho, outage = tdd_fraction(sigma1**2, leak, target_axis(targets, lam.ndim - 1), power_p,
                               sigma_b_sq, na)
    beta = noise_share(rho, power_p, na)
    sigma_eff, loaded = loaded_noise(beta, lam, sigma_b_sq)
    return Design(
        t=v_tilde[None, ..., 0], rho=rho, factor=noise_factors(v_tilde[..., 1:], rho, power_p),
        w_b=whitened_combiner(evecs, lam, signature, beta, sigma_eff),
        outage=outage, flagged=loaded,
    )


def _fdd_trial(
    chan: ChannelSet,
    tilde: SvdStack,
    target_sinr: float,
    *,
    propagate_through_estimate: bool = False,
) -> tuple[RxBeamformer, SinrReport, LinkSinr, LinkSinr, TxScheme]:
    """Full-knowledge recovery for one trial from the estimate's
    decomposition (a stack of one): the batch of one of :func:`robust_fdd`."""
    h = tilde.reconstruct() if propagate_through_estimate else chan.h_ba.entries[None]
    d = robust_fdd(h, tilde.v, (target_sinr,), chan.power_p, chan.sigma_b_sq)
    scheme, report, bob, eve = run_trial(chan, d, target_sinr)
    return RxBeamformer(w=d.w_b[0, 0], kind="robust_fdd"), report, bob, eve, scheme


def fdd_receiver(chan: ChannelSet, h_tilde, target_sinr: float, *,
                 propagate_through_estimate: bool = False) -> tuple[RxBeamformer, SinrReport]:
    """Recovery when the receiver knows the transmitter's exact estimate.

    The receiver reconstructs the transmit configuration from ``h_tilde``,
    whitens the interference it actually receives through the true channel,
    and requests the power fraction that lands the output SINR exactly on
    target (non-outage trials hit it to numerical precision).

    ``propagate_through_estimate=True`` switches the receiver's design to
    propagate the reconstructed transmission through the estimate rather
    than the true channel; the reported SINR stays physical either way.  A
    misshapen or non-finite estimate is refused (DimensionError,
    ParameterError).
    """
    tilde = partition_stack(finite(matching(h_tilde, chan.h_ba, "h_tilde"), "h_tilde")[None])
    beam, report, _, _, _ = _fdd_trial(
        chan, tilde, target_sinr, propagate_through_estimate=propagate_through_estimate)
    return beam, report


def _tdd_trial(
    chan: ChannelSet,
    svd: SvdStack,
    moments: PerturbMoments,
    tilde: SvdStack,
    target_sinr: float,
) -> tuple[RxBeamformer, SinrReport, LinkSinr, LinkSinr, TxScheme]:
    """Statistical recovery for one trial from the channel's decomposition
    ``svd`` and the estimate's ``tilde`` (a stack of one): the batch of one
    of :func:`robust_tdd`."""
    svd = svd.single()
    d = robust_tdd(
        chan.h_ba.entries[None], svd.sigma1[None], svd.u1[None], svd.v1[None],
        moments.e_dv1[None], tilde.v, (target_sinr,), chan.power_p, chan.sigma_b_sq,
    )
    scheme, report, bob, eve = run_trial(chan, d, target_sinr)
    return RxBeamformer(w=d.w_b[0, 0], kind="robust_tdd"), report, bob, eve, scheme


def tdd_receiver(chan: ChannelSet, svd: SvdStack, moments: PerturbMoments, err_sample: np.ndarray,
                 target_sinr: float) -> tuple[RxBeamformer, SinrReport]:
    """Recovery when the receiver knows the channel and error statistics.

    The receiver never sees the transmitter's estimate.  It whitens the
    expected interference-plus-noise covariance built from the mean beam
    drift, matches to the expected data signature H (v_1 + E{dv_1}), and
    requests the power fraction sized against the mean leaked interference
    (with the leak resummed to respect its physical bound).  The
    transmitter keeps its own estimated directions but applies the
    requested fraction.  The reported SINR is evaluated against the actual
    transmission through the true channel, so it fluctuates around the
    request; the average shortfall grows with the error power because the
    beam's misalignment is deliberately not chased with extra data power.  A
    misshapen error sample or a non-finite estimate is refused
    (DimensionError, ParameterError).
    """
    est = chan.h_ba.entries + matching(err_sample, chan.h_ba, "err_sample")
    tilde = partition_stack(finite(est, "H + err_sample")[None])
    beam, report, _, _, _ = _tdd_trial(chan, svd, moments, tilde, target_sinr)
    return beam, report
