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
estimated directions.  Reported SINRs are always evaluated against the
transmission that actually happened, through the true channel.
"""
from __future__ import annotations

import numpy as np

from .channels import ChannelSet, SvdStack, as_matrix, partition_stack
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
)

# Diagonal loading fraction applied when an expected-interference matrix
# fails to be positive definite.
_LOADING = 1e-8
# Bracket and tolerances of the power-fraction root solve.
_RHO_FLOOR = 1e-14
_XTOL = 1e-15
_RTOL = 8.9e-16
_MAXITER = 100


def _brentq(f, xa: float, xb: float) -> float:
    """Brent's root finder on one bracket [xa, xb], in Python floats.

    Step for step the C ``brentq`` of scipy.optimize (Brent, "Algorithms
    for Minimization without Derivatives", 1973) at ``_XTOL``, ``_RTOL``
    and ``_MAXITER``, so it returns scipy's root bit for bit.
    :func:`_brent` is the same iteration over arrays, which costs several
    times more on a single bracket.
    """
    xpre, xcur = float(xa), float(xb)
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_XTOL + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        # Interpolate (secant) or extrapolate (inverse quadratic), and keep
        # the step only if it is short enough; bisect otherwise.
        good = False
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                denom = dblk * dpre * (fblk - fpre)
                # In C a zero denominator gives inf or NaN, which bisects.
                stry = -fcur * (fblk * dblk - fpre * dpre) / denom if denom else np.inf
            good = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
        spre, scur = (scur, stry) if good else (sbis, sbis)
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError(f"Failed to converge after {_MAXITER} iterations")


def solve_fractions(lam, weights, power_p: float, na: int, sigma_sq: float, target_sinr):
    """Smallest rho in (0, 1] with rank-one gain >= target, elementwise.

    ``lam`` and ``weights`` (..., nb) describe one gain curve per entry (see
    :func:`rank1_gains`) and ``target_sinr`` broadcasts against their
    leading axes.  Raising rho adds signal and removes interference, so each
    curve crosses its target at most once.  An entry gets (1.0, outage)
    when even the full budget falls short, and ``_RHO_FLOOR`` when the
    bracket's floor already meets the target.  The root solve is Brent's
    method as scipy's ``brentq`` runs it, on the same bracket and
    tolerances: :func:`_brentq` for a single bracket and :func:`_brent` for
    every entry of several at once.  Returns (rho, outage) arrays.
    """
    if any_true(target_sinr <= 0):
        raise ParameterError(f"target_sinr must be positive, got {target_sinr}")
    target = np.broadcast_to(
        target_sinr, np.broadcast_shapes(lam.shape[:-1], np.shape(target_sinr))
    )
    if target.size == 1:
        lam_1, weights_1, target_1 = lam.reshape(-1), weights.reshape(-1), target.item()

        def excess(rho: float) -> float:
            return float(rank1_gains(rho, lam_1, weights_1, power_p, na, sigma_sq)) - target_1

        if excess(1.0) < 0:
            rho, outage = 1.0, True
        elif excess(_RHO_FLOOR) >= 0:
            rho, outage = _RHO_FLOOR, False
        else:
            rho, outage = _brentq(excess, _RHO_FLOOR, 1.0), False
        return np.full(target.shape, rho), np.full(target.shape, outage)
    outage = rank1_gains(np.ones(target.shape), lam, weights, power_p, na, sigma_sq) < target
    floor = rank1_gains(np.full(target.shape, _RHO_FLOOR), lam, weights, power_p, na, sigma_sq)
    at_floor = ~outage & (floor >= target)
    root = _brent(
        lambda r: rank1_gains(r, lam, weights, power_p, na, sigma_sq) - target,
        _RHO_FLOOR, 1.0, target.shape, skip=outage | at_floor,
    )
    return np.where(outage, 1.0, np.where(at_floor, _RHO_FLOOR, root)), outage


def _brent(f, xa: float, xb: float, shape, skip):
    """Brent's root finder over an array of brackets [xa, xb].

    The iteration is scipy's ``brentq`` (the C ``brentq`` of scipy.optimize)
    applied entry by entry with masks, so each entry takes exactly the steps
    the scalar solver would.  Entries marked in ``skip`` are left out.
    """
    xpre = np.full(shape, float(xa))
    xcur = np.full(shape, float(xb))
    fpre, fcur = f(xpre), f(xcur)
    if np.any(~skip & (fpre != 0) & (fcur != 0) & (np.signbit(fpre) == np.signbit(fcur))):
        raise ValueError("f(a) and f(b) must have different signs")
    root = np.where(fpre == 0, xpre, xcur)
    done = skip | (fpre == 0) | (fcur == 0)
    xblk = fblk = spre = scur = np.zeros(shape)
    with np.errstate(all="ignore"):
        for _ in range(_MAXITER):
            if done.all():
                return root
            straddle = (fpre != 0) & (fcur != 0) & (np.signbit(fpre) != np.signbit(fcur))
            xblk = np.where(straddle, xpre, xblk)
            fblk = np.where(straddle, fpre, fblk)
            step = xcur - xpre
            spre = np.where(straddle, step, spre)
            scur = np.where(straddle, step, scur)
            swap = np.abs(fblk) < np.abs(fcur)
            xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                                np.where(swap, xcur, xblk))
            fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                                np.where(swap, fcur, fblk))
            delta = (_XTOL + _RTOL * np.abs(xcur)) / 2
            sbis = (xblk - xcur) / 2
            converged = ~done & ((fcur == 0) | (np.abs(sbis) < delta))
            root = np.where(converged, xcur, root)
            done = done | converged
            # Interpolate (secant) or extrapolate (inverse quadratic), and
            # keep the step only where it is short enough; bisect elsewhere.
            secant = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            quadratic = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            stry = np.where(xpre == xblk, secant, quadratic)
            good = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                    & (2 * np.abs(stry) < np.minimum(np.abs(spre), 3 * np.abs(sbis) - delta)))
            spre, scur = np.where(good, scur, sbis), np.where(good, stry, sbis)
            xpre, fpre = xcur, fcur
            xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
            fcur = f(xcur)
    if not done.all():
        raise RuntimeError(f"Failed to converge after {_MAXITER} iterations")
    return root


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


def whitened_combiner(evecs, lam, signature, beta, sigma_sq):
    """(beta * A + sigma^2 I)^-1 signature via the eigendecomposition of A.

    Works over leading batch axes; ``beta`` and ``sigma_sq`` may be scalars
    or arrays over those axes.
    """
    proj = matvec(herm(evecs), signature)
    scale = np.asarray(beta)[..., None] * lam + np.asarray(sigma_sq)[..., None]
    return matvec(evecs, proj / scale)


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
    """Exact-knowledge recovery designs, one :class:`Design` per target.

    The receiver knows the transmitter's estimate, whose right singular
    vectors are ``v_tilde`` (..., na, na): data on column 0, interference
    on the rest.  It whitens the interference that leaks through
    ``h_design`` (the true channel, or the estimate's reconstruction) and
    requests the power fraction that lands its output SINR exactly on each
    target.  The eigendecomposition and one root solve serve all targets.
    """
    na = v_tilde.shape[-1]
    lam, evecs, signature, weights = fdd_spectrum(h_design, v_tilde[..., 0], v_tilde[..., 1:])
    rhos, outages = solve_fractions(
        lam[..., None, :], weights[..., None, :], power_p, na, sigma_b_sq, np.asarray(targets)
    )
    designs = []
    for k in range(len(targets)):
        rho, outage = rhos[..., k], outages[..., k]
        beta = noise_share(rho, power_p, na)
        designs.append(Design(
            t=v_tilde[..., 0], rho=rho, factor=noise_factors(v_tilde[..., 1:], rho, power_p),
            w_b=whitened_combiner(evecs, lam, signature, beta, sigma_b_sq), outage=outage,
            flagged=np.zeros_like(outage),
        ))
    return designs


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
    """Statistics-only recovery designs, one :class:`Design` per target.

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
    designs = []
    for target in targets:
        rho, outage = tdd_fraction(sigma1**2, leak, target, power_p, sigma_b_sq, na)
        beta = noise_share(rho, power_p, na)
        sigma_eff, loaded = loaded_noise(beta, lam, sigma_b_sq)
        designs.append(Design(
            t=v_tilde[..., 0], rho=rho, factor=noise_factors(v_tilde[..., 1:], rho, power_p),
            w_b=whitened_combiner(evecs, lam, signature, beta, sigma_eff),
            outage=outage, flagged=loaded,
        ))
    return designs


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
    d = robust_fdd(h, tilde.v, (target_sinr,), chan.power_p, chan.sigma_b_sq)[0]
    scheme, _, report, bob, eve = run_trial(chan, d, target_sinr)
    return RxBeamformer(w=d.w_b[0], kind="robust_fdd"), report, bob, eve, scheme


def fdd_receiver(
    chan: ChannelSet,
    h_tilde,
    target_sinr: float,
    *,
    propagate_through_estimate: bool = False,
) -> tuple[RxBeamformer, SinrReport]:
    """Recovery when the receiver knows the transmitter's exact estimate.

    The receiver reconstructs the transmit configuration from ``h_tilde``,
    whitens the interference it actually receives through the true channel,
    and requests the power fraction that lands the output SINR exactly on
    target (non-outage trials hit it to numerical precision).

    ``propagate_through_estimate=True`` switches the receiver's design to
    propagate the reconstructed transmission through the estimate rather
    than the true channel; the reported SINR stays physical either way.
    """
    tilde = partition_stack(as_matrix(h_tilde)[None])
    beam, report, _, _, _ = _fdd_trial(
        chan, tilde, target_sinr, propagate_through_estimate=propagate_through_estimate,
    )
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
    d = robust_tdd(
        chan.h_ba.entries[None], svd.sigma1[None], svd.u1[None], svd.v1[None],
        moments.e_dv1[None], tilde.v, (target_sinr,), chan.power_p, chan.sigma_b_sq,
    )[0]
    scheme, _, report, bob, eve = run_trial(chan, d, target_sinr)
    return RxBeamformer(w=d.w_b[0], kind="robust_tdd"), report, bob, eve, scheme


def tdd_receiver(
    chan: ChannelSet,
    svd: SvdStack,
    moments: PerturbMoments,
    err_sample: np.ndarray,
    target_sinr: float,
) -> tuple[RxBeamformer, SinrReport]:
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
    beam's misalignment is deliberately not chased with extra data power.
    """
    tilde = partition_stack((chan.h_ba.entries + as_matrix(err_sample))[None])
    beam, report, _, _, _ = _tdd_trial(chan, svd, moments, tilde, target_sinr)
    return beam, report
