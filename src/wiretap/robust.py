"""Receiver-side defenses against a transmitter acting on stale channel data.

The transmitter's estimate H + dH misplaces the data direction and the
interference subspace, so the intended receiver is partly jammed.  Two
recovery modes are modeled, differing in what the receiver knows:

* ``fdd``: the receiver knows the exact estimate the transmitter used (it
  reported the estimate itself), so it knows the transmitted direction and
  interference and whitens the leaked interference it actually receives.
* ``tdd``: the receiver knows only the true channel and the error
  statistics, so it whitens the expected interference instead, built from
  the closed-form perturbation moments.  For i.i.d. error the mean beam
  drift lies along the nominal direction, the expected interference is
  diagonal in the channel's left singular vectors, and the whitened
  combiner is a closed-form multiple of the dominant one; only a full error
  covariance needs an eigendecomposition.

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

from .channels import Basis, ChannelSet, SvdStack, estimate_basis, finite, matching, nonzero
from .perturbation import PerturbMoments, self_drift
from .stacked import herm, matvec, outer
from .transmit import (
    Design,
    LinkSinr,
    RxBeamformer,
    SinrReport,
    TxScheme,
    check_target,
    noise_beta,
    noise_share,
    run_trial,
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
    check_target(target_sinr)
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


def fdd_spectrum(h_design, t):
    """What the exact-knowledge receiver whitens, over leading batch axes.

    Returns (lam, evecs, signature, weights): the eigenvalues (clipped at
    zero) and eigenvectors of the leaked interference covariance per unit
    interference power H (I - t t^H) H^H = L L^H, L = H - (H t) t^H, the
    data signature H t, and its squared projections on the eigenvectors.
    """
    signature = matvec(h_design, t)
    leak = h_design - outer(signature, t)
    lam, evecs = np.linalg.eigh(leak @ herm(leak))
    lam = np.clip(lam, 0.0, None)
    weights = np.abs(matvec(herm(evecs), signature)) ** 2
    return lam, evecs, signature, weights


def whitened_combiner(evecs, lam, signature, beta, sigma_sq):
    """(beta * A + sigma^2 I)^-1 signature via the eigendecomposition
    A = U diag(lam) U^H, with U = ``evecs``.

    Works over leading batch axes; ``beta`` and ``sigma_sq`` may be scalars
    or arrays over those axes.  The exact-knowledge receiver, and the
    statistical one off the i.i.d. error model, whiten the interference they
    expect with it.
    """
    proj = matvec(herm(evecs), signature)
    scale = np.asarray(beta)[..., None] * lam + np.asarray(sigma_sq)[..., None]
    return matvec(evecs, proj / scale)


def robust_fdd(h_design, t, target_sinr, power_p: float, sigma_b_sq: float):
    """Exact-knowledge recovery designs (one :class:`Design`), over the
    batch axes of the inputs and of ``target_sinr``, which broadcast together.

    The receiver knows the data direction ``t`` (..., na) of the
    transmitter's estimate, and so the interference on the rest.  It
    whitens the interference that leaks through ``h_design`` (the true
    channel, or the estimate) and requests the power fraction that lands
    its output SINR exactly on the target.  One eigendecomposition per
    channel serves every target, and one root solve all entries.
    """
    na = t.shape[-1]
    lam, evecs, signature, weights = fdd_spectrum(h_design, t)
    rho, outage = solve_fractions(lam, weights, power_p, na, sigma_b_sq, target_sinr)
    share = noise_share(rho, power_p, na)
    return Design(t=t, rho=rho, beta=noise_beta(rho, power_p, na),
                  w_b=whitened_combiner(evecs, lam, signature, share, sigma_b_sq), outage=outage)


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

    Off the i.i.d. error model the drift cross terms can push an eigenvalue
    of the expected covariance negative; definiteness is restored by
    diagonal loading.  Returns (effective noise level, loaded flag).
    """
    n = lam.shape[-1]
    worst = beta * np.min(lam, axis=-1) + sigma_sq
    loaded = worst <= 0.0
    trace = beta * np.sum(lam, axis=-1) + n * sigma_sq
    delta = _LOADING * np.abs(trace) / n
    delta = np.where(worst + delta <= 0.0, (1.0 + 1e-6) * (-worst), delta)
    return np.where(loaded, sigma_sq + delta, sigma_sq), loaded


def robust_tdd(sigma1, u1, v1, e_dv1, t, target_sinr, power_p: float, sigma_b_sq: float):
    """Statistics-only recovery designs (one :class:`Design`), over the
    batch axes of the inputs and of ``target_sinr``, which broadcast
    together, for i.i.d. error in closed form.

    The receiver knows its channel's dominant singular triplet (``sigma1``,
    ``u1``, ``v1``) and the mean drift ``e_dv1`` of the transmitter's data
    direction, but not its direction ``t`` (..., na) from the estimate.  It
    requests the fraction :func:`tdd_fraction` sizes against the mean leak
    -2c for c = :func:`~wiretap.perturbation.self_drift`, and whitens the
    expected interference shape (:func:`tdd_shape`) to match the expected
    data signature H (v1 + e_dv1).

    For i.i.d. error e_dv1 = c v1 with c real and nonpositive, so the shape
    is sum_{k>=2} sigma_k^2 u_k u_k^H - 2c sigma1^2 u1 u1^H, diagonal in the
    left singular vectors and never indefinite, and the signature
    (1 + c) sigma1 u1 is one of its eigenvectors.  The whitened combiner is
    therefore

        w_b = (1 + c) sigma1 / (beta (-2c) sigma1^2 + sigma_b^2) u1,

    with no eigendecomposition and no loading.  A drift off ``v1`` (a full
    error covariance) takes :func:`whitened_tdd`.
    """
    check_target(target_sinr)
    na = t.shape[-1]
    lam1, drift = sigma1**2, self_drift(v1, e_dv1)
    leak = -2.0 * drift
    rho, outage = tdd_fraction(lam1, leak, target_sinr, power_p, sigma_b_sq, na)
    share = noise_share(rho, power_p, na)
    gain = (1.0 + drift) * sigma1 / (share * leak * lam1 + sigma_b_sq)
    return Design(t=t, rho=rho, beta=noise_beta(rho, power_p, na),
                  w_b=gain[..., None] * u1, outage=outage)


def whitened_tdd(h, sigma1, u1, v1, e_dv1, t, target_sinr, power_p: float, sigma_b_sq: float):
    """:func:`robust_tdd`'s designs for any mean drift ``e_dv1``, the drift
    of a full error covariance included.

    The same request, with Bob's combiner whitened by an eigendecomposition
    of the expected interference shape :func:`tdd_shape` of his channels
    ``h``.  Off the i.i.d. model the drift's cross terms can make that shape
    indefinite, which diagonal loading restores (:func:`loaded_noise`).
    Only the single-channel receiver calls it, for moments of a full
    covariance.
    """
    d = robust_tdd(sigma1, u1, v1, e_dv1, t, target_sinr, power_p, sigma_b_sq)
    lam, evecs = np.linalg.eigh(tdd_shape(h, sigma1, u1, e_dv1))
    beta = noise_share(d.rho, power_p, t.shape[-1])
    sigma_eff, _ = loaded_noise(beta, lam, sigma_b_sq)
    signature = matvec(h, v1 + e_dv1)
    return d._replace(w_b=whitened_combiner(evecs, lam, signature, beta, sigma_eff))


def _fdd_trial(chan: ChannelSet, tilde: Basis, target_sinr: float,
               h_design=None) -> tuple[RxBeamformer, SinrReport, LinkSinr, LinkSinr, TxScheme]:
    """The batch of one of :func:`robust_fdd` from ``tilde``, the estimate's
    ``estimate_basis``, propagated through ``h_design``, else the true channel."""
    h = chan.h_ba.entries if h_design is None else h_design
    d = robust_fdd(h[None], tilde.v1[None], target_sinr, chan.power_p, chan.sigma_b_sq)
    scheme, report, bob, eve = run_trial(chan, d, target_sinr)
    return RxBeamformer(w=d.w_b[0], kind="robust_fdd"), report, bob, eve, scheme


def fdd_receiver(chan: ChannelSet, h_tilde, target_sinr: float, *,
                 propagate_through_estimate: bool = False) -> tuple[RxBeamformer, SinrReport]:
    """Recovery when the receiver knows the transmitter's exact estimate.

    The receiver takes the transmit configuration from ``h_tilde``, whitens
    the interference it actually receives through the true channel, and
    requests the power fraction that lands the output SINR exactly on
    target (non-outage trials hit it to numerical precision).

    ``propagate_through_estimate=True`` switches the receiver's design to
    propagate the transmission through the estimate rather than the true
    channel; the reported SINR stays physical either way.  A misshapen or
    non-finite estimate is refused (DimensionError, ParameterError), as is an
    all-zero one to propagate through, which no signal crosses.
    """
    est = finite(matching(h_tilde, chan.h_ba, "h_tilde"), "h_tilde")
    h_design = nonzero(est, "h_tilde") if propagate_through_estimate else None
    beam, report, _, _, _ = _fdd_trial(chan, estimate_basis(est), target_sinr, h_design)
    return beam, report


def _tdd_trial(chan: ChannelSet, svd: SvdStack, moments: PerturbMoments, tilde: Basis,
               target_sinr: float) -> tuple[RxBeamformer, SinrReport, LinkSinr, LinkSinr, TxScheme]:
    """Statistical recovery for one trial from the channel's decomposition
    ``svd`` and the estimate's ``estimate_basis`` ``tilde``: the batch of one of
    :func:`robust_tdd` for moments of i.i.d. error, else of
    :func:`whitened_tdd`."""
    svd = svd.single()
    args = (svd.sigma1[None], svd.u1[None], svd.v1[None], moments.e_dv1[None], tilde.v1[None],
            target_sinr, chan.power_p, chan.sigma_b_sq)
    d = (robust_tdd(*args) if moments.iid_drift is not None
         else whitened_tdd(chan.h_ba.entries[None], *args))
    scheme, report, bob, eve = run_trial(chan, d, target_sinr)
    return RxBeamformer(w=d.w_b[0], kind="robust_tdd"), report, bob, eve, scheme


def tdd_receiver(chan: ChannelSet, svd: SvdStack, moments: PerturbMoments, err_sample: np.ndarray,
                 target_sinr: float) -> tuple[RxBeamformer, SinrReport]:
    """Recovery when the receiver knows the channel and error statistics.

    The receiver never sees the transmitter's estimate.  It whitens the
    expected interference-plus-noise covariance built from the mean beam
    drift, matches to the expected data signature H (v_1 + E{dv_1}), and
    requests the power fraction sized against the mean leaked interference
    (with the leak resummed to respect its physical bound).  For moments of
    i.i.d. error (``moments.iid_drift`` set) that combiner is a known
    multiple of u_1, built in closed form as the sweep engine builds it
    (:func:`robust_tdd`), so the two give the same numbers bit for bit; for
    a full error covariance it is whitened by an eigendecomposition
    (:func:`whitened_tdd`).  The transmitter keeps its own estimated
    directions but applies the requested fraction.  The reported SINR is
    evaluated against the actual transmission through the true channel, so
    it fluctuates around the request; the average shortfall grows with the
    error power because the beam's misalignment is deliberately not chased
    with extra data power.  A misshapen error sample or a non-finite
    estimate is refused (DimensionError, ParameterError).
    """
    est = chan.h_ba.entries + matching(err_sample, chan.h_ba, "err_sample")
    tilde = estimate_basis(finite(est, "H + err_sample"))
    beam, report, _, _, _ = _tdd_trial(chan, svd, moments, tilde, target_sinr)
    return beam, report
