"""Receiver-side defenses against a transmitter acting on stale channel data.

The transmitter's estimate H + dH misplaces the data direction and the
interference subspace, so the intended receiver is partly jammed.  Two
recovery modes are modeled, differing in what the receiver knows:

* ``fdd``: the receiver knows the exact estimate the transmitter used (it
  reported the estimate itself), so it knows the transmitted direction and
  interference and whitens the leaked interference it actually receives, a
  rank-one downdate of its own Gram matrix, in closed form from its SVD.
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
estimated directions.  ``fdd`` inverts its closed-form output-SINR curve by
a Newton descent from above (:func:`solve_fractions`); ``tdd`` sizes the
fraction in closed form.  Reported SINRs are always evaluated against the
transmission that actually happened, through the true channel.
"""
from __future__ import annotations

import numpy as np

from .channels import Basis, ChannelSet, SvdStack, estimate_basis, finite, matching, nonzero
from .channels import partition_svd
from .perturbation import PerturbMoments, self_drift
from .stacked import herm, matvec, outer, pairs
from .transmit import Design, RxBeamformer, SinrReport, artificial_noise, check_target
from .transmit import noise_beta, noise_share, trial_report

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
    """Smallest rho in (0, 1] at which the exact-knowledge receiver's SINR
    g(rho) meets the target, elementwise.

    ``lam`` (..., na) holds Bob's squared singular values, zero past his
    antenna count, and ``weights`` (..., na) the squared overlaps
    c_k = |v_k^H t|^2 of the unit data direction t with his right singular
    vectors; ``target_sinr`` broadcasts against their leading axes.  With
    D_k = a_k (1 - rho) + sigma^2 and a_k = lam_k P / (na - 1) (0 if na = 1),
    g(rho) = rho P m / sigma^2 for the mean m = sum_k w_k lam_k at the
    weights w_k = (c_k / D_k) / sum_j (c_j / D_j) (:func:`robust_fdd`).  An
    entry gets (1.0, outage) when g(1) = P ||H t||^2 / sigma^2 falls short,
    and ``_RHO_FLOOR`` when the crossing lies below it.

    Every other entry is solved by Newton's method from above.  g / (rho P)
    sums terms 1 / (b_i (1 - rho) + sigma^2) over the interference's
    eigenpairs, so g is convex and the start min(1, target / g'(0)) is not
    below the crossing; and sigma^2 / (P m), their parallel sum, is concave
    in x = 1 - rho, as is G(x) = tau / m + x - 1, tau = target sigma^2 / P,
    zero at the crossing.  Newton's steps on G never pass it, and land on
    it where one term dominates, where g's tangent, steep next to rho = 1,
    would not move.  With q = tau / m, e = m' / m and dm/drho =
    m' = sum_{i<j} w_i w_j (lam_i - lam_j)^2 sigma^2 P / ((na - 1) D_i D_j),
    the step is q (1 + rho e) / (1 + q e): nonnegative terms, normalized
    first so they stay in double range at the bounds a config accepts.  An
    entry settles once its step moves it by at most ``_SETTLED_ULPS`` ulps,
    within an ulp or so of the crossing, and retires: later steps compute
    the moving entries alone, and a batch with none (empty, or all in
    outage) returns at once.  An entry's iterates depend on it alone, so a
    batch gives each entry's value bit for bit.  Returns (rho, outage).
    """
    check_target(target_sinr)
    outage = power_p * np.add.reduce(weights * lam, axis=-1) / sigma_sq < target_sinr
    shape, live = np.shape(outage), ~outage
    # Every entry's fraction, flat, and the entries still moving by their index into it.
    rho, index = np.ones(outage.size), np.flatnonzero(live)
    if not index.size:
        return rho.reshape(shape), outage
    ratio = noise_share(0.0, power_p, na) / sigma_sq
    # The moving entries' lam, weights and alpha = lam ratio, (3, moving, na).
    rows = np.empty((3,) + shape + lam.shape[-1:])
    rows[0], rows[1], rows[2] = lam, weights, lam * ratio
    rows = rows[:, live]
    level = (np.zeros(shape) + target_sinr)[live] * (sigma_sq / power_p)
    i, j = pairs(na)
    gap = (rows[0].take(i, axis=-1) - rows[0].take(j, axis=-1)) ** 2

    def shares(root):
        # (w, u, m) at rho = root over u = sigma^2 / D <= 1.
        lam, weights, alpha = rows
        u = 1.0 / (1.0 + (1.0 - root)[:, None] * alpha)
        share = weights * u
        share /= np.add.reduce(share, axis=-1)[:, None]
        return share, u, np.einsum("rk,rk->r", share, lam)

    root = np.minimum(1.0, level / shares(np.zeros(level.shape))[2])
    for _ in range(_MAXITER):
        # m': in a pair's term ratio scales u_i (lam_i >= lam_j), as small as 1 / ratio, before w_i.
        share, u, mean = shares(root)
        lead, trail = share * (u * ratio), share * u
        slope = np.einsum("rk,rk->r", lead.take(i, axis=-1) * gap, trail.take(j, axis=-1))
        fixed, rise = level / mean, slope / mean
        root, last = np.minimum(root, fixed * (1.0 + root * rise) / (1.0 + fixed * rise)), root
        settled = last - root <= _SETTLED_ULPS * np.spacing(last)
        done = np.count_nonzero(settled)
        if done == len(root):
            rho[index] = root
            return np.maximum(rho, _RHO_FLOOR).reshape(shape), outage
        if done:  # the settled write their roots and retire
            rho[index[settled]] = root[settled]
            moving = ~settled
            rows, gap, level = rows[:, moving], gap[moving], level[moving]
            index, root = index[moving], root[moving]
    raise RuntimeError(f"Failed to converge after {_MAXITER} iterations")


def whitened_combiner(evecs, lam, signature, beta, sigma_sq):
    """(beta * A + sigma^2 I)^-1 signature via the eigendecomposition
    A = U diag(lam) U^H, with U = ``evecs``.

    Works over leading batch axes; ``beta`` and ``sigma_sq`` may be scalars
    or arrays over those axes.  The statistical receiver off the i.i.d.
    error model whitens the interference it expects with it.
    """
    proj = matvec(herm(evecs), signature)
    scale = np.asarray(beta)[..., None] * lam + np.asarray(sigma_sq)[..., None]
    return matvec(evecs, proj / scale)


def robust_fdd(svd: SvdStack, t, target_sinr, power_p: float, sigma_b_sq: float):
    """Exact-knowledge recovery designs (one :class:`Design`) over the batch
    axes of Bob's true-channel SVDs ``svd`` = (U, s, V), of the data
    directions ``t`` (..., na) of the estimates and of ``target_sinr``.

    Knowing ``t``, he whitens A = H (I - t t^H) H^H = H H^H - (H t)(H t)^H,
    a rank-one downdate of his Gram matrix.  By Sherman-Morrison (Golub,
    SIAM Review 15(2), 1973), with c_k = |v_k^H t|^2 and D_k = beta s_k^2 +
    sigma_b^2 (s_k = 0 past nb), his SINR is rho P sum_k c_k s_k^2 / D_k /
    (sigma_b^2 sum_k c_k / D_k) at the combiner U diag(s_k (v_k^H t) / D_k),
    a positive multiple of (beta A + sigma_b^2 I)^-1 H t, with no
    eigendecomposition; :func:`solve_fractions` lands it on the target.
    Designed through an estimate instead, whose own basis has c_k = 1 at
    its dominant direction and 0 elsewhere, this is the naive design on it.
    """
    na, nb = t.shape[-1], svd.s.shape[-1]
    proj = matvec(herm(svd.v), t)
    lam = np.zeros(svd.s.shape[:-1] + (na,))
    lam[..., :nb] = svd.s * svd.s
    rho, outage = solve_fractions(lam, abs(proj) ** 2, power_p, na, sigma_b_sq, target_sinr)
    share = noise_share(rho, power_p, na)
    gain = svd.s * proj[..., :nb] / (share[..., None] * lam[..., :nb] + sigma_b_sq)
    return Design(t=t, rho=rho, beta=noise_beta(rho, power_p, na), w_b=matvec(svd.u, gain),
                  outage=outage)


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


def _fdd_trial(chan: ChannelSet, tilde: Basis,
               target_sinr: float) -> tuple[RxBeamformer, SinrReport, Design]:
    """(Bob's combiner, report, design) of the batch of one of
    :func:`robust_fdd` from ``partition_svd`` of ``chan.h_ba`` and
    ``tilde``, the estimate's ``estimate_basis``."""
    d = robust_fdd(partition_svd(chan.h_ba), tilde.v1[None], target_sinr, chan.power_p,
                   chan.sigma_b_sq)
    return RxBeamformer(w=d.w_b[0], kind="robust_fdd"), trial_report(chan, d)[0], d


def fdd_receiver(chan: ChannelSet, h_tilde, target_sinr: float, *,
                 propagate_through_estimate: bool = False) -> tuple[RxBeamformer, SinrReport]:
    """Recovery when the receiver knows the transmitter's exact estimate.

    The receiver takes the transmit configuration from ``h_tilde``, whitens
    the interference it actually receives through the true channel, and
    requests the power fraction that lands the output SINR exactly on
    target (non-outage trials hit it to numerical precision): the batch of
    one of :func:`robust_fdd` on the SVD ``partition_svd`` caches for
    ``chan.h_ba``, which a rank-deficient channel fails
    (DegenerateChannelError).

    ``propagate_through_estimate=True`` designs through the estimate instead
    of the true channel, which is the naive design on it; the reported SINR
    stays physical either way.  A misshapen or non-finite estimate is
    refused (DimensionError, ParameterError), as is an all-zero one to
    propagate through, which no signal crosses, and the kernel checks the
    target.  No record but the two returned is built.
    """
    est = finite(matching(h_tilde, chan.h_ba, "h_tilde"), "h_tilde")
    if not propagate_through_estimate:
        return _fdd_trial(chan, estimate_basis(est), target_sinr)[:2]
    tilde = estimate_basis(nonzero(est, "h_tilde"))
    d = artificial_noise(tilde.sigma1[None], tilde.v1[None], est[None], tilde.v1[None],
                         target_sinr, chan.power_p, chan.sigma_b_sq)
    return RxBeamformer(w=d.w_b[0], kind="robust_fdd"), trial_report(chan, d)[0]


def _tdd_trial(chan: ChannelSet, svd: SvdStack, moments: PerturbMoments, tilde: Basis,
               target_sinr: float) -> tuple[RxBeamformer, SinrReport, Design]:
    """(Bob's combiner, report, design) of statistical recovery for one
    trial from the channel's decomposition ``svd`` and the estimate's
    ``estimate_basis`` ``tilde``: the batch of one of :func:`robust_tdd` for
    moments of i.i.d. error, else of :func:`whitened_tdd`."""
    svd = svd.single()
    args = (svd.sigma1[None], svd.u1[None], svd.v1[None], moments.e_dv1[None], tilde.v1[None],
            target_sinr, chan.power_p, chan.sigma_b_sq)
    d = (robust_tdd(*args) if moments.iid_drift is not None
         else whitened_tdd(chan.h_ba.entries[None], *args))
    return RxBeamformer(w=d.w_b[0], kind="robust_tdd"), trial_report(chan, d)[0], d


def tdd_receiver(chan: ChannelSet, svd: SvdStack, moments: PerturbMoments, err_sample: np.ndarray,
                 target_sinr: float) -> tuple[RxBeamformer, SinrReport]:
    """Recovery when the receiver knows the channel and error statistics.

    The receiver never sees the transmitter's estimate.  It whitens the
    expected interference-plus-noise covariance built from the mean beam
    drift, matches to the expected data signature H (v_1 + E{dv_1}), and
    requests the power fraction sized against the mean leaked interference.
    For moments of i.i.d. error (``moments.iid_drift`` set) it is the
    sweep engine's :func:`robust_tdd`, bit for bit; for a full error
    covariance, :func:`whitened_tdd`.  The reported SINR, evaluated through
    the true channel, fluctuates around the request, short on average by
    the beam's misalignment, which is deliberately not chased with extra
    data power.  A misshapen error sample or a non-finite estimate is
    refused (DimensionError, ParameterError), and the kernel checks the
    target.  No record but the two returned is built.
    """
    est = chan.h_ba.entries + matching(err_sample, chan.h_ba, "err_sample")
    tilde = estimate_basis(finite(est, "H + err_sample"))
    return _tdd_trial(chan, svd, moments, tilde, target_sinr)[:2]
