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
  the closed-form perturbation moments.  In the channel's left singular
  vectors that expected interference is an arrowhead matrix, so the
  whitened combiner is one Schur complement on its corner, in closed form
  for every error model; for i.i.d. error it is a multiple of the dominant
  left vector.

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
from .stacked import herm, matvec, pairs, vdot
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


def solve_fractions(lam, overlaps, power_p: float, na: int, sigma_sq: float, target_sinr):
    """Smallest rho in (0, 1] at which the exact-knowledge receiver's SINR
    g(rho) meets the target, elementwise.

    ``lam`` (..., na) holds Bob's squared singular values, zero past his
    antenna count, and ``overlaps`` (..., na) the squared overlaps
    c_k = |v_k^H t|^2 of the unit data direction t with his right singular
    vectors; ``target_sinr`` broadcasts against their leading axes.  With
    D_k = a_k (1 - rho) + sigma^2 and a_k = lam_k P / (na - 1) (0 if na = 1),
    g(rho) = rho P m / sigma^2 for the mean m = sum_k w_k lam_k at the
    shares w_k = (c_k / D_k) / sum_j (c_j / D_j) (:func:`robust_fdd`).  An
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
    outage = power_p * np.add.reduce(overlaps * lam, axis=-1) / sigma_sq < target_sinr
    shape, live = np.shape(outage), ~outage
    # Every entry's fraction, flat, and the entries still moving by their index into it.
    rho, index = np.ones(outage.size), np.flatnonzero(live)
    if not index.size:
        return rho.reshape(shape), outage
    ratio = noise_share(0.0, power_p, na) / sigma_sq
    # The moving entries' lam, overlaps and alpha = lam ratio, (3, moving, na).
    rows = np.empty((3,) + shape + lam.shape[-1:])
    rows[0], rows[1], rows[2] = lam, overlaps, lam * ratio
    rows = rows[:, live]
    level = (np.zeros(shape) + target_sinr)[live] * (sigma_sq / power_p)
    i, j = pairs(na)
    gap = (rows[0].take(i, axis=-1) - rows[0].take(j, axis=-1)) ** 2

    def shares(root):
        # (w, u, m) at rho = root over u = sigma^2 / D <= 1.
        lam, overlaps, alpha = rows
        u = 1.0 / (1.0 + (1.0 - root)[:, None] * alpha)
        share = overlaps * u
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


def loaded_noise(schur, trace, n: int, sigma_sq: float):
    """Noise level that keeps the expected covariance positive definite,
    elementwise, from its Schur complement ``schur`` on the corner and its
    ``trace`` over ``n`` coordinates (:func:`robust_tdd`).

    Off the i.i.d. error model the drift cross terms can make the expected
    covariance indefinite, exactly where ``schur`` <= 0; there sigma^2 grows
    by (1 + 1e-6)(-schur) plus ``_LOADING`` |trace| / n, which is enough,
    since the complement grows at least as fast as the noise level.  Returns
    (effective noise level, loaded flag).
    """
    loaded = schur <= 0.0
    delta = (1.0 + 1e-6) * (-schur) + _LOADING * np.abs(trace) / n
    return np.where(loaded, sigma_sq + delta, sigma_sq), loaded


def robust_tdd(u, s, drift, t, target_sinr, power_p: float, sigma_b_sq: float):
    """Statistics-only recovery designs (one :class:`Design`), over the
    batch axes of the inputs and of ``target_sinr``, which broadcast
    together, in closed form for any error model.

    The receiver knows his channel's first m left singular vectors ``u``
    (..., nb, m) and singular values ``s`` (..., m), and the mean drift of
    the transmitter's data direction by its coordinates ``drift`` (..., m),
    delta = V^H E{dv1}, on his first m right singular vectors (m = nb
    holds any drift: the rest lies in his channel's null space); not the
    direction ``t`` (..., na) taken from the estimate.  He requests the
    fraction :func:`tdd_fraction` sizes against the mean leak -2 Re delta_1
    and whitens the expected interference shape M to match the expected
    signature H (v1 + E{dv1}).

    In his left basis M is an arrowhead matrix: s_k^2 on the diagonal for
    k >= 2, -2 sigma1^2 Re delta_1 at the corner and -sigma1 conj(g_k)
    along the first row, with g_k = s_k delta_k; the signature is
    sigma1 e_1 + g.  So (beta M + sigma_b^2 I) x = b is solved by the Schur
    complement on the corner (O'Leary and Stewart, J. Comput. Phys. 90(2),
    1990): with d_k = beta s_k^2 + sigma_b^2 and W = sum_{k>=2} |g_k|^2 / d_k,

        S = beta (-2 Re delta_1) sigma1^2 + sigma_b^2 - (beta sigma1)^2 W,
        x_1 = ((1 + delta_1) sigma1 + beta sigma1 W) / S,
        x_k = g_k (1 + beta sigma1 x_1) / d_k,

    and w_b = U x, with no eigendecomposition.  The trailing block is
    diagonal and positive, so beta M + sigma_b^2 I is positive definite
    exactly where S > 0; elsewhere sigma_b^2 is loaded (:func:`loaded_noise`).
    For i.i.d. error E{dv1} = c v1 with c real and nonpositive, so m = 1
    holds it all: W is an empty sum, S >= sigma_b^2, and
    w_b = (1 + c) sigma1 / (beta (-2c) sigma1^2 + sigma_b^2) u1.
    """
    check_target(target_sinr)
    na, n = t.shape[-1], s.shape[-1]
    sigma1, lead = s[..., 0], drift[..., 0]
    lam1, leak = sigma1**2, -2.0 * np.real(lead)
    rho, outage = tdd_fraction(lam1, leak, target_sinr, power_p, sigma_b_sq, na)
    share = noise_share(rho, power_p, na)
    lift, trail = share * sigma1, s[..., 1:]
    g = trail * drift[..., 1:]

    def solve(noise):
        # (S, x_1, x_k) at the noise level ``noise``, the sum W as ``tail``.
        d = share[..., None] * trail**2 + np.asarray(noise)[..., None]
        tail = np.add.reduce(abs(g) ** 2 / d, axis=-1)
        schur = share * leak * lam1 + noise - lift**2 * tail
        x1 = ((1.0 + lead) * sigma1 + lift * tail) / schur
        return schur, x1, g * (1.0 + lift * x1)[..., None] / d

    schur, x1, xk = solve(sigma_b_sq)
    if (schur <= 0.0).any():  # indefinite somewhere: load there and solve again
        trace = share * (np.add.reduce(trail**2, axis=-1) + leak * lam1) + n * sigma_b_sq
        _, x1, xk = solve(loaded_noise(schur, trace, n, sigma_b_sq)[0])
    w_b = x1[..., None] * u[..., 0] + matvec(u[..., 1:], xk)
    return Design(t=t, rho=rho, beta=noise_beta(rho, power_p, na), w_b=w_b, outage=outage)


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
    ``estimate_basis`` ``tilde``: the batch of one of :func:`robust_tdd`, on
    Bob's dominant triplet alone for moments of i.i.d. error, whose drift
    lies along v1, else on his whole basis."""
    svd = svd.single()
    if moments.iid_drift is None:
        u, s, drift = svd.u[None], svd.s[None], vdot(svd.v.T[:chan.nb], moments.e_dv1)[None]
    else:
        u, s = svd.u[None, :, :1], svd.s[None, :1]
        drift = self_drift(svd.v1[None], moments.e_dv1[None])[..., None]
    d = robust_tdd(u, s, drift, tilde.v1[None], target_sinr, chan.power_p, chan.sigma_b_sq)
    return RxBeamformer(w=d.w_b[0], kind="robust_tdd"), trial_report(chan, d)[0], d


def tdd_receiver(chan: ChannelSet, svd: SvdStack, moments: PerturbMoments, err_sample: np.ndarray,
                 target_sinr: float) -> tuple[RxBeamformer, SinrReport]:
    """Recovery when the receiver knows the channel and error statistics.

    The receiver never sees the transmitter's estimate.  It whitens the
    expected interference-plus-noise covariance built from the mean beam
    drift, matches to the expected data signature H (v_1 + E{dv_1}), and
    requests the power fraction sized against the mean leaked interference:
    the batch of one of :func:`robust_tdd`, the sweep engine's kernel, bit
    for bit for moments of i.i.d. error.  The reported SINR, evaluated through
    the true channel, fluctuates around the request, short on average by
    the beam's misalignment, which is deliberately not chased with extra
    data power.  A misshapen error sample or a non-finite estimate is
    refused (DimensionError, ParameterError), and the kernel checks the
    target.  No record but the two returned is built.
    """
    est = chan.h_ba.entries + matching(err_sample, chan.h_ba, "err_sample")
    tilde = estimate_basis(finite(est, "H + err_sample"))
    return _tdd_trial(chan, svd, moments, tilde, target_sinr)[:2]
