"""Reference implementations the library's fast paths must agree with.

``_run_chunk`` is the per-trial reference loop for the batched sweep
engine: one trial, one point and one scheme at a time, returning the
engine's per-trial metric array.  It runs on the single-channel scheme
implementations the library had before its single-channel functions became
batches of one over the engine's kernels (``design_artificial_noise``,
``design_known_ecsi``, ``naive_trial``, ``fdd_trial``, ``tdd_trial``, Eve's
LU-solved combiner and ``link_sinr`` below), each written out for one
channel with its own covariance bookkeeping.  They design from each
estimate's SVD (``partition_svd``): its interference spans the SVD
complement T' of the data direction (``svd_complement``), and ``fdd_trial``
whitens the leak H T', rebuilt from the SVD (``reconstruct``) when it
propagates through the estimate; the library projects off t instead, from
one Gram ``eigh`` of the estimate it holds.  Its streams come from
``_rng``/``_seed``, numpy's own ``SeedSequence`` and ``default_rng`` per
trial, which the engine's vectorised seed derivation must reproduce.

``eve_aware_direction`` is the per-matrix ``scipy.linalg.eigh`` form of the
Eve-aware design direction (with ``scipy.linalg.null_space`` where both
Gram matrices are singular), and ``_reduce`` the per-(scheme, point) loop
that reduced per-trial metrics to series; the library's stacked versions
must reproduce them.  ``mmse_combiner`` is the eavesdropper's combiner by
scipy's Cholesky solve, ``eve_sinr`` her SINR at it summed over the
eigenpairs of her interference covariance, and ``solve_fraction`` the
power-fraction root by ``scipy.optimize.brentq`` at its tolerances
``_XTOL`` and ``_RTOL``; the library's spectral construction of Eve's
combiner must agree with the first, its Eve SINRs at any noise with the
second, and its Newton root solve with the third's outage flags and,
within those tolerances, its roots.

``fdd_spectrum`` and ``rank1_gains`` give the exact-knowledge receiver's
SINR curve from an ``eigh`` of the leak H - (H t) t^H, the route the
library's closed form over Bob's SVD replaced, and ``fdd_curve`` and
``fdd_gains`` that closed form written out directly; the library's root
solve must agree with brentq on the first within its tolerance plus the
``eigh`` route's own round-off, and on the second within its tolerance.

``tdd_combiner`` is the statistical receiver's combiner whitened by an
``eigh`` of the expected interference shape, with diagonal loading where it
is indefinite; the engine's closed form for i.i.d. error must agree with it
to round-off and never load.

``second_moment_tensor`` is the four-stage ``einsum`` contraction of a
full error covariance into the singular bases, against which the library's
two-matmul Kronecker form of the same tensor is checked.

``mc_moments`` is a brute-force Monte Carlo oracle for the closed-form
perturbation moments.  It deliberately avoids the library's own moment
formulas: draws are pushed through numpy's SVD and averaged, with antithetic
pairing (each error sample used with both signs) so odd-order fluctuations
cancel and the second-order means emerge at modest draw counts.  Perturbed
singular vectors are phase-aligned against their unperturbed counterparts
the same way the package aligns them: the inner product with the reference
is made real and positive.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from wiretap.channels import (
    ChannelMatrix,
    ChannelSet,
    CsiErrorModel,
    SvdStack,
    as_matrix,
    complex_gaussian,
    partition_svd,
    perturb_ecsi,
)
from wiretap.exceptions import (
    ConfigError,
    DegenerateChannelError,
    DimensionError,
    ValidityRangeError,
)
from wiretap.harness import (
    _NEEDS_ERROR,
    _TAG_CHANNEL,
    _TAG_ECSI,
    _TAG_ERROR,
    _TAG_EVE,
    METRICS,
    ExperimentConfig,
    _as_tuple,
)
from wiretap.perturbation import compute_moments, first_vector_leak, naive_sinr_terms
from wiretap.robust import (
    _MAXITER,
    _RHO_FLOOR,
    loaded_noise,
    tdd_fraction,
    tdd_shape,
    whitened_combiner,
)
from wiretap.transmit import (
    _RHO_CEIL,
    LinkSinr,
    SinrReport,
    full_secrecy_rates,
    noise_share,
    outage_fallback,
    required_rho,
    secrecy_capacity_proxy,
    secure_goodput,
)
from wiretap.units import from_db, to_db


@dataclass(frozen=True)
class McMoments:
    """Monte Carlo estimates mirroring the PerturbMoments fields."""

    d: np.ndarray
    g: np.ndarray
    g_prime: np.ndarray
    g_dprime: np.ndarray
    k: np.ndarray
    e_dv_s: np.ndarray
    e_vs_dvs: np.ndarray
    e_dsigma1: float
    e_dsigma1_sq: float
    e_dv1: np.ndarray
    e_dv1_outer: np.ndarray


def _align_to(ref: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Rotate each row of ``rows`` so its inner product with ref is >= 0."""
    ip = rows @ ref.conj()
    phase = np.ones_like(ip)
    nz = ip != 0
    phase[nz] = np.abs(ip[nz]) / ip[nz]
    return rows * phase[:, None]


def _rows_sandwich(dh: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Sum over the chunk of dH @ weight @ dH^H."""
    y = dh @ weight
    return np.einsum("cik,clk->il", y, dh.conj())


def _cols_sandwich(dh: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Sum over the chunk of dH^H @ weight @ dH."""
    y = np.einsum("ab,cbq->caq", weight, dh)
    return np.einsum("cap,caq->pq", dh.conj(), y)


def second_moment_tensor(svd: SvdStack, cov: np.ndarray) -> np.ndarray:
    """M[i, j, k, l] = E{(u_i^H dH v_j) (u_k^H dH v_l)^*} for the covariance
    ``cov`` of the column-stacked error, one basis change per index."""
    u, v = svd.u, svd.v
    t = cov.reshape((len(u), len(v), len(u), len(v)), order="F")
    stage = np.einsum("ai,apbq->ipbq", u.conj(), t)
    stage = np.einsum("pj,ipbq->ijbq", v, stage)
    stage = np.einsum("bk,ijbq->ijkq", u, stage)
    return np.einsum("ql,ijkq->ijkl", v.conj(), stage)


def mc_moments(
    svd: SvdStack, sigma_h_sq: float, pairs: int, seed, chunk: int = 20000
) -> McMoments:
    """Estimate every perturbation moment by simulation.

    ``pairs`` antithetic error draws (so 2 * pairs decompositions) of an
    i.i.d. circular complex error with per-entry variance ``sigma_h_sq``.
    """
    h = reconstruct(svd)
    m, n = h.shape
    f = m
    rng = np.random.default_rng(seed)
    scale = np.sqrt(sigma_h_sq / 2.0)

    lam = svd.s**2
    d_ref = 1.0 / (lam[: f - 1] - lam[f - 1])
    # The strong block (U_s, V_s) and the weakest right vector v_f.
    u_s, v_s, v_f = svd.u[:, : f - 1], svd.v[:, : f - 1], svd.v[:, f - 1]

    sum_g = np.zeros((m, m), dtype=np.complex128)
    sum_gp = np.zeros((m, m), dtype=np.complex128)
    sum_gdp = np.zeros((n, n), dtype=np.complex128)
    sum_k = np.zeros((m, m), dtype=np.complex128)
    sum_dv_s = np.zeros((n, max(f - 1, 0)), dtype=np.complex128)
    sum_dv1 = np.zeros(n, dtype=np.complex128)
    sum_dv1_outer = np.zeros((n, n), dtype=np.complex128)
    sum_ds = 0.0
    sum_ds_sq = 0.0

    # Weights for the sandwich moments, fixed by the unperturbed channel.
    w_vf = np.outer(v_f, v_f.conj())
    w_vd = v_s @ np.diag(d_ref) @ v_s.conj().T
    w_ud = u_s @ np.diag(d_ref) @ u_s.conj().T
    w_vs = v_s @ v_s.conj().T

    done = 0
    while done < pairs:
        b = min(chunk, pairs - done)
        dh = scale * (
            rng.standard_normal((b, m, n)) + 1j * rng.standard_normal((b, m, n))
        )

        sum_g += _rows_sandwich(dh, w_vf)
        sum_gp += _rows_sandwich(dh, w_vd)
        sum_gdp += _cols_sandwich(dh, w_ud)
        sum_k += _rows_sandwich(dh, w_vs)

        stacked = np.concatenate([h[None] + dh, h[None] - dh], axis=0)
        _, svals, vh = np.linalg.svd(stacked, full_matrices=False)
        dsig = svals[:, 0] - svd.sigma1
        sum_ds += float(0.5 * np.sum(dsig[:b] + dsig[b:]))
        sum_ds_sq += float(0.5 * np.sum(dsig[:b] ** 2 + dsig[b:] ** 2))

        # The dominant right vector exists for every shape, even when the
        # strong set (every nonweakest vector) is empty.
        vt1 = _align_to(svd.v1, vh[:, 0, :].conj())
        dv1 = vt1 - svd.v1
        dv1_pair = 0.5 * (dv1[:b] + dv1[b:])
        sum_dv1 += dv1_pair.sum(axis=0)
        sum_dv1_outer += 0.5 * (
            np.einsum("ci,cj->ij", dv1[:b], dv1[:b].conj())
            + np.einsum("ci,cj->ij", dv1[b:], dv1[b:].conj())
        )
        if f > 1:
            sum_dv_s[:, 0] += dv1_pair.sum(axis=0)
        for j in range(1, f - 1):
            ref = v_s[:, j]
            vt = _align_to(ref, vh[:, j, :].conj())
            dv = vt - ref
            sum_dv_s[:, j] += 0.5 * (dv[:b] + dv[b:]).sum(axis=0)
        done += b

    inv_p = 1.0 / pairs
    e_dv_s = sum_dv_s * inv_p
    return McMoments(
        d=d_ref,
        g=sum_g * inv_p,
        g_prime=sum_gp * inv_p,
        g_dprime=sum_gdp * inv_p,
        k=sum_k * inv_p,
        e_dv_s=e_dv_s,
        e_vs_dvs=v_s.conj().T @ e_dv_s,
        e_dsigma1=sum_ds * inv_p,
        e_dsigma1_sq=sum_ds_sq * inv_p,
        e_dv1=sum_dv1 * inv_p,
        e_dv1_outer=sum_dv1_outer * inv_p,
    )


def field_agreement(closed, mc, rel: float = 0.10, abs_tol: float = 1e-4):
    """Worst-agreeing moment field as a (name, miss, allowance, ratio) tuple.

    A field agrees when the elementwise worst deviation is within ``rel`` of
    the oracle's scale or below ``abs_tol`` outright; ratio <= 1 passes.
    """
    worst = None
    for name in (
        "d", "g", "g_prime", "g_dprime", "k", "e_dv_s", "e_vs_dvs",
        "e_dsigma1", "e_dsigma1_sq", "e_dv1", "e_dv1_outer",
    ):
        a = np.atleast_1d(np.asarray(getattr(closed, name)))
        b = np.atleast_1d(np.asarray(getattr(mc, name)))
        if a.size == 0:
            continue
        miss = float(np.max(np.abs(a - b)))
        allowance = max(rel * float(np.max(np.abs(b))), abs_tol)
        ratio = miss / allowance
        if worst is None or ratio > worst[3]:
            worst = (name, miss, allowance, ratio)
    return worst


# ------------------------------------------------------------ per-trial sweep loop


def _seed(cfg: ExperimentConfig, tag: int, trial: int, point: int | None = None):
    entropy = [cfg.master_seed, tag, trial]
    if point is not None:
        entropy.append(point)
    return np.random.SeedSequence(entropy)


def _rng(cfg: ExperimentConfig, tag: int, trial: int, point: int | None = None):
    return np.random.default_rng(_seed(cfg, tag, trial, point))


def _point_values(cfg: ExperimentConfig, axis_name: str, value):
    ne = value if axis_name == "ne" else cfg.ne
    target_db = value if axis_name == "target_sinr_db" else cfg.target_sinr_db
    sigma_db = value if axis_name == "sigma_h_db" else cfg.sigma_h_db
    return int(ne), float(target_db), None if sigma_db is None else float(sigma_db)


def _secrecy(cfg: ExperimentConfig, chan: ChannelSet, scheme, report) -> float:
    """Per-trial secrecy under the configured metric.

    "goodput" pays the provisioned secret rate only on trials where the
    intended link actually reaches its target SINR, so schemes are compared
    on secrecy they reliably deliver rather than on lucky fades; "proxy" is
    the instantaneous clamped rate difference at the beamformer outputs;
    "full" is the matrix mutual-information rate of the transmitted
    covariance.
    """
    if cfg.secrecy_metric == "full":
        return secrecy_capacity_full(chan, scheme)
    if cfg.secrecy_metric == "goodput":
        return secure_goodput(report.sinr_b, report.sinr_e, scheme.target_sinr)
    return report.secrecy_capacity


def _run_chunk(cfg: ExperimentConfig, lo: int, hi: int) -> np.ndarray:
    """Metrics for trials [lo, hi): shape (points, schemes, metrics, trials)."""
    axis_name, axis_values = cfg.axis()
    n_points = len(axis_values)
    n_schemes = len(cfg.schemes)
    out = np.full((n_points, n_schemes, len(METRICS), hi - lo), np.nan)

    power_p = cfg.power_p
    needs_error = bool(_NEEDS_ERROR.intersection(cfg.schemes))
    needs_moments = bool({"robust_tdd", "analytic_naive"}.intersection(cfg.schemes))
    eve_per_point = axis_name == "ne"

    for idx, trial in enumerate(range(lo, hi)):
        h_ba = ChannelMatrix(
            complex_gaussian(_rng(cfg, _TAG_CHANNEL, trial), cfg.nb, cfg.na)
        )
        svd = partition_svd(h_ba)
        dh_unit = None
        if needs_error:
            dh_unit = complex_gaussian(_rng(cfg, _TAG_ERROR, trial), cfg.nb, cfg.na)
        moments_unit = None
        if needs_moments:
            moments_unit = compute_moments(svd, CsiErrorModel.iid(1.0))

        h_ea_fixed = None
        ecsi_fixed = None
        if not eve_per_point:
            h_ea_fixed = ChannelMatrix(
                complex_gaussian(_rng(cfg, _TAG_EVE, trial), _as_tuple(cfg.ne)[0], cfg.na)
            )
            if "imperfect_ecsi" in cfg.schemes:
                ecsi_fixed = perturb_ecsi(
                    h_ea_fixed, cfg.gamma_ecsi, _seed(cfg, _TAG_ECSI, trial)
                )

        for p, axis_value in enumerate(axis_values):
            ne, target_db, sigma_db = _point_values(cfg, axis_name, axis_value)
            target = float(from_db(target_db))
            if eve_per_point:
                h_ea = ChannelMatrix(
                    complex_gaussian(_rng(cfg, _TAG_EVE, trial, p), ne, cfg.na)
                )
            else:
                h_ea = h_ea_fixed
            chan = ChannelSet(
                h_ba=h_ba, h_ea=h_ea, sigma_b_sq=cfg.sigma_b_sq,
                sigma_e_sq=cfg.sigma_e_sq, power_p=power_p,
            )

            part_tilde = None
            moments = None
            if needs_error and sigma_db is not None:
                sigma_sq = float(from_db(sigma_db))
                dh = np.sqrt(sigma_sq) * dh_unit
                part_tilde = partition_svd(h_ba.entries + dh)
                if needs_moments:
                    moments = moments_unit.scaled(sigma_sq)

            for s, scheme_name in enumerate(cfg.schemes):
                out[p, s, :, idx] = _one_scheme(
                    cfg, scheme_name, chan, svd, target, part_tilde, moments, trial, p,
                    ecsi_fixed,
                )
    return out


def _one_scheme(
    cfg: ExperimentConfig,
    name: str,
    chan: ChannelSet,
    svd: SvdStack,
    target: float,
    part_tilde,
    moments,
    trial: int,
    point: int,
    ecsi_fixed,
) -> np.ndarray:
    row = np.full(len(METRICS), np.nan)

    if name == "analytic_naive":
        try:
            num, den = naive_sinr_terms(svd, moments, chan, target)
        except ValidityRangeError:
            row[8] = 1.0
            return row
        row[4], row[5] = num, den
        if num > 0.0 and den > 0.0:
            row[0] = num / den
            row[8] = 0.0
        else:
            row[8] = 1.0
        return row

    if name == "perfect":
        scheme = design_artificial_noise(chan, svd, target)
        w_b = chan.h_ba.entries @ scheme.t
    elif name == "known_ecsi":
        scheme = design_known_ecsi(chan, chan.h_ea, target)
        w_b = chan.h_ba.entries @ scheme.t
    elif name == "imperfect_ecsi":
        assumed = (
            ecsi_fixed
            if ecsi_fixed is not None
            else perturb_ecsi(chan.h_ea, cfg.gamma_ecsi, _seed(cfg, _TAG_ECSI, trial, point))
        )
        scheme = design_known_ecsi(chan, assumed, target)
        w_b = chan.h_ba.entries @ scheme.t
    elif name == "naive":
        report, bob, eve, scheme = naive_trial(chan, svd, part_tilde, target)
        return _fill(row, cfg, chan, scheme, report, bob, eve)
    elif name == "robust_fdd":
        report, bob, eve, scheme = fdd_trial(
            chan, part_tilde, target, cfg.propagate_through_estimate
        )
        return _fill(row, cfg, chan, scheme, report, bob, eve)
    elif name == "robust_tdd":
        report, bob, eve, scheme, loaded = tdd_trial(chan, svd, moments, part_tilde, target)
        return _fill(row, cfg, chan, scheme, report, bob, eve, flagged=loaded)
    else:  # pragma: no cover - validate() already refused unknown names
        raise ConfigError(f"unknown scheme {name!r}")

    report, bob, eve = evaluate_links(chan, scheme, w_b, eve_mmse_beamformer(chan, scheme))
    return _fill(row, cfg, chan, scheme, report, bob, eve)


def _fill(row, cfg, chan, scheme, report, bob, eve, flagged: bool = False) -> np.ndarray:
    row[:] = (
        report.sinr_b, report.sinr_e, _secrecy(cfg, chan, scheme, report),
        float(report.outage), bob.signal_power, bob.interference_plus_noise,
        eve.signal_power, eve.interference_plus_noise, float(flagged),
    )
    return row


# ------------------------------------------- single-channel scheme implementations


@dataclass(frozen=True)
class Scheme:
    """One channel's transmit configuration: direction, data fraction, the
    interference covariance ``q_z`` and its factor (None when zero)."""

    t: np.ndarray
    rho: float
    q_z: np.ndarray
    power_p: float
    target_sinr: float
    outage: bool = False
    q_z_factor: np.ndarray | None = None

    @property
    def data_power(self) -> float:
        return self.rho * self.power_p


def interference_factor(t: np.ndarray, beta) -> np.ndarray:
    """The factor sqrt(beta) T' of a design's interference beta (I - t t^H),
    T' an orthonormal basis (na x (na - 1)) of the directions orthogonal to
    ``t`` from an SVD of t^H; no columns where ``beta`` is None."""
    if beta is None:
        return np.zeros((t.size, 0), dtype=np.complex128)
    return np.sqrt(beta) * np.linalg.svd(t.conj()[None])[2][1:].conj().T


def factor_form_interference(h: np.ndarray, factor: np.ndarray, w: np.ndarray) -> float:
    """||F^H H^H w||^2 at the unit-norm ``w``: the interference of the
    factor form, amplitudes first, as designs evaluated it when they stored
    their factor F = sqrt(beta) T'."""
    amps = factor.conj().T @ (h.conj().T @ (w / np.linalg.norm(w)))
    return float(np.real(np.vdot(amps, amps)))


def noise_covariance_for(t_prime: np.ndarray, rho: float, power_p: float) -> np.ndarray:
    """Isotropic interference covariance over the columns of ``t_prime``."""
    na = t_prime.shape[0]
    if na == 1 or rho >= _RHO_CEIL:
        return np.zeros((na, na), dtype=np.complex128)
    return noise_share(rho, power_p, na) * (t_prime @ t_prime.conj().T)


def noise_factor_for(t_prime: np.ndarray, rho: float, power_p: float):
    """Factor of :func:`noise_covariance_for`; None for a zero covariance."""
    na = t_prime.shape[0]
    if na == 1 or rho >= _RHO_CEIL:
        return None
    return np.sqrt(noise_share(rho, power_p, na)) * t_prime


def svd_complement(svd: SvdStack) -> np.ndarray:
    """The right singular vectors of ``svd`` orthogonal to ``svd.v1``."""
    return svd.v[..., 1:]


def reconstruct(svd: SvdStack) -> np.ndarray:
    """The channels ``svd`` decomposes, U diag(s) V[..., :m]^H."""
    m = svd.s.shape[-1]
    return (svd.u * svd.s[..., None, :]) @ svd.v[..., :m].conj().swapaxes(-1, -2)


def design_artificial_noise(chan: ChannelSet, svd: SvdStack, target_sinr: float) -> Scheme:
    rho, outage = outage_fallback(
        required_rho(svd.sigma1, target_sinr, chan.power_p, chan.sigma_b_sq)
    )
    rho, outage = float(rho), bool(outage)
    return Scheme(
        t=svd.v1, rho=rho, q_z=noise_covariance_for(svd_complement(svd), rho, chan.power_p),
        power_p=chan.power_p, target_sinr=target_sinr, outage=outage,
        q_z_factor=noise_factor_for(svd_complement(svd), rho, chan.power_p),
    )


def design_known_ecsi(chan: ChannelSet, h_ea_assumed, target_sinr: float) -> Scheme:
    hb = chan.h_ba.entries
    t = eve_aware_direction(hb, as_matrix(h_ea_assumed))
    na = hb.shape[1]
    gain = float(np.real(np.vdot(t, (hb.conj().T @ hb) @ t)))
    if gain <= 0:
        raise DegenerateChannelError("data direction has zero gain to the intended receiver")
    rho, outage = outage_fallback(chan.sigma_b_sq * target_sinr / (chan.power_p * gain))
    return Scheme(t=t, rho=float(rho), q_z=np.zeros((na, na), dtype=np.complex128),
                  power_p=chan.power_p, target_sinr=target_sinr, outage=bool(outage))


def eve_mmse_beamformer(chan: ChannelSet, scheme: Scheme) -> np.ndarray:
    """Eve's max-SINR combiner by an LU solve; the first unit vector stands
    in for an all-zero solution."""
    h = chan.h_ea.entries
    cov = h @ scheme.q_z @ h.conj().T + chan.sigma_e_sq * np.eye(h.shape[0])
    w = np.linalg.solve(cov, h @ scheme.t)
    return w if w.any() else np.eye(w.size)[0]


def link_sinr(h: np.ndarray, scheme: Scheme, w: np.ndarray, sigma_sq: float) -> LinkSinr:
    """SINR and powers at the unit-norm combiner, interference through the
    factor (amplitudes first) when there is one."""
    w = w / np.linalg.norm(w)
    sig = scheme.data_power * abs(np.vdot(w, h @ scheme.t)) ** 2
    noise = sigma_sq * float(np.real(np.vdot(w, w)))
    if scheme.q_z_factor is not None:
        amps = scheme.q_z_factor.conj().T @ (h.conj().T @ w)
        interf = float(np.real(np.vdot(amps, amps)))
    else:
        interf = max(float(np.real(np.vdot(w, h @ scheme.q_z @ h.conj().T @ w))), 0.0)
    return LinkSinr(sinr=float(sig) / (interf + noise), signal_power=float(sig),
                    interference_power=interf, noise_power=noise)


def evaluate_links(chan: ChannelSet, scheme: Scheme, w_b, w_e):
    bob = link_sinr(chan.h_ba.entries, scheme, w_b, chan.sigma_b_sq)
    eve = link_sinr(chan.h_ea.entries, scheme, w_e, chan.sigma_e_sq)
    report = SinrReport(sinr_b=bob.sinr, sinr_e=eve.sinr,
                        secrecy_capacity=secrecy_capacity_proxy(bob.sinr, eve.sinr),
                        outage=scheme.outage)
    return report, bob, eve


def secrecy_capacity_full(chan: ChannelSet, scheme: Scheme) -> float:
    return float(full_secrecy_rates(
        chan.h_ba.entries, chan.h_ea.entries, scheme.t, scheme.data_power, scheme.q_z,
        chan.sigma_b_sq, chan.sigma_e_sq,
    ))


def naive_trial(chan: ChannelSet, svd: SvdStack, part_tilde: SvdStack, target_sinr):
    """Design from the estimate, Bob matched to the true channel."""
    scheme = design_artificial_noise(chan, part_tilde, target_sinr)
    w_b = chan.h_ba.entries @ svd.v1
    report, bob, eve = evaluate_links(chan, scheme, w_b, eve_mmse_beamformer(chan, scheme))
    return report, bob, eve, scheme


def _transmitted(chan: ChannelSet, part_tilde: SvdStack, rho: float, target_sinr: float,
                 outage: bool) -> Scheme:
    """The estimate's directions at the requested fraction."""
    t_prime = svd_complement(part_tilde)
    return Scheme(
        t=part_tilde.v1, rho=rho, q_z=noise_covariance_for(t_prime, rho, chan.power_p),
        power_p=chan.power_p, target_sinr=target_sinr, outage=outage,
        q_z_factor=noise_factor_for(t_prime, rho, chan.power_p),
    )


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


def fdd_spectrum(h, t):
    """What the exact-knowledge receiver whitens, over leading batch axes,
    by an ``eigh`` of the leak: (lam, evecs, signature, weights), the
    eigenvalues (clipped at zero) and eigenvectors of the leaked
    interference covariance per unit interference power
    H (I - t t^H) H^H = L L^H, L = H - (H t) t^H, the data signature H t,
    and its squared projections on the eigenvectors."""
    signature = h @ t[..., None]
    leak = h - signature * t.conj()[..., None, :]
    lam, evecs = np.linalg.eigh(leak @ leak.conj().swapaxes(-1, -2))
    lam = np.clip(lam, 0.0, None)
    weights = np.abs(evecs.conj().swapaxes(-1, -2) @ signature)[..., 0] ** 2
    return lam, evecs, signature[..., 0], weights


def fdd_curve(svd: SvdStack, t):
    """(lam, weights) of the exact-knowledge receiver's closed form for
    Bob's decompositions ``svd`` and data directions ``t`` (..., na): his
    squared singular values padded with zeros to na, and the squared
    overlaps |v_k^H t|^2."""
    na, nb = t.shape[-1], svd.s.shape[-1]
    lam = np.zeros(svd.s.shape[:-1] + (na,))
    lam[..., :nb] = svd.s**2
    return lam, np.abs(svd.v.conj().swapaxes(-1, -2) @ t[..., None])[..., 0] ** 2


def fdd_gains(rho, lam, weights, power_p: float, na: int, sigma_sq: float):
    """The exact-knowledge receiver's SINR in Sherman-Morrison's form,
    rho P N / (sigma^2 R) with N = sum weights lam / D and R = sum weights / D
    for D = beta(rho) lam + sigma^2, written out directly."""
    beta = noise_share(rho, power_p, na)
    if isinstance(beta, np.ndarray):
        beta = beta[..., None]
    scale = beta * lam + sigma_sq
    ratio = np.sum(weights * lam / scale, axis=-1) / np.sum(weights / scale, axis=-1)
    return rho * (power_p / sigma_sq) * ratio


def fdd_trial(chan: ChannelSet, part_tilde: SvdStack, target_sinr: float,
              propagate_through_estimate: bool = False):
    """The exact-knowledge receiver whitening the leak H T' of the
    interference over the estimate's SVD complement T' of its data
    direction, propagated through the estimate rebuilt from its SVD or
    through the true channel."""
    h_design = reconstruct(part_tilde) if propagate_through_estimate else chan.h_ba.entries
    leak = h_design @ svd_complement(part_tilde)
    lam, evecs = np.linalg.eigh(leak @ leak.conj().T)
    lam = np.clip(lam, 0.0, None)
    signature = h_design @ part_tilde.v1
    weights = np.abs(evecs.conj().T @ signature) ** 2
    rho, outage = solve_fraction(
        lambda r: float(rank1_gains(r, lam, weights, chan.power_p, chan.na, chan.sigma_b_sq)),
        target_sinr,
    )
    scheme = _transmitted(chan, part_tilde, rho, target_sinr, outage)
    beta = noise_share(rho, chan.power_p, chan.na)
    w = whitened_combiner(evecs, lam, signature, beta, chan.sigma_b_sq)
    report, bob, eve = evaluate_links(chan, scheme, w, eve_mmse_beamformer(chan, scheme))
    return report, bob, eve, scheme


def tdd_combiner(h: np.ndarray, sigma1: float, u1: np.ndarray, v1: np.ndarray,
                 e_dv1: np.ndarray, beta: float, sigma_b_sq: float):
    """The statistical receiver's combiner for one channel, whitened by an
    ``eigh`` of the expected interference shape and loaded where that is
    indefinite: (combiner, loaded)."""
    lam, evecs = np.linalg.eigh(tdd_shape(h, sigma1, u1, e_dv1))
    sigma_eff, loaded = loaded_noise(beta, lam, sigma_b_sq)
    w = whitened_combiner(evecs, lam, h @ (v1 + e_dv1), beta, float(sigma_eff))
    return w, bool(loaded)


def tdd_trial(chan: ChannelSet, svd: SvdStack, moments, part_tilde: SvdStack,
              target_sinr: float):
    """Returns (report, Bob's link, Eve's link, scheme, loaded)."""
    rho, outage = tdd_fraction(
        svd.sigma1**2, first_vector_leak(svd, moments), target_sinr,
        chan.power_p, chan.sigma_b_sq, chan.na,
    )
    rho, outage = float(rho), bool(outage)
    beta = noise_share(rho, chan.power_p, chan.na)
    w, loaded = tdd_combiner(chan.h_ba.entries, svd.sigma1, svd.u1, svd.v1, moments.e_dv1, beta,
                             chan.sigma_b_sq)
    scheme = _transmitted(chan, part_tilde, rho, target_sinr, outage)
    report, bob, eve = evaluate_links(chan, scheme, w, eve_mmse_beamformer(chan, scheme))
    return report, bob, eve, scheme, loaded


# ------------------------------------------------------- Eve-aware direction


def eve_aware_direction(hb: np.ndarray, he: np.ndarray) -> np.ndarray:
    """Unit direction of :func:`design_known_ecsi` for one channel pair.

    Solves the generalized eigenproblem between the two channel Gram
    matrices.  While the eavesdropper has fewer antennas than the
    transmitter her Gram matrix is singular and the reciprocal problem is
    solved instead; its smallest ratio lies in her null space.  When both
    Gram matrices are singular (the intended receiver has fewer antennas
    than the transmitter and her Gram matrix is rank deficient, or neither
    factors), the direction is his strongest one inside her null space
    (``scipy.linalg.null_space`` of her channel).  Raises
    DegenerateChannelError when both Gram matrices are singular and no
    direction reaches the intended receiver.
    """
    if hb.shape[1] != he.shape[1]:
        raise DimensionError(f"channel column counts differ: {hb.shape[1]} vs {he.shape[1]}")
    na = hb.shape[1]
    a = hb.conj().T @ hb
    b = he.conj().T @ he
    if hb.shape[0] < na and np.linalg.matrix_rank(b, hermitian=True) < na:
        return _null_space_direction(a, he)
    t = None
    if he.shape[0] >= na:
        try:
            _, vecs = scipy.linalg.eigh(a, b)
            t = vecs[:, -1]
        except np.linalg.LinAlgError:
            t = None
    if t is None:
        try:
            _, vecs = scipy.linalg.eigh(b, a)
        except np.linalg.LinAlgError:
            return _null_space_direction(a, he)
        t = vecs[:, 0]
    return t / np.linalg.norm(t)


def _null_space_direction(a: np.ndarray, he: np.ndarray) -> np.ndarray:
    """The unit direction with the largest gain t^H a t in the null space of ``he``."""
    basis = scipy.linalg.null_space(he)
    if basis.shape[1] == 0:
        raise DegenerateChannelError(
            "both channel Gram matrices are singular; no direction is identifiable"
        )
    lam, vecs = scipy.linalg.eigh(basis.conj().T @ a @ basis)
    if lam[-1] <= 0:
        raise DegenerateChannelError("no gain to the intended receiver in her null space")
    t = basis @ vecs[:, -1]
    return t / np.linalg.norm(t)


# ------------------------------------------- Eve's combiner and the fraction root


def mmse_combiner(h, t, q, sigma_sq: float) -> np.ndarray:
    """Max-SINR combiner (H Q H^H + sigma^2 I)^-1 H t by a Cholesky solve."""
    cov = h @ q @ h.conj().T + sigma_sq * np.eye(h.shape[0])
    return scipy.linalg.solve(cov, h @ t, assume_a="pos")


def eve_sinr(h_e, t, factor, data_power: float, sigma_sq: float) -> float:
    """Eve's SINR at her MMSE combiner, rho P t^H H^H (A + sigma^2 I)^-1 H t
    for A = (H F)(H F)^H, as rho P sum_i |v_i^H H t|^2 / (mu_i + sigma^2) over
    the eigenvectors v_i of A from ``eigh``.  Each eigenvalue is taken as
    the squared amplitude mu_i = ||(H F)^H v_i||^2, which resolves a small
    one to full relative precision where ``eigh``'s own is off by eps ||A||.
    A is ne x ne of rank at most k, F's column count, so its ne - k smallest
    eigenvalues are set to zero by shape; left as amplitudes they are
    round-off, which swamps a small sigma^2."""
    b = h_e @ factor
    v = np.linalg.eigh(b @ b.conj().T)[1]
    mu = np.sum(np.abs(b.conj().T @ v) ** 2, axis=0)
    mu[:max(h_e.shape[0] - factor.shape[1], 0)] = 0.0
    proj = v.conj().T @ (h_e @ t)
    return data_power * float(np.sum(np.abs(proj) ** 2 / (mu + sigma_sq)))


# Absolute and relative root tolerances of the brentq oracle.
_XTOL = 1e-15
_RTOL = 8.9e-16


def solve_fraction(gain, target_sinr: float) -> tuple[float, bool]:
    """Smallest rho in (0, 1] with gain(rho) >= target_sinr, by scipy's brentq."""
    if gain(1.0) < target_sinr:
        return 1.0, True
    if gain(_RHO_FLOOR) >= target_sinr:
        return _RHO_FLOOR, False
    root = scipy.optimize.brentq(
        lambda r: gain(r) - target_sinr, _RHO_FLOOR, 1.0, xtol=_XTOL, rtol=_RTOL,
        maxiter=_MAXITER,
    )
    return float(root), False


# ------------------------------------------------------------ per-point reduction


def _db_or_neg_inf(x: float) -> float:
    if not np.isfinite(x) or x <= 0.0:
        return float("-inf") if x == 0.0 else float("nan")
    return float(to_db(x))


def _reduce(metrics: np.ndarray, cfg: ExperimentConfig) -> dict[str, dict[str, tuple]]:
    series: dict[str, dict[str, tuple]] = {}
    for s, scheme in enumerate(cfg.schemes):
        per_metric: dict[str, list] = {
            "mean_sinr_b": [], "stderr_sinr_b": [], "mean_sinr_b_db": [],
            "stderr_sinr_b_db": [],
            "mean_sinr_e": [], "stderr_sinr_e": [], "mean_sinr_e_db": [],
            "mean_secrecy": [], "stderr_secrecy": [],
            "roe_sinr_b": [], "roe_sinr_b_db": [],
            "roe_sinr_e": [], "roe_sinr_e_db": [],
            "outage_count": [], "flagged_count": [], "n_valid": [],
        }
        for p in range(metrics.shape[0]):
            block = metrics[p, s]
            sinr_b, sinr_e, secrecy = block[0], block[1], block[2]
            outage, signal_b, intnoise_b = block[3], block[4], block[5]
            signal_e, intnoise_e, flagged = block[6], block[7], block[8]

            mean_b, se_b, n_valid = _mean_stderr(sinr_b)
            mean_e, se_e, _ = _mean_stderr(sinr_e)
            mean_s, se_s, _ = _mean_stderr(secrecy)
            roe = _pooled_ratio(signal_b, intnoise_b)
            roe_e = _pooled_ratio(signal_e, intnoise_e)

            per_metric["mean_sinr_b"].append(mean_b)
            per_metric["stderr_sinr_b"].append(se_b)
            per_metric["mean_sinr_b_db"].append(_db_or_neg_inf(mean_b))
            per_metric["stderr_sinr_b_db"].append(
                float(10.0 / np.log(10.0) * se_b / mean_b)
                if mean_b > 0 and np.isfinite(se_b)
                else float("nan")
            )
            per_metric["mean_sinr_e"].append(mean_e)
            per_metric["stderr_sinr_e"].append(se_e)
            per_metric["mean_sinr_e_db"].append(_db_or_neg_inf(mean_e))
            per_metric["mean_secrecy"].append(mean_s)
            per_metric["stderr_secrecy"].append(se_s)
            per_metric["roe_sinr_b"].append(roe)
            per_metric["roe_sinr_b_db"].append(_db_or_neg_inf(roe))
            per_metric["roe_sinr_e"].append(roe_e)
            per_metric["roe_sinr_e_db"].append(_db_or_neg_inf(roe_e))
            per_metric["outage_count"].append(int(np.nansum(outage)))
            per_metric["flagged_count"].append(int(np.nansum(flagged)))
            per_metric["n_valid"].append(n_valid)
        series[scheme] = {k: tuple(v) for k, v in per_metric.items()}
    return series


def _pooled_ratio(signal: np.ndarray, intnoise: np.ndarray) -> float:
    """Ratio of summed signal power to summed interference-plus-noise."""
    sig_sum = np.nansum(signal)
    intn_sum = np.nansum(intnoise)
    return float(sig_sum / intn_sum) if intn_sum > 0 else float("nan")


def _mean_stderr(values: np.ndarray) -> tuple[float, float, int]:
    valid = values[~np.isnan(values)]
    n = valid.size
    if n == 0:
        return float("nan"), float("nan"), 0
    mean = float(np.mean(valid))
    se = float(np.std(valid, ddof=1) / np.sqrt(n)) if n > 1 else float("nan")
    return mean, se, n
