"""Fast built-in sanity suite behind the ``validate`` CLI subcommand.

Runs a condensed version of the package's invariants in a few seconds:
exactness of the perfect-knowledge pipeline, orthogonality of the synthetic
interference, null-space behavior against a weaker eavesdropper, zero-error
reductions of every degradation path, a small Monte Carlo spot check of the
closed-form perturbation moments, and reproducibility of the harness.  The
full test suite covers the same ground far more thoroughly; this exists so
an installed copy can be checked without a test environment.
"""
from __future__ import annotations

import numpy as np

from .channels import CsiErrorModel, estimate_basis, generate_channels, partition_svd
from .harness import ExperimentConfig, run_experiment
from .perturbation import compute_moments, predict_naive_sinr, simulate_naive
from .robust import fdd_receiver, tdd_receiver
from .transmit import link_sinr, perfect_csi_trial
from .units import from_db


def _check_perfect_exactness() -> tuple[bool, str]:
    worst = 0.0
    outages = 0
    cases = 0
    for seed, n in enumerate([2, 4, 5, 8] * 10):
        for target_db in (10.0, 20.0):
            chan = generate_channels(n, n, n, rng_seed=1000 + seed)
            target = float(from_db(target_db))
            scheme, _, _, report = perfect_csi_trial(chan, target)
            cases += 1
            if scheme.outage:
                outages += 1
                continue
            worst = max(worst, abs(report.sinr_b - target) / target)
            budget = scheme.data_power + scheme.noise_power
            worst = max(worst, abs(budget - chan.power_p) / chan.power_p)
    ok = worst < 1e-9
    return ok, f"worst relative miss {worst:.2e} over {cases} cases ({outages} outages)"


def _check_interference_orthogonality() -> tuple[bool, str]:
    worst = 0.0
    for seed in range(40):
        chan = generate_channels(5, 5, 5, rng_seed=2000 + seed)
        scheme, w_b, _, _ = perfect_csi_trial(chan, 100.0)
        if scheme.outage:
            continue
        bob = link_sinr(chan.h_ba, scheme, w_b, chan.sigma_b_sq)
        if bob.signal_power > 0:
            worst = max(worst, bob.interference_power / bob.signal_power)
    ok = worst <= 1e-18
    return ok, f"worst interference-to-signal ratio {worst:.2e}"


def _check_null_space_eavesdropper() -> tuple[bool, str]:
    from .transmit import design_known_ecsi, eve_mmse_beamformer, evaluate_sinr, bob_matched_beamformer

    worst = 0.0
    for seed in range(20):
        chan = generate_channels(4, 4, 2, rng_seed=3000 + seed)
        scheme = design_known_ecsi(chan, chan.h_ea, 100.0)
        report = evaluate_sinr(
            chan, scheme,
            bob_matched_beamformer(chan, scheme),
            eve_mmse_beamformer(chan, scheme),
        )
        worst = max(worst, report.sinr_e)
    ok = worst < 1e-10
    return ok, f"worst eavesdropper SINR {worst:.2e} with fewer antennas than the transmitter"


def _check_zero_error_reductions() -> tuple[bool, str]:
    chan = generate_channels(5, 5, 5, rng_seed=4000)
    target = 100.0
    svd = partition_svd(chan.h_ba)
    zero = np.zeros((chan.nb, chan.na), dtype=np.complex128)
    misses = []

    moments = compute_moments(svd, CsiErrorModel.zero())
    misses.append(abs(predict_naive_sinr(svd, moments, chan, target) - target) / target)
    misses.append(abs(simulate_naive(chan, zero, target).sinr_b - target) / target)
    _, fdd_rep = fdd_receiver(chan, chan.h_ba.entries, target)
    misses.append(abs(fdd_rep.sinr_b - target) / target)
    _, tdd_rep = tdd_receiver(chan, svd, moments, zero, target)
    misses.append(abs(tdd_rep.sinr_b - target) / target)
    worst = max(misses)
    return worst < 1e-9, f"worst zero-error relative miss {worst:.2e}"


def _check_moment_spot(pairs: int = 20000) -> tuple[bool, str]:
    chan = generate_channels(3, 3, 3, rng_seed=5000)
    h = chan.h_ba.entries
    ref = partition_svd(chan.h_ba)
    sigma_sq = 0.01
    closed = compute_moments(ref, CsiErrorModel.iid(sigma_sq))

    rng = np.random.default_rng(np.random.SeedSequence([5000, 77]))
    m, n = h.shape
    scale = np.sqrt(sigma_sq / 2.0)
    dh = scale * (
        rng.standard_normal((pairs, m, n)) + 1j * rng.standard_normal((pairs, m, n))
    )
    stacked = np.concatenate([h[None] + dh, h[None] - dh], axis=0)
    sigma1, v = estimate_basis(stacked)
    ip = v[..., 0] @ ref.v1.conj()
    aligned = v[..., 0] * (np.abs(ip) / ip)[:, None]
    dv = aligned - ref.v1
    dv_pair = 0.5 * (dv[:pairs] + dv[pairs:])
    dsig = sigma1 - ref.sigma1

    mc_dv1 = dv_pair.mean(axis=0)
    mc_ds = float(0.5 * (dsig[:pairs] + dsig[pairs:]).mean())
    mc_ds2 = float(0.5 * (dsig[:pairs] ** 2 + dsig[pairs:] ** 2).mean())

    miss_dv = np.linalg.norm(mc_dv1 - closed.e_dv1)
    tol_dv = 0.25 * np.linalg.norm(closed.e_dv1) + 5e-4
    miss_ds = abs(mc_ds - closed.e_dsigma1)
    tol_ds = 0.25 * abs(closed.e_dsigma1) + 5e-4
    miss_ds2 = abs(mc_ds2 - closed.e_dsigma1_sq)
    tol_ds2 = 0.25 * abs(closed.e_dsigma1_sq) + 5e-4
    ok = miss_dv <= tol_dv and miss_ds <= tol_ds and miss_ds2 <= tol_ds2
    return ok, (
        f"moment misses dv1 {miss_dv:.2e}/{tol_dv:.2e}, "
        f"dsigma {miss_ds:.2e}/{tol_ds:.2e}, dsigma^2 {miss_ds2:.2e}/{tol_ds2:.2e}"
    )


def _check_reproducibility() -> tuple[bool, str]:
    cfg = ExperimentConfig(
        scenario="custom", na=4, nb=4, ne=4, target_sinr_db=20.0,
        sigma_h_db=-15.0, trials=40, master_seed=9,
        schemes=("perfect", "naive", "robust_fdd"),
    )
    first = run_experiment(cfg)
    second = run_experiment(cfg)
    same = first.series == second.series
    return same, "two identical runs produced identical series" if same else "series differed"


def run_all(emit=print) -> bool:
    """Run every check, emitting one PASS/FAIL line each; True if all pass."""
    checks = [
        ("perfect-pipeline exactness", _check_perfect_exactness),
        ("interference orthogonality", _check_interference_orthogonality),
        ("null-space eavesdropper", _check_null_space_eavesdropper),
        ("zero-error reductions", _check_zero_error_reductions),
        ("perturbation-moment spot check", _check_moment_spot),
        ("harness reproducibility", _check_reproducibility),
    ]
    all_ok = True
    for name, fn in checks:
        ok, detail = fn()
        all_ok = all_ok and ok
        emit(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    emit("all checks passed" if all_ok else "SOME CHECKS FAILED")
    return all_ok
