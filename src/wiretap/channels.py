"""Channel matrices, random generation, their decompositions, and CSI error models.

The scenario is a three-node link: a transmitter with ``na`` antennas, the
intended receiver with ``nb`` antennas, and an eavesdropper with ``ne``
antennas.  Everything downstream (beamformer design, perturbation analysis,
the experiment harness) consumes the types defined here.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy.random import Generator

from .exceptions import (
    DegenerateChannelError,
    DimensionError,
    OrientationError,
    ParameterError,
)
from .stacked import herm

# sigma_F below this fraction of sigma_1 counts as rank deficient.
RANK_TOL = 1e-10


def _rng(seed) -> Generator:
    """Accept an int seed, a SeedSequence, or an existing Generator."""
    if isinstance(seed, Generator):
        return seed
    return np.random.default_rng(seed)


def complex_gaussian(rng: Generator, rows: int, cols: int, entry_var: float = 1.0) -> np.ndarray:
    """Draw an iid circularly symmetric complex Gaussian matrix.

    Each entry has total variance ``entry_var`` split evenly between the real
    and imaginary parts, so a unit-variance entry has real and imaginary
    standard deviation 1/sqrt(2).  The real parts are drawn first, then the
    imaginary parts.
    """
    return complex_from_parts(rng.standard_normal((2, rows, cols)), np.sqrt(entry_var / 2.0))


def complex_from_parts(parts: np.ndarray, scale) -> np.ndarray:
    """``scale * (parts[..., 0, :, :] + 1j * parts[..., 1, :, :])``.

    The parts are written into one complex array and each is scaled in place
    as a real number, so no temporaries are built and every product, a
    signed zero included, is ``scale`` times its part.
    """
    out = np.empty(parts.shape[:-3] + parts.shape[-2:], dtype=np.complex128)
    out.real = parts[..., 0, :, :]
    out.imag = parts[..., 1, :, :]
    out.view(np.float64)[...] *= scale
    return out


@dataclass(frozen=True)
class ChannelMatrix:
    """A complex channel matrix with finite entries, held as a read-only
    copy so that the decomposition it stores stays valid."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=np.complex128)
        if arr.ndim != 2 or 0 in arr.shape:
            raise DimensionError(f"channel matrix must be 2-D and nonempty, got shape {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", finite(arr, "channel matrix"))

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    @cached_property
    def _svd(self) -> SvdStack:
        """The read-only decomposition :func:`partition_svd` returns."""
        svd = partition_stack(self.entries)
        for arr in svd:
            arr.flags.writeable = False
        return svd


def as_matrix(h) -> np.ndarray:
    """Return the raw ndarray behind a ChannelMatrix, passing ndarrays through."""
    if isinstance(h, ChannelMatrix):
        return h.entries
    return np.asarray(h, dtype=np.complex128)


def finite(arr: np.ndarray, name: str) -> np.ndarray:
    """``arr``, or ParameterError naming it if an entry is not finite."""
    if not np.isfinite(arr).all():
        raise ParameterError(f"{name} entries must be finite")
    return arr


def nonzero(arr: np.ndarray, name: str) -> np.ndarray:
    """``arr``, or ParameterError naming it if every entry is zero."""
    if not arr.any():
        raise ParameterError(f"{name} is all zero")
    return arr


def matching(x, h: ChannelMatrix, name: str) -> np.ndarray:
    """``x`` as an array of the shape of ``h``, or DimensionError naming it."""
    arr = as_matrix(x)
    if arr.shape != h.entries.shape:
        raise DimensionError(f"{name} has shape {arr.shape}, the channel {h.entries.shape}")
    return arr


# Noise powers a channel set accepts.  Far outside this range the combiners'
# norms and the power-fraction root solve under- or overflow.
NOISE_RANGE = (1e-100, 1e100)


@dataclass(frozen=True)
class ChannelSet:
    """One channel realization for the full three-node link.

    ``h_ba`` is the transmitter-to-receiver channel (nb x na), ``h_ea`` the
    transmitter-to-eavesdropper channel (ne x na).  Noise levels are per
    receive antenna and ``power_p`` is the total transmit power budget.
    """

    h_ba: ChannelMatrix
    h_ea: ChannelMatrix
    sigma_b_sq: float
    sigma_e_sq: float
    power_p: float

    def __post_init__(self):
        if self.h_ba.cols != self.h_ea.cols:
            raise DimensionError(
                f"h_ba and h_ea disagree on transmit antennas: {self.h_ba.cols} vs {self.h_ea.cols}"
            )
        if not (np.isfinite(self.power_p) and self.power_p > 0):
            raise ParameterError(f"power_p must be positive and finite, got {self.power_p}")
        lo, hi = NOISE_RANGE
        for name in ("sigma_b_sq", "sigma_e_sq"):
            val = getattr(self, name)
            if not lo <= val <= hi:
                raise ParameterError(f"{name} must lie in [{lo:g}, {hi:g}], got {val}")

    @property
    def na(self) -> int:
        return self.h_ba.cols

    @property
    def nb(self) -> int:
        return self.h_ba.rows

    @property
    def ne(self) -> int:
        return self.h_ea.rows

    @cached_property
    def eve_spectrum(self):
        """:func:`amplitude_spectrum` (lam, U) of Eve's Gram matrix, as a
        stack of one, from which ``transmit.eve_link`` evaluates her MMSE link;
        with ne < na its na - ne smallest eigenvalues are exactly zero.
        Computed once per realization, however many designs it evaluates."""
        he = self.h_ea.entries[None]
        return amplitude_spectrum(he, herm(he) @ he)


def amplitude_spectrum(h: np.ndarray, gram: np.ndarray):
    """(lam, U) of the Gram stack ``gram`` = H^H H of the channels ``h``
    (..., rows, cols), whose leading axes broadcast against it: the
    eigenvectors U by ``eigh``, and each eigenvalue taken as the squared
    amplitude lam_i = ||H u_i||^2, which is never negative and resolves a
    small eigenvalue far below eigh's own round-off of order eps ||G||.  A
    matrix of ``h`` with r < cols nonzero rows has rank at most r, so its
    cols - r smallest are set to exactly zero, not left at (eps ||H||)^2."""
    evecs = np.linalg.eigh(gram)[1]
    amps = h @ evecs
    lam = (amps.conj() * amps).real.sum(axis=-2)
    null = h.shape[-1] - h.any(axis=-1).sum(axis=-1)
    return np.where(np.arange(h.shape[-1]) < null[..., None], 0.0, lam), evecs


def generate_channels(
    na: int,
    nb: int,
    ne: int,
    gamma_ea_sq: float = 1.0,
    rng_seed=None,
    *,
    sigma_b_sq: float = 1.0,
    sigma_e_sq: float = 1.0,
    power_p: float = 100.0,
) -> ChannelSet:
    """Draw one random channel realization.

    Entries of ``h_ba`` are unit-variance circularly symmetric complex
    Gaussians; entries of ``h_ea`` have variance ``gamma_ea_sq``.  The same
    seed always reproduces the same channel set bit for bit.
    """
    for name, val in (("na", na), ("nb", nb), ("ne", ne)):
        if not (isinstance(val, (int, np.integer)) and val >= 1):
            raise ParameterError(f"{name} must be an integer >= 1, got {val!r}")
    if not gamma_ea_sq > 0:
        raise ParameterError(f"gamma_ea_sq must be positive, got {gamma_ea_sq}")
    rng = _rng(rng_seed)
    h_ba = complex_gaussian(rng, nb, na, 1.0)
    h_ea = complex_gaussian(rng, ne, na, gamma_ea_sq)
    return ChannelSet(
        h_ba=ChannelMatrix(h_ba),
        h_ea=ChannelMatrix(h_ea),
        sigma_b_sq=sigma_b_sq,
        sigma_e_sq=sigma_e_sq,
        power_p=power_p,
    )


def _phase_fixed(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(v, phase): each column of ``v`` divided by the unit phase of its
    largest-magnitude entry, which makes that entry real and positive, over
    any leading axes.  Ties resolve to the lowest index.  A unit column has
    a nonzero largest entry, so every pivot is nonzero."""
    pivot = np.take_along_axis(v, np.abs(v).argmax(axis=-2)[..., None, :], axis=-2)
    # hypot rounds like abs() of a complex scalar; np.abs over an array can
    # differ in the last bit, which would move every single-channel result.
    phase = pivot / np.hypot(pivot.real, pivot.imag)
    return v / phase, phase


class SvdStack(NamedTuple):
    """Phase-fixed SVDs H = U diag(s) V^H of one channel or a stack, as plain arrays.

    ``u`` (..., m, m) and ``v`` (..., n, n) hold the left and right singular
    vectors as columns and ``s`` (..., m) the singular values in descending
    order.  The leading axes are empty for a single channel
    (:func:`partition_svd`).
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray

    @property
    def sigma1(self) -> np.ndarray:
        """Largest singular value."""
        return self.s[..., 0]

    @property
    def u1(self) -> np.ndarray:
        """Left singular vector of the largest singular value."""
        return self.u[..., 0]

    @property
    def v1(self) -> np.ndarray:
        """Right singular vector of the largest singular value."""
        return self.v[..., 0]

    def single(self) -> SvdStack:
        """This decomposition, checked to be of one channel (DimensionError if not)."""
        if self.s.ndim != 1:
            shape = self.u.shape[:-1] + self.v.shape[-1:]
            raise DimensionError(f"expected the SVD of one channel, got a stack of shape {shape}")
        return self


def partition_stack(h: np.ndarray) -> SvdStack:
    """Phase-fixed SVDs over the leading axes of ``h`` (..., m, n).

    One LAPACK call decomposes the whole stack.  Requires rows <= cols;
    callers holding tall matrices must pass the transpose and swap the
    roles of the left and right vectors themselves.  Each right singular
    vector is rotated so its largest-magnitude entry is real and positive,
    and its left vector by the same phase.  A matrix whose weakest singular
    value is below RANK_TOL of its strongest raises DegenerateChannelError
    anywhere in the stack; near-repeated singular values are left to the
    consumers that cannot tolerate small gaps.
    """
    m, n = h.shape[-2:]
    if m > n:
        raise OrientationError(
            f"partition_svd expects rows <= cols, got {m}x{n}; pass the transpose"
        )
    u, s, vh = np.linalg.svd(h, full_matrices=True)
    deficient = s[..., -1] < RANK_TOL * s[..., 0]
    if np.any(deficient):
        first = s.reshape(-1, m)[np.argmax(np.ravel(deficient))]
        raise DegenerateChannelError(
            f"smallest singular value {first[-1]:.3e} is below {RANK_TOL:.0e} "
            f"of the largest {first[0]:.3e}"
        )
    v, phase = _phase_fixed(np.conjugate(vh.swapaxes(-1, -2), order="C"))
    return SvdStack(u=u / phase[..., :m], s=s, v=v)


class Basis(NamedTuple):
    """Largest singular value ``sigma1`` (...) and its right singular vector
    ``v1`` (..., n) of channel estimates: all a design reads of them."""

    sigma1: np.ndarray
    v1: np.ndarray


def estimate_basis(h: np.ndarray) -> Basis:
    """:class:`Basis` of the estimates ``h`` (..., m, n), m <= n, by one
    ``eigh`` of H^H H: v1 its strongest eigenvector, phase-fixed as
    partition_stack's, and sigma1 the root of its largest eigenvalue clipped
    at zero.  No rank is checked: both are defined at any rank."""
    m, n = h.shape[-2:]
    if m > n:
        raise OrientationError(f"estimate_basis expects rows <= cols, got {m}x{n}")
    lam, evecs = np.linalg.eigh(herm(h) @ h)
    return Basis(np.sqrt(np.maximum(lam[..., -1], 0.0)), _phase_fixed(evecs[..., -1:])[0][..., 0])


def partition_svd(h) -> SvdStack:
    """:func:`partition_stack` of one channel matrix: an :class:`SvdStack`
    with no leading axes.  A :class:`ChannelMatrix` is decomposed once and
    stores the result with read-only arrays, returned by every later call.
    A plain array, never cached, must be 2-D (DimensionError) and finite
    (ParameterError)."""
    if isinstance(h, ChannelMatrix):
        return h._svd
    arr = as_matrix(h)
    if arr.ndim != 2:
        raise DimensionError(f"partition_svd expects one 2-D matrix, got shape {arr.shape}")
    return partition_stack(finite(arr, "channel matrix"))


def align_singular_vectors(reference: np.ndarray, perturbed: np.ndarray) -> np.ndarray:
    """Rotate each column of ``perturbed`` by a unit phase so its inner
    product with the matching column of ``reference`` is real and positive.

    This removes the arbitrary per-vector phase before differences of
    singular vectors are formed; without it those differences are
    meaningless.  Columns orthogonal to their reference are returned as is.
    """
    if reference.shape != perturbed.shape:
        raise DimensionError(
            f"reference and perturbed shapes differ: {reference.shape} vs {perturbed.shape}"
        )
    out = perturbed.copy()
    ips = np.einsum("ij,ij->j", reference.conj(), perturbed)
    mags = np.abs(ips)
    for j in range(out.shape[1]):
        if mags[j] > 0:
            out[:, j] = out[:, j] * (ips[j].conjugate() / mags[j])
    return out


@dataclass(frozen=True)
class CsiErrorModel:
    """Statistical model of the channel estimation error.

    ``kind`` is "iid" for white errors of per-entry variance ``sigma_h_sq``
    or "full" for an arbitrary Hermitian positive semidefinite covariance of
    the column-stacked error matrix.  The full covariance has shape
    (nb*na, nb*na) and its (a + p*nb, b + q*nb) entry is
    E{dH[a,p] * conj(dH[b,q])}.
    """

    kind: str
    sigma_h_sq: float = 0.0
    cov: np.ndarray | None = None

    @classmethod
    def iid(cls, sigma_h_sq: float) -> "CsiErrorModel":
        if not (np.isfinite(sigma_h_sq) and sigma_h_sq >= 0):
            raise ParameterError(f"sigma_h_sq must be >= 0, got {sigma_h_sq}")
        return cls(kind="iid", sigma_h_sq=float(sigma_h_sq))

    @classmethod
    def full(cls, cov) -> "CsiErrorModel":
        """A finite, Hermitian, positive semidefinite covariance: eigenvalues
        >= -1e-9 max(largest, 1).  One Cholesky factor of it plus 1e-9
        max(largest diagonal entry, 1) I proves that, as no diagonal entry
        exceeds the largest eigenvalue; only if it fails do they decide.
        The model holds a read-only copy, so the checked covariance cannot
        be edited afterwards."""
        arr = np.array(cov, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionError(f"covariance must be square, got shape {arr.shape}")
        finite(arr, "covariance")
        adj = arr.conj().T
        herm_err = np.max(np.abs(arr - adj))
        # The scale is at least 1, so an error within 1e-9 passes without it.
        if herm_err > 1e-9 and herm_err > 1e-9 * max(np.max(np.abs(arr)), 1.0):
            raise ParameterError(f"covariance is not Hermitian within tolerance ({herm_err:.3e})")
        shifted = (arr + adj) / 2.0
        diag = shifted.reshape(-1)[:: len(arr) + 1]
        diag += 1e-9 * max(diag.real.max(), 1.0)
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            eigs = np.linalg.eigvalsh((arr + adj) / 2.0)
            if eigs[0] < -1e-9 * max(eigs[-1], 1.0):
                raise ParameterError(
                    f"covariance is not positive semidefinite (min eig {eigs[0]:.3e})") from None
        arr.flags.writeable = False
        return cls(kind="full", cov=arr)

    @classmethod
    def zero(cls) -> "CsiErrorModel":
        return cls.iid(0.0)

    def scaled(self, factor: float) -> "CsiErrorModel":
        """Scale the covariance by ``factor`` (a power ratio, not amplitude),
        which must be finite and nonnegative."""
        if not (np.isfinite(factor) and factor >= 0):
            raise ParameterError(f"scale factor must be finite and >= 0, got {factor}")
        if self.kind == "iid":
            return CsiErrorModel.iid(self.sigma_h_sq * factor)
        cov = self.cov * factor
        cov.flags.writeable = False
        return CsiErrorModel(kind="full", cov=cov)

    def cov_tensor(self, nb: int, na: int) -> np.ndarray:
        """Covariance as a 4-tensor T[a, p, b, q] = E{dH[a,p] conj(dH[b,q])}."""
        if self.kind == "iid":
            return self.sigma_h_sq * np.einsum("ab,pq->apbq", np.eye(nb), np.eye(na))
        if self.cov.shape[0] != nb * na:
            raise DimensionError(
                f"covariance side {self.cov.shape[0]} does not match nb*na = {nb * na}"
            )
        return self.cov.reshape((nb, na, nb, na), order="F")


def sample_csi_error(model: CsiErrorModel, nb: int, na: int, rng_seed=None) -> np.ndarray:
    """Draw one estimation-error matrix from the model as a plain array.

    Samples are circularly symmetric complex Gaussians whose second moments
    match the model exactly.
    """
    rng = _rng(rng_seed)
    if model.kind == "iid":
        if model.sigma_h_sq == 0.0:
            return np.zeros((nb, na), dtype=np.complex128)
        return complex_gaussian(rng, nb, na, model.sigma_h_sq)
    if model.cov.shape[0] != nb * na:
        raise DimensionError(
            f"covariance side {model.cov.shape[0]} does not match nb*na = {nb * na}"
        )
    cov = (model.cov + model.cov.conj().T) / 2.0
    # Eigen-based square root tolerates exact semidefiniteness.
    vals, vecs = np.linalg.eigh(cov)
    vals = np.clip(vals, 0.0, None)
    root = vecs * np.sqrt(vals)
    white = complex_gaussian(rng, nb * na, 1, 1.0)[:, 0]
    vec = root @ white
    return vec.reshape((nb, na), order="F")


def perturb_ecsi(h_ea, gamma: float, rng_seed=None) -> ChannelMatrix:
    """Blend the eavesdropper channel with an independent draw.

    Returns sqrt(1-gamma)*h_ea + sqrt(gamma)*W where W matches h_ea in shape
    and has unit-variance entries.  gamma = 0 returns the input unchanged.
    """
    if not (0.0 <= gamma <= 1.0):
        raise ParameterError(f"gamma must lie in [0, 1], got {gamma}")
    arr = as_matrix(h_ea)
    if gamma == 0.0:
        return ChannelMatrix(arr.copy())
    rng = _rng(rng_seed)
    w = complex_gaussian(rng, arr.shape[0], arr.shape[1], 1.0)
    return ChannelMatrix(np.sqrt(1.0 - gamma) * arr + np.sqrt(gamma) * w)
