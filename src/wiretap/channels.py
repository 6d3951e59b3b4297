"""Channel matrices, random generation, partitioned SVD, and CSI error models.

The scenario is a three-node link: a transmitter with ``na`` antennas, the
intended receiver with ``nb`` antennas, and an eavesdropper with ``ne``
antennas.  Everything downstream (beamformer design, perturbation analysis,
the experiment harness) consumes the types defined here.
"""
from __future__ import annotations

from dataclasses import dataclass
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
# Gap of squared singular values (relative to sigma_1^2) below which the
# perturbation expansion denominators are untrustworthy.
GAP_TOL = 1e-8


def _rng(seed) -> Generator:
    """Accept an int seed, a SeedSequence, or an existing Generator."""
    if isinstance(seed, Generator):
        return seed
    return np.random.default_rng(seed)


def complex_gaussian(rng: Generator, rows: int, cols: int, entry_var: float = 1.0) -> np.ndarray:
    """Draw an iid circularly symmetric complex Gaussian matrix.

    Each entry has total variance ``entry_var`` split evenly between the real
    and imaginary parts, so a unit-variance entry has real and imaginary
    standard deviation 1/sqrt(2).
    """
    scale = np.sqrt(entry_var / 2.0)
    real = rng.standard_normal((rows, cols))
    imag = rng.standard_normal((rows, cols))
    return scale * (real + 1j * imag)


@dataclass(frozen=True)
class ChannelMatrix:
    """A complex channel matrix with finite entries."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=np.complex128)
        if arr.ndim != 2:
            raise DimensionError(f"channel matrix must be 2-D, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DimensionError(f"channel matrix needs at least one row and column, got {arr.shape}")
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ParameterError("channel matrix entries must be finite")
        object.__setattr__(self, "entries", arr)

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def frobenius_gain(self) -> float:
        """Per-entry average power, ||H||_F^2 / (rows*cols)."""
        return float(np.linalg.norm(self.entries) ** 2 / (self.rows * self.cols))


def as_matrix(h) -> np.ndarray:
    """Return the raw ndarray behind a ChannelMatrix, passing ndarrays through."""
    if isinstance(h, ChannelMatrix):
        return h.entries
    return np.asarray(h, dtype=np.complex128)


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
        for name in ("sigma_b_sq", "sigma_e_sq", "power_p"):
            val = getattr(self, name)
            if not (np.isfinite(val) and val > 0):
                raise ParameterError(f"{name} must be positive and finite, got {val}")

    @property
    def na(self) -> int:
        return self.h_ba.cols

    @property
    def nb(self) -> int:
        return self.h_ba.rows

    @property
    def ne(self) -> int:
        return self.h_ea.rows


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


def _fix_phases(u: np.ndarray, vh: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rotate each right singular vector so its largest-magnitude entry is
    real and positive, rotating the matching left vector by the same phase.

    Works over any leading batch axes and returns (u, v) with the right
    vectors as the columns of v.  The product u @ diag(s) @ v^H is
    unchanged.  Ties on the largest entry resolve to the lowest index, and a
    zero pivot leaves its vector as is.
    """
    v = np.conjugate(vh.swapaxes(-1, -2), order="C")
    n = v.shape[-1]
    flat = v.reshape(-1, n, n)
    idx = np.argmax(np.abs(flat), axis=-2)
    pivot = flat[np.arange(len(flat))[:, None], idx, np.arange(n)].reshape(v.shape[:-2] + (n,))
    # hypot rounds like abs() of a complex scalar; np.abs over an array can
    # differ in the last bit, which would move every single-channel result.
    mag = np.hypot(pivot.real, pivot.imag)
    phase = np.where(mag == 0, 1.0, pivot / np.where(mag == 0, 1.0, mag))
    v = v / phase[..., None, :]
    u = u / phase[..., None, : u.shape[-1]]
    return u, v


class SvdStack(NamedTuple):
    """Phase-fixed SVDs H = U diag(s) V^H of one channel or a stack, as plain arrays.

    ``u`` (..., m, m) and ``v`` (..., n, n) hold the left and right singular
    vectors as columns, ``s`` (..., m) the singular values in descending
    order, and ``ill_conditioned`` (...) whether a gap between squared
    singular values is too small for the perturbation expansion.  The
    leading axes are empty for a single channel (:func:`partition_svd`).
    Column 0 of ``v`` is the data direction and the other columns, the null
    space included, span the interference subspace ``t_prime``.
    """

    u: np.ndarray
    s: np.ndarray
    v: np.ndarray
    ill_conditioned: np.ndarray

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

    @property
    def t_prime(self) -> np.ndarray:
        """The n-1 right singular vectors orthogonal to ``v1``."""
        return self.v[..., 1:]

    def single(self) -> SvdStack:
        """This decomposition, checked to be of one channel (DimensionError if not)."""
        if self.s.ndim != 1:
            shape = self.u.shape[:-1] + self.v.shape[-1:]
            raise DimensionError(f"expected the SVD of one channel, got a stack of shape {shape}")
        return self

    def reconstruct(self) -> np.ndarray:
        """Rebuild the channels from their decompositions."""
        m = self.s.shape[-1]
        return (self.u * self.s[..., None, :]) @ herm(self.v[..., :m])


def partition_stack(h: np.ndarray) -> SvdStack:
    """Phase-fixed SVDs over the leading axes of ``h`` (..., m, n).

    One LAPACK call decomposes the whole stack.  Requires rows <= cols;
    callers holding tall matrices must pass the transpose and swap the
    roles of the left and right vectors themselves.  Each right singular
    vector is rotated so its largest-magnitude entry is real and positive,
    and its left vector by the same phase.  A matrix whose weakest singular
    value is below RANK_TOL of its strongest raises DegenerateChannelError
    anywhere in the stack; near-repeated singular values only set the
    ``ill_conditioned`` flag, which consumers that cannot tolerate small
    gaps check.
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
    u, v = _fix_phases(u, vh)
    if m >= 2:
        gaps = s[..., :-1] ** 2 - s[..., -1:] ** 2
        ill = np.min(gaps, axis=-1) < GAP_TOL * s[..., 0] ** 2
    else:
        ill = np.zeros(s.shape[:-1], dtype=bool)
    return SvdStack(u=u, s=s, v=v, ill_conditioned=ill)


def partition_svd(h) -> SvdStack:
    """:func:`partition_stack` of one channel matrix: an :class:`SvdStack`
    with no leading axes.  Raises DimensionError unless ``h`` is 2-D."""
    arr = as_matrix(h)
    if arr.ndim != 2:
        raise DimensionError(f"partition_svd expects one 2-D matrix, got shape {arr.shape}")
    return partition_stack(arr)


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
        arr = np.asarray(cov, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise DimensionError(f"covariance must be square, got shape {arr.shape}")
        herm_err = np.max(np.abs(arr - arr.conj().T))
        scale = max(np.max(np.abs(arr)), 1.0)
        if herm_err > 1e-9 * scale:
            raise ParameterError(f"covariance is not Hermitian within tolerance ({herm_err:.3e})")
        eigs = np.linalg.eigvalsh((arr + arr.conj().T) / 2.0)
        if eigs[0] < -1e-9 * max(eigs[-1], 1.0):
            raise ParameterError(f"covariance is not positive semidefinite (min eig {eigs[0]:.3e})")
        return cls(kind="full", cov=arr)

    @classmethod
    def zero(cls) -> "CsiErrorModel":
        return cls.iid(0.0)

    @property
    def is_zero(self) -> bool:
        if self.kind == "iid":
            return self.sigma_h_sq == 0.0
        return bool(np.all(self.cov == 0))

    def scaled(self, factor: float) -> "CsiErrorModel":
        """Scale the covariance by ``factor`` (a power ratio, not amplitude)."""
        if factor < 0:
            raise ParameterError(f"scale factor must be >= 0, got {factor}")
        if self.kind == "iid":
            return CsiErrorModel.iid(self.sigma_h_sq * factor)
        return CsiErrorModel(kind="full", cov=self.cov * factor)

    def cov_tensor(self, nb: int, na: int) -> np.ndarray:
        """Covariance as a 4-tensor T[a, p, b, q] = E{dH[a,p] conj(dH[b,q])}."""
        if self.kind == "iid":
            eye_b = np.eye(nb)
            eye_a = np.eye(na)
            return self.sigma_h_sq * np.einsum("ab,pq->apbq", eye_b, eye_a)
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
