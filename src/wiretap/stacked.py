"""Small linear-algebra helpers over stacks of matrices and vectors.

Every function works on arrays with any number of leading batch axes,
including none.  The scheme kernels are written with them, and the
single-channel functions run those kernels on a batch of one.
"""
from __future__ import annotations

from functools import cache

import numpy as np


def herm(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return x.swapaxes(-1, -2).conj()


def matvec(h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """h @ x for a stack of matrices and a matching stack of vectors."""
    return (h @ x[..., None])[..., 0]


def vdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^H b for matching stacks of vectors; bit-identical to ``np.vdot``."""
    return (a.conj()[..., None, :] @ b[..., :, None])[..., 0, 0]


def norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norms of a stack of vectors; bit-identical to
    ``np.linalg.norm(x, axis=-1)``, whose sum of squares it repeats."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=-1))


def outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a b^H for matching stacks of vectors."""
    return a[..., :, None] * b.conj()[..., None, :]


def any_true(mask) -> bool:
    """Whether a comparison result holds anywhere, for scalars and arrays alike."""
    return bool(mask.any()) if isinstance(mask, np.ndarray) else bool(mask)


@cache
def pairs(n: int):
    """Row and column indices of the pairs i < j of ``n`` entries."""
    return np.triu_indices(n, 1)
