"""Small linear-algebra helpers over stacks of matrices and vectors.

Every function works on arrays with any number of leading batch axes, and
on a single matrix or vector alike, so one formula serves both the
single-channel functions and the batched sweep engine.
"""
from __future__ import annotations

import numpy as np


def herm(x: np.ndarray) -> np.ndarray:
    """Conjugate transpose of the last two axes."""
    return x.swapaxes(-1, -2).conj()


def matvec(h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """h @ x for a stack of matrices and a matching stack of vectors."""
    if x.ndim == 1:
        return h @ x
    return (h @ x[..., None])[..., 0]


def vdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a^H b for matching stacks of vectors; bit-identical to ``np.vdot``."""
    if a.ndim == 1:
        return np.vdot(a, b)
    return (a.conj()[..., None, :] @ b[..., :, None])[..., 0, 0]


def outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a b^H for matching stacks of vectors."""
    return a[..., :, None] * b.conj()[..., None, :]


def any_true(mask) -> bool:
    """Whether a comparison result holds anywhere, for scalars and arrays alike."""
    return bool(mask.any()) if isinstance(mask, np.ndarray) else bool(mask)
