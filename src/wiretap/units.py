"""Decibel conversions. All library internals work in linear units."""
from __future__ import annotations

import numpy as np


def to_db(x):
    """Power ratio to decibels, 10*log10(x)."""
    return 10.0 * np.log10(x)


def from_db(x):
    """Decibels to linear power ratio."""
    return 10.0 ** (np.asarray(x, dtype=float) / 10.0) if np.ndim(x) else 10.0 ** (float(x) / 10.0)

