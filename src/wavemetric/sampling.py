"""Deterministic sampling helpers: Halton points and direction sets."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

HALTON_BASES = (2, 3, 5)


def halton_unit(n: int, d: int, *, skip: int = 1) -> np.ndarray:
    """First n unscrambled Halton points in (0,1)^d.

    Coordinate j is the radical inverse of the point's index in the j-th
    prime base.  The digits are accumulated lowest first, as scipy's
    unscrambled Halton sampler does, so the points equal its points bit for
    bit.  The leading point of the raw sequence is the origin, which sits on
    the boundary; ``skip`` drops it so all returned points are strictly
    interior.
    """
    if not 1 <= d <= len(HALTON_BASES):
        raise ValidationError(f"Halton points need 1 <= d <= {len(HALTON_BASES)}, got {d}")
    index = np.arange(skip, skip + n, dtype=np.int64)
    out = np.zeros((n, d))
    for j, base in enumerate(HALTON_BASES[:d]):
        q = index.copy()
        b2r = 1.0 / base
        while q.any():
            out[:, j] += (q % base) * b2r
            b2r /= base
            q //= base
    return out


def fibonacci_sphere(n: int) -> np.ndarray:
    """n near-uniform unit directions on S^2 (deterministic spiral lattice)."""
    i = np.arange(n, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / n
    phi = i * np.pi * (3.0 - np.sqrt(5.0))
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack((r * np.cos(phi), r * np.sin(phi), z))


def circle_directions(n: int) -> np.ndarray:
    """n uniformly spaced unit directions in the plane."""
    t = 2.0 * np.pi * np.arange(n, dtype=float) / n
    return np.column_stack((np.cos(t), np.sin(t)))


def unit_directions(d: int) -> np.ndarray:
    """Default direction set per dimension: 2 / 128 / 256 samples for d=1/2/3."""
    if d == 1:
        return np.array([[1.0], [-1.0]])
    if d == 2:
        return circle_directions(128)
    if d == 3:
        return fibonacci_sphere(256)
    raise ValidationError(f"unsupported dimension {d}")
