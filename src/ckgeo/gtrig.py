"""Generalized trigonometric kernels parameterized by a characteristic.

gcos(k, x) and gsin(k, x) interpolate the circular (k = 1), linear (k = 0)
and hyperbolic (k = -1) function pairs; gmeasure_from_cs inverts a consistent
(cosine-like, sine-like) pair back to the measure it came from, one pair at
a time or over arrays of pairs.  Where the hyperbolic kernels overflow a
float, DomainError is raised.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, InconsistentPair, PoleError


def _check_char(k: int) -> int:
    if k not in (-1, 0, 1):
        raise ValueError("characteristic must be one of -1, 0, 1")
    return k


def gcos(k: int, x: float) -> float:
    """Cosine-like kernel: cos(x), 1, or cosh(x) depending on k."""
    _check_char(k)
    if k == 1:
        return math.cos(x)
    if k == 0:
        return 1.0
    try:
        return math.cosh(x)
    except OverflowError:
        raise _overflow("cosh", x) from None


def gsin(k: int, x: float) -> float:
    """Sine-like kernel: sin(x), x, or sinh(x) depending on k."""
    _check_char(k)
    if k == 1:
        return math.sin(x)
    if k == 0:
        return float(x)
    try:
        return math.sinh(x)
    except OverflowError:
        raise _overflow("sinh", x) from None


def _overflow(name: str, x: float) -> DomainError:
    return DomainError("%s(%r) overflows a float" % (name, x))


def gtan(k: int, x: float) -> float:
    """Tangent-like kernel gsin/gcos; raises PoleError where gcos vanishes."""
    c = gcos(k, x)
    if c == 0.0:
        raise PoleError("gtan pole at x = %r for k = %d" % (x, k))
    return gsin(k, x) / c


def gmeasure_from_cs(k: int, c: float, s: float, tol: float = 1e-9) -> float:
    """Recover x >= 0 from c = gcos(k, x) and s = gsin(k, x) with s >= 0.

    The pair must satisfy c*c + k*s*s == 1 within tol (relative to the size
    of the terms); otherwise InconsistentPair is raised.  For k == -1 the
    inversion needs c + s > 0, else DomainError.  Principal ranges: [0, pi]
    for k == 1, [0, inf) otherwise.

    Arrays of k, c and s (broadcast together) give an array of measures; the
    first pair that fails a check raises the error it raises on its own.
    """
    if isinstance(k, np.ndarray) or isinstance(c, np.ndarray) or isinstance(s, np.ndarray):
        return _gmeasure_array(k, c, s, tol)
    _check_char(k)
    if s < 0.0:
        if s < -tol:
            raise InconsistentPair("sine-like value must be nonnegative, got %r" % (s,))
        s = 0.0
    scale = max(1.0, c * c, abs(k) * s * s)
    if abs(c * c + k * s * s - 1.0) > tol * scale:
        raise InconsistentPair(
            "pair (%r, %r) violates c^2 + (%d)s^2 = 1" % (c, s, k)
        )
    if k == 1:
        return math.atan2(s, c)
    if k == 0:
        if abs(c - 1.0) > tol:
            raise InconsistentPair("parabolic pair needs c = 1, got %r" % (c,))
        return s
    if c + s <= 0.0:
        raise DomainError("hyperbolic inversion needs c + s > 0, got %r" % (c + s,))
    # log1p keeps precision when x is small and c + s is barely above 1.
    return math.log1p((c - 1.0) + s)


def _gmeasure_array(k, c, s, tol: float) -> np.ndarray:
    """gmeasure_from_cs over arrays: the same checks, pair by pair."""
    k, c, s = np.asarray(k), np.asarray(c, dtype=float), np.asarray(s, dtype=float)
    if not k.shape == c.shape == s.shape:
        k, c, s = np.broadcast_arrays(k, c, s)
    kinds = set(k.ravel().tolist())
    for kind in kinds:
        _check_char(kind)
    s0 = np.where(s < 0.0, 0.0, s)
    cc, ss = c * c, s0 * s0
    bad = (s < -tol) | (np.abs(cc + k * ss - 1.0) > tol * np.maximum(1.0, np.maximum(cc, np.abs(k) * ss)))
    if 0 in kinds:
        bad |= (k == 0) & (np.abs(c - 1.0) > tol)
    if -1 in kinds:
        bad |= (k == -1) & (c + s0 <= 0.0)
    if bad.any():
        first = np.unravel_index(np.argmax(bad), bad.shape)
        # The scalar form raises this pair's error, with its own message.
        gmeasure_from_cs(int(k[first]), float(c[first]), float(s[first]), tol)
    # The inverses are the scalar form's math functions, so each pair gives
    # the same bits alone as in an array (numpy's vector log1p may not).
    out = np.array(s0)
    if 1 in kinds:
        rows = k == 1
        out[rows] = list(map(math.atan2, s0[rows].tolist(), c[rows].tolist()))
    if -1 in kinds:
        rows = k == -1
        out[rows] = list(map(math.log1p, ((c[rows] - 1.0) + s0[rows]).tolist()))
    return out
