"""Generalized trigonometric kernels parameterized by a characteristic.

gcos(k, x) and gsin(k, x) interpolate the circular (k = 1), linear (k = 0)
and hyperbolic (k = -1) function pairs; gmeasure_from_cs inverts a consistent
(cosine-like, sine-like) pair back to the measure it came from.  Where the
hyperbolic kernels overflow a float, DomainError is raised.
"""

from __future__ import annotations

import math

from . import tolerance
from .errors import DomainError, InconsistentPair, PoleError


def _check_char(k: int) -> int:
    if k not in (-1, 0, 1):
        raise ValueError("characteristic must be one of -1, 0, 1")
    return k


def gcos(k: int, x: float) -> float:
    """Cosine-like kernel: cos(x), 1, or cosh(x) depending on k."""
    if k == 1:
        return math.cos(x)
    if k == 0:
        return 1.0
    _check_char(k)
    try:
        return math.cosh(x)
    except OverflowError:
        raise _overflow("cosh", x) from None


def gsin(k: int, x: float) -> float:
    """Sine-like kernel: sin(x), x, or sinh(x) depending on k."""
    if k == 1:
        return math.sin(x)
    if k == 0:
        return float(x)
    _check_char(k)
    try:
        return math.sinh(x)
    except OverflowError:
        raise _overflow("sinh", x) from None


def _overflow(name: str, x: float) -> DomainError:
    return DomainError("%s(%r) overflows a float" % (name, x))


def gtan(k: int, x: float) -> float:
    """Tangent-like kernel gsin/gcos; raises PoleError where gcos vanishes."""
    return _tan(k, x, gcos(k, x), gsin(k, x))


def _tan(k: int, x: float, c: float, s: float) -> float:
    """gtan(k, x) from c = gcos(k, x) and s = gsin(k, x), already evaluated."""
    if c == 0.0:
        raise PoleError("gtan pole at x = %r for k = %d" % (x, k))
    return s / c


def gmeasure_from_cs(k: int, c: float, s: float, tol: float = tolerance.PAIR) -> float:
    """Recover x >= 0 from c = gcos(k, x) and s = gsin(k, x) with s >= 0.

    The pair must satisfy c*c + k*s*s == 1 within tol (relative to the size
    of the terms); otherwise InconsistentPair is raised.  For k == -1 the
    inversion needs c + s > 0, else DomainError.  A non-finite c or s raises
    DomainError first: the consistency test cannot see one.  Principal
    ranges: [0, pi] for k == 1, [0, inf) otherwise.
    """
    if k not in (-1, 0, 1):  # _check_char, inlined on this per-row path
        raise ValueError("characteristic must be one of -1, 0, 1")
    if not (math.isfinite(c) and math.isfinite(s)):
        raise DomainError("pair (%r, %r) is not finite" % (c, s))
    if s < 0.0:
        if s < -tol:
            raise InconsistentPair("sine-like value must be nonnegative, got %r" % (s,))
        s = 0.0
    # scale = max(1, c^2, |k| s^2), compared out rather than through max()
    cc, ss = c * c, s * s
    scale = cc if cc > 1.0 else 1.0
    if k and ss > scale:
        scale = ss
    if abs(cc + k * ss - 1.0) > tol * scale:
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
    # log1p keeps precision when x is small and c + s is barely above 1; a
    # computed c just below 1 with s snapped to 0 would give x < 0 (or -0.0).
    x = math.log1p((c - 1.0) + s)
    return x if x > 0.0 else 0.0
