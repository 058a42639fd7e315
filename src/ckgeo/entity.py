"""Points on the unit shell and m-planes, with their weighted products.

A point is a vector x with x (.) x = sum K_i x_i^2 = 1.  An m-plane is the
column span of the first m+1 columns of a generalized orthogonal matrix,
represented by the (n+1) x (m+1) column matrix itself; products of planes are
computed from their maximal minors with the exact coefficient tables from
kernel.  Cross products whose radicand comes out negative are returned as an
Imaginary value carrying the magnitude, never as an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from . import kernel
from .errors import (
    DegenerateTriangle,
    DimensionMismatch,
    DomainError,
    GeometryError,
    NegativeNorm,
    OnAbsolute,
)

__all__ = [
    "Imaginary",
    "ProjPoint",
    "MPlane",
    "Space",
    "CrossValue",
]


@dataclass(frozen=True)
class Imaginary:
    """Magnitude of the square root of a negative radicand."""

    magnitude: float


CrossValue = Union[float, Imaginary]


def _as_vector(x) -> np.ndarray:
    if isinstance(x, ProjPoint):
        return x.coords
    return np.asarray(x, dtype=float)


class ProjPoint:
    """A representative vector of a point; construction does not normalize."""

    __slots__ = ("coords",)

    def __init__(self, coords):
        arr = np.array(coords, dtype=float)
        if arr.ndim != 1:
            raise DimensionMismatch("point coordinates must be a flat vector")
        arr.setflags(write=False)
        object.__setattr__(self, "coords", arr)

    def __setattr__(self, name, value):
        raise AttributeError("ProjPoint is immutable")

    @property
    def n(self) -> int:
        return len(self.coords) - 1

    def __iter__(self):
        return iter(self.coords)

    def __repr__(self):
        return "ProjPoint(%s)" % (list(self.coords),)


class MPlane:
    """An m-plane given by m+1 columns of a generalized orthogonal matrix.

    With validate=False the columns may also be a stack (N, n+1, m+1) of
    planes; products and measures of stacks work row by row.
    """

    __slots__ = ("space", "cols", "_minors")

    def __init__(self, space: "Space", cols, validate: bool = True, tol: float = 1e-8):
        arr = np.array(cols, dtype=float)
        if arr.ndim < 2 or (validate and arr.ndim != 2) or arr.shape[-2] != space.n + 1:
            raise DimensionMismatch(
                "plane columns must form an (n+1) x (m+1) matrix for this space"
                " (stacks of them only unvalidated)"
            )
        m = arr.shape[-1] - 1
        if not 0 < m < space.n:
            raise DimensionMismatch("plane dimension must satisfy 0 < m < n")
        arr.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "cols", arr)
        object.__setattr__(self, "_minors", None)
        if validate:
            space._check_plane_columns(self, tol)

    def __setattr__(self, name, value):
        raise AttributeError("MPlane is immutable")

    @property
    def m(self) -> int:
        return self.cols.shape[-1] - 1

    def minor_vector(self) -> np.ndarray:
        """Maximal minors in lexicographic row-tuple order (cached)."""
        if self._minors is None:
            rows = kernel.product_arrays(self.space.sig, self.m).rows
            vals = _det(self.cols[..., rows, :])
            vals.setflags(write=False)
            object.__setattr__(self, "_minors", vals)
        return self._minors

    def __repr__(self):
        return "MPlane(m=%d, space=%s)" % (self.m, kernel.format_signature(self.space.sig))


def _det(sub: np.ndarray) -> np.ndarray:
    """Determinants over the last two axes, by cofactors up to 3 x 3."""
    d = sub.shape[-1]
    if d == 2:
        return sub[..., 0, 0] * sub[..., 1, 1] - sub[..., 0, 1] * sub[..., 1, 0]
    if d == 3:
        return (
            sub[..., 0, 0] * (sub[..., 1, 1] * sub[..., 2, 2] - sub[..., 1, 2] * sub[..., 2, 1])
            - sub[..., 0, 1] * (sub[..., 1, 0] * sub[..., 2, 2] - sub[..., 1, 2] * sub[..., 2, 0])
            + sub[..., 0, 2] * (sub[..., 1, 0] * sub[..., 2, 1] - sub[..., 1, 1] * sub[..., 2, 0])
        )
    return np.linalg.det(sub)


class Space:
    """A Cayley-Klein space fixed by its signature of characteristics."""

    __slots__ = ("sig", "K", "_Karr", "_norm_weights")

    def __init__(self, sig):
        if isinstance(sig, str):
            chars = kernel.parse_signature(sig)
        else:
            chars = kernel.check_signature(sig)
        object.__setattr__(self, "sig", chars)
        object.__setattr__(self, "K", kernel.cumulative_products(chars))
        karr = np.array(self.K, dtype=float)
        karr.setflags(write=False)
        object.__setattr__(self, "_Karr", karr)
        # Columns K and |K|: a self-product and the size of its terms in one pass.
        object.__setattr__(self, "_norm_weights", np.column_stack([karr, np.abs(karr)]))

    def __setattr__(self, name, value):
        raise AttributeError("Space is immutable")

    @property
    def n(self) -> int:
        return len(self.sig)

    def __repr__(self):
        return "Space(%r)" % (kernel.format_signature(self.sig),)

    # -- points ---------------------------------------------------------

    def _vec(self, x) -> np.ndarray:
        arr = _as_vector(x)
        if arr.ndim == 0 or arr.shape[-1] != len(self.K):
            raise DimensionMismatch(
                "expected %d coordinates, got shape %s" % (self.n + 1, arr.shape)
            )
        return arr

    def dot_points(self, x, y):
        """Weighted dot product sum K_i x_i y_i; row-wise on (N, n+1) stacks."""
        return _scalar(kernel.product_arrays(self.sig, 0).dot(self._vec(x), self._vec(y)))

    def point_cross_radicand(self, x, y):
        """Signed sum of weighted squared minors under the point cross root."""
        rad, _ = kernel.product_arrays(self.sig, 0).cross(self._vec(x), self._vec(y))
        return _scalar(rad)

    def cross_points(self, x, y) -> CrossValue:
        """Point cross product magnitude, Imaginary-tagged if the radicand < 0.

        Radicands within roundoff of zero (relative to the accumulated term
        sizes) are snapped to zero rather than misclassified as imaginary.
        On (N, n+1) stacks the result is a complex array: real entries for
        real cross products, imaginary ones where the radicand is negative.
        """
        return _root(*kernel.product_arrays(self.sig, 0).cross(self._vec(x), self._vec(y)))

    def normalize(self, raw, tol: float = 1e-12):
        """Scale a raw vector onto the unit shell with a canonical sign.

        Raises DomainError when a coordinate is not finite, OnAbsolute when
        the self-product vanishes (within tol, relative to the absolute term
        sizes) and NegativeNorm when it is negative.  The representative is
        fixed so its first significant coordinate is > 0.  A stack of vectors
        (any leading axes) gives a read-only array of unit rows, or the error
        of its first bad row.
        """
        arr = self._vec(raw)
        points = rows = arr.reshape(-1, self.n + 1)
        if not np.isfinite(points).all():
            # Zeroed rows fail the norm test below; _norm_error names the culprit.
            rows = np.where(np.isfinite(points).all(axis=1, keepdims=True), points, 0.0)
        q, scale = np.vecmat(rows * rows, self._norm_weights).T
        limit = tol * np.maximum(1.0, scale)
        bad = q <= limit
        if bad.any():
            first = int(bad.argmax())
            raise _norm_error(points[first], float(q[first]), float(limit[first]))
        # Canonical sign: the first coordinate above 1e-12 of the peak is > 0.
        mags = np.abs(rows)
        lead = (mags > 1e-12 * mags.max(axis=1, keepdims=True)).argmax(axis=1)
        sign = np.where(rows[np.arange(len(rows)), lead] < 0.0, -1.0, 1.0)
        unit = rows / (sign * np.sqrt(q))[:, None]
        if arr.ndim == 1:
            return ProjPoint(unit[0])
        unit = unit.reshape(arr.shape)
        unit.setflags(write=False)
        return unit

    # -- planes ---------------------------------------------------------

    def plane(self, cols, validate: bool = True, tol: float = 1e-8) -> MPlane:
        return MPlane(self, cols, validate=validate, tol=tol)

    def _check_plane_columns(self, plane: MPlane, tol: float) -> None:
        """Necessary validity checks for plane columns.

        Verifies the pairwise column products c_i (.) c_j = K_i delta_ij and
        the unit normalization of the plane itself (which pins the column
        scale that the degenerate pairwise products cannot see).
        """
        cols = plane.cols
        for i in range(plane.m + 1):
            for j in range(i, plane.m + 1):
                want = self.K[i] if i == j else 0.0
                got = self.dot_points(cols[:, i], cols[:, j])
                mag = float(np.abs(cols[:, i]).max() * np.abs(cols[:, j]).max())
                if abs(got - want) > tol * max(1.0, mag * mag):
                    raise DimensionMismatch(
                        "columns %d,%d have product %r, expected %r" % (i, j, got, want)
                    )
        unit = self.dot_planes(plane, plane)
        if abs(unit - 1.0) > tol * max(1.0, abs(unit)):
            raise DimensionMismatch(
                "plane self-product is %r, expected 1 (bad column scale?)" % (unit,)
            )

    def dot_planes(self, X: MPlane, Y: MPlane):
        """Weighted dot product of two m-planes via their minors."""
        self._check_pair(X, Y)
        return _scalar(kernel.product_arrays(self.sig, X.m).dot(X.minor_vector(), Y.minor_vector()))

    def plane_cross_radicand(self, X: MPlane, Y: MPlane):
        return _scalar(self._plane_cross_terms(X, Y)[0])

    def cross_planes(self, X: MPlane, Y: MPlane) -> CrossValue:
        """Plane cross product magnitude, Imaginary-tagged on negative radicand."""
        return _root(*self._plane_cross_terms(X, Y))

    def _plane_cross_terms(self, X: MPlane, Y: MPlane):
        self._check_pair(X, Y)
        return kernel.product_arrays(self.sig, X.m).cross(X.minor_vector(), Y.minor_vector())

    def _check_pair(self, X: MPlane, Y: MPlane) -> None:
        if X.space.sig != self.sig or Y.space.sig != self.sig:
            raise DimensionMismatch("plane belongs to a different space")
        if X.m != Y.m:
            raise DimensionMismatch("planes of different dimension")

    # -- constructions ----------------------------------------------------

    def line_through(self, x: ProjPoint, y: ProjPoint) -> MPlane:
        """The line joining two unit points with real, nonzero separation.

        The second column is the direction of y seen from x, scaled by the
        point cross product; that scaling makes the line itself unit, which
        is the normalization plane columns need in every signature.
        """
        u = self.direction(x, y)
        return MPlane(self, np.column_stack([self._vec(x), u]))

    def direction(self, x: ProjPoint, y: ProjPoint) -> np.ndarray:
        """Unit direction vector at x pointing toward y; row-wise on stacks."""
        xv, yv = self._vec(x), self._vec(y)
        c, s = self.dot_points(xv, yv), self.cross_points(xv, yv)
        if isinstance(s, np.ndarray):
            usable = (s.imag == 0.0) & (s.real != 0.0)
            if usable.all():
                return (yv - c[..., None] * xv) / s.real[..., None]
            # The first pair without a direction raises its own error.
            first = np.unravel_index(np.argmin(usable), usable.shape)
            return self.direction(xv[first], yv[first])
        if isinstance(s, Imaginary) or s == 0.0:
            raise DegenerateTriangle(
                "no real unit direction between the given points (cross %r)" % (s,)
            )
        return (yv - c * xv) / s


def _scalar(value):
    """A plain float for one pair's product, the array itself for stacks."""
    return float(value) if value.ndim == 0 else value


def _root(rad, term_scale):
    """The square root of a cross radicand, snapped to 0 within roundoff.

    The snap window is 1e-12 of the term scale (at least 1e-12).  One
    radicand gives a float or an Imaginary; a stack gives a complex array
    with the same values.
    """
    if rad.ndim == 0:
        rad = float(rad)
        if rad >= -1e-12 * max(1.0, float(term_scale)):
            return math.sqrt(rad) if rad > 0.0 else 0.0
        return Imaginary(math.sqrt(-rad))
    real = rad >= -1e-12 * np.maximum(1.0, term_scale)
    # abs() turns the snap window and -0.0 into +0.0, a negative radicand into its magnitude.
    mag = np.sqrt(np.abs(np.where(real & (rad < 0.0), 0.0, rad)))
    return np.where(real, mag, 1j * mag)


def _norm_error(point: np.ndarray, q: float, limit: float) -> GeometryError:
    """The error normalize raises for a point it cannot scale to the shell."""
    for idx, value in enumerate(point):
        if not math.isfinite(value):
            return DomainError("coordinate %d is %r, not a finite number" % (idx, float(value)))
    if abs(q) <= limit:
        return OnAbsolute("vector lies on the absolute (self-product %r)" % (q,))
    return NegativeNorm("vector has negative self-product %r, no real unit scaling" % (q,), value=q)
