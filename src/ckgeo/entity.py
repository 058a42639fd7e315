"""Points on the unit shell and m-planes, with their weighted products.

A point is a float array whose last axis holds its n+1 coordinates, with
x (.) x = sum K_i x_i^2 = 1; the library returns points read-only, and one
row and a stack of rows go through the same products.  An m-plane is the
column span of the first m+1 columns of a generalized orthogonal matrix,
represented by the (n+1) x (m+1) column matrix itself; products of planes are
computed from their maximal minors with the exact coefficient tables from
kernel.  Cross products whose radicand comes out negative are returned as an
Imaginary value carrying the magnitude, never as an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from . import kernel, tolerance
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
    "MPlane",
    "Space",
    "CrossValue",
]


@dataclass(frozen=True)
class Imaginary:
    """Magnitude of the square root of a negative radicand."""

    magnitude: float


CrossValue = Union[float, Imaginary]


class MPlane:
    """An m-plane given by m+1 columns of a generalized orthogonal matrix.

    With validate=False the columns may also be a stack (N, n+1, m+1) of
    planes; products and measures of stacks work row by row.  A non-finite
    entry raises DomainError naming its index, before any product is formed.
    """

    __slots__ = ("space", "cols", "_minors")

    def __init__(self, space: "Space", cols, validate: bool = True):
        arr = _float_array(cols, "plane columns", copy=True)
        if arr.ndim < 2 or (validate and arr.ndim != 2) or arr.shape[-2] != space.n + 1:
            raise DimensionMismatch(
                "plane columns must form an (n+1) x (m+1) matrix for this space"
                " (stacks of them only unvalidated)"
            )
        m = arr.shape[-1] - 1
        if not 0 < m < space.n:
            raise DimensionMismatch("plane dimension must satisfy 0 < m < n")
        _require_finite(arr, "plane entry")
        arr.setflags(write=False)
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "cols", arr)
        object.__setattr__(self, "_minors", None)
        if validate:
            space._check_plane_columns(self)

    def __setattr__(self, name, value):
        raise AttributeError("MPlane is immutable")

    @property
    def m(self) -> int:
        return self.cols.shape[-1] - 1

    def minor_vector(self) -> np.ndarray:
        """Maximal minors in lexicographic row-tuple order (cached).

        A stack's minors are made C-contiguous: numpy's vecdot adds a row
        that is strided along the summed axis in another order than a
        contiguous one, so only then does each row of a plane stack give the
        product bits it gives alone.
        """
        if self._minors is None:
            rows = kernel.product_arrays(self.space.sig, self.m).rows
            vals = np.ascontiguousarray(_det(self.cols[..., rows, :]))
            vals.setflags(write=False)
            object.__setattr__(self, "_minors", vals)
        return self._minors

    def __repr__(self):
        return "MPlane(m=%d, space=%s)" % (self.m, kernel.format_signature(self.space.sig))


# Columns of the 2 x 2 cofactors of row 0 of a 3 x 3: entry j is
# sub[1, _COF_A[j]] * sub[2, _COF_B[j]] - sub[1, _COF_B[j]] * sub[2, _COF_A[j]].
_COF_A, _COF_B = np.array([1, 0, 0]), np.array([2, 2, 1])


def _det(sub: np.ndarray) -> np.ndarray:
    """Determinants over the last two axes, by cofactors up to 3 x 3.

    A 3 x 3 expands along row 0, a00 c0 - a01 c1 + a02 c2, as three array
    products: the cofactors' two terms, then row 0 times the cofactors.
    """
    d = sub.shape[-1]
    if d == 2:
        return sub[..., 0, 0] * sub[..., 1, 1] - sub[..., 0, 1] * sub[..., 1, 0]
    if d == 3:
        r1, r2 = sub[..., 1, :], sub[..., 2, :]
        a1, b1 = r1.take(_COF_A, axis=-1), r1.take(_COF_B, axis=-1)
        cof = a1 * r2.take(_COF_B, axis=-1) - b1 * r2.take(_COF_A, axis=-1)
        terms = sub[..., 0, :] * cof
        return terms[..., 0] - terms[..., 1] + terms[..., 2]
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
        K, karr, weights = _space_arrays(chars)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "_Karr", karr)
        object.__setattr__(self, "_norm_weights", weights)

    def __setattr__(self, name, value):
        raise AttributeError("Space is immutable")

    @property
    def n(self) -> int:
        return len(self.sig)

    def __repr__(self):
        return "Space(%r)" % (kernel.format_signature(self.sig),)

    # -- points ---------------------------------------------------------

    def _vec(self, x, name: str) -> np.ndarray:
        arr = _float_array(x, name)
        if arr.ndim == 0 or arr.shape[-1] != len(self.K):
            raise DimensionMismatch(
                "expected %d coordinates, got shape %s" % (self.n + 1, arr.shape)
            )
        return arr

    def dot_points(self, x, y):
        """Weighted dot product sum K_i x_i y_i; row-wise on (N, n+1) stacks."""
        return _scalar(kernel.product_arrays(self.sig, 0).dot(self._vec(x, "x"), self._vec(y, "y")))

    def _point_products(self, x, y):
        """Dot products and rooted cross products (see _root) of points, as arrays."""
        pa = kernel.product_arrays(self.sig, 0)
        xv, yv = self._vec(x, "x"), self._vec(y, "y")
        return pa.dot(xv, yv), _root(*pa.cross(xv, yv))

    def point_cross_radicand(self, x, y):
        """Signed sum of weighted squared minors under the point cross root."""
        rad, _ = kernel.product_arrays(self.sig, 0).cross(self._vec(x, "x"), self._vec(y, "y"))
        return _scalar(rad)

    def cross_points(self, x, y) -> CrossValue:
        """Point cross product magnitude, Imaginary-tagged if the radicand < 0.

        Radicands within roundoff of zero (relative to the accumulated term
        sizes) are snapped to zero rather than misclassified as imaginary.
        On (N, n+1) stacks the result is a complex array: real entries for
        real cross products, imaginary ones where the radicand is negative.
        """
        return _scalar(self._point_products(x, y)[1])

    def normalize(self, raw):
        """Scale a raw vector onto the unit shell with a canonical sign.

        Raises DomainError when a coordinate is not finite, OnAbsolute when
        the self-product vanishes (within tolerance.ABSOLUTE, relative to the
        absolute term sizes) and NegativeNorm when it is negative.  The
        representative is fixed so its first significant coordinate is > 0.
        A vector with a coordinate above tolerance.ENTRY_LIMIT in magnitude
        is divided by its largest one before squaring, and an error reports
        that vector's self-product.  One vector gives a read-only unit row
        and a stack of vectors (any leading axes) a read-only array of unit
        rows, or the error of its first bad row.
        """
        arr = self._vec(raw, "raw")
        points = rows = arr.reshape(-1, self.n + 1)
        if not np.isfinite(points).all():
            # Zeroed rows fail the norm test below; _norm_error names the culprit.
            rows = np.where(np.isfinite(points).all(axis=1, keepdims=True), points, 0.0)
        mags = np.abs(rows)
        peak = mags.max(axis=1, keepdims=True)
        huge = peak > tolerance.ENTRY_LIMIT
        if huge.any():
            # Their squares would overflow: such rows are measured divided by their peak.
            rows = rows / np.where(huge, peak, 1.0)
        q, scale = np.vecmat(rows * rows, self._norm_weights).T
        limit = tolerance.ABSOLUTE * np.maximum(1.0, scale)
        bad = q <= limit
        if bad.any():
            first = int(bad.argmax())
            raise _norm_error(points[first], float(q[first]), float(limit[first]))
        # Canonical sign: the first coordinate above SIGN_CUT of the peak is > 0.
        lead = (mags > tolerance.SIGN_CUT * peak).argmax(axis=1)
        sign = np.where(rows[np.arange(len(rows)), lead] < 0.0, -1.0, 1.0)
        unit = (rows / (sign * np.sqrt(q))[:, None]).reshape(arr.shape)
        unit.setflags(write=False)
        return unit

    # -- planes ---------------------------------------------------------

    def _check_plane_columns(self, plane: MPlane) -> None:
        """Necessary validity checks for plane columns.

        Verifies the pairwise column products c_i (.) c_j = K_i delta_ij and
        the unit normalization of the plane itself (which pins the column
        scale that the degenerate pairwise products cannot see).  The
        self-product squares minors of degree m+1 in the entries, so an entry
        above tolerance.ENTRY_LIMIT ** (1/(m+1)) in magnitude raises
        DomainError naming it, before any product is formed.
        """
        cols = plane.cols.T
        peak = np.abs(cols).max(axis=1)
        m = plane.m
        want, upper = _column_targets(self.sig, m)
        limit = 10.0 ** (math.log10(tolerance.ENTRY_LIMIT) / (m + 1))
        if max(peak.tolist()) > limit:  # a fifth of the cost of float(peak.max())
            _require_finite(plane.cols, "plane entry", limit)
        # Row i of the products is column i against every column; the checks
        # run over the upper triangle in row order, so the first failure is
        # the (i, j) a pairwise loop would meet first.
        got = self.dot_points(cols[:, None, :], cols[None, :, :])
        mag = peak[:, None] * peak[None, :]
        bad = upper & (np.abs(got - want) > tolerance.PLANE_COLUMNS * np.maximum(1.0, mag * mag))
        if bad.any():
            i, j = np.argwhere(bad)[0].tolist()
            raise DimensionMismatch(
                "columns %d,%d have product %r, expected %r"
                % (i, j, float(got[i, j]), self.K[i] if i == j else 0.0)
            )
        minors = plane.minor_vector()
        unit = float(kernel.product_arrays(self.sig, m).dot(minors, minors))
        if abs(unit - 1.0) > tolerance.PLANE_COLUMNS * max(1.0, abs(unit)):
            raise DimensionMismatch(
                "plane self-product is %r, expected 1 (bad column scale?)" % (unit,)
            )

    def dot_planes(self, X: MPlane, Y: MPlane):
        """Weighted dot product of two m-planes via their minors."""
        self._check_pair(X, Y)
        return _scalar(kernel.product_arrays(self.sig, X.m).dot(X.minor_vector(), Y.minor_vector()))

    def plane_cross_radicand(self, X: MPlane, Y: MPlane):
        self._check_pair(X, Y)
        rad, _ = kernel.product_arrays(self.sig, X.m).cross(X.minor_vector(), Y.minor_vector())
        return _scalar(rad)

    def cross_planes(self, X: MPlane, Y: MPlane) -> CrossValue:
        """Plane cross product magnitude, Imaginary-tagged on negative radicand."""
        return _scalar(self._plane_products(X, Y)[1])

    def _plane_products(self, X: MPlane, Y: MPlane):
        """Dot products and rooted cross products (see _root) of planes, as arrays."""
        self._check_pair(X, Y)
        pa = kernel.product_arrays(self.sig, X.m)
        x, y = X.minor_vector(), Y.minor_vector()
        return pa.dot(x, y), _root(*pa.cross(x, y))

    def _check_pair(self, X: MPlane, Y: MPlane) -> None:
        if X.space.sig != self.sig or Y.space.sig != self.sig:
            raise DimensionMismatch("plane belongs to a different space")
        if X.m != Y.m:
            raise DimensionMismatch("planes of different dimension")

    # -- constructions ----------------------------------------------------

    def line_through(self, x, y) -> MPlane:
        """The line joining two unit points with real, nonzero separation.

        The second column is the direction of y seen from x, scaled by the
        point cross product; that scaling makes the line itself unit, which
        is the normalization plane columns need in every signature.
        """
        u = self.direction(x, y)
        return MPlane(self, np.column_stack([self._vec(x, "x"), u]))

    def direction(self, x, y) -> np.ndarray:
        """Unit direction vector at x pointing toward y; row-wise on stacks.

        On a stack, the first pair without a real, nonzero cross product
        raises DegenerateTriangle with the error that pair raises alone.
        """
        xv, yv = self._vec(x, "x"), self._vec(y, "y")
        return _direction(xv, yv, *self._point_products(xv, yv))


def _direction(xv: np.ndarray, yv: np.ndarray, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Space.direction from the products (c, s) of its rows, already formed."""
    usable = (s.imag == 0.0) & (s.real != 0.0)
    if not usable.all():
        first = np.unravel_index(np.argmin(usable), usable.shape)
        raise DegenerateTriangle(
            "no real unit direction between the given points (cross %r)" % (_scalar(s[first]),)
        )
    return (yv - c[..., None] * xv) / s.real[..., None]


@lru_cache(maxsize=None)
def _space_arrays(sig):
    """K, K as a read-only array, and the read-only columns (K, |K|) that
    give a self-product and the size of its terms in one pass; built once
    per signature."""
    K = kernel.cumulative_products(sig)
    karr = np.array(K, dtype=float)
    weights = np.column_stack([karr, np.abs(karr)])
    karr.setflags(write=False)
    weights.setflags(write=False)
    return K, karr, weights


@lru_cache(maxsize=None)
def _column_targets(sig, m: int):
    """The column products a valid m-plane has, diag(K_0 .. K_m), and the
    mask of their upper triangle; read-only, built once per (signature, m)."""
    want = np.diag(np.array(kernel.cumulative_products(sig)[: m + 1], dtype=float))
    upper = ~np.tri(m + 1, k=-1, dtype=bool)
    want.setflags(write=False)
    upper.setflags(write=False)
    return want, upper


def _scalar(value):
    """One pair's product as a float, or as an Imaginary for a root with a
    nonzero imaginary part; a stack's products as the array itself."""
    if value.ndim:
        return value
    if value.imag:
        return Imaginary(float(value.imag))
    return float(value.real)


def _root(rad, term_scale):
    """The square roots of cross radicands, snapped to 0 within roundoff.

    The snap window is ROOT_SNAP of the term scale (at least ROOT_SNAP).  The
    result is a complex array: real entries for real cross products,
    imaginary ones (the magnitude times 1j) where the radicand is negative.
    """
    snap = (rad < 0.0) & (rad >= -tolerance.ROOT_SNAP * np.maximum(1.0, term_scale))
    # Adding 0j turns -0.0 into +0.0; the complex root of a negative x is +0 + sqrt(-x)j.
    return np.sqrt(np.where(snap, 0.0, rad) + 0j)


def _float_array(value, name: str, copy: bool = False) -> np.ndarray:
    """A public array argument as a float array (a copy when asked), or
    DimensionMismatch naming it where numpy cannot read it: a ragged
    nesting, or an entry that is not a number."""
    try:
        return np.array(value, dtype=float) if copy else np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch("%s is not an array of numbers (%s)" % (name, exc)) from None


def _require_finite(arr: np.ndarray, what: str, limit: float = math.inf) -> None:
    """Raise DomainError naming the first non-finite entry of arr, in index
    order, or else the first entry above limit in magnitude."""
    if not np.isfinite(arr).all():
        first = tuple(np.argwhere(~np.isfinite(arr))[0].tolist())
        raise DomainError("%s %s is %r, not a finite number" % (what, first, float(arr[first])))
    if limit < math.inf and (np.abs(arr) > limit).any():
        first = tuple(np.argwhere(np.abs(arr) > limit)[0].tolist())
        raise DomainError("%s %s is %r, above %r in magnitude" % (what, first, float(arr[first]), limit))


def _norm_error(point: np.ndarray, q: float, limit: float) -> GeometryError:
    """The error normalize raises for a point it cannot scale to the shell."""
    for idx, value in enumerate(point):
        if not math.isfinite(value):
            return DomainError("coordinate %d is %r, not a finite number" % (idx, float(value)))
    if abs(q) <= limit:
        return OnAbsolute("vector lies on the absolute (self-product %r)" % (q,))
    return NegativeNorm("vector has negative self-product %r, no real unit scaling" % (q,), value=q)
