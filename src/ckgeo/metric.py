"""Distances, angles, and the triangle law registry.

Measures pair the dot product (cosine-like) with the cross product
(sine-like) and invert through gmeasure_from_cs at the level's
characteristic: level 1 for point distances, level m+1 for angles between
m-planes.  A negative cross radicand yields an imaginary-tagged measure whose
value is extracted with the dual characteristic (-k), since swapping the sign
of the squared sine turns a circular pair into a hyperbolic one and back.

Triangles live in planar spaces (n = 2).  Angles alpha and gamma are interior
(between the outgoing rays at A and C); the angle at B is the exterior one,
between the continuation of AB past B and the ray toward C.  With that
convention one consistent set of sine, cosine, and tangent relations holds
across all nine planar signatures; the registry evaluates each relation as
printed in its source material together with a pattern-corrected variant
where the two disagree, and reports both residuals.  Each kernel value a
relation needs (cosine-, sine- and tangent-like, of a side or an angle) is
evaluated once per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

import numpy as np

from . import kernel, tolerance
from .entity import Imaginary, MPlane, Space, _direction, _require_finite, _root, _scalar
from .errors import (
    DegenerateTriangle,
    DimensionMismatch,
    DomainError,
    InconsistentPair,
    NoSolution,
)
from .gtrig import _tan, gcos, gmeasure_from_cs, gsin
from .transform import _block_cs, apply_point, block_kind, givens


@dataclass(frozen=True)
class Measure:
    """A nonnegative separation value with its level and reality kind."""

    value: float
    level: int
    kind: str = "real"

    def to_dict(self) -> dict:
        return {"phi": self.value, "level": self.level, "kind": self.kind}


@dataclass(frozen=True, eq=False)
class Measures:
    """The measures of a stack of pairs, in row order: read-only copies of
    the float values and of the bool mask of imaginary ones, at one level.

    len, indexing and iteration give each row as a Measure.
    """

    values: np.ndarray
    imaginary: np.ndarray
    level: int

    def __post_init__(self):
        for name, dtype in (("values", float), ("imaginary", bool)):
            arr = np.array(getattr(self, name), dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> Measure:
        return Measure(float(self.values[i]), self.level, "imaginary" if self.imaginary[i] else "real")

    def __iter__(self):
        for value, imaginary in zip(self.values.tolist(), self.imaginary.tolist()):
            yield Measure(value, self.level, "imaginary" if imaginary else "real")


def _measure_rows(k: int, c, s, level: int) -> list:
    """The Measure of each row of the products (c, s) of
    Space._point_products or _plane_products at characteristic k, in row
    order; the first row that cannot be measured raises."""
    return [
        Measure(gmeasure_from_cs(-k, abs(cv), sv.imag), level, "imaginary")
        if sv.imag
        else Measure(gmeasure_from_cs(k, cv, sv.real), level)
        for cv, sv in zip(np.ravel(c).tolist(), np.ravel(s).tolist())
    ]


def _measure_pair(k: int, c, s, level: int):
    """The measures of the products (c, s) as _measure_rows takes them: a
    Measure for a single pair (0-d arrays), Measures for a stack."""
    if not np.ndim(s):
        return _measure_rows(k, c, s, level)[0]
    values = [
        gmeasure_from_cs(-k, abs(cv), sv.imag) if sv.imag else gmeasure_from_cs(k, cv, sv.real)
        for cv, sv in zip(c.ravel().tolist(), s.ravel().tolist())
    ]
    # A nonzero imaginary part reads as True in the bool mask.
    return Measures(values, s.ravel().imag, level)


def distance(space: Space, x, y):
    """Level-1 measure between unit points.

    On two (N, n+1) stacks of unit points it gives the Measures of the N
    rows; the first pair that cannot be measured raises.
    """
    return _measure_pair(space.sig[0], *space._point_products(x, y), 1)


def identified_distance(space: Space, x, y):
    """Distance after antipodal identification; only defined when k_1 = 1.

    The primary distance lives on the double cover (representatives, not
    antipodal classes); this helper folds a real one to min(phi, pi - phi).
    An imaginary one is measured from |dot|, the same for both
    representatives, so it is already a class distance and is kept.  On two
    (N, n+1) stacks of unit points it gives the read-only array of the N
    folded values.
    """
    if space.sig[0] != 1:
        raise DomainError("antipodal identification needs k_1 = 1")
    d = distance(space, x, y)
    if isinstance(d, Measure):
        return min(d.value, math.pi - d.value) if d.kind == "real" else d.value
    folded = np.where(d.imaginary, d.values, np.minimum(d.values, math.pi - d.values))
    folded.setflags(write=False)
    return folded


def angle(space: Space, X: MPlane, Y: MPlane):
    """Level-(m+1) measure between two m-planes; the Measures of the rows
    when X and Y hold stacks of planes."""
    return _measure_pair(space.sig[X.m], *space._plane_products(X, Y), X.m + 1)


def is_parallel(space: Space, X: MPlane, Y: MPlane):
    """True when the cross product vanishes but the unit minor vectors differ
    beyond tolerance.FLAT up to sign (a zero one scales to NaNs, which
    differ); row by row on stacks, as a bool array."""
    s = space.cross_planes(X, Y)
    mag = s.magnitude if isinstance(s, Imaginary) else np.abs(s)
    mx, my = X.minor_vector(), Y.minor_vector()
    with np.errstate(divide="ignore", invalid="ignore"):
        a = mx / np.linalg.norm(mx, axis=-1, keepdims=True)
        b = my / np.linalg.norm(my, axis=-1, keepdims=True)
    same = np.minimum(np.abs(a - b).max(axis=-1), np.abs(a + b).max(axis=-1)) <= tolerance.FLAT
    parallel = (mag <= tolerance.FLAT) & ~same
    return parallel if parallel.ndim else bool(parallel)


def is_orthogonal(space: Space, X: MPlane, Y: MPlane) -> bool:
    """True when the dot product vanishes."""
    return abs(space.dot_planes(X, Y)) <= tolerance.FLAT


# -- triangles ------------------------------------------------------------


# Rows of the sides AB, AC, BC in the vertex stack [A, B, C].
_SIDE_FROM, _SIDE_TO = np.array([0, 0, 1]), np.array([1, 2, 2])
# The six ordered pairs AB, AC, BA, BC, CA, CB, and the side each one is.
_PAIR_FROM, _PAIR_TO = np.array([0, 0, 1, 1, 2, 2]), np.array([1, 2, 0, 2, 0, 1])
_PAIR_SIDE = np.array([0, 1, 0, 2, 1, 2])


@dataclass(frozen=True, eq=False)
class Triangle:
    """Three pairwise separated unit points in a planar (n = 2) space.

    A, B and C are stored as the read-only rows of one vertex array; a
    vertex that is not a single point of n+1 coordinates raises
    DimensionMismatch.  Construction forms the point cross products of the
    sides AB, AC and BC in one cross_points call and keeps them, with the
    side rows, for measure_triangle.  A side whose cross radicand is not
    finite raises DomainError; one whose cross product is not real and
    nonzero raises DegenerateTriangle (the first such side, in the order AB,
    AC, BC).
    """

    space: Space
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        sp = self.space
        if sp.n != 2:
            raise DimensionMismatch("triangles need a planar space (n = 2)")
        points = [sp._vec(p, "vertex " + name) for name, p in zip("ABC", (self.A, self.B, self.C))]
        if any(p.ndim != 1 for p in points):
            raise DimensionMismatch("a triangle vertex must be one point, not a stack")
        vertices = np.array(points)
        vertices.setflags(write=False)
        for name, row in zip("ABC", vertices):
            object.__setattr__(self, name, row)
        x, y = vertices.take(_SIDE_FROM, axis=0), vertices.take(_SIDE_TO, axis=0)
        with np.errstate(over="ignore", invalid="ignore"):
            roots = sp.cross_points(x, y)
            # Real, nonzero and finite: an imaginary root has real part +0.0, a NaN one NaN.
            usable = [0.0 < r < math.inf for r in roots.real.tolist()]
            if not all(usable):
                first = usable.index(False)
                side = ("AB", "AC", "BC")[first]
                # A radicand of -inf (its term scale is inf) is snapped to a 0.0 root.
                rad, _ = kernel.product_arrays(sp.sig, 0).cross(x[first], y[first])
                if not math.isfinite(rad):
                    raise DomainError(
                        "side %s has cross radicand %r, not a finite number" % (side, float(rad))
                    )
                raise DegenerateTriangle(
                    "side %s has cross product %r (needs real and nonzero)"
                    % (side, _scalar(roots[first]))
                )
        object.__setattr__(self, "_sides", (vertices, x, y, roots))


@dataclass(frozen=True)
class TriangleMeasurements:
    a: Measure
    b: Measure
    c: Measure
    alpha: Measure
    beta_prime: Measure
    gamma: Measure

    def all_real(self) -> bool:
        return all(
            m.kind == "real"
            for m in (self.a, self.b, self.c, self.alpha, self.beta_prime, self.gamma)
        )

    def to_dict(self) -> dict:
        return {
            "a": self.a.value,
            "b": self.b.value,
            "c": self.c.value,
            "alpha": self.alpha.value,
            "beta_prime": self.beta_prime.value,
            "gamma": self.gamma.value,
        }


def triangle_from_sas(space: Space, b: float, alpha: float, c: float) -> Triangle:
    """Triangle with A at the base point, side c along axis 1, angle alpha at A.

    B is the base point moved distance c along the first coordinate geodesic;
    C is moved distance b along the same geodesic and then rotated by alpha
    around A in the (1, 2) block.  The coordinates are written out from the
    block kernels, B = (Cc, Sc, 0) and C = (Cb, Ca Sb, Sa Sb), with the bits
    that applying givens(0, 1, c) and compose(givens(1, 2, alpha),
    givens(0, 1, b)) to A give where those are finite: the matrix products
    add exact zeros, which turn a -0.0 into +0.0.  The parameters are taken
    in the order c, alpha, b, so a non-finite or overflowing one raises the
    DomainError givens raises.  A coordinate of B (row 0) or C (row 1) above
    tolerance.ENTRY_LIMIT in magnitude, or not finite, raises DomainError
    naming it, before any product is formed.
    """
    if space.n != 2:
        raise DimensionMismatch("SAS construction needs a planar space")
    axis, turn = block_kind(space, 0, 1), block_kind(space, 1, 2)
    Cc, Sc = _block_cs(axis, c)
    Ca, Sa = _block_cs(turn, alpha)
    Cb, Sb = _block_cs(axis, b)
    # Cc and Cb are never zero; a product may overflow to inf, never to NaN.
    B, C = [Cc, Sc + 0.0, 0.0], [Cb, Ca * Sb + 0.0, Sa * Sb + 0.0]
    # The plain-float test (false for NaN) costs a fifth of _require_finite, which names the entry.
    if not all(abs(v) <= tolerance.ENTRY_LIMIT for v in B + C):
        _require_finite(np.array([B, C]), "vertex coordinate", tolerance.ENTRY_LIMIT)
    return Triangle(space, [1.0, 0.0, 0.0], B, C)


def _angles_between_rays(space: Space, vertices, rays) -> list:
    """Level-2 measures between the lines (vertex, u) and (vertex, v) of the
    rays u = rays[r, 0] and v = rays[r, 1] at each vertex r; the first pair
    that cannot be measured raises.

    A line's minors are V_i U_j - U_i V_j over the row pairs (i, j) of
    product_arrays(sig, 1), the arithmetic MPlane.minor_vector does on each
    2 x 2, so the measures have the bits angle() gives on the lines as
    MPlanes.  A non-finite entry raises the DomainError those MPlanes raise.
    """
    if not np.isfinite(rays).all():
        for side in (0, 1):
            _require_finite(np.stack([vertices, rays[:, side]], axis=-1), "plane entry")
    pa = kernel.product_arrays(space.sig, 1)
    i, j = pa.rows.T
    at = vertices[:, None, :]
    minors = at.take(i, axis=-1) * rays.take(j, axis=-1) - rays.take(i, axis=-1) * at.take(j, axis=-1)
    x, y = minors[:, 0], minors[:, 1]
    return _measure_rows(space.sig[1], pa.dot(x, y), _root(*pa.cross(x, y)), 2)


def measure_triangle(tri: Triangle) -> TriangleMeasurements:
    """Measure the three sides and the alpha, beta', gamma angles.

    Sides are level-1 measures (real by the Triangle invariant).  Angles are
    level-2 measures between oriented rays and may come back imaginary; pairs
    of rays that are not jointly measurable at all (opposite branches) raise
    InconsistentPair or DomainError, which callers treat as a labeling or
    configuration problem rather than a numeric one.

    The cross products are the ones Triangle formed; the dot products of the
    same three side rows are one more pass.  Point weights and cross
    coefficients are all -1, 0 or 1, so both products of (y, x) have the bits
    of those of (x, y), and the six ordered pairs that give the rays reuse
    the sides' products.  The angles are one plane product pass over the
    rays' lines (see _angles_between_rays).  An overflow leaves an inf or NaN
    product, which the measure of its pair refuses with DomainError.
    """
    sp = tri.space
    vertices, x, y, roots = tri._sides
    with np.errstate(over="ignore", invalid="ignore"):
        dots = kernel.product_arrays(sp.sig, 0).dot(x, y)
        # Rows BC, AC, AB: the sides a, b, c.
        a, b, c = _measure_rows(sp.sig[0], dots[::-1], roots[::-1], 1)
        # Rays toward B and C at A, toward A and C at B, toward A and B at C;
        # the Triangle invariant keeps every one real.
        rays = _direction(
            vertices.take(_PAIR_FROM, axis=0),
            vertices.take(_PAIR_TO, axis=0),
            dots.take(_PAIR_SIDE),
            roots.take(_PAIR_SIDE),
        )
        # Exterior convention at B: continue the AB geodesic past B.
        rays[2] = -rays[2]
        alpha, beta_prime, gamma = _angles_between_rays(sp, vertices, rays.reshape(3, 2, 3))
    return TriangleMeasurements(a, b, c, alpha, beta_prime, gamma)


def triangle_area(space: Space, tm: TriangleMeasurements) -> float:
    """Native area, the value mc_volume estimates: with the exterior angle beta'
    at B, (alpha + gamma - beta') / k1 when k1 != 0, else b c gsin(k2, alpha) / 2
    (Herranz, Ortega, Santander, J. Phys. A 33 (2000) 4525)."""
    if space.n != 2:
        raise DimensionMismatch("triangle area applies to planar spaces")
    if not tm.all_real():
        raise DomainError("triangle area needs all measures real")
    k1, k2 = space.sig
    if k1 != 0:
        return (tm.alpha.value + tm.gamma.value - tm.beta_prime.value) / k1
    return 0.5 * tm.b.value * tm.c.value * gsin(k2, tm.alpha.value)


# -- law registry ----------------------------------------------------------

LAW_KEYS = tuple("eq%d" % i for i in range(13, 26))
DISPUTED_LAWS = ("eq19", "eq20", "eq21", "eq22", "eq23", "eq24", "eq25")


@dataclass(frozen=True)
class LawReport:
    """Residuals per law; disputed laws carry both printed and variant values."""

    residuals: Dict[str, float]
    variant_values: Dict[str, Dict[str, float]]
    variants: Dict[str, str]

    def to_dict(self) -> dict:
        return {
            "residuals": dict(self.residuals),
            "variants": dict(self.variants),
            "variant_values": {k: dict(v) for k, v in self.variant_values.items()},
        }


def _rel(lhs: float, rhs: float) -> float:
    """Difference scaled by the larger magnitude; exact laws stay near eps
    even where tangents run to their poles."""
    # scale = max(1, |lhs|, |rhs|), compared out rather than through max(),
    # which skips a NaN the same way
    scale, left, right = 1.0, abs(lhs), abs(rhs)
    if left > scale:
        scale = left
    if right > scale:
        scale = right
    return abs(lhs - rhs) / scale


def _require_finite_reading(key: str, reading: str, value: float) -> None:
    if not math.isfinite(value):
        raise DomainError("%s %s is %r, not a finite number" % (key, reading, value))


def _record(report: LawReport, key: str, printed: float, corrected: float) -> None:
    """Enter a disputed law's two readings, its winner and the smaller residual."""
    _require_finite_reading(key, "as-printed", printed)
    _require_finite_reading(key, "corrected", corrected)
    report.variant_values[key] = {"as-printed": printed, "corrected": corrected}
    if math.isclose(printed, corrected, rel_tol=tolerance.TIE_REL, abs_tol=tolerance.TIE_ABS):
        report.variants[key] = "tie"
    else:
        report.variants[key] = "as-printed" if printed < corrected else "corrected"
    report.residuals[key] = min(printed, corrected)


def _tangent_law(k12, klevel, lhs, t1, t2, cos_other, sin_printed, sin_corrected, sign):
    """Shared shape of eq20-eq25: squared tangent against the two-term
    expansion, read with the printed and the corrected sine in the quartic
    term, whose coefficient is k12 = k1 k2; klevel is the characteristic
    whose tangents appear in the denominator.  The two sides are compared
    as ratios both ways round, so the relation stays checkable where the
    tangents run to poles and both sides diverge together."""
    num = t1 * t1 + t2 * t2 + sign * 2.0 * t1 * t2 * cos_other
    den = 1.0 - sign * klevel * t1 * t2 * cos_other
    u = lhs * lhs
    if not k12:
        # The coefficient is an exact integer; where it is 0 the term is not
        # formed, since 0 * inf would be NaN.
        resid = _tangent_resid(u, num, den)
        return resid, resid
    quartic = k12 * t1 * t1 * t2 * t2
    return (
        _tangent_resid(u, num + quartic * (sin_printed * sin_printed), den),
        _tangent_resid(u, num + quartic * (sin_corrected * sin_corrected), den),
    )


def _tangent_resid(u: float, num: float, den: float) -> float:
    """The smaller of u against num / den^2 and 1/u against den^2 / num,
    each formed only where its divisor is nonzero; inf when neither is."""
    best = math.inf
    if den != 0.0:
        best = _rel(u, num / (den * den))
    if u != 0.0 and num != 0.0:
        best = min(best, _rel(1.0 / u, den * den / num))
    return best


def law_residuals(space: Space, tm: TriangleMeasurements) -> LawReport:
    """Evaluate the thirteen planar triangle relations on real measurements.

    eq13 is the sine relation (as pairwise cross differences), eq14-eq16 the
    side cosine relations, eq17-eq19 the angle cosine relations, eq20-eq22
    the side tangent relations, eq23-eq25 the angle tangent relations.  For
    eq19 the printed form closes with the cosine of side a while the cyclic
    pattern calls for side c; for the tangent relations the printed quartic
    term mixes levels.  Both readings are evaluated; the residual reported
    under the plain key is the smaller one and `variants` names the winner
    ("tie" when they agree to within roundoff).  The 24 kernel values are
    each evaluated once, in the order of their first use in the relations,
    so an overflow raises the error the relations meet first.  After that, a
    residual or variant reading that is not finite (a product overflowed)
    raises DomainError naming the first such relation, so no NaN or inf is
    reported and none can win a vote.
    """
    if space.n != 2:
        raise DimensionMismatch("law registry applies to planar spaces")
    if not tm.all_real():
        raise DomainError("law evaluation needs all measures real")
    k1, k2 = space.sig
    a, b, c = tm.a.value, tm.b.value, tm.c.value
    al, bp, ga = tm.alpha.value, tm.beta_prime.value, tm.gamma.value

    # Sides at k1 and angles at k2 by name (not by value: 0.0 == -0.0); the
    # mixed quartic terms need sines of the angles at k1 and of the sides at k2.
    Sa, Sbp, Sb = gsin(k1, a), gsin(k2, bp), gsin(k1, b)
    Sal, Sga, Sc = gsin(k2, al), gsin(k2, ga), gsin(k1, c)
    Ca, Cb, Cc = gcos(k1, a), gcos(k1, b), gcos(k1, c)
    Cal, Cbp, Cga = gcos(k2, al), gcos(k2, bp), gcos(k2, ga)
    Ta, Tb, Tc = _tan(k1, a, Ca, Sa), _tan(k1, b, Cb, Sb), _tan(k1, c, Cc, Sc)
    S1al, S1bp, S1ga = gsin(k1, al), gsin(k1, bp), gsin(k1, ga)
    Tal, Tbp, Tga = _tan(k2, al, Cal, Sal), _tan(k2, bp, Cbp, Sbp), _tan(k2, ga, Cga, Sga)
    S2a, S2b, S2c = gsin(k2, a), gsin(k2, b), gsin(k2, c)

    report = LawReport({}, {}, {})
    residuals = report.residuals
    residuals["eq13"] = max(
        _rel(Sa * Sbp, Sb * Sal),
        _rel(Sa * Sga, Sc * Sal),
        _rel(Sb * Sga, Sc * Sbp),
    )
    residuals["eq14"] = _rel(Ca, Cb * Cc + k1 * Sb * Sc * Cal)
    residuals["eq15"] = _rel(Cb, Ca * Cc - k1 * Sa * Sc * Cbp)
    residuals["eq16"] = _rel(Cc, Ca * Cb + k1 * Sa * Sb * Cga)
    residuals["eq17"] = _rel(Cal, Cbp * Cga + k2 * Sbp * Sga * Ca)
    residuals["eq18"] = _rel(Cbp, Cal * Cga - k2 * Sal * Sga * Cb)
    for key, value in residuals.items():
        _require_finite_reading(key, "residual", value)

    k12 = k1 * k2
    _record(
        report,
        "eq19",
        _rel(Cga, Cal * Cbp + k2 * Sal * Sbp * Ca),
        _rel(Cga, Cal * Cbp + k2 * Sal * Sbp * Cc),
    )
    _record(report, "eq20", *_tangent_law(k12, k1, Ta, Tb, Tc, Cal, S1al, Sal, -1.0))
    _record(report, "eq21", *_tangent_law(k12, k1, Tb, Ta, Tc, Cbp, S1bp, Sbp, +1.0))
    _record(report, "eq22", *_tangent_law(k12, k1, Tc, Ta, Tb, Cga, S1ga, Sga, -1.0))
    _record(report, "eq23", *_tangent_law(k12, k2, Tal, Tbp, Tga, Ca, Sa, S2a, -1.0))
    _record(report, "eq24", *_tangent_law(k12, k2, Tbp, Tal, Tga, Cb, Sb, S2b, +1.0))
    _record(report, "eq25", *_tangent_law(k12, k2, Tga, Tal, Tbp, Cc, Sc, S2c, -1.0))
    return report


# -- right triangles --------------------------------------------------------


@dataclass(frozen=True)
class RightTriangleReport:
    a: float
    b: float
    c: float
    alpha: float
    beta: float
    residuals: Dict[str, float]

    def to_dict(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "c": self.c,
            "alpha": self.alpha,
            "beta": self.beta,
            "residuals": dict(self.residuals),
        }


def right_triangle_residuals(space: Space, a: float, b: float) -> RightTriangleReport:
    """Build legs a, b at a right angle (needs k_2 = 1) and check the identities.

    The right-angle vertex sits at the base point with the legs along the two
    coordinate geodesics; the hypotenuse c and the acute angles alpha (at the
    end of leg b, opposite a) and beta (opposite b) are measured, then the ten
    closed relations eq26-eq35 are evaluated as residuals.
    """
    if space.n != 2:
        raise DimensionMismatch("right triangle construction needs n = 2")
    k1, k2 = space.sig
    if k2 != 1:
        raise DomainError("right triangle identities need k_2 = 1")
    V_C = np.array([1.0, 0.0, 0.0])
    V_A = apply_point(givens(space, 0, 1, b), V_C)
    V_B = apply_point(givens(space, 0, 2, a), V_C)

    # An overflow leaves an inf or NaN product, which the measure of its pair
    # refuses; the legs' own distances below cannot overflow if these did not.
    with np.errstate(over="ignore", invalid="ignore"):
        c = distance(space, V_A, V_B).value
        vertices = np.array([V_A, V_B])
        u = space.direction(vertices, np.array([V_C, V_C]))
        v = space.direction(vertices, np.array([V_B, V_A]))
        alpha, beta = _angles_between_rays(space, vertices, np.stack([u, v], axis=1))
    if alpha.kind != "real" or beta.kind != "real":
        raise DomainError("right triangle angles came back imaginary")
    al, be = alpha.value, beta.value

    # Each kernel value once, in the order the relations below first use it;
    # no float has gcos = 0, so the tangents' pole checks may come last.
    Cc, Sc, Ca, Sa = gcos(k1, c), gsin(k1, c), gcos(k1, a), gsin(k1, a)
    Cb, Sb = gcos(k1, b), gsin(k1, b)
    Tc, Ta, Tb = _tan(k1, c, Cc, Sc), _tan(k1, a, Ca, Sa), _tan(k1, b, Cb, Sb)
    cos_al, sin_al, tan_al = math.cos(al), math.sin(al), math.tan(al)
    cos_be, sin_be, tan_be = math.cos(be), math.sin(be), math.tan(be)

    r: Dict[str, float] = {}
    r["eq26"] = _rel(Tc ** 2, Ta ** 2 + Tb ** 2 + k1 * Ta ** 2 * Tb ** 2)
    r["eq27"] = _rel(Tb, Tc * cos_al)
    r["eq28"] = _rel(Ta, Tc * cos_be)
    r["eq29"] = _rel(Sa, Sc * sin_al)
    r["eq30"] = _rel(Sb, Sc * sin_be)
    r["eq31"] = _rel(Ta, Sb * tan_al)
    r["eq32"] = _rel(Tb, Sa * tan_be)
    r["eq33"] = _rel(cos_al, Ca * sin_be)
    r["eq34"] = _rel(cos_be, Cb * sin_al)
    r["eq35"] = _rel(Cc, (cos_al / sin_al) * (cos_be / sin_be))

    meas_a = distance(space, V_C, V_B).value
    meas_b = distance(space, V_C, V_A).value
    return RightTriangleReport(meas_a, meas_b, c, al, be, r)


# -- SAS solver --------------------------------------------------------------


def solve_sas(space: Space, b: float, alpha: float, c: float) -> TriangleMeasurements:
    """Solve a planar triangle from sides b, c and the included angle alpha.

    Works entirely through the law registry: the side cosine relation when
    k_1 is nonzero, its tangent-form degeneration when k_1 = 0, then the
    remaining angles via the sine relation with cosines supplied by the other
    cosine relations.  Raises NoSolution when an inversion leaves the range
    of the governing pair, or a derived cosine would divide by a zero sine
    (a side of length 0, or sines whose product underflows).
    """
    if space.n != 2:
        raise DimensionMismatch("SAS solver applies to planar spaces")
    k1, k2 = space.sig
    C2al, S2al = gcos(k2, alpha), gsin(k2, alpha)

    try:
        if k1 != 0:
            C1b, C1c, S1b, S1c = gcos(k1, b), gcos(k1, c), gsin(k1, b), gsin(k1, c)
            a = _invert_c(k1, C1b * C1c + k1 * S1b * S1c * C2al)
        else:
            rad = b * b + c * c - 2.0 * b * c * C2al
            if rad < 0.0:
                raise NoSolution("squared side came out negative (%r)" % (rad,))
            a = math.sqrt(rad)
            S1b, S1c = gsin(k1, b), gsin(k1, c)
        S1a = gsin(k1, a)
        if S1a == 0.0:
            raise NoSolution("degenerate solved side a = %r" % (a,))
        S2bp = S1b * S2al / S1a
        S2ga = S1c * S2al / S1a
        if k1 != 0:
            C1a_ = gcos(k1, a)
            C2bp = (C1a_ * C1c - C1b) / (k1 * S1a * S1c)
            C2ga = (C1c - C1a_ * C1b) / (k1 * S1a * S1b)
        else:
            C2bp = (b * b - a * a - c * c) / (2.0 * a * c)
            C2ga = (a * a + b * b - c * c) / (2.0 * a * b)
        # Derived pairs accumulate cancellation error; loosen only the
        # consistency check, never the sign/range rules.
        beta_prime = gmeasure_from_cs(k2, C2bp, S2bp, tolerance.DERIVED_PAIR)
        gamma = gmeasure_from_cs(k2, C2ga, S2ga, tolerance.DERIVED_PAIR)
    except (InconsistentPair, DomainError, ZeroDivisionError) as exc:
        raise NoSolution("triangle relations have no consistent solution: %s" % exc) from exc

    return TriangleMeasurements(
        a=Measure(a, 1),
        b=Measure(float(b), 1),
        c=Measure(float(c), 1),
        alpha=Measure(float(alpha), 2),
        beta_prime=Measure(beta_prime, 2),
        gamma=Measure(gamma, 2),
    )


def _invert_c(k: int, cval: float) -> float:
    """Invert a cosine-like value to its measure, checking the range."""
    if k == 1:
        if abs(cval) > 1.0 + tolerance.SAS_RANGE:
            raise NoSolution("cosine value %r outside [-1, 1]" % (cval,))
        return math.acos(max(-1.0, min(1.0, cval)))
    if cval < 1.0 - tolerance.SAS_RANGE:
        raise NoSolution("hyperbolic cosine value %r below 1" % (cval,))
    return math.acosh(max(1.0, cval))
