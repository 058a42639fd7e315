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
where the two disagree, and reports both residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .entity import Imaginary, MPlane, ProjPoint, Space
from .errors import (
    DegenerateTriangle,
    DimensionMismatch,
    DomainError,
    InconsistentPair,
    NoSolution,
)
from .gtrig import gcos, gmeasure_from_cs, gsin, gtan
from .transform import apply_point, compose, givens


@dataclass(frozen=True)
class Measure:
    """A nonnegative separation value with its level and reality kind."""

    value: float
    level: int
    kind: str = "real"

    def to_dict(self) -> dict:
        return {"phi": self.value, "level": self.level, "kind": self.kind}


def _measure_pair(k: int, c, s, level: int, tol: float):
    if isinstance(s, np.ndarray):
        imaginary = s.imag != 0.0
        phi = gmeasure_from_cs(
            np.where(imaginary, -k, k), np.where(imaginary, np.abs(c), c), np.abs(s), tol
        )
        kinds = np.where(imaginary, "imaginary", "real")
        return [Measure(v, level, kind) for v, kind in zip(phi.tolist(), kinds.tolist())]
    if isinstance(s, Imaginary):
        value = gmeasure_from_cs(-k, abs(c), s.magnitude, tol)
        return Measure(value, level, "imaginary")
    return Measure(gmeasure_from_cs(k, c, s, tol), level, "real")


def distance(space: Space, x: ProjPoint, y: ProjPoint, tol: float = 1e-9):
    """Level-1 measure between unit points.

    On two (N, n+1) stacks of unit points it gives the list of the N
    row-wise measures; the first pair that cannot be measured raises.
    """
    c = space.dot_points(x, y)
    s = space.cross_points(x, y)
    return _measure_pair(space.sig[0], c, s, 1, tol)


def identified_distance(space: Space, x: ProjPoint, y: ProjPoint, tol: float = 1e-9) -> float:
    """Distance after antipodal identification; only defined when k_1 = 1.

    The primary distance lives on the double cover (representatives, not
    antipodal classes); this helper folds it to min(phi, pi - phi).
    """
    if space.sig[0] != 1:
        raise DomainError("antipodal identification needs k_1 = 1")
    phi = distance(space, x, y, tol).value
    return min(phi, math.pi - phi)


def angle(space: Space, X: MPlane, Y: MPlane, tol: float = 1e-9):
    """Level-(m+1) measure between two m-planes; the list of row-wise
    measures when X and Y hold stacks of planes."""
    c = space.dot_planes(X, Y)
    s = space.cross_planes(X, Y)
    level = X.m + 1
    return _measure_pair(space.sig[X.m], c, s, level, tol)


def _same_span(X: MPlane, Y: MPlane, tol: float) -> bool:
    mx, my = X.minor_vector(), Y.minor_vector()
    nx, ny = float(np.linalg.norm(mx)), float(np.linalg.norm(my))
    if nx == 0.0 or ny == 0.0:
        return False
    a, b = mx / nx, my / ny
    return bool(min(np.abs(a - b).max(), np.abs(a + b).max()) <= tol)


def is_parallel(space: Space, X: MPlane, Y: MPlane, tol: float = 1e-9) -> bool:
    """True when the cross product vanishes but the spans differ."""
    space._check_pair(X, Y)
    s = space.cross_planes(X, Y)
    mag = s.magnitude if isinstance(s, Imaginary) else s
    return mag <= tol and not _same_span(X, Y, tol)


def is_orthogonal(space: Space, X: MPlane, Y: MPlane, tol: float = 1e-9) -> bool:
    """True when the dot product vanishes."""
    space._check_pair(X, Y)
    return abs(space.dot_planes(X, Y)) <= tol


# -- triangles ------------------------------------------------------------


@dataclass(frozen=True)
class Triangle:
    """Three pairwise separated unit points in a planar (n = 2) space."""

    space: Space
    A: ProjPoint
    B: ProjPoint
    C: ProjPoint

    def __post_init__(self):
        if self.space.n != 2:
            raise DimensionMismatch("triangles need a planar space (n = 2)")
        for p, q, name in (
            (self.A, self.B, "AB"),
            (self.A, self.C, "AC"),
            (self.B, self.C, "BC"),
        ):
            s = self.space.cross_points(p, q)
            if isinstance(s, Imaginary) or s == 0.0:
                raise DegenerateTriangle(
                    "side %s has cross product %r (needs real and nonzero)" % (name, s)
                )


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
    around A in the (1, 2) block.
    """
    if space.n != 2:
        raise DimensionMismatch("SAS construction needs a planar space")
    base = np.zeros(space.n + 1)
    base[0] = 1.0
    A = ProjPoint(base)
    B = apply_point(givens(space, 0, 1, c), A)
    C = apply_point(compose(givens(space, 1, 2, alpha), givens(space, 0, 1, b)), A)
    return Triangle(space, A, B, C)


def _ray_angles(space: Space, vertices, u, v, tol: float) -> list:
    """Angles between the rays (vertex, u) and (vertex, v) of each row, as
    one stack of lines; the first pair that cannot be measured raises."""
    X = MPlane(space, np.stack([vertices, u], axis=-1), validate=False)
    Y = MPlane(space, np.stack([vertices, v], axis=-1), validate=False)
    return angle(space, X, Y, tol)


def measure_triangle(tri: Triangle, tol: float = 1e-9) -> TriangleMeasurements:
    """Measure the three sides and the alpha, beta', gamma angles.

    Sides are level-1 measures (real by the Triangle invariant).  Angles are
    level-2 measures between oriented rays and may come back imaginary; pairs
    of rays that are not jointly measurable at all (opposite branches) raise
    InconsistentPair or DomainError, which callers treat as a labeling or
    configuration problem rather than a numeric one.
    """
    sp = tri.space
    a = distance(sp, tri.B, tri.C, tol)
    b = distance(sp, tri.A, tri.C, tol)
    c = distance(sp, tri.A, tri.B, tol)
    # The six rays in one batch; the Triangle invariant keeps every one real.
    A, B, C = tri.A.coords, tri.B.coords, tri.C.coords
    to_B, to_C, to_A_at_B, toward_C, to_A, to_B2 = sp.direction(
        np.array([A, A, B, B, C, C]), np.array([B, C, A, C, A, B])
    )
    # Exterior convention at B: continue the AB geodesic past B.
    alpha, beta_prime, gamma = _ray_angles(
        sp, np.array([A, B, C]), np.array([to_B, -to_A_at_B, to_A]), np.array([to_C, toward_C, to_B2]), tol
    )
    return TriangleMeasurements(a, b, c, alpha, beta_prime, gamma)


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
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def law_residuals(space: Space, tm: TriangleMeasurements) -> LawReport:
    """Evaluate the thirteen planar triangle relations on real measurements.

    eq13 is the sine relation (as pairwise cross differences), eq14-eq16 the
    side cosine relations, eq17-eq19 the angle cosine relations, eq20-eq22
    the side tangent relations, eq23-eq25 the angle tangent relations.  For
    eq19 the printed form closes with the cosine of side a while the cyclic
    pattern calls for side c; for the tangent relations the printed quartic
    term mixes levels.  Both readings are evaluated; the residual reported
    under the plain key is the smaller one and `variants` names the winner
    ("tie" when they agree to within roundoff).
    """
    if space.n != 2:
        raise DimensionMismatch("law registry applies to planar spaces")
    if not tm.all_real():
        raise DomainError("law evaluation needs all measures real")
    k1, k2 = space.sig
    a, b, c = tm.a.value, tm.b.value, tm.c.value
    al, bp, ga = tm.alpha.value, tm.beta_prime.value, tm.gamma.value

    C1, S1 = (lambda v: gcos(k1, v)), (lambda v: gsin(k1, v))
    C2, S2 = (lambda v: gcos(k2, v)), (lambda v: gsin(k2, v))
    T1, T2 = (lambda v: gtan(k1, v)), (lambda v: gtan(k2, v))

    residuals: Dict[str, float] = {}
    variant_values: Dict[str, Dict[str, float]] = {}
    variants: Dict[str, str] = {}

    residuals["eq13"] = max(
        _rel(S1(a) * S2(bp), S1(b) * S2(al)),
        _rel(S1(a) * S2(ga), S1(c) * S2(al)),
        _rel(S1(b) * S2(ga), S1(c) * S2(bp)),
    )
    residuals["eq14"] = _rel(C1(a), C1(b) * C1(c) + k1 * S1(b) * S1(c) * C2(al))
    residuals["eq15"] = _rel(C1(b), C1(a) * C1(c) - k1 * S1(a) * S1(c) * C2(bp))
    residuals["eq16"] = _rel(C1(c), C1(a) * C1(b) + k1 * S1(a) * S1(b) * C2(ga))
    residuals["eq17"] = _rel(C2(al), C2(bp) * C2(ga) + k2 * S2(bp) * S2(ga) * C1(a))
    residuals["eq18"] = _rel(C2(bp), C2(al) * C2(ga) - k2 * S2(al) * S2(ga) * C1(b))

    def record(key: str, printed: float, corrected: float) -> None:
        variant_values[key] = {"as-printed": printed, "corrected": corrected}
        if math.isclose(printed, corrected, rel_tol=1e-12, abs_tol=1e-15):
            variants[key] = "tie"
        else:
            variants[key] = "as-printed" if printed < corrected else "corrected"
        residuals[key] = min(printed, corrected)

    record(
        "eq19",
        _rel(C2(ga), C2(al) * C2(bp) + k2 * S2(al) * S2(bp) * C1(a)),
        _rel(C2(ga), C2(al) * C2(bp) + k2 * S2(al) * S2(bp) * C1(c)),
    )

    def tangent_law(klevel, lhs, t1, t2, cos_other, sin_printed, sin_corrected, sign):
        """Shared shape of eq20-eq25: squared tangent against the two-term
        expansion; klevel is the characteristic whose tangents appear in the
        denominator.  The two sides are compared as ratios both ways round,
        so the relation stays checkable where the tangents run to poles and
        both sides diverge together."""

        def resid(sq):
            num = (
                t1 * t1
                + t2 * t2
                + sign * 2.0 * t1 * t2 * cos_other
                + k1 * k2 * t1 * t1 * t2 * t2 * sq
            )
            den = 1.0 - sign * klevel * t1 * t2 * cos_other
            u = lhs * lhs
            best = math.inf
            if den != 0.0:
                best = _rel(u, num / (den * den))
            if u != 0.0 and num != 0.0:
                best = min(best, _rel(1.0 / u, den * den / num))
            return best

        return resid(sin_printed * sin_printed), resid(sin_corrected * sin_corrected)

    record("eq20", *tangent_law(k1, T1(a), T1(b), T1(c), C2(al), S1(al), S2(al), -1.0))
    record("eq21", *tangent_law(k1, T1(b), T1(a), T1(c), C2(bp), S1(bp), S2(bp), +1.0))
    record("eq22", *tangent_law(k1, T1(c), T1(a), T1(b), C2(ga), S1(ga), S2(ga), -1.0))
    record("eq23", *tangent_law(k2, T2(al), T2(bp), T2(ga), C1(a), S1(a), S2(a), -1.0))
    record("eq24", *tangent_law(k2, T2(bp), T2(al), T2(ga), C1(b), S1(b), S2(b), +1.0))
    record("eq25", *tangent_law(k2, T2(ga), T2(al), T2(bp), C1(c), S1(c), S2(c), -1.0))

    return LawReport(residuals, variant_values, variants)


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


def right_triangle_residuals(space: Space, a: float, b: float, tol: float = 1e-9) -> RightTriangleReport:
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
    base = np.zeros(3)
    base[0] = 1.0
    V_C = ProjPoint(base)
    V_A = apply_point(givens(space, 0, 1, b), V_C)
    V_B = apply_point(givens(space, 0, 2, a), V_C)

    c = distance(space, V_A, V_B, tol).value
    u = space.direction(np.array([V_A.coords, V_B.coords]), np.array([V_C.coords, V_C.coords]))
    v = space.direction(np.array([V_A.coords, V_B.coords]), np.array([V_B.coords, V_A.coords]))
    alpha, beta = _ray_angles(space, np.array([V_A.coords, V_B.coords]), u, v, tol)
    if alpha.kind != "real" or beta.kind != "real":
        raise DomainError("right triangle angles came back imaginary")
    al, be = alpha.value, beta.value

    T1 = lambda v: gtan(k1, v)
    S1 = lambda v: gsin(k1, v)
    C1 = lambda v: gcos(k1, v)

    r: Dict[str, float] = {}
    r["eq26"] = _rel(T1(c) ** 2, T1(a) ** 2 + T1(b) ** 2 + k1 * T1(a) ** 2 * T1(b) ** 2)
    r["eq27"] = _rel(T1(b), T1(c) * math.cos(al))
    r["eq28"] = _rel(T1(a), T1(c) * math.cos(be))
    r["eq29"] = _rel(S1(a), S1(c) * math.sin(al))
    r["eq30"] = _rel(S1(b), S1(c) * math.sin(be))
    r["eq31"] = _rel(T1(a), S1(b) * math.tan(al))
    r["eq32"] = _rel(T1(b), S1(a) * math.tan(be))
    r["eq33"] = _rel(math.cos(al), C1(a) * math.sin(be))
    r["eq34"] = _rel(math.cos(be), C1(b) * math.sin(al))
    r["eq35"] = _rel(C1(c), (math.cos(al) / math.sin(al)) * (math.cos(be) / math.sin(be)))

    meas_a = distance(space, V_C, V_B, tol).value
    meas_b = distance(space, V_C, V_A, tol).value
    return RightTriangleReport(meas_a, meas_b, c, al, be, r)


# -- SAS solver --------------------------------------------------------------


def solve_sas(space: Space, b: float, alpha: float, c: float, tol: float = 1e-9) -> TriangleMeasurements:
    """Solve a planar triangle from sides b, c and the included angle alpha.

    Works entirely through the law registry: the side cosine relation when
    k_1 is nonzero, its tangent-form degeneration when k_1 = 0, then the
    remaining angles via the sine relation with cosines supplied by the other
    cosine relations.  Raises NoSolution when an inversion leaves the range
    of the governing pair.
    """
    if space.n != 2:
        raise DimensionMismatch("SAS solver applies to planar spaces")
    k1, k2 = space.sig
    C2al, S2al = gcos(k2, alpha), gsin(k2, alpha)

    try:
        if k1 != 0:
            C1a = gcos(k1, b) * gcos(k1, c) + k1 * gsin(k1, b) * gsin(k1, c) * C2al
            a = _invert_c(k1, C1a, tol)
        else:
            rad = b * b + c * c - 2.0 * b * c * C2al
            if rad < 0.0:
                raise NoSolution("squared side came out negative (%r)" % (rad,))
            a = math.sqrt(rad)
        S1a, S1b, S1c = gsin(k1, a), gsin(k1, b), gsin(k1, c)
        if S1a == 0.0:
            raise NoSolution("degenerate solved side a = %r" % (a,))
        S2bp = S1b * S2al / S1a
        S2ga = S1c * S2al / S1a
        if k1 != 0:
            C1a_, C1b, C1c = gcos(k1, a), gcos(k1, b), gcos(k1, c)
            C2bp = (C1a_ * C1c - C1b) / (k1 * S1a * S1c)
            C2ga = (C1c - C1a_ * C1b) / (k1 * S1a * S1b)
        else:
            C2bp = (b * b - a * a - c * c) / (2.0 * a * c)
            C2ga = (a * a + b * b - c * c) / (2.0 * a * b)
        # Derived pairs accumulate cancellation error; loosen only the
        # consistency check, never the sign/range rules.
        pair_tol = 100.0 * tol
        beta_prime = gmeasure_from_cs(k2, C2bp, S2bp, pair_tol)
        gamma = gmeasure_from_cs(k2, C2ga, S2ga, pair_tol)
    except (InconsistentPair, DomainError) as exc:
        raise NoSolution("triangle relations have no consistent solution: %s" % exc) from exc

    return TriangleMeasurements(
        a=Measure(a, 1),
        b=Measure(float(b), 1),
        c=Measure(float(c), 1),
        alpha=Measure(float(alpha), 2),
        beta_prime=Measure(beta_prime, 2),
        gamma=Measure(gamma, 2),
    )


def _invert_c(k: int, cval: float, tol: float) -> float:
    """Invert a cosine-like value to its measure, checking the range."""
    if k == 1:
        if abs(cval) > 1.0 + tol:
            raise NoSolution("cosine value %r outside [-1, 1]" % (cval,))
        return math.acos(max(-1.0, min(1.0, cval)))
    if cval < 1.0 - tol:
        raise NoSolution("hyperbolic cosine value %r below 1" % (cval,))
    return math.acosh(max(1.0, cval))
