"""Reference values computed by the benchmark itself, in 30-digit arithmetic.

Distances are recomputed from the coordinates exactly as written to the
input files: the weighted dot product, the signed sum of weighted squared
minors, and the inversion at the first characteristic (or at its negative
when the squared cross product is negative).  The SAS oracle rebuilds the
triangle from its construction to say whether side BC exists at all and
whether its angles beta' and gamma can be measured.  The volume references
are closed forms.
"""

from __future__ import annotations

import mpmath

import gen

mpmath.mp.dps = 30

VOLUME_EXACT = {
    "ee": mpmath.pi / 2,
    "pe": mpmath.mpf(6),
    "he": mpmath.pi / 2 - 2 * mpmath.atan(mpmath.tanh(1) / mpmath.sinh(1)),
    "eee": mpmath.pi ** 2 / 8,
}


def cumulative(sig):
    out = [1]
    for k in sig:
        out.append(out[-1] * k)
    return out


def cross_weight(sig, i: int, j: int) -> int:
    """K_i K_j / k_1 for i < j, with the k_1 cancelled before evaluation."""
    return cumulative(sig)[i] * gen.prod(sig[1:j])


def separation(sig, x_raw, y_raw):
    """(kind, phi, radicand) of two points given by raw coordinates.

    The products are taken on the raw vectors and divided by the two
    self-products afterwards, which is the same as normalizing first.
    """
    K = cumulative(sig)
    size = len(sig) + 1
    x = [mpmath.mpf(v) for v in x_raw]
    y = [mpmath.mpf(v) for v in y_raw]
    qx = mpmath.fsum([k * a * a for k, a in zip(K, x)])
    qy = mpmath.fsum([k * b * b for k, b in zip(K, y)])
    if qx <= 0 or qy <= 0:
        raise ValueError("reference point has no positive self-product")
    terms = []
    for i in range(size):
        for j in range(i + 1, size):
            w = cross_weight(sig, i, j)
            if w:
                minor = x[i] * y[j] - x[j] * y[i]
                terms.append(w * minor * minor)
    rad = mpmath.fsum(terms) / (qx * qy)
    c = mpmath.fsum([k * a * b for k, a, b in zip(K, x, y)]) / mpmath.sqrt(qx * qy)
    if rad < 0:
        kind, k, c = "imaginary", -sig[0], abs(c)
    else:
        kind, k = "real", sig[0]
    s = mpmath.sqrt(abs(rad))
    if k == 1:
        phi = mpmath.atan2(s, c)
    elif k == 0:
        phi = s
    else:
        phi = mpmath.asinh(s)
    return kind, phi, rad


def pair_refs(text: str, rows):
    """[(kind, phi)] for each written pair."""
    sig = gen.signature(text)
    half = len(sig) + 1
    out = []
    for row in rows:
        kind, phi, _ = separation(sig, row[:half], row[half:])
        out.append((kind, float(phi)))
    return out


def _mat_vec(mat, vec):
    return [mpmath.fsum(a * b for a, b in zip(row, vec)) for row in mat]


def _mp_rotation(sig, i, j, t):
    kind = gen.prod(sig[i:j])
    size = len(sig) + 1
    mat = [[mpmath.mpf(1 if r == c else 0) for c in range(size)] for r in range(size)]
    t = mpmath.mpf(t)
    c = {1: mpmath.cos(t), 0: mpmath.mpf(1), -1: mpmath.cosh(t)}[kind]
    s = {1: mpmath.sin(t), 0: t, -1: mpmath.sinh(t)}[kind]
    mat[i][i] = c
    mat[j][j] = c
    mat[j][i] = s
    mat[i][j] = -kind * s
    return mat


def _dot(sig, x, y):
    return mpmath.fsum([k * a * b for k, a, b in zip(cumulative(sig), x, y)])


def _direction(sig, x, y):
    """Unit direction at x toward y, (y - c x) / s, for unit x and y with a
    real, nonzero separation."""
    c = _dot(sig, x, y)
    s = mpmath.sqrt(separation(sig, x, y)[2])
    return [(b - c * a) / s for a, b in zip(x, y)]


def _line_minors(vertex, u):
    return [vertex[i] * u[j] - vertex[j] * u[i] for i, j in ((0, 1), (0, 2), (1, 2))]


def _ray_angle(sig, vertex, u, v):
    """Outcome of the level-2 measure between the lines [vertex, u] and
    [vertex, v] of a planar space.

    The lines' product weighs minor (i, j) by K_i K_j / k_1, which is
    (1, k_2, k_1 k_2) on (0, 1), (0, 2), (1, 2).  Their cross product weighs
    minor pair (a, b) by W_a W_b / k_2 with those weights W: 1, k_1 and
    k_1 k_2.  A negative cross radicand gives an imaginary angle.  A real
    one needs the cosine-like value to be positive where k_2 is -1 (the two
    rays on one branch, else DomainError) or 0 (cosine exactly 1, else
    InconsistentPair).  "borderline" is returned when the radicand lies
    within 1e-9 of zero.
    """
    k1, k2 = sig
    mx, my = _line_minors(vertex, u), _line_minors(vertex, v)
    c = mpmath.fsum([w * a * b for w, a, b in zip((1, k2, k1 * k2), mx, my)])
    terms = []
    for w, (a, b) in zip((1, k1, k1 * k2), ((0, 1), (0, 2), (1, 2))):
        if w:
            minor = mx[a] * my[b] - mx[b] * my[a]
            terms.append(w * minor * minor)
    rad = mpmath.fsum(terms)
    if abs(rad) <= 1e-9:
        return "borderline"
    if rad < 0:
        return "imaginary"
    if c < 0 and k2 == -1:
        return "DomainError"
    if c < 0 and k2 == 0:
        return "InconsistentPair"
    return "real"


def _measure_outcome(sig, A, B, C) -> str:
    """What measuring the triangle A, B, C gives: "real", "imaginary" (an
    angle measures imaginary), the GeometryError class of the first angle
    that cannot be measured, or "borderline".

    The angles are beta' at B, between AB continued past B and BC, then
    gamma at C, between CA and CB; alpha is real by construction.
    """
    angles = (
        (B, [-v for v in _direction(sig, B, A)], _direction(sig, B, C)),
        (C, _direction(sig, C, A), _direction(sig, C, B)),
    )
    imaginary = False
    for vertex, u, v in angles:
        outcome = _ray_angle(sig, vertex, u, v)
        if outcome in ("borderline", "DomainError", "InconsistentPair"):
            return outcome
        imaginary |= outcome == "imaginary"
    return "imaginary" if imaginary else "real"


def sas_ref(op: dict) -> dict:
    """Expected side a, whether side BC is real and nonzero, and what
    measuring the triangle in its given labeling gives.

    "bc" is "real", "not-real", or "borderline" when the squared cross
    product of B and C sits within 1e-9 of zero, where either answer is
    acceptable.  "measure" is as _measure_outcome says when "bc" is "real",
    else None.
    """
    sig = gen.signature(op["space"])
    base = [mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0)]
    B = _mat_vec(_mp_rotation(sig, 0, 1, op["c"]), base)
    C = _mat_vec(_mp_rotation(sig, 1, 2, op["alpha"]), _mat_vec(_mp_rotation(sig, 0, 1, op["b"]), base))
    kind, phi, rad = separation(sig, B, C)
    if abs(rad) <= 1e-9:
        bc = "borderline"
    else:
        bc = "real" if kind == "real" else "not-real"
    measure = _measure_outcome(sig, base, B, C) if bc == "real" else None
    return {"bc": bc, "a": float(phi), "measure": measure}


def annotate(spec: dict) -> dict:
    """Attach the reference values to a generated spec, in place."""
    if spec["workload"] == "pairs":
        for f in spec["files"]:
            f["refs"] = pair_refs(f["space"], f["rows"])
    elif spec["workload"] == "flats":
        for ops in spec["cycles"]:
            for op in ops:
                if op["op"] == "sas":
                    op["ref"] = sas_ref(op)
    elif spec["workload"] == "volume":
        for case in spec["cases"]:
            case["exact"] = float(VOLUME_EXACT[case["case"]])
    return spec
