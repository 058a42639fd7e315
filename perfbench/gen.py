"""Seeded workload inputs, built from the standard library alone.

Nothing here imports ckgeo, so the two commits of a comparison receive
byte-identical inputs for the same seed.  Every pair, plane and matrix is
built from the base point or the identity by this module's own generalized
rotations, so its separation, angle or validity is known by construction.
"""

from __future__ import annotations

import math
import random

PLANAR = ("hh", "hp", "he", "ph", "pp", "pe", "eh", "ep", "ee")
# Bulk distances: every planar signature plus a few n = 3 and n = 4 ones.
PAIR_SPACES = PLANAR + ("eee", "ehe", "hpe", "hehe", "ephe")
# 110 files, so that eleven distinct calls lie beyond the 90th percentile,
# of 20 to 60 pairs (40 on average), so that one pass over them takes about
# a third of a second and every file is timed in each of the host's fast
# spells (see README.md).  Spread call costs keep the latency quantiles smooth: on a
# narrow cost mode a quantile jumps whole steps when the host's speed shifts
# during a run.
PAIR_FILES = 110
PAIR_COUNTS = tuple(20 + 40 * i // (PAIR_FILES - 1) for i in range(PAIR_FILES))
NEAR_SHARE = 0.2  # near-coincident pairs, a few hundred times the snap window
IMAGINARY_SHARE = 0.3  # of the remaining pairs, where the signature has them

ANGLE_SPACES = ("eee", "ehe", "hpe", "peh", "ehh", "eeee", "hehe", "ephe", "hhhh", "pehe")
DIRECT_SPACES = ("eee", "ehe", "hhe", "eeee", "hehe", "hhhh")
# All n = 4, so the sampled validations form one cost mode at the top of
# the mix: 4 of 21 calls, which puts the 90th percentile inside it.
SAMPLED_SPACES = ("epee", "hpeh", "ppee", "ephe", "pehe", "eepe")
ANGLES_PER_CYCLE = 6
FLAT_CYCLES = 24  # distinct cycles; the timed loop repeats them

# Closed-form cases: vertices are raw coordinates, normalized by the caller.
VOLUME_CASES = (
    ("ee", "ee", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    ("pe", "pe", [[1.0, 0.0, 0.0], [1.0, 3.0, 0.0], [1.0, 0.0, 4.0]]),
    (
        "he",
        "he",
        [
            [1.0, 0.0, 0.0],
            [math.cosh(1.0), math.sinh(1.0), 0.0],
            [math.cosh(1.0), 0.0, math.sinh(1.0)],
        ],
    ),
    (
        "eee",
        "eee",
        [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]],
    ),
)
# Call i estimates case VOLUME_ORDER[i % 4] with VOLUME_SIZES[i % 29]
# samples, so a 116-call cycle holds every pair once (eleven of them beyond
# the 90th percentile), takes about a third of a second and spreads the call
# costs (see PAIR_COUNTS).
VOLUME_ORDER = ("ee", "pe", "he", "eee")
VOLUME_SIZES = tuple(5_000 + 15_000 * i // 28 for i in range(29))
# a whole number of cycles, so a run that uses them all wraps onto a cycle
VOLUME_SEEDS = 200 * len(VOLUME_ORDER) * len(VOLUME_SIZES)


def signature(text: str) -> tuple:
    return tuple({"e": 1, "p": 0, "h": -1}[ch] for ch in text)


def prod(values) -> int:
    out = 1
    for v in values:
        out *= v
    return out


def gcos(k: int, t: float) -> float:
    return math.cos(t) if k == 1 else (1.0 if k == 0 else math.cosh(t))


def gsin(k: int, t: float) -> float:
    return math.sin(t) if k == 1 else (t if k == 0 else math.sinh(t))


def identity(size: int):
    return [[1.0 if r == c else 0.0 for c in range(size)] for r in range(size)]


def column(mat, c: int):
    return [row[c] for row in mat]


def random_word(sig, rng: random.Random, length: int):
    """Product of `length` random generalized rotations, as a row-major matrix.

    Right-multiplying by a rotation in block (i, j) only mixes columns i
    and j, so the product is accumulated column by column.
    """
    size = len(sig) + 1
    cols = identity(size)
    for _ in range(length):
        i, j = sorted(rng.sample(range(size), 2))
        kind = prod(sig[i:j])
        t = rng.uniform(-1.5, 1.5) if kind == 1 else rng.uniform(-0.6, 0.6)
        c, s = gcos(kind, t), gsin(kind, t)
        ci, cj = cols[i], cols[j]
        cols[i] = [c * a + s * b for a, b in zip(ci, cj)]
        cols[j] = [-kind * s * a + c * b for a, b in zip(ci, cj)]
    return [list(row) for row in zip(*cols)]


def _tame(vec, bound: float = 3.0) -> bool:
    """Positive first coordinate (no canonical-sign flip) and modest entries."""
    peak = max(abs(v) for v in vec)
    return peak <= bound and vec[0] >= 0.05 * peak


def _separation(sig, rng: random.Random, kind: str, near: bool):
    """Block index j and parameter t giving separation t of the given kind.

    Rotating the base point in block (0, j) leaves a squared cross product
    of k_2...k_j times sin-like(t)^2: real for +1, imaginary for -1.
    """
    want = 1 if kind == "real" else -1
    j = rng.choice([j for j in range(1, len(sig) + 1) if prod(sig[1:j]) == want])
    if near:
        return j, 10.0 ** rng.uniform(math.log10(2e-5), math.log10(2e-4))
    block = prod(sig[:j])
    if block == 1:
        # circular: the dual (imaginary) measure reads |cos|, so stay below pi/2
        hi = math.pi - 0.1 if kind == "real" else math.pi / 2 - 0.1
        return j, rng.uniform(0.05, hi)
    if block == 0:
        return j, rng.uniform(0.05, 3.0)
    return j, rng.uniform(0.05, 2.0)


def make_pairs(text: str, rng: random.Random, count: int):
    """Rows of (x, y) with the expected (kind, t) of each pair."""
    sig = signature(text)
    size = len(sig) + 1
    has_imaginary = any(prod(sig[1:j]) == -1 for j in range(2, size))
    rows, expected = [], []
    while len(rows) < count:
        near = rng.random() < NEAR_SHARE
        kind = "imaginary" if has_imaginary and rng.random() < IMAGINARY_SHARE else "real"
        j, t = _separation(sig, rng, kind, near)
        g = random_word(sig, rng, 2 * len(sig))
        block = prod(sig[:j])
        x = column(g, 0)
        y = [gcos(block, t) * a + gsin(block, t) * b for a, b in zip(x, column(g, j))]
        if not (_tame(x) and _tame(y)):
            continue
        rows.append(x + y)
        expected.append((kind, t))
    return rows, expected


def pairs_csv(rows) -> str:
    return "".join(",".join(repr(v) for v in row) + "\n" for row in rows)


def make_sas(text: str, rng: random.Random):
    """Side-angle-side draw over the ranges of the law-suite acceptance test."""
    k1, k2 = signature(text)

    def draw(k):
        if k == 1:
            return rng.uniform(0.15, math.pi - 0.25)
        if k == 0:
            return rng.uniform(0.15, 3.0)
        return rng.uniform(0.15, 2.2)

    b, alpha, c = draw(k1), draw(k2), draw(k1)
    return {"op": "sas", "space": text, "b": b, "alpha": alpha, "c": c}


def make_angle(text: str, rng: random.Random):
    """Two m-planes at a known angle: the second is the first rotated in block (m, j)."""
    sig = signature(text)
    n = len(sig)
    m = rng.randrange(1, n)
    choices = [j for j in range(m + 1, n + 1) if prod(sig[m + 1 : j]) != 0]
    j = rng.choice(choices)
    theta = rng.uniform(0.2, 1.2)
    while True:
        g = random_word(sig, rng, 2 * n)
        if max(abs(v) for row in g for v in row) <= 4.0:
            break
    # the rotation in block (m, j) changes only column m among the first m+1
    kind = prod(sig[m:j])
    turned = [gcos(kind, theta) * a + gsin(kind, theta) * b for a, b in zip(column(g, m), column(g, j))]
    x = [column(g, c) for c in range(m + 1)]
    return {
        "op": "angle",
        "space": text,
        "x": x,
        "y": x[:m] + [turned],
        "theta": theta,
        "level": m + 1,
        "kind": "real" if prod(sig[m + 1 : j]) == 1 else "imaginary",
    }


def make_validate(text: str, rng: random.Random, perturb: bool):
    """A generated transform matrix, optionally with its (0, 0) entry moved.

    The (0, 0) entry carries weight K_0 = 1 in every signature, so moving it
    breaks the product preservation that validation checks.
    """
    sig = signature(text)
    while True:
        g = random_word(sig, rng, 3 * len(sig))
        if max(abs(v) for row in g for v in row) <= 4.0:
            break
    if perturb:
        g[0][0] += 1e-4
    mode = "sampled" if 0 in sig else "direct"
    return {"op": "validate", "space": text, "matrix": g, "ok": not perturb, "mode": mode}


def make_flats(rng: random.Random, cycles: int = FLAT_CYCLES):
    """Fixed op mix per cycle: 9 SAS chains, 6 plane angles, 2 direct and
    4 sampled validations, half of the validations on perturbed matrices."""
    out = []
    for c in range(cycles):
        ops = [make_sas(text, rng) for text in PLANAR]
        for a in range(ANGLES_PER_CYCLE):
            text = ANGLE_SPACES[(c * ANGLES_PER_CYCLE + a) % len(ANGLE_SPACES)]
            ops.append(make_angle(text, rng))
        for v in range(2):
            ops.append(make_validate(DIRECT_SPACES[(2 * c + v) % len(DIRECT_SPACES)], rng, v == 1))
        for v in range(4):
            ops.append(make_validate(SAMPLED_SPACES[(4 * c + v) % len(SAMPLED_SPACES)], rng, v % 2 == 1))
        out.append(ops)
    return out


def build(workload: str, seed: int) -> dict:
    """The workload's whole input, a JSON-serializable dict."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "pairs":
        files = []
        for idx in range(PAIR_FILES):
            text = PAIR_SPACES[idx % len(PAIR_SPACES)]
            # stride 47 through the counts mixes sizes across dimensions
            rows, expected = make_pairs(text, rng, PAIR_COUNTS[47 * idx % PAIR_FILES])
            files.append(
                {
                    "space": text,
                    # every signature gets both formats
                    "output": "json" if (idx + idx // len(PAIR_SPACES)) % 2 == 0 else "csv",
                    "rows": rows,
                    "construction": expected,
                }
            )
        return {"workload": workload, "seed": seed, "files": files}
    if workload == "flats":
        return {"workload": workload, "seed": seed, "cycles": make_flats(rng)}
    if workload == "volume":
        cases = [{"case": name, "space": sp, "vertices": v} for name, sp, v in VOLUME_CASES]
        seeds = [rng.randrange(1 << 31) for _ in range(VOLUME_SEEDS)]
        return {
            "workload": workload,
            "seed": seed,
            "cases": cases,
            "order": list(VOLUME_ORDER),
            "sizes": list(VOLUME_SIZES),
            "mc_seeds": seeds,
        }
    raise ValueError("unknown workload %r" % (workload,))
