"""Signatures, cumulative characteristic products, and exact coefficient algebra.

A space is described by a signature (k_1, ..., k_n) with every k_i in
{-1, 0, 1}.  All product formulas used elsewhere carry coefficients that are
ratios of cumulative products K_i = k_1 * ... * k_i.  Because characteristics
may be zero, those ratios are never formed in floating point: they are kept as
Monomial values (a sign and one integer exponent per characteristic) and only
turned into numbers once the whole numerator/denominator bookkeeping is done.
The convention k**0 == 1 holds even for k == 0, and a division by k_l is legal
exactly when the accumulated exponent of k_l stays nonnegative.

The evaluated tables of one (signature, m) combination are turned once into
the index and coefficient arrays of ProductArrays, whose dot and cross
methods are the one product path for points (m = 0) and m-planes alike.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, Tuple

import numpy as np

from .errors import NonDivisible

_LETTER_TO_CHAR = {"e": 1, "p": 0, "h": -1}
_CHAR_TO_LETTER = {1: "e", 0: "p", -1: "h"}

IndexTuple = Tuple[int, ...]


def check_signature(sig: Iterable[int]) -> Tuple[int, ...]:
    """Validate and normalize a signature to a tuple of ints in {-1, 0, 1}."""
    chars = tuple(int(k) for k in sig)
    if not chars:
        raise ValueError("signature needs at least one characteristic")
    for k in chars:
        if k not in (-1, 0, 1):
            raise ValueError("characteristic %r is not one of -1, 0, 1" % (k,))
    return chars


def parse_signature(text: str) -> Tuple[int, ...]:
    """Parse either comma-separated numbers ("1,0,-1") or letters ("eph").

    Letters: e = +1 (elliptic), p = 0 (parabolic), h = -1 (hyperbolic).
    "pe" is the Euclidean plane, "hh" doubly hyperbolic, and so on.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty signature")
    if any(ch in text for ch in ",+-0123456789"):
        parts = [p.strip() for p in text.split(",")]
        if parts and parts[-1] == "":
            parts.pop()  # tolerate one trailing comma
        try:
            return check_signature(int(p) for p in parts)
        except ValueError as exc:
            raise ValueError("bad numeric signature %r: %s" % (text, exc)) from None
    try:
        return check_signature(_LETTER_TO_CHAR[ch] for ch in text.lower())
    except KeyError as exc:
        raise ValueError("bad signature letter %s in %r" % (exc, text)) from None


def format_signature(sig: Iterable[int]) -> str:
    """Render a signature in letter form, e.g. (0, 1) -> "pe"."""
    return "".join(_CHAR_TO_LETTER[k] for k in check_signature(sig))


def cumulative_products(sig: Iterable[int]) -> Tuple[int, ...]:
    """Return (K_0, K_1, ..., K_n) where K_0 = 1 and K_i = K_{i-1} * k_i."""
    chars = check_signature(sig)
    out = [1]
    for k in chars:
        out.append(out[-1] * k)
    return tuple(out)


@dataclass(frozen=True)
class Monomial:
    """A signed product of characteristic powers, sign * prod k_l**e_l.

    Exponents are allowed to go negative while expressions are being built;
    legality of the implied divisions is checked only at evaluation time, so
    exact cancellations like K_2/K_1 = k_2 cost nothing even when k_1 == 0.
    """

    sign: int
    exps: Tuple[int, ...]

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise ValueError("monomial sign must be -1 or +1")

    @classmethod
    def unit(cls, n: int) -> "Monomial":
        return cls(1, (0,) * n)

    @classmethod
    def cumulative(cls, i: int, n: int) -> "Monomial":
        """The cumulative product K_i as a monomial over n characteristics."""
        if not 0 <= i <= n:
            raise ValueError("cumulative index out of range")
        return cls(1, (1,) * i + (0,) * (n - i))

    def __mul__(self, other: "Monomial") -> "Monomial":
        if len(self.exps) != len(other.exps):
            raise ValueError("monomials over different characteristic counts")
        return Monomial(
            self.sign * other.sign,
            tuple(a + b for a, b in zip(self.exps, other.exps)),
        )

    def divided_by(self, other: "Monomial") -> "Monomial":
        if len(self.exps) != len(other.exps):
            raise ValueError("monomials over different characteristic counts")
        return Monomial(
            self.sign * other.sign,
            tuple(a - b for a, b in zip(self.exps, other.exps)),
        )

    def negated(self) -> "Monomial":
        return Monomial(-self.sign, self.exps)

    def eval(self, sig: Iterable[int]) -> int:
        """Evaluate at a signature; result is always one of -1, 0, 1.

        Raises NonDivisible if any k_l == 0 carries a negative exponent,
        regardless of other factors (a vanishing factor elsewhere does not
        excuse an illegal division).
        """
        chars = check_signature(sig)
        if len(chars) != len(self.exps):
            raise ValueError("signature length does not match monomial")
        for pos, (k, e) in enumerate(zip(chars, self.exps)):
            if k == 0 and e < 0:
                raise NonDivisible(
                    "characteristic %d is 0 but appears with exponent %d" % (pos + 1, e)
                )
        value = self.sign
        for k, e in zip(chars, self.exps):
            if e == 0:
                continue
            if k == 0:
                return 0
            if k == -1 and e % 2:
                value = -value
        return value


def point_cross_coeff(i: int, j: int, n: int) -> Monomial:
    """Coefficient K_i*K_j/k_1 of the squared (i, j) minor in the point cross.

    Always divisible: j >= 1 guarantees at least one k_1 factor upstairs.
    """
    if not 0 <= i < j <= n:
        raise ValueError("need 0 <= i < j <= n")
    exps = [0] * n
    for l in range(i):
        exps[l] += 1
    for l in range(j):
        exps[l] += 1
    exps[0] -= 1
    if exps[0] < 0:
        raise NonDivisible("point cross coefficient lost its k_1 factor")
    return Monomial(1, tuple(exps))


def _check_index_tuple(idx: IndexTuple, n: int) -> None:
    if len(idx) < 1:
        raise ValueError("empty index tuple")
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise ValueError("index tuple must be strictly increasing")
    if idx[0] < 0 or idx[-1] > n:
        raise ValueError("index tuple out of range")


def plane_dot_coeff(idx: IndexTuple, n: int) -> Monomial:
    """Coefficient of the idx minor pair in the plane dot product.

    Product of K_{i_p}/K_p over every tuple position p (the leading position
    included, so a single-index tuple degenerates to the point weight K_i).
    Strictly increasing tuples give i_p >= p, hence each factor expands to
    k_{p+1} * ... * k_{i_p} with nonnegative exponents and no division hazard.
    """
    _check_index_tuple(idx, n)
    exps = [0] * n
    for p, ip in enumerate(idx):
        for l in range(p, ip):
            exps[l] += 1
    return Monomial(1, tuple(exps))


def plane_cross_coeff(idx_i: IndexTuple, idx_j: IndexTuple, n: int) -> Monomial:
    """Coefficient of the squared (idx_i, idx_j) minor pair in the plane cross.

    Equal to plane_dot_coeff(idx_i) * plane_dot_coeff(idx_j) / k_{m+1} where
    m+1 is the tuple length.  For distinct increasing tuples the larger one
    reaches past position m, so the k_{m+1} factor is always present before
    the division; single-index tuples reduce exactly to point_cross_coeff.
    """
    if len(idx_i) != len(idx_j):
        raise ValueError("index tuples of different lengths")
    if not tuple(idx_i) < tuple(idx_j):
        raise ValueError("first index tuple must be lexicographically smaller")
    _check_index_tuple(idx_i, n)
    _check_index_tuple(idx_j, n)
    m = len(idx_i) - 1
    exps = [0] * n
    for p in range(m + 1):
        for l in range(p, idx_i[p]):
            exps[l] += 1
        for l in range(p, idx_j[p]):
            exps[l] += 1
    exps[m] -= 1
    if exps[m] < 0:
        raise NonDivisible("plane cross coefficient lost its k_%d factor" % (m + 1,))
    return Monomial(1, tuple(exps))


@lru_cache(maxsize=None)
def point_cross_table(sig: Tuple[int, ...]) -> Dict[Tuple[int, int], int]:
    """Evaluated point-cross coefficients for all index pairs of a signature."""
    chars = check_signature(sig)
    n = len(chars)
    return {
        (i, j): point_cross_coeff(i, j, n).eval(chars)
        for i, j in itertools.combinations(range(n + 1), 2)
    }


@lru_cache(maxsize=None)
def plane_tables(
    sig: Tuple[int, ...], m: int
) -> Tuple[Tuple[IndexTuple, ...], Dict[IndexTuple, int], Dict[Tuple[IndexTuple, IndexTuple], int]]:
    """Evaluated plane product coefficients for a (signature, m) combination.

    Returns (tuples, dot, cross): the lexicographic minor index tuples, the
    dot coefficient per tuple, and the cross coefficient per tuple pair.
    """
    chars = check_signature(sig)
    n = len(chars)
    if not 0 <= m < n:
        raise ValueError("plane dimension m must satisfy 0 <= m < n")
    tuples = tuple(itertools.combinations(range(n + 1), m + 1))
    dot = {idx: plane_dot_coeff(idx, n).eval(chars) for idx in tuples}
    cross = {
        (a, b): plane_cross_coeff(a, b, n).eval(chars)
        for a, b in itertools.combinations(tuples, 2)
    }
    return tuples, dot, cross


@dataclass(frozen=True)
class ProductArrays:
    """The products of one (signature, m) as arrays over a minor vector.

    A point is the m = 0 case: its minors are its coordinates.  `rows`
    holds the row tuple of each minor in lexicographic order, `weights` its
    dot coefficient.  The minor pairs a < b with a
    nonzero cross coefficient are listed twice: `ab` holds the positions
    a..., b... and `ba` the positions b..., a..., so that x[ab] * y[ba] is
    x_a y_b followed by x_b y_a.  `signs` (pairs x 2) holds each pair's
    coefficient in its first column and 1 in its second.  Both methods work
    on one minor vector or on stacks of them (any leading axes).  They sum
    with numpy's vecdot and vecmat, which add each row's terms in the same
    order whatever the stack size or memory alignment, so a pair gives the
    same bits alone as in a stack; results of matmul depend on both.
    """

    rows: np.ndarray
    weights: np.ndarray
    ab: np.ndarray
    ba: np.ndarray
    signs: np.ndarray

    def dot(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Weighted dot product sum w_i x_i y_i over the last axis."""
        return np.vecdot(self.weights * x, y)

    def cross(self, x: np.ndarray, y: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Cross radicand sum c_ab (x_a y_b - x_b y_a)^2 and its term scale.

        The scale is the same sum with every |c_ab| = 1, the size the
        radicand's rounding is measured against; both come from one pass.
        """
        terms = x.take(self.ab, axis=-1) * y.take(self.ba, axis=-1)
        half = len(self.signs)
        minor = terms[..., :half] - terms[..., half:]
        sums = np.vecmat(minor * minor, self.signs)
        return sums[..., 0], sums[..., 1]


@lru_cache(maxsize=None)
def product_arrays(sig: Tuple[int, ...], m: int) -> ProductArrays:
    """ProductArrays of a (signature, m) combination, built once per process."""
    if m == 0:
        tuples = tuple((i,) for i in range(len(sig) + 1))
        weights = cumulative_products(sig)
        cross = point_cross_table(sig)
    else:
        tuples, dot, cross = plane_tables(sig, m)
        weights = [dot[t] for t in tuples]
        position = {t: p for p, t in enumerate(tuples)}
        cross = {(position[a], position[b]): coeff for (a, b), coeff in cross.items()}
    pairs = [(a, b, coeff) for (a, b), coeff in cross.items() if coeff != 0]
    lo = [a for a, _, _ in pairs]
    hi = [b for _, b, _ in pairs]
    arrays = (
        np.array(tuples, dtype=np.intp),
        np.array(weights, dtype=float),
        np.array(lo + hi, dtype=np.intp),
        np.array(hi + lo, dtype=np.intp),
        np.array([(coeff, 1) for _, _, coeff in pairs], dtype=float).reshape(-1, 2),
    )
    for arr in arrays:
        arr.setflags(write=False)
    return ProductArrays(*arrays)
