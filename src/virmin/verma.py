"""Verma modules over the Virasoro algebra, exactly.

A level-N subspace of M(c, h) is spanned by normal-ordered lowering
monomials L(-m_1)...L(-m_k)|h> with m_1 >= ... >= m_k and sum m_i = N,
indexed here by partitions of N.  Everything is driven by the bracket

    [L(a), L(b)] = (a - b) L(a+b) + (a^3 - a)/12 delta_{a+b,0} c

together with L(n)|h> = 0 for n > 0, L(0)|h> = h|h>.  The module
provides the contravariant (Shapovalov) Gram matrices, their exact
determinants by the Kac product formula, and the two primitive singular
vectors of a minimal-model weight, each the exact kernel of L(1) and
L(2) at its own level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from operator import ge, mul

from .errors import ModelViolationError, RangeError
from .linalg import nullspace
from .models import KacLabel, MinimalModel, central_charge, check_label, conformal_weight

Partition = tuple[int, ...]


@dataclass(frozen=True)
class VermaParams:
    """Central charge and lowest weight, as exact rationals."""

    c: Fraction
    h: Fraction

    def __post_init__(self):
        object.__setattr__(self, "c", Fraction(self.c))
        object.__setattr__(self, "h", Fraction(self.h))


@dataclass(frozen=True)
class PBWVector:
    """Element of the level-`level` subspace: partition -> coefficient.
    A key that is not a partition of `level` raises RangeError.  Vectors
    the module builds from pbw_basis or the raising tables, whose keys
    are partitions by construction, come from `_of` and skip that check."""

    level: int
    coefficients: dict[Partition, Fraction]

    def __post_init__(self):
        for parts in self.coefficients:
            if sum(parts) != self.level:
                raise RangeError(
                    f"partition {parts} does not have level {self.level}"
                )
            if not all(map(ge, parts, parts[1:] + (1,))):  # non-increasing, last >= 1
                raise RangeError(f"{parts} is not a partition into positive, non-increasing parts")
        object.__setattr__(
            self,
            "coefficients",
            {p: Fraction(v) for p, v in self.coefficients.items() if v != 0},
        )

    @classmethod
    def _of(cls, level: int, coefficients: dict[Partition, Fraction]) -> "PBWVector":
        """The vector of Fraction coefficients on keys known to be
        partitions of level, zeros dropped, with no key check."""
        v = object.__new__(cls)
        object.__setattr__(v, "level", level)
        object.__setattr__(v, "coefficients", {p: x for p, x in coefficients.items() if x})
        return v

    def is_zero(self) -> bool:
        return not self.coefficients

    def scaled(self, factor: Fraction) -> "PBWVector":
        factor = Fraction(factor)
        return PBWVector._of(self.level, {p: v * factor for p, v in self.coefficients.items()})


@lru_cache(maxsize=64)
def pbw_basis(level: int) -> tuple[Partition, ...]:
    """All partitions of `level` in descending lexicographic order: each
    first part, from `level` down, followed by the partitions of the rest
    whose parts are no larger, read from the lower levels."""
    if level < 0:
        raise RangeError("level must be nonnegative")
    if level == 0:
        return ((),)
    return tuple(
        (first,) + rest
        for first in range(level, 0, -1)
        for rest in pbw_basis(level - first)
        if not rest or rest[0] <= first
    )


@lru_cache(maxsize=2**15)
def _normal_order(word: tuple[int, ...]) -> tuple[tuple[Partition, int], ...]:
    """Reorder a product of lowering operators L(-word[0])...L(-word[-1]).

    Returns (partition, integer coefficient) pairs.  Uses
    L(-a)L(-b) = L(-b)L(-a) + (b-a) L(-(a+b)) for a < b.
    """
    for i in range(len(word) - 1):
        if word[i] < word[i + 1]:
            a, b = word[i], word[i + 1]
            swapped = word[:i] + (b, a) + word[i + 2:]
            merged = word[:i] + (a + b,) + word[i + 2:]
            out: dict[Partition, int] = {}
            for parts, cf in _normal_order(swapped):
                out[parts] = out.get(parts, 0) + cf
            for parts, cf in _normal_order(merged):
                out[parts] = out.get(parts, 0) + (b - a) * cf
            return tuple((p, cf) for p, cf in out.items() if cf != 0)
    return ((word, 1),)


Affine = tuple[int, int, int]  # (a, b, e) stands for a + b h + e c/2


@lru_cache(maxsize=2**15)
def _raise_monomial(m: int, parts: Partition) -> tuple[tuple[Partition, Affine], ...]:
    """Normal-ordered L(m) . (L(-parts)|h>) for m >= 1.

    Every coefficient is affine in the weight, a + b h + e c/2 with
    integers a, b, e, so the table is built once for all (c, h).  A mode
    above the level of the tail it would act on gives 0, so it is not
    recursed into; L(-mu) in front of a partition with no part above mu
    is already normal-ordered.
    """
    if not parts:
        return ()
    mu, rest = parts[0], parts[1:]
    below = sum(rest)
    out: dict[Partition, list[int]] = {}
    # [L(m), L(-mu)] = (m + mu) L(m - mu) + (m^3 - m)/12 delta_{m,mu} c;
    # each word below is reached once, so it is stored, not added
    k, f = m - mu, m + mu
    if k > 0:
        if k <= below:
            for word, (a, b, e) in _raise_monomial(k, rest):
                out[word] = [f * a, f * b, f * e]
    elif k == 0:
        out[rest] = [f * below, f, (m**3 - m) // 6]
    elif not rest or rest[0] <= -k:
        out[(-k,) + rest] = [f, 0, 0]
    else:
        for word, cf in _normal_order((-k,) + rest):
            out[word] = [f * cf, 0, 0]
    # plus L(-mu) L(m) acting on the tail
    if m <= below:
        for word, (a, b, e) in _raise_monomial(m, rest):
            if not word or word[0] <= mu:
                terms = (((mu,) + word, 1),)
            else:
                terms = _normal_order((mu,) + word)
            for ordered, cf in terms:
                acc = out.get(ordered)
                if acc is None:
                    out[ordered] = [cf * a, cf * b, cf * e]
                else:
                    acc[0] += cf * a
                    acc[1] += cf * b
                    acc[2] += cf * e
    return tuple([(p, (a, b, e)) for p, (a, b, e) in out.items() if a or b or e])


def _integer_weight(params: VermaParams) -> tuple[int, int, int]:
    """(d, d h, d c/2) with d = lcm(2 den(c), den(h)), all integers: d
    times a raising coefficient (a, b, e) is a d + b (d h) + e (d c/2)."""
    c, h = params.c, params.h
    d = lcm(2 * c.denominator, h.denominator)
    return d, h.numerator * (d // h.denominator), c.numerator * (d // (2 * c.denominator))


def apply_raising(params: VermaParams, m: int, v: PBWVector) -> PBWVector:
    """L(m) applied to v (m >= 1), landing at level v.level - m."""
    if m < 1:
        raise RangeError("apply_raising handles positive modes only")
    new_level = max(v.level - m, 0)
    d, dh, dc = _integer_weight(params)
    out: dict[Partition, Fraction] = {}
    for parts, coef in v.coefficients.items():
        for word, (a, b, e) in _raise_monomial(m, parts):
            out[word] = out.get(word, 0) + coef * (a * d + b * dh + e * dc)
    return PBWVector._of(new_level, {word: x / d for word, x in out.items()})


@dataclass(frozen=True)
class GramMatrix:
    """Contravariant-form matrix at one level, in pbw_basis order."""

    params: VermaParams
    level: int
    basis: tuple[Partition, ...]
    entries: tuple[tuple[Fraction, ...], ...]


def _raising_rows(
    params: VermaParams, m: int, level: int, first: int = 0
) -> list[tuple[tuple[int, ...], list[int]]]:
    """L(m) on each monomial of pbw_basis(level)[first:], 1 <= m <= level,
    as the positions in pbw_basis(level - m) it reaches and d times its
    coefficients there, integers (d as in _integer_weight)."""
    d, dh, dc = _integer_weight(params)
    index = {parts: i for i, parts in enumerate(pbw_basis(level - m))}
    rows = []
    for parts in pbw_basis(level)[first:]:
        image = _raise_monomial(m, parts)
        rows.append((
            tuple([index[word] for word, _ in image]),
            [a * d + b * dh + e * dc for _, (a, b, e) in image],
        ))
    return rows


def _gram_entries(params: VermaParams, level: int) -> tuple[tuple[Fraction, ...], ...]:
    """Gram entries at `level` by recursion over the levels below.

    The adjoint of L(-l_1)...L(-l_k) applies L(l_1) first, so with
    L(l_1)|mu> = sum_nu R[mu -> nu] |nu> one level down,

        G_N[lam, mu] = sum_nu R_{l_1}[mu -> nu] G_{N - l_1}[lam[1:], nu].

    Only the rows lam[1:], lam[2:], ... that the level-N rows reach are
    built, each once and in full, and all are dropped on return.  The
    raising rows are d times their coefficients (see _raising_rows), so
    the row of a k-part tail times d^k is integral: rows are kept as
    those integers, and only the level-N entries are divided, by
    d^len(lam).  The form is symmetric, so each level-N row is built
    from its diagonal on, with the L(m) rows of the monomials from the
    first one that starts with m; the entry of each unordered pair is one
    Fraction, held in both mirror positions.
    """
    if level == 0:
        return ((Fraction(1),),)
    d = _integer_weight(params)[0]
    tables: dict[tuple[int, int], list[tuple[tuple[int, ...], list[int]]]] = {}
    rows: dict[Partition, list[int]] = {(): [1]}

    def recur(tail: Partition, table) -> list[int]:
        below = rows[tail[1:]]
        return [
            sum(map(mul, coefficients, map(below.__getitem__, positions)))
            for positions, coefficients in table
        ]

    upper: list[list[Fraction]] = []  # upper[i][k] is entry (i, i + k)
    m_top = first = 0
    for i, lam in enumerate(pbw_basis(level)):
        for start in reversed(range(1, len(lam))):  # proper tails, shortest first
            tail = lam[start:]
            if tail not in rows:
                key = tail[0], sum(tail)
                if key not in tables:
                    tables[key] = _raising_rows(params, *key)
                rows[tail] = recur(tail, tables[key])
        if lam[0] != m_top:  # the monomials that start with m are contiguous
            m_top, first, top = lam[0], i, _raising_rows(params, lam[0], level, i)
        denominator = d ** len(lam)
        upper.append([Fraction(x, denominator) for x in recur(lam, top[i - first:])])
    return tuple(
        tuple(upper[j][i - j] for j in range(i)) + tuple(upper[i]) for i in range(len(upper))
    )


def gram_matrix(params: VermaParams, level: int) -> GramMatrix:
    """Exact Gram matrix; entry (i, j) pairs basis monomials i and j."""
    if level < 0:
        raise RangeError("level must be nonnegative")
    return GramMatrix(params, level, pbw_basis(level), _gram_entries(params, level))


def _kac_product(params: VermaParams, level: int) -> Fraction:
    """The Kac product formula (Kac 1979; Feigin-Fuchs 1984),

        det G_N = K_N prod_{rs <= N} (h - h_{r,s})^P(N - rs),
        K_N = prod_{rs <= N} ((2r)^s s!)^(P(N - rs) - P(N - r(s+1))),

    with c = 13 - 6u, u = t + 1/t and h_{r,s} = ((r^2-1) t + (s^2-1)/t)/4
    - (rs-1)/2, in rationals however irrational t is: h_{r,r} =
    (r^2-1)(u-2)/4, and for r < s the factors of h_{r,s} and h_{s,r},
    which share their exponent, multiply to the rational

        a^2 - a (R+S) u/4 + (RS (u^2-2) + R^2 + S^2)/16,

    a = h + (rs-1)/2, R = r^2-1, S = s^2-1.  With h = hn/hd and u =
    un/ud each factor is an integer over 4 hd ud (r = s) or over
    64 hd^2 ud^2 (r < s), so the product is taken in integers and
    reduced once.  Zero at the first vanishing factor.
    """
    hn, hd = params.h.numerator, params.h.denominator
    u = (13 - params.c) / 6
    un, ud = u.numerator, u.denominator
    P = [len(pbw_basis(n)) for n in range(level + 1)]
    numerator, denominator = 1, 1
    for r in range(1, level + 1):
        R = r * r - 1
        for s in range(1, level // r + 1):
            power = P[level - r * s]
            above = P[level - r * (s + 1)] if r * (s + 1) <= level else 0
            numerator *= ((2 * r) ** s * factorial(s)) ** (power - above)
            if s < r:
                continue  # (r, s) was taken with (s, r)
            if s == r:
                top, bottom = 4 * hn * ud - R * (un - 2 * ud) * hd, 4 * hd * ud
            else:
                S = s * s - 1
                an = 2 * hn + (r * s - 1) * hd  # a = an / (2 hd)
                top = (16 * an * an * ud * ud - 8 * an * (R + S) * un * hd * ud
                       + 4 * hd * hd * (R * S * (un * un - 2 * ud * ud) + (R * R + S * S) * ud * ud))
                bottom = 64 * hd * hd * ud * ud
            if top == 0:
                return Fraction(0)
            numerator *= top**power
            denominator *= bottom**power
    return Fraction(numerator, denominator)


def kac_determinant(params: VermaParams, level: int, cache=None) -> Fraction:
    """Exact determinant of the level-`level` Gram matrix, by the Kac
    product formula.

    With a cache (a cache.GramCache) the determinant is read from its
    own record first; on a miss the Gram record is written unless one
    loads, so a cold call leaves one Gram and one determinant record as
    the cache always has, and the determinant is stored.
    """
    if level < 0:
        raise RangeError("level must be nonnegative")
    if cache is not None:
        hit = cache.load_determinant(params, level)
        if hit is not None:
            return hit
        if cache.load(params, level) is None:
            cache.store(gram_matrix(params, level))
    value = _kac_product(params, level)
    if cache is not None:
        cache.store_determinant(params, level, value)
    return value


def _singular_space(params: VermaParams, level: int) -> list[PBWVector]:
    """Exact basis of {v at this level : L(1) v = 0 and L(2) v = 0}.

    L(1) and L(2) generate the raising subalgebra under brackets, so
    annihilation by both is annihilation by every positive mode.
    """
    basis = pbw_basis(level)
    rows: list[list[int]] = []  # d times the matrices of L(1) and L(2)
    for m in (1, 2):
        if level - m < 0:
            continue
        block = [[0] * len(basis) for _ in pbw_basis(level - m)]
        for j, (positions, coefficients) in enumerate(_raising_rows(params, m, level)):
            for t, cf in zip(positions, coefficients):
                block[t][j] = cf
        rows += block
    kernel = nullspace(rows)
    return [
        PBWVector._of(level, dict(zip(basis, vec)))
        for vec in kernel
    ]


def _normalize_singular(v: PBWVector) -> PBWVector:
    """v scaled to 1 at its first monomial in pbw_basis order, L(-level)
    when present."""
    lead = next(v.coefficients[p] for p in pbw_basis(v.level) if p in v.coefficients)
    return v.scaled(1 / lead)


def singular_vectors(
    model: MinimalModel, label: KacLabel, max_level: int
) -> list[tuple[int, PBWVector]]:
    """Primitive singular vectors up to max_level, by level.

    M(c, h_(m,n)) has its two primitive singular vectors at levels m*n
    and (p-m)*(q-n), and every other singular vector lies in the
    submodule they generate; a Virasoro Verma module has at most one
    singular vector per level (Feigin-Fuchs 1984).  So the singular
    space is computed at those two levels only, where it must be one
    vector; anything else raises ModelViolationError.
    """
    check_label(model, label)
    if max_level < 1:
        raise RangeError("max_level must be at least 1")
    params = VermaParams(central_charge(model), conformal_weight(model, label))
    levels = {label.m * label.n, (model.p - label.m) * (model.q - label.n)}
    found: list[tuple[int, PBWVector]] = []
    for level in sorted(lev for lev in levels if lev <= max_level):
        sing = _singular_space(params, level)
        if len(sing) != 1:
            raise ModelViolationError(f"{len(sing)} singular vectors at level {level} of {label}")
        found.append((level, _normalize_singular(sing[0])))
    return found


def verify_singular(params: VermaParams, v: PBWVector) -> bool:
    """True iff L(1) and L(2) both annihilate v exactly."""
    if v.is_zero():
        return False
    return (
        apply_raising(params, 1, v).is_zero()
        and apply_raising(params, 2, v).is_zero()
    )
