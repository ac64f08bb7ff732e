"""Dense univariate polynomials over exact rationals.

A polynomial is a tuple of Fractions in ascending power order with no
trailing zeros; () is the zero polynomial.  Includes the small
rational-function family P(z) / (z^a (1-z)^b) that the correlator
reduction stays inside, and exact rational root extraction for
indicial polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isfinite, lcm

import numpy as np

Poly = tuple[Fraction, ...]

ZERO: Poly = ()
ONE: Poly = (Fraction(1),)


def poly(coeffs) -> Poly:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def padd(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return poly(
        [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
    )


def pscale(a: Poly, k: Fraction) -> Poly:
    if k == 0:
        return ZERO
    return tuple(c * k for c in a)


def pmul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ZERO
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return poly(out)


def pshift(a: Poly, k: int) -> Poly:
    """Multiply by z^k (k >= 0)."""
    if not a:
        return ZERO
    return (Fraction(0),) * k + a


def pderiv(a: Poly) -> Poly:
    return poly([a[i] * i for i in range(1, len(a))])


def peval(a: Poly, x):
    """Horner evaluation; exact for Fraction x, numeric for complex/float."""
    acc = x * 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def pcompose_affine(a: Poly, c0: Fraction, c1: Fraction) -> Poly:
    """p(c0 + c1 u) as a polynomial in u."""
    acc: Poly = ZERO
    lin = poly([c0, c1])
    for c in reversed(a):
        acc = padd(pmul(acc, lin), poly([c]))
    return acc


def ord0(a: Poly) -> int:
    """Valuation at 0; raises on the zero polynomial."""
    for i, c in enumerate(a):
        if c != 0:
            return i
    raise ValueError("zero polynomial has no valuation")


def degree(a: Poly) -> int:
    if not a:
        raise ValueError("zero polynomial has no degree")
    return len(a) - 1


def divide_by_root(a: Poly, r: Fraction) -> tuple[Poly, Fraction]:
    """Synthetic division: a = (z - r) q + rem."""
    if not a:
        return ZERO, Fraction(0)
    q = [Fraction(0)] * (len(a) - 1)
    acc = Fraction(0)
    for i in range(len(a) - 1, 0, -1):
        acc = a[i] + r * acc
        q[i - 1] = acc
    rem = a[0] + r * acc if len(a) > 1 else a[0]
    return poly(q), rem


def root_multiplicity(a: Poly, r: Fraction) -> int:
    count = 0
    while a:
        q, rem = divide_by_root(a, r)
        if rem != 0:
            break
        count += 1
        a = q
    return count


def rational_roots(a: Poly) -> tuple[list[tuple[Fraction, int]], Poly]:
    """All rational roots with multiplicities, sorted, plus the unfactored part.

    Works on the primitive integer form c_n z^n + ... + c_0.  Every
    rational root p/q has q | c_n, so a floating-point root within
    1/(2 c_n) of it rounds to exactly p/q on the grid Z / c_n; each such
    candidate from numpy.roots is kept only if exact synthetic division
    confirms it, and is then divided out to its full multiplicity.  What
    the candidates miss (roots numpy resolves too coarsely, coefficients
    beyond float range) is found by the rational root theorem on the
    deflated leftover, enumerating divisors of its constant and leading
    terms by trial division; that costs O(sqrt|c_0|), and indicial
    polynomials of order-6 correlator ODEs have 30-bit constant terms.
    The result does not depend on the floating-point stage: the roots
    are all rational roots and the leftover is the integer form divided
    by their linear factors.
    """
    if not a:
        raise ValueError("zero polynomial")
    roots: list[tuple[Fraction, int]] = []
    mult0 = ord0(a)
    if mult0:
        roots.append((Fraction(0), mult0))
        a = a[mult0:]
    den = lcm(*(c.denominator for c in a))
    ints = [int(c * den) for c in a]
    g = gcd(*ints)
    ints = [c // g for c in ints]
    work = poly(ints)
    lead = ints[-1]

    def divide_out(work: Poly, r: Fraction) -> Poly:
        mult = 0
        while True:
            q, rem = divide_by_root(work, r)
            if rem != 0:
                break
            work = q
            mult += 1
        if mult:
            roots.append((r, mult))
        return work

    for x in _float_roots(ints):
        scaled = x.real * lead
        if isfinite(scaled) and degree(work) > 0:
            work = divide_out(work, Fraction(round(scaled), lead))

    def divisors(n: int) -> list[int]:
        n = abs(n)
        out = set()
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.add(d)
                out.add(n // d)
            d += 1
        return sorted(out)

    while degree(work) > 0:
        found = None
        for pnum in divisors(int(work[0])):
            for qden in divisors(int(work[-1])):
                for cand in (Fraction(pnum, qden), Fraction(-pnum, qden)):
                    if peval(work, cand) == 0:
                        found = cand
                        break
                if found is not None:
                    break
            if found is not None:
                break
        if found is None:
            break
        work = divide_out(work, found)
    leftover = work if degree(work) > 0 else ZERO
    return sorted(roots), leftover


def _float_roots(ints: list[int]) -> list[complex]:
    """Floating-point roots of an integer polynomial (ascending
    coefficients), or none when a coefficient exceeds float range."""
    try:
        coeffs = [float(c) for c in reversed(ints)]
    except OverflowError:
        return []
    return [complex(x) for x in np.roots(coeffs) if np.isfinite(x)]


def normalize_system(polys: list[Poly]) -> tuple[Poly, ...]:
    """Canonical form of an ODE coefficient list.

    Divides out common z^a (1-z)^b monomial factors, clears denominators,
    divides by the integer content and fixes the sign so the leading
    coefficient of the highest-order polynomial is positive.
    """
    if all(not p for p in polys):
        raise ValueError("all coefficients vanish")
    nz = [p for p in polys if p]
    a = min(ord0(p) for p in nz)
    b = min(root_multiplicity(p, Fraction(1)) for p in nz)
    out = []
    for p in polys:
        if not p:
            out.append(ZERO)
            continue
        p = p[a:]
        for _ in range(b):
            q, rem = divide_by_root(p, Fraction(1))
            assert rem == 0
            p = pscale(q, Fraction(-1))  # (1 - z) = -(z - 1)
        out.append(p)
    den = lcm(*(c.denominator for p in out for c in p if c != 0))
    num = gcd(*(int(c * den) for p in out for c in p if c != 0))
    scale = Fraction(den, num)
    out = [pscale(p, scale) for p in out]
    top = next(p for p in reversed(out) if p)
    if top[-1] < 0:
        out = [pscale(p, Fraction(-1)) for p in out]
    return tuple(out)


@dataclass(frozen=True)
class RatZ:
    """Rational function num / (z^a (1-z)^b) with nonnegative a, b."""

    num: Poly
    a: int = 0
    b: int = 0

    @staticmethod
    def zero() -> "RatZ":
        return RatZ(ZERO)

    @staticmethod
    def one() -> "RatZ":
        return RatZ(ONE)

    def is_zero(self) -> bool:
        return not self.num

    def scaled(self, k: Fraction) -> "RatZ":
        return RatZ(pscale(self.num, k), self.a, self.b)

    def __add__(self, other: "RatZ") -> "RatZ":
        a = max(self.a, other.a)
        b = max(self.b, other.b)
        omz = poly([1, -1])
        left = self.num
        left = pshift(left, a - self.a)
        for _ in range(b - self.b):
            left = pmul(left, omz)
        right = other.num
        right = pshift(right, a - other.a)
        for _ in range(b - other.b):
            right = pmul(right, omz)
        return RatZ(padd(left, right), a, b)

    def mul_z_pow(self, k: int) -> "RatZ":
        if self.is_zero():
            return self
        if k >= 0:
            return RatZ(pshift(self.num, k), self.a, self.b)
        return RatZ(self.num, self.a - k, self.b)

    def mul_omz_pow(self, k: int) -> "RatZ":
        if self.is_zero():
            return self
        if k >= 0:
            num = self.num
            omz = poly([1, -1])
            for _ in range(k):
                num = pmul(num, omz)
            return RatZ(num, self.a, self.b)
        return RatZ(self.num, self.a, self.b - k)

    def deriv(self) -> "RatZ":
        if self.is_zero():
            return self
        z_omz = poly([0, 1, -1])  # z(1-z)
        omz = poly([1, -1])
        zp = poly([0, 1])
        num = pmul(pderiv(self.num), z_omz)
        num = padd(num, pscale(pmul(self.num, omz), Fraction(-self.a)))
        num = padd(num, pscale(pmul(self.num, zp), Fraction(self.b)))
        return RatZ(num, self.a + 1, self.b + 1)

    def as_poly_with(self, a: int, b: int) -> Poly:
        """Numerator after rescaling to the common denominator z^a (1-z)^b."""
        if self.is_zero():
            return ZERO
        assert a >= self.a and b >= self.b
        num = pshift(self.num, a - self.a)
        omz = poly([1, -1])
        for _ in range(b - self.b):
            num = pmul(num, omz)
        return num
