"""Dense univariate polynomials in integer arithmetic.

A polynomial is a tuple (or list) of ints in ascending power order with
no trailing zeros; () is the zero polynomial.  `integer_form`,
`normalize_system` and `rational_roots` also take Fraction coefficients
and clear their denominators first.  Includes the canonical form of an
ODE coefficient list and a search for rational roots; the package reads
its indicial exponents from the fusion rules instead (see
`bpz.fusion_exponents`), so the search serves as the tests' reference.

This module owns the exact primitives the rest of the package shares:
`integer_form` clears denominators, `peval` is the one Horner loop,
`falling` gives the coefficients of the falling factorial and
`divide_linear` is the one exact division by a linear factor.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isfinite, lcm, prod

import numpy as np

Poly = tuple[int | Fraction, ...]


def integer_form(*rows) -> tuple[int, list[list[int]]]:
    """(d, rows times d) with d the least common denominator of every
    entry of the rows (Fractions or ints), so the scaled rows are exact
    integers."""
    d = lcm(*(x.denominator for row in rows for x in row))
    return d, [[x.numerator * (d // x.denominator) for x in row] for row in rows]


def falling(i: int) -> tuple[int, ...]:
    """Integer coefficients of (x)_i = x (x-1) ... (x-i+1), ascending."""
    out = [1]
    for j in range(i):
        # (x)_{j+1} = x (x)_j - j (x)_j
        out = [(out[k - 1] if k else 0) - (j * out[k] if k < len(out) else 0)
               for k in range(len(out) + 1)]
    return tuple(out)


def peval(a, x):
    """Horner evaluation of the ascending coefficients a at x; exact for
    Fraction or int x and coefficients, numeric for complex or float."""
    acc = x * 0
    for c in reversed(a):
        acc = acc * x + c
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


def divide_linear(a, p: int, q: int) -> list[int] | None:
    """The nonzero integer polynomial a divided by q z - p (p and q
    coprime, q != 0), or None when the division is not exact.

    By Gauss's lemma an exact quotient g has integer coefficients, so
    each step from the top, a_n = q g_(n-1) and a_k = q g_(k-1) - p g_k,
    is an exact divmod, and the remainder a_0 + p g_0 must vanish.
    """
    out = [0] * (len(a) - 1)
    carry = 0
    for k in range(len(a) - 1, 0, -1):
        carry, rem = divmod(a[k] + p * carry, q)
        if rem:
            return None
        out[k - 1] = carry
    return out if a[0] + p * carry == 0 else None


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
    are all rational roots, each p/q divided out as the primitive factor
    q z - p, and the leftover is the quotient times the product of q^m,
    which is the primitive form divided by the monic factors (z - p/q)^m.
    """
    if not a:
        raise ValueError("zero polynomial")
    roots: list[tuple[Fraction, int]] = []
    mult0 = ord0(a)
    if mult0:
        roots.append((Fraction(0), mult0))
        a = a[mult0:]
    _, (ints,) = integer_form(a)
    g = gcd(*ints)
    ints = [c // g for c in ints]
    work = ints
    lead = ints[-1]

    def divide_out(work: list[int], r: Fraction) -> list[int]:
        mult = 0
        while (q := divide_linear(work, r.numerator, r.denominator)) is not None:
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
        for pnum in divisors(work[0]):
            for qden in divisors(work[-1]):
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
    scale = prod(r.denominator ** m for r, m in roots)
    leftover = tuple(c * scale for c in work) if degree(work) > 0 else ()
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
    """Canonical form of an ODE coefficient list, as tuples of ints.

    Divides out common z^a (1-z)^b monomial factors, clears denominators,
    divides by the integer content and fixes the sign so the leading
    coefficient of the highest-order polynomial is positive.  Works on
    the integer numerators over one common denominator, which the
    canonical form does not depend on, so the polynomials may be given
    as ints (without trailing zeros) at any nonzero scale.
    """
    if all(not p for p in polys):
        raise ValueError("all coefficients vanish")
    _, ints = integer_form(*polys)
    nz = [p for p in ints if p]
    a = min(ord0(p) for p in nz)
    ints = [p[a:] for p in ints]
    # each division by z - 1 flips every sign, which the sign step fixes
    while True:
        divided = [divide_linear(p, 1, 1) if p else p for p in ints]
        if any(q is None for q in divided):
            break
        ints = divided
    content = gcd(*(c for p in ints for c in p))
    if next(p for p in reversed(ints) if p)[-1] < 0:
        content = -content
    return tuple(tuple(c // content for c in p) for p in ints)
