from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_oracles import (
    RatZ,
    fraction_normalize_system,
    pcompose_affine,
    pderiv,
    root_multiplicity,
)
from virmin.poly import (
    _float_roots,
    divide_by_root,
    normalize_system,
    ord0,
    padd,
    peval,
    pmul,
    poly,
    pscale,
    rational_roots,
)

F = Fraction


def test_basic_arithmetic():
    a = poly([1, 2])
    b = poly([0, -2, 3])
    assert padd(a, b) == (F(1), F(0), F(3))
    assert pmul(a, b) == (F(0), F(-2), F(-1), F(6))
    assert pderiv(b) == (F(-2), F(6))
    assert pscale(a, F(0)) == ()
    assert poly([0, 0]) == ()


def test_eval_and_compose():
    p = poly([1, -3, 2])  # (1-z)(1-2z)
    assert peval(p, F(1)) == 0
    assert peval(p, F(1, 2)) == 0
    comp = pcompose_affine(p, F(1), F(-1))  # p(1-u)
    assert peval(comp, F(0)) == 0
    assert peval(comp, F(1, 2)) == 0


def test_divide_by_root():
    p = poly([-2, 1, 1])  # (z-1)(z+2)
    q, rem = divide_by_root(p, F(1))
    assert rem == 0 and q == (F(2), F(1))
    assert root_multiplicity(poly([0, 0, 1]), F(0)) == 2
    assert root_multiplicity(poly([1, -2, 1]), F(1)) == 2


def test_rational_roots():
    # 6z^3 - 5z^2 + 1 has roots 1/2, 1/3... build from factors (2z-1)(3z+1)(z-1)
    p = pmul(pmul(poly([-1, 2]), poly([1, 3])), poly([-1, 1]))
    roots, leftover = rational_roots(p)
    assert leftover == ()
    assert sorted(r for r, _ in roots) == [F(-1, 3), F(1, 2), F(1)]
    # irreducible quadratic is left over
    roots, leftover = rational_roots(poly([-2, 0, 1]))
    assert roots == [] and leftover == (F(-2), F(0), F(1))


def reference_rational_roots(coeffs):
    """Rational root theorem by plain trial division, on the primitive
    integer form; returns (sorted [(root, multiplicity)], leftover)."""
    coeffs = [Fraction(c) for c in coeffs]
    roots = []
    zeros = 0
    while coeffs[0] == 0:
        coeffs.pop(0)
        zeros += 1
    if zeros:
        roots.append((F(0), zeros))
    den = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    g = gcd(*ints)
    work = [F(c // g) for c in ints]

    def divide(work, r):
        acc, quot = F(0), []
        for c in reversed(work):
            acc = acc * r + c
            quot.append(acc)
        return quot[-2::-1], quot[-1]

    def divs(n):
        n = abs(int(n))
        small = [d for d in range(1, int(n**0.5) + 1) if n % d == 0]
        return sorted(set(small + [n // d for d in small]))

    for pnum in divs(work[0]):
        for qden in divs(work[-1]):
            for r in {F(pnum, qden), F(-pnum, qden)}:
                mult = 0
                while len(work) > 1:
                    quot, rem = divide(work, r)
                    if rem != 0:
                        break
                    work, mult = quot, mult + 1
                if mult:
                    roots.append((r, mult))
    return sorted(roots), (tuple(work) if len(work) > 1 else ())


def from_factors(content, roots, extra=(F(1),)):
    """content * extra * prod (z - r)^m."""
    out = pscale(poly(extra), F(content))
    for r, m in roots:
        for _ in range(m):
            out = pmul(out, poly([-r, 1]))
    return out


def test_rational_roots_triple_root():
    p = from_factors(9, [(F(2, 3), 3), (F(-1), 1)])
    assert rational_roots(p) == ([(F(-1), 1), (F(2, 3), 3)], ())


def test_rational_roots_large_leading_coefficient():
    # point-1 indicial polynomial of (5,6)<(3,2)^4>: 31-bit leading and
    # 30-bit constant coefficient, roots with denominator 60
    p = poly([-811281093, -207224920, 7464584400, 3399904000, -10211040000,
              -5011200000, 1728000000])
    assert p[-1].numerator.bit_length() == 31
    roots, leftover = rational_roots(p)
    assert leftover == ()
    assert [r for r, _ in roots] == [F(-21, 20), F(-59, 60), F(-23, 60), F(7, 20),
                                     F(49, 60), F(83, 20)]
    assert from_factors(p[-1], roots) == p


def test_rational_roots_quadratic_leftover():
    # 5 (z^2 - 2)(3z - 1)(2z + 5): the leftover is the primitive form
    # 6 (z^2 - 2) divided by the monic linear factors
    p = from_factors(30, [(F(1, 3), 1), (F(-5, 2), 1)], extra=(F(-2), F(0), F(1)))
    roots, leftover = rational_roots(p)
    assert roots == [(F(-5, 2), 1), (F(1, 3), 1)]
    assert leftover == poly([-12, 0, 6])


def test_rational_roots_beyond_float_range():
    big = 10**400
    p = from_factors(2, [(F(1), 1), (F(-3, 2), 2)], extra=(F(1), F(big), F(1)))
    ints = [int(c) for c in p]
    assert _float_roots(ints) == []  # float(coefficient) overflows
    roots, leftover = rational_roots(p)
    assert roots == [(F(-3, 2), 2), (F(1), 1)]
    assert leftover == poly([4, 4 * big, 4])  # primitive form (z-1)(2z+3)^2 (z^2+big z+1)
    assert (roots, leftover) == reference_rational_roots(p)


linear_factors = st.lists(
    st.tuples(st.integers(-9, 9), st.integers(1, 6), st.integers(1, 2)),
    min_size=0,
    max_size=4,
)


@given(
    factors=linear_factors,
    quadratic=st.sampled_from([None, (-2, 0, 1), (1, 1, 1), (-7, 3, 5)]),
    content=st.integers(1, 10**30),
)
@settings(max_examples=60, deadline=None)
def test_rational_roots_matches_trial_division(factors, quadratic, content):
    merged = {}
    for num, den, mult in factors:
        merged[F(num, den)] = merged.get(F(num, den), 0) + mult
    extra = tuple(F(c) for c in quadratic) if quadratic else (F(1),)
    p = from_factors(content, sorted(merged.items()), extra)
    if len(p) < 2:
        return
    got = rational_roots(p)
    assert got == reference_rational_roots(p)
    assert got[0] == sorted(merged.items())


def test_normalize_system():
    # common factor z(1-z), content 2, sign fix
    z_omz = poly([0, 1, -1])
    c0 = pscale(pmul(z_omz, poly([2])), F(1))
    c1 = pscale(pmul(z_omz, poly([0, -4])), F(1))
    out = normalize_system([c0, c1])
    assert out == ((F(-1),), (F(0), F(2)))


@given(
    polys=st.lists(
        st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=9), max_size=5),
        min_size=1,
        max_size=4,
    ),
    zeros=st.integers(0, 2),
    ones=st.integers(0, 2),
)
@settings(max_examples=80, deadline=None)
def test_normalize_system_matches_fraction_form(polys, zeros, ones):
    # common z^zeros (1-z)^ones factors are planted so that both get divided out
    factor = pmul(poly([0] * zeros + [1]), from_factors(1, [(F(1), ones)], (F(1),)))
    system = [pmul(poly(p), factor) for p in polys]
    if not any(system):
        return
    assert normalize_system(system) == fraction_normalize_system(system)


def test_ratz_deriv():
    # d/dz [ z / (1-z) ] = 1/(1-z)^2
    r = RatZ(poly([0, 1]), 0, 1)
    d = r.deriv()
    # compare by evaluating at a few rational points
    for z in (F(1, 3), F(-1, 2), F(2, 5)):
        num = peval(d.num, z)
        val = num / (z**d.a * (1 - z) ** d.b)
        assert val == 1 / (1 - z) ** 2


def test_ratz_add_and_powers():
    a = RatZ(poly([1]), 1, 0)  # 1/z
    b = RatZ(poly([1]), 0, 1)  # 1/(1-z)
    s = a + b
    for z in (F(1, 3), F(2, 7)):
        val = peval(s.num, z) / (z**s.a * (1 - z) ** s.b)
        assert val == 1 / z + 1 / (1 - z)
    c = a.mul_z_pow(2).mul_omz_pow(-1)  # z / (1-z)
    for z in (F(1, 4),):
        val = peval(c.num, z) / (z**c.a * (1 - z) ** c.b)
        assert val == z / (1 - z)


def test_ord0():
    assert ord0(poly([0, 0, 5])) == 2
    with pytest.raises(ValueError):
        ord0(())
