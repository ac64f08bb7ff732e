"""Earlier exact implementations, kept as independent test oracles.

`ratz_reduce_to_ode` reduces a two-variable operator to its ODE in the
coordinates (w, z) = (z1, z2/z1), term by term, with coefficients in the
rational-function family RatZ = P(z) / (z^a (1-z)^b), and normalizes
and validates it in Fraction arithmetic.  The remaining helpers rebuild
the ODE at z = 1, the Frobenius shift polynomials and the indicial
polynomials by direct polynomial composition.  None of them shares code
with virmin.bpz beyond the ODESpec container and the poly primitives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from virmin.bpz import ODESpec, TwoVarOperator
from virmin.errors import ReductionError, StructureError
from virmin.poly import (
    ZERO,
    Poly,
    degree,
    divide_by_root,
    ord0,
    padd,
    pmul,
    poly,
    pscale,
)

ONE: Poly = (Fraction(1),)


def pshift(a: Poly, k: int) -> Poly:
    """Multiply by z^k (k >= 0)."""
    if not a:
        return ZERO
    return (Fraction(0),) * k + a


def pderiv(a: Poly) -> Poly:
    return poly([a[i] * i for i in range(1, len(a))])


def root_multiplicity(a: Poly, r: Fraction) -> int:
    count = 0
    while a:
        q, rem = divide_by_root(a, r)
        if rem != 0:
            break
        count += 1
        a = q
    return count


def pcompose_affine(a: Poly, c0: Fraction, c1: Fraction) -> Poly:
    """p(c0 + c1 u) as a polynomial in u."""
    acc: Poly = ZERO
    lin = poly([c0, c1])
    for c in reversed(a):
        acc = padd(pmul(acc, lin), poly([c]))
    return acc


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


def fraction_normalize_system(polys: list[Poly]) -> tuple[Poly, ...]:
    """Canonical form of an ODE coefficient list, in Fraction arithmetic:
    common z^a (1-z)^b factors divided out, denominators cleared, content
    divided out, leading coefficient of the top polynomial positive."""
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


def fraction_validate_minimal_form(ode: ODESpec) -> None:
    """Fuchs criterion on {0, 1, infinity} by synthetic division at 1."""
    ck = ode.coefficients[-1]
    k = ode.order
    stripped = poly(ck[ord0(ck):])
    while True:
        q, rem = divide_by_root(stripped, Fraction(1))
        if rem != 0 or not q:
            break
        stripped = q
    if degree(stripped) > 0:
        raise StructureError("leading coefficient has roots outside {0, 1}")
    for i, ci in enumerate(ode.coefficients[:-1]):
        if not ci:
            continue
        if ord0(ci) < ord0(ck) - (k - i):
            raise StructureError("irregular singular point at 0")
        if root_multiplicity(ci, Fraction(1)) < root_multiplicity(ck, Fraction(1)) - (k - i):
            raise StructureError("irregular singular point at 1")
        if degree(ci) > degree(ck) - (k - i):
            raise StructureError("irregular singular point at infinity")


def ratz_reduce_to_ode(op: TwoVarOperator, anchor) -> ODESpec:
    """Substitute F = z1^t1 z2^t2 g(z2/z1) and return the ODE for g.

    Each operator term is processed in the coordinates (w, z) = (z1,
    z2/z1), where d/dz2 = w^{-1} d/dz, d/dz1 = d/dw - (z/w) d/dz, and
    every application lowers the power of w by one; an operator that is
    not scaling-homogeneous cannot cancel the overall w power and is
    rejected.
    """
    if op.is_zero():
        raise ReductionError("cannot reduce the zero operator")
    degrees = {a + b + e - r - s for (a, b, e, r, s), _ in op.terms}
    if len(degrees) != 1:
        raise ReductionError(
            "operator is not scaling-homogeneous: residual z1 dependence "
            f"(term degrees {sorted(degrees)})"
        )
    t1, t2 = anchor.t1, anchor.t2
    acc: list[RatZ] = []

    def acc_add(j: int, val: RatZ):
        while len(acc) <= j:
            acc.append(RatZ.zero())
        acc[j] = acc[j] + val

    for (a, b, e, r, s), coef in op.terms:
        c = [RatZ.one()]
        mu = t1 + t2
        for _ in range(s):
            new = []
            for j in range(len(c) + 1):
                val = RatZ.zero()
                if j < len(c):
                    val = val + c[j].deriv() + c[j].mul_z_pow(-1).scaled(t2)
                if 0 <= j - 1 < len(c):
                    val = val + c[j - 1]
                new.append(val)
            c = new
            mu -= 1
        for _ in range(r):
            new = []
            for j in range(len(c) + 1):
                val = RatZ.zero()
                if j < len(c):
                    val = val + c[j].scaled(Fraction(mu))
                    val = val + (c[j].deriv().mul_z_pow(1) + c[j].scaled(t2)).scaled(
                        Fraction(-1)
                    )
                if 0 <= j - 1 < len(c):
                    val = val + c[j - 1].mul_z_pow(1).scaled(Fraction(-1))
                new.append(val)
            c = new
            mu -= 1
        for j, cj in enumerate(c):
            if cj.is_zero():
                continue
            acc_add(j, cj.mul_z_pow(b).mul_omz_pow(e).scaled(coef))

    while acc and acc[-1].is_zero():
        acc.pop()
    if not acc:
        raise ReductionError("reduction produced the zero ODE")
    max_a = max(cj.a for cj in acc)
    max_b = max(cj.b for cj in acc)
    polys = [cj.as_poly_with(max_a, max_b) for cj in acc]
    ode = ODESpec(fraction_normalize_system(polys))
    fraction_validate_minimal_form(ode)
    return ode


def composed_at_one(ode: ODESpec) -> ODESpec:
    """The ODE in u = 1 - z by composing each c_i with 1 - u."""
    return ODESpec(tuple(
        pscale(pcompose_affine(c, Fraction(1), Fraction(-1)), Fraction(-1) ** i)
        for i, c in enumerate(ode.coefficients)
    ))


def _falling(i: int) -> Poly:
    out = ONE
    for j in range(i):
        out = pmul(out, poly([-j, 1]))
    return out


def _rising(i: int) -> Poly:
    out = ONE
    for j in range(i):
        out = pmul(out, poly([j, 1]))
    return out


def recursion_shifts(ode: ODESpec) -> list[Poly]:
    """Frobenius shift polynomials A_j at z = 0, built for each call."""
    nz = [(i, c) for i, c in enumerate(ode.coefficients) if c]
    nu = min(ord0(c) - i for i, c in nz)
    jmax = max(degree(c) - i for i, c in nz) - nu
    shifts = []
    for j in range(jmax + 1):
        acc: Poly = ZERO
        for i, c in nz:
            idx = nu + i + j
            if 0 <= idx < len(c) and c[idx]:
                acc = padd(acc, pscale(_falling(i), c[idx]))
        shifts.append(acc)
    return shifts


def reference_indicial_polynomial(ode: ODESpec, point) -> Poly:
    """Indicial polynomial at 0, 1 or 'inf', each point computed on its own."""
    if point == 1:
        return reference_indicial_polynomial(composed_at_one(ode), 0)
    if point == 0:
        nz = [(i, c) for i, c in enumerate(ode.coefficients) if c]
        nu = min(ord0(c) - i for i, c in nz)
        out: Poly = ZERO
        for i, c in nz:
            idx = nu + i
            if 0 <= idx < len(c) and c[idx]:
                out = padd(out, pscale(_falling(i), c[idx]))
        return out
    nz = [(i, c) for i, c in enumerate(ode.coefficients) if c]
    nu = max(degree(c) - i for i, c in nz)
    out = ZERO
    for i, c in nz:
        if degree(c) - i == nu:
            out = padd(out, pscale(_rising(i), c[-1] * Fraction(-1) ** i))
    return out
