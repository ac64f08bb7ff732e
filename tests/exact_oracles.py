"""Earlier exact implementations, kept as independent test oracles.

`poly` (a Fraction polynomial, trailing zeros dropped), `ZERO` and
`divide_by_root` (synthetic division by z - r in Fractions) are the
earlier Fraction polynomial primitives; `root_multiplicity`,
`fraction_normalize_system` and `fraction_validate_minimal_form` divide
with them, so they share no division with `virmin.poly.divide_linear`.
`padd`, `pscale`, `pmul`, `proportional` and `rank` are the plain
polynomial, ODE and matrix helpers the tests compare against.
`fraction_nullspace` is the earlier kernel: the fraction-free echelon
form, back-substituted entry by entry in Fractions.
`ratz_reduce_to_ode` reduces a two-variable operator to its ODE in the
coordinates (w, z) = (z1, z2/z1), term by term, with coefficients in the
rational-function family RatZ = P(z) / (z^a (1-z)^b), and normalizes
and validates it in Fraction arithmetic.  The remaining helpers rebuild
the ODE at z = 1, the Frobenius shift polynomials and the indicial
polynomials by direct polynomial composition.  None of them shares code
with virmin.bpz beyond the ODESpec container and the poly primitives.
Operators are the plain dicts of virmin.bpz, {term key: coefficient}.

`reference_derive_pde` is the earlier PDE derivation: each monomial's
chain of insertion operators composed from the identity on its own with
`virmin.bpz.compose`, then scaled and summed in Fractions.  It checks the
Horner grouping of `virmin.bpz`, not the product rule, which the
hand-derived equations and `ratz_reduce_to_ode` check.
`primitive_operator` brings a rational operator to the primitive integer
form the derivation returns: denominators cleared, content divided out.

The float-evaluation oracles are the earlier scalar paths: `tail_bound`
over every term, `partial_sum` in Fractions, and the fusing fit and
associativity residual evaluated one series and one point at a time
through `eval_local` (`scalar_fusing_fit`, `scalar_heldout_residual`,
`scalar_associativity_residual`).

The channel oracles `reference_channel_exponents` and
`reference_allowed_channels` are the earlier validating paths: every call
re-checks both fusion pairings and computes the Kac weights in
Fractions, with no table.  `reference_channels` is the earlier channel
table, which weighs every row of `kac_table` before the two pairings
filter them.  `reference_fusion_rule` is the earlier rule
that builds each reflected representative as a KacLabel and tries the
eight choices in turn; `reference_fusion_table` is the earlier table,
the rule evaluated on the whole label grid for each of the eight
choices and ORed.  `pairwise_ring_failures` is the earlier ring check:
the same vacuum and symmetry tests, then associativity compared in
integers pair by pair.

`reference_kac_table` is the earlier Kac-table construction: every
(m, n) canonicalized, duplicates dropped through a set, the rows sorted.

`eager_ff_echelon` is the earlier fraction-free elimination, which
rescales every row below the pivot at every step, including the rows
whose entry in the pivot column is already 0; `fraction_nullspace`
reads its echelon form.  `inequality_triple_ok` is the earlier fusion
triple test, the eight inequalities and two parities written out, which
the two fusion references use.

`reference_pbw_basis` is a plain recursive partition generator, and
`reference_raise_monomial` the earlier L(m) table: it recurses into
every mode, however far above the tail's level, and normal-orders every
word it builds.

`pbw_from_jsonable` and `ode_from_jsonable` are the inverse serializers
that only the tests use.  `RowSpace` is the earlier incremental
Gauss-Jordan row space in Fractions, with its queries `rowspace_contains`
and `rowspace_dim`; `reference_singular_vectors` is the earlier
singular-vector filter built on it, which spans the descendants of the
vectors kept so far with `apply_lowering` (L(-m) on a PBW vector).

`reference_frobenius_expand` is the earlier Frobenius recursion: the
same integer recursion as `virmin.blocks`, with every coefficient
reduced to a Fraction as it is produced.  `reference_residual_support`
is the earlier back-substitution check, in Fractions, from the shift
polynomials of `recursion_shifts`.

`gram_block_coefficients` is the block series of one channel from the
Shapovalov form alone, a_N = rho_L^T G_S^-1 rho_R (Di Francesco,
Mathieu and Senechal, ch. 6): it shares only `pbw_basis` and
`gram_matrix` with the ODE path it checks.

`reference_commutativity_residuals` is the earlier commutativity
transport: the arc below z = 1 and each leg between the targets
continued by a call of its own.

`reference_taylor_step` is the earlier continuation kernel: one Taylor
step, with its own shift, Toeplitz weights and recursion, applied to the
state directly; chaining it along a path is the reference for the
batched transfer matrices of `virmin.continuation`.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, factorial, gcd, lcm
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from virmin.blocks import eval_local, eval_local_derivatives
from virmin.bpz import CorrelatorSpec, ExponentPair, ODESpec, Operator, compose
from virmin.continuation import continue_along, lower_arc_path
from virmin.crossing import COMMUTATIVITY_TARGETS, correlator
from virmin.errors import (
    DomainError,
    FusionError,
    LogarithmicCaseError,
    RangeError,
    ReductionError,
    StructureError,
)
from virmin.models import (
    KacLabel,
    MinimalModel,
    canonicalize,
    central_charge,
    check_label,
    conformal_weight,
    kac_table,
    reflect,
)
from virmin.poly import Poly, degree, integer_form, ord0, peval
from virmin.serialize import parse_frac
from virmin.verma import (
    PBWVector,
    VermaParams,
    _normalize_singular,
    _normal_order,
    _singular_space,
    gram_matrix,
    pbw_basis,
)

ZERO: Poly = ()
ONE: Poly = (Fraction(1),)


def poly(coeffs) -> Poly:
    """Ascending coefficients as a Fraction Poly, trailing zeros dropped;
    Fractions are kept as they are."""
    out = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def divide_by_root(a: Poly, r: Fraction) -> tuple[Poly, Fraction]:
    """Synthetic division in Fractions: a = (z - r) q + rem."""
    if not a:
        return ZERO, Fraction(0)
    q = [Fraction(0)] * (len(a) - 1)
    acc = Fraction(0)
    for i in range(len(a) - 1, 0, -1):
        acc = a[i] + r * acc
        q[i - 1] = acc
    rem = a[0] + r * acc if len(a) > 1 else a[0]
    return poly(q), rem


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


def proportional(a: ODESpec, b: ODESpec) -> bool:
    """True iff the two ODEs have identical monic form."""
    if a.order != b.order:
        return False
    ck_a, ck_b = a.coefficients[-1], b.coefficients[-1]
    return all(
        pmul(ca, ck_b) == pmul(cb, ck_a) for ca, cb in zip(a.coefficients, b.coefficients)
    )


def eager_ff_echelon(
    m: list[list[int]], stop_at_gap: bool = False
) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free (Bareiss) row echelon form, (echelon, pivot_columns,
    sign), with every row below the pivot updated at every step: a row
    whose entry in the pivot column is 0 is rescaled by lead / prev."""
    m = [row[:] for row in m]
    if not m:
        return m, [], 1
    n_rows, n_cols = len(m), len(m[0])
    pivots: list[int] = []
    sign = 1
    prev = 1
    r = 0
    for col in range(n_cols):
        piv = next((i for i in range(r, n_rows) if m[i][col] != 0), None)
        if piv is None:
            if stop_at_gap:
                break
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        top = m[r][col + 1:]
        lead = m[r][col]
        for i in range(r + 1, n_rows):
            row = m[i]
            head = row[col]
            if head:
                row[col + 1:] = [(lead * a - head * b) // prev for a, b in zip(row[col + 1:], top)]
                row[col] = 0
            elif lead != prev:
                row[col + 1:] = [lead * a // prev for a in row[col + 1:]]
        prev = lead
        pivots.append(col)
        r += 1
        if r == n_rows:
            break
    return m, pivots, sign


def rank(matrix) -> int:
    """Rank by Gauss-Jordan elimination in Fractions."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col] / rows[r][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def fraction_nullspace(matrix, n_cols: int | None = None) -> list[list[Fraction]]:
    """Echelon-canonical kernel basis, back-substituted in Fractions: a 1
    in each vector's free column, 0 in the other free columns."""
    if not matrix:
        return [[Fraction(i == j) for j in range(n_cols)] for i in range(n_cols)]
    n_cols = len(matrix[0])
    ech, pivots, _ = eager_ff_echelon(integer_form(*matrix)[1])
    basis = []
    for f in (c for c in range(n_cols) if c not in pivots):
        v = [Fraction(0)] * n_cols
        v[f] = Fraction(1)
        for i in range(len(pivots) - 1, -1, -1):
            p = pivots[i]
            s = sum((Fraction(ech[i][c]) * v[c] for c in range(p + 1, n_cols)), Fraction(0))
            v[p] = -s / ech[i][p]
        basis.append(v)
    return basis


def gauss_det(matrix) -> Fraction:
    """Determinant by Gaussian elimination in Fractions."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    n, value = len(rows), Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if rows[i][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            value = -value
        value *= rows[col][col]
        for i in range(col + 1, n):
            f = rows[i][col] / rows[col][col]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    return value


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


def ratz_reduce_to_ode(op: Operator, anchor) -> ODESpec:
    """Substitute F = z1^t1 z2^t2 g(z2/z1) and return the ODE for g.

    Each operator term is processed in the coordinates (w, z) = (z1,
    z2/z1), where d/dz2 = w^{-1} d/dz, d/dz1 = d/dw - (z/w) d/dz, and
    every application lowers the power of w by one; an operator that is
    not scaling-homogeneous cannot cancel the overall w power and is
    rejected.
    """
    if not op:
        raise ReductionError("cannot reduce the zero operator")
    degrees = {a + b + e - r - s for a, b, e, r, s in op}
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

    for (a, b, e, r, s), coef in op.items():
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


def reference_derive_pde(P: PBWVector, insertion) -> Operator:
    """sum coef D_m1 ... D_mr over the monomials of P, with D_m =
    insertion(m): each monomial's chain composed from the identity on its
    own, right to left, scaled and added; zero sums dropped at the end."""
    out: Operator = {}
    for parts, coef in P.coefficients.items():
        chain: Operator = {(0, 0, 0, 0, 0): Fraction(1)}
        for m in reversed(parts):
            chain = compose(insertion(m), chain)
        for key, val in chain.items():
            out[key] = out.get(key, 0) + coef * val
    return {key: val for key, val in out.items() if val}


def primitive_operator(op: Operator) -> Operator:
    """The operator times the positive rational that makes its
    coefficients coprime integers."""
    d = lcm(*(Fraction(v).denominator for v in op.values()))
    ints = {key: int(v * d) for key, v in op.items()}
    g = gcd(*ints.values())
    return {key: v // g for key, v in ints.items()}


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


def reference_frobenius_expand(
    ode: ODESpec, point: int, exponent: Fraction, order: int
) -> tuple[Fraction, ...]:
    """Exact a_0..a_order at the point, one Fraction per order, raising
    RangeError and LogarithmicCaseError as virmin.blocks does."""
    if point not in (0, 1):
        raise RangeError("expansion point must be 0 or 1")
    if order < 0:
        raise RangeError("order must be nonnegative")
    exponent = Fraction(exponent)
    local = ode if point == 0 else ode.shifted_to_one
    shifts = local.frobenius_shifts
    if peval(shifts[0], exponent) != 0:
        raise RangeError(f"{exponent} is not an indicial root at {point}")
    jmax = len(shifts) - 1
    p, q = exponent.numerator, exponent.denominator
    deg = max(len(s) for s in shifts) - 1
    int_shifts = [
        [c * q ** (deg - k) for k, c in enumerate(s)] for s in integer_form(*shifts)[1]
    ]
    a = [Fraction(1)]
    nums = [1]
    den = 1
    for n in range(1, order + 1):
        rhs = 0
        for j in range(1, min(n, jmax) + 1):
            if shifts[j]:
                rhs -= peval(int_shifts[j], p + (n - j) * q) * nums[n - j]
        lead = peval(int_shifts[0], p + n * q)
        if lead != 0:
            den *= lead
            for k in range(max(0, n + 1 - jmax), n):
                nums[k] *= lead
            nums.append(rhs)
            a.append(Fraction(rhs, den))
        elif rhs == 0:
            nums.append(0)
            a.append(Fraction(0))
        else:
            raise LogarithmicCaseError(
                f"inconsistent resonance at order {n} above exponent {exponent}"
            )
    return tuple(a)


def reference_residual_support(ode, point, exponent, coeffs) -> list[int]:
    """Orders where the Fraction shift polynomials applied to the
    truncated coefficients leave a nonzero residual."""
    shifts = recursion_shifts(ode if point == 0 else composed_at_one(ode))
    top = len(coeffs) - 1
    return [
        n
        for n in range(top + len(shifts))
        if sum(
            (peval(shifts[j], exponent + n - j) * coeffs[n - j]
             for j in range(len(shifts)) if 0 <= n - j <= top),
            Fraction(0),
        ) != 0
    ]


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


def tail_bound(series, u: complex) -> float:
    """Last-term ratio heuristic for the truncation error, with the
    magnitude of every term computed."""
    mags = [abs(c) * abs(u) ** k for k, c in enumerate(series.complex_coefficients)]
    last = next((k for k in range(len(mags) - 1, -1, -1) if mags[k] > 0), 0)
    if last == 0:
        return 0.0
    window = [k for k in range(max(1, last - 4), last + 1) if mags[k - 1] > 0]
    ratios = [mags[k] / mags[k - 1] for k in window if mags[k] > 0]
    q = max([abs(u)] + ratios)
    q = min(q, 0.999)
    return mags[last] * q / (1.0 - q)


def partial_sum(series, u: Fraction) -> Fraction:
    """sum_k a_k u^k over the truncated series, exactly."""
    acc = Fraction(0)
    for c in reversed(series.coefficients):
        acc = acc * u + c
    return acc


def _scalar_local(s, x: float) -> complex:
    return eval_local(s, complex(x if s.base_point == 0 else 1 - x))


def scalar_fusing_fit(basis0, basis1, fit_points) -> list[tuple[complex, ...]]:
    """Rows of the fusing matrix: one least-squares solve per point-0
    solution, on a collocation matrix built one value at a time."""
    a = np.array(
        [[_scalar_local(s, x) for s in basis1.solutions] for x in fit_points], dtype=complex
    )
    rows = []
    for s0 in basis0.solutions:
        b = np.array([_scalar_local(s0, x) for x in fit_points], dtype=complex)
        sol, *_ = np.linalg.lstsq(a, b, rcond=None)
        rows.append(tuple(complex(v) for v in sol))
    return rows


def scalar_heldout_residual(rows, basis0, basis1, points) -> float:
    """Largest |lhs - rhs| over the points relative to each point-0
    solution's largest |lhs| there, one value at a time."""
    resid = 0.0
    for row, s0 in zip(rows, basis0.solutions):
        lhs = [_scalar_local(s0, x) for x in points]
        rhs = [sum(f * _scalar_local(s1, x) for f, s1 in zip(row, basis1.solutions))
               for x in points]
        scale = max(max(abs(v) for v in lhs), 1e-300)
        resid = max(resid, max(abs(l - r) for l, r in zip(lhs, rhs)) / scale)
    return resid


def scalar_associativity_residual(cor, anchor, rows, z1: float, z2: float) -> float:
    """Worst relative product-vs-iterate mismatch over the correlator's
    channels, with the prefactor z1^(t1 + t2) z^t2 of its anchor on both
    sides and the fusing rows `rows`, one channel and one series at a
    time."""
    z1c, z2c = complex(z1), complex(z2)
    z = z2c / z1c
    basis0, basis1 = cor.fusing.basis0, cor.fusing.basis1
    pref = cmath.exp(float(anchor.t1 + anchor.t2) * cmath.log(z1c)) * cmath.exp(
        float(anchor.t2) * cmath.log(z)
    )
    worst = 0.0
    for i in cor.channel_indices:
        prod = pref * eval_local(basis0.solutions[i], z)
        iterate = pref * sum(f * eval_local(s1, 1 - z) for f, s1 in zip(rows[i], basis1.solutions))
        worst = max(worst, abs(prod - iterate) / max(abs(prod), abs(iterate), 1e-300))
    return worst


def reference_channel_exponents(spec: CorrelatorSpec, channel: KacLabel) -> ExponentPair:
    """Anchor exponents for an intermediate channel: t2 = h5 - h2 - h3,
    t1 = h4 - h1 - h5.  The channel must be allowed in both pairings."""
    check_label(spec.model, channel)
    if not reference_fusion_rule(spec.model, spec.w2, spec.w3, channel):
        raise FusionError(f"channel {channel} not in {spec.w2} x {spec.w3}")
    if not reference_fusion_rule(spec.model, spec.w1, channel, spec.w4):
        raise FusionError(f"channel {channel} not allowed with {spec.w1} into {spec.w4}")
    h5 = conformal_weight(spec.model, channel)
    return ExponentPair(t1=spec.h4 - spec.h1 - h5, t2=h5 - spec.h2 - spec.h3)


def reference_allowed_channels(spec: CorrelatorSpec) -> list[KacLabel]:
    """Canonical intermediate labels allowed in both pairings, sorted."""
    out = []
    for label, _ in kac_table(spec.model):
        if reference_fusion_rule(
            spec.model, spec.w2, spec.w3, label
        ) and reference_fusion_rule(spec.model, spec.w1, label, spec.w4):
            out.append(label)
    return out


def reference_channels(spec: CorrelatorSpec) -> dict[KacLabel, ExponentPair]:
    """Channel -> anchor exponents: the kac_table rows both pairings
    allow, in table order, then their reflections."""
    allowed = [
        (label, ExponentPair(t1=spec.h4 - spec.h1 - h5, t2=h5 - spec.h2 - spec.h3))
        for label, h5 in kac_table(spec.model)
        if reference_fusion_rule(spec.model, spec.w2, spec.w3, label)
        and reference_fusion_rule(spec.model, spec.w1, label, spec.w4)
    ]
    return dict(allowed + [(reflect(spec.model, label), exps) for label, exps in allowed])


def inequality_triple_ok(p: int, q: int, a, b, c):
    """The single-representative rule for Kac pairs a, b, c = (m, n),
    as the eight strict inequalities and the two parities; entries may
    be ints or broadcastable integer arrays."""
    (m1, n1), (m2, n2), (m3, n3) = a, b, c
    sm = m1 + m2 + m3
    sn = n1 + n2 + n3
    return (
        (sm % 2 == 1) & (sn % 2 == 1) & (sm < 2 * p) & (sn < 2 * q)
        & (m1 < m2 + m3) & (m2 < m3 + m1) & (m3 < m1 + m2)
        & (n1 < n2 + n3) & (n2 < n3 + n1) & (n3 < n1 + n2)
    )


def reference_fusion_rule(model: MinimalModel, a: KacLabel, b: KacLabel, c: KacLabel) -> int:
    """Multiplicity N_{ab}^c, either 0 or 1, trying every choice of
    reflection representatives."""
    for lab in (a, b, c):
        check_label(model, lab)
    for ra in (a, reflect(model, a)):
        for rb in (b, reflect(model, b)):
            for rc in (c, reflect(model, c)):
                if inequality_triple_ok(
                    model.p, model.q, ra.as_tuple(), rb.as_tuple(), rc.as_tuple()
                ):
                    return 1
    return 0


def reference_fusion_table(model: MinimalModel) -> np.ndarray:
    """The (k, k, k) int8 multiplicity array over the canonical labels in
    kac_table order, ORed over all eight choices of representatives."""
    labels = [lab for lab, _ in kac_table(model)]
    m = np.array([lab.m for lab in labels], dtype=np.int16)
    n = np.array([lab.n for lab in labels], dtype=np.int16)
    reps = ((m, n), (model.p - m, model.q - n))
    table = np.zeros((len(labels),) * 3, dtype=bool)
    for (ma, na), (mb, nb), (mc, nc) in product(reps, repeat=3):
        table |= inequality_triple_ok(
            model.p,
            model.q,
            (ma[:, None, None], na[:, None, None]),
            (mb[None, :, None], nb[None, :, None]),
            (mc[None, None, :], nc[None, None, :]),
        )
    return table.astype(np.int8)


def pairwise_ring_failures(ft):
    """Reference ring check: vacuum, symmetry, then associativity
    M_a M_b = sum_e N_ab^e M_e tested pair by pair in row-major order."""
    k = len(ft.labels)
    t = ft.table.astype(np.int64)
    failures = []
    vac = ft.labels.index(canonicalize(ft.model, KacLabel(1, 1)))
    if not np.array_equal(t[vac], np.eye(k, dtype=np.int64)):
        failures.append("vacuum row is not the identity pattern")
    if not np.array_equal(t, t.transpose(1, 0, 2)):
        failures.append("commutativity N_ab^c = N_ba^c fails")
    for perm in [(0, 2, 1), (2, 1, 0)]:
        if not np.array_equal(t, t.transpose(*perm)):
            failures.append(f"slot permutation {perm} changes the multiplicity")
            break
    for i, j in product(range(k), repeat=2):
        lhs = t[i] @ t[j]
        rhs = sum(int(t[i, j, e]) * t[e] for e in range(k))
        if not np.array_equal(lhs, rhs):
            failures.append(f"associativity fails for a={ft.labels[i]}, b={ft.labels[j]}")
            break
    return tuple(failures)


def reference_kac_table(model: MinimalModel) -> list[tuple[KacLabel, Fraction]]:
    """Canonical labels with their weights, one entry per reflection
    orbit, sorted by label."""
    seen = set()
    rows = []
    for m in range(1, model.p):
        for n in range(1, model.q):
            label = canonicalize(model, KacLabel(m, n))
            if label in seen:
                continue
            seen.add(label)
            rows.append((label, conformal_weight(model, label)))
    rows.sort(key=lambda row: row[0].as_tuple())
    return rows


def pbw_from_jsonable(data: dict) -> PBWVector:
    coeffs = {
        tuple(t["partition"]): parse_frac(t["coefficient"]) for t in data["terms"]
    }
    return PBWVector(data["level"], coeffs)


def ode_from_jsonable(data: dict) -> ODESpec:
    return ODESpec(
        tuple(tuple(parse_frac(c) for c in poly) for poly in data["coefficients"])
    )


def reference_pbw_basis(level: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of `level` in descending lexicographic order, from
    a plain recursive generator."""

    def gen(n: int, max_part: int):
        if n == 0:
            yield ()
            return
        for first in range(min(n, max_part), 0, -1):
            for rest in gen(n - first, first):
                yield (first,) + rest

    return tuple(gen(level, level))


@lru_cache(maxsize=None)
def reference_raise_monomial(m: int, parts: tuple[int, ...]):
    """Normal-ordered L(m) . (L(-parts)|h>) for m >= 1 as (partition,
    (a, b, e)) pairs, a + b h + e c/2: the earlier recursion, which
    recurses into every mode and normal-orders every word it builds."""
    if not parts:
        return ()
    mu, rest = parts[0], parts[1:]
    out = {}

    def add(word, a, b, e):
        a0, b0, e0 = out.get(word, (0, 0, 0))
        out[word] = (a0 + a, b0 + b, e0 + e)

    # [L(m), L(-mu)] = (m + mu) L(m - mu) + (m^3 - m)/12 delta_{m,mu} c
    k, f = m - mu, m + mu
    if k > 0:
        for word, (a, b, e) in reference_raise_monomial(k, rest):
            add(word, f * a, f * b, f * e)
    elif k == 0:
        add(rest, f * sum(rest), f, (m**3 - m) // 6)
    else:
        for word, cf in _normal_order((-k,) + rest):
            add(word, f * cf, 0, 0)
    # plus L(-mu) L(m) acting on the tail
    for word, (a, b, e) in reference_raise_monomial(m, rest):
        for ordered, cf in _normal_order((mu,) + word):
            add(ordered, cf * a, cf * b, cf * e)
    return tuple((p, abe) for p, abe in out.items() if any(abe))


class RowSpace:
    """Incrementally built row space with exact membership tests, by
    Gauss-Jordan reduction in Fractions: the earlier singular-vector
    filter."""

    def __init__(self):
        self._rows: list[tuple[int, list[Fraction]]] = []  # (pivot, pivot-normalized row)

    def reduce(self, vec) -> list[Fraction]:
        v = list(vec)
        for p, row in self._rows:
            if v[p] != 0:
                coef = v[p]
                v = [a - coef * b for a, b in zip(v, row)]
        return v

    def add(self, vec) -> bool:
        """Insert vec's residual; True if it enlarged the space."""
        v = self.reduce(vec)
        p = next((i for i, x in enumerate(v) if x != 0), None)
        if p is None:
            return False
        piv = v[p]
        self._rows.append((p, [x / piv for x in v]))
        self._rows.sort(key=lambda t: t[0])
        return True


def apply_lowering(m: int, v: PBWVector) -> PBWVector:
    """L(-m) applied to v (m >= 1)."""
    if m < 1:
        raise RangeError("apply_lowering handles positive modes only")
    out: dict = {}
    for parts, coef in v.coefficients.items():
        for word, cf in _normal_order((m,) + parts):
            out[word] = out.get(word, Fraction(0)) + coef * cf
    return PBWVector(v.level + m, out)


def reference_singular_vectors(model: MinimalModel, label: KacLabel, max_level: int):
    """The earlier singular-vector filter: per level, the exact singular
    space of virmin.verma, with a vector kept when it enlarges the
    RowSpace of the descendants of the vectors kept below it."""
    params = VermaParams(central_charge(model), conformal_weight(model, label))
    found = []
    for level in range(1, max_level + 1):
        sing = _singular_space(params, level)
        if not sing:
            continue
        basis = pbw_basis(level)
        span = RowSpace()
        for lev, prim in found:
            for parts in pbw_basis(level - lev):
                desc = prim
                for k in reversed(parts):
                    desc = apply_lowering(k, desc)
                span.add([desc.coefficients.get(p, Fraction(0)) for p in basis])
        for v in sing:
            if span.add([v.coefficients.get(p, Fraction(0)) for p in basis]):
                found.append((level, _normalize_singular(v)))
    return found


def rowspace_contains(space: RowSpace, vec) -> bool:
    return all(x == 0 for x in space.reduce(vec))


def rowspace_dim(space: RowSpace) -> int:
    return len(space._rows)


def _solve(matrix, rhs) -> list[Fraction]:
    """x with matrix x = rhs, by Gauss-Jordan elimination in Fractions;
    the matrix must be invertible."""
    rows = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    n = len(rows)
    for col in range(n):
        pivot = next(i for i in range(col, n) if rows[i][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for i in range(n):
            if i != col and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[col])]
    return [row[-1] for row in rows]


def _vertex_product(parts, hp: Fraction, h_in: Fraction, h_out: Fraction) -> Fraction:
    """prod_i (hp + l_i + k_i h_in - h_out) over the modes k_i of the
    monomial L(-parts[0]) ... L(-parts[-1]) |hp>, l_i the level of the
    modes to the right of k_i: its pairing with the primary h_in
    inserted at 1 on the primary h_out, relative to the level-0 pairing."""
    out, level = Fraction(1), 0
    for k in reversed(parts):
        out *= hp + level + k * h_in - h_out
        level += k
    return out


def gram_block_coefficients(spec: CorrelatorSpec, channel: KacLabel, top: int) -> list[Fraction]:
    """a_0, ..., a_top of the channel's block series from the Shapovalov
    form: a_N = rho_L^T G_S^-1 rho_R, with G the level-N Gram matrix of
    the channel weight h_p, S a maximal set of independent rows of G
    (so G_S is the Gram matrix of the irreducible quotient),
    rho_R = prod (h_p + l_i + k_i h2 - h3) and rho_L the same with
    (h1, h4); an empty S gives 0."""
    c = central_charge(spec.model)
    hp = conformal_weight(spec.model, channel)
    out = [Fraction(1)]
    for level in range(1, top + 1):
        gram = gram_matrix(VermaParams(c, hp), level).entries
        space = RowSpace()
        rows = [i for i, row in enumerate(gram) if space.add(row)]
        basis = [pbw_basis(level)[i] for i in rows]
        rho_r = [_vertex_product(parts, hp, spec.h2, spec.h3) for parts in basis]
        rho_l = [_vertex_product(parts, hp, spec.h1, spec.h4) for parts in basis]
        x = _solve([[gram[i][j] for j in rows] for i in rows], rho_r) if rows else []
        out.append(sum((a * b for a, b in zip(rho_l, x)), Fraction(0)))
    return out


def _falling_table(rows: int, cols: int) -> np.ndarray:
    """ff[i, j] = j (j-1) ... (j-i+1) for i < rows, j < cols."""
    j = np.arange(cols, dtype=float)
    ff = np.ones((rows, cols))
    for i in range(1, rows):
        ff[i] = ff[i - 1] * (j - (i - 1))
    return ff


class _StepTables(NamedTuple):
    binom: np.ndarray  # comb(b, d), zero for d > b
    shift_power: np.ndarray  # max(b - d, 0), the power of p in the shift
    band: tuple  # where gamma[i, d] goes in the padded rows, see reference_taylor_step
    falling: np.ndarray  # ff(j, i)
    lead_div: np.ndarray  # ff(n + k, k) for n = 0 .. order - k
    inv_fact: np.ndarray  # 1 / t! for t < k, as a column
    eval_power: np.ndarray  # max(n - t, 0), the power of dz at target
    evaluation: np.ndarray  # ff(n, t), zero for n < t


@lru_cache(maxsize=32)
def _step_tables(k: int, width: int, order: int) -> _StepTables:
    """Index and weight tables of a Taylor step; they depend only on the
    ODE order k, the coefficient width (largest degree + 1) and the
    Taylor order."""
    ff = _falling_table(k + 1, order + 1)
    rows, cols = np.arange(width)[:, None], np.arange(width)[None, :]
    power = np.arange(order + 1)[None, :] - np.arange(k)[:, None]
    i = np.arange(k + 1)[:, None]
    return _StepTables(
        binom=np.array([[comb(r, c) for c in range(width)] for r in range(width)], float),
        shift_power=np.maximum(rows - cols, 0),
        band=(i, order + i - np.arange(width)[None, :]),
        falling=ff[:, None, :],
        lead_div=ff[k, k:],
        inv_fact=np.array([[1.0 / factorial(t)] for t in range(k)]),
        eval_power=np.maximum(power, 0),
        evaluation=np.where(power >= 0, ff[:k], 0.0),
    )


def reference_taylor_step(
    ode: ODESpec, p: complex, state, target: complex, order: int = 40
) -> np.ndarray:
    """Advance the solution state from the ordinary point p to target.

    state holds [y, y', ..., y^(k-1)] at p, either as a vector of shape
    (k,) or as the columns of a (k, m) matrix; the result has its shape.
    """
    k = ode.order
    coeffs = ode.complex_coefficients
    width = coeffs.shape[1]
    tab = _step_tables(k, width, order)
    # gamma[i, d]: coefficient of t^d in c_i(p + t)
    gamma = coeffs @ (tab.binom * (complex(p) ** np.arange(width))[tab.shift_power])
    lead = gamma[k, 0]
    if abs(lead) < 1e-300:
        raise DomainError(f"{p} is too close to a singular point for a Taylor step")
    # The coefficient of t^n in sum_i c_i(p + t) y^(i)(p + t) is
    # sum_j W[n, j] b[j] with W[n, j] = sum_i ff(j, i) gamma[i, n + i - j].
    # Row i of `padded` holds gamma[i, d] at position order + i - d and
    # zeros elsewhere, so gamma[i, n + i - j] = padded[i, order - n + j]:
    # window order - n of row i is row n of that Toeplitz matrix.
    # Solving for b[n + k], whose term is the leading gamma[k, 0] ff(n + k, k),
    # gives b[n + k] = sum_{j < n + k} w[n, j] b[j].
    padded = np.zeros((k + 1, 2 * order + 1), dtype=complex)
    padded[tab.band] = gamma
    windows = sliding_window_view(padded, order + 1, axis=1)[:, k:][:, ::-1]
    w = (tab.falling * windows).sum(axis=0)
    w /= -lead * tab.lead_div[:, None]

    # einsum sums each column in the same order whatever the number of
    # columns, so a column of a batch equals the same state stepped alone.
    state = np.asarray(state, dtype=complex)
    b = np.empty((order + 1, state.size // k), dtype=complex)
    b[:k] = state.reshape(k, -1) * tab.inv_fact
    for n in range(order - k + 1):
        np.einsum("j,jm->m", w[n, : n + k], b[: n + k], out=b[n + k])

    dz = complex(target) - complex(p)
    at_target = tab.evaluation * (dz ** np.arange(order + 1))[tab.eval_power]
    return np.einsum("tn,nm->tm", at_target, b).reshape(state.shape)


def reference_commutativity_residuals(spec: CorrelatorSpec, order: int, flips) -> tuple:
    """The earlier commutativity transport: the channel states continued
    from z = 0.5 along the arc below z = 1 to the first target, then one
    leg per further target, each by a continue_along call of its own;
    the predictions are those of virmin.crossing."""
    cor = correlator(spec, order)
    basis0, basis1 = cor.fusing.basis0, cor.fusing.basis1
    targets = COMMUTATIVITY_TARGETS
    swapped = basis1.values(np.array(targets))
    conjugate = np.exp(-2j * np.pi * basis1.float_exponents)[:, None]
    preds = [(cor.channel_rows @ (swapped * conjugate if f else swapped)).T for f in flips]
    ode = basis0.ode
    k = ode.order
    cur = np.column_stack(
        [eval_local_derivatives(basis0.solutions[i], 0.5 + 0j, k) for i in cor.channel_indices]
    )
    pos = 0.5 + 0j
    legs = [lower_arc_path(0.5, 16) + [complex(targets[0])]] + [[complex(x)] for x in targets[1:]]
    worst = [0.0] * len(flips)
    for w, (target, leg) in enumerate(zip(targets, legs)):
        cur = continue_along(ode, pos, cur, leg)
        pos = complex(target)
        for f, pred in enumerate(preds):
            resid = np.abs(cur[0] - pred[w]) / np.maximum(np.abs(pred[w]), 1e-300)
            worst[f] = max(worst[f], float(resid.max()))
    return tuple(worst)
