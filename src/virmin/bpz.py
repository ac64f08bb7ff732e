"""Differential equations for four-point correlators of primary fields.

A singular vector in the module attached to one insertion slot makes
the correlator

    F(z1, z2) = < w4' , Y1(w1, z1) Y2(w2, z2) w3 >

satisfy a linear PDE.  Moving a lowering mode L(-m) off the right slot
across two intertwining operators with primary w1, w2, w4' produces the
first-order pieces

    D_m = -( z1^{1-m} d/dz1 + h1 (1-m) z1^{-m}
           + z2^{1-m} d/dz2 + h2 (1-m) z2^{-m} ),

one per mode, composed along each monomial of the singular vector
(route A, null vector on slot 3).  A null vector on slot 2 is handled
by the skew transform that swaps the middle and right insertions: the
same insertion rule applies in the variables (z1 - z2, e^{i pi} z2)
with the middle weight now that of w3, and transporting the operator
back to (z1, z2) gives, per mode,

    -( (z1-z2)^{1-m} d/dz1 + h1 (1-m) (z1-z2)^{-m}
       + (-1)^m [ z2^{1-m} (d/dz1 + d/dz2) + h3 (1-m) z2^{-m} ] ),

whose coefficients are singular on z1 = z2 while route A's are not.

The scaling ansatz F = z1^t1 z2^t2 g(z), z = z2/z1, turns either PDE
into an ODE for g by one identity: with theta = z d/dz and (x)_n the
falling factorial,

    d1^r d2^s [z1^t1 z2^t2 g(z)] = z1^(t1-r) z2^(t2-s) [(t1-theta)_r (t2+theta)_s g](z),

and (theta)_j = z^j d^j/dz^j.  Each PDE term therefore maps to a
polynomial in theta times z^(b-s) (1-z)^e, and the resulting ODE has
polynomial coefficients and regular singular points contained in
{0, 1, infinity}.  An `ODESpec` builds its local data once: the same
ODE at z = 1 and the Frobenius shift polynomials there and at 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, lcm

import numpy as np

from .errors import (
    FusionError,
    ModelViolationError,
    RangeError,
    ReductionError,
    ShapeError,
    StructureError,
)
from .fusion import fusion_rule
from .models import (
    KacLabel,
    MinimalModel,
    canonicalize,
    check_label,
    conformal_weight,
    kac_table,
)
from .poly import Poly, degree, normalize_system, ord0, pmul, poly, rational_roots
from .verma import PBWVector

# Operator term key: exponents of z1, z2, (z1 - z2), then d/dz1, d/dz2 orders.
TermKey = tuple[int, int, int, int, int]


@dataclass(frozen=True)
class TwoVarOperator:
    """Finite sum of monomial-times-derivative terms in two variables."""

    terms: tuple[tuple[TermKey, Fraction], ...]

    @staticmethod
    def from_dict(d: dict[TermKey, Fraction]) -> "TwoVarOperator":
        items = tuple(sorted((k, v) for k, v in d.items() if v != 0))
        return TwoVarOperator(items)

    @staticmethod
    def identity() -> "TwoVarOperator":
        return TwoVarOperator.from_dict({(0, 0, 0, 0, 0): Fraction(1)})

    def as_dict(self) -> dict[TermKey, Fraction]:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "TwoVarOperator") -> "TwoVarOperator":
        d = self.as_dict()
        for k, v in other.terms:
            d[k] = d.get(k, Fraction(0)) + v
        return TwoVarOperator.from_dict(d)

    def scaled(self, k: Fraction) -> "TwoVarOperator":
        return TwoVarOperator.from_dict({key: v * k for key, v in self.terms})



def compose(d: TwoVarOperator, x: TwoVarOperator) -> TwoVarOperator:
    """Normal-ordered product d . x; d must be at most first order."""
    out: dict[TermKey, Fraction] = {}

    def add(key: TermKey, val: Fraction):
        if val:
            out[key] = out.get(key, Fraction(0)) + val

    for (a1, b1, e1, r1, s1), c1 in d.terms:
        if r1 + s1 > 1:
            raise ShapeError("compose expects a first-order left factor")
        for (a2, b2, e2, r2, s2), c2 in x.terms:
            coef = c1 * c2
            key_a, key_b, key_e = a1 + a2, b1 + b2, e1 + e2
            if r1 == 0 and s1 == 0:
                add((key_a, key_b, key_e, r2, s2), coef)
            elif r1 == 1:
                # d/dz1 through the monomial of x
                add((key_a - 1, key_b, key_e, r2, s2), coef * a2)
                add((key_a, key_b, key_e - 1, r2, s2), coef * e2)
                add((key_a, key_b, key_e, r2 + 1, s2), coef)
            else:
                add((key_a, key_b - 1, key_e, r2, s2), coef * b2)
                add((key_a, key_b, key_e - 1, r2, s2), -coef * e2)
                add((key_a, key_b, key_e, r2, s2 + 1), coef)
    return TwoVarOperator.from_dict(out)


def insertion_operator_slot3(m: int, h1: Fraction, h2: Fraction) -> TwoVarOperator:
    """The mode-m insertion operator D_m for a right-slot lowering mode."""
    if m < 1:
        raise RangeError("insertion mode must be positive")
    w = Fraction(1 - m)
    d: dict[TermKey, Fraction] = {
        (1 - m, 0, 0, 1, 0): Fraction(-1),
        (0, 1 - m, 0, 0, 1): Fraction(-1),
    }
    if w:
        d[(-m, 0, 0, 0, 0)] = -h1 * w
        d[(0, -m, 0, 0, 0)] = -h2 * w
    return TwoVarOperator.from_dict(d)


def insertion_operator_slot2(m: int, h1: Fraction, h3: Fraction) -> TwoVarOperator:
    """Mode-m insertion operator for a middle-slot lowering mode,
    transported back from the swapped variables (z1 - z2, e^{i pi} z2)."""
    if m < 1:
        raise RangeError("insertion mode must be positive")
    w = Fraction(1 - m)
    sign = Fraction(-1) ** m
    d: dict[TermKey, Fraction] = {}

    def add(key: TermKey, val: Fraction):
        if val:
            d[key] = d.get(key, Fraction(0)) + val

    add((0, 0, 1 - m, 1, 0), Fraction(-1))
    add((0, 1 - m, 0, 1, 0), -sign)
    add((0, 1 - m, 0, 0, 1), -sign)
    if w:
        add((0, 0, -m, 0, 0), -h1 * w)
        add((0, -m, 0, 0, 0), -sign * h3 * w)
    return TwoVarOperator.from_dict(d)


@dataclass(frozen=True)
class CorrelatorSpec:
    """Labels for the four primary insertions < w4' , Y1(w1) Y2(w2) w3 >."""

    model: MinimalModel
    w4: KacLabel
    w1: KacLabel
    w2: KacLabel
    w3: KacLabel

    def __post_init__(self):
        for lab in (self.w4, self.w1, self.w2, self.w3):
            check_label(self.model, lab)

    @property
    def h4(self) -> Fraction:
        return conformal_weight(self.model, self.w4)

    @property
    def h1(self) -> Fraction:
        return conformal_weight(self.model, self.w1)

    @property
    def h2(self) -> Fraction:
        return conformal_weight(self.model, self.w2)

    @property
    def h3(self) -> Fraction:
        return conformal_weight(self.model, self.w3)


def _compose_chain(factors: list[TwoVarOperator]) -> TwoVarOperator:
    op = TwoVarOperator.identity()
    for d in reversed(factors):
        op = compose(d, op)
    return op


def derive_pde_slot3(spec: CorrelatorSpec, P: PBWVector) -> TwoVarOperator:
    """Annihilating operator from a slot-3 singular vector P."""
    if P.is_zero():
        raise ShapeError("singular vector must be nonzero")
    h1, h2 = spec.h1, spec.h2
    op = TwoVarOperator.from_dict({})
    for parts, coef in P.coefficients.items():
        chain = _compose_chain([insertion_operator_slot3(m, h1, h2) for m in parts])
        op = op + chain.scaled(coef)
    return op


def derive_pde_slot2(spec: CorrelatorSpec, Q: PBWVector) -> TwoVarOperator:
    """Annihilating operator from a slot-2 singular vector Q."""
    if Q.is_zero():
        raise ShapeError("singular vector must be nonzero")
    h1, h3 = spec.h1, spec.h3
    op = TwoVarOperator.from_dict({})
    for parts, coef in Q.coefficients.items():
        chain = _compose_chain([insertion_operator_slot2(m, h1, h3) for m in parts])
        op = op + chain.scaled(coef)
    return op


@dataclass(frozen=True)
class ExponentPair:
    """Leading exponents (t1, t2) of the two intertwining operators."""

    t1: Fraction
    t2: Fraction


def channel_exponents(spec: CorrelatorSpec, channel: KacLabel) -> ExponentPair:
    """Anchor exponents for an intermediate channel: t2 = h5 - h2 - h3,
    t1 = h4 - h1 - h5.  The channel must be allowed in both pairings."""
    check_label(spec.model, channel)
    if not fusion_rule(spec.model, spec.w2, spec.w3, channel):
        raise FusionError(f"channel {channel} not in {spec.w2} x {spec.w3}")
    if not fusion_rule(spec.model, spec.w1, channel, spec.w4):
        raise FusionError(f"channel {channel} not allowed with {spec.w1} into {spec.w4}")
    h5 = conformal_weight(spec.model, channel)
    return ExponentPair(t1=spec.h4 - spec.h1 - h5, t2=h5 - spec.h2 - spec.h3)


def allowed_channels(spec: CorrelatorSpec) -> list[KacLabel]:
    """Canonical intermediate labels allowed in both pairings, sorted."""
    out = []
    for label, _ in kac_table(spec.model):
        if fusion_rule(spec.model, spec.w2, spec.w3, label) and fusion_rule(
            spec.model, spec.w1, label, spec.w4
        ):
            out.append(label)
    return out


@dataclass(frozen=True)
class ODESpec:
    """Linear ODE sum_i c_i(z) g^(i)(z) = 0 with exact polynomial c_i.

    coefficients[i] is the polynomial multiplying the i-th derivative;
    the leading one is nonzero.  For the correlator reductions the
    finite singular points are contained in {0, 1} and infinity is
    regular singular; `validate_minimal_form` checks this.
    """

    coefficients: tuple[Poly, ...]

    def __post_init__(self):
        coeffs = tuple(poly(c) for c in self.coefficients)
        while coeffs and not coeffs[-1]:
            coeffs = coeffs[:-1]
        if not coeffs:
            raise ShapeError("ODE needs a nonzero leading coefficient")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    @cached_property
    def complex_coefficients(self) -> np.ndarray:
        """complex(c_i[b]) as a read-only (order + 1, largest length)
        array, zero-padded, converted once."""
        width = max(len(c) for c in self.coefficients)
        out = np.zeros((len(self.coefficients), width), dtype=complex)
        for i, c in enumerate(self.coefficients):
            out[i, : len(c)] = [complex(v) for v in c]
        out.setflags(write=False)
        return out

    @cached_property
    def shifted_to_one(self) -> "ODESpec":
        """The same ODE in the local variable u = 1 - z, built once.

        Its coefficients are (-1)^i c_i(1 - u): each c_i is scaled to
        integers, Taylor-shifted to c_i(1 + v) by repeated additions and
        read at v = -u.
        """
        out = []
        for i, c in enumerate(self.coefficients):
            den = lcm(*(v.denominator for v in c))
            ints = [v.numerator * (den // v.denominator) for v in c]
            for k in range(len(ints) - 1):
                for m in range(len(ints) - 2, k - 1, -1):
                    ints[m] += ints[m + 1]
            out.append(
                tuple(Fraction(-x if (i + k) % 2 else x, den) for k, x in enumerate(ints))
            )
        return ODESpec(tuple(out))

    @cached_property
    def frobenius_shifts(self) -> tuple[Poly, ...]:
        """Shift polynomials A_j(x) of the Frobenius recursion at z = 0,
        built once.

        With nu = min_i (ord c_i - i), substituting z^rho sum a_n z^n
        gives sum_j A_j(rho + n - j) a_{n-j} = 0 per order n, where
        A_j(x) = sum_i c_{i, nu+i+j} (x)_i and (x)_i = x(x-1)...(x-i+1).
        A_0 is the indicial polynomial.  The shifts at z = 1 are those
        of `shifted_to_one`.
        """
        den = lcm(*(v.denominator for c in self.coefficients for v in c))
        nz = [
            (i, [v.numerator * (den // v.denominator) for v in c])
            for i, c in enumerate(self.coefficients)
            if c
        ]
        nu = min(ord0(c) - i for i, c in nz)
        jmax = max(len(c) - 1 - i for i, c in nz) - nu
        falling = {i: _falling(i) for i, _ in nz}
        shifts = []
        for j in range(jmax + 1):
            acc = [0] * (self.order + 1)
            for i, c in nz:
                idx = nu + i + j
                if 0 <= idx < len(c) and c[idx]:
                    for k, f in enumerate(falling[i]):
                        acc[k] += c[idx] * f
            shifts.append(poly(Fraction(x, den) for x in acc))
        return tuple(shifts)

    def validate_minimal_form(self) -> None:
        """Assert singular points within {0, 1} and regular singularity
        everywhere including infinity (Fuchs criterion)."""
        ck = self.coefficients[-1]
        k = self.order
        # the multiplicity of the root 1 of c_i is the valuation of its shift
        at_one = self.shifted_to_one.coefficients
        if degree(ck) > ord0(ck) + ord0(at_one[-1]):
            raise StructureError("leading coefficient has roots outside {0, 1}")
        for i, ci in enumerate(self.coefficients[:-1]):
            if not ci:
                continue
            if ord0(ci) < ord0(ck) - (k - i):
                raise StructureError("irregular singular point at 0")
            if ord0(at_one[i]) < ord0(at_one[-1]) - (k - i):
                raise StructureError("irregular singular point at 1")
            if degree(ci) > degree(ck) - (k - i):
                raise StructureError("irregular singular point at infinity")

    def proportional(self, other: "ODESpec") -> bool:
        """True iff the two ODEs have identical monic form."""
        if self.order != other.order:
            return False
        ck_a = self.coefficients[-1]
        ck_b = other.coefficients[-1]
        for ca, cb in zip(self.coefficients, other.coefficients):
            if pmul(ca, ck_b) != pmul(cb, ck_a):
                return False
        return True


def _falling(i: int) -> tuple[int, ...]:
    """Integer coefficients of (x)_i = x (x-1) ... (x-i+1), ascending."""
    out = [1]
    for j in range(i):
        # (x)_{j+1} = x (x)_j - j (x)_j
        out = [(out[k - 1] if k else 0) - (j * out[k] if k < len(out) else 0)
               for k in range(len(out) + 1)]
    return tuple(out)


def indicial_polynomial(ode: ODESpec, point) -> Poly:
    """Indicial polynomial at 0, 1 or 'inf' as a polynomial in rho.

    At 0 and 1 it is A_0 of the Frobenius shifts there."""
    if point == 0:
        return ode.frobenius_shifts[0]
    if point == 1:
        return ode.shifted_to_one.frobenius_shifts[0]
    if point == "inf":
        # sum of (-1)^i c_i[top] (rho)^(i) over the top i; the rising
        # factorial (rho)^(i) is (-1)^i (-rho)_i
        nz = [(i, c) for i, c in enumerate(ode.coefficients) if c]
        nu = max(degree(c) - i for i, c in nz)
        out: list[Fraction] = [Fraction(0)] * (ode.order + 1)
        for i, c in nz:
            if degree(c) - i == nu:
                for k, f in enumerate(_falling(i)):
                    out[k] += -c[-1] * f if k % 2 else c[-1] * f
        return poly(out)
    raise RangeError(f"indicial point must be 0, 1 or 'inf', got {point!r}")


def indicial_exponents(ode: ODESpec, point) -> list[Fraction]:
    """Exact roots (with multiplicity) of the indicial polynomial.

    Raises StructureError if the point is an irregular singularity and
    ModelViolationError if any root is irrational or complex; the
    minimal-model equations never trigger the latter, so an occurrence
    points at a derivation bug rather than being silently accepted.
    The roots are extracted once per (ode, point); each call returns a
    new list.
    """
    return list(_indicial_exponents(ode, point))


@lru_cache(maxsize=256)
def _indicial_exponents(ode: ODESpec, point) -> tuple[Fraction, ...]:
    ind = indicial_polynomial(ode, point)
    if not ind or degree(ind) < ode.order:
        raise StructureError(
            f"indicial polynomial at {point} has degree {len(ind) - 1 if ind else 'none'}"
            f" < order {ode.order}: irregular singular point"
        )
    roots, leftover = rational_roots(ind)
    if leftover:
        raise ModelViolationError(
            f"indicial polynomial at {point} has non-rational roots; "
            f"unfactored part {leftover}"
        )
    out: list[Fraction] = []
    for r, mult in roots:
        out.extend([r] * mult)
    return tuple(out)


def _euler_factors(anchor: ExponentPair):
    """P_rs = (t1 - theta)_r (t2 + theta)_s in the falling basis
    (theta)_j, ascending in j, memoised per (r, s) for one anchor.

    P_rs = P_r,s-1 (t2 - s + 1 + theta), or P_r-1,0 (t1 - r + 1 - theta)
    when s = 0, multiplied by x (x)_j = (x)_{j+1} + j (x)_j."""
    table: dict[tuple[int, int], list[Fraction]] = {(0, 0): [Fraction(1)]}

    def factor(r: int, s: int) -> list[Fraction]:
        if (r, s) not in table:
            if s:
                prev, const, sign = factor(r, s - 1), anchor.t2 - s + 1, 1
            else:
                prev, const, sign = factor(r - 1, 0), anchor.t1 - r + 1, -1
            # (const + sign theta) (theta)_j = sign (theta)_{j+1} + (const + sign j) (theta)_j
            out = [Fraction(0)] * (len(prev) + 1)
            for j, c in enumerate(prev):
                out[j + 1] += sign * c
                out[j] += c * (const + sign * j)
            table[(r, s)] = out
        return table[(r, s)]

    return factor


def reduce_to_ode(op: TwoVarOperator, anchor: ExponentPair) -> ODESpec:
    """Substitute F = z1^t1 z2^t2 g(z2/z1) and return the ODE for g.

    With z = z2/z1, theta = z d/dz and (x)_n the falling factorial,

        d1^r d2^s [z1^t1 z2^t2 g(z)] = z1^(t1-r) z2^(t2-s) [(t1-theta)_r (t2+theta)_s g](z),

    so a term coef z1^a z2^b (z1-z2)^e d1^r d2^s of a scaling-homogeneous
    operator contributes coef z^(b-s) (1-z)^e P_rs(theta) to the ODE,
    after the common power of z1 and z^t2 are divided out.  P_rs is
    expanded once per distinct (r, s) in the basis (theta)_j =
    z^j d^j/dz^j.  The sum is cleared to polynomials by a common
    z^A (1-z)^B and brought to canonical form by `normalize_system`.
    An operator that is not scaling-homogeneous cannot cancel the z1
    dependence and is rejected.
    """
    if op.is_zero():
        raise ReductionError("cannot reduce the zero operator")
    degrees = {a + b + e - r - s for (a, b, e, r, s), _ in op.terms}
    if len(degrees) != 1:
        raise ReductionError(
            "operator is not scaling-homogeneous: residual z1 dependence "
            f"(term degrees {sorted(degrees)})"
        )
    factor = _euler_factors(anchor)
    # (derivative order j, power e of 1 - z) -> {power of z: coefficient}
    acc: dict[tuple[int, int], dict[int, Fraction]] = {}
    for (a, b, e, r, s), coef in op.terms:
        for j, pj in enumerate(factor(r, s)):
            if pj:
                terms = acc.setdefault((j, e), {})
                terms[b - s + j] = terms.get(b - s + j, 0) + coef * pj
    shift_z = -min(k for terms in acc.values() for k in terms)
    shift_omz = -min(e for _, e in acc)
    order = max(j for j, _ in acc)
    polys: list[list[Fraction]] = [[] for _ in range(order + 1)]
    for (j, e), terms in acc.items():
        m = e + shift_omz
        width = max(terms) + shift_z + m + 1
        out = polys[j]
        out.extend([Fraction(0)] * (width - len(out)))
        for k, v in terms.items():
            for t in range(m + 1):
                c = comb(m, t)
                out[k + shift_z + t] += -v * c if t % 2 else v * c
    coeffs = [poly(c) for c in polys]
    if not any(coeffs):
        raise ReductionError("reduction produced the zero ODE")
    ode = ODESpec(normalize_system(coeffs))
    ode.validate_minimal_form()
    return ode


@lru_cache(maxsize=256)
def reduced_ode(
    spec: CorrelatorSpec, anchor_channel: KacLabel | None = None, route: str = "slot3"
) -> tuple[ODESpec, ExponentPair, KacLabel]:
    """Full pipeline: singular vector -> PDE -> reduced ODE, memoized.

    The null vector is taken at its first degeneracy level for the
    relevant slot's label.  Returns (ode, anchor, anchor_channel) with
    the anchor defaulting to the first allowed channel.
    """
    from .models import null_level
    from .verma import singular_vectors

    channels = allowed_channels(spec)
    if not channels:
        raise FusionError("correlator admits no intermediate channel")
    channel = anchor_channel if anchor_channel is not None else channels[0]
    anchor = channel_exponents(spec, channel)
    if route == "slot3":
        slot_label = spec.w3
    elif route == "slot2":
        slot_label = spec.w2
    else:
        raise RangeError(f"route must be 'slot3' or 'slot2', got {route!r}")
    level = null_level(spec.model, slot_label)
    prims = [
        (lev, vec)
        for lev, vec in singular_vectors(spec.model, slot_label, level)
        if lev == level
    ]
    if not prims:
        raise ModelViolationError(f"no null vector at level {level} for {slot_label}")
    vec = prims[0][1]
    if route == "slot3":
        op = derive_pde_slot3(spec, vec)
    else:
        op = derive_pde_slot2(spec, vec)
    return reduce_to_ode(op, anchor), anchor, channel
