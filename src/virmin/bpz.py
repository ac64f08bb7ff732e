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

The scaling ansatz F = z1^t1 z2^t2 g(z2/z1) turns either PDE into an
ODE for g with polynomial coefficients and regular singular points
contained in {0, 1, infinity}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

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
from .poly import (
    ZERO,
    Poly,
    RatZ,
    degree,
    normalize_system,
    ord0,
    pcompose_affine,
    poly,
    pscale,
    pshift,
    rational_roots,
    root_multiplicity,
)
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

    def derivative_order(self) -> int:
        return max((r + s for (_, _, _, r, s), _ in self.terms), default=0)

    def singular_loci(self) -> set[str]:
        """Variety components where some coefficient has a pole."""
        loci = set()
        for (a, b, e, _, _), _ in self.terms:
            if a < 0:
                loci.add("z1")
            if b < 0:
                loci.add("z2")
            if e < 0:
                loci.add("z1-z2")
        return loci

    def touches_diagonal(self) -> bool:
        return any(e != 0 for (_, _, e, _, _), _ in self.terms)


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

    def validate_minimal_form(self) -> None:
        """Assert singular points within {0, 1} and regular singularity
        everywhere including infinity (Fuchs criterion)."""
        from .poly import divide_by_root

        ck = self.coefficients[-1]
        k = self.order
        stripped = poly(ck[ord0(ck):])
        while True:
            q, rem = divide_by_root(stripped, Fraction(1))
            if rem != 0 or not q:
                break
            stripped = q
        if degree(stripped) > 0:
            raise StructureError("leading coefficient has roots outside {0, 1}")
        for i, ci in enumerate(self.coefficients[:-1]):
            if not ci:
                continue
            if ord0(ci) < ord0(ck) - (k - i):
                raise StructureError("irregular singular point at 0")
            if root_multiplicity(ci, Fraction(1)) < root_multiplicity(ck, Fraction(1)) - (k - i):
                raise StructureError("irregular singular point at 1")
            if degree(ci) > degree(ck) - (k - i):
                raise StructureError("irregular singular point at infinity")

    def shifted_to_one(self) -> "ODESpec":
        """Same ODE in the local variable u = 1 - z."""
        out = []
        for i, ci in enumerate(self.coefficients):
            comp = pcompose_affine(ci, Fraction(1), Fraction(-1))
            out.append(pscale(comp, Fraction(-1) ** i))
        return ODESpec(tuple(out))

    def proportional(self, other: "ODESpec") -> bool:
        """True iff the two ODEs have identical monic form."""
        if self.order != other.order:
            return False
        from .poly import pmul

        ck_a = self.coefficients[-1]
        ck_b = other.coefficients[-1]
        for ca, cb in zip(self.coefficients, other.coefficients):
            if pmul(ca, ck_b) != pmul(cb, ck_a):
                return False
        return True


def _falling(i: int) -> Poly:
    """x (x-1) ... (x-i+1) as a polynomial in x."""
    from .poly import pmul

    out = poly([1])
    for j in range(i):
        out = pmul(out, poly([-j, 1]))
    return out


def _rising(i: int) -> Poly:
    from .poly import pmul

    out = poly([1])
    for j in range(i):
        out = pmul(out, poly([j, 1]))
    return out


def indicial_polynomial(ode: ODESpec, point) -> Poly:
    """Indicial polynomial at 0, 1 or 'inf' as a polynomial in rho."""
    from .poly import padd

    if point == 1:
        return indicial_polynomial(ode.shifted_to_one(), 0)
    if point == 0:
        nz = [(i, c) for i, c in enumerate(ode.coefficients) if c]
        nu = min(ord0(c) - i for i, c in nz)
        out: Poly = ZERO
        for i, c in nz:
            idx = nu + i
            if 0 <= idx < len(c) and c[idx]:
                out = padd(out, pscale(_falling(i), c[idx]))
        return out
    if point == "inf":
        nz = [(i, c) for i, c in enumerate(ode.coefficients) if c]
        nu = max(degree(c) - i for i, c in nz)
        out = ZERO
        for i, c in nz:
            if degree(c) - i == nu:
                out = padd(out, pscale(_rising(i), c[-1] * Fraction(-1) ** i))
        return out
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


def reduce_to_ode(op: TwoVarOperator, anchor: ExponentPair) -> ODESpec:
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
    ode = ODESpec(normalize_system(polys))
    ode.validate_minimal_form()
    return ode


def conjugate_power(ode: ODESpec, k: int) -> ODESpec:
    """ODE satisfied by g-hat where g = z^k g-hat (monomial regauging)."""
    from math import comb

    from .poly import padd, pmul

    order = ode.order
    shift = max(0, order - k)

    def ff(x: int, d: int) -> Fraction:
        out = Fraction(1)
        for t in range(d):
            out *= x - t
        return out

    new = [ZERO] * (order + 1)
    for j in range(order + 1):
        total: Poly = ZERO
        for i in range(j, order + 1):
            ci = ode.coefficients[i]
            if not ci:
                continue
            power = k - (i - j) + shift
            term = pscale(ci, Fraction(comb(i, j)) * ff(k, i - j))
            if not term:
                continue
            assert power >= 0
            total = padd(total, pshift(term, power))
        new[j] = total
    return ODESpec(normalize_system(new))


@lru_cache(maxsize=None)
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
