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
(route A, null vector on slot 3).  An operator is a plain dict from
term keys (powers of z1, z2, z1 - z2, orders of d/dz1, d/dz2) to its
nonzero coefficients.  The sum over monomials is taken Horner-wise:
monomials with the same leftmost mode m share one composition with D_m
over the sum of their tails.  A null vector on slot 2 is handled
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

The indicial exponents are never searched for.  At each singular point
the null field fuses with the insertion it meets by the rules of a
degenerate field, so `fusion_exponents` writes every exponent down in
closed form with the shifted Kac label it comes from; the reduced ODE
carries them, and `indicial_exponents` confirms them by exact integer
division of the indicial polynomial.

Both steps run in Python integers over one scale each.  The PDE is
summed at delta^N, delta the lcm of the insertion operators'
denominators and N the level of the singular vector, and returned
primitive; the ODE carries eps^top, eps the lcm of the anchor exponents'
denominators and top the highest derivative order of the PDE, which its
canonical form divides out, and all its data are tuples of ints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, gcd, lcm

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
    kac_labels,
    kac_weight,
    null_level,
    reflect,
)
from .poly import Poly, degree, divide_linear, falling, integer_form, normalize_system, ord0
from .verma import PBWVector, singular_vectors

# Operator term key: exponents of z1, z2, (z1 - z2), then d/dz1, d/dz2 orders.
TermKey = tuple[int, int, int, int, int]
# A two-variable operator {term key: nonzero coefficient}: Fractions in an
# insertion operator, ints in a derived one.
Operator = dict[TermKey, Fraction | int]


def _add(out: Operator, key: TermKey, val: Fraction) -> None:
    """out[key] += val, dropping the term when the sum vanishes."""
    if val:
        val += out.pop(key, 0)
        if val:
            out[key] = val


def compose(d: Operator, x: Operator) -> Operator:
    """Normal-ordered product d . x; d must be at most first order."""
    out: Operator = {}
    for (a1, b1, e1, r1, s1), c1 in d.items():
        if r1 + s1 > 1:
            raise ShapeError("compose expects a first-order left factor")
        for (a2, b2, e2, r2, s2), c2 in x.items():
            coef = c1 * c2
            key_a, key_b, key_e = a1 + a2, b1 + b2, e1 + e2
            if r1 == 0 and s1 == 0:
                _add(out, (key_a, key_b, key_e, r2, s2), coef)
            elif r1 == 1:
                # d/dz1 through the monomial of x
                _add(out, (key_a - 1, key_b, key_e, r2, s2), coef * a2)
                _add(out, (key_a, key_b, key_e - 1, r2, s2), coef * e2)
                _add(out, (key_a, key_b, key_e, r2 + 1, s2), coef)
            else:
                _add(out, (key_a, key_b - 1, key_e, r2, s2), coef * b2)
                _add(out, (key_a, key_b, key_e - 1, r2, s2), -coef * e2)
                _add(out, (key_a, key_b, key_e, r2, s2 + 1), coef)
    return out


def insertion_operator_slot3(m: int, h1: Fraction, h2: Fraction) -> Operator:
    """The mode-m insertion operator D_m for a right-slot lowering mode."""
    if m < 1:
        raise RangeError("insertion mode must be positive")
    w = 1 - m
    d: Operator = {}
    for key, val in (
        ((1 - m, 0, 0, 1, 0), Fraction(-1)),
        ((0, 1 - m, 0, 0, 1), Fraction(-1)),
        ((-m, 0, 0, 0, 0), -h1 * w),
        ((0, -m, 0, 0, 0), -h2 * w),
    ):
        _add(d, key, val)
    return d


def insertion_operator_slot2(m: int, h1: Fraction, h3: Fraction) -> Operator:
    """Mode-m insertion operator for a middle-slot lowering mode,
    transported back from the swapped variables (z1 - z2, e^{i pi} z2).
    At m = 1 its two d/dz1 terms cancel, leaving d/dz2."""
    if m < 1:
        raise RangeError("insertion mode must be positive")
    w = 1 - m
    sign = Fraction((-1) ** m)
    d: Operator = {}
    for key, val in (
        ((0, 0, 1 - m, 1, 0), Fraction(-1)),
        ((0, 1 - m, 0, 1, 0), -sign),
        ((0, 1 - m, 0, 0, 1), -sign),
        ((0, 0, -m, 0, 0), -h1 * w),
        ((0, -m, 0, 0, 0), -sign * h3 * w),
    ):
        _add(d, key, val)
    return d


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

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The dataclass hash, computed once: memo lookups keyed by a spec
        would otherwise rehash its model and four labels."""
        return hash((self.model, self.w4, self.w1, self.w2, self.w3))

    @cached_property
    def h4(self) -> Fraction:
        return conformal_weight(self.model, self.w4)

    @cached_property
    def h1(self) -> Fraction:
        return conformal_weight(self.model, self.w1)

    @cached_property
    def h2(self) -> Fraction:
        return conformal_weight(self.model, self.w2)

    @cached_property
    def h3(self) -> Fraction:
        return conformal_weight(self.model, self.w3)

    @cached_property
    def channels(self) -> dict[KacLabel, ExponentPair]:
        """Every intermediate channel allowed in both pairings, under both
        Kac representatives, mapped to its anchor exponents; built once.

        The canonical labels come first, in `kac_labels` order, then their
        reflections (no label is its own reflection: p and q are coprime).
        The weight h5 is built only for a label both fusion rules allow.
        """
        allowed = [
            (label, ExponentPair(t1=self.h4 - self.h1 - h5, t2=h5 - self.h2 - self.h3))
            for label in kac_labels(self.model)
            if fusion_rule(self.model, self.w2, self.w3, label)
            and fusion_rule(self.model, self.w1, label, self.w4)
            for h5 in (kac_weight(self.model, label.m, label.n),)
        ]
        table = dict(allowed)
        table.update((reflect(self.model, label), exps) for label, exps in allowed)
        return table


def _derive_pde(chains: dict[tuple[int, ...], Fraction], insertion) -> Operator:
    """Annihilating operator sum coef D_m1 ... D_mr over the monomials
    {(m1, ..., mr): coef} of a level-N singular vector, with D_m =
    insertion(m), summed Horner-wise: monomials with the same leftmost
    mode m share one compose(D_m, .) over the sum of their tails.

    The sum runs in integers.  The vector's coefficients are cleared
    once, and each D_m is built once and scaled by delta, the lcm of the
    denominators of every D_m's coefficients.  A tail sum of level n is
    carried at delta^n, so the composition with a leftmost mode m is
    lifted by delta^(m-1).  The sum is returned divided by the gcd of its
    coefficients: the primitive integer operator, the rational one times
    a positive integer, so every coefficient keeps its sign.
    """
    if not chains:
        raise ShapeError("singular vector must be nonzero")
    _, (ints,) = integer_form(chains.values())
    ops = {m: insertion(m) for m in {m for parts in chains for m in parts}}
    delta, rows = integer_form(*(op.values() for op in ops.values()))
    steps = {m: dict(zip(op, row)) for (m, op), row in zip(ops.items(), rows)}

    def horner(chains: dict[tuple[int, ...], int]) -> dict[TermKey, int]:
        out: dict[TermKey, int] = {}
        tails: dict[int, dict[tuple[int, ...], int]] = {}
        for parts, coef in chains.items():
            if parts:
                tails.setdefault(parts[0], {})[parts[1:]] = coef
            else:
                _add(out, (0, 0, 0, 0, 0), coef)
        for m, rest in tails.items():
            lift = delta ** (m - 1)
            for key, val in compose(steps[m], horner(rest)).items():
                _add(out, key, val * lift)
        return out

    out = horner(dict(zip(chains, ints)))
    content = gcd(*out.values())
    return {key: val // content for key, val in out.items()}


def derive_pde_slot3(spec: CorrelatorSpec, P: PBWVector) -> Operator:
    """Annihilating operator from a slot-3 singular vector P."""
    return _derive_pde(P.coefficients, lambda m: insertion_operator_slot3(m, spec.h1, spec.h2))


def derive_pde_slot2(spec: CorrelatorSpec, Q: PBWVector) -> Operator:
    """Annihilating operator from a slot-2 singular vector Q."""
    return _derive_pde(Q.coefficients, lambda m: insertion_operator_slot2(m, spec.h1, spec.h3))


@dataclass(frozen=True)
class ExponentPair:
    """Leading exponents (t1, t2) of the two intertwining operators."""

    t1: Fraction
    t2: Fraction


def channel_exponents(spec: CorrelatorSpec, channel: KacLabel) -> ExponentPair:
    """Anchor exponents for an intermediate channel: t2 = h5 - h2 - h3,
    t1 = h4 - h1 - h5.  The channel must be allowed in both pairings:
    a label missing from the channel table is checked again to say why."""
    exps = spec.channels.get(channel)
    if exps is not None:
        return exps
    check_label(spec.model, channel)
    if not fusion_rule(spec.model, spec.w2, spec.w3, channel):
        raise FusionError(f"channel {channel} not in {spec.w2} x {spec.w3}")
    raise FusionError(f"channel {channel} not allowed with {spec.w1} into {spec.w4}")


def series_exponent(
    spec: CorrelatorSpec, channel: KacLabel, anchor: ExponentPair
) -> Fraction:
    """Exponent at z = 0 of the channel's solution of the ODE reduced at
    `anchor`: the channel's t2 less the anchor's.  It must be an
    indicial root there; the callers check that."""
    return channel_exponents(spec, channel).t2 - anchor.t2


def allowed_channels(spec: CorrelatorSpec) -> list[KacLabel]:
    """Canonical intermediate labels allowed in both pairings, sorted:
    the first half of the channel table."""
    return list(spec.channels)[: len(spec.channels) // 2]


def _trim(row: list) -> tuple:
    """The list without its trailing zeros or empty rows, as a tuple."""
    while row and not row[-1]:
        row.pop()
    return tuple(row)


@dataclass(frozen=True)
class ODESpec:
    """Linear ODE sum_i c_i(z) g^(i)(z) = 0 with integer polynomial c_i.

    coefficients[i] is the polynomial multiplying the i-th derivative,
    ints in ascending powers; the leading one is nonzero.  Rational
    entries (anything `Fraction()` accepts) are multiplied through by
    their common denominator, the same equation.  For the correlator
    reductions the finite singular points are contained in {0, 1} and
    infinity is regular singular; `validate_minimal_form` checks this.

    exponents maps a point (0, 1 or 'inf') to the indicial exponents
    claimed there, with multiplicity; `indicial_exponents` confirms
    them.  It stays out of equality and hashing: the coefficients fix
    the exponents, so two equal ODEs that both pass carry the same ones.
    """

    coefficients: tuple[Poly, ...]
    exponents: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        rows = ([x if isinstance(x, (int, Fraction)) else Fraction(x) for x in c]
                for c in self.coefficients)
        coeffs = _trim([_trim(row) for row in integer_form(*rows)[1]])
        if not coeffs:
            raise ShapeError("ODE needs a nonzero leading coefficient")
        object.__setattr__(self, "coefficients", coeffs)
        exps = {pt: tuple(sorted(map(Fraction, es))) for pt, es in self.exponents.items()}
        object.__setattr__(self, "exponents", exps)

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
    def leading_roots(self) -> np.ndarray:
        """The distinct roots of the leading coefficient c_k, the finite
        singular points, as a read-only complex array computed once.
        The roots 0 and 1 are read from the valuations of c_k at 0 and
        at 1 (see `validate_minimal_form`); numpy.roots finds any others
        from the cofactor.  Empty when c_k is constant."""
        ck = self.coefficients[-1]
        at0, at1 = ord0(ck), ord0(self.shifted_to_one.coefficients[-1])
        out = [0j] * (at0 > 0) + [1 + 0j] * (at1 > 0)
        if degree(ck) > at0 + at1:
            rest = ck[at0:]
            for _ in range(at1):
                rest = divide_linear(rest, 1, 1)
            out.extend(np.roots([complex(c) for c in reversed(rest)]))
        out = np.array(out, dtype=complex)
        out.setflags(write=False)
        return out

    @cached_property
    def shifted_to_one(self) -> "ODESpec":
        """The same ODE in the local variable u = 1 - z, built once.

        Its coefficients are (-1)^i c_i(1 - u): each c_i is
        Taylor-shifted to c_i(1 + v) by repeated additions and read at
        v = -u.
        """
        out = []
        for i, c in enumerate(self.coefficients):
            ints = list(c)
            for k in range(len(ints) - 1):
                for m in range(len(ints) - 2, k - 1, -1):
                    ints[m] += ints[m + 1]
            out.append(tuple(-x if (i + k) % 2 else x for k, x in enumerate(ints)))
        return ODESpec(tuple(out))

    @cached_property
    def frobenius_shifts(self) -> tuple[Poly, ...]:
        """Shift polynomials A_j(x) of the Frobenius recursion at z = 0,
        as integer rows, built once.

        With nu = min_i (ord c_i - i), substituting z^rho sum a_n z^n
        gives sum_j A_j(rho + n - j) a_{n-j} = 0 per order n, where
        A_j(x) = sum_i c_{i, nu+i+j} (x)_i and (x)_i = x(x-1)...(x-i+1).
        A_0 is the indicial polynomial.  The shifts at z = 1 are those
        of `shifted_to_one`.
        """
        nz = [(i, c) for i, c in enumerate(self.coefficients) if c]
        nu = min(ord0(c) - i for i, c in nz)
        jmax = max(len(c) - 1 - i for i, c in nz) - nu
        factors = {i: falling(i) for i, _ in nz}
        shifts = []
        for j in range(jmax + 1):
            acc = [0] * (self.order + 1)
            for i, c in nz:
                idx = nu + i + j
                if 0 <= idx < len(c) and c[idx]:
                    for k, f in enumerate(factors[i]):
                        acc[k] += c[idx] * f
            shifts.append(_trim(acc))
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


def indicial_polynomial(ode: ODESpec, point) -> Poly:
    """Indicial polynomial at 0, 1 or 'inf' as an integer polynomial in rho.

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
        out = [0] * (ode.order + 1)
        for i, c in nz:
            if degree(c) - i == nu:
                for k, f in enumerate(falling(i)):
                    out[k] += -c[-1] * f if k % 2 else c[-1] * f
        return _trim(out)
    raise RangeError(f"indicial point must be 0, 1 or 'inf', got {point!r}")


def indicial_exponents(ode: ODESpec, point) -> list[Fraction]:
    """The exponents the ODE carries at the point, confirmed as the exact
    roots, with multiplicity, of its indicial polynomial; a fresh sorted
    list.

    Raises StructureError if the point is an irregular singularity or the
    ODE carries no exponents there, and ModelViolationError if a carried
    exponent is not a root or the roots do not exhaust the polynomial;
    the minimal-model equations never trigger the latter, so an
    occurrence points at a derivation bug rather than being silently
    accepted.  Each carried copy of an exponent p/q divides out one factor
    q x - p of the integer indicial polynomial (`poly.divide_linear`);
    `crossing.fusing_matrix` memoises the bases built from them.
    """
    ind = indicial_polynomial(ode, point)
    if not ind or degree(ind) < ode.order:
        raise StructureError(
            f"indicial polynomial at {point} has degree {len(ind) - 1 if ind else 'none'}"
            f" < order {ode.order}: irregular singular point"
        )
    carried = ode.exponents.get(point)
    if carried is None:
        raise StructureError(f"the ODE carries no indicial exponents at {point}")
    work = ind
    for rho in carried:
        work = divide_linear(work, rho.numerator, rho.denominator)
        if work is None:
            raise ModelViolationError(
                f"{rho} is not an indicial root at {point} as often as the ODE carries it"
            )
    if len(work) > 1:
        raise ModelViolationError(
            f"indicial polynomial at {point} keeps a factor of degree {len(work) - 1} "
            "beyond the carried exponents"
        )
    return list(carried)


def _euler_factors(anchor: ExponentPair):
    """(eps, factor) with eps = lcm(den t1, den t2) and factor(r, s) the
    integers eps^(r+s) P_rs, P_rs = (t1 - theta)_r (t2 + theta)_s in the
    falling basis (theta)_j, ascending in j, memoised per (r, s) for one
    anchor.

    P_rs = P_r,s-1 (t2 - s + 1 + theta), or P_r-1,0 (t1 - r + 1 - theta)
    when s = 0, multiplied by x (x)_j = (x)_{j+1} + j (x)_j; each factor
    is taken times eps, which makes it integral."""
    eps = lcm(anchor.t1.denominator, anchor.t2.denominator)
    t1 = anchor.t1.numerator * (eps // anchor.t1.denominator)
    t2 = anchor.t2.numerator * (eps // anchor.t2.denominator)
    table: dict[tuple[int, int], list[int]] = {(0, 0): [1]}

    def factor(r: int, s: int) -> list[int]:
        if (r, s) not in table:
            if s:
                prev, const, sign = factor(r, s - 1), t2 - (s - 1) * eps, eps
            else:
                prev, const, sign = factor(r - 1, 0), t1 - (r - 1) * eps, -eps
            # (const + sign theta) (theta)_j = sign (theta)_{j+1} + (const + sign j) (theta)_j
            out = [0] * (len(prev) + 1)
            for j, c in enumerate(prev):
                out[j + 1] += sign * c
                out[j] += c * (const + sign * j)
            table[(r, s)] = out
        return table[(r, s)]

    return eps, factor


def reduce_to_ode(op: Operator, anchor: ExponentPair, exponents: dict | None = None) -> ODESpec:
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

    The sum runs in integers: rational coefficients are cleared once (a
    derived operator is integral already), eps^(r+s) P_rs is integral
    (see _euler_factors) and is lifted by eps^(top-r-s), top the largest
    r + s, so every term carries eps^top; the canonical form drops it.
    The ODE carries `exponents` (see ODESpec).
    """
    if not op:
        raise ReductionError("cannot reduce the zero operator")
    degrees = {a + b + e - r - s for a, b, e, r, s in op}
    if len(degrees) != 1:
        raise ReductionError(
            "operator is not scaling-homogeneous: residual z1 dependence "
            f"(term degrees {sorted(degrees)})"
        )
    eps, factor = _euler_factors(anchor)
    top = max(r + s for _, _, _, r, s in op)
    lifted: dict[tuple[int, int], list[int]] = {}
    _, (coefs,) = integer_form(op.values())
    # (derivative order j, power e of 1 - z) -> {power of z: coefficient}
    acc: dict[tuple[int, int], dict[int, int]] = {}
    for (a, b, e, r, s), coef in zip(op, coefs):
        if (r, s) not in lifted:
            lift = eps ** (top - r - s)
            lifted[r, s] = [lift * x for x in factor(r, s)]
        for j, pj in enumerate(lifted[r, s]):
            if pj:
                terms = acc.setdefault((j, e), {})
                terms[b - s + j] = terms.get(b - s + j, 0) + coef * pj
    shift_z = -min(k for terms in acc.values() for k in terms)
    shift_omz = -min(e for _, e in acc)
    order = max(j for j, _ in acc)
    polys: list[list[int]] = [[] for _ in range(order + 1)]
    for (j, e), terms in acc.items():
        m = e + shift_omz
        width = max(terms) + shift_z + m + 1
        out = polys[j]
        out.extend([0] * (width - len(out)))
        for k, v in terms.items():
            for t in range(m + 1):
                c = comb(m, t)
                out[k + shift_z + t] += -v * c if t % 2 else v * c
    polys = [_trim(out) for out in polys]
    if not any(polys):
        raise ReductionError("reduction produced the zero ODE")
    ode = ODESpec(normalize_system(polys), exponents or {})
    ode.validate_minimal_form()
    return ode


def fusion_exponents(
    spec: CorrelatorSpec, anchor: ExponentPair, route: str
) -> dict[object, list[tuple[Fraction, KacLabel]]]:
    """Indicial exponents at 0, 1 and 'inf' of the ODE reduced at `anchor`
    on `route`, each with the shifted Kac label it comes from, sorted.

    The null-slot field (w3 on route 'slot3', w2 on 'slot2') is
    degenerate at level r s, (r, s) its canonical label, so it fuses with
    the insertion it meets at a point, of label (m, n), into the r s
    labels (m + i, n + j), i in {1-r, 3-r, ..., r-1} and j in
    {1-s, ..., s-1} (Belavin-Polyakov-Zamolodchikov 1984;
    Dotsenko-Fateev 1984).  With h(a, b) the Kac weight extended to all
    integers (`models.kac_weight`), each exponent is h(m + i, n + j) plus
    the point's offset: -h2 - h3 - t2 at 0, -h1 - h2
    at 1 and h2 - h4 + t2 at infinity, t2 the anchor's.  The partner is
    w2, w4, w1 at 0, 1, infinity on route 'slot3' and w3, w1, w4 on
    'slot2'.  A label may lie outside the Kac table; either
    representative of the partner gives the same exponents.
    """
    if route == "slot3":
        null, partners = spec.w3, (spec.w2, spec.w4, spec.w1)
    elif route == "slot2":
        null, partners = spec.w2, (spec.w3, spec.w1, spec.w4)
    else:
        raise RangeError(f"route must be 'slot3' or 'slot2', got {route!r}")
    r, s = canonicalize(spec.model, null).as_tuple()
    offsets = (
        -spec.h2 - spec.h3 - anchor.t2,
        -spec.h1 - spec.h2,
        spec.h2 - spec.h4 + anchor.t2,
    )
    out = {}
    for point, partner, offset in zip((0, 1, "inf"), partners, offsets):
        out[point] = sorted(
            (kac_weight(spec.model, a, b) + offset, KacLabel(a, b))
            for a in range(partner.m + 1 - r, partner.m + r, 2)
            for b in range(partner.n + 1 - s, partner.n + s, 2)
        )
    return out


def reduced_ode(
    spec: CorrelatorSpec, anchor_channel: KacLabel | None = None, route: str = "slot3"
) -> tuple[ODESpec, ExponentPair, KacLabel]:
    """Full pipeline: singular vector -> PDE -> reduced ODE, memoized
    once per (spec, anchor_channel, route) however the call spells them.

    The null vector is taken at its first degeneracy level for the
    relevant slot's label.  Returns (ode, anchor, anchor_channel) with
    the anchor defaulting to the first allowed channel.  The ODE carries
    the exponents of `fusion_exponents`.
    """
    if anchor_channel is None:
        channels = allowed_channels(spec)
        if not channels:
            raise FusionError("correlator admits no intermediate channel")
        anchor_channel = channels[0]
    return _reduced_ode(spec, anchor_channel, route)


@lru_cache(maxsize=256)
def _reduced_ode(spec, channel, route):
    """`reduced_ode` with the anchor channel resolved, every argument
    positional."""
    anchor = channel_exponents(spec, channel)
    exponents = {  # checks the route
        point: [rho for rho, _ in pairs]
        for point, pairs in fusion_exponents(spec, anchor, route).items()
    }
    # The derivation is read from the module at call time, so a wrapper
    # bound over derive_pde_slot3 or derive_pde_slot2 is the one called.
    if route == "slot3":
        slot_label, derive = spec.w3, derive_pde_slot3
    else:
        slot_label, derive = spec.w2, derive_pde_slot2
    ((_, vector),) = singular_vectors(spec.model, slot_label, null_level(spec.model, slot_label))
    op = derive(spec, vector)
    return reduce_to_ode(op, anchor, exponents), anchor, channel


reduced_ode.cache_info, reduced_ode.cache_clear = _reduced_ode.cache_info, _reduced_ode.cache_clear
