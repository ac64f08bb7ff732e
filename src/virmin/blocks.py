"""Frobenius-series solutions of the reduced equations and their evaluation.

Coefficients come from the exact linear recursion obtained from
substituting (local variable)^rho * sum a_k (local)^k into the ODE, run
in integers over one running denominator, so every resonance decision
is an exact test.  The recursion reads the ODE's integer shift
polynomials at the point, which the ODE builds once, and evaluates
them along the exponent's progression by forward differences.  A series
stores each a_k as the correctly rounded complex float of its exact
value, one integer division per order; the exact Fractions are rebuilt
from the same recursion only when `coefficients` is read.  The local
variable is z at the base point 0 and u = 1 - z at the base point 1.

`residual_orders` back-substitutes those exact coefficients into the
ODE, also in integers from the same shift polynomials, but by Horner at
every point rather than by the recursion's forward differences, so that
the check stays independent of the recursion it checks.

A block reads its channel's series at 0 and its own exponent
h_c - h2 - h3 as a float from one bounded memo keyed by (spec, channel,
order), so a warm block does float work only: no Fraction is hashed,
compared or built.  Each series keeps |a_k| and its last nonzero order
for the tail estimate.  `eval_local`, `evaluate_series` and `block`
share one kernel, `_scaled_sum`.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from math import gcd

import numpy as np

from .bpz import ODESpec, reduced_ode, series_exponent
from .errors import DomainError, LogarithmicCaseError, ModelViolationError, RangeError
from .models import KacLabel
from .poly import integer_form, peval

BLOCK_ORDER = 50  # default series order of a block evaluation


@dataclass(frozen=True)
class FrobeniusSeries:
    """Local solution (local)^exponent * sum_k a_k (local)^k, a_0 = 1."""

    base_point: int  # 0 or 1
    exponent: Fraction
    complex_coefficients: tuple[complex, ...]  # a_k, each correctly rounded
    ode: ODESpec

    @property
    def order(self) -> int:
        return len(self.complex_coefficients) - 1

    def local_ode(self) -> ODESpec:
        return self.ode if self.base_point == 0 else self.ode.shifted_to_one

    @cached_property
    def coefficients(self) -> tuple[Fraction, ...]:
        """Exact a_k in lowest terms, from the recursion run again on
        first access; evaluation never needs them."""
        values = _values(self.local_ode().frobenius_shifts, self.exponent, self.order)
        return tuple(Fraction(num, den) for num, den in _terms(values, self.exponent))

    @cached_property
    def float_exponent(self) -> float:
        """float(exponent), converted once."""
        return float(self.exponent)

    @cached_property
    def magnitudes(self) -> tuple[float, ...]:
        """|a_k| for k = 0..order, computed once for the tail estimate."""
        return tuple(map(abs, self.complex_coefficients))

    @cached_property
    def last_nonzero(self) -> int:
        """The largest k >= 1 with |a_k| > 0, or 0 if there is none."""
        mags = self.magnitudes
        return next((k for k in range(len(mags) - 1, 0, -1) if mags[k] > 0), 0)


@dataclass(frozen=True)
class EvaluationResult:
    """Numeric value with a truncation estimate."""

    value: complex
    tail_bound: float
    order_used: int


@lru_cache(maxsize=128)
def frobenius_expand(
    ode: ODESpec, point: int, exponent: Fraction, order: int
) -> FrobeniusSeries:
    """Series coefficients at a regular singular point, computed once
    per (ode, point, exponent, order).

    Resonances (the indicial polynomial vanishing at exponent + k for
    some k >= 1) are handled by setting the free coefficient to zero
    when that is consistent; an inconsistent resonance means the true
    solution carries a logarithm and raises LogarithmicCaseError
    rather than being silently patched.  Each a_k is stored as the
    correctly rounded quotient of its integer numerator and denominator
    (+0.0 when it vanishes); the exact a_k are built only when
    `coefficients` is read.
    """
    if point not in (0, 1):
        raise RangeError("expansion point must be 0 or 1")
    if order < 0:
        raise RangeError("order must be nonnegative")
    exponent = Fraction(exponent)
    table = (ode if point == 0 else ode.shifted_to_one).frobenius_shifts
    values = _values(table, exponent, order)
    if values[0][0] != 0:
        raise RangeError(f"{exponent} is not an indicial root at {point}")
    # a vanishing term is +0.0, as complex(Fraction(0)) is; 0 / den
    # would give -0.0 over a negative running denominator
    floats = tuple(complex(num / den if num else 0.0) for num, den in _terms(values, exponent))
    return FrobeniusSeries(point, exponent, floats, ode)


def _values(
    table: tuple[tuple[int, ...], ...], exponent: Fraction, order: int
) -> list[list[int]]:
    """values[j][m] = P_j(p + m q) for m = 0..order, where exponent = p/q
    and P_j(x) = sum_k table[j][k] x^k q^(deg - k), deg the largest
    degree in the table: with the table holding the integer Frobenius
    shifts A_j, P_j(p + m q) = q^deg A_j(exponent + m).

    Each row is a polynomial in m of degree d: its first d + 1 values
    come from Horner, and the rest from their forward differences, the
    d-th of which is constant, by repeated running sums.
    """
    p, q = exponent.numerator, exponent.denominator
    count = order + 1
    deg = max(len(ints) for ints in table) - 1
    values = []
    for ints in table:
        scaled = [c * q ** (deg - k) for k, c in enumerate(ints or [0])]
        head = [peval(scaled, x) for x in range(p, p + min(count, len(scaled)) * q, q)]
        diffs = []
        while head:
            diffs.append(head[0])
            head = [b - a for a, b in zip(head, head[1:])]
        row = [diffs.pop()] * count
        for start in reversed(diffs):
            row = list(accumulate(row[:-1], initial=start))
        values.append(row)
    return values


def _terms(values: list[list[int]], exponent: Fraction):
    """(numerator, denominator) of a_0, ..., a_order, not reduced, from
    the `_values` table of the exponent; order is the table's width less
    one.

    The recursion in integers: a_0..a_n are carried as integer
    numerators over one running denominator; only the last jmax
    numerators are kept current.  Each step multiplies the denominator
    by the leading value over its gcd with the new numerator, which
    keeps it near its reduced size (at order 60, hundreds of bits
    against thousands).
    """
    jmax = len(values) - 1
    order = len(values[0]) - 1
    active = [j for j in range(1, jmax + 1) if any(values[j])]
    nums = [1]
    den = 1
    yield 1, 1
    for n in range(1, order + 1):
        rhs = 0
        for j in active:
            if j > n:
                break
            rhs -= values[j][n - j] * nums[n - j]
        lead = values[0][n]
        if lead != 0:
            # a_n = rhs / (den lead); the common factor of rhs and lead
            # would stay in den, and in every later term, for good
            common = gcd(rhs, lead)
            rhs //= common
            lead //= common
            den *= lead
            for k in range(max(0, n + 1 - jmax), n):
                nums[k] *= lead
            nums.append(rhs)
        elif rhs == 0:
            nums.append(0)
        else:
            raise LogarithmicCaseError(
                f"inconsistent resonance at order {n} above exponent {exponent}"
            )
        yield rhs, den


def residual_orders(series: FrobeniusSeries) -> list[int]:
    """Exact support of the ODE residual of the truncated series.

    Returns the orders n (in the grading of the recursion, i.e. the
    power offset above exponent + nu) where the back-substituted
    residual is nonzero.  By construction these all exceed the
    truncation order.

    The check runs in Python ints and does not read `_values`.  With
    exponent = p/q and D the common denominator of the coefficients,
    each integer shift polynomial times q^deg is evaluated by Horner at
    p + k q and applied to the coefficients times D.  Each order's
    integer sum is its residual times q^deg D, so it is zero exactly
    when the residual is.
    """
    rows = series.local_ode().frobenius_shifts
    _, (nums,) = integer_form(series.coefficients)
    p, q = series.exponent.numerator, series.exponent.denominator
    deg = max(len(row) for row in rows) - 1
    top = len(nums) - 1
    values = []
    for row in rows:
        scaled = [c * q ** (deg - k) for k, c in enumerate(row)]
        values.append([peval(scaled, p + k * q) for k in range(top + 1)])
    return [
        n
        for n in range(top + len(rows))
        if sum(vals[n - j] * nums[n - j] for j, vals in enumerate(values) if 0 <= n - j <= top)
    ]


def _scaled_sum(series: FrobeniusSeries, u: complex, exponent: float) -> tuple[complex, float]:
    """(u^exponent * sum_k a_k u^k, |u^exponent|) for u != 0, principal branch."""
    power = cmath.exp(exponent * cmath.log(u))
    return peval(series.complex_coefficients, u) * power, abs(power)


def eval_local(series: FrobeniusSeries, u: complex) -> complex:
    """Value at local coordinate u, principal branch of u^exponent."""
    if u == 0:
        if series.exponent > 0:
            return 0j
        if series.exponent == 0:
            return series.complex_coefficients[0]
        raise DomainError("series with negative exponent diverges at its base point")
    return _scaled_sum(series, u, series.float_exponent)[0]


def eval_local_derivatives(series: FrobeniusSeries, u: complex, count: int) -> list[complex]:
    """[f(u), f'(u), ..., f^(count-1)(u)] w.r.t. the local coordinate.

    f^(t)(u) = u^(rho - t) sum_k a_k (rho + k)(rho + k - 1)...(rho + k - t + 1) u^k,
    evaluated in complex floats on the principal branch.  Raises
    DomainError at the base point u = 0, where u^(rho - t) has no logarithm.
    """
    if u == 0:
        raise DomainError("derivatives are not evaluated at the base point of the series")
    coeffs = series.complex_coefficients
    rho = series.float_exponent
    shifted = rho + np.arange(len(coeffs))
    powers = complex(u) ** np.arange(len(coeffs))
    log_u = cmath.log(u)
    weights = np.array(coeffs)
    out = []
    for t in range(count):
        out.append(complex(weights @ powers) * cmath.exp((rho - t) * log_u))
        weights = weights * (shifted - t)
    return out


def _tail_bound(series: FrobeniusSeries, u: complex) -> float:
    """Last-term ratio heuristic for the truncation error: the last
    nonzero term times q / (1 - q), q the largest of |u| and the ratios
    of consecutive terms among the last five.  |u| < 1, so no term above
    `last_nonzero` is nonzero and the search starts there."""
    mags = series.magnitudes
    r = abs(u)
    last = series.last_nonzero
    while last and not mags[last] * r**last > 0:  # r**k may underflow
        last -= 1
    if last == 0:
        return 0.0
    q, prev = r, 0.0
    for k in range(max(0, last - 5), last + 1):
        term = mags[k] * r**k
        if prev > 0 and term > 0 and term / prev > q:
            q = term / prev
        prev = term
    q = min(q, 0.999)
    return term * q / (1.0 - q)


def evaluate_series(series: FrobeniusSeries, z: complex) -> EvaluationResult:
    """Horner evaluation of the truncated series at z (principal branch)."""
    u = complex(z) if series.base_point == 0 else 1 - complex(z)
    order = series.order
    if not abs(u) < 1:  # a NaN z fails every comparison
        raise DomainError(
            f"{z} lies outside the convergence disk of the expansion at {series.base_point}"
        )
    if u == 0:
        return EvaluationResult(eval_local(series, u), 0.0, order)
    value, scale = _scaled_sum(series, u, series.float_exponent)
    return EvaluationResult(value, _tail_bound(series, u) * scale, order)


@lru_cache(maxsize=128)
def _block_series(spec, channel: KacLabel, order: int) -> tuple[FrobeniusSeries, float]:
    """The channel's series at 0 and float(h_c - h2 - h3), its power of
    z in the block, read once per (spec, channel, order).  A typed error
    is not cached, so every call raises it again."""
    ode, anchor, _ = reduced_ode(spec)
    rho = series_exponent(spec, channel, anchor)  # validates the channel
    try:
        series = frobenius_expand(ode, 0, rho, order)
    except RangeError as exc:
        if order < 0:
            raise
        raise ModelViolationError(f"channel {channel}: {exc}") from exc
    return series, float(rho + anchor.t2)


def block(spec, channel: KacLabel, z: complex, order: int = BLOCK_ORDER) -> EvaluationResult:
    """Single-channel block of the correlator, z1 normalized to 1.

    Value is z^(h_c - h2 - h3) * g_c(z) with g_c(0) = 1; the remaining
    anchor exponent t1 (the z1 direction) is available from
    channel_exponents.  Only this channel's series at 0 is expanded.
    A channel exponent that is not an indicial root of the reduced ODE
    raises ModelViolationError.  z = 0, the branch point of z^t2, raises
    DomainError: the correlator needs |z1| > |z2| > 0.
    """
    zc = complex(z)
    if zc == 0:
        raise DomainError("z = 0 is the branch point of z^t2; blocks need |z1| > |z2| > 0")
    series, exponent = _block_series(spec, channel, order)
    if not abs(zc) < 1:  # a NaN z fails every comparison
        raise DomainError(f"{z} lies outside the convergence disk of the expansion at 0")
    value, scale = _scaled_sum(series, zc, exponent)
    return EvaluationResult(value, _tail_bound(series, zc) * scale, series.order)
