"""Frobenius-series solutions of the reduced equations and their evaluation.

Coefficients are computed by the exact linear recursion obtained from
substituting (local variable)^rho * sum a_k (local)^k into the ODE and
stay rational; floating point enters only at evaluation time, through
complex copies of the coefficients made once per series.  The local
variable is z at the base point 0 and u = 1 - z at the base point 1.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm

import numpy as np

from .bpz import ODESpec, indicial_exponents, reduced_ode
from .errors import DomainError, LogarithmicCaseError, ModelViolationError, RangeError
from .models import KacLabel, conformal_weight
from .poly import peval


@dataclass(frozen=True)
class FrobeniusSeries:
    """Local solution (local)^exponent * sum_k a_k (local)^k, a_0 = 1."""

    base_point: int  # 0 or 1
    exponent: Fraction
    coefficients: tuple[Fraction, ...]
    ode: ODESpec

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def local_ode(self) -> ODESpec:
        return self.ode if self.base_point == 0 else self.ode.shifted_to_one

    @cached_property
    def complex_coefficients(self) -> tuple[complex, ...]:
        """complex(a_k) for every coefficient, converted once."""
        return tuple(complex(c) for c in self.coefficients)


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
    """Exact series coefficients at a regular singular point, computed
    once per (ode, point, exponent, order).

    Resonances (the indicial polynomial vanishing at exponent + k for
    some k >= 1) are handled by setting the free coefficient to zero
    when that is consistent; an inconsistent resonance means the true
    solution carries a logarithm and raises LogarithmicCaseError
    rather than being silently patched.
    """
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
    # The recursion in integers: with exponent = p/q and L the common
    # denominator of the shift coefficients, L q^deg A_j(exponent + m) =
    # P_j(p + m q) for integer polynomials P_j.  a_0..a_n are carried as
    # integer numerators over one running denominator, so each a_n is
    # reduced to lowest terms once instead of at every operation.
    p, q = exponent.numerator, exponent.denominator
    deg = max(len(s) for s in shifts) - 1
    scale = lcm(*(c.denominator for s in shifts for c in s))
    int_shifts = [
        [c.numerator * (scale // c.denominator) * q ** (deg - k) for k, c in enumerate(s)]
        for s in shifts
    ]

    def shift_value(j: int, m: int) -> int:
        x = p + m * q
        acc = 0
        for c in reversed(int_shifts[j]):
            acc = acc * x + c
        return acc

    a = [Fraction(1)]
    nums = [1]  # numerators over den; only the last jmax are kept current
    den = 1
    for n in range(1, order + 1):
        rhs = 0
        for j in range(1, min(n, jmax) + 1):
            if shifts[j]:
                rhs -= shift_value(j, n - j) * nums[n - j]
        lead = shift_value(0, n)
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
    return FrobeniusSeries(point, exponent, tuple(a), ode)


def residual_orders(series: FrobeniusSeries) -> list[int]:
    """Exact support of the ODE residual of the truncated series.

    Returns the orders n (in the grading of the recursion, i.e. the
    power offset above exponent + nu) where the back-substituted
    residual is nonzero.  By construction these all exceed the
    truncation order.
    """
    shifts = series.local_ode().frobenius_shifts
    jmax = len(shifts) - 1
    a = series.coefficients
    top = len(a) - 1
    bad = []
    for n in range(0, top + jmax + 1):
        val = Fraction(0)
        for j in range(0, min(n, jmax) + 1):
            k = n - j
            if 0 <= k <= top and shifts[j]:
                val += peval(shifts[j], series.exponent + k) * a[k]
        if val != 0:
            bad.append(n)
    return bad


def eval_local(series: FrobeniusSeries, u: complex) -> complex:
    """Value at local coordinate u, principal branch of u^exponent."""
    rho = float(series.exponent)
    if u == 0:
        if series.exponent > 0:
            return 0j
        if series.exponent == 0:
            return complex(series.coefficients[0])
        raise DomainError("series with negative exponent diverges at its base point")
    acc = 0j
    for c in reversed(series.complex_coefficients):
        acc = acc * u + c
    return acc * cmath.exp(rho * cmath.log(u))


def eval_local_derivatives(series: FrobeniusSeries, u: complex, count: int) -> list[complex]:
    """[f(u), f'(u), ..., f^(count-1)(u)] w.r.t. the local coordinate.

    f^(t)(u) = u^(rho - t) sum_k a_k (rho + k)(rho + k - 1)...(rho + k - t + 1) u^k,
    evaluated in complex floats on the principal branch.
    """
    coeffs = series.complex_coefficients
    rho = float(series.exponent)
    shifted = rho + np.arange(len(coeffs))
    powers = complex(u) ** np.arange(len(coeffs))
    log_u = cmath.log(u)
    weights = np.array(coeffs)
    out = []
    for t in range(count):
        out.append(complex(weights @ powers) * cmath.exp(float(series.exponent - t) * log_u))
        weights = weights * (shifted - t)
    return out


def _tail_bound(series: FrobeniusSeries, u: complex) -> float:
    """Last-term ratio heuristic for the truncation error."""
    mags = [abs(c) * abs(u) ** k for k, c in enumerate(series.complex_coefficients)]
    last = next((k for k in range(len(mags) - 1, -1, -1) if mags[k] > 0), 0)
    if last == 0:
        return 0.0
    window = [k for k in range(max(1, last - 4), last + 1) if mags[k - 1] > 0]
    ratios = [mags[k] / mags[k - 1] for k in window if mags[k] > 0]
    q = max([abs(u)] + ratios)
    q = min(q, 0.999)
    return mags[last] * q / (1.0 - q)


def evaluate_series(series: FrobeniusSeries, z: complex) -> EvaluationResult:
    """Horner evaluation of the truncated series at z (principal branch)."""
    u = complex(z) if series.base_point == 0 else 1 - complex(z)
    if abs(u) >= 1:
        raise DomainError(
            f"{z} lies outside the convergence disk of the expansion at {series.base_point}"
        )
    value = eval_local(series, u)
    scale = abs(cmath.exp(float(series.exponent) * cmath.log(u))) if u != 0 else 1.0
    return EvaluationResult(value, _tail_bound(series, u) * scale, len(series.coefficients) - 1)


def block(spec, channel: KacLabel, z: complex, order: int = 50) -> EvaluationResult:
    """Single-channel block of the correlator, z1 normalized to 1.

    Value is z^(h_c - h2 - h3) * g_c(z) with g_c(0) = 1; the remaining
    anchor exponent t1 (the z1 direction) is available from
    channel_exponents.
    """
    from .bpz import channel_exponents

    ode, anchor, _ = reduced_ode(spec)
    exps = channel_exponents(spec, channel)  # validates the channel
    rho = exps.t2 - anchor.t2
    roots = indicial_exponents(ode, 0)
    if rho not in roots:
        raise ModelViolationError(
            f"channel exponent {exps.t2} missing from indicial roots {roots}"
        )
    series = frobenius_expand(ode, 0, rho, order)
    inner = evaluate_series(series, z)
    zc = complex(z)
    pref = cmath.exp(float(anchor.t2) * cmath.log(zc))
    return EvaluationResult(
        inner.value * pref, inner.tail_bound * abs(pref), inner.order_used
    )
