"""Numeric analytic continuation of ODE solutions by Taylor re-expansion.

Given the state (value and derivatives) of a solution at an ordinary
point, a step re-expands the solution as a Taylor series there using
the ODE recursion and evaluates the series at the next point.  Chained
along a polyline this continues solutions around singular points
without any reference to the local exponents, which is what makes the
monodromy and commutativity checks independent of the Frobenius
construction they certify.

A step is linear in the state, so a (k, m) matrix whose columns are m
solution states is transported at once: the recursion runs once per
Taylor order as a matrix-vector product over all columns.
"""

from __future__ import annotations

import cmath
from functools import lru_cache
from math import comb, factorial
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bpz import ODESpec
from .errors import DomainError


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
    band: tuple  # where gamma[i, d] goes in the padded rows, see taylor_step
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


def taylor_step(
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


def continue_along(
    ode: ODESpec, start: complex, state, path, order: int = 40
) -> np.ndarray:
    """Chain Taylor steps through the given waypoints; state is a (k,)
    vector or a (k, m) matrix of states, as for taylor_step."""
    p = complex(start)
    cur = np.asarray(state, dtype=complex)
    for target in path:
        cur = taylor_step(ode, p, cur, complex(target), order)
        p = complex(target)
    return cur


def circle_path(radius: float, steps: int) -> list[complex]:
    """Counterclockwise circle around 0 starting and ending at +radius."""
    return [radius * cmath.exp(2j * cmath.pi * t / steps) for t in range(1, steps + 1)]


def lower_arc_path(radius: float, steps: int) -> list[complex]:
    """Half-circle around 1 through the lower half plane, from 1-radius
    to 1+radius; the argument of (z1 - z2) gains +pi along it."""
    return [
        1 + radius * cmath.exp(1j * cmath.pi * (1 + t / steps)) for t in range(1, steps + 1)
    ]
