"""Numeric analytic continuation of ODE solutions by Taylor re-expansion.

Given the state (value and derivatives) of a solution at an ordinary
point, a step re-expands the solution as a Taylor series there using
the ODE recursion and evaluates the series at the next point.  Chained
along a polyline this continues solutions around singular points
without any reference to the local exponents, which is what makes the
monodromy and commutativity checks independent of the Frobenius
construction they certify.

A step is linear in the state, so it is a (k, k) transfer matrix.  The
matrices of all S steps of a path are computed together: the shifted
coefficients, the band of Toeplitz weights and the Taylor recursion
carry a leading step axis, so the recursion runs once over the Taylor
orders for the whole path, one batched matrix product per order.  The
state, a (k,) vector or a (k, m) matrix of m solution states, is then
multiplied through the chain of matrices.  A step that reaches as far
as the nearest singular point, where its series diverges, raises
DomainError.
"""

from __future__ import annotations

import cmath
from functools import lru_cache
from math import comb, factorial
from typing import NamedTuple

import numpy as np

from .bpz import ODESpec
from .errors import DomainError, ShapeError
from .poly import falling, peval

TAYLOR_ORDER = 40  # degree of the Taylor polynomial of each step


def _falling_table(rows: int, cols: int) -> np.ndarray:
    """ff[i, j] = j (j-1) ... (j-i+1) for i < rows, j < cols, evaluated
    exactly in Python integers and then rounded once to float."""
    j = np.arange(cols, dtype=object)
    return np.array([peval(falling(i), j) for i in range(rows)], float)


class _StepTables(NamedTuple):
    binom: np.ndarray  # comb(b, d), zero for d > b
    shift_power: np.ndarray  # max(b - d, 0), the power of p in the shift
    band_rows: np.ndarray  # i, as a column
    band_power: np.ndarray  # d = i + width - 1 - r clipped, see _transfer_matrices
    band_weight: np.ndarray  # [r, i, n]: ff(j, i) / ff(n + k, k), zero off the band
    identity: np.ndarray  # diag(1 / t!): the Taylor coefficients of the unit states
    eval_power: np.ndarray  # max(n - t, 0), the power of dz at target
    evaluation: np.ndarray  # ff(n, t), zero for n < t


@lru_cache(maxsize=32)
def _step_tables(k: int, width: int) -> _StepTables:
    """Index and weight tables of a Taylor step; they depend only on the
    ODE order k and the coefficient width (largest degree + 1)."""
    ff = _falling_table(k + 1, TAYLOR_ORDER + 1)
    rows, cols = np.arange(width)[:, None], np.arange(width)[None, :]
    power = np.arange(TAYLOR_ORDER + 1)[None, :] - np.arange(k)[:, None]
    band = width + k - 1
    i = np.arange(k + 1)[:, None, None]
    n = np.arange(TAYLOR_ORDER - k + 1)[None, :, None]
    r = np.arange(band)[None, None, :]
    d = i + width - 1 - r
    j = n + k - band + r
    on_band = (d >= 0) & (d < width) & (j >= 0)
    weight = np.where(on_band, ff[i, np.maximum(j, 0)], 0.0) / ff[k, k:][None, :, None]
    return _StepTables(
        binom=np.array([[comb(r, c) for c in range(width)] for r in range(width)], float),
        shift_power=np.maximum(rows - cols, 0),
        band_rows=i[:, 0],
        band_power=np.clip(d[:, 0, :], 0, width - 1),
        band_weight=weight.transpose(2, 0, 1).astype(complex),
        identity=np.diag([1.0 / factorial(t) for t in range(k)]),
        eval_power=np.maximum(power, 0),
        evaluation=np.where(power >= 0, ff[:k], 0.0),
    )


def _check_steps(ode: ODESpec, starts: np.ndarray, targets: np.ndarray, lead) -> None:
    """Raise DomainError for the first step that starts at a singular
    point, else for the first whose length reaches the distance from its
    start to the nearest root of the leading coefficient, where its
    Taylor series stops converging."""
    singular = np.flatnonzero(np.abs(lead) < 1e-300)
    if singular.size:
        p = complex(starts[singular[0]])
        raise DomainError(f"{p} is too close to a singular point for a Taylor step")
    length = np.abs(targets - starts)
    roots = ode.leading_roots
    reach = np.abs(starts[:, None] - roots[None, :]).min(axis=1, initial=np.inf)
    far = np.flatnonzero(length >= reach)
    if far.size:
        s = far[0]
        raise DomainError(
            f"a Taylor step from {complex(starts[s])} to {complex(targets[s])} has length "
            f"{length[s]:.3g}, not below {reach[s]:.3g}, the distance to the nearest "
            "singular point, so its series diverges"
        )


def _transfer_matrices(ode: ODESpec, starts: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """The (S, k, k) matrices that map the state [y, ..., y^(k-1)] at
    starts[s] to the state at targets[s], for all S steps at once."""
    k = ode.order
    coeffs = ode.complex_coefficients
    width = coeffs.shape[1]
    tab = _step_tables(k, width)
    # gamma[s, i, d]: coefficient of t^d in c_i(starts[s] + t)
    powers = starts[:, None] ** np.arange(width)
    gamma = coeffs @ (tab.binom * powers[:, tab.shift_power])
    lead = gamma[:, k, 0]
    _check_steps(ode, starts, targets, lead)
    # The coefficient of t^n in sum_i c_i(p + t) y^(i)(p + t) is
    # sum_i sum_d gamma[i, d] ff(j, i) b[j] with j = n + i - d.  Solving for
    # b[n + k], whose term is the leading gamma[k, 0] ff(n + k, k), gives
    # b[n + k] = sum_j w[n, j] b[j]; w is a Toeplitz band, nonzero only for
    # the B = width + k - 1 indices j = n + k - B + r, r < B, and on that
    # band the power d = i + width - 1 - r does not depend on n, so the
    # band is a product over i of gamma and a table of falling factorials;
    # the (S, k + 1, TAYLOR_ORDER - k + 1, B) array of its terms is never formed.
    band = width + k - 1
    g = gamma[:, tab.band_rows, tab.band_power] / -lead[:, None, None]
    # w[r, s, n] = sum_i g[s, i, r] weight[r, i, n], one product per band
    # position r, laid out as w[n, s, 0, r] for the recursion.
    w = np.matmul(g.transpose(2, 0, 1), tab.band_weight).transpose(2, 1, 0)
    w = np.ascontiguousarray(w)[:, :, None, :]

    # Column c of b[s] holds the Taylor coefficients of the solution with
    # unit state e_c at starts[s]; b[j] is row j + band - k of padded, whose
    # first band - k rows are the zeros below j = 0.
    padded = np.zeros((len(starts), TAYLOR_ORDER + 1 + band - k, k), dtype=complex)
    padded[:, band - k : band] = tab.identity
    for n in range(TAYLOR_ORDER - k + 1):
        np.matmul(w[n], padded[:, n : n + band], out=padded[:, n + band : n + band + 1])

    dz = targets - starts
    at_target = tab.evaluation * (dz[:, None] ** np.arange(TAYLOR_ORDER + 1))[:, tab.eval_power]
    return at_target @ padded[:, band - k :]


def states_along(ode: ODESpec, start: complex, state, path) -> list[np.ndarray]:
    """The state continued from start to each waypoint of path in turn by
    Taylor steps, one array per waypoint; state is a (k,) vector or a
    (k, m) matrix whose columns are states, and each result has its shape.

    Raises ShapeError for a state of any other shape, and DomainError if
    a step starts at a singular point or reaches as far as the nearest one.
    """
    state = np.asarray(state, dtype=complex)
    if state.shape[:1] != (ode.order,) or state.ndim > 2:
        raise ShapeError(
            f"state has shape {state.shape}; an order-{ode.order} ODE needs "
            f"({ode.order},) or ({ode.order}, m)"
        )
    targets = np.fromiter(path, dtype=complex)
    starts = np.concatenate(([complex(start)], targets))[:-1]
    cur = state.reshape(ode.order, -1)
    out = []
    # einsum sums each column in the same order whatever the number of
    # columns, so a column of a batch equals the same state continued alone.
    for step in _transfer_matrices(ode, starts, targets):
        cur = np.einsum("tj,jm->tm", step, cur)
        out.append(cur.reshape(state.shape))
    return out


def continue_along(ode: ODESpec, start: complex, state, path) -> np.ndarray:
    """The state continued from start through the waypoints of path: the
    last of states_along, or the state itself for an empty path."""
    states = states_along(ode, start, state, path)
    return states[-1] if states else np.asarray(state, dtype=complex)


def taylor_step(ode: ODESpec, p: complex, state, target: complex) -> np.ndarray:
    """Advance the state from the ordinary point p to target: the
    one-step case of continue_along."""
    return continue_along(ode, p, state, [target])


def circle_path(radius: float, steps: int) -> list[complex]:
    """Counterclockwise circle around 0 starting and ending at +radius."""
    return [radius * cmath.exp(2j * cmath.pi * t / steps) for t in range(1, steps + 1)]


def lower_arc_path(radius: float, steps: int) -> list[complex]:
    """Half-circle around 1 through the lower half plane, from 1-radius
    to 1+radius; the argument of (z1 - z2) gains +pi along it."""
    return [
        1 + radius * cmath.exp(1j * cmath.pi * (1 + t / steps)) for t in range(1, steps + 1)
    ]
