import cmath
import math
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from exact_oracles import _falling_table as running_product_table
from exact_oracles import reference_commutativity_residuals, reference_taylor_step
from virmin.blocks import eval_local_derivatives
from virmin.bpz import CorrelatorSpec, ODESpec, reduced_ode
from virmin.continuation import (
    TAYLOR_ORDER,
    _falling_table,
    circle_path,
    continue_along,
    lower_arc_path,
    states_along,
    taylor_step,
)
from virmin.crossing import channel_basis, commutativity_residuals
from virmin.errors import DomainError, ShapeError
from virmin.models import KacLabel, MinimalModel

F = Fraction


def _shifted_coeffs(c, p: complex) -> list[complex]:
    """Coefficients of c(p + t) as a polynomial in t."""
    n = len(c)
    out = [0j] * n
    for big in range(n):
        cb = complex(c[big])
        if cb == 0:
            continue
        pw = 1.0 + 0j
        for d in range(big, -1, -1):
            out[d] += comb(big, d) * cb * pw
            pw *= p
    return out


def scalar_taylor_step(
    ode: ODESpec, p: complex, state: list[complex], target: complex, order: int = 40
) -> list[complex]:
    """Reference: one Taylor step of a single state, term by term in
    Python complex arithmetic (the recursion written out directly)."""
    k = ode.order
    gamma = [_shifted_coeffs(c, p) for c in ode.coefficients]
    lead = gamma[k][0] if gamma[k] else 0j
    if abs(lead) < 1e-300:
        raise DomainError(f"{p} is too close to a singular point for a Taylor step")

    def falling(x: int, i: int) -> float:
        out = 1.0
        for d in range(i):
            out *= x - d
        return out

    b = [state[t] / factorial(t) for t in range(k)]
    for n in range(order - k + 1):
        rhs = 0j
        for i in range(k + 1):
            gi = gamma[i]
            for d in range(len(gi)):
                if gi[d] == 0:
                    continue
                if i == k and d == 0:
                    continue
                idx = n - d + i
                if 0 <= idx < len(b):
                    rhs += gi[d] * falling(idx, i) * b[idx]
        b.append(-rhs / (lead * falling(n + k, k)))

    dz = target - p
    out = []
    for t in range(k):
        acc = 0j
        power = 1.0 + 0j
        for n in range(t, len(b)):
            acc += b[n] * falling(n, t) * power
            power *= dz
        out.append(acc)
    return out


def _diagonal(p: int, q: int, *labels) -> CorrelatorSpec:
    labels = [KacLabel(*lab) for lab in labels]
    return CorrelatorSpec(MinimalModel(p, q), *(labels * (4 // len(labels))))


# The commutativity check's correlators: orders 2, 4, 6 and a mixed one.
COMMUTATIVITY_SPECS = [
    _diagonal(3, 4, (1, 2)),
    _diagonal(4, 5, (2, 2)),
    _diagonal(5, 6, (2, 3)),
    _diagonal(6, 7, (1, 4), (1, 4), (5, 3), (5, 3)),
]
COMMUTATIVITY_PATH = lower_arc_path(0.5, 16) + [1.35, 1.5, 1.65]


def _start_states(spec: CorrelatorSpec, start: float = 0.5):
    ode = reduced_ode(spec)[0]
    basis = channel_basis(ode, 0, 60)
    states = [eval_local_derivatives(s, complex(start), ode.order) for s in basis.solutions]
    return ode, np.column_stack(states)


def test_exponential_ode():
    # y' = y from 0 to 1 in four steps
    ode = ODESpec(((F(-1),), (F(1),)))
    out = continue_along(ode, 0.0, [1.0 + 0j], [0.25, 0.5, 0.75, 1.0])
    assert abs(out[0] - math.e) < 1e-12


def test_fractional_power_monodromy():
    # z y' = (1/3) y; solution z^{1/3} picks up e^{2 pi i/3} around 0
    ode = ODESpec(((F(-1, 3),), (F(0), F(1))))
    r = 0.5
    state = [r ** (1 / 3) + 0j]
    out = continue_along(ode, complex(r), state, circle_path(r, 16))
    want = state[0] * cmath.exp(2j * cmath.pi / 3)
    assert abs(out[0] - want) < 1e-12


def test_second_order_state_transport():
    # y'' + y = 0: transport (sin, cos) a quarter period
    ode = ODESpec(((F(1),), (), (F(1),)))
    out = continue_along(ode, 0.0, [0j, 1 + 0j], [0.4, 0.8, 1.2, math.pi / 2])
    assert abs(out[0] - 1) < 1e-12
    assert abs(out[1]) < 1e-12


def test_step_at_singular_point_rejected():
    ode = ODESpec(((F(-1, 3),), (F(0), F(1))))  # leading coefficient z
    with pytest.raises(DomainError):
        taylor_step(ode, 0.0, [1.0 + 0j], 0.1)


def test_lower_arc_geometry():
    path = lower_arc_path(0.5, 16)
    assert abs(path[-1] - 1.5) < 1e-12
    assert all(p.imag <= 1e-12 for p in path)  # passes below the singular point
    assert min(p.imag for p in path) < -0.4


@pytest.mark.parametrize("spec", COMMUTATIVITY_SPECS, ids=str)
def test_batched_steps_match_scalar_reference_along_commutativity_path(spec):
    ode, states = _start_states(spec)
    cur = states
    ref = [list(col) for col in states.T]
    p = 0.5 + 0j
    for target in COMMUTATIVITY_PATH:
        cur = taylor_step(ode, p, cur, complex(target))
        ref = [scalar_taylor_step(ode, p, col, complex(target)) for col in ref]
        p = complex(target)
        for j, col in enumerate(ref):
            want = np.array(col)
            assert np.abs(cur[:, j] - want).max() <= 1e-9 * np.abs(want).max()


def test_batched_columns_equal_single_column_calls():
    ode, states = _start_states(COMMUTATIVITY_SPECS[2])
    batched = continue_along(ode, 0.5, states, COMMUTATIVITY_PATH)
    assert batched.shape == states.shape
    for j in range(states.shape[1]):
        single = continue_along(ode, 0.5, states[:, j : j + 1], COMMUTATIVITY_PATH)
        assert single.shape == (ode.order, 1)
        scale = np.abs(single).max()
        assert np.abs(batched[:, j] - single[:, 0]).max() <= 1e-14 * scale


def test_vector_state_returns_vector():
    ode, states = _start_states(COMMUTATIVITY_SPECS[0])
    out = taylor_step(ode, 0.5, list(states[:, 0]), 0.6)
    assert out.shape == (ode.order,)
    assert continue_along(ode, 0.5, states[:, 0], [0.6, 0.7]).shape == (ode.order,)
    assert np.array_equal(out, taylor_step(ode, 0.5, states[:, :1], 0.6)[:, 0])


@pytest.mark.parametrize("shape", [(4,), (3,), (3, 2), (2, 2, 1), ()])
def test_state_of_the_wrong_shape_is_rejected(shape):
    """An order-2 state is (2,) or (2, m); reshaping any other shape to
    (2, -1) would mix entries of different states, so it raises ShapeError."""
    ode = ODESpec(((F(1),), (), (F(1),)))  # y'' + y = 0
    state = np.ones(shape, dtype=complex)
    with pytest.raises(ShapeError):
        states_along(ode, 0.0, state, [0.4])
    with pytest.raises(ShapeError):
        continue_along(ode, 0.0, state, [])
    with pytest.raises(ShapeError):
        taylor_step(ode, 0.0, state, 0.4)


def _chained_reference(ode, start, states, path):
    p = complex(start)
    for target in path:
        states = reference_taylor_step(ode, p, states, complex(target))
        p = complex(target)
    return states


PATHS = {
    "commutativity": (0.5, COMMUTATIVITY_PATH),
    "circle": (0.35, circle_path(0.35, 24)),
}


@pytest.mark.parametrize("path_name", sorted(PATHS))
@pytest.mark.parametrize("spec", COMMUTATIVITY_SPECS, ids=str)
def test_transfer_matrices_match_chained_reference_steps(spec, path_name):
    start, path = PATHS[path_name]
    ode, states = _start_states(spec, start)
    got = continue_along(ode, start, states, path)
    want = _chained_reference(ode, start, states, path)
    for j in range(states.shape[1]):
        assert np.abs(got[:, j] - want[:, j]).max() <= 1e-12 * np.abs(want[:, j]).max()


@pytest.mark.parametrize("spec", COMMUTATIVITY_SPECS, ids=str)
def test_states_along_holds_every_waypoint_state(spec):
    """Entry i of states_along is the state continued to waypoint i: the
    path's prefix continued on its own, and the last is continue_along's."""
    ode, states = _start_states(spec)
    got = states_along(ode, 0.5, states, COMMUTATIVITY_PATH)
    assert len(got) == len(COMMUTATIVITY_PATH)
    assert np.array_equal(got[-1], continue_along(ode, 0.5, states, COMMUTATIVITY_PATH))
    for i in (0, 15, 16, 17):
        want = continue_along(ode, 0.5, states, COMMUTATIVITY_PATH[: i + 1])
        assert got[i].shape == states.shape
        assert np.abs(got[i] - want).max() <= 1e-13 * np.abs(want).max()
    assert states_along(ode, 0.5, states[:, 0], []) == []


@pytest.mark.parametrize("spec", COMMUTATIVITY_SPECS, ids=str)
def test_commutativity_from_one_transport_matches_leg_by_leg(spec):
    """One transport through every target gives the residuals of the
    arc and each further leg continued by a call of its own."""
    flips = (False, True)
    got = commutativity_residuals(spec, 60, flips)
    want = reference_commutativity_residuals(spec, 60, flips)
    assert np.abs(np.array(got) - np.array(want)).max() <= 1e-14


def test_empty_path_returns_the_state():
    ode, states = _start_states(COMMUTATIVITY_SPECS[1])
    for state in (states, states[:, 0], states[:, :1]):
        out = continue_along(ode, 0.5, state, [])
        assert out.shape == state.shape
        assert np.array_equal(out, state)


def test_one_step_path_is_taylor_step():
    ode, states = _start_states(COMMUTATIVITY_SPECS[2])
    for state in (states, states[:, 1]):
        out = continue_along(ode, 0.5, state, [0.6 - 0.1j])
        assert np.array_equal(out, taylor_step(ode, 0.5, state, 0.6 - 0.1j))
        want = reference_taylor_step(ode, 0.5, state, 0.6 - 0.1j)
        assert np.abs(out - want).max() <= 1e-12 * np.abs(want).max()


def test_singular_point_at_a_later_step_start_rejected():
    ode = ODESpec(((F(-1, 3),), (F(0), F(1))))  # leading coefficient z
    path = [0.25, 0.0, 0.1]
    with pytest.raises(DomainError) as want:
        _chained_reference(ode, 0.5, [1.0 + 0j], path)
    with pytest.raises(DomainError) as got:
        continue_along(ode, 0.5, [1.0 + 0j], path)
    assert str(got.value) == str(want.value)
    assert str(got.value) == "0j is too close to a singular point for a Taylor step"


@pytest.mark.parametrize("target", [-0.6, 1.2, 1.0, 0.5 + 0.5j])
def test_step_beyond_disc_of_convergence_rejected(target):
    # z y' = y / 3 from 0.5: the series converges for |dz| < 0.5 only
    ode = ODESpec(((F(-1, 3),), (F(0), F(1))))
    state = [0.5 ** (1 / 3) + 0j]
    with pytest.raises(DomainError, match="series diverges"):
        taylor_step(ode, 0.5, state, target)
    with pytest.raises(DomainError, match=r"from \(0\.6\+0j\)"):
        continue_along(ode, 0.5, state, [0.6, 0.6 + (target - 0.5) * 1.3])


def test_leading_roots():
    assert ODESpec(((F(1),), (F(1),))).leading_roots.size == 0
    roots = reduced_ode(COMMUTATIVITY_SPECS[2])[0].leading_roots  # z^5 (1 - z)^6
    assert sorted(roots.tolist(), key=abs) == [0, 1]
    roots = ODESpec(((F(1),), (F(1), F(0), F(1)))).leading_roots  # 1 + z^2
    assert np.allclose(sorted(roots.tolist(), key=lambda r: r.imag), [-1j, 1j])
    roots = ODESpec(((1,), (0, 1, -2, 2, -2, 1))).leading_roots  # z (1 - z)^2 (1 + z^2)
    assert roots.size == 4 and roots[:2].tolist() == [0, 1]
    assert np.allclose(sorted(roots[2:].tolist(), key=lambda r: r.imag), [-1j, 1j])


@pytest.mark.parametrize("k", range(1, 7))
def test_falling_table_is_the_running_product(k):
    """The table built from poly.falling holds the running product's
    floats bit for bit: every entry is an integer below 2**53.  The one
    difference is the sign of zero: for j < i the product passes through
    a zero factor and alternates 0.0 and -0.0, the integers give 0.0."""
    got = _falling_table(k + 1, TAYLOR_ORDER + 1)
    want = running_product_table(k + 1, TAYLOR_ORDER + 1)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    nonzero = want != 0
    assert np.array_equal(got.view(np.int64)[nonzero], want.view(np.int64)[nonzero])
    assert not np.signbit(got).any()

