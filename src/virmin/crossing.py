"""Numeric certification of the operator-product identities.

The reduced correlator ODE carries solution bases at its regular
singular points 0 and 1.  The change of basis between them (the fusing
matrix) realizes the associativity isomorphism in coordinates; the
product-vs-iterate equality is then checked pointwise on a grid.
Commutativity is checked by continuing the point-0 basis along an
explicit half-circle below z = 1 and comparing against the fused basis
transported with the half-monodromy phases e^{i pi s}, and the no-log
structure of the expansions is certified by continuing solutions
around a full circle at 0 and comparing with the diagonal action
e^{2 pi i rho}.

A warm associativity residual reads the solved correlator from one
memo, evaluates each basis once at z (a scalar z takes a path without
reshaping) and compares the channels' magnitudes in Python, so it does
float work only.  Equal-shape arrays z1 and z2 evaluate each basis at
all points in one call, and each point's residual equals the scalar
call's there: every point's sums are the same matrix-vector products.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, wraps

import numpy as np

from .blocks import (
    EvaluationResult,
    FrobeniusSeries,
    block,
    eval_local_derivatives,
    frobenius_expand,
)
from .bpz import (
    CorrelatorSpec,
    ODESpec,
    allowed_channels,
    indicial_exponents,
    reduced_ode,
    series_exponent,
)
from .continuation import circle_path, continue_along, lower_arc_path, states_along
from .errors import (
    ConditioningError,
    DomainError,
    FusionError,
    LogarithmicCaseError,
    ModelViolationError,
    ShapeError,
)
from .fusion import fusion_rule
from .models import KacLabel, MinimalModel, TensorModel, conformal_weight


ORDER = 60  # series order of the bases, the fit and the residual checks
# the default (z1, z2 / z1) grid of the associativity check
GRID_Z1 = (0.9, 1.0, 1.1, 1.2, 1.3)
GRID_Z = (0.52, 0.54, 0.56, 0.58, 0.60)
# the largest associativity or held-out fusing residual that certifies
GRID_TOL = 1e-8
COND_LIMIT = 1e8  # largest trusted condition number of the collocation matrix
# the circle of the monodromy check, once around 0
MONODROMY_RADIUS = 0.35
MONODROMY_STEPS = 24
# the real points z > 1 where the commutativity check compares
COMMUTATIVITY_TARGETS = (1.35, 1.5, 1.65)
# what ChannelBasis.values and associativity_residual take as one point
_SCALARS = (int, float, complex, np.number)


def _memo(fn):
    """An lru_cache of fn(x, order), so that f(x), f(x, 60) and
    f(x, order=60) share one entry."""
    cached = lru_cache(64)(fn)

    @wraps(fn)
    def memo(x, order=ORDER):
        return cached(x, order)

    memo.cache_info, memo.cache_clear = cached.cache_info, cached.cache_clear
    return memo


@dataclass(frozen=True)
class ChannelBasis:
    """One Frobenius solution per indicial root at a singular point."""

    ode: ODESpec
    point: int
    solutions: tuple[FrobeniusSeries, ...]

    @property
    def exponents(self) -> tuple[Fraction, ...]:
        return tuple(s.exponent for s in self.solutions)

    @cached_property
    def coefficient_matrix(self) -> np.ndarray:
        """Read-only (k, order + 1) array: row i holds the complex
        coefficients of solution i (every solution has the same order)."""
        out = np.array([s.complex_coefficients for s in self.solutions], dtype=complex)
        out.flags.writeable = False
        return out

    @cached_property
    def float_exponents(self) -> np.ndarray:
        """Read-only (k,) array of float(exponent) per solution."""
        out = np.array([s.float_exponent for s in self.solutions])
        out.flags.writeable = False
        return out

    @cached_property
    def _complex_exponents(self) -> np.ndarray:
        """float_exponents as complex, the type they are multiplied in."""
        return self.float_exponents.astype(complex)

    @cached_property
    def _degrees(self) -> np.ndarray:
        """0, 1, ..., order as complex, the type u is raised to them in."""
        return np.arange(self.coefficient_matrix.shape[1], dtype=complex)

    def values(self, z) -> np.ndarray:
        """Every solution at z, in the local coordinate u = z at 0 and
        u = 1 - z at 1 (u nonzero), principal branch of u^exponent:
        shape (k,) for a scalar z, (k, *z.shape) for an array of points.

        Each point's sum is one matrix-vector product, in the scalar
        and the array call alike, so out[:, i, ...] of an array call
        equals the scalar call at z[i, ...]."""
        if isinstance(z, _SCALARS):
            u = complex(1 - z if self.point == 1 else z)
            sums = self.coefficient_matrix @ u**self._degrees
            return sums * np.exp(self._complex_exponents * np.log(u))
        u = np.asarray(z, dtype=complex)
        if self.point == 1:
            u = 1 - u
        powers = u[..., None] ** self._degrees
        sums = (self.coefficient_matrix @ powers[..., None])[..., 0]
        sums = sums.transpose(-1, *range(u.ndim))  # (k, *u.shape), cheaper than np.moveaxis
        return sums * np.exp(np.multiply.outer(self._complex_exponents, np.log(u)))


def channel_basis(ode: ODESpec, point: int, order: int = ORDER) -> ChannelBasis:
    roots = indicial_exponents(ode, point)
    if len(set(roots)) != len(roots):
        raise LogarithmicCaseError(
            f"repeated indicial root at {point}; log-extended bases are out of scope"
        )
    sols = tuple(frobenius_expand(ode, point, rho, order) for rho in roots)
    return ChannelBasis(ode, point, sols)


@dataclass(frozen=True)
class FusingMatrix:
    """Coordinates of the associativity isomorphism: row i expands
    solution i of basis0 in basis1, the two bases it was fitted between."""

    entries: tuple[tuple[complex, ...], ...]
    residual: float
    fit_points: tuple[float, ...]
    heldout_points: tuple[float, ...]
    basis0: ChannelBasis
    basis1: ChannelBasis

    def as_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=complex)


def _chebyshev_points(n: int) -> list[float]:
    """n Chebyshev points of [0.35, 0.65]."""
    mid, half = (0.65 + 0.35) / 2, (0.65 - 0.35) / 2
    return [mid + half * float(np.cos(np.pi * (2 * i + 1) / (2 * n))) for i in range(n)]


def _heldout_residual(rows, basis0: ChannelBasis, basis1: ChannelBasis, points) -> float:
    """Largest |lhs - rhs| over the points, where lhs is a point-0
    solution and rhs its expansion through `rows` in the point-1 basis,
    relative to that solution's largest |lhs| on the points.

    Normalising per row rather than per point keeps the residual
    meaningful where a solution passes through zero at one of the
    points (a pointwise ratio would read 0/0 there).
    """
    lhs = basis0.values(points)
    rhs = np.asarray(rows, dtype=complex) @ basis1.values(points)
    scale = np.maximum(np.abs(lhs).max(axis=1), 1e-300)
    return float((np.abs(lhs - rhs).max(axis=1) / scale).max())


@_memo
def fusing_matrix(ode: ODESpec, order: int = ORDER) -> FusingMatrix:
    """Least-squares change of basis between the points 0 and 1, fitted
    once per (ode, order) however the call spells them.

    The residual is the largest mismatch on held-out points distinct
    from the fit points, relative per row (see _heldout_residual).
    Raises ConditioningError if the collocation matrix has a condition
    number above COND_LIMIT.
    """
    k = ode.order
    basis0 = channel_basis(ode, 0, order)
    basis1 = channel_basis(ode, 1, order)
    fit = _chebyshev_points(max(2 * k, 8))
    held = [x for x in _chebyshev_points(max(2 * k, 8) + 5) if x not in fit]

    a = basis1.values(fit).T
    cond = np.linalg.cond(a)
    if cond > COND_LIMIT:
        raise ConditioningError(
            f"basis collocation matrix has condition number {cond:.3g}; "
            "use a higher order"
        )
    sol, *_ = np.linalg.lstsq(a, basis0.values(fit).T, rcond=None)
    rows = tuple(tuple(complex(v) for v in col) for col in sol.T)
    return FusingMatrix(
        entries=rows,
        residual=_heldout_residual(rows, basis0, basis1, held),
        fit_points=tuple(fit),
        heldout_points=tuple(held),
        basis0=basis0,
        basis1=basis1,
    )


@dataclass(frozen=True)
class BraidingPhase:
    """Half-monodromy factor picked up when two insertions are exchanged."""

    exponent: Fraction
    phase: complex


def braiding_phase(
    model: MinimalModel, a: KacLabel, b: KacLabel, c: KacLabel
) -> BraidingPhase:
    """e^{i pi (h_c - h_a - h_b)} for a fusion-allowed channel c."""
    if not fusion_rule(model, a, b, c):
        raise FusionError(f"channel {c} not allowed in {a} x {b}")
    exponent = (
        conformal_weight(model, c)
        - conformal_weight(model, a)
        - conformal_weight(model, b)
    )
    return BraidingPhase(exponent, cmath.exp(1j * cmath.pi * float(exponent)))


@dataclass(frozen=True, eq=False)
class Correlator:
    """A solved correlator: the fusing matrix between the bases at 0 and
    1 (which carry the reduced ODE), the allowed channels, and, as
    read-only arrays, each channel's index in the point-0 basis and its
    row of the fusing matrix."""

    fusing: FusingMatrix
    channels: tuple[KacLabel, ...]
    channel_indices: np.ndarray
    channel_rows: np.ndarray


@_memo
def correlator(spec: CorrelatorSpec, order: int = ORDER) -> Correlator:
    """The correlator solved once per (spec, order) with series of that order."""
    ode, anchor, _ = reduced_ode(spec)
    fm = fusing_matrix(ode, order)
    index = {rho: i for i, rho in enumerate(fm.basis0.exponents)}
    channels = tuple(allowed_channels(spec))
    indices = []
    for c in channels:
        rho = series_exponent(spec, c, anchor)
        if rho not in index:
            raise ModelViolationError(f"channel {c}: {rho} is not an indicial root at 0")
        indices.append(index[rho])
    idx = np.array(indices)
    rows = fm.as_array()[idx]
    idx.flags.writeable = rows.flags.writeable = False
    return Correlator(fm, channels, idx, rows)


def associativity_residual(
    spec: CorrelatorSpec, z1, z2, order: int = ORDER
) -> float | np.ndarray:
    """Relative product-vs-iterate mismatch at one admissible point, or
    one per point of equal-shape arrays z1 and z2.

    The product side is evaluated through the point-0 basis in
    z = z2/z1 and the iterate side through the point-1 basis (local in
    z1 - z2), transported with the fusing matrix; the worst relative
    discrepancy across the allowed channels is returned.  Both sides
    carry the same prefactor z1^(t1 + t2) z^t2, which cancels in the
    relative discrepancy and is left out.  An array call returns an
    array of z1's shape whose every entry equals the scalar call at
    that point.
    """
    if not (isinstance(z1, _SCALARS) and isinstance(z2, _SCALARS)):
        return _grid_residuals(spec, np.asarray(z1), np.asarray(z2), order)
    z = _ratio(z1, z2)
    cor = correlator(spec, order)
    fm = cor.fusing
    prod = fm.basis0.values(z)[cor.channel_indices]
    iterate = cor.channel_rows @ fm.basis1.values(z)
    diff = prod - iterate
    return _worst_ratio(np.abs(prod).tolist(), np.abs(iterate).tolist(), np.abs(diff).tolist())


def _ratio(z1, z2) -> complex:
    """z2 / z1 at an admissible point; DomainError elsewhere."""
    z1c, z2c = complex(z1), complex(z2)
    if not (abs(z1c) > abs(z2c) > abs(z1c - z2c) > 0):
        raise DomainError(
            f"(z1, z2) = ({z1}, {z2}) violates |z1| > |z2| > |z1 - z2| > 0"
        )
    return z2c / z1c


def _worst_ratio(prod, iterate, diff) -> float:
    """The largest diff / max(prod, iterate, 1e-300) over the channels,
    from the magnitudes |p|, |i| and |p - i| of each channel's product
    and iterate values; a NaN is returned as soon as it shows."""
    worst = 0.0
    for p, i, d in zip(prod, iterate, diff):
        scale = i if i > p else p
        r = d / (scale if scale > 1e-300 else 1e-300)
        if r > worst:
            worst = r
        elif r != r:
            return r
    return worst


def _grid_residuals(spec: CorrelatorSpec, z1: np.ndarray, z2: np.ndarray, order: int):
    """associativity_residual at every point of z1 and z2, each basis
    evaluated at all points in one call."""
    if z1.shape != z2.shape:
        raise ShapeError(f"z1 has shape {z1.shape} but z2 has shape {z2.shape}")
    points = zip(z1.ravel().tolist(), z2.ravel().tolist())
    z = np.array([_ratio(a, b) for a, b in points], dtype=complex)
    cor = correlator(spec, order)
    fm = cor.fusing
    prod = fm.basis0.values(z)[cor.channel_indices]
    # one matrix-vector product per point, as in the scalar call
    per_point = np.ascontiguousarray(fm.basis1.values(z).T)[..., None]
    iterate = (cor.channel_rows @ per_point)[..., 0].T
    columns = (np.abs(v).T.tolist() for v in (prod, iterate, prod - iterate))
    return np.array([_worst_ratio(*col) for col in zip(*columns)]).reshape(z1.shape)


def monodromy_residuals(
    basis: ChannelBasis, exponent_offsets: tuple[float, ...] = (0.0,)
) -> tuple[float, ...]:
    """Residual between numeric continuation of the basis's own ODE once
    around 0 and the predicted diagonal action e^{2 pi i rho} on each
    basis solution, one per exponent offset, from one continuation.

    An offset shifts the predicted exponents; a nonzero offset is the
    injected-fault negative control.
    """
    if basis.point != 0:
        raise DomainError("monodromy_residuals expects the basis at the point 0")
    ode = basis.ode
    k = ode.order
    start = complex(MONODROMY_RADIUS)
    states0 = np.column_stack([eval_local_derivatives(s, start, k) for s in basis.solutions])
    final = continue_along(ode, start, states0, circle_path(MONODROMY_RADIUS, MONODROMY_STEPS))
    scales = np.maximum(np.abs(states0).max(axis=0), 1e-300)
    phases = [np.exp(2j * np.pi * (basis.float_exponents + off)) for off in exponent_offsets]
    return tuple(float((np.abs(final - ph * states0) / scales).max()) for ph in phases)


def commutativity_residuals(
    spec: CorrelatorSpec, order: int = ORDER, flips: tuple[bool, ...] = (False,)
) -> tuple[float, ...]:
    """commutativity_residual once per flip, from one transport; a True
    flip conjugates the braiding phases, which must break the match
    (negative control).  Each is the NumPy maximum over every waypoint
    and channel, so a NaN anywhere is returned as NaN."""
    cor = correlator(spec, order)
    basis0, basis1 = cor.fusing.basis0, cor.fusing.basis1
    ode = basis0.ode
    k = ode.order
    start = 0.5

    # e^{i pi s_j} R_j(x), for every point-1 solution j and waypoint x > 1,
    # is solution j's principal-branch value at u = 1 - x: arg(u) = +pi.
    swapped = basis1.values(np.array(COMMUTATIVITY_TARGETS))
    conjugate = np.exp(-2j * np.pi * basis1.float_exponents)[:, None]
    # for each flip, a (waypoints, channels) array
    preds = [(cor.channel_rows @ (swapped * conjugate if f else swapped)).T for f in flips]

    # All allowed channels are continued together as the columns of one
    # (k, channels) state matrix.
    cur = np.column_stack(
        [
            eval_local_derivatives(basis0.solutions[i], complex(start), k)
            for i in cor.channel_indices
        ]
    )
    # One transport along the arc and on through every target; the
    # states at the targets are the last waypoints'.
    path = lower_arc_path(0.5, 16) + [complex(x) for x in COMMUTATIVITY_TARGETS]
    states = states_along(ode, complex(start), cur, path)[-len(COMMUTATIVITY_TARGETS) :]
    values = np.stack(states)[:, 0]  # the solution row of each waypoint's state
    return tuple(
        float((np.abs(values - pred) / np.maximum(np.abs(pred), 1e-300)).max()) for pred in preds
    )


def commutativity_residual(spec: CorrelatorSpec, order: int = ORDER) -> float:
    """Half-monodromy transport check for the exchange of the two
    middle insertions.

    Each allowed product-channel solution is continued numerically from
    z = 0.5 along the half circle below z = 1 out to real z > 1, where
    the swapped-product expansion lives.  The prediction on that side
    is sum_j F_ij e^{i pi s_j} R_j(z) with R_j the point-1 series
    evaluated on the real branch (z - 1 > 0); the phases are exactly
    the braiding factors e^{i pi (h_c - h_a - h_b)} for the physical
    intermediate channels.
    """
    return commutativity_residuals(spec, order)[0]


def tensor_block(tmodel: TensorModel, specs, channels, z: complex) -> EvaluationResult:
    """Product of per-factor blocks at BLOCK_ORDER (intertwining maps
    factor through the tensor decomposition, so exponents add and values
    multiply), with tail sum_i tail_i prod_{j != i} |v_j|.  Spec i must
    be a correlator of factor i."""
    specs = list(specs)
    channels = list(channels)
    if len(specs) != len(tmodel.factors) or len(channels) != len(specs):
        raise ShapeError("need one correlator spec and one channel per factor")
    for i, (spec, factor) in enumerate(zip(specs, tmodel.factors)):
        if spec.model != factor:
            raise ShapeError(f"spec {i} is a correlator of {spec.model}, not of factor {factor}")
    results = [block(s, c, z) for s, c in zip(specs, channels)]
    value = math.prod((r.value for r in results), start=1 + 0j)
    tail = sum(
        r.tail_bound * math.prod(abs(o.value) for j, o in enumerate(results) if j != i)
        for i, r in enumerate(results)
    )
    return EvaluationResult(value, tail, min(r.order_used for r in results))
