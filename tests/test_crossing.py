import cmath
import math
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from exact_oracles import (
    partial_sum,
    scalar_associativity_residual,
    scalar_fusing_fit,
    scalar_heldout_residual,
)
from virmin import crossing
from virmin.blocks import BLOCK_ORDER, block, eval_local_derivatives, frobenius_expand
from virmin.bpz import CorrelatorSpec, ODESpec, allowed_channels, reduced_ode, series_exponent
from virmin.cli import main
from virmin.continuation import continue_along, lower_arc_path
from virmin.crossing import (
    _heldout_residual,
    associativity_residual,
    braiding_phase,
    channel_basis,
    commutativity_residual,
    commutativity_residuals,
    correlator,
    fusing_matrix,
    monodromy_residuals,
    tensor_block,
)
from virmin.errors import (
    ConditioningError,
    DomainError,
    FusionError,
    LogarithmicCaseError,
    ShapeError,
)
from virmin.models import KacLabel, MinimalModel, TensorModel, kac_table, null_level

F = Fraction

M34 = MinimalModel(3, 4)
SIGMA = KacLabel(1, 2)
EPS = KacLabel(2, 1)
SIGMA_SPEC = CorrelatorSpec(M34, SIGMA, SIGMA, SIGMA, SIGMA)
EPS_SPEC = CorrelatorSpec(M34, EPS, EPS, EPS, EPS)


def sigma_ode():
    return reduced_ode(SIGMA_SPEC)[0]


def test_fusing_matrix_ising_exact_values():
    fm = fusing_matrix(sigma_ode(), 60)
    got = fm.as_array()
    want = np.array(
        [
            [2 ** -0.5, 2 ** -1.5],
            [2 ** 0.5, -(2 ** -0.5)],
        ]
    )
    assert np.max(np.abs(got - want)) < 1e-8
    assert fm.residual < 1e-8
    assert fm.basis0.exponents == (F(0), F(1, 2))
    assert fm.basis1.exponents == (F(-1, 8), F(3, 8))


def test_fusing_matrix_roundtrip_all_level2_models():
    from virmin.verify import level2_labels, models_up_to

    for model in models_up_to(5):
        for label in level2_labels(model):
            spec = CorrelatorSpec(model, label, label, label, label)
            ode = reduced_ode(spec)[0]
            fm = fusing_matrix(ode, 60)
            f = fm.as_array()
            # the reverse change of basis, fitted by the independent oracle
            fr = np.array(scalar_fusing_fit(fm.basis1, fm.basis0, fm.fit_points))
            k = f.shape[0]
            assert np.max(np.abs(fr @ f - np.eye(k))) < 1e-7


def test_fusing_matrix_single_channel():
    rho, sigma = F(1, 3), F(1, 5)
    # z(1-z) g' = (rho(1-z) - sigma z) g has the one solution z^rho (1-z)^sigma
    ode = ODESpec(((-rho, rho + sigma), (F(0), F(1), F(-1))), {0: [rho], 1: [sigma]})
    fm = fusing_matrix(ode, 80)
    assert fm.as_array().shape == (1, 1)
    assert abs(fm.as_array()[0, 0] - 1.0) < 1e-12
    assert fm.residual < 1e-12


@pytest.mark.parametrize("q", [5, 7])
def test_fusing_residual_where_a_block_vanishes(q):
    """One basis solution at each point vanishes at the held-out point
    z = 1/2, where a pointwise relative mismatch would read 0/0."""
    spec = CorrelatorSpec(MinimalModel(3, q), EPS, EPS, EPS, EPS)
    ode = reduced_ode(spec)[0]
    fm = fusing_matrix(ode, 60)
    assert 0.5 in fm.heldout_points
    assert fm.residual < 1e-8
    basis0, basis1 = channel_basis(ode, 0, 60), channel_basis(ode, 1, 60)
    assert _heldout_residual(fm.entries, basis0, basis1, fm.heldout_points) == fm.residual
    # negative control: the largest entry of either row, off by 1e-3
    for i, row in enumerate(fm.entries):
        j = max(range(len(row)), key=lambda j: abs(row[j]))
        rows = [list(r) for r in fm.entries]
        rows[i][j] *= 1 + 1e-3
        assert _heldout_residual(rows, basis0, basis1, fm.heldout_points) > 1e-4


def test_fusing_matrix_conditioning_guard(monkeypatch):
    fusing_matrix.cache_clear()  # a memoised fit would skip the guard
    monkeypatch.setattr(crossing, "COND_LIMIT", 1e-2)
    with pytest.raises(ConditioningError):
        fusing_matrix(sigma_ode(), 60)


def test_braiding_phase_examples():
    bp0 = braiding_phase(M34, KacLabel(1, 1), SIGMA, SIGMA)
    assert bp0.exponent == 0 and abs(bp0.phase - 1) < 1e-15
    bp1 = braiding_phase(M34, SIGMA, SIGMA, KacLabel(1, 1))
    assert bp1.exponent == F(-1, 8)
    assert abs(bp1.phase - cmath.exp(-1j * cmath.pi / 8)) < 1e-15
    bp2 = braiding_phase(M34, SIGMA, SIGMA, EPS)
    assert bp2.exponent == F(3, 8)
    assert abs(bp2.phase - cmath.exp(3j * cmath.pi / 8)) < 1e-15
    with pytest.raises(FusionError):
        braiding_phase(M34, EPS, EPS, EPS)


def test_braiding_phase_squares_to_full_monodromy():
    for c in (KacLabel(1, 1), EPS):
        bp = braiding_phase(M34, SIGMA, SIGMA, c)
        assert abs(bp.phase**2 - cmath.exp(2j * cmath.pi * float(bp.exponent))) < 1e-14


def test_monodromy_trivial_ode():
    ode = ODESpec(((), (F(0), F(1))), {0: [F(0)]})  # z g' = 0: constant solution
    basis = channel_basis(ode, 0, 10)
    assert monodromy_residuals(basis)[0] < 1e-14


def test_monodromy_ising_and_fault():
    ode = sigma_ode()
    basis = channel_basis(ode, 0, 60)
    assert monodromy_residuals(basis)[0] < 1e-8
    assert monodromy_residuals(basis, (0.01,))[0] > 1e-3


def test_associativity_examples():
    assert associativity_residual(SIGMA_SPEC, 1.0, 0.8, order=130) < 1e-8
    assert associativity_residual(EPS_SPEC, 1.0, 0.8, order=130) < 1e-8
    with pytest.raises(DomainError):
        associativity_residual(SIGMA_SPEC, 1.0, 0.4)
    with pytest.raises(DomainError):
        associativity_residual(SIGMA_SPEC, 1.0, 1.0)


def test_associativity_grid():
    worst = 0.0
    for z1 in (0.9, 1.1):
        for z in (0.55, 0.6):
            worst = max(worst, associativity_residual(SIGMA_SPEC, z1, z * z1, 60))
    assert worst < 1e-10


def test_associativity_residual_on_arrays_equals_the_scalar_calls():
    """Equal-shape arrays z1, z2 give one residual per point, each equal
    to the scalar call there, complex points included; the basis values
    of an array call equal the scalar calls column by column."""
    z1 = np.array(crossing.GRID_Z1)[:, None] * np.ones(len(crossing.GRID_Z))
    z2 = z1 * np.array(crossing.GRID_Z)
    spec6 = CorrelatorSpec(MinimalModel(5, 6), *[KacLabel(2, 3)] * 4)
    for spec in (SIGMA_SPEC, EPS_SPEC, spec6):
        for grid2 in (z2, z2 + 0.01j * z1):
            got = associativity_residual(spec, z1, grid2, 60)
            assert got.shape == z1.shape and got.dtype == float
            for (i, j), value in np.ndenumerate(got):
                assert value == associativity_residual(spec, z1[i, j], grid2[i, j], 60)
            assert got.max() < 1e-8
        fm = correlator(spec).fusing
        z = (grid2 / z1).ravel()
        for basis in (fm.basis0, fm.basis1):
            columns = basis.values(z)
            for col, x in enumerate(z):
                assert np.array_equal(columns[:, col], basis.values(complex(x)))
    # nested lists and 1-D arrays are arrays too
    flat = associativity_residual(SIGMA_SPEC, [1.0, 1.1], [0.55, 0.6])
    assert flat.shape == (2,) and flat[1] == associativity_residual(SIGMA_SPEC, 1.1, 0.6)


def test_associativity_residual_on_arrays_rejects_bad_input():
    with pytest.raises(ShapeError):
        associativity_residual(SIGMA_SPEC, [1.0, 1.1], [0.55, 0.6, 0.6])
    with pytest.raises(ShapeError):
        associativity_residual(SIGMA_SPEC, 1.0, [0.55, 0.6])
    with pytest.raises(DomainError, match=r"\(1.0, 0.4\)"):
        associativity_residual(SIGMA_SPEC, [1.0, 1.0], [0.55, 0.4])


def test_a_nan_in_one_channel_is_the_associativity_residual(monkeypatch, capsys):
    """A NaN in the first channel's product value at z = 3/4 is the
    residual there, though the second channel's finite ratio comes after
    it: on the scalar path, at that point of the grid path, and in the
    `virmin crossing` exit code."""
    channel = correlator(SIGMA_SPEC).channel_indices[0]
    real = crossing.ChannelBasis.values

    def nan_at_three_quarters(basis, z):
        out = real(basis, z)
        if basis.point == 0:
            out[channel, ...] = np.where(np.isclose(z, 0.75), np.nan, out[channel, ...])
        return out

    monkeypatch.setattr(crossing.ChannelBasis, "values", nan_at_three_quarters)
    assert math.isnan(associativity_residual(SIGMA_SPEC, 1.0, 0.75))
    assert associativity_residual(SIGMA_SPEC, 1.0, 0.6) < 1e-8
    grid = associativity_residual(SIGMA_SPEC, [1.0, 1.0], [0.6, 0.75])
    assert grid[0] < 1e-8 and math.isnan(grid[1])
    labels = ("--labels", "1,2", "1,2", "1,2", "1,2")
    for z, code in (("0.6", 0), ("0.6,0.75", 1)):
        assert main(["crossing", "3", "4", *labels, "--grid-z1", "1.0", "--grid-z", z]) == code
    assert capsys.readouterr().out.endswith("max associativity residual on grid: nan\n")


def test_commutativity_residual_and_phase_control():
    assert commutativity_residual(SIGMA_SPEC, 60) < 1e-6
    assert commutativity_residuals(SIGMA_SPEC, 60, (True,))[0] > 1e-3
    assert commutativity_residual(EPS_SPEC, 60) < 1e-6


def test_commutativity_against_closed_form_continuation():
    """Continue the two sigma^4 product blocks below z = 1 and compare with
    the closed forms continued along arg(1-z): 0 -> +pi, the exchange path
    with the e^{i pi} half-monodromy convention."""
    ode = sigma_ode()
    roots = (F(0), F(1, 2))
    series = [frobenius_expand(ode, 0, r, 80) for r in roots]

    def closed_continued(X, which):
        u = cmath.rect(X - 1, math.pi)  # (1-z) continued to arg +pi
        if which == 0:
            return u ** -0.125 * cmath.sqrt((1 + cmath.sqrt(u)) / 2)
        return 2 * u ** -0.125 * cmath.sqrt((1 - cmath.sqrt(u)) / 2)

    start = 0.5
    for which in (0, 1):
        state = eval_local_derivatives(series[which], complex(start), 2)
        for x_target in (1.4, 1.6):
            path = lower_arc_path(0.5, 16) + [complex(x_target)]
            got = continue_along(ode, complex(start), state, path)[0]
            want = closed_continued(x_target, which)
            assert abs(got - want) / abs(want) < 1e-9


def test_tensor_block_square_and_vacuum():
    tm = TensorModel((M34, M34))
    for z in (0.2, 0.45):
        single = block(SIGMA_SPEC, KacLabel(1, 1), z).value
        pair = tensor_block(tm, [SIGMA_SPEC, SIGMA_SPEC], [KacLabel(1, 1), KacLabel(1, 1)], z)
        assert abs(pair.value - single**2) / abs(single**2) < 1e-12

    m23 = MinimalModel(2, 3)
    vac = KacLabel(1, 1)
    vac_spec = CorrelatorSpec(m23, vac, vac, vac, vac)
    assert abs(block(vac_spec, vac, 0.3, 30).value - 1) < 1e-14
    mixed = TensorModel((M34, m23))
    for z in (0.3,):
        with_vac = tensor_block(mixed, [SIGMA_SPEC, vac_spec], [EPS, vac], z)
        alone = block(SIGMA_SPEC, EPS, z).value
        assert abs(with_vac.value - alone) / abs(alone) < 1e-14


def test_tensor_block_factor_reordering():
    m25 = MinimalModel(2, 5)
    spec25 = CorrelatorSpec(
        m25, KacLabel(1, 2), KacLabel(1, 2), KacLabel(1, 2), KacLabel(1, 2)
    )
    tm = TensorModel((M34, m25))
    tm_swapped = TensorModel((m25, M34))
    z = 0.3
    ab = tensor_block(tm, [SIGMA_SPEC, spec25], [KacLabel(1, 1), KacLabel(1, 2)], z)
    ba = tensor_block(tm_swapped, [spec25, SIGMA_SPEC], [KacLabel(1, 2), KacLabel(1, 1)], z)
    assert abs(ab.value - ba.value) / abs(ab.value) < 1e-12


def test_tensor_block_tail_and_order_from_the_factor_blocks():
    """The tail is sum_i tail_i * prod_{j != i} |v_j| over the factor
    blocks, each product taken in factor order, and the order is the
    least one used."""
    m25 = MinimalModel(2, 5)
    spec25 = CorrelatorSpec(m25, *[KacLabel(1, 2)] * 4)
    factors = [(SIGMA_SPEC, KacLabel(1, 1)), (spec25, KacLabel(1, 2)), (EPS_SPEC, KacLabel(1, 1))]
    for n in (2, 3):
        specs, channels = zip(*factors[:n])
        for z in (0.3, 0.45 + 0.1j):
            got = tensor_block(TensorModel(tuple(s.model for s in specs)), specs, channels, z)
            parts = [block(s, c, z) for s, c in zip(specs, channels)]
            terms = []
            for i, part in enumerate(parts):
                others = 1.0
                for j, other in enumerate(parts):
                    if j != i:
                        others *= abs(other.value)
                terms.append(part.tail_bound * others)
            assert got.tail_bound == sum(terms) > 0
            assert got.order_used == min(p.order_used for p in parts) == BLOCK_ORDER


def test_tensor_block_rejects_a_spec_of_another_model():
    m25 = MinimalModel(2, 5)
    with pytest.raises(ShapeError):
        tensor_block(TensorModel((m25, m25)), [SIGMA_SPEC] * 2, [KacLabel(1, 1), EPS], 0.3)
    with pytest.raises(ShapeError):
        tensor_block(TensorModel((M34, m25)), [SIGMA_SPEC] * 2, [KacLabel(1, 1), EPS], 0.3)


# The `virmin crossing` defaults and the grid tolerance of the
# `ising-crossing` suite.
GRID_Z1 = (0.9, 1.0, 1.1, 1.2, 1.3)
GRID_Z = (0.52, 0.54, 0.56, 0.58, 0.60)
GRID_TOL = 1e-8
HELDOUT_LIMIT = 1e-8
# Rational points spanning the fit and held-out range [0.35, 0.65] and
# the grid range of z = z2/z1.
RATIONAL_Z = tuple(Fraction(n, d) for n, d in ((7, 20), (2, 5), (1, 2), (13, 25), (14, 25),
                                                (3, 5), (13, 20)))


@pytest.fixture(scope="module")
def certifying_correlators():
    """Order-60 correlators of every diagonal <phi phi phi phi>, phi a
    canonical Kac label of coprime p < q <= 7 with null level 2, 3 or 4,
    or 6 when q <= 6, whose bases have no logarithmic solution."""
    found, logarithmic = [], 0
    for q in range(3, 8):
        for p in range(2, q):
            if gcd(p, q) != 1:
                continue
            model = MinimalModel(p, q)
            for label, _ in kac_table(model):
                level = null_level(model, label)
                if level in (2, 3, 4) or (level == 6 and q <= 6):
                    spec = CorrelatorSpec(model, label, label, label, label)
                    try:
                        found.append((spec, correlator(spec, 60)))
                    except LogarithmicCaseError:
                        logarithmic += 1
    assert (len(found), logarithmic) == (41, 6)
    return found


def bases(correlators):
    for _, cor in correlators:
        yield cor.fusing.basis0
        yield cor.fusing.basis1


def test_basis_values_match_exact_partial_sums(certifying_correlators):
    """values(z) against the exact partial sum at the rational local
    coordinate u of z, times u^rho in floats.  The error is relative to
    |exact|, floored at 1/100 of the terms' magnitude sum where a
    solution passes through zero."""
    for basis in bases(certifying_correlators):
        for z in RATIONAL_Z:
            u = z if basis.point == 0 else 1 - z
            got = basis.values(float(z))
            assert got.shape == (len(basis.solutions),)
            for value, series in zip(got, basis.solutions):
                power = cmath.exp(series.float_exponent * cmath.log(float(u)))
                want = float(partial_sum(series, u)) * power
                terms = sum(abs(c) * float(u) ** k
                            for k, c in enumerate(series.complex_coefficients))
                floor = 1e-2 * terms * abs(power)
                assert abs(value - want) <= 1e-13 * max(abs(want), floor)


def test_basis_values_array_columns_match_scalar_calls(certifying_correlators):
    """An array of points of any shape gives (k, *shape), each point's
    values those of the scalar call there: a row of points, and the
    first four and six of them as 2x2 and 2x3 grids."""
    row = np.array([float(z) for z in RATIONAL_Z] + [0.44, 0.56])
    for points in (row, row[:4].reshape(2, 2), row[:6].reshape(2, 3)):
        for basis in bases(certifying_correlators):
            grid = basis.values(points)
            assert grid.shape == (len(basis.solutions), *points.shape)
            for idx in np.ndindex(points.shape):
                one = basis.values(points[idx])
                scale = np.maximum(np.abs(one), 1e-300)
                assert np.all(np.abs(grid[(slice(None), *idx)] - one) <= 1e-15 * scale)


def test_basis_float_data_is_read_only_and_built_once(certifying_correlators):
    for basis in bases(certifying_correlators):
        coeffs, rho = basis.coefficient_matrix, basis.float_exponents
        assert coeffs is basis.coefficient_matrix and rho is basis.float_exponents
        assert not coeffs.flags.writeable and not rho.flags.writeable
        assert coeffs.shape == (len(basis.solutions), basis.solutions[0].order + 1)
        assert list(rho) == [float(e) for e in basis.exponents]
    for spec, cor in certifying_correlators:
        rows, idx = cor.channel_rows, cor.channel_indices
        assert not rows.flags.writeable and not idx.flags.writeable
        assert cor.channels == tuple(allowed_channels(spec))
        anchor = reduced_ode(spec)[1]
        assert [cor.fusing.basis0.exponents[i] for i in idx] == [
            series_exponent(spec, c, anchor) for c in cor.channels
        ]
        assert np.array_equal(rows, cor.fusing.as_array()[idx])


def test_fusing_fit_matches_the_scalar_fit(certifying_correlators):
    """The one-lstsq fit on kernel values against the per-point fit on
    eval_local values: the entries agree to 1e-9 of the largest entry,
    and the held-out and grid residuals stay below their limits."""
    for spec, cor in certifying_correlators:
        fm, anchor = cor.fusing, reduced_ode(spec)[1]
        rows = scalar_fusing_fit(fm.basis0, fm.basis1, fm.fit_points)
        got = fm.as_array()
        assert np.abs(got - np.array(rows)).max() <= 1e-9 * np.abs(got).max()
        assert fm.residual < HELDOUT_LIMIT
        scalar = scalar_heldout_residual(rows, fm.basis0, fm.basis1, fm.heldout_points)
        assert scalar < HELDOUT_LIMIT
        for z1 in GRID_Z1:
            for z in GRID_Z:
                resid = associativity_residual(spec, z1, z * z1, 60)
                assert resid < GRID_TOL
                oracle = scalar_associativity_residual(cor, anchor, rows, z1, z * z1)
                assert abs(resid - oracle) <= 1e-11
