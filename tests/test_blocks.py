import cmath
import dataclasses
import math
import struct
from fractions import Fraction

import pytest

from exact_oracles import (
    composed_at_one,
    gram_block_coefficients,
    recursion_shifts,
    reference_frobenius_expand,
    reference_residual_support,
    tail_bound,
)
from virmin.blocks import (
    block,
    eval_local,
    eval_local_derivatives,
    evaluate_series,
    frobenius_expand,
    residual_orders,
)
from virmin import blocks, bpz, cli, crossing
from virmin.bpz import (
    CorrelatorSpec,
    ODESpec,
    allowed_channels,
    channel_exponents,
    indicial_exponents,
    reduced_ode,
)
from virmin.errors import (
    DomainError,
    FusionError,
    LogarithmicCaseError,
    ModelViolationError,
    RangeError,
)
from virmin.models import KacLabel, MinimalModel, kac_table, null_level

F = Fraction

M34 = MinimalModel(3, 4)
SIGMA = KacLabel(1, 2)
EPS = KacLabel(2, 1)
SIGMA_SPEC = CorrelatorSpec(M34, SIGMA, SIGMA, SIGMA, SIGMA)


# closed forms solving the hand-derived reduced ODE (independent oracle)
def closed_identity_g(z):
    return (1 - z) ** -0.125 * math.sqrt((1 + math.sqrt(1 - z)) / 2)


def closed_eps_g(z):
    return 2 * (1 - z) ** -0.125 * math.sqrt((1 - math.sqrt(1 - z)) / 2)


def sigma_ode():
    return reduced_ode(SIGMA_SPEC)[0]


def test_trivial_ode_series():
    rho = F(3, 4)
    ode = ODESpec(((-rho,), (F(0), F(1))))  # z g' = rho g
    series = frobenius_expand(ode, 0, rho, 10)
    assert series.coefficients == (F(1),) + (F(0),) * 10


def test_non_root_exponent_rejected():
    ode = sigma_ode()
    with pytest.raises(RangeError):
        frobenius_expand(ode, 0, F(1, 3), 5)


def test_ising_series_coefficients():
    series = frobenius_expand(sigma_ode(), 0, F(0), 4)
    assert series.coefficients == (F(1), F(0), F(1, 64), F(1, 64), F(117, 8192))


def test_ising_series_match_closed_forms():
    ode = sigma_ode()
    s0 = frobenius_expand(ode, 0, F(0), 60)
    s1 = frobenius_expand(ode, 0, F(1, 2), 60)
    for z in (0.1, 0.3, 0.5):
        assert abs(eval_local(s0, z) - closed_identity_g(z)) < 1e-13
        assert abs(eval_local(s1, z) - closed_eps_g(z)) < 1e-13


def test_expansion_at_one():
    ode = sigma_ode()
    s = frobenius_expand(ode, 1, F(-1, 8), 60)
    # u = 1 - z; compare against the closed form at z = 0.6
    z = 0.6
    val = eval_local(s, 1 - z)
    # g+ = (1/sqrt2) u^{-1/8} A(u) + ... : instead compare through the full
    # connection identity exercised in test_crossing; here just sanity-check
    # the series solves the ODE numerically via two nearby points
    assert abs(val) > 0


def test_block_values_match_closed_forms():
    for z in (0.1, 0.3, 0.5):
        b1 = block(SIGMA_SPEC, KacLabel(1, 1), z, 50)
        b2 = block(SIGMA_SPEC, EPS, z, 50)
        ref1 = z ** -0.125 * closed_identity_g(z)
        ref2 = z ** -0.125 * closed_eps_g(z)
        assert abs(b1.value - ref1) / abs(ref1) < 1e-10
        assert abs(b2.value - ref2) / abs(ref2) < 1e-10


def test_block_normalization_at_small_z():
    z = 1e-6
    b = block(SIGMA_SPEC, EPS, z, 20)
    lead = z ** float(F(3, 8))
    assert abs(b.value / lead - 1) < 1e-5


def test_block_rejects_a_channel_exponent_off_the_indicial_roots(monkeypatch, capsys):
    """A channel exponent moved off the indicial roots is a typed error
    with one message from block, associativity_residual and correlator,
    and `virmin crossing` exits with the domain-error code."""
    with pytest.raises(RangeError):
        block(SIGMA_SPEC, EPS, 0.3, -1)
    exact = bpz.series_exponent

    def shifted(spec, channel, anchor):
        return exact(spec, channel, anchor) + F(1, 7)

    monkeypatch.setattr(blocks, "series_exponent", shifted)
    monkeypatch.setattr(crossing, "series_exponent", shifted)
    crossing.correlator.cache_clear()
    blocks._block_series.cache_clear()  # the block memo holds the exact channel's series
    with pytest.raises(ModelViolationError):
        block(SIGMA_SPEC, EPS, 0.3, 20)
    first = allowed_channels(SIGMA_SPEC)[0]
    with pytest.raises(ModelViolationError) as from_block:
        block(SIGMA_SPEC, first, 0.3, 20)
    with pytest.raises(ModelViolationError) as from_residual:
        crossing.associativity_residual(SIGMA_SPEC, 1.0, 0.55)
    assert str(from_residual.value) == str(from_block.value)
    code = cli.main(["crossing", "3", "4", "--labels", "1,2", "1,2", "1,2", "1,2"])
    assert code == cli.DOMAIN_EXIT
    assert capsys.readouterr().err == f"error: {from_block.value}\n"


def test_evaluate_series_domain():
    s = frobenius_expand(sigma_ode(), 0, F(0), 10)
    with pytest.raises(DomainError):
        evaluate_series(s, 1.5)
    r = evaluate_series(s, 0.0)
    assert r.value == 1.0
    s_pos = frobenius_expand(sigma_ode(), 0, F(1, 2), 10)
    assert evaluate_series(s_pos, 0.0).value == 0


def test_evaluate_series_rejects_nan():
    for base in (0, 1):
        s = frobenius_expand(sigma_ode(), base, indicial_exponents(sigma_ode(), base)[0], 10)
        for z in (math.nan, complex(0.3, math.nan)):
            with pytest.raises(DomainError):
                evaluate_series(s, z)


def test_block_rejects_the_branch_point_and_nan():
    # z = 0 is the branch point of z^t2, outside |z1| > |z2| > 0: a typed
    # DomainError on every channel, not cmath's ValueError
    for channel in allowed_channels(SIGMA_SPEC):
        for z in (0, 0.0, 0j, math.nan):
            with pytest.raises(DomainError):
                block(SIGMA_SPEC, channel, z)


def test_block_raises_every_typed_error_again_on_a_repeated_call(monkeypatch):
    """The block memo caches no exception: each error comes on the first
    call and again on a repeated one, with the same message, in the
    order z = 0, then the channel and the exponent, then |z| >= 1."""

    def messages(exc_type, *args, **kwargs):
        out = []
        for _ in range(2):
            with pytest.raises(exc_type) as info:
                block(*args, **kwargs)
            out.append(str(info.value))
        assert out[0] == out[1]
        return out[0]

    blocks._block_series.cache_clear()
    assert "not in" in messages(FusionError, SIGMA_SPEC, SIGMA, 0.3)  # sigma x sigma = 1 + eps
    # z = 0 is checked before the channel
    assert "branch point" in messages(DomainError, SIGMA_SPEC, SIGMA, 0)
    assert "order" in messages(RangeError, SIGMA_SPEC, EPS, 0.3, -1)
    for z in (1.5, 1, -1j, math.nan, complex(0.3, math.nan)):
        assert "convergence disk" in messages(DomainError, SIGMA_SPEC, EPS, z)
    assert "branch point" in messages(DomainError, SIGMA_SPEC, EPS, 0j)
    assert blocks._block_series.cache_info().currsize == 1  # only (EPS, 50) succeeded

    exact = bpz.series_exponent
    monkeypatch.setattr(
        blocks, "series_exponent", lambda spec, c, anchor: exact(spec, c, anchor) + F(1, 7)
    )
    blocks._block_series.cache_clear()
    assert "not an indicial root" in messages(ModelViolationError, SIGMA_SPEC, EPS, 0.3, 20)
    # the channel is checked before |z| >= 1
    assert "not an indicial root" in messages(ModelViolationError, SIGMA_SPEC, EPS, 1.5)
    assert blocks._block_series.cache_info().currsize == 0
    blocks._block_series.cache_clear()


def test_negative_exponent_at_base_point():
    ode = ODESpec(((F(1, 8),), (F(0), F(1))))  # z g' = -1/8 g
    s = frobenius_expand(ode, 0, F(-1, 8), 5)
    with pytest.raises(DomainError):
        evaluate_series(s, 0.0)


def test_constant_series_tail_zero():
    ode = ODESpec(((), (F(0), F(1))))  # z g' = 0
    s = frobenius_expand(ode, 0, F(0), 10)
    r = evaluate_series(s, 0.5)
    assert r.value == 1.0 and r.tail_bound == 0.0


def test_evaluation_stability_doubling():
    from virmin.verify import level2_labels, models_up_to

    for model in models_up_to(5):
        for label in level2_labels(model):
            spec = CorrelatorSpec(model, label, label, label, label)
            ode, _, _ = reduced_ode(spec)
            for rho in indicial_exponents(ode, 0):
                s40 = frobenius_expand(ode, 0, rho, 40)
                s80 = frobenius_expand(ode, 0, rho, 80)
                for z in (0.2, 0.5):
                    r40 = evaluate_series(s40, z)
                    r80 = evaluate_series(s80, z)
                    assert abs(r80.value - r40.value) <= r40.tail_bound + 1e-15


def test_residual_support_above_truncation():
    ode = sigma_ode()
    for rho in indicial_exponents(ode, 0):
        for n in (8, 20, 50):
            series = frobenius_expand(ode, 0, rho, n)
            support = residual_orders(series)
            assert support, "truncated series must leave a residual"
            assert min(support) > n - 2
            assert min(support) > n  # sharper: first nonzero order is N+1


def test_consistent_resonance_takes_zero_branch():
    # y'' = y has indicial roots {0, 1} at the (ordinary) point 0; the
    # recursion hits the resonance at order 1 consistently and continues
    ode = ODESpec(((F(-1),), (), (F(1),)))
    s = frobenius_expand(ode, 0, F(0), 6)
    assert s.coefficients == (F(1), F(0), F(1, 2), F(0), F(1, 24), F(0), F(1, 720))


def test_inconsistent_resonance_raises():
    # z y'' + y = 0 carries a logarithm above the root 0
    ode = ODESpec(((F(1),), (), (F(0), F(1))))
    with pytest.raises(LogarithmicCaseError):
        frobenius_expand(ode, 0, F(0), 5)


def _series(spec, channel, order):
    ode, anchor, _ = reduced_ode(spec)
    rho = channel_exponents(spec, channel).t2 - anchor.t2
    return frobenius_expand(ode, 0, rho, order).coefficients


def _spec(p, q, *labels):
    labels = [KacLabel(*lab) for lab in labels]
    return CorrelatorSpec(MinimalModel(p, q), *(labels * (4 // len(labels))))


M56_13 = _spec(5, 6, (1, 3))
M56_12_13 = _spec(5, 6, (1, 2), (1, 2), (1, 3), (1, 3))


@pytest.mark.parametrize(
    "spec, channel",
    [
        (SIGMA_SPEC, KacLabel(1, 1)),
        (SIGMA_SPEC, KacLabel(2, 1)),
        (_spec(4, 5, (2, 2)), KacLabel(1, 3)),
        (M56_13, KacLabel(1, 3)),
    ],
    ids=str,
)
def test_series_matches_the_gram_block_oracle(spec, channel):
    """Through a_4 the ODE series equals rho_L^T G_S^-1 rho_R, which is
    built from the Shapovalov form alone."""
    assert list(_series(spec, channel, 4)) == gram_block_coefficients(spec, channel, 4)


def test_gram_block_oracle_pins_the_resonant_vacuum_blocks():
    """The vacuum blocks of (5,6)<(1,3)^4> and (5,6)<(1,2)(1,2)(1,3)(1,3)>
    through a_4, where the exponent gap 3 to a second root is resonant."""
    vac = KacLabel(1, 1)
    assert gram_block_coefficients(M56_13, vac, 4) == [1, 0, F(10, 9), F(10, 9), F(94, 81)]
    assert gram_block_coefficients(M56_12_13, vac, 4) == [1, 0, F(5, 24), F(5, 24), F(229, 1152)]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 1: at a consistent resonance the series sets the free "
    "coefficient a_level to 0; the physical block has the Gram value",
)
@pytest.mark.parametrize(
    "spec, level, want",
    [
        (M56_13, 3, F(10, 9)),
        (M56_12_13, 3, F(5, 24)),
        (_spec(5, 6, (1, 4)), 3, F(845, 128)),
        (_spec(6, 7, (3, 1)), 5, F(1708, 243)),
    ],
    ids=["(1,3)^4", "(1,2)^2(1,3)^2", "(5,6)(1,4)^4", "(6,7)(3,1)^4"],
)
def test_resonant_vacuum_a3_is_the_gram_value(spec, level, want):
    """The vacuum coefficient a_level at the resonant exponent gap."""
    assert gram_block_coefficients(spec, KacLabel(1, 1), level)[level] == want
    assert _series(spec, KacLabel(1, 1), level)[level] == want


def reference_expand(ode, point, exponent, order):
    """The Frobenius recursion in Fraction arithmetic, term by term;
    returns the coefficients, or the order of an inconsistent resonance."""
    from virmin.poly import peval

    shifts = recursion_shifts(ode if point == 0 else composed_at_one(ode))
    a = [F(1)]
    for n in range(1, order + 1):
        rhs = -sum(
            (peval(shifts[j], exponent + n - j) * a[n - j]
             for j in range(1, min(n, len(shifts) - 1) + 1)),
            F(0),
        )
        denom = peval(shifts[0], exponent + n)
        if denom == 0 and rhs != 0:
            return n
        a.append(rhs / denom if denom else F(0))
    return tuple(a)


@pytest.mark.parametrize(
    "p, q, labels",
    [
        (3, 4, [(1, 2)] * 4),
        (5, 6, [(3, 2)] * 4),  # order 6, exponents with denominator 60
        (5, 6, [(1, 2), (1, 2), (1, 3), (1, 3)]),  # consistent resonances
        (4, 5, [(3, 1)] * 4),  # an inconsistent resonance
    ],
)
def test_series_match_fraction_recursion(p, q, labels):
    spec = CorrelatorSpec(MinimalModel(p, q), *(KacLabel(*lab) for lab in labels))
    ode = reduced_ode(spec)[0]
    for point in (0, 1):
        for rho in indicial_exponents(ode, point):
            want = reference_expand(ode, point, rho, 30)
            if isinstance(want, int):
                with pytest.raises(LogarithmicCaseError, match=f"order {want} "):
                    frobenius_expand(ode, point, rho, 30)
            else:
                assert frobenius_expand(ode, point, rho, 30).coefficients == want


def diagonal_odes(max_level: int, max_q: int = 7):
    """Reduced ODE of every diagonal correlator <phi phi phi phi>, phi a
    canonical label of null level <= max_level of coprime p < q <= max_q."""
    out = []
    for q in range(3, max_q + 1):
        for p in range(2, q):
            if math.gcd(p, q) != 1:
                continue
            model = MinimalModel(p, q)
            for label, _ in kac_table(model):
                if null_level(model, label) <= max_level:
                    out.append(reduced_ode(CorrelatorSpec(model, *[label] * 4))[0])
    return out


def float_bits(c: complex) -> bytes:
    return struct.pack("<dd", c.real, c.imag)


def test_series_floats_are_the_rounded_exact_coefficients():
    """At order 60, on every root at 0 and 1 of the diagonal correlators
    of null level <= 4: the exact coefficients equal the Fraction
    recursion, each float is complex() of its Fraction bit for bit (a
    vanishing term over a negative running denominator is +0.0), and
    where the Fraction recursion raises, frobenius_expand raises the same
    error with the same message."""
    expanded = raised = negative_zeros = 0
    for ode in diagonal_odes(4):
        for point in (0, 1):
            for rho in indicial_exponents(ode, point):
                try:
                    want = reference_frobenius_expand(ode, point, rho, 60)
                except (RangeError, LogarithmicCaseError) as exc:
                    with pytest.raises(type(exc)) as got:
                        frobenius_expand(ode, point, rho, 60)
                    assert str(got.value) == str(exc)
                    raised += 1
                    continue
                series = frobenius_expand(ode, point, rho, 60)
                assert [float_bits(c) for c in series.complex_coefficients] == [
                    float_bits(complex(c)) for c in want
                ]
                assert series.coefficients == want
                values = blocks._values(series.local_ode().frobenius_shifts, rho, 60)
                terms = blocks._terms(values, rho)
                for k, (num, den) in enumerate(terms):
                    if num == 0 and den < 0:
                        assert float_bits(series.complex_coefficients[k]) == float_bits(0j)
                        negative_zeros += 1
                expanded += 1
    assert expanded > 200 and raised > 0 and negative_zeros > 0


def test_running_denominator_stays_near_its_reduced_size():
    """At order 60 on every root at 0 and 1 of (5,6)<(2,3)^4>, the
    recursion's running denominator ends under 600 bits, with the lowest
    terms denominators at 226-426 bits; carrying the common factor of
    each new numerator and leading value would end it at 2974-4511."""
    ode = reduced_ode(CorrelatorSpec(MinimalModel(5, 6), *[KacLabel(2, 3)] * 4))[0]
    count = 0
    for point in (0, 1):
        shifts = (ode if point == 0 else ode.shifted_to_one).frobenius_shifts
        for rho in indicial_exponents(ode, point):
            *_, (_, den) = blocks._terms(blocks._values(shifts, rho, 60), rho)
            assert abs(den).bit_length() < 600, (point, rho)
            count += 1
    assert count == 12


def test_exact_coefficients_are_built_only_when_asked_for():
    """A cold fusing matrix and a warm block build no Fraction
    coefficients; residual_orders builds them and gives the support of
    the Fraction recursion."""
    blocks.frobenius_expand.cache_clear()
    blocks._block_series.cache_clear()  # so that the blocks expand their series again
    crossing.correlator.cache_clear()
    crossing.fusing_matrix.cache_clear()
    ode = reduced_ode(CorrelatorSpec(MinimalModel(5, 6), *[KacLabel(2, 3)] * 4))[0]
    fm = crossing.fusing_matrix(ode)
    series = list(fm.basis0.solutions) + list(fm.basis1.solutions)
    for _ in range(2):
        block(SIGMA_SPEC, EPS, 0.3)
    hits = blocks.frobenius_expand.cache_info().hits
    rho = bpz.series_exponent(SIGMA_SPEC, EPS, reduced_ode(SIGMA_SPEC)[1])
    series.append(frobenius_expand(sigma_ode(), 0, rho, 50))
    assert blocks.frobenius_expand.cache_info().hits == hits + 1
    assert len(series) == 13
    for s in series:
        assert "coefficients" not in s.__dict__
    for s in series:
        want = reference_frobenius_expand(s.ode, s.base_point, s.exponent, s.order)
        assert residual_orders(s) == reference_residual_support(
            s.ode, s.base_point, s.exponent, want
        )
        assert s.__dict__["coefficients"] == want


def test_wronskian_nonvanishing():
    ode = sigma_ode()
    roots = indicial_exponents(ode, 0)
    s = [frobenius_expand(ode, 0, r, 60) for r in roots]
    for z in (0.1, 0.3, 0.5, 0.7):
        d0 = eval_local_derivatives(s[0], complex(z), 2)
        d1 = eval_local_derivatives(s[1], complex(z), 2)
        wr = d0[0] * d1[1] - d1[0] * d0[1]
        assert abs(wr) > 1e-12


def test_eval_local_derivatives_consistency():
    s = frobenius_expand(sigma_ode(), 0, F(1, 2), 40)
    z = 0.4
    h = 1e-6
    val, dval = eval_local_derivatives(s, complex(z), 2)
    fd = (eval_local(s, z + h) - eval_local(s, z - h)) / (2 * h)
    assert abs(fd - dval) < 1e-7 * max(1.0, abs(dval))


def test_eval_local_derivatives_at_the_base_point_is_a_domain_error():
    # DomainError, as eval_local gives, not cmath's ValueError from log(0);
    # the nonzero points the other tests use are evaluated as before
    ode = sigma_ode()
    for rho in indicial_exponents(ode, 0):
        s = frobenius_expand(ode, 0, rho, 20)
        for u in (0, 0j):
            with pytest.raises(DomainError, match="base point"):
                eval_local_derivatives(s, u, 2)
        val, _ = eval_local_derivatives(s, 0.3 + 0j, 2)
        assert abs(val - eval_local(s, 0.3 + 0j)) <= 1e-14 * abs(val)


def exact_local_derivatives(series, u: complex, count: int) -> list[complex]:
    """Reference for eval_local_derivatives: each term a_k times the
    falling factorial of rho + k formed as a Fraction, rounded once."""
    out = []
    rho = series.exponent
    for t in range(count):
        acc = 0j
        for k in range(len(series.coefficients) - 1, -1, -1):
            ff = Fraction(1)
            for d in range(t):
                ff *= rho + k - d
            acc = acc * u + complex(series.coefficients[k] * ff)
        out.append(acc * cmath.exp(float(rho - t) * cmath.log(u)))
    return out


def test_float_local_derivatives_match_exact_form():
    spec = CorrelatorSpec(MinimalModel(5, 6), *[KacLabel(2, 3)] * 4)
    ode = reduced_ode(spec)[0]
    assert ode.order == 6
    for point in (0, 1):
        for rho in indicial_exponents(ode, point):
            series = frobenius_expand(ode, point, rho, 60)
            for u in (0.35 + 0j, 0.5 + 0j, 0.3 - 0.2j):
                got = eval_local_derivatives(series, u, ode.order)
                want = exact_local_derivatives(series, u, ode.order)
                for g, w in zip(got, want):
                    assert abs(g - w) <= 1e-13 * abs(w)


def evaluate_warm_series():
    """Every series the evaluate-warm benchmark evaluates: the order-50
    block series of (4,5)<(2,2)^4> and Ising <ssss> in each channel, and
    the order-60 bases at 0 and 1 of (5,6)<(2,3)^4>."""
    out = []
    for model, label in ((MinimalModel(4, 5), KacLabel(2, 2)), (M34, SIGMA)):
        spec = CorrelatorSpec(model, label, label, label, label)
        ode, anchor, _ = reduced_ode(spec)
        for channel in allowed_channels(spec):
            exps = channel_exponents(spec, channel)
            out.append(frobenius_expand(ode, 0, exps.t2 - anchor.t2, 50))
    fm = crossing.correlator(CorrelatorSpec(MinimalModel(5, 6), *[KacLabel(2, 3)] * 4)).fusing
    return out + list(fm.basis0.solutions) + list(fm.basis1.solutions)


def test_tail_bound_and_values_match_the_full_term_scan():
    """_tail_bound, which scans only the last nonzero term and the five
    before it, equals the scan over every term; evaluate_series equals
    eval_local bit for bit, with the tail scaled by |u^rho|."""
    series_list = evaluate_warm_series()
    assert len(series_list) == 4 + 2 + 6 + 6
    for series in series_list:
        for z in (0, 0.05, 0.3, 0.55, 0.9):
            u = complex(z) if series.base_point == 0 else 1 - complex(z)
            assert blocks._tail_bound(series, u) == tail_bound(series, u)
            if abs(u) >= 1 or (u == 0 and series.exponent < 0):
                continue  # outside evaluate_series' domain
            got = evaluate_series(series, z)
            assert got.value == eval_local(series, u)
            scale = abs(cmath.exp(float(series.exponent) * cmath.log(u))) if u != 0 else 1.0
            assert got.tail_bound == tail_bound(series, u) * scale
            assert series.float_exponent is series.float_exponent
            assert series.float_exponent == float(series.exponent)
    # the largest ratio at the start of the window, zeros inside it, and
    # top terms that underflow at tiny |u|
    ode = ODESpec(((), (F(0), F(1))))
    for coeffs in ((1, 1, 1, 100, 1, 1, 1, 1), (1, 2, 0, 3, 0, 0, 5, 1), (1, 0, 0, 0, 0, 0, 0, 7)):
        series = blocks.FrobeniusSeries(0, F(0), tuple(complex(c) for c in coeffs), ode)
        for u in (1e-200, 1e-3, 0.3, 0.9):
            assert blocks._tail_bound(series, u) == tail_bound(series, u)


@pytest.mark.parametrize("point", [0, 1])
def test_residual_orders_match_the_fraction_back_substitution(point):
    """On every root at the point of the diagonal correlators of null
    level <= 4 of coprime p < q <= 6, at order N = 30, resonant series
    included: the integer support equals the Fraction oracle's and sits
    above N.  Adding 1 to one exact coefficient a_k, k <= N, brings the
    support down to an order <= N, in both."""
    order = 30
    checked = resonant = 0
    for ode in diagonal_odes(4, max_q=6):
        roots = indicial_exponents(ode, point)
        for rho in roots:
            try:
                series = frobenius_expand(ode, point, rho, order)
            except LogarithmicCaseError:
                continue
            support = residual_orders(series)
            assert support == reference_residual_support(ode, point, rho, series.coefficients)
            assert not support or min(support) > order
            resonant += any((r - rho).denominator == 1 and 0 < r - rho <= order for r in roots)
            # a copy, as frobenius_expand hands the same series to every caller
            perturbed = dataclasses.replace(series)
            coeffs = list(series.coefficients)
            coeffs[order // 2] += 1
            perturbed.__dict__["coefficients"] = tuple(coeffs)
            support = residual_orders(perturbed)
            assert support == reference_residual_support(ode, point, rho, tuple(coeffs))
            assert support and min(support) <= order
            checked += 1
    assert checked >= 50 and resonant > 0
