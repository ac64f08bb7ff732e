from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_oracles import (
    composed_at_one,
    ratz_reduce_to_ode,
    recursion_shifts,
    reference_indicial_polynomial,
)

from virmin.bpz import (
    CorrelatorSpec,
    ExponentPair,
    ODESpec,
    allowed_channels,
    channel_exponents,
    compose,
    derive_pde_slot2,
    derive_pde_slot3,
    indicial_exponents,
    indicial_polynomial,
    insertion_operator_slot2,
    insertion_operator_slot3,
    TwoVarOperator,
    reduce_to_ode,
    reduced_ode,
)
from virmin.errors import (
    FusionError,
    ModelViolationError,
    ReductionError,
    ShapeError,
    StructureError,
)
from virmin.models import KacLabel, MinimalModel
from virmin.poly import normalize_system, padd, pscale
from virmin.verma import PBWVector, singular_vectors

F = Fraction

M34 = MinimalModel(3, 4)
SIGMA = KacLabel(1, 2)
EPS = KacLabel(2, 1)
SIGMA_SPEC = CorrelatorSpec(M34, SIGMA, SIGMA, SIGMA, SIGMA)
EPS_SPEC = CorrelatorSpec(M34, EPS, EPS, EPS, EPS)

# hand-derived reduced equations (independent oracle, checked against the
# closed-form solutions before the build):
#   sigma^4:   z(1-z)^2 g'' + (1/2 - 7/4 z + 5/4 z^2) g' - 3/64 z g = 0
#   epsilon^4: z(1-z)^2 g'' + (2/3)(z^2 - 1) g'   - 2/3 z g  = 0
HAND_SIGMA = ODESpec((
    (F(0), F(-3, 64)),
    (F(1, 2), F(-7, 4), F(5, 4)),
    (F(0), F(1), F(-2), F(1)),
))
HAND_EPS = ODESpec((
    (F(0), F(-2, 3)),
    (F(-2, 3), F(0), F(2, 3)),
    (F(0), F(1), F(-2), F(1)),
))


def ising_null(label):
    return singular_vectors(M34, label, 2)[0][1]


def singular_loci(op: TwoVarOperator) -> set[str]:
    """Variety components where some coefficient of op has a pole."""
    loci = set()
    for (a, b, e, _, _), _ in op.terms:
        if a < 0:
            loci.add("z1")
        if b < 0:
            loci.add("z2")
        if e < 0:
            loci.add("z1-z2")
    return loci


def touches_diagonal(op: TwoVarOperator) -> bool:
    return any(e != 0 for (_, _, e, _, _), _ in op.terms)


def conjugate_power(ode: ODESpec, k: int) -> ODESpec:
    """ODE satisfied by g-hat where g = z^k g-hat (monomial regauging)."""
    order = ode.order
    shift = max(0, order - k)

    def ff(x: int, d: int) -> Fraction:
        out = Fraction(1)
        for t in range(d):
            out *= x - t
        return out

    new = [()] * (order + 1)
    for j in range(order + 1):
        total = ()
        for i in range(j, order + 1):
            ci = ode.coefficients[i]
            if not ci:
                continue
            power = k - (i - j) + shift
            term = pscale(ci, Fraction(comb(i, j)) * ff(k, i - j))
            if not term:
                continue
            assert power >= 0
            total = padd(total, (F(0),) * power + term)
        new[j] = total
    return ODESpec(normalize_system(new))


def test_insertion_operator_m1():
    op = insertion_operator_slot3(1, F(1, 16), F(1, 16))
    assert op.as_dict() == {
        (0, 0, 0, 1, 0): F(-1),
        (0, 0, 0, 0, 1): F(-1),
    }


def test_insertion_operator_m2():
    op = insertion_operator_slot3(2, F(1, 16), F(1, 16))
    assert op.as_dict() == {
        (-1, 0, 0, 1, 0): F(-1),
        (-2, 0, 0, 0, 0): F(1, 16),
        (0, -1, 0, 0, 1): F(-1),
        (0, -2, 0, 0, 0): F(1, 16),
    }


def test_d1_squared():
    d1 = insertion_operator_slot3(1, F(0), F(0))
    sq = compose(d1, d1)
    assert sq.as_dict() == {
        (0, 0, 0, 2, 0): F(1),
        (0, 0, 0, 1, 1): F(2),
        (0, 0, 0, 0, 2): F(1),
    }


def test_slot2_m1_is_translation():
    op = insertion_operator_slot2(1, F(1, 16), F(1, 16))
    assert op.as_dict() == {(0, 0, 0, 0, 1): F(1)}


def test_derive_pde_linearity():
    p = ising_null(SIGMA)
    op = derive_pde_slot3(SIGMA_SPEC, p)
    op5 = derive_pde_slot3(SIGMA_SPEC, p.scaled(F(5)))
    assert op5.as_dict() == op.scaled(F(5)).as_dict()


def test_derive_pde_zero_vector_rejected():
    with pytest.raises(ShapeError):
        derive_pde_slot3(SIGMA_SPEC, PBWVector(2, {}))


def test_singular_loci_differ_between_routes():
    p = ising_null(SIGMA)
    op3 = derive_pde_slot3(SIGMA_SPEC, p)
    op2 = derive_pde_slot2(SIGMA_SPEC, p)
    assert "z1-z2" not in singular_loci(op3)
    assert "z1-z2" in singular_loci(op2)
    assert not touches_diagonal(op3)
    assert touches_diagonal(op2)


def test_channel_exponents_examples():
    assert channel_exponents(SIGMA_SPEC, KacLabel(1, 1)) == ExponentPair(F(0), F(-1, 8))
    assert channel_exponents(SIGMA_SPEC, EPS) == ExponentPair(F(-1, 2), F(3, 8))
    with pytest.raises(FusionError):
        channel_exponents(SIGMA_SPEC, KacLabel(1, 2))  # sigma not in sigma x sigma
    vac_spec = CorrelatorSpec(
        MinimalModel(2, 3), KacLabel(1, 1), KacLabel(1, 1), KacLabel(1, 1), KacLabel(1, 1)
    )
    assert channel_exponents(vac_spec, KacLabel(1, 1)) == ExponentPair(F(0), F(0))


def test_anchor_sum_is_weight_balance():
    for spec in (SIGMA_SPEC, EPS_SPEC):
        for channel in allowed_channels(spec):
            e = channel_exponents(spec, channel)
            assert e.t1 + e.t2 == spec.h4 - spec.h1 - spec.h2 - spec.h3


def test_sigma_reduction_matches_hand_derivation():
    anchor = channel_exponents(SIGMA_SPEC, KacLabel(1, 1))
    op = derive_pde_slot3(SIGMA_SPEC, ising_null(SIGMA))
    ode = reduce_to_ode(op, anchor)
    assert ode.proportional(HAND_SIGMA)
    assert ode.order == 2


def test_eps_reduction_matches_hand_derivation():
    ode, anchor, channel = reduced_ode(EPS_SPEC)
    assert channel == KacLabel(1, 1)
    assert anchor == ExponentPair(F(0), F(-1))
    assert ode.proportional(HAND_EPS)


def test_slot2_route_reduces_to_same_ode():
    # both routes annihilate the same two-dimensional block space, so the
    # reduced level-2 equations must be proportional (reported, not an error)
    for spec, label in ((SIGMA_SPEC, SIGMA), (EPS_SPEC, EPS)):
        anchor = channel_exponents(spec, KacLabel(1, 1))
        null = singular_vectors(M34, label, 2)[0][1]
        ode3 = reduce_to_ode(derive_pde_slot3(spec, null), anchor)
        ode2 = reduce_to_ode(derive_pde_slot2(spec, null), anchor)
        assert ode2.proportional(ode3)


def test_slot2_route_mixed_labels():
    # <eps sigma sigma eps>: slot-2 and slot-3 nulls differ; both reduced
    # equations must carry the physical channel exponent in their roots
    spec = CorrelatorSpec(M34, EPS, SIGMA, SIGMA, EPS)
    anchor = channel_exponents(spec, allowed_channels(spec)[0])
    ode3 = reduce_to_ode(derive_pde_slot3(spec, ising_null(EPS)), anchor)
    ode2 = reduce_to_ode(derive_pde_slot2(spec, ising_null(SIGMA)), anchor)
    for ode in (ode3, ode2):
        assert ode.order == 2
        roots = set(indicial_exponents(ode, 0))
        for channel in allowed_channels(spec):
            rho = channel_exponents(spec, channel).t2 - anchor.t2
            assert rho in roots


def test_reduce_m1_gives_constant_solution():
    op = insertion_operator_slot3(1, F(0), F(0))
    ode = reduce_to_ode(op, ExponentPair(F(0), F(0)))
    # (1-z) g' = 0 normalizes to g' = 0
    assert ode.order == 1
    assert ode.coefficients[0] == ()


def test_reduce_rejects_inhomogeneous_operator():
    op = insertion_operator_slot3(1, F(0), F(0)) + insertion_operator_slot3(
        2, F(1, 16), F(1, 16)
    )
    with pytest.raises(ReductionError):
        reduce_to_ode(op, ExponentPair(F(0), F(0)))


def test_anchor_regauge_shifts_solutions_by_z():
    op = derive_pde_slot3(SIGMA_SPEC, ising_null(SIGMA))
    anchor = channel_exponents(SIGMA_SPEC, KacLabel(1, 1))
    base = reduce_to_ode(op, anchor)
    shifted = reduce_to_ode(op, ExponentPair(anchor.t1 + 1, anchor.t2 - 1))
    # new solutions are z times the old ones
    assert shifted.proportional(conjugate_power(base, -1))


def test_indicial_exponents_ising():
    ode, _, _ = reduced_ode(SIGMA_SPEC)
    assert indicial_exponents(ode, 0) == [F(0), F(1, 2)]
    assert indicial_exponents(ode, 1) == [F(-1, 8), F(3, 8)]
    assert indicial_exponents(ode, "inf") == [F(-1, 8), F(3, 8)]


def test_indicial_first_order():
    rho = F(2, 3)
    ode = ODESpec(((-rho,), (F(0), F(1))))  # z g' = rho g
    assert indicial_exponents(ode, 0) == [rho]


def test_indicial_irregular_point_rejected():
    ode = ODESpec(((F(-1),), (), (F(1),)))  # y'' - y = 0, irregular at infinity
    with pytest.raises(StructureError):
        indicial_exponents(ode, "inf")
    with pytest.raises(StructureError):
        ode.validate_minimal_form()


def test_indicial_irrational_roots_reported():
    # z^2 y'' + z y' - 2 y = 0 has indicial rho^2 - 2
    ode = ODESpec(((F(-2),), (F(0), F(1)), (F(0), F(0), F(1))))
    with pytest.raises(ModelViolationError):
        indicial_exponents(ode, 0)


def test_ode_order_equals_null_level():
    assert reduced_ode(SIGMA_SPEC)[0].order == 2
    vac = KacLabel(1, 1)
    vac_spec = CorrelatorSpec(MinimalModel(2, 3), vac, vac, vac, vac)
    assert reduced_ode(vac_spec)[0].order == 1
    lab13 = KacLabel(1, 3)
    spec3 = CorrelatorSpec(MinimalModel(4, 5), lab13, lab13, lab13, lab13)
    ode3, anchor3, _ = reduced_ode(spec3)
    assert ode3.order == 3
    roots = set(indicial_exponents(ode3, 0))
    for channel in allowed_channels(spec3):
        assert channel_exponents(spec3, channel).t2 - anchor3.t2 in roots


def test_indicial_level2_all_models():
    from virmin.verify import level2_labels, models_up_to

    for model in models_up_to(5):
        for label in level2_labels(model):
            spec = CorrelatorSpec(model, label, label, label, label)
            ode, anchor, _ = reduced_ode(spec)
            assert ode.order == 2
            ode.validate_minimal_form()
            roots = set(indicial_exponents(ode, 0))
            for channel in allowed_channels(spec):
                rho = channel_exponents(spec, channel).t2 - anchor.t2
                assert rho in roots


def test_indicial_all_null_levels_up_to_four():
    # every <aaaa> correlator whose slot label has first null level <= 4,
    # in the three reference models: order matches the level, the equation
    # is Fuchsian on {0,1,inf}, and all physical exponents appear
    from virmin.models import kac_table, null_level

    for model in (MinimalModel(3, 4), MinimalModel(2, 5), MinimalModel(4, 5)):
        for label, _ in kac_table(model):
            level = null_level(model, label)
            if level > 4:
                continue
            spec = CorrelatorSpec(model, label, label, label, label)
            ode, anchor, _ = reduced_ode(spec)
            assert ode.order == level
            ode.validate_minimal_form()
            roots = set(indicial_exponents(ode, 0))
            channels = allowed_channels(spec)
            assert channels
            for channel in channels:
                assert channel_exponents(spec, channel).t2 - anchor.t2 in roots


def test_anchor_regauge_all_level2_models():
    from virmin.models import null_level
    from virmin.verify import level2_labels, models_up_to

    for model in models_up_to(5):
        for label in level2_labels(model):
            spec = CorrelatorSpec(model, label, label, label, label)
            null = singular_vectors(model, label, 2)[0][1]
            op = derive_pde_slot3(spec, null)
            anchor = channel_exponents(spec, allowed_channels(spec)[0])
            base = reduce_to_ode(op, anchor)
            shifted = reduce_to_ode(op, ExponentPair(anchor.t1 + 1, anchor.t2 - 1))
            assert shifted.proportional(conjugate_power(base, -1))


@lru_cache(maxsize=1)
def oracle_pool():
    """Canonical diagonal <phi phi phi phi> of coprime p < q <= 7 with null
    level <= 4, plus null level 6 for q <= 6: the reduced ODE on both
    routes next to the RatZ reduction of the same operator and anchor."""
    from virmin.models import kac_table, null_level

    out = []
    for q in range(3, 8):
        for p in range(2, q):
            if gcd(p, q) != 1:
                continue
            model = MinimalModel(p, q)
            for label, _ in kac_table(model):
                level = null_level(model, label)
                if level > 4 and not (level == 6 and q <= 6):
                    continue
                spec = CorrelatorSpec(model, label, label, label, label)
                null = [v for lev, v in singular_vectors(model, label, level) if lev == level][0]
                for route, derive in (("slot3", derive_pde_slot3), ("slot2", derive_pde_slot2)):
                    ode, anchor, _ = reduced_ode(spec, None, route)
                    oracle = ratz_reduce_to_ode(derive(spec, null), anchor)
                    out.append((spec, route, ode, oracle))
    return out


def test_reduced_ode_matches_ratz_oracle():
    pool = oracle_pool()
    assert {ode.order for _, _, ode, _ in pool} == {1, 2, 3, 4, 6}
    for spec, route, ode, oracle in pool:
        assert ode.coefficients == oracle.coefficients, (spec, route)
        assert all(type(c) is Fraction for poly in ode.coefficients for c in poly)


def test_indicial_polynomial_matches_reference():
    for spec, route, ode, _ in oracle_pool():
        for point in (0, 1, "inf"):
            got = indicial_polynomial(ode, point)
            assert got == reference_indicial_polynomial(ode, point), (spec, route, point)


def test_ode_local_data_matches_composition():
    for spec, route, ode, _ in oracle_pool():
        at_one = composed_at_one(ode)
        assert ode.shifted_to_one.coefficients == at_one.coefficients, (spec, route)
        assert list(ode.frobenius_shifts) == recursion_shifts(ode)
        assert list(ode.shifted_to_one.frobenius_shifts) == recursion_shifts(at_one)


small_fraction = st.fractions(min_value=-3, max_value=3, max_denominator=12)
operator_terms = st.lists(
    st.tuples(
        st.integers(-2, 2),  # power of z2
        st.integers(-2, 1),  # power of z1 - z2
        st.integers(0, 3),  # order in d/dz1
        st.integers(0, 3),  # order in d/dz2
        small_fraction.filter(bool),
    ),
    min_size=1,
    max_size=6,
)


@given(terms=operator_terms, deg=st.integers(-3, 1), t1=small_fraction, t2=small_fraction)
@settings(max_examples=80, deadline=None)
def test_reduce_matches_ratz_oracle_on_random_operators(terms, deg, t1, t2):
    # homogeneous of degree deg: the power of z1 fills each term up
    op = TwoVarOperator.from_dict({})
    for b, e, r, s_, coef in terms:
        key = (deg + r + s_ - b - e, b, e, r, s_)
        op = op + TwoVarOperator.from_dict({key: coef})
    anchor = ExponentPair(t1, t2)
    outcomes = []
    for reduce in (reduce_to_ode, ratz_reduce_to_ode):
        try:
            outcomes.append(reduce(op, anchor).coefficients)
        except (ReductionError, StructureError) as exc:
            outcomes.append(type(exc))
    assert outcomes[0] == outcomes[1]
