from fractions import Fraction
from functools import lru_cache
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_oracles import (
    composed_at_one,
    padd,
    primitive_operator,
    proportional,
    pscale,
    ratz_reduce_to_ode,
    recursion_shifts,
    reference_allowed_channels,
    reference_channel_exponents,
    reference_derive_pde,
    reference_frobenius_expand,
    reference_indicial_polynomial,
)

from virmin import bpz, crossing
from virmin.blocks import frobenius_expand
from virmin.bpz import (
    CorrelatorSpec,
    ExponentPair,
    ODESpec,
    allowed_channels,
    channel_exponents,
    compose,
    derive_pde_slot2,
    derive_pde_slot3,
    fusion_exponents,
    indicial_exponents,
    indicial_polynomial,
    insertion_operator_slot2,
    insertion_operator_slot3,
    Operator,
    reduce_to_ode,
    reduced_ode,
    series_exponent,
)
from virmin.errors import (
    FusionError,
    ModelViolationError,
    RangeError,
    ReductionError,
    ShapeError,
    StructureError,
)
from virmin.cli import main
from virmin.models import KacLabel, MinimalModel, kac_table, reflect
from virmin.poly import normalize_system, rational_roots
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
HAND_SIGMA_ROWS = (
    (F(0), F(-3, 64)),
    (F(1, 2), F(-7, 4), F(5, 4)),
    (F(0), F(1), F(-2), F(1)),
)
HAND_SIGMA = ODESpec(HAND_SIGMA_ROWS)
HAND_EPS = ODESpec((
    (F(0), F(-2, 3)),
    (F(-2, 3), F(0), F(2, 3)),
    (F(0), F(1), F(-2), F(1)),
))


def ising_null(label):
    return singular_vectors(M34, label, 2)[0][1]


def singular_loci(op: Operator) -> set[str]:
    """Variety components where some coefficient of op has a pole."""
    loci = set()
    for a, b, e, _, _ in op:
        if a < 0:
            loci.add("z1")
        if b < 0:
            loci.add("z2")
        if e < 0:
            loci.add("z1-z2")
    return loci


def touches_diagonal(op: Operator) -> bool:
    return any(e != 0 for _, _, e, _, _ in op)


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
    assert op == {
        (0, 0, 0, 1, 0): F(-1),
        (0, 0, 0, 0, 1): F(-1),
    }


def test_insertion_operator_m2():
    op = insertion_operator_slot3(2, F(1, 16), F(1, 16))
    assert op == {
        (-1, 0, 0, 1, 0): F(-1),
        (-2, 0, 0, 0, 0): F(1, 16),
        (0, -1, 0, 0, 1): F(-1),
        (0, -2, 0, 0, 0): F(1, 16),
    }


def test_d1_squared():
    d1 = insertion_operator_slot3(1, F(0), F(0))
    sq = compose(d1, d1)
    assert sq == {
        (0, 0, 0, 2, 0): F(1),
        (0, 0, 0, 1, 1): F(2),
        (0, 0, 0, 0, 2): F(1),
    }


def test_slot2_m1_is_translation():
    op = insertion_operator_slot2(1, F(1, 16), F(1, 16))
    assert op == {(0, 0, 0, 0, 1): F(1)}


def test_derive_pde_linearity():
    """The derived operator is primitive, so scaling the vector leaves it
    unchanged."""
    p = ising_null(SIGMA)
    op = derive_pde_slot3(SIGMA_SPEC, p)
    assert derive_pde_slot3(SIGMA_SPEC, p.scaled(F(5))) == op
    assert op == primitive_operator(op)


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


def _outcome(fn, spec, channel):
    try:
        return fn(spec, channel)
    except (RangeError, FusionError) as exc:
        return type(exc), str(exc)


def test_channel_table_matches_the_validating_oracle():
    """The cached channel table answers every label as the earlier
    per-call validation did: the same exponents, or the same exception
    type and message on every call; the same canonical channel list."""
    models = [MinimalModel(p, q) for q in range(3, 8) for p in range(2, q) if gcd(p, q) == 1]
    specs = [
        CorrelatorSpec(model, *[label] * 4) for model in models for label, _ in kac_table(model)
    ]
    m56 = MinimalModel(5, 6)
    specs += [
        CorrelatorSpec(m56, KacLabel(1, 2), KacLabel(1, 2), KacLabel(1, 3), KacLabel(1, 3)),
        CorrelatorSpec(m56, KacLabel(2, 1), KacLabel(1, 2), KacLabel(2, 2), KacLabel(1, 3)),
        CorrelatorSpec(MinimalModel(4, 5), *[KacLabel(1, 2), KacLabel(2, 1)] * 2),
        CorrelatorSpec(M34, SIGMA, SIGMA, EPS, EPS),
        CorrelatorSpec(M34, SIGMA, SIGMA, SIGMA, EPS),  # no allowed channel
    ]
    kinds = set()
    for spec in specs:
        model = spec.model
        assert allowed_channels(spec) == reference_allowed_channels(spec), spec
        labels = [KacLabel(m, n) for m in range(model.p + 1) for n in range(model.q + 1)]
        for channel in labels:
            want = _outcome(reference_channel_exponents, spec, channel)
            assert _outcome(channel_exponents, spec, channel) == want, (spec, channel)
            assert _outcome(channel_exponents, spec, channel) == want, (spec, channel)
            if isinstance(want, ExponentPair):
                kinds.add("allowed")
            elif want[0] is RangeError:
                kinds.add("off-table")
            else:
                kinds.add("second pairing" if "into" in want[1] else "first pairing")
    assert kinds == {"allowed", "off-table", "first pairing", "second pairing"}
    assert not allowed_channels(specs[-1])


def test_allowed_channels_returns_a_fresh_list():
    first = allowed_channels(SIGMA_SPEC)
    first.append(SIGMA)
    assert allowed_channels(SIGMA_SPEC) == [KacLabel(1, 1), EPS]


def test_sigma_reduction_matches_hand_derivation():
    anchor = channel_exponents(SIGMA_SPEC, KacLabel(1, 1))
    op = derive_pde_slot3(SIGMA_SPEC, ising_null(SIGMA))
    ode = reduce_to_ode(op, anchor)
    assert proportional(ode, HAND_SIGMA)
    assert ode.order == 2


def test_a_rational_ode_is_its_denominator_cleared_twin():
    """A hand-built rational ODE is stored multiplied through by its
    common denominator: it equals and hashes as its twin cleared by
    hand, carries the same exponents and series, and shares the twin's
    frobenius_expand and fusing_matrix memo entries."""
    exponents = {0: [F(0), F(1, 2)], 1: [F(-1, 8), F(3, 8)]}
    rational = ODESpec(HAND_SIGMA_ROWS, exponents)
    twin = ODESpec(tuple(tuple(int(64 * c) for c in row) for row in HAND_SIGMA_ROWS), exponents)
    assert all(type(c) is int for row in rational.coefficients for c in row)
    assert rational == twin and hash(rational) == hash(twin)
    frobenius_expand.cache_clear()
    crossing.fusing_matrix.cache_clear()
    for point, roots in exponents.items():
        assert indicial_exponents(rational, point) == indicial_exponents(twin, point) == roots
        for rho in roots:
            series = frobenius_expand(twin, point, rho, 30)
            assert frobenius_expand(rational, point, rho, 30) is series
            assert series.coefficients == reference_frobenius_expand(rational, point, rho, 30)
    assert frobenius_expand.cache_info().currsize == 4
    assert crossing.fusing_matrix(rational, 30) is crossing.fusing_matrix(twin, 30)
    assert crossing.fusing_matrix.cache_info().misses == 1


def test_eps_reduction_matches_hand_derivation():
    ode, anchor, channel = reduced_ode(EPS_SPEC)
    assert channel == KacLabel(1, 1)
    assert anchor == ExponentPair(F(0), F(-1))
    assert proportional(ode, HAND_EPS)


def test_slot2_route_reduces_to_same_ode():
    # both routes annihilate the same two-dimensional block space, so the
    # reduced level-2 equations must be proportional (reported, not an error)
    for spec, label in ((SIGMA_SPEC, SIGMA), (EPS_SPEC, EPS)):
        anchor = channel_exponents(spec, KacLabel(1, 1))
        null = singular_vectors(M34, label, 2)[0][1]
        ode3 = reduce_to_ode(derive_pde_slot3(spec, null), anchor)
        ode2 = reduce_to_ode(derive_pde_slot2(spec, null), anchor)
        assert proportional(ode2, ode3)


def test_slot2_route_mixed_labels():
    # <eps sigma sigma eps>: slot-2 and slot-3 nulls differ; both reduced
    # equations must carry the physical channel exponent in their roots
    spec = CorrelatorSpec(M34, EPS, SIGMA, SIGMA, EPS)
    for route in ("slot3", "slot2"):
        ode, anchor, _ = reduced_ode(spec, None, route)
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
    op = {
        **insertion_operator_slot3(1, F(0), F(0)),
        **insertion_operator_slot3(2, F(1, 16), F(1, 16)),
    }
    with pytest.raises(ReductionError):
        reduce_to_ode(op, ExponentPair(F(0), F(0)))


def test_anchor_regauge_shifts_solutions_by_z():
    op = derive_pde_slot3(SIGMA_SPEC, ising_null(SIGMA))
    anchor = channel_exponents(SIGMA_SPEC, KacLabel(1, 1))
    base = reduce_to_ode(op, anchor)
    shifted = reduce_to_ode(op, ExponentPair(anchor.t1 + 1, anchor.t2 - 1))
    # new solutions are z times the old ones
    assert proportional(shifted, conjugate_power(base, -1))


def test_indicial_exponents_ising():
    ode, _, _ = reduced_ode(SIGMA_SPEC)
    assert indicial_exponents(ode, 0) == [F(0), F(1, 2)]
    assert indicial_exponents(ode, 1) == [F(-1, 8), F(3, 8)]
    assert indicial_exponents(ode, "inf") == [F(-1, 8), F(3, 8)]


def test_indicial_first_order():
    rho = F(2, 3)
    ode = ODESpec(((-rho,), (F(0), F(1))), {0: [rho]})  # z g' = rho g
    assert indicial_exponents(ode, 0) == [rho]


def test_indicial_irregular_point_rejected():
    ode = ODESpec(((F(-1),), (), (F(1),)))  # y'' - y = 0, irregular at infinity
    with pytest.raises(StructureError):
        indicial_exponents(ode, "inf")
    with pytest.raises(StructureError):
        ode.validate_minimal_form()


def test_carried_exponents_that_are_not_roots_are_reported():
    # z^2 y'' + z y' - c y = 0 has indicial rho^2 - c
    def euler(c, exponents):
        return ODESpec(((F(-c),), (F(0), F(1)), (F(0), F(0), F(1))), exponents)

    assert indicial_exponents(euler(4, {0: [2, -2]}), 0) == [F(-2), F(2)]
    assert indicial_exponents(euler(0, {0: [0, 0]}), 0) == [F(0), F(0)]
    for ode in (
        euler(2, {0: [F(7, 5), F(-7, 5)]}),  # irrational roots
        euler(4, {0: [2, 2]}),  # a root beyond its multiplicity
        euler(4, {0: [2]}),  # a leftover factor
        euler(0, {0: [0]}),  # a double root carried once
        euler(4, {0: [2, -2, 2]}),  # more exponents than the order
    ):
        with pytest.raises(ModelViolationError):
            indicial_exponents(ode, 0)


def test_an_ode_without_carried_exponents_is_a_structure_error():
    coefficients = ((), (F(0), F(1)))  # z g' = 0
    for ode in (ODESpec(coefficients), ODESpec(coefficients, {1: [F(0)]})):
        with pytest.raises(StructureError, match="carries no indicial exponents at 0"):
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
            assert proportional(shifted, conjugate_power(base, -1))


@lru_cache(maxsize=1)
def null_pool():
    """Canonical diagonal <phi phi phi phi> of coprime p < q <= 7 with null
    level <= 4, plus null level 6 for q <= 6, each with the primitive
    singular vector at its null level."""
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
                out.append((spec, null))
    return out


@lru_cache(maxsize=1)
def oracle_pool():
    """The reduced ODE of each correlator of `null_pool` on both routes
    next to the RatZ reduction of the same operator and anchor."""
    out = []
    for spec, null in null_pool():
        for route, derive in (("slot3", derive_pde_slot3), ("slot2", derive_pde_slot2)):
            ode, anchor, _ = reduced_ode(spec, None, route)
            oracle = ratz_reduce_to_ode(derive(spec, null), anchor)
            out.append((spec, route, ode, oracle))
    return out


@lru_cache(maxsize=1)
def mixed_pool():
    """Mixed-label correlators of coprime p < q <= 5: (w4, w1, w2, w3) in
    the orderings (a,a,b,b), (a,b,a,b) and (a,b,b,a) of two distinct
    non-identity labels, with an allowed channel, on each route whose
    null label (w3 for slot 3, w2 for slot 2) has null level <= 4, with
    that label's primitive singular vector."""
    from virmin.models import null_level

    out = []
    for q in range(3, 6):
        for p in range(2, q):
            if gcd(p, q) != 1:
                continue
            model = MinimalModel(p, q)
            labels = [label for label, _ in kac_table(model) if label != KacLabel(1, 1)]
            for a in labels:
                for b in labels:
                    if a == b:
                        continue
                    for order in ((a, a, b, b), (a, b, a, b), (a, b, b, a)):
                        spec = CorrelatorSpec(model, *order)
                        if not allowed_channels(spec):
                            continue
                        for route, label in (("slot3", spec.w3), ("slot2", spec.w2)):
                            level = null_level(model, label)
                            if level <= 4:
                                null = singular_vectors(model, label, level)[0][1]
                                out.append((spec, route, null))
    return out


def test_mixed_label_reductions_match_both_oracles():
    """With h1, h2, h3, h4 not all equal, both routes give the chain
    reference's operator and the RatZ reduction's ODE, so the integer
    scales of the derivation and of the Euler factors are checked where
    the diagonal pool cannot see them."""
    orders, routes, orderings = set(), set(), set()
    for spec, route, null in mixed_pool():
        h1, h2, h3 = spec.h1, spec.h2, spec.h3
        if route == "slot3":
            op = derive_pde_slot3(spec, null)
            want = reference_derive_pde(null, lambda m: insertion_operator_slot3(m, h1, h2))
        else:
            op = derive_pde_slot2(spec, null)
            want = reference_derive_pde(null, lambda m: insertion_operator_slot2(m, h1, h3))
        assert op == primitive_operator(want), (spec, route)
        assert all(type(c) is int for c in op.values())
        assert gcd(*op.values()) == 1
        ode, anchor, _ = reduced_ode(spec, None, route)
        assert ode.coefficients == ratz_reduce_to_ode(op, anchor).coefficients, (spec, route)
        orders.add(ode.order)
        routes.add(route)
        orderings.add((spec.w4 == spec.w1, spec.w4 == spec.w2))
    assert len(mixed_pool()) == 168
    assert orders == {2, 3, 4}
    assert routes == {"slot3", "slot2"}
    assert orderings == {(True, False), (False, True), (False, False)}


def test_horner_sum_matches_the_chain_reference(monkeypatch):
    """Both routes give the primitive form of the operator that composing
    each monomial's chain on its own gives, for every singular vector of
    the pool; no insertion operator, product or sum built on the way
    holds a zero coefficient."""
    built = []

    def recording(fn):
        def wrapper(*args):
            built.append(fn(*args))
            return built[-1]

        return wrapper

    for name in ("compose", "insertion_operator_slot2", "insertion_operator_slot3"):
        monkeypatch.setattr(bpz, name, recording(getattr(bpz, name)))
    levels = set()
    for spec, null in null_pool():
        levels.add(null.level)
        for derive, insertion in (
            (derive_pde_slot3, lambda m: insertion_operator_slot3(m, spec.h1, spec.h2)),
            (derive_pde_slot2, lambda m: insertion_operator_slot2(m, spec.h1, spec.h3)),
        ):
            op = derive(spec, null)
            want = primitive_operator(reference_derive_pde(null, insertion))
            assert op == want, (spec, derive.__name__)
            built.append(op)
    assert levels == {1, 2, 3, 4, 6}
    assert all(all(op.values()) for op in built)


def test_derivation_builds_no_fraction_per_term(monkeypatch):
    """The Horner sum reaches the caller as integers: the only Fractions
    the derivation constructs are the constants of its insertion
    operators, two per mode, however many terms the operator has."""
    built = []

    class Counting(Fraction):
        def __new__(cls, *args):
            built.append(args)
            return Fraction(*args)

    monkeypatch.setattr(bpz, "Fraction", Counting)
    label = KacLabel(2, 3)
    model = MinimalModel(5, 6)
    ((_, null),) = singular_vectors(model, label, 6)
    op = derive_pde_slot3(CorrelatorSpec(model, label, label, label, label), null)
    modes = {m for parts in null.coefficients for m in parts}
    assert len(op) > 2 * len(modes)
    assert len(built) <= 2 * len(modes)
    assert all(type(c) is int for c in op.values())


def test_compose_drops_cancelled_terms():
    # d/dz1 . (z1 - (z1 - z2)): the constants from the product rule cancel
    d1 = {(0, 0, 0, 1, 0): F(1)}
    x = {(1, 0, 0, 0, 0): F(1), (0, 0, 1, 0, 0): F(-1)}
    assert compose(d1, x) == {(1, 0, 0, 1, 0): F(1), (0, 0, 1, 1, 0): F(-1)}


def test_routes_call_the_derivation_bound_in_the_module(monkeypatch):
    """reduced_ode looks each route's derivation up by module name at call
    time, so a wrapper bound over bpz.derive_pde_slot3 or
    bpz.derive_pde_slot2 is the one called, once per memo miss."""
    calls = {}

    def counting(name, fn):
        def wrapper(spec, vec):
            calls[name] = calls.get(name, 0) + 1
            return fn(spec, vec)

        return wrapper

    for name in ("derive_pde_slot3", "derive_pde_slot2"):
        monkeypatch.setattr(bpz, name, counting(name, getattr(bpz, name)))
    reduced_ode.cache_clear()
    try:
        reduced_ode(SIGMA_SPEC, None, "slot3")
        assert calls == {"derive_pde_slot3": 1}
        reduced_ode(SIGMA_SPEC, None, "slot2")
        assert calls == {"derive_pde_slot3": 1, "derive_pde_slot2": 1}
    finally:
        reduced_ode.cache_clear()


def test_unknown_route_is_a_range_error():
    with pytest.raises(RangeError, match="route must be 'slot3' or 'slot2', got 'slot4'"):
        reduced_ode(SIGMA_SPEC, None, "slot4")


def test_reduced_ode_matches_ratz_oracle():
    pool = oracle_pool()
    assert {ode.order for _, _, ode, _ in pool} == {1, 2, 3, 4, 6}
    for spec, route, ode, oracle in pool:
        assert ode.coefficients == oracle.coefficients, (spec, route)
        assert all(type(c) is int for poly in ode.coefficients for c in poly)


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
    op: Operator = {}
    for b, e, r, s_, coef in terms:
        key = (deg + r + s_ - b - e, b, e, r, s_)
        op[key] = op.get(key, 0) + coef
    op = {key: coef for key, coef in op.items() if coef}
    anchor = ExponentPair(t1, t2)
    outcomes = []
    for reduce in (reduce_to_ode, ratz_reduce_to_ode):
        try:
            outcomes.append(reduce(op, anchor).coefficients)
        except (ReductionError, StructureError) as exc:
            outcomes.append(type(exc))
    assert outcomes[0] == outcomes[1]


def kac_weight(model: MinimalModel, a: int, b: int) -> Fraction:
    """((b p - a q)^2 - (p - q)^2) / (4 p q) at any integers a, b."""
    p, q = model.p, model.q
    return Fraction((b * p - a * q) ** 2 - (p - q) ** 2, 4 * p * q)


@lru_cache(maxsize=1)
def fusion_pool():
    """(spec, route) over coprime p < q <= 7, two non-identity labels a
    and b (equal or not), the orderings (a,a,b,b), (a,b,a,b) and (a,b,b,a)
    of (w4, w1, w2, w3), with an allowed channel, on each route whose null
    label (w3 for slot 3, w2 for slot 2) has null level <= 4.  A diagonal
    spec appears once per ordering."""
    from virmin.models import null_level

    out = []
    for q in range(3, 8):
        for p in range(2, q):
            if gcd(p, q) != 1:
                continue
            model = MinimalModel(p, q)
            labels = [label for label, _ in kac_table(model) if label != KacLabel(1, 1)]
            for a in labels:
                for b in labels:
                    for order in ((a, a, b, b), (a, b, a, b), (a, b, b, a)):
                        spec = CorrelatorSpec(model, *order)
                        if not allowed_channels(spec):
                            continue
                        for route, label in (("slot3", spec.w3), ("slot2", spec.w2)):
                            if null_level(model, label) <= 4:
                                out.append((spec, route))
    return out


def test_fusion_exponents_are_the_rational_roots():
    """On both routes, at 0, 1 and infinity, the closed-form exponents are
    the roots that the independent root search finds, with multiplicity
    and nothing left over, and the ODE confirms them.  Each exponent is
    its label's Kac weight plus the point's offset; at 0 every allowed
    channel's series exponent appears under the channel's label."""
    checked = {}
    for spec, route in fusion_pool():
        if (spec, route) in checked:
            continue
        ode, anchor, _ = reduced_ode(spec, None, route)
        predicted = fusion_exponents(spec, anchor, route)
        offsets = {
            0: -spec.h2 - spec.h3 - anchor.t2,
            1: -spec.h1 - spec.h2,
            "inf": spec.h2 - spec.h4 + anchor.t2,
        }
        for point, offset in offsets.items():
            roots, leftover = rational_roots(indicial_polynomial(ode, point))
            want = [rho for rho, mult in roots for _ in range(mult)]
            assert leftover == ()
            assert [rho for rho, _ in predicted[point]] == want, (spec, route, point)
            assert indicial_exponents(ode, point) == want
            for rho, lab in predicted[point]:
                assert rho == kac_weight(spec.model, lab.m, lab.n) + offset
        labelled = set(predicted[0])
        for channel in allowed_channels(spec):
            rho = series_exponent(spec, channel, anchor)
            assert {(rho, channel), (rho, reflect(spec.model, channel))} & labelled
        checked[spec, route] = ode.order
    assert len(fusion_pool()) == 2124
    assert set(checked.values()) == {2, 3, 4}


def moved_by_two(original):
    """fusion_exponents with i moved by 2 at the point 0: the label
    (m + i, n + j) becomes (m + i + 2, n + j), its exponent moves with it."""

    def wrong(spec, anchor, route):
        out = original(spec, anchor, route)
        out[0] = [
            (rho - kac_weight(spec.model, lab.m, lab.n) + kac_weight(spec.model, lab.m + 2, lab.n),
             KacLabel(lab.m + 2, lab.n))
            for rho, lab in out[0]
        ]
        return out

    return wrong


def test_a_wrong_shift_set_is_a_model_violation(monkeypatch, capsys):
    lab = KacLabel(1, 3)
    spec = CorrelatorSpec(MinimalModel(4, 5), lab, lab, lab, lab)
    monkeypatch.setattr(bpz, "fusion_exponents", moved_by_two(bpz.fusion_exponents))
    reduced_ode.cache_clear()
    try:
        ode, _, _ = reduced_ode(spec)
        assert indicial_exponents(ode, 1)  # the other points are untouched
        with pytest.raises(ModelViolationError, match="is not an indicial root at 0"):
            indicial_exponents(ode, 0)
        assert main(["bpz", "4", "5", "--labels", "1,3", "1,3", "1,3", "1,3"]) == 3
        assert "not an indicial root at 0" in capsys.readouterr().err
    finally:
        reduced_ode.cache_clear()
