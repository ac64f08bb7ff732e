from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_oracles import reference_kac_table
from virmin.errors import RangeError, ShapeError
from virmin.models import (
    KacLabel,
    MinimalModel,
    TensorLabel,
    TensorModel,
    canonicalize,
    central_charge,
    conformal_weight,
    kac_table,
    kac_weight,
    null_level,
    reflect,
    tensor_central_charge,
    tensor_weight,
)

M34 = MinimalModel(3, 4)
M23 = MinimalModel(2, 3)
M25 = MinimalModel(2, 5)


def coprime_models(bound=13):
    from math import gcd

    return [
        MinimalModel(p, q)
        for p in range(2, bound + 1)
        for q in range(2, bound + 1)
        if p != q and gcd(p, q) == 1
    ]


def test_central_charges():
    assert central_charge(M34) == Fraction(1, 2)
    assert central_charge(M23) == 0
    assert central_charge(M25) == Fraction(-22, 5)


def test_central_charge_symmetric():
    for model in coprime_models(9):
        assert central_charge(model) == central_charge(MinimalModel(model.q, model.p))


def test_conformal_weights():
    assert conformal_weight(M34, KacLabel(1, 1)) == 0
    assert conformal_weight(M34, KacLabel(2, 2)) == Fraction(1, 16)
    assert conformal_weight(M34, KacLabel(2, 1)) == Fraction(1, 2)


def test_weight_range_error():
    for label in (KacLabel(3, 1), KacLabel(0, 2), KacLabel(1.5, 2), KacLabel(1, 2.0)):
        with pytest.raises(RangeError):
            conformal_weight(M34, label)


def test_model_invariants_enforced():
    with pytest.raises(RangeError):
        MinimalModel(4, 6)
    with pytest.raises(RangeError):
        MinimalModel(1, 3)
    with pytest.raises(RangeError):
        MinimalModel(5, 5)


def test_canonicalize_examples():
    assert canonicalize(M34, KacLabel(2, 3)) == KacLabel(1, 1)
    assert canonicalize(M34, KacLabel(1, 2)) == KacLabel(1, 2)
    assert canonicalize(M25, KacLabel(1, 4)) == KacLabel(1, 1)


def test_canonicalize_idempotent_and_orbit_constant():
    for model in coprime_models(9):
        for m in range(1, model.p):
            for n in range(1, model.q):
                lab = KacLabel(m, n)
                canon = canonicalize(model, lab)
                assert canonicalize(model, canon) == canon
                assert canonicalize(model, reflect(model, lab)) == canon


def test_canonical_representative_has_minimal_null_level():
    for model in coprime_models(9):
        for lab, _ in kac_table(model):
            other = reflect(model, lab)
            assert lab.m * lab.n < other.m * other.n or lab == other


def test_kac_table_examples():
    rows = kac_table(M34)
    assert len(rows) == 3
    assert {h for _, h in rows} == {Fraction(0), Fraction(1, 2), Fraction(1, 16)}
    assert len(kac_table(M23)) == 1
    assert {h for _, h in kac_table(M25)} == {Fraction(0), Fraction(-1, 5)}


def test_kac_table_count_formula():
    for model in coprime_models(13):
        assert len(kac_table(model)) == (model.p - 1) * (model.q - 1) // 2


def test_kac_table_matches_canonicalize_construction():
    for model in coprime_models(13):
        assert kac_table(model) == reference_kac_table(model), model


@given(
    p=st.integers(2, 9),
    q=st.integers(2, 9),
    m=st.integers(1, 8),
    n=st.integers(1, 8),
)
@settings(max_examples=200)
def test_weight_reflection_symmetry(p, q, m, n):
    from math import gcd

    if p == q or gcd(p, q) != 1 or m >= p or n >= q:
        return
    model = MinimalModel(p, q)
    lab = KacLabel(m, n)
    assert conformal_weight(model, lab) == conformal_weight(model, reflect(model, lab))


@given(p=st.integers(2, 9), q=st.integers(2, 9), m=st.integers(-20, 20), n=st.integers(-20, 20))
@settings(max_examples=200)
def test_kac_weight_at_any_integers(p, q, m, n):
    # the formula extended to all integers keeps both symmetries of the
    # Kac weight, and is conformal_weight inside the table
    from math import gcd

    if p == q or gcd(p, q) != 1:
        return
    model = MinimalModel(p, q)
    h = kac_weight(model, m, n)
    assert h == kac_weight(model, p - m, q - n) == kac_weight(model, -m, -n)
    if 0 < m < p and 0 < n < q:
        assert h == conformal_weight(model, KacLabel(m, n))


def test_null_level():
    assert null_level(M34, KacLabel(1, 2)) == 2
    assert null_level(M34, KacLabel(2, 2)) == 2  # orbit of (1,2)
    assert null_level(M34, KacLabel(1, 3)) == 2  # orbit of (2,1)
    assert null_level(M34, KacLabel(1, 1)) == 1


def test_tensor_ops():
    tm = TensorModel((M34, M34))
    tl = TensorLabel((KacLabel(2, 2), KacLabel(2, 2)))
    assert tensor_weight(tm, tl) == Fraction(1, 8)
    vac = TensorLabel((KacLabel(1, 1), KacLabel(1, 1)))
    assert tensor_weight(tm, vac) == 0
    assert tensor_central_charge(TensorModel((M34, M25))) == Fraction(-39, 10)


def test_tensor_shape_errors():
    tm = TensorModel((M34, M25))
    with pytest.raises(ShapeError):
        tensor_weight(tm, TensorLabel((KacLabel(1, 1),)))
    with pytest.raises(ShapeError):
        TensorModel(())
