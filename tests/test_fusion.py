from itertools import permutations, product
from math import gcd

import numpy as np
import pytest

from exact_oracles import reference_fusion_rule, reference_fusion_table
from virmin import fusion
from virmin.errors import RangeError, ShapeError
from virmin.fusion import (
    FusionTable,
    fuse,
    fusion_rule,
    fusion_table,
    tensor_fusion_rule,
    verify_ring_axioms,
)
from virmin.models import (
    KacLabel,
    MinimalModel,
    TensorLabel,
    TensorModel,
    canonicalize,
    kac_table,
    reflect,
)

M34 = MinimalModel(3, 4)
M25 = MinimalModel(2, 5)

SIGMA = KacLabel(2, 2)  # same orbit as (1,2)
EPS = KacLabel(2, 1)


def test_fusion_rule_examples():
    # vacuum unit
    assert fusion_rule(M34, KacLabel(1, 1), SIGMA, SIGMA) == 1
    # sigma x sigma contains epsilon (via the reflected representative)
    assert fusion_rule(M34, SIGMA, SIGMA, EPS) == 1
    # epsilon x epsilon does not contain epsilon
    assert fusion_rule(M34, EPS, EPS, EPS) == 0


def test_fusion_rule_reflection_invariance():
    for model in (M34, M25, MinimalModel(4, 5)):
        labels = [
            KacLabel(m, n) for m in range(1, model.p) for n in range(1, model.q)
        ]
        for a, b, c in product(labels, repeat=3):
            base = fusion_rule(model, a, b, c)
            assert base == fusion_rule(model, reflect(model, a), b, c)
            assert base == fusion_rule(model, a, reflect(model, b), c)
            assert base == fusion_rule(model, a, b, reflect(model, c))


def test_fusion_rule_range_error():
    with pytest.raises(RangeError):
        fusion_rule(M34, KacLabel(3, 1), SIGMA, SIGMA)


def test_fuse_examples():
    assert fuse(M34, SIGMA, SIGMA) == {KacLabel(1, 1), EPS}
    assert fuse(M25, KacLabel(1, 2), KacLabel(1, 2)) == {KacLabel(1, 1), KacLabel(1, 2)}


def test_vacuum_strict_unit():
    for model in (M34, M25, MinimalModel(4, 5), MinimalModel(3, 5)):
        vac = KacLabel(1, 1)
        for lab, _ in kac_table(model):
            assert fuse(model, vac, lab) == {lab}


def test_tensor_fusion_examples():
    tm = TensorModel((M34, M34))
    a = TensorLabel((SIGMA, SIGMA))
    c = TensorLabel((KacLabel(1, 1), EPS))
    assert tensor_fusion_rule(tm, a, a, c) == 1

    mixed = TensorModel((M34, M25))
    aa = TensorLabel((SIGMA, KacLabel(1, 2)))
    cc = TensorLabel((EPS, KacLabel(1, 1)))
    assert tensor_fusion_rule(mixed, aa, aa, cc) == 1


def test_tensor_vacuum_is_delta():
    tm = TensorModel((M34, M25))
    vac = TensorLabel((KacLabel(1, 1), KacLabel(1, 1)))
    labels = [
        TensorLabel((la, lb))
        for la, _ in kac_table(M34)
        for lb, _ in kac_table(M25)
    ]
    for b in labels:
        for c in labels:
            want = 1 if b == c else 0
            assert tensor_fusion_rule(tm, vac, b, c) == want


def test_tensor_fusion_rule_is_the_product_of_table_multiplicities():
    # every triple of the two pairs the tensor suite checks as arrays
    triples = 0
    for fa, fb in ((M34, M25), (MinimalModel(4, 5), MinimalModel(3, 5))):
        tm = TensorModel((fa, fb))
        ta, tb = fusion_table(fa), fusion_table(fb)
        for (a1, b1, c1), (a2, b2, c2) in product(
            product(ta.labels, repeat=3), product(tb.labels, repeat=3)
        ):
            got = tensor_fusion_rule(
                tm, TensorLabel((a1, a2)), TensorLabel((b1, b2)), TensorLabel((c1, c2))
            )
            assert got == ta.multiplicity(a1, b1, c1) * tb.multiplicity(a2, b2, c2)
            triples += 1
    assert triples == 14040


@pytest.mark.parametrize("slot", range(3))
def test_tensor_fusion_rule_rejects_out_of_table_factor_labels(slot):
    tm = TensorModel((M34, M25))
    # EPS x EPS does not contain EPS, so the first factor's multiplicity
    # is 0 before the second factor is reached
    good = TensorLabel((EPS, KacLabel(1, 1)))
    for bad in (
        TensorLabel((KacLabel(3, 1), KacLabel(1, 1))),
        TensorLabel((EPS, KacLabel(1, 5))),
        TensorLabel((EPS, KacLabel(0, 2))),
    ):
        labels = [good, good, good]
        labels[slot] = bad
        with pytest.raises(RangeError):
            tensor_fusion_rule(tm, *labels)


def test_tensor_shape_error():
    tm = TensorModel((M34, M25))
    short = TensorLabel((KacLabel(1, 1),))
    with pytest.raises(ShapeError):
        tensor_fusion_rule(tm, short, short, short)


def test_ring_axioms_examples():
    assert verify_ring_axioms(M34).passed
    assert verify_ring_axioms(MinimalModel(2, 3)).passed
    assert verify_ring_axioms(MinimalModel(4, 5)).passed


def test_slot_permutation_symmetry_exhaustive():
    for model in (M34, M25, MinimalModel(3, 5)):
        labels = [lab for lab, _ in kac_table(model)]
        for a, b, c in product(labels, repeat=3):
            n = fusion_rule(model, a, b, c)
            assert n == fusion_rule(model, b, a, c)
            assert n == fusion_rule(model, a, c, b)


def test_fusion_table_matches_rule():
    ft = fusion_table(M34)
    for a, b, c in product(ft.labels, repeat=3):
        assert ft.multiplicity(a, b, c) == fusion_rule(M34, a, b, c)


def test_multiplicities_are_zero_or_one():
    for model in (M34, M25, MinimalModel(5, 6)):
        ft = fusion_table(model)
        assert set(ft.table.flatten().tolist()) <= {0, 1}


def test_fusion_table_matches_rule_for_all_models_up_to_9():
    for q in range(3, 10):
        for p in range(2, q):
            if gcd(p, q) != 1:
                continue
            model = MinimalModel(p, q)
            ft = fusion_table(model)
            k = len(ft.labels)
            want = np.array(
                [fusion_rule(model, a, b, c) for a, b, c in product(ft.labels, repeat=3)],
                dtype=np.int8,
            ).reshape(k, k, k)
            assert ft.table.dtype == np.int8
            assert np.array_equal(ft.table, want), model


def _coprime_models(q_max: int):
    return [MinimalModel(p, q) for q in range(3, q_max + 1) for p in range(2, q) if gcd(p, q) == 1]


def test_fusion_table_from_two_reflection_classes_equals_the_eight_choice_table():
    models = _coprime_models(20)
    assert len(models) == 108
    for model in models:
        # unwrapped: the tables of the larger models would fill the lru_cache
        ft = fusion_table.__wrapped__(model)
        assert np.array_equal(ft.table, reference_fusion_table(model)), model


def _invalid_labels(model):
    p, q = model.p, model.q
    return [KacLabel(0, 1), KacLabel(1, 0), KacLabel(p, 1), KacLabel(1, q), KacLabel(-1, 2)]


def _range_error_message(fn, *args) -> str:
    with pytest.raises(RangeError) as err:
        fn(*args)
    return str(err.value)


def test_table_index_reads_both_representatives():
    for model in _coprime_models(9):
        ft = fusion_table(model)
        for lab in ft.labels:
            for rep in (lab, reflect(model, lab)):
                assert ft.index(rep) == ft.labels.index(canonicalize(model, rep))
        for bad in _invalid_labels(model):
            assert _range_error_message(ft.index, bad) == _range_error_message(
                canonicalize, model, bad
            )


@pytest.mark.parametrize("model", [M34, MinimalModel(4, 5), MinimalModel(5, 6)], ids=repr)
def test_fusion_rule_matches_reflect_loop_oracle(model):
    labels = [KacLabel(m, n) for m in range(1, model.p) for n in range(1, model.q)]
    for a, b, c in product(labels, repeat=3):
        assert fusion_rule(model, a, b, c) == reference_fusion_rule(model, a, b, c)
    for bad in _invalid_labels(model):
        for args in ((bad, SIGMA, SIGMA), (SIGMA, SIGMA, bad)):
            assert _range_error_message(fusion_rule, model, *args) == _range_error_message(
                reference_fusion_rule, model, *args
            )


def pairwise_ring_failures(ft):
    """Reference ring check: vacuum, symmetry, then associativity
    M_a M_b = sum_e N_ab^e M_e tested pair by pair in row-major order."""
    k = len(ft.labels)
    t = ft.table.astype(np.int64)
    failures = []
    vac = ft.labels.index(canonicalize(ft.model, KacLabel(1, 1)))
    if not np.array_equal(t[vac], np.eye(k, dtype=np.int64)):
        failures.append("vacuum row is not the identity pattern")
    if not np.array_equal(t, t.transpose(1, 0, 2)):
        failures.append("commutativity N_ab^c = N_ba^c fails")
    for perm in [(0, 2, 1), (2, 1, 0)]:
        if not np.array_equal(t, t.transpose(*perm)):
            failures.append(f"slot permutation {perm} changes the multiplicity")
            break
    for i, j in product(range(k), repeat=2):
        lhs = t[i] @ t[j]
        rhs = sum(int(t[i, j, e]) * t[e] for e in range(k))
        if not np.array_equal(lhs, rhs):
            failures.append(f"associativity fails for a={ft.labels[i]}, b={ft.labels[j]}")
            break
    return tuple(failures)


@pytest.mark.parametrize("model", [MinimalModel(4, 5), MinimalModel(5, 6)])
def test_ring_check_names_first_failing_pair(model, monkeypatch):
    # Flip one multiplicity in all six slot orders: the table stays
    # symmetric, so only associativity can catch it.
    good = fusion_table(model)
    k = len(good.labels)
    vac = good.index(KacLabel(1, 1))
    caught = 0
    for triple in product(range(k), repeat=3):
        if vac in triple or list(triple) != sorted(triple):
            continue
        table = good.table.copy()
        for perm in set(permutations(triple)):
            table[perm] = 1 - table[perm]
        bad = FusionTable(model, good.labels, table)
        monkeypatch.setattr(fusion, "fusion_table", lambda m, bad=bad: bad)
        report = verify_ring_axioms(model)
        want = pairwise_ring_failures(bad)
        assert report.failures == want, triple
        assert report.passed == (not want)
        caught += not report.passed
    assert caught > 0
