import tracemalloc
from itertools import permutations, product
from math import gcd

import numpy as np
import pytest

from exact_oracles import pairwise_ring_failures, reference_fusion_rule, reference_fusion_table
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
    for label in (KacLabel(3, 1), KacLabel(1.5, 2), KacLabel(1, 2.0)):
        with pytest.raises(RangeError):
            fusion_rule(M34, label, SIGMA, SIGMA)


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


def _flipped(good: FusionTable, *cells) -> FusionTable:
    """good with the multiplicity at each (a, b, c) cell flipped."""
    table = good.table.copy()
    for cell in cells:
        table[cell] = 1 - table[cell]
    return FusionTable(good.model, good.labels, table)


def _symmetric_flip(good: FusionTable, triple) -> FusionTable:
    """good with one multiplicity flipped in all six slot orders."""
    return _flipped(good, *set(permutations(triple)))


def _ring_report_as_reference(bad: FusionTable, monkeypatch):
    """verify_ring_axioms on the table bad, asserted equal to the
    pairwise reference."""
    monkeypatch.setattr(fusion, "fusion_table", lambda m: bad)
    report = verify_ring_axioms(bad.model)
    want = pairwise_ring_failures(bad)
    assert report.failures == want
    assert report.passed == (not want)
    return report


def _first_associativity_mismatch(ft: FusionTable):
    """(a, b, c, d) of the first entry, in row-major order, where
    sum_e N_ab^e N_ec^d and sum_x N_ac^x N_bx^d differ; None if none does."""
    t = ft.table.astype(np.int64)
    for a in range(len(ft.labels)):
        diff = np.einsum("be,ecd->bcd", t[a], t) != np.einsum("cx,bxd->bcd", t[a], t)
        if diff.any():
            return (a, *np.argwhere(diff)[0])
    return None


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
        report = _ring_report_as_reference(_symmetric_flip(good, triple), monkeypatch)
        caught += not report.passed
    assert caught > 0


@pytest.mark.parametrize(
    "cells, symmetry_failures",
    [
        # (0, 2, 1) holds and commutativity fails: the (2, 1, 0) comparison reports
        ([(2, 1, 1)], ["commutativity N_ab^c = N_ba^c fails",
                       "slot permutation (2, 1, 0) changes the multiplicity"]),
        ([(1, 2, 3), (1, 3, 2)], ["commutativity N_ab^c = N_ba^c fails",
                                  "slot permutation (2, 1, 0) changes the multiplicity"]),
        ([(1, 2, 3)], ["commutativity N_ab^c = N_ba^c fails",
                       "slot permutation (0, 2, 1) changes the multiplicity"]),
        ([(1, 2, 3), (2, 1, 3)], ["slot permutation (0, 2, 1) changes the multiplicity"]),
        (set(permutations((1, 2, 3))), []),
    ],
    ids=["commutativity-single-cell", "last-two-slots", "single-cell", "first-two-slots",
         "symmetric"],
)
def test_ring_check_symmetry_failures_match_the_reference(cells, symmetry_failures, monkeypatch):
    good = fusion_table(MinimalModel(5, 6))
    assert good.index(KacLabel(1, 1)) == 0  # no flipped cell is in the vacuum row
    report = _ring_report_as_reference(_flipped(good, *cells), monkeypatch)
    symmetry = [f for f in report.failures if "commutativity" in f or "permutation" in f]
    assert symmetry == symmetry_failures


# (model, digits g per packed group, groups): B = k + 1 for a 0/1 table,
# and g is the largest with B^g <= 2^53
@pytest.mark.parametrize(
    "model, g, groups", [(MinimalModel(7, 9), 11, 3), (MinimalModel(9, 10), 10, 4)], ids=repr
)
def test_ring_check_matches_reference_on_flips_across_digit_groups(
    model, g, groups, monkeypatch
):
    good = fusion_table(model)
    k = len(good.labels)
    assert (k + 1) ** g <= 2**53 < (k + 1) ** (g + 1) and -(-k // g) == groups
    vac = good.index(KacLabel(1, 1))
    rng = np.random.default_rng(9027)
    groups = set()
    for _ in range(10):
        triple = tuple(int(x) for x in rng.choice([i for i in range(k) if i != vac], 3))
        bad = _symmetric_flip(good, triple)
        report = _ring_report_as_reference(bad, monkeypatch)
        assert not report.passed, triple
        groups.add(_first_associativity_mismatch(bad)[3] // g)
        cell = tuple(int(x) for x in rng.integers(0, k, 3))
        assert not _ring_report_as_reference(_flipped(good, cell), monkeypatch).passed, cell
    assert max(groups) >= 1


def test_ring_check_on_the_saturated_table(monkeypatch):
    # Every multiplicity 1, so every entry of both sides is k = B - 1, the
    # largest digit, and a packed group nearly reaches 2^53: associativity
    # holds.  Flipping the triple (11, 11, 22) breaks it.  d = 11 and 22
    # would be a group's lowest digit with 11 digits a group, one too
    # many, where float64 rounding above 2^53 would lose a difference of 1.
    model = MinimalModel(9, 10)
    labels = fusion_table(model).labels
    k = len(labels)
    ones = FusionTable(model, labels, np.ones((k, k, k), dtype=np.int8))
    report = _ring_report_as_reference(ones, monkeypatch)
    assert report.failures == ("vacuum row is not the identity pattern",)
    bad = _symmetric_flip(ones, (11, 11, 22))
    report = _ring_report_as_reference(bad, monkeypatch)
    assert report.failures[-1] == f"associativity fails for a={labels[0]}, b={labels[0]}"


def test_ring_check_keeps_a_difference_that_base_k_would_carry(monkeypatch):
    # k = 3, M = 1: at (a, b, c) = (0, 0, 2) the sides differ by (0, 3, -1)
    # along d, which packs to 3 * 3 - 9 = 0 in base k M^2 = 3, and to
    # 3 * 4 - 16 != 0 in base B = 4; no other entry of the pair differs
    t = np.array(
        [
            [[1, 1, 1], [1, 0, 1], [0, 1, 0]],
            [[1, 1, 1], [0, 1, 0], [1, 1, 0]],
            [[0, 0, 0], [0, 1, 0], [0, 1, 0]],
        ],
        dtype=np.int8,
    )
    bad = FusionTable(M34, fusion_table(M34).labels, t)
    ti = t.astype(int)
    lhs = np.einsum("e,ecd->cd", ti[0, 0], ti)
    rhs = ti[0] @ ti[0]
    assert (lhs - rhs).tolist() == [[0, 0, 0], [0, 0, 0], [0, 3, -1]]
    report = _ring_report_as_reference(bad, monkeypatch)
    label = bad.labels[0]
    assert report.failures[-1] == f"associativity fails for a={label}, b={label}"


def test_ring_check_never_holds_a_k4_array():
    # one (k, k, k, k) float32 array at k = 36 would be 6.7 MB
    model = MinimalModel(7, 13)
    assert len(fusion_table(model).labels) == 36
    verify_ring_axioms(model)
    tracemalloc.start()
    try:
        verify_ring_axioms(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def _no_scan(*args):
    raise AssertionError("the associativity scan ran")


def _ring_failures_with_scan_count(monkeypatch) -> list:
    """Patch the associativity scan to record each call; the list it
    returns fills as the scan runs."""
    calls = []
    scan = fusion._associativity_scan

    def counted(ft, *args):
        calls.append(ft)
        return scan(ft, *args)

    monkeypatch.setattr(fusion, "_associativity_scan", counted)
    return calls


def test_ladder_reaches_every_label_and_the_generators_certify_every_table(monkeypatch):
    monkeypatch.setattr(fusion, "_associativity_scan", _no_scan)
    models = _coprime_models(13)
    assert len(models) == 45
    for model in models:
        ft = fusion_table.__wrapped__(model)
        rungs, rho = fusion._ladder(ft)
        vac = ft.index(KacLabel(1, 1))
        assert sorted(rungs[:, 2]) == [c for c in range(len(ft.labels)) if c != vac], model
        p, q = model.p, model.q
        assert rho.tolist() == [min(a.m + a.n, p + q - a.m - a.n) for a in ft.labels]
        for g, b, c in rungs:
            assert ft.labels[g] in (KacLabel(1, 2), KacLabel(2, 1))
            assert ft.table[g, b, c] == 1 and rho[b] < rho[c]
        monkeypatch.setattr(fusion, "fusion_table", lambda m: ft)
        assert verify_ring_axioms(model).failures == (), model


def test_ring_check_matches_reference_on_random_symmetric_flips(monkeypatch):
    # one to three triples flipped in all slot orders, the vacuum row kept:
    # the table stays a unital commutative candidate, so the generators
    # decide whether the scan runs, and the report must not depend on it
    calls = _ring_failures_with_scan_count(monkeypatch)
    rng = np.random.default_rng(3607)
    outcomes = set()
    for model in _coprime_models(9):
        good = fusion_table(model)
        others = [i for i in range(len(good.labels)) if i != good.index(KacLabel(1, 1))]
        for _ in range(4 if others else 0):
            triples = rng.choice(others, (rng.integers(1, 4), 3))
            bad = _flipped(good, *{cell for t in triples for cell in permutations(t.tolist())})
            scanned = len(calls)
            report = _ring_report_as_reference(bad, monkeypatch)
            outcomes.add((len(calls) > scanned, report.passed))
    # some flips keep the ring associative, and the generators certify them
    assert outcomes == {(False, True), (True, False)}


def test_relabelled_associative_table_takes_the_scan_and_passes(monkeypatch):
    # the non-vacuum labels of (5,6) rotated by one: an isomorphic ring,
    # so associative, whose labels no longer climb the Kac ladder
    good = fusion_table(MinimalModel(5, 6))
    k = len(good.labels)
    assert good.index(KacLabel(1, 1)) == 0
    perm = [0, *range(2, k), 1]
    bad = FusionTable(good.model, good.labels, good.table[np.ix_(perm, perm, perm)])
    # (ii) rejects it: the packed rows, which only (i) reads, are not needed
    assert not fusion._generated_associatively(bad, bad.table.astype(np.float64), None)
    calls = _ring_failures_with_scan_count(monkeypatch)
    assert _ring_report_as_reference(bad, monkeypatch).failures == ()
    assert calls == [bad]
