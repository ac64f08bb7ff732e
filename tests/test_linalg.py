from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_oracles import rank
from virmin.linalg import RowSpace, det, ff_echelon, nullspace

F = Fraction

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def test_det_small():
    assert det([[F(2)]]) == 2
    assert det([[F(1), F(2)], [F(3), F(4)]]) == -2
    assert det([[F(9, 4), F(3)], [F(3), F(4)]]) == 0
    assert det([]) == 1


def test_det_row_swap_case():
    m = [[F(0), F(1)], [F(1), F(0)]]
    assert det(m) == -1


@given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3))
@settings(max_examples=60)
def test_det_matches_cofactor_expansion(rows):
    def cof(m):
        if len(m) == 1:
            return m[0][0]
        total = F(0)
        for j in range(len(m)):
            minor = [r[:j] + r[j + 1:] for r in m[1:]]
            total += (-1) ** j * m[0][j] * cof(minor)
        return total

    assert det([row[:] for row in rows]) == cof(rows)


def test_nullspace_canonical():
    m = [[F(1), F(2), F(3)], [F(2), F(4), F(6)]]
    basis = nullspace(m)
    assert len(basis) == 2
    for v in basis:
        for row in m:
            assert sum(a * b for a, b in zip(row, v)) == 0
    # echelon-canonical kernel: unit entries in the free columns
    assert basis[0][1] == 1 and basis[0][2] == 0
    assert basis[1][1] == 0 and basis[1][2] == 1


def test_nullspace_full_rank():
    m = [[F(1), F(0)], [F(1), F(1)]]
    assert nullspace(m) == []


def test_rank():
    # the oracle rank and the pivot count of the fraction-free echelon form
    for m, want in (([[1, 2], [2, 4]], 1), ([[1, 0], [0, 1]], 2), ([], 0)):
        assert rank(m) == want
        assert len(ff_echelon(m)[1]) == want


def test_ff_echelon_stays_integer():
    m = [[6, 4, 2], [4, 2, 0], [2, 0, 1]]
    ech, pivots, sign = ff_echelon(m)
    assert all(isinstance(x, int) for row in ech for x in row)
    assert len(pivots) == 3


def test_rowspace():
    rs = RowSpace()
    assert rs.add([F(1), F(2), F(0)])
    assert not rs.add([F(2), F(4), F(0)])
    assert rs.add([F(0), F(0), F(3)])
    assert rs.dim == 2
    assert rs.contains([F(5), F(10), F(21)])
    assert not rs.contains([F(0), F(1), F(0)])


@given(
    st.lists(st.lists(rationals, min_size=4, max_size=4), min_size=2, max_size=4)
)
@settings(max_examples=40)
def test_nullspace_property(rows):
    basis = nullspace([r[:] for r in rows], n_cols=4)
    assert len(basis) == 4 - rank([r[:] for r in rows])
    for v in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0
