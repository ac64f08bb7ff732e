import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_oracles import (
    RowSpace,
    eager_ff_echelon,
    fraction_nullspace,
    rank,
    rowspace_contains,
    rowspace_dim,
)
from virmin import linalg, verma
from virmin.linalg import det, ff_echelon, nullspace
from virmin.models import KacLabel, MinimalModel

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


def cofactor_det(m):
    if len(m) == 1:
        return m[0][0]
    total = F(0)
    for j in range(len(m)):
        minor = [r[:j] + r[j + 1:] for r in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor_det(minor)
    return total


@given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3))
@settings(max_examples=60)
def test_det_matches_cofactor_expansion(rows):
    assert det([row[:] for row in rows]) == cofactor_det(rows)


@st.composite
def structured_matrices(draw):
    """Square matrices with zero rows, rows with a common factor and rows
    combined from earlier ones (rank deficits), or their transposes."""
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n))
    for i in range(n):
        kind = draw(st.sampled_from(("keep", "factor", "zero", "combination")))
        if kind == "factor":
            k = draw(st.sampled_from((2, 6, -12, F(10, 3), F(-7, 4))))
            rows[i] = [k * x for x in rows[i]]
        elif kind == "zero":
            rows[i] = [F(0)] * n
        elif kind == "combination" and i > 0:
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            a, b = draw(rationals), draw(rationals)
            rows[i] = [a * x + b * y for x, y in zip(rows[j], rows[k])]
    if draw(st.booleans()):
        rows = [list(col) for col in zip(*rows)]
    return rows


@given(structured_matrices())
@settings(max_examples=100)
def test_det_matches_cofactor_expansion_on_structured_matrices(rows):
    before = [row[:] for row in rows]
    assert det(rows) == cofactor_det(rows)
    assert rows == before  # the argument is left as it was


def test_det_of_degenerate_matrices():
    assert det([[F(0), F(0)], [F(1), F(2)]]) == 0
    assert det([[F(1), F(0)], [F(2), F(0)]]) == 0
    assert det([[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(5)]]) == 0
    assert det([[F(6), F(4)], [F(9, 2), F(3, 5)]]) == F(6 * 3, 5) - 18
    assert det([[F(0), F(0), F(1)], [F(0), F(2), F(0)], [F(3), F(0), F(0)]]) == -6


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


def test_ff_echelon_can_stop_at_the_first_column_without_pivot():
    m = [[0, 1, 2], [0, 2, 5], [0, 3, 1]]
    assert ff_echelon(m)[1] == [1, 2]
    ech, pivots, sign = ff_echelon(m, stop_at_gap=True)
    assert pivots == [] and ech == m and sign == 1


def sparse_matrix(rng, n_rows, n_cols):
    """A seeded integer matrix, at least half of its entries 0, with a
    zero row, and with 0 in the top left corner above a nonzero entry,
    so that the first pivot needs a row swap."""
    m = [[0] * n_cols for _ in range(n_rows)]
    for cell in rng.sample(range(n_rows * n_cols), n_rows * n_cols * 2 // 5):
        m[cell // n_cols][cell % n_cols] = rng.choice((-9, -4, -2, -1, 1, 2, 3, 6, 8))
    m[rng.randrange(n_rows)] = [0] * n_cols
    if n_rows > 1:
        m[0][0] = 0
        m[rng.randrange(1, n_rows)][0] = rng.choice((-3, 2, 7))
    return m


@pytest.mark.parametrize("shape", ["wide", "tall", "square"])
def test_ff_echelon_equals_the_eager_elimination(shape):
    """The lazy rescale leaves echelon, pivots and sign as the
    elimination that rescales every row at every step gives them."""
    n_rows, n_cols = {"wide": (5, 9), "tall": (9, 5), "square": (7, 7)}[shape]
    rng = random.Random(f"echelon-{shape}")
    swaps = stopped = 0
    for _ in range(150):
        m = sparse_matrix(rng, n_rows, n_cols)
        assert sum(x == 0 for row in m for x in row) >= n_rows * n_cols / 2
        for stop_at_gap in (False, True):
            got = ff_echelon(m, stop_at_gap)
            assert got == eager_ff_echelon(m, stop_at_gap), (m, stop_at_gap)
            swaps += got[2] == -1
            stopped += stop_at_gap and len(got[1]) < len(eager_ff_echelon(m)[1])
    assert swaps and stopped


def test_ff_echelon_equals_the_eager_elimination_on_the_singular_vector_matrices(
    monkeypatch,
):
    """The L(1)/L(2) matrices the singular vectors of the exact-algebra
    benchmark labels are extracted from, through level 10."""
    matrices = []

    def recording(matrix):
        matrices.append([row[:] for row in matrix])
        return nullspace(matrix)

    monkeypatch.setattr(verma, "nullspace", recording)
    for p in (4, 5, 6):
        for m, n in ((2, 2), (2, 3), (3, 2)):
            verma.singular_vectors(MinimalModel(p, p + 1), KacLabel(m, n), 10)
    assert len(matrices) == 14
    for m in matrices:
        for stop_at_gap in (False, True):
            assert ff_echelon(m, stop_at_gap) == eager_ff_echelon(m, stop_at_gap)


def test_rowspace():
    rs = RowSpace()
    assert rs.add([F(1), F(2), F(0)])
    assert not rs.add([F(2), F(4), F(0)])
    assert rs.add([F(0), F(0), F(3)])
    assert rowspace_dim(rs) == 2
    assert rowspace_contains(rs, [F(5), F(10), F(21)])
    assert not rowspace_contains(rs, [F(0), F(1), F(0)])


@given(
    st.lists(st.lists(rationals, min_size=4, max_size=4), min_size=2, max_size=4)
)
@settings(max_examples=40)
def test_nullspace_property(rows):
    basis = nullspace([r[:] for r in rows])
    assert len(basis) == 4 - rank([r[:] for r in rows])
    for v in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0


@given(
    st.lists(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=5, max_size=5),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=60)
def test_nullspace_of_an_int_matrix_equals_that_of_its_fractions(rows):
    """Integer rows go to the elimination as they are and give the
    kernel of the same matrix written in Fractions."""
    as_fractions = [[F(x) for x in row] for row in rows]
    got = nullspace(rows)
    assert got == nullspace(as_fractions)
    assert all(type(x) is F for v in got for x in v)
    assert len(got) == len(rows[0]) - rank(as_fractions)


def test_integer_rows_skip_the_denominator_clearing(monkeypatch):
    def no_clearing(*rows):
        raise AssertionError("integer rows were cleared of denominators")

    monkeypatch.setattr(linalg, "integer_form", no_clearing)
    m = [[1, 2, 3], [2, 4, 6]]
    assert nullspace(m) == [[F(-2), F(1), F(0)], [F(-3), F(0), F(1)]]


P = 2**31 - 1


@pytest.mark.parametrize(
    "m, want_rank, want_kernel",
    [
        ([[P, 0], [0, 1]], 2, []),
        ([[1, 1], [1, 1 + P]], 2, []),
        ([[2 * P, 0, 0], [0, 0, 1]], 2, [[F(0), F(1), F(0)]]),
        ([[P, 0], [0, P], [P, P]], 2, []),
    ],
)
def test_rank_and_kernel_are_exact_where_the_prime_is_unlucky(m, want_rank, want_kernel):
    """Full rank over Q, rank-deficient modulo the prime P = 2^31 - 1:
    the elimination over Z gives the exact rank and kernel."""
    assert rank(m) == len(ff_echelon(m)[1]) == want_rank
    assert nullspace(m) == want_kernel


def seeded_matrix(rng, n_rows, n_cols, rank_at_most, fractions):
    """An n_rows x n_cols product of integer factors of inner size
    rank_at_most, so of at most that rank, with a zero row now and then;
    with fractions each row is scaled by its own rational, or its entries
    get denominators of their own."""
    left = [[rng.randint(-4, 4) for _ in range(rank_at_most)] for _ in range(n_rows)]
    right = [[rng.randint(-5, 5) for _ in range(n_cols)] for _ in range(rank_at_most)]
    m = [[sum(a * b[j] for a, b in zip(row, right)) for j in range(n_cols)] for row in left]
    if rng.random() < 0.3:
        m[rng.randrange(n_rows)] = [0] * n_cols
    if fractions and rng.random() < 0.5:
        m = [[F(x, rng.randint(1, 6)) for x in row] for row in m]
    elif fractions:
        m = [[x * F(rng.choice((-7, -3, 1, 2, 5)), rng.randint(1, 9)) for x in row] for row in m]
    return m


SHAPES = {"wide": (3, 7), "tall": (7, 3), "square": (5, 5), "row": (1, 4), "column": (4, 1)}


@pytest.mark.parametrize("fractions", [False, True], ids=["int", "Fraction"])
@pytest.mark.parametrize("shape", SHAPES)
def test_nullspace_matches_the_fraction_back_substitution(shape, fractions):
    """Seeded matrices of every rank from 0 to full: the integer
    back-substitution gives the oracle's kernel, entry for entry."""
    n_rows, n_cols = SHAPES[shape]
    rng = random.Random(f"{shape}-{fractions}")
    negative_pivot = False
    for rank_at_most in range(min(n_rows, n_cols) + 1):
        for _ in range(12):
            m = seeded_matrix(rng, n_rows, n_cols, rank_at_most, fractions)
            want = fraction_nullspace([row[:] for row in m])
            got = nullspace(m)
            assert got == want
            assert all(type(x) is F for v in got for x in v)
            assert len(got) == n_cols - rank(m)
            ech, pivots, _ = ff_echelon(linalg._integer_rows(m))
            negative_pivot |= any(ech[i][p] < 0 for i, p in enumerate(pivots))
    assert negative_pivot


@pytest.mark.parametrize(
    "m",
    [
        [[-3, 1, 2], [0, 0, 0]],  # a negative pivot and a zero row
        [[0, 0, 0], [0, 0, 0]],  # every column free
        [[2, -4, 0, 6], [0, 0, -9, 3], [0, 0, 0, 0]],  # pivots that do not divide the sums
        [[F(1, 3), F(-2, 5)], [F(7), F(1, 2)]],  # full rank
        [[1, 2], [3, 4], [5, 6], [7, 9]],  # tall, full column rank
        [[6, 10, 15, 0, -1]],  # wide, one row
    ],
)
def test_nullspace_equals_the_oracle_on_edge_cases(m):
    assert nullspace(m) == fraction_nullspace(m)


def test_nullspace_of_a_matrix_without_rows_is_an_error():
    """The width is read from the rows, so no rows give no width."""
    with pytest.raises(ValueError, match="at least one row"):
        nullspace([])


def test_nullspace_rejects_ragged_rows():
    for m in ([[1, 2, 3], [4, 5]], [[1, 2], [3, 4, 5]]):
        with pytest.raises(ValueError, match="equal length"):
            nullspace(m)
