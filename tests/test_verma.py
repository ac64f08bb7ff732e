import hashlib
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from virmin import linalg, verma
from virmin.bpz import CorrelatorSpec, reduced_ode
from virmin.cache import GramCache
from virmin.cli import main
from virmin.errors import ModelViolationError, RangeError
from exact_oracles import (
    apply_lowering,
    fraction_nullspace,
    gauss_det,
    rank,
    reference_pbw_basis,
    reference_raise_monomial,
    reference_singular_vectors,
)
from virmin.linalg import det
from virmin.models import KacLabel, MinimalModel, central_charge, conformal_weight, kac_table
from virmin.serialize import frac_str
from virmin.verma import (
    PBWVector,
    VermaParams,
    apply_raising,
    gram_matrix,
    kac_determinant,
    pbw_basis,
    _singular_space,
    singular_vectors,
    verify_singular,
)

F = Fraction
rationals = st.fractions(min_value=-4, max_value=4, max_denominator=8)

M56 = MinimalModel(5, 6)
ORACLE_POINTS = [
    VermaParams(F(7, 3), F(-2, 5)),  # generic
    VermaParams(F(0), F(0)),
    VermaParams(central_charge(M56), conformal_weight(M56, KacLabel(2, 2))),  # null at 4
]


def adjoint_composition_gram(params, level):
    """Reference Gram entries: apply the raising modes of row partition i,
    first part first, to basis vector j and read off the |h> coefficient."""
    basis = pbw_basis(level)
    rows = []
    for parts_i in basis:
        row = []
        for parts_j in basis:
            v = PBWVector(level, {parts_j: F(1)})
            for m in parts_i:
                v = apply_raising(params, m, v)
            row.append(v.coefficients.get((), F(0)))
        rows.append(tuple(row))
    return tuple(rows)


def apply_raising_singular_space(params, level):
    """Reference kernel of L(1) and L(2) at `level`, from apply_raising and
    the Fraction back-substitution."""
    basis = pbw_basis(level)
    rows = []
    for m in (1, 2):
        if m > level:
            continue
        images = [apply_raising(params, m, PBWVector(level, {b: F(1)})) for b in basis]
        for t in pbw_basis(level - m):
            rows.append([img.coefficients.get(t, F(0)) for img in images])
    kernel = fraction_nullspace(rows, n_cols=len(basis))
    return [PBWVector(level, dict(zip(basis, vec))) for vec in kernel]


def test_pbw_basis():
    assert pbw_basis(0) == ((),)
    assert pbw_basis(2) == ((2,), (1, 1))
    assert pbw_basis(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert len(pbw_basis(5)) == 7
    with pytest.raises(RangeError):
        pbw_basis(-1)


@pytest.mark.parametrize("parts", [(1, 2), (3, 0), (4, -1)])
def test_pbw_vector_rejects_keys_that_are_not_partitions(parts):
    """Each key has level 3 but is not a partition, which the serializers
    would drop; the vector refuses it."""
    with pytest.raises(RangeError):
        PBWVector(3, {parts: F(1)})
    assert PBWVector(3, {(2, 1): F(1), (1, 1, 1): F(0)}).coefficients == {(2, 1): F(1)}
    assert PBWVector(0, {(): F(2)}).coefficients == {(): F(2)}


def test_pbw_basis_equals_the_partition_generator():
    for level in range(16):
        assert pbw_basis(level) == reference_pbw_basis(level), level


def test_raising_tables_equal_the_full_recursion():
    """Tuple-equal L(m) tables, terms in the same order, for every
    monomial of every level through 11 and every mode up to one above
    the level (where both are empty)."""
    for level in range(1, 12):
        for m in range(1, level + 2):
            for parts in pbw_basis(level):
                assert verma._raise_monomial(m, parts) == reference_raise_monomial(m, parts)


def test_apply_raising_examples():
    p = VermaParams(F(1, 2), F(3, 7))
    v1 = PBWVector(1, {(1,): F(1)})
    out = apply_raising(p, 1, v1)
    assert out.coefficients == {(): 2 * p.h}
    v2 = PBWVector(2, {(2,): F(1)})
    out = apply_raising(p, 2, v2)
    assert out.coefficients == {(): 4 * p.h + p.c / 2}
    assert apply_raising(p, 3, v1).is_zero()


@given(c=rationals, h=rationals)
@settings(max_examples=25)
def test_raising_commutator_consistency(c, h):
    # [L(1), L(2)] = -L(3) as operators on any level-4 vector
    p = VermaParams(c, h)
    for parts in pbw_basis(4):
        v = PBWVector(4, {parts: F(1)})
        lhs1 = apply_raising(p, 1, apply_raising(p, 2, v))
        lhs2 = apply_raising(p, 2, apply_raising(p, 1, v))
        rhs = apply_raising(p, 3, v)
        diff = {
            key: lhs1.coefficients.get(key, F(0)) - lhs2.coefficients.get(key, F(0))
            for key in set(lhs1.coefficients) | set(lhs2.coefficients)
        }
        assert {k: val for k, val in diff.items() if val} == {
            k: -val for k, val in rhs.coefficients.items() if val
        }


def test_lowering_normal_orders():
    v = PBWVector(2, {(2,): F(1)})
    out = apply_lowering(1, v)
    # L(-1) L(-2) = L(-2) L(-1) + [L(-1), L(-2)] = L(-2)L(-1) + L(-3)
    assert out.coefficients == {(2, 1): F(1), (3,): F(1)}


def test_gram_small_levels():
    p = VermaParams(F(1, 2), F(1, 2))
    assert gram_matrix(p, 0).entries == ((F(1),),)
    assert gram_matrix(p, 1).entries == ((2 * p.h,),)
    g2 = gram_matrix(p, 2)
    assert g2.basis == ((2,), (1, 1))
    assert g2.entries == ((F(9, 4), F(3)), (F(3), F(4)))


@given(c=rationals, h=rationals)
@settings(max_examples=20)
def test_gram_level2_closed_form(c, h):
    g = gram_matrix(VermaParams(c, h), 2)
    assert g.entries == (
        (4 * h + c / 2, 6 * h),
        (6 * h, 8 * h * h + 4 * h),
    )


@given(c=rationals, h=rationals)
@settings(max_examples=10, deadline=None)
def test_gram_symmetric(c, h):
    # gram_matrix mirrors its upper triangle, so its symmetry is checked
    # through the oracle, whose entries are each composed on their own
    params = VermaParams(c, h)
    for level in range(1, 5):
        want = adjoint_composition_gram(params, level)
        assert want == tuple(zip(*want))
        assert gram_matrix(params, level).entries == want


@pytest.mark.parametrize("params", ORACLE_POINTS)
def test_gram_recursion_matches_adjoint_composition(params):
    for level in range(9):
        got = gram_matrix(params, level)
        assert got.basis == pbw_basis(level)
        assert got.entries == adjoint_composition_gram(params, level)
        assert all(type(x) is F for row in got.entries for x in row)


@pytest.mark.parametrize("params", ORACLE_POINTS)
def test_singular_space_matches_apply_raising(params):
    for level in range(1, 7):
        assert _singular_space(params, level) == apply_raising_singular_space(params, level)


def test_gram_symmetric_deep():
    params = VermaParams(F(7, 3), F(-2, 5))
    want = adjoint_composition_gram(params, 8)
    assert len(want) == 22
    assert want == tuple(zip(*want))
    assert gram_matrix(params, 8).entries == want


def test_kac_determinant_examples():
    assert kac_determinant(VermaParams(F(1, 2), F(1, 2)), 2) == 0
    for level in range(1, 5):
        assert kac_determinant(VermaParams(F(1, 2), F(1, 3)), level) != 0
    assert kac_determinant(VermaParams(F(5), F(7)), 0) == 1


def test_kac_determinant_parametrized_zero():
    # c = 13 - 6t - 6/t, h_{1,2} = (3 - t - 2/t)/4-type zero: at t = 3,
    # (c, h) = (-7, -1/4) lies on the level-2 vanishing curve.
    assert kac_determinant(VermaParams(F(-7), F(-1, 4)), 2) == 0


def test_kac_determinant_vanishes_at_null_levels():
    from math import gcd

    for p in range(2, 6):
        for q in range(p + 1, 6):
            if gcd(p, q) != 1:
                continue
            model = MinimalModel(p, q)
            c = central_charge(model)
            for m in range(1, p):
                for n in range(1, q):
                    if m * n > 8:
                        continue
                    params = VermaParams(c, conformal_weight(model, KacLabel(m, n)))
                    assert kac_determinant(params, m * n) == 0


def _partition_counts(n: int) -> list[int]:
    """P(0), ..., P(n) by the coin-change recursion over part sizes."""
    counts = [1] + [0] * n
    for part in range(1, n + 1):
        for k in range(part, n + 1):
            counts[k] += counts[k - part]
    return counts


def _kac_product(t: Fraction, h: Fraction, level: int, shifted=None) -> Fraction:
    """The Kac product formula at c = 13 - 6(t + 1/t):
    K_N prod_{rs <= N} (h - h_{r,s})^P(N - rs), with
    K_N = prod_{rs <= N} ((2r)^s s!)^(P(N - rs) - P(N - r(s+1))).
    `shifted` = (r, s) moves that one h_{r,s} up by 1."""
    P = _partition_counts(level)

    def p(n):
        return P[n] if n >= 0 else 0

    out = F(1)
    for r in range(1, level + 1):
        for s in range(1, level // r + 1):
            h_rs = ((r * r - 1) * t + (s * s - 1) / t) / 4 - F(r * s - 1, 2)
            if (r, s) == shifted:
                h_rs += 1
            out *= F((2 * r) ** s * factorial(s)) ** (p(level - r * s) - p(level - r * (s + 1)))
            out *= (h - h_rs) ** p(level - r * s)
    return out


@pytest.mark.parametrize("t", [F(7, 3), F(-2, 5), F(11, 4)])
def test_kac_determinant_matches_the_product_formula(t):
    """kac_determinant against the Kac product formula, exactly, at three
    weights per central charge (one of them h_{1,2}, where both sides
    vanish from level 2 on) and levels 1-8; the formula with one h_{r,s}
    moved fails at the generic weights."""
    c = 13 - 6 * (t + 1 / t)
    h12 = (3 / t) / 4 - F(1, 2)
    for h in (F(1, 3), F(-5, 7), h12):
        for level in range(1, 9):
            det = kac_determinant(VermaParams(c, h), level)
            assert det == _kac_product(t, h, level), (h, level)
            assert (det == 0) == (h == h12 and level >= 2)
            if h != h12 and level >= 2:
                assert det != _kac_product(t, h, level, shifted=(1, 2))


@dataclass(frozen=True)
class Quadratic:
    """x + y sqrt(d) with rational x, y and a fixed non-square rational d:
    just the arithmetic _kac_product does, so the oracle runs at an
    irrational t."""

    x: Fraction
    y: Fraction
    d: Fraction

    def _lift(self, other):
        if isinstance(other, Quadratic):
            return other
        return Quadratic(F(other), F(0), self.d)

    def __add__(self, other):
        other = self._lift(other)
        return Quadratic(self.x + other.x, self.y + other.y, self.d)

    def __neg__(self):
        return Quadratic(-self.x, -self.y, self.d)

    def __sub__(self, other):
        return self + -self._lift(other)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        o = self._lift(other)
        return Quadratic(self.x * o.x + self.d * self.y * o.y, self.x * o.y + self.y * o.x, self.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        norm = o.x * o.x - self.d * o.y * o.y
        return self * Quadratic(o.x / norm, -o.y / norm, self.d)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __pow__(self, n: int):
        out = self._lift(1)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        o = self._lift(other)
        return (self.x, self.y) == (o.x, o.y)


@pytest.mark.parametrize("c", [F(1, 3), F(-7, 2)])
def test_kac_determinant_matches_bareiss_at_an_irrational_t(c):
    """At c = 1/3 and -7/2, t + 1/t = (13 - c)/6 has irrational roots
    t = (u + sqrt(u^2 - 4))/2.  Through level 8, kac_determinant equals
    the Bareiss determinant of the Gram matrix and the t-parametrised
    oracle evaluated in Q(sqrt(u^2 - 4)), at two generic weights and at
    the rational h_{2,2} = 3(u - 2)/4, where all three vanish from level
    4 on.  The oracle with h_{1,2} moved by 1 differs from Bareiss."""
    u = (13 - c) / 6
    t = Quadratic(u / 2, F(1, 2), u * u - 4)
    assert t + 1 / t == u and t.y != 0
    h22 = 3 * (u - 2) / 4
    for h in (F(1, 3), F(-5, 7), h22):
        for level in range(9):
            params = VermaParams(c, h)
            bareiss = det([list(row) for row in gram_matrix(params, level).entries])
            assert kac_determinant(params, level) == bareiss, (h, level)
            assert _kac_product(t, h, level) == bareiss, (h, level)
            assert (bareiss == 0) == (h == h22 and level >= 4)
            if level >= 2 and bareiss != 0:
                assert _kac_product(t, h, level, shifted=(1, 2)) != bareiss


def test_kac_determinant_eliminates_nothing_and_builds_no_gram(monkeypatch):
    """Without a cache the determinant is the product formula alone."""

    def refuse(*args):
        raise AssertionError("the determinant path built or eliminated a Gram matrix")

    monkeypatch.setattr(linalg, "det", refuse)
    monkeypatch.setattr(verma, "_gram_entries", refuse)
    model = MinimalModel(5, 6)
    c, h = central_charge(model), conformal_weight(model, KacLabel(2, 2))
    assert kac_determinant(VermaParams(c, h), 11) == 0
    assert kac_determinant(VermaParams(c, h + F(1, 3)), 11) != 0
    with pytest.raises(RangeError):
        kac_determinant(VermaParams(c, h), -1)


# sha256 prefixes of "n/d" of the level-11 determinants at
# h = h_(2,2) + 1/(4 p q 101) in M(p, p+1), as the unoptimised
# elimination (row-scaled Bareiss over every column) computed them
LEVEL11_OFF_TABLE = {
    4: "782cc1ae937303dcbe73856c05fcff85",
    5: "8aada87692dae5b59eb25061ca7145ee",
    6: "dd630c0c2a72bd73a0a9736a971f7f4c",
}


@pytest.mark.parametrize("p", sorted(LEVEL11_OFF_TABLE))
def test_level11_kac_determinants_are_pinned(p):
    model = MinimalModel(p, p + 1)
    c, h = central_charge(model), conformal_weight(model, KacLabel(2, 2))
    assert kac_determinant(VermaParams(c, h), 11) == 0
    off = VermaParams(c, h + F(1, 4 * p * (p + 1) * 101))
    value = kac_determinant(off, 11)
    assert hashlib.sha256(frac_str(value).encode()).hexdigest()[:32] == LEVEL11_OFF_TABLE[p]
    if p == 4:  # one independent check by Gaussian elimination in Fractions
        assert value == gauss_det(gram_matrix(off, 11).entries)


def test_singular_vectors_ising_eps():
    model = MinimalModel(3, 4)
    found = singular_vectors(model, KacLabel(2, 1), 4)
    assert [lev for lev, _ in found] == [2, 3]
    lev2 = found[0][1]
    assert lev2 == PBWVector(2, {(2,): F(1), (1, 1): F(-3, 4)})
    params = VermaParams(F(1, 2), F(1, 2))
    for _, vec in found:
        assert verify_singular(params, vec)


def test_singular_vectors_vacuum():
    found = singular_vectors(MinimalModel(3, 4), KacLabel(1, 1), 1)
    assert found == [(1, PBWVector(1, {(1,): F(1)}))]


def test_singular_vectors_25():
    model = MinimalModel(2, 5)
    found = singular_vectors(model, KacLabel(1, 2), 4)
    assert found[0][0] == 2
    assert found[0][1] == PBWVector(2, {(2,): F(1), (1, 1): F(-5, 2)})
    params = VermaParams(central_charge(model), F(-1, 5))
    assert all(verify_singular(params, v) for _, v in found)


def test_singular_vectors_second_primitive_at_reflected_level():
    # sigma = (1,2) in (3,4): orbit nulls at 2 and (3-1)(4-2) = 4
    model = MinimalModel(3, 4)
    found = singular_vectors(model, KacLabel(1, 2), 4)
    assert [lev for lev, _ in found] == [2, 4]
    params = VermaParams(F(1, 2), F(1, 16))
    assert all(verify_singular(params, v) for _, v in found)
    # level-4 Gram rank matches: p(2) descendants + 1 new primitive
    g4 = gram_matrix(params, 4)
    assert rank([list(r) for r in g4.entries]) == len(g4.basis) - 3


def test_singular_vector_gram_orthogonality():
    model = MinimalModel(3, 4)
    params = VermaParams(F(1, 2), F(1, 2))
    for level, vec in singular_vectors(model, KacLabel(2, 1), 3):
        g = gram_matrix(params, level)
        coords = [vec.coefficients.get(p, F(0)) for p in g.basis]
        for row in g.entries:
            assert sum(a * b for a, b in zip(row, coords)) == 0


def test_generic_weight_has_no_singular_vectors():
    from virmin.verma import _singular_space

    # h = 1/3 is not degenerate at c = 1/2 through level 4
    params = VermaParams(F(1, 2), F(1, 3))
    for level in range(1, 5):
        assert kac_determinant(params, level) != 0
        assert _singular_space(params, level) == []
    for h in (F(2, 7), F(-3, 11)):
        generic = VermaParams(F(1, 2), h)
        for level in range(1, 5):
            assert _singular_space(generic, level) == []
    # and the search over a genuine model label stops at max_level < null level
    assert singular_vectors(MinimalModel(3, 4), KacLabel(2, 1), 1) == []


def test_verify_singular_negative():
    params = VermaParams(F(1, 2), F(1, 2))
    assert not verify_singular(params, PBWVector(2, {(2,): F(1)}))
    assert verify_singular(VermaParams(F(3), F(0)), PBWVector(1, {(1,): F(1)}))


def test_gram_cache_roundtrip(tmp_path):
    cache = GramCache(tmp_path)
    params = VermaParams(F(1, 2), F(1, 16))
    g = gram_matrix(params, 3)
    cache.store(g)
    assert cache.load(params, 3) == g
    assert list(tmp_path.glob("gram-*.json"))


def test_gram_cache_stores_only_the_requested_level(tmp_path):
    cache = GramCache(tmp_path)
    params = VermaParams(F(7, 3), F(-2, 5))
    kac_determinant(params, 6, cache)
    assert len(list(tmp_path.glob("gram-*.json"))) == 1
    assert cache.load(params, 6) == gram_matrix(params, 6)
    assert cache.load(params, 5) is None


def test_singular_vectors_match_the_rowspace_filter():
    """The two Feigin-Fuchs levels hold the vectors the earlier
    Gauss-Jordan RowSpace filter over every level keeps, for every label
    of coprime p < q <= 7 and for (2,2), (2,3), (3,2) of M(p, p+1),
    p = 4-6, through level 10.  Level 10 reaches the labels whose
    singular space is nonempty above both primitive levels, such as
    (2,3)(1,1) at 5 and 7 and (3,7)(2,1) at 10."""
    cases = [
        (MinimalModel(p, q), label)
        for q in range(3, 8)
        for p in range(2, q)
        if gcd(p, q) == 1
        for label, _ in kac_table(MinimalModel(p, q))
    ]
    cases += [
        (MinimalModel(p, p + 1), KacLabel(m, n))
        for p in (4, 5, 6)
        for m, n in ((2, 2), (2, 3), (3, 2))
    ]
    for model, label in cases:
        want = reference_singular_vectors(model, label, 10)
        assert singular_vectors(model, label, 10) == want, (model, label)


@pytest.mark.parametrize("count", [0, 2])
def test_a_primitive_level_without_exactly_one_singular_vector_is_a_model_violation(
    monkeypatch, capsys, count
):
    """A singular space of any other dimension at a primitive level
    contradicts Feigin-Fuchs: singular_vectors and reduced_ode raise, and
    `virmin bpz` exits 3."""
    monkeypatch.setattr(
        verma, "_singular_space",
        lambda params, level: [PBWVector(level, {(level,): F(1)})] * count,
    )
    with pytest.raises(ModelViolationError):
        singular_vectors(MinimalModel(3, 4), KacLabel(2, 1), 4)
    m34, sigma = MinimalModel(3, 4), KacLabel(1, 2)
    reduced_ode.cache_clear()  # a memoized ODE would skip the extraction
    try:
        with pytest.raises(ModelViolationError):
            reduced_ode(CorrelatorSpec(m34, sigma, sigma, sigma, sigma))
        assert main(["bpz", "3", "4", "--labels", "1,2", "1,2", "1,2", "1,2"]) == 3
        assert "singular vectors at level 2" in capsys.readouterr().err
    finally:
        reduced_ode.cache_clear()
