"""Fusion rules of the minimal models and the resulting fusion ring.

The single-model rule: N_{(m',n')(m'',n'')}^{(m,n)} = 1 iff the triple
satisfies the eight strict inequalities

    m < m' + m'',   m' < m'' + m,   m'' < m + m',   m + m' + m'' < 2p
    (same in n with bound 2q)

and both sums m+m'+m'', n+n'+n'' are odd; otherwise 0.  On each axis
that is an interval with a parity, |m' - m''| < m < min(m' + m'',
2p - m' - m''), the truncated su(2)_{p-2} tensor-product rule (and in n
that of su(2)_{q-2}), which is the form the code evaluates.  Each weight has
two Kac representatives, so we declare the rule to hold for an orbit
triple when it holds for at least one choice of representatives; this
makes it well defined on isomorphism classes (and is what the slot
symmetry and associativity checks below validate).  Reflecting two of
the three labels, (m, n) -> (p - m, q - n), maps the eight conditions
onto each other (the simple-current symmetry of su(2)_{p-2} x
su(2)_{q-2}), so the eight choices fall into two classes, represented
by (a, b, c) and (a, b, c reflected), and the rule tries those two.

Tensor-product models fuse factorwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .models import (
    KacLabel,
    MinimalModel,
    TensorLabel,
    TensorModel,
    canonicalize,
    check_label,
    check_tensor_label,
    kac_table,
)


def _triple_ok(p: int, q: int, a, b, c):
    """The rule for Kac pairs a, b and c = (m, n) at either of its two
    representatives, c or (p - m, q - n).

    On each axis, with bound P (p for m, q for n), the eight inequalities
    say that x_c lies in the open interval from |x_a - x_b| to
    min(x_a + x_b, 2P - x_a - x_b), and the parity that x_a + x_b + x_c
    is odd.  The bounds and parity of (a, b) are computed once for both
    representatives of c.  The entries may be ints or broadcastable
    integer arrays; the result is a bool or a boolean array of the
    broadcast shape.
    """
    (m1, n1), (m2, n2), (m3, n3) = a, b, c
    sm, sn = m1 + m2, n1 + n2
    # min(s, 2P - s) = P - |s - P|, which ints and arrays both spell alike
    lo_m, hi_m, odd_m = abs(m1 - m2), p - abs(sm - p), sm % 2
    lo_n, hi_n, odd_n = abs(n1 - n2), q - abs(sn - q), sn % 2
    return (
        (lo_m < m3) & (m3 < hi_m) & (m3 % 2 != odd_m)
        & (lo_n < n3) & (n3 < hi_n) & (n3 % 2 != odd_n)
    ) | (
        (lo_m < p - m3) & (p - m3 < hi_m) & ((p - m3) % 2 != odd_m)
        & (lo_n < q - n3) & (q - n3 < hi_n) & ((q - n3) % 2 != odd_n)
    )


def _rule(model: MinimalModel, a: KacLabel, b: KacLabel, c: KacLabel) -> int:
    """fusion_rule on labels already checked against the model."""
    return int(_triple_ok(model.p, model.q, (a.m, a.n), (b.m, b.n), (c.m, c.n)))


def fusion_rule(model: MinimalModel, a: KacLabel, b: KacLabel, c: KacLabel) -> int:
    """Multiplicity N_{ab}^c, either 0 or 1.

    Invariant under canonicalization and under permutations of the three
    slots (the minimal models are self-dual).
    """
    for lab in (a, b, c):
        check_label(model, lab)
    return _rule(model, a, b, c)


def fuse(model: MinimalModel, a: KacLabel, b: KacLabel) -> set[KacLabel]:
    """All canonical labels c with N_{ab}^c = 1."""
    table = fusion_table(model)
    a = canonicalize(model, a)
    b = canonicalize(model, b)
    return {c for c in table.labels if table.multiplicity(a, b, c) == 1}


def tensor_fusion_rule(
    tmodel: TensorModel, a: TensorLabel, b: TensorLabel, c: TensorLabel
) -> int:
    """Product of the per-factor multiplicities."""
    for tlab in (a, b, c):
        check_tensor_label(tmodel, tlab)
    result = 1
    for factor, la, lb, lc in zip(tmodel.factors, a.labels, b.labels, c.labels):
        result *= _rule(factor, la, lb, lc)
        if result == 0:
            break
    return result


@dataclass(frozen=True)
class FusionTable:
    """Dense multiplicity table over the canonical labels of one model."""

    model: MinimalModel
    labels: tuple[KacLabel, ...]
    table: np.ndarray  # shape (k, k, k), dtype int8; symmetric in all slots

    @cached_property
    def _positions(self) -> dict[tuple[int, int], int]:
        """Both Kac representatives (m, n) of every label, mapped to its
        index; built once."""
        p, q = self.model.p, self.model.q
        out = {}
        for i, lab in enumerate(self.labels):
            out[lab.m, lab.n] = out[p - lab.m, q - lab.n] = i
        return out

    def index(self, label: KacLabel) -> int:
        try:
            return self._positions[label.m, label.n]
        except KeyError:
            check_label(self.model, label)  # raises: every valid label is a key
            raise

    def multiplicity(self, a: KacLabel, b: KacLabel, c: KacLabel) -> int:
        return int(self.table[self.index(a), self.index(b), self.index(c)])


@lru_cache(maxsize=64)
def fusion_table(model: MinimalModel) -> FusionTable:
    """Compute (once per model) the full multiplicity table.

    The rule fusion_rule applies to one triple is evaluated on the whole
    (k, k, k) grid of ordered label triples: the interval bounds and
    parities are (k, k) arrays over the pairs (a, b), compared with the
    k labels c for each of their two representatives.
    """
    labels = tuple(lab for lab, _ in kac_table(model))
    m = np.array([lab.m for lab in labels], dtype=np.int16)
    n = np.array([lab.n for lab in labels], dtype=np.int16)
    table = _triple_ok(
        model.p, model.q, (m[:, None, None], n[:, None, None]),
        (m[None, :, None], n[None, :, None]), (m, n),
    )
    return FusionTable(model, labels, table.astype(np.int8))


@dataclass(frozen=True)
class RingReport:
    """Outcome of the fusion-ring consistency checks."""

    model: MinimalModel
    passed: bool
    failures: tuple[str, ...]


def verify_ring_axioms(model: MinimalModel) -> RingReport:
    """Check commutativity, unit law, slot symmetry and associativity.

    Failures are collected and reported, not raised.
    """
    failures = _ring_failures(fusion_table(model))
    return RingReport(model=model, passed=not failures, failures=failures)


def _ring_failures(ft: FusionTable) -> tuple[str, ...]:
    """The failures verify_ring_axioms reports for the table ft."""
    k = len(ft.labels)
    t = ft.table
    failures: list[str] = []

    vac = ft.labels.index(canonicalize(ft.model, KacLabel(1, 1)))
    if not np.array_equal(t[vac], np.eye(k, dtype=t.dtype)):
        failures.append("vacuum row is not the identity pattern")

    commutes = np.array_equal(t, t.transpose(1, 0, 2))
    if not commutes:
        failures.append("commutativity N_ab^c = N_ba^c fails")
    # (1, 0, 2) and (0, 2, 1) generate the slot permutations: where both
    # hold, (2, 1, 0) does, so it is compared only when commutativity
    # failed and (0, 2, 1) held
    if not np.array_equal(t, t.transpose(0, 2, 1)):
        failures.append("slot permutation (0, 2, 1) changes the multiplicity")
    elif not commutes and not np.array_equal(t, t.transpose(2, 1, 0)):
        failures.append("slot permutation (2, 1, 0) changes the multiplicity")

    # Associativity: sum_e N_ab^e N_ec^d = sum_x N_ac^x N_bx^d for all a,b,c,d,
    # with both sides packed along d: digit group j = d // g holds
    # sum_d side[d] B^(d mod g).  Multiplicities are nonnegative and at
    # most M, so every entry of either side is an integer in [0, B - 1]
    # for B = k M^2 + 1, and a group is an integer below B^g <= 2^53 that
    # determines its g entries.  Every product and partial sum is a
    # nonnegative integer no larger, which float64 holds exactly in any
    # summation order, so packed equality is exact equality.  With
    # W[e, j, c] = N_ec^d packed along d, the sides are
    # sum_e N_ab^e W[e, j, c] and sum_x W[b, j, x] N_ac^x: two products per
    # four rows a, both laid out [a, b, j, c].  That is k^4 ceil(k/g) work
    # in all, and no (k, k, k, k) array is built.
    base = k * max(int(t.max()), 1) ** 2 + 1
    g = 1
    while base ** (g + 1) <= 2**53:
        g += 1
    pack = np.zeros((k, -(-k // g)))
    for d in range(k):
        pack[d, d // g] = base ** (d % g)
    tf = t.astype(np.float64)
    w = np.ascontiguousarray((tf @ pack).transpose(0, 2, 1))
    w_e, w_bj = w.reshape(k, -1), w.reshape(-1, k)  # rows e; rows (b, j)
    for a0 in range(0, k, 4):
        rows = tf[a0 : a0 + 4]
        lhs = rows @ w_e
        rhs = (w_bj @ rows.transpose(0, 2, 1)).reshape(lhs.shape)
        bad = np.argwhere((lhs != rhs).any(axis=2))
        if bad.size:
            a, b = bad[0]
            failures.append(
                f"associativity fails for a={ft.labels[a0 + a]}, b={ft.labels[b]}"
            )
            break

    return tuple(failures)
