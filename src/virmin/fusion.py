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

The ring check certifies associativity from phi(1,2) and phi(2,1), which
generate the fusion algebra (Verlinde 1988; Di Francesco, Mathieu and
Senechal, ch. 16).  Lemma: a unital commutative table is associative
if (g.b).c = g.(b.c) for each generator g and all labels b, c, and if
every non-vacuum label c occurs in the product of a generator with a
label b of smaller r + s, next to labels of smaller r + s only: the
labels are then rational combinations of generator words applied to the
vacuum, and left multiplication is multiplicative along the words.  That
takes k^3 packed work per generator instead of k^4 over all pairs; a
table that fails any check is scanned pair by pair, so that its report
names the first failing pair.  The proof is in `_ring_failures`.

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
    ft = fusion_table(model)
    return {c for c, n in zip(ft.labels, ft.table[ft.index(a), ft.index(b)]) if n}


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
    """The failures verify_ring_axioms reports for the table ft.

    Associativity is the identity (a.b).c = b.(a.c) on every ordered
    label triple, for x.y = sum_z N_xy^z e_z.  A table that passes the
    vacuum and slot-symmetry checks is certified instead from its two
    generators, phi(1,2) and phi(2,1):

    (i)  (g.b).c = g.(b.c) for every generator g the ladder uses and all
         labels b, c;
    (ii) the ladder: every non-vacuum label c with representative (r, s)
         of smallest sum rho(c) = r + s is reached from b = (r, s - 1)
         by g = (1,2) when s >= 2, else from b = (r - 1, 1) by g = (2,1),
         with N_gb^c != 0 and rho(d) < rho(c) for every other d with
         N_gb^d != 0.

    Lemma: (i), (ii), the unit law and commutativity give associativity.
    rho(b) <= r + s - 1 < rho(c), so by induction on rho, (ii) makes
    every e_c a rational combination of iterated products
    g1.(g2.(... .e_vac)).  With L_x y = x.y, (i) is L_{g.x} = L_g L_x,
    and the unit law is L_{e_vac} = I; along the words,
    L_{a.b} = L_a L_b for all a and b, which is (a.b).c = a.(b.c), and
    with commutativity b.(a.c) = (b.a).c = (a.b).c.  Without
    commutativity that last step does not follow, so a table that fails
    any of the vacuum and symmetry checks, or (i) or (ii), goes through
    the full scan, which names the first failing pair (a, b).  With J
    packed digit groups, (i) takes 2 k^3 J work per generator and the
    scan 2 k^4 J.
    """
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

    # Both sides of every associativity identity are packed along d:
    # digit group j = d // g holds sum_d side[d] B^(d mod g).
    # Multiplicities are nonnegative and at most M, so every entry of
    # either side is an integer in [0, B - 1] for B = k M^2 + 1, and a
    # group is an integer below B^g <= 2^53 that determines its g entries.
    # Every product and partial sum is a nonnegative integer no larger,
    # which float64 holds exactly in any summation order, so packed
    # equality is exact equality.  w[e, c, j] = N_ec^d packed along d.
    base = k * max(int(t.max()), 1) ** 2 + 1
    g = 1
    while base ** (g + 1) <= 2**53:
        g += 1
    pack = np.zeros((k, -(-k // g)))
    for d in range(k):
        pack[d, d // g] = base ** (d % g)
    tf = t.astype(np.float64)
    w = tf @ pack
    if failures or not _generated_associatively(ft, tf, w):
        failures += _associativity_scan(ft, tf, w)
    return tuple(failures)


def _ladder(ft: FusionTable) -> tuple[np.ndarray, np.ndarray]:
    """The rungs (g, b, c) of check (ii) of `_ring_failures`, one per
    non-vacuum label c, as a (k - 1, 3) index array, and rho(c) for every
    label."""
    p, q = ft.model.p, ft.model.q
    pos = ft._positions
    rho, rungs = [], []
    for c, lab in enumerate(ft.labels):
        r, s = (lab.m, lab.n) if 2 * (lab.m + lab.n) <= p + q else (p - lab.m, q - lab.n)
        rho.append(r + s)
        if s >= 2:
            rungs.append((pos[1, 2], pos[r, s - 1], c))
        elif r >= 2:
            rungs.append((pos[2, 1], pos[r - 1, 1], c))
    return np.array(rungs, dtype=np.intp).reshape(-1, 3), np.array(rho)


def _generated_associatively(ft: FusionTable, tf: np.ndarray, w: np.ndarray) -> bool:
    """Checks (i) and (ii) of `_ring_failures` on the float table tf and
    its packed rows w; True certifies associativity for a table with the
    unit law and commutativity."""
    rungs, rho = _ladder(ft)
    gen, b, c = rungs.T
    # (ii): on each rung, c is the one label d with N_gb^d != 0 and
    # rho(d) >= rho(c)
    high = (tf[gen, b] != 0) & (rho >= rho[c, None])
    if not np.array_equal(high, c[:, None] == np.arange(len(rho))):
        return False
    # (i): (g.b).c and g.(b.c) are sum_e N_gb^e w[e, c] and
    # sum_x N_bc^x w[g, x], laid out [g, b, c, j]
    gens = sorted(set(gen.tolist()))
    rhs = tf @ w[gens, None]
    return np.array_equal((tf[gens] @ w.reshape(len(rho), -1)).reshape(rhs.shape), rhs)


def _associativity_scan(ft: FusionTable, tf: np.ndarray, w: np.ndarray) -> list[str]:
    """The first pair (a, b), in row-major order, for which
    sum_e N_ab^e N_ec^d = sum_x N_ac^x N_bx^d fails for some c, d, as a
    failure line; [] if there is none.

    With W[e, j, c] = w[e, c, j], the sides are sum_e N_ab^e W[e, j, c]
    and sum_x W[b, j, x] N_ac^x: two products per four rows a, both laid
    out [a, b, j, c].  That is 2 k^4 J work in all for J digit groups,
    and no (k, k, k, k) array is built.
    """
    k = len(ft.labels)
    w = np.ascontiguousarray(w.transpose(0, 2, 1))
    w_e, w_bj = w.reshape(k, -1), w.reshape(-1, k)  # rows e; rows (b, j)
    for a0 in range(0, k, 4):
        rows = tf[a0 : a0 + 4]
        lhs = rows @ w_e
        rhs = (w_bj @ rows.transpose(0, 2, 1)).reshape(lhs.shape)
        bad = np.argwhere((lhs != rhs).any(axis=2))
        if bad.size:
            a, b = bad[0]
            return [f"associativity fails for a={ft.labels[a0 + a]}, b={ft.labels[b]}"]
    return []
