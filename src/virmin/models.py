"""Exact data of minimal Virasoro models and their tensor products.

All quantities here are exact rationals (`fractions.Fraction`); no
floating point enters this module.  A model is a coprime pair (p, q)
with p, q > 1; its irreducible modules are labeled by Kac pairs (m, n)
with 0 < m < p, 0 < n < q, identified under the reflection
(m, n) ~ (p - m, q - n).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import RangeError, ShapeError


@dataclass(frozen=True, order=True)
class MinimalModel:
    """A coprime pair (p, q) of integers > 1 selecting a minimal model."""

    p: int
    q: int

    def __post_init__(self):
        if not (isinstance(self.p, int) and isinstance(self.q, int)):
            raise RangeError(f"model parameters must be integers, got ({self.p!r}, {self.q!r})")
        if self.p <= 1 or self.q <= 1:
            raise RangeError(f"model parameters must exceed 1, got ({self.p}, {self.q})")
        if self.p == self.q:
            raise RangeError(f"model parameters must differ, got ({self.p}, {self.q})")
        if gcd(self.p, self.q) != 1:
            raise RangeError(f"model parameters must be coprime, got ({self.p}, {self.q})")

    def __repr__(self):
        return f"MinimalModel({self.p}, {self.q})"


@dataclass(frozen=True, order=True)
class KacLabel:
    """A Kac-table entry (m, n); validity is relative to a model."""

    m: int
    n: int

    def __repr__(self):
        return f"KacLabel({self.m}, {self.n})"

    def as_tuple(self) -> tuple[int, int]:
        return (self.m, self.n)


@dataclass(frozen=True)
class TensorModel:
    """An ordered tensor product of minimal models."""

    factors: tuple[MinimalModel, ...]

    def __post_init__(self):
        if not self.factors:
            raise ShapeError("a tensor model needs at least one factor")
        object.__setattr__(self, "factors", tuple(self.factors))


@dataclass(frozen=True)
class TensorLabel:
    """One Kac label per factor of a TensorModel."""

    labels: tuple[KacLabel, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))


def check_label(model: MinimalModel, label: KacLabel) -> None:
    """Raise RangeError unless m and n are integers, 0 < m < p and 0 < n < q."""
    m, n = label.m, label.n
    if not (isinstance(m, int) and isinstance(n, int) and 0 < m < model.p and 0 < n < model.q):
        raise RangeError(f"label ({m}, {n}) outside Kac table of model ({model.p}, {model.q})")


def check_tensor_label(tmodel: TensorModel, tlabel: TensorLabel) -> None:
    if len(tlabel.labels) != len(tmodel.factors):
        raise ShapeError(
            f"tensor label has {len(tlabel.labels)} entries for {len(tmodel.factors)} factors"
        )
    for factor, label in zip(tmodel.factors, tlabel.labels):
        check_label(factor, label)


def central_charge(model: MinimalModel) -> Fraction:
    """Central charge 1 - 6 (p - q)^2 / (p q), in lowest terms."""
    return 1 - Fraction(6 * (model.p - model.q) ** 2, model.p * model.q)


def kac_weight(model: MinimalModel, m: int, n: int) -> Fraction:
    """Kac weight ((n p - m q)^2 - (p - q)^2) / (4 p q), at any integers
    m, n, inside the Kac table or not."""
    p, q = model.p, model.q
    return Fraction((n * p - m * q) ** 2 - (p - q) ** 2, 4 * p * q)


def conformal_weight(model: MinimalModel, label: KacLabel) -> Fraction:
    """Kac weight of a label in the Kac table."""
    check_label(model, label)
    return kac_weight(model, label.m, label.n)


def reflect(model: MinimalModel, label: KacLabel) -> KacLabel:
    """The other representative (p - m, q - n) of the same weight."""
    check_label(model, label)
    return KacLabel(model.p - label.m, model.q - label.n)


def canonicalize(model: MinimalModel, label: KacLabel) -> KacLabel:
    """Canonical representative of the reflection orbit {(m,n), (p-m,q-n)}.

    We pick the member with the smaller product m*n, i.e. the lower first
    degeneracy level of the corresponding Verma module.  The two products
    are never equal for a valid model (m*n = (p-m)(q-n) would force a
    common divisor of p and q), so the choice is deterministic, idempotent
    and constant on orbits.
    """
    check_label(model, label)
    other = reflect(model, label)
    return label if label.m * label.n <= other.m * other.n else other


def null_level(model: MinimalModel, label: KacLabel) -> int:
    """Level of the first singular vector of the orbit: min(mn, (p-m)(q-n))."""
    label = canonicalize(model, label)
    return label.m * label.n


def kac_labels(model: MinimalModel) -> list[KacLabel]:
    """Canonical labels, one per reflection orbit, sorted.

    The list has (p-1)(q-1)/2 entries.  A label is kept when it is its
    orbit's canonical member (the choice canonicalize makes), so one pass
    over (m, n) in order yields each orbit once.
    """
    p, q = model.p, model.q
    return [
        KacLabel(m, n)
        for m in range(1, p)
        for n in range(1, q)
        if m * n <= (p - m) * (q - n)
    ]


def kac_table(model: MinimalModel) -> list[tuple[KacLabel, Fraction]]:
    """The labels of kac_labels, in its order, each with its Kac weight.
    A caller that needs the labels only should call kac_labels: it
    builds no weight."""
    return [(lab, kac_weight(model, lab.m, lab.n)) for lab in kac_labels(model)]


def tensor_central_charge(tmodel: TensorModel) -> Fraction:
    return sum((central_charge(f) for f in tmodel.factors), Fraction(0))


def tensor_weight(tmodel: TensorModel, tlabel: TensorLabel) -> Fraction:
    check_tensor_label(tmodel, tlabel)
    return sum(
        (conformal_weight(f, lab) for f, lab in zip(tmodel.factors, tlabel.labels)),
        Fraction(0),
    )
