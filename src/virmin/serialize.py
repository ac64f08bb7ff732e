"""Structured (JSON-able) encodings of the core types.

Exact rationals are always carried as "numerator/denominator" strings
so no float contamination can occur on a round trip; every payload the
CLI emits in structured mode carries a top-level schema_version.
"""

from __future__ import annotations

from fractions import Fraction

from .bpz import ODESpec
from .models import KacLabel
from .verma import PBWVector, pbw_basis

SCHEMA_VERSION = 1


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def parse_frac(s: str) -> Fraction:
    if "/" in s:
        num, den = s.split("/")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def label_str(label: KacLabel) -> str:
    return f"{label.m},{label.n}"


def parse_label(s: str) -> KacLabel:
    try:
        m, n = s.split(",")
        return KacLabel(int(m), int(n))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"labels are written m,n; got {s!r}") from exc


def pbw_to_jsonable(v: PBWVector) -> dict:
    terms = []
    for parts in pbw_basis(v.level):
        if parts in v.coefficients:
            terms.append(
                {"partition": list(parts), "coefficient": frac_str(v.coefficients[parts])}
            )
    return {"level": v.level, "terms": terms}


def ode_to_jsonable(ode: ODESpec) -> dict:
    return {
        "order": ode.order,
        "coefficients": [[frac_str(c) for c in poly] for poly in ode.coefficients],
    }


def pbw_str(v: PBWVector) -> str:
    """Human form like 'L(-2) - 3/4 L(-1)^2'."""
    if v.is_zero():
        return "0"
    chunks = []
    for parts in pbw_basis(v.level):
        coef = v.coefficients.get(parts)
        if coef is None:
            continue
        factors = []
        run = None
        count = 0
        for m in list(parts) + [None]:
            if m == run:
                count += 1
                continue
            if run is not None:
                factors.append(f"L(-{run})" + (f"^{count}" if count > 1 else ""))
            run, count = m, 1
        mono = " ".join(factors) if factors else "1"
        if not chunks:
            prefix = "" if coef > 0 else "-"
        else:
            prefix = " + " if coef > 0 else " - "
        mag = abs(coef)
        coef_txt = "" if mag == 1 and factors else f"{mag} "
        chunks.append(f"{prefix}{coef_txt}{mono}")
    return "".join(chunks)
