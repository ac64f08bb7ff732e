"""Named verification suites behind the acceptance gate and the CLI.

Each suite exercises one certified claim end to end.  A suite is one
function declared with @_suite(name, claim); its body returns
(passed, max_residual, tolerance, details) and the decorator times it,
builds the report {suite, claim, passed, max_residual, tolerance,
details, runtime_s} and registers it in SUITES.  Each suite pins its own
tolerance.  Residuals are reduced with NumPy maxima and compared so
that a NaN fails.  The series orders and the crossing grid are the
library's defaults, read from blocks.BLOCK_ORDER, crossing.ORDER and
crossing.GRID_Z1/GRID_Z, as the CLI reads them.
"""

from __future__ import annotations

import functools
import math
import time
from fractions import Fraction
from itertools import permutations, product
from math import gcd

import numpy as np

from .blocks import BLOCK_ORDER, block, frobenius_expand, residual_orders
from .bpz import CorrelatorSpec, allowed_channels, indicial_exponents, reduced_ode, series_exponent
from .crossing import (
    GRID_TOL,
    GRID_Z,
    GRID_Z1,
    ORDER as CROSSING_ORDER,
    associativity_residual,
    braiding_phase,
    channel_basis,
    commutativity_residuals,
    correlator,
    monodromy_residuals,
    tensor_block,
)
from .fusion import FusionTable, _ring_failures, _rule, fusion_table, verify_ring_axioms
from .linalg import det
from .models import (
    KacLabel,
    MinimalModel,
    TensorModel,
    central_charge,
    conformal_weight,
    kac_table,
    null_level,
)
from .serialize import frac_str
from .verma import (
    PBWVector,
    VermaParams,
    gram_matrix,
    kac_determinant,
    singular_vectors,
    verify_singular,
)

SUITES: dict = {}  # name -> suite, in definition order


def models_up_to(bound: int) -> list[MinimalModel]:
    out = []
    for p in range(2, bound + 1):
        for q in range(p + 1, bound + 1):
            if gcd(p, q) == 1:
                out.append(MinimalModel(p, q))
    return out


def level2_labels(model: MinimalModel) -> list[KacLabel]:
    return [lab for lab, _ in kac_table(model) if null_level(model, lab) == 2]


def _suite(name: str, claim: str):
    """Register the decorated suite in SUITES under name.  The suite
    returns (passed, max_residual, tolerance, details); the registered
    function returns its timed report."""

    def register(fn):
        @functools.wraps(fn)
        def run(*args):
            t0 = time.perf_counter()
            passed, max_residual, tolerance, details = fn(*args)
            return {
                "suite": name,
                "claim": claim,
                "passed": bool(passed),
                "max_residual": max_residual,
                "tolerance": tolerance,
                "details": details,
                "runtime_s": round(time.perf_counter() - t0, 3),
            }

        SUITES[name] = run
        return run

    return register


@_suite("kac-data", "Kac-table sizes (p-1)(q-1)/2 for coprime p,q <= 13 and pinned exact values")
def suite_kac_data() -> tuple:
    failures = []
    models = models_up_to(13)
    for model in models:
        expect = (model.p - 1) * (model.q - 1) // 2
        got = len(kac_table(model))
        if got != expect:
            failures.append(f"table size {got} != {expect} for {model}")
    pins = [
        (central_charge(MinimalModel(3, 4)), Fraction(1, 2), "c_{3,4}"),
        (conformal_weight(MinimalModel(3, 4), KacLabel(2, 2)), Fraction(1, 16), "h^{2,2}"),
        (conformal_weight(MinimalModel(3, 4), KacLabel(2, 1)), Fraction(1, 2), "h^{2,1}"),
    ]
    for got, want, name in pins:
        if got != want:
            failures.append(f"{name} = {got} != {want}")
    return not failures, None, "exact", {"models": len(models), "failures": failures}


@_suite("fusion-ring", "commutativity, unit, slot symmetry, associativity for all models p,q <= 9")
def suite_fusion_ring() -> tuple:
    failures = []
    checked = 0
    for model in models_up_to(9):
        report = verify_ring_axioms(model)
        checked += 1
        if not report.passed:
            failures.append(f"{model}: {report.failures}")
    # negative control: the flipped table stays symmetric with the vacuum
    # row intact, so only associativity can reject it
    good = fusion_table(MinimalModel(4, 5))
    table = good.table.copy()
    triple = [good.index(KacLabel(*mn)) for mn in ((1, 2), (1, 2), (1, 3))]
    for cell in set(permutations(triple)):
        table[cell] = 1 - table[cell]
    control = _ring_failures(FusionTable(good.model, good.labels, table))
    if not any(f.startswith("associativity fails") for f in control):
        failures.append("associativity holds on (4,5) with N_(1,2)(1,2)^(1,3) flipped")
    details = {"models": checked, "negative_control": "; ".join(control), "failures": failures}
    return not failures, None, "exact", details


@_suite(
    "kac-determinant",
    "Kac product formula equals the Bareiss determinant of the Gram matrix, vanishes "
    "exactly at level m*n and not below the orbit's first null level; at the Ising "
    "energy weight shifted by 1/1000 it differs from the vanishing Bareiss value",
)
def suite_kac_determinant() -> tuple:
    failures = []
    zero_checks = 0
    nonzero_checks = 0
    bareiss = {}  # (params, level) -> Bareiss determinant of the Gram matrix

    def checked(params, level, label):
        """kac_determinant, failing unless the Gram's Bareiss determinant agrees."""
        value = kac_determinant(params, level)
        bareiss[params, level] = det([list(row) for row in gram_matrix(params, level).entries])
        if value != bareiss[params, level]:
            failures.append(f"product formula != Bareiss for {label} at level {level}")
        return value

    for model in (MinimalModel(3, 4), MinimalModel(2, 5), MinimalModel(4, 5)):
        c = central_charge(model)
        for m in range(1, model.p):
            for n in range(1, model.q):
                if m * n > 8:
                    continue
                label = KacLabel(m, n)
                params = VermaParams(c, conformal_weight(model, label))
                if checked(params, m * n, f"{model} {label}") != 0:
                    failures.append(f"det != 0 at first null level for {model} {label}")
                zero_checks += 1
        # below the first degeneracy level (orbit representatives) dets are nonzero
        for label, h in kac_table(model):
            level = null_level(model, label)
            params = VermaParams(c, h)
            for lower in range(1, level):
                if checked(params, lower, f"{model} {label}") == 0:
                    failures.append(f"det = 0 below null level for {model} {label} at {lower}")
                nonzero_checks += 1
    # negative control: off a null weight the formula must not reproduce a zero
    ising = MinimalModel(3, 4)
    energy = VermaParams(central_charge(ising), conformal_weight(ising, KacLabel(2, 1)))
    control = kac_determinant(VermaParams(energy.c, energy.h + Fraction(1, 1000)), 2)
    if control == bareiss[energy, 2]:
        failures.append("formula at h_(2,1) + 1/1000 of (3,4) equals the level-2 Bareiss zero")
    details = {"zero_checks": zero_checks, "nonzero_checks": nonzero_checks,
               "negative_control": frac_str(control), "failures": failures}
    return not failures, None, "exact", details


@_suite(
    "singular-vectors",
    "all returned singular vectors are annihilated by L(1), L(2); pinned Ising vector",
)
def suite_singular_vectors() -> tuple:
    failures = []
    count = 0
    cases = [
        (MinimalModel(3, 4), KacLabel(2, 1), 4),
        (MinimalModel(3, 4), KacLabel(1, 2), 4),
        (MinimalModel(3, 4), KacLabel(1, 1), 3),
        (MinimalModel(2, 5), KacLabel(1, 2), 4),
        (MinimalModel(4, 5), KacLabel(2, 2), 4),
    ]
    for model, label, max_level in cases:
        params = VermaParams(central_charge(model), conformal_weight(model, label))
        for level, vec in singular_vectors(model, label, max_level):
            count += 1
            if not verify_singular(params, vec):
                failures.append(f"{model} {label} level {level} fails verify_singular")
    pinned = singular_vectors(MinimalModel(3, 4), KacLabel(2, 1), 2)
    want = PBWVector(2, {(2,): Fraction(1), (1, 1): Fraction(-3, 4)})
    if not pinned or pinned[0][0] != 2 or pinned[0][1] != want:
        failures.append("(3,4)(2,1) level-2 vector is not L(-2) - 3/4 L(-1)^2")
    return not failures, None, "exact", {"vectors_checked": count, "failures": failures}


@_suite(
    "bpz-indicial",
    "level-2 reduced ODEs are second order, Fuchsian on {0,1,inf}, and their "
    "indicial roots at 0 contain every fusion-allowed channel exponent",
)
def suite_bpz_indicial() -> tuple:
    failures = []
    cases = 0
    for model in models_up_to(5):
        for label in level2_labels(model):
            spec = CorrelatorSpec(model, label, label, label, label)
            ode, anchor, _ = reduced_ode(spec)
            cases += 1
            if ode.order != 2:
                failures.append(f"{model} {label}: order {ode.order} != 2")
                continue
            try:
                ode.validate_minimal_form()
            except Exception as exc:
                failures.append(f"{model} {label}: {exc}")
                continue
            roots = set(indicial_exponents(ode, 0))
            for channel in allowed_channels(spec):
                rho = series_exponent(spec, channel, anchor)
                if rho not in roots:
                    failures.append(f"{model} {label}: channel {channel} exponent missing")
    return not failures, None, "exact", {"correlators": cases, "failures": failures}


def _ising_spec(m: int, n: int) -> CorrelatorSpec:
    """Ising <ssss> for (m, n) = (1, 2), <eeee> for (2, 1)."""
    label = KacLabel(m, n)
    return CorrelatorSpec(MinimalModel(3, 4), label, label, label, label)


def closed_identity(z: float) -> float:
    """Ising <ssss> identity-channel block in closed form."""
    return z ** -0.125 * (1 - z) ** -0.125 * math.sqrt((1 + math.sqrt(1 - z)) / 2)


def closed_eps(z: float) -> float:
    """Ising <ssss> energy-channel block in closed form."""
    return 2 * z ** -0.125 * (1 - z) ** -0.125 * math.sqrt((1 - math.sqrt(1 - z)) / 2)


@_suite(
    "blocks",
    "Frobenius blocks match the closed-form solutions to 1e-10 and the exact "
    "back-substitution residual of the truncated series sits above order N-2",
)
def suite_blocks() -> tuple:
    tol = 1e-10
    spec = _ising_spec(1, 2)
    errors = []
    failures = []
    for z in (0.1, 0.3, 0.5):
        for channel, ref in ((KacLabel(1, 1), closed_identity(z)), (KacLabel(2, 1), closed_eps(z))):
            got = block(spec, channel, z, BLOCK_ORDER).value
            errors.append(abs(got - ref) / abs(ref))
    worst = float(np.max(errors))
    if not worst <= tol:
        failures.append(f"block mismatch {worst:.3e}")

    ode, _, _ = reduced_ode(spec)
    for rho in indicial_exponents(ode, 0):
        series = frobenius_expand(ode, 0, rho, BLOCK_ORDER)
        support = residual_orders(series)
        if support and min(support) <= BLOCK_ORDER - 2:
            failures.append(f"residual support reaches order {min(support)} <= N-2")
    details = {"points": [0.1, 0.3, 0.5], "order": BLOCK_ORDER, "failures": failures}
    return not failures, worst, tol, details


@_suite(
    "ising-crossing",
    "product equals fused iterate on a 5x5 admissible (z1, z2) grid for the "
    "Ising four-sigma and four-epsilon correlators",
)
def suite_ising_crossing() -> tuple:
    tol = GRID_TOL
    z1s = [[z1] * len(GRID_Z) for z1 in GRID_Z1]
    z2s = [[z * z1 for z in GRID_Z] for z1 in GRID_Z1]
    residuals = [
        associativity_residual(spec, z1s, z2s, CROSSING_ORDER)
        for spec in (_ising_spec(1, 2), _ising_spec(2, 1))
    ]
    worst = float(np.max(residuals))
    details = {"grid_z1": GRID_Z1, "grid_z2_over_z1": GRID_Z, "order": CROSSING_ORDER}
    return worst < tol, worst, tol, details


@_suite(
    "commutativity",
    "half-monodromy transport below z=1 reproduces the swapped expansion with "
    "the exact braiding phases e^{i pi (h_c - 2 h_sigma)}; conjugated phases fail",
)
def suite_commutativity() -> tuple:
    tol = 1e-6
    spec = _ising_spec(1, 2)
    resid, control = commutativity_residuals(spec, CROSSING_ORDER, flips=(False, True))
    # the exact phases are the exponents at 1 that the transport multiplies by
    sig = KacLabel(1, 2)
    phases = [braiding_phase(spec.model, sig, sig, c).exponent for c in allowed_channels(spec)]
    phase_ok = sorted(phases) == sorted(correlator(spec, CROSSING_ORDER).fusing.basis1.exponents)
    details = {"negative_control": control, "phases_exact": phase_ok, "order": CROSSING_ORDER}
    return resid < tol and control > 1e-3 and phase_ok, resid, tol, details


@_suite(
    "monodromy",
    "continuation once around 0 acts diagonally by e^{2 pi i rho} on every "
    "level-2 local basis (p,q <= 5); perturbed exponents are rejected",
)
def suite_monodromy() -> tuple:
    tol = 1e-8
    residuals = []  # (residual, negative control) per ODE
    for model in models_up_to(5):
        for label in level2_labels(model):
            spec = CorrelatorSpec(model, label, label, label, label)
            basis = channel_basis(reduced_ode(spec)[0], 0, CROSSING_ORDER)
            residuals.append(monodromy_residuals(basis, (0.0, 0.01)))
    resids, controls = np.array(residuals).T
    worst, control_min = float(resids.max()), float(controls.min())
    details = {"odes": len(residuals), "negative_control_min": control_min, "order": CROSSING_ORDER}
    return worst < tol and control_min > 1e-3, worst, tol, details


@_suite(
    "tensor",
    "tensor blocks equal products of the closed-form Ising blocks and tensor "
    "fusion multiplicities are products of factor multiplicities",
)
def suite_tensor() -> tuple:
    tol = 1e-12
    failures = []
    errors = []  # relative mismatches: closed-form product, then factor reordering, per point
    spec = _ising_spec(1, 2)
    tmodel = TensorModel((spec.model, spec.model))
    for z in (0.2, 0.3, 0.45):
        pair = tensor_block(tmodel, [spec, spec], [KacLabel(1, 1), KacLabel(2, 1)], z)
        closed = closed_identity(z) * closed_eps(z)
        rel = abs(pair.value - closed) / abs(closed)
        if not rel <= tol:
            failures.append(f"tensor block differs from the closed-form product by {rel:.2e}")
        swapped = tensor_block(tmodel, [spec, spec], [KacLabel(2, 1), KacLabel(1, 1)], z)
        moved = abs(pair.value - swapped.value) / abs(pair.value)
        if not moved <= tol:
            failures.append("factor reordering changed the tensor block")
        errors += [rel, moved]
    worst = float(np.max(errors))

    triples = mismatches = 0
    pairs = ((MinimalModel(3, 4), MinimalModel(2, 5)), (MinimalModel(4, 5), MinimalModel(3, 5)))
    for pair in pairs:
        tables = [fusion_table(f) for f in pair]
        # The scalar rule on each factor's canonical labels is the independent
        # path, unchecked because kac_table gave the labels; both sides are
        # int8 outer products, axes (a1, b1, c1, a2, b2, c2).
        scalar = [
            np.array([_rule(f, *abc) for abc in product(t.labels, repeat=3)], np.int8)
            .reshape(t.table.shape)
            for f, t in zip(pair, tables)
        ]
        got = np.multiply.outer(tables[0].table, tables[1].table)
        bad = np.argwhere(got != np.multiply.outer(*scalar))
        triples += got.size
        mismatches += len(bad)
        la, lb = tables[0].labels, tables[1].labels
        for a1, b1, c1, a2, b2, c2 in bad[:5]:
            at = (la[a1], lb[a2], la[b1], lb[b2], la[c1], lb[c2])
            failures.append(f"tensor fusion mismatch at {at}")
    details = {"block_points": 3, "order": BLOCK_ORDER, "fusion_triples": triples,
               "fusion_mismatches": mismatches, "failures": failures[:5]}
    return not failures, worst, tol, details


def run_suite(name: str) -> dict:
    return SUITES[name]()
