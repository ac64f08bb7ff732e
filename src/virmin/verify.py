"""Named verification suites behind the acceptance gate and the CLI.

Each suite exercises one certified claim end to end and returns a
structured report: {suite, claim, passed, max_residual, tolerance,
details, runtime_s}.  Tolerances and series orders are pinned here,
nowhere else.
"""

from __future__ import annotations

import time
from fractions import Fraction
from itertools import product
from math import gcd

import numpy as np

from .blocks import block, frobenius_expand, residual_orders
from .bpz import CorrelatorSpec, allowed_channels, indicial_exponents, reduced_ode, series_exponent
from .crossing import (
    associativity_residual,
    braiding_phase,
    channel_basis,
    commutativity_residuals,
    monodromy_residuals,
    tensor_block,
)
from .fusion import fusion_rule, fusion_table, verify_ring_axioms
from .models import (
    KacLabel,
    MinimalModel,
    TensorModel,
    central_charge,
    conformal_weight,
    kac_table,
    null_level,
)
from .verma import PBWVector, VermaParams, kac_determinant, singular_vectors, verify_singular

BLOCK_ORDER = 50  # series order of the blocks and tensor suites
CROSSING_ORDER = 60  # series order of the ising-crossing, commutativity and monodromy suites


def models_up_to(bound: int) -> list[MinimalModel]:
    out = []
    for p in range(2, bound + 1):
        for q in range(p + 1, bound + 1):
            if gcd(p, q) == 1:
                out.append(MinimalModel(p, q))
    return out


def level2_labels(model: MinimalModel) -> list[KacLabel]:
    return [lab for lab, _ in kac_table(model) if null_level(model, lab) == 2]


def _report(suite, claim, passed, max_residual, tolerance, details, t0):
    return {
        "suite": suite,
        "claim": claim,
        "passed": bool(passed),
        "max_residual": max_residual,
        "tolerance": tolerance,
        "details": details,
        "runtime_s": round(time.perf_counter() - t0, 3),
    }


def suite_kac_data() -> dict:
    t0 = time.perf_counter()
    failures = []
    for model in models_up_to(13):
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
    return _report(
        "kac-data",
        "Kac-table sizes (p-1)(q-1)/2 for coprime p,q <= 13 and pinned exact values",
        not failures,
        None,
        "exact",
        {"models": len(models_up_to(13)), "failures": failures},
        t0,
    )


def suite_fusion_ring() -> dict:
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for model in models_up_to(9):
        report = verify_ring_axioms(model)
        checked += 1
        if not report.passed:
            failures.append(f"{model}: {report.failures}")
    return _report(
        "fusion-ring",
        "commutativity, unit, slot symmetry, associativity for all models p,q <= 9",
        not failures,
        None,
        "exact",
        {"models": checked, "failures": failures},
        t0,
    )


def suite_kac_determinant(cache=None) -> dict:
    t0 = time.perf_counter()
    failures = []
    zero_checks = 0
    nonzero_checks = 0
    for model in (MinimalModel(3, 4), MinimalModel(2, 5), MinimalModel(4, 5)):
        c = central_charge(model)
        for m in range(1, model.p):
            for n in range(1, model.q):
                if m * n > 8:
                    continue
                label = KacLabel(m, n)
                params = VermaParams(c, conformal_weight(model, label))
                if kac_determinant(params, m * n, cache) != 0:
                    failures.append(f"det != 0 at first null level for {model} {label}")
                zero_checks += 1
        # below the first degeneracy level (orbit representatives) dets are nonzero
        for label, h in kac_table(model):
            level = null_level(model, label)
            params = VermaParams(c, h)
            for lower in range(1, level):
                if kac_determinant(params, lower, cache) == 0:
                    failures.append(f"det = 0 below null level for {model} {label} at {lower}")
                nonzero_checks += 1
    return _report(
        "kac-determinant",
        "Gram determinant vanishes exactly at level m*n and not below the orbit's first null level",
        not failures,
        None,
        "exact",
        {"zero_checks": zero_checks, "nonzero_checks": nonzero_checks, "failures": failures},
        t0,
    )


def suite_singular_vectors() -> dict:
    t0 = time.perf_counter()
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
    return _report(
        "singular-vectors",
        "all returned singular vectors are annihilated by L(1), L(2); pinned Ising vector",
        not failures,
        None,
        "exact",
        {"vectors_checked": count, "failures": failures},
        t0,
    )


def suite_bpz_indicial() -> dict:
    t0 = time.perf_counter()
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
    return _report(
        "bpz-indicial",
        "level-2 reduced ODEs are second order, Fuchsian on {0,1,inf}, and their "
        "indicial roots at 0 contain every fusion-allowed channel exponent",
        not failures,
        None,
        "exact",
        {"correlators": cases, "failures": failures},
        t0,
    )


def _ising_spec(m: int, n: int) -> CorrelatorSpec:
    """Ising <ssss> for (m, n) = (1, 2), <eeee> for (2, 1)."""
    label = KacLabel(m, n)
    return CorrelatorSpec(MinimalModel(3, 4), label, label, label, label)


def suite_blocks() -> dict:
    import math

    t0 = time.perf_counter()
    tol = 1e-10
    spec = _ising_spec(1, 2)
    worst = 0.0
    failures = []

    def closed_identity(z):
        return z ** -0.125 * (1 - z) ** -0.125 * math.sqrt((1 + math.sqrt(1 - z)) / 2)

    def closed_eps(z):
        return 2 * z ** -0.125 * (1 - z) ** -0.125 * math.sqrt((1 - math.sqrt(1 - z)) / 2)

    for z in (0.1, 0.3, 0.5):
        for channel, ref in ((KacLabel(1, 1), closed_identity(z)), (KacLabel(2, 1), closed_eps(z))):
            got = block(spec, channel, z, BLOCK_ORDER).value
            worst = max(worst, abs(got - ref) / abs(ref))
    if worst > tol:
        failures.append(f"block mismatch {worst:.3e}")

    ode, _, _ = reduced_ode(spec)
    for rho in indicial_exponents(ode, 0):
        series = frobenius_expand(ode, 0, rho, BLOCK_ORDER)
        support = residual_orders(series)
        if support and min(support) <= BLOCK_ORDER - 2:
            failures.append(f"residual support reaches order {min(support)} <= N-2")
    return _report(
        "blocks",
        "Frobenius blocks match the closed-form solutions to 1e-10 and the exact "
        "back-substitution residual of the truncated series sits above order N-2",
        not failures,
        worst,
        tol,
        {"points": [0.1, 0.3, 0.5], "order": BLOCK_ORDER, "failures": failures},
        t0,
    )


def suite_ising_crossing() -> dict:
    t0 = time.perf_counter()
    tol = 1e-8
    grid_z1 = (0.9, 1.0, 1.1, 1.2, 1.3)
    grid_z = (0.52, 0.54, 0.56, 0.58, 0.60)
    worst = 0.0
    for spec in (_ising_spec(1, 2), _ising_spec(2, 1)):
        for z1 in grid_z1:
            for z in grid_z:
                worst = max(worst, associativity_residual(spec, z1, z * z1, CROSSING_ORDER))
    return _report(
        "ising-crossing",
        "product equals fused iterate on a 5x5 admissible (z1, z2) grid for the "
        "Ising four-sigma and four-epsilon correlators",
        worst < tol,
        worst,
        tol,
        {"grid_z1": grid_z1, "grid_z2_over_z1": grid_z, "order": CROSSING_ORDER},
        t0,
    )


def suite_commutativity() -> dict:
    t0 = time.perf_counter()
    tol = 1e-6
    spec = _ising_spec(1, 2)
    resid, control = commutativity_residuals(spec, CROSSING_ORDER, flips=(False, True))
    model = spec.model
    sig = KacLabel(1, 2)
    phase_ok = True
    for channel in allowed_channels(spec):
        bp = braiding_phase(model, sig, sig, channel)
        expect = conformal_weight(model, channel) - 2 * conformal_weight(model, sig)
        phase_ok = phase_ok and bp.exponent == expect and abs(abs(bp.phase) - 1) < 1e-15
    passed = resid < tol and control > 1e-3 and phase_ok
    return _report(
        "commutativity",
        "half-monodromy transport below z=1 reproduces the swapped expansion with "
        "the exact braiding phases e^{i pi (h_c - 2 h_sigma)}; conjugated phases fail",
        passed,
        resid,
        tol,
        {"negative_control": control, "phases_exact": phase_ok, "order": CROSSING_ORDER},
        t0,
    )


def suite_monodromy() -> dict:
    t0 = time.perf_counter()
    tol = 1e-8
    worst = 0.0
    control_min = float("inf")
    cases = 0
    for model in models_up_to(5):
        for label in level2_labels(model):
            spec = CorrelatorSpec(model, label, label, label, label)
            ode, _, _ = reduced_ode(spec)
            basis = channel_basis(ode, 0, CROSSING_ORDER)
            resid, control = monodromy_residuals(ode, basis, (0.0, 0.01))
            worst = max(worst, resid)
            control_min = min(control_min, control)
            cases += 1
    passed = worst < tol and control_min > 1e-3
    return _report(
        "monodromy",
        "continuation once around 0 acts diagonally by e^{2 pi i rho} on every "
        "level-2 local basis (p,q <= 5); perturbed exponents are rejected",
        passed,
        worst,
        tol,
        {"odes": cases, "negative_control_min": control_min, "order": CROSSING_ORDER},
        t0,
    )


def suite_tensor() -> dict:
    t0 = time.perf_counter()
    tol = 1e-12
    failures = []
    spec = _ising_spec(1, 2)
    tmodel = TensorModel((spec.model, spec.model))
    for z in (0.2, 0.3, 0.45):
        pair = tensor_block(
            tmodel, [spec, spec], [KacLabel(1, 1), KacLabel(2, 1)], z, BLOCK_ORDER
        )
        single1 = block(spec, KacLabel(1, 1), z, BLOCK_ORDER).value
        single2 = block(spec, KacLabel(2, 1), z, BLOCK_ORDER).value
        rel = abs(pair.value - single1 * single2) / abs(single1 * single2)
        if rel > tol:
            failures.append(f"tensor block differs from factor product by {rel:.2e}")
        swapped = tensor_block(
            tmodel, [spec, spec], [KacLabel(2, 1), KacLabel(1, 1)], z, BLOCK_ORDER
        )
        if abs(pair.value - swapped.value) > tol * abs(pair.value):
            failures.append("factor reordering changed the tensor block")

    triples = mismatches = 0
    pairs = ((MinimalModel(3, 4), MinimalModel(2, 5)), (MinimalModel(4, 5), MinimalModel(3, 5)))
    for pair in pairs:
        tables = [fusion_table(f) for f in pair]
        # The scalar rule on each factor's canonical labels is the independent
        # path; both sides are int8 outer products, axes (a1, b1, c1, a2, b2, c2).
        scalar = [
            np.array([fusion_rule(f, *abc) for abc in product(t.labels, repeat=3)], np.int8)
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
    return _report(
        "tensor",
        "tensor blocks factor into products of single-model blocks and tensor "
        "fusion multiplicities are products of factor multiplicities",
        not failures,
        None,
        tol,
        {"block_points": 3, "order": BLOCK_ORDER, "fusion_triples": triples,
         "fusion_mismatches": mismatches, "failures": failures[:5]},
        t0,
    )


SUITES = {
    "kac-data": suite_kac_data,
    "fusion-ring": suite_fusion_ring,
    "kac-determinant": suite_kac_determinant,
    "singular-vectors": suite_singular_vectors,
    "bpz-indicial": suite_bpz_indicial,
    "blocks": suite_blocks,
    "ising-crossing": suite_ising_crossing,
    "commutativity": suite_commutativity,
    "monodromy": suite_monodromy,
    "tensor": suite_tensor,
}


def run_suite(name: str, cache=None) -> dict:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}")
    fn = SUITES[name]
    if name == "kac-determinant":
        return fn(cache)
    return fn()
