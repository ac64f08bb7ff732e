"""The verify suites against the scalar calls they replace: the tensor
suite's array comparison with an injected fault, one transport per
state in the monodromy and commutativity suites, and a NaN injected
into each suite's residuals, which must fail it."""

import dataclasses
import math
from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest

from exact_oracles import pairwise_ring_failures
from virmin import crossing, verify
from virmin.bpz import CorrelatorSpec, reduced_ode
from virmin.crossing import (
    channel_basis,
    commutativity_residual,
    commutativity_residuals,
    monodromy_residuals,
)
from virmin.fusion import FusionTable, fusion_table
from virmin.models import KacLabel, MinimalModel
from virmin.verma import VermaParams

M45 = MinimalModel(4, 5)
M35 = MinimalModel(3, 5)


@pytest.mark.parametrize("flipped", [0, 1], ids=["first-factor", "second-factor"])
def test_tensor_suite_names_a_flipped_factor_triple(flipped, monkeypatch):
    pair = (M45, M35)
    target = (pair[flipped], KacLabel(1, 2), KacLabel(1, 2), KacLabel(1, 1))
    real = verify._rule

    def faulty(model, a, b, c):
        n = real(model, a, b, c)
        return 1 - n if (model, a, b, c) == target else n

    monkeypatch.setattr(verify, "_rule", faulty)
    report = verify.suite_tensor()
    assert not report["passed"]
    assert report["details"]["fusion_triples"] == 14040

    # A tensor multiplicity is a product, so the flip shows exactly where
    # the other factor's multiplicity is 1: that many of its k_other^3
    # triples, the first of them in (a1, b1, c1, a2, b2, c2) loop order.
    other = fusion_table(pair[1 - flipped])
    allowed = [t for t in product(other.labels, repeat=3) if other.multiplicity(*t)]
    assert 0 < len(allowed) < len(other.labels) ** 3
    assert report["details"]["fusion_mismatches"] == len(allowed)
    x, y = (target[1:], allowed[0]) if flipped == 0 else (allowed[0], target[1:])
    at = (x[0], y[0], x[1], y[1], x[2], y[2])
    assert report["details"]["failures"][0] == f"tensor fusion mismatch at {at}"


def _count_transports(monkeypatch) -> list:
    """Record (name, path) of every transport crossing starts, through
    continue_along or states_along."""
    calls = []

    def counting(name, real):
        def wrapper(ode, start, state, path):
            calls.append((name, list(path)))
            return real(ode, start, state, path)

        return wrapper

    for name in ("continue_along", "states_along"):
        monkeypatch.setattr(crossing, name, counting(name, getattr(crossing, name)))
    return calls


def test_monodromy_suite_transports_each_basis_once(monkeypatch):
    calls = _count_transports(monkeypatch)
    report = verify.suite_monodromy()
    assert report["details"]["odes"] == 7
    assert len(calls) == 7
    monkeypatch.undo()

    worst, control = 0.0, float("inf")
    for model in verify.models_up_to(5):
        for label in verify.level2_labels(model):
            ode, _, _ = reduced_ode(CorrelatorSpec(model, label, label, label, label))
            basis = channel_basis(ode, 0, 60)
            worst = max(worst, monodromy_residuals(basis)[0])
            control = min(control, monodromy_residuals(basis, (0.01,))[0])
    assert report["max_residual"] == worst
    assert report["details"]["negative_control_min"] == control


def test_commutativity_suite_transports_each_leg_once(monkeypatch):
    """One transport runs the arc below z = 1 and every leg between the
    targets: the states at the targets are its last waypoints'."""
    calls = _count_transports(monkeypatch)
    report = verify.suite_commutativity()
    assert len(calls) == 1
    name, path = calls[0]
    assert name == "states_along"
    assert path[-3:] == [complex(x) for x in crossing.COMMUTATIVITY_TARGETS]
    monkeypatch.undo()

    spec = verify._ising_spec(1, 2)
    assert report["max_residual"] == commutativity_residual(spec, 60)
    assert report["details"]["negative_control"] == commutativity_residuals(spec, 60, (True,))[0]


def test_point_one_exponents_off_by_a_seventh_fail_commutativity(monkeypatch):
    """phases_exact compares the braiding phases with the exponents at 1
    that the transport multiplies by, so exponents shifted by 1/7 there
    fail the suite, though the transport residual does not see them."""
    assert verify.suite_commutativity()["details"]["phases_exact"]
    real = crossing.ChannelBasis.exponents

    def shifted(basis):
        exps = real.fget(basis)
        return tuple(e + Fraction(1, 7) for e in exps) if basis.point == 1 else exps

    monkeypatch.setattr(crossing.ChannelBasis, "exponents", property(shifted))
    report = verify.suite_commutativity()
    assert not report["passed"] and not report["details"]["phases_exact"]
    assert report["max_residual"] < report["tolerance"]


def test_suites_are_the_module_functions_and_report_seven_keys():
    """perfbench's tracer rebinds each suite through its module attribute
    and names its span after the suite, so SUITES holds, in definition
    order, exactly the module's suite_* functions."""
    assert list(verify.SUITES) == [
        "kac-data", "fusion-ring", "kac-determinant", "singular-vectors", "bpz-indicial",
        "blocks", "ising-crossing", "commutativity", "monodromy", "tensor",
    ]
    keys = {"suite", "claim", "passed", "max_residual", "tolerance", "details", "runtime_s"}
    for name, fn in verify.SUITES.items():
        assert getattr(verify, fn.__name__) is fn
        assert fn.__name__ == "suite_" + name.replace("-", "_")
        report = verify.run_suite(name)
        assert set(report) == keys
        assert report["suite"] == name and report["passed"]


@pytest.mark.parametrize("waypoint", [0, 1, 2])
def test_a_nan_state_at_a_target_fails_commutativity(waypoint, monkeypatch):
    """A NaN in the transported states at any one target waypoint is the
    commutativity residual, for both flips, and fails the suite."""
    real = crossing.states_along

    def nan_at_target(ode, start, state, path):
        states = real(ode, start, state, path)
        targets = len(crossing.COMMUTATIVITY_TARGETS)
        states[len(states) - targets + waypoint] = np.full_like(states[-1], np.nan)
        return states

    monkeypatch.setattr(crossing, "states_along", nan_at_target)
    spec = verify._ising_spec(1, 2)
    assert all(map(math.isnan, commutativity_residuals(spec, 60, (False, True))))
    assert math.isnan(commutativity_residual(spec, 60))
    report = verify.suite_commutativity()
    assert not report["passed"] and math.isnan(report["max_residual"])


@pytest.mark.parametrize("which", [0, 1], ids=["residual", "negative-control"])
def test_a_nan_monodromy_residual_fails_the_suite(which, monkeypatch):
    real = verify.monodromy_residuals
    calls = []

    def nan_first(basis, offsets):
        out = list(real(basis, offsets))
        if not calls:
            out[which] = math.nan
        calls.append(basis)
        return tuple(out)

    monkeypatch.setattr(verify, "monodromy_residuals", nan_first)
    report = verify.suite_monodromy()
    assert len(calls) == 7 and not report["passed"]
    field = report["max_residual"] if which == 0 else report["details"]["negative_control_min"]
    assert math.isnan(field)


def test_a_nan_block_fails_the_blocks_and_tensor_suites(monkeypatch):
    real = verify.block

    def nan_block(*args):
        return dataclasses.replace(real(*args), value=complex(math.nan, math.nan))

    monkeypatch.setattr(verify, "block", nan_block)
    monkeypatch.setattr(crossing, "block", nan_block)  # what tensor_block calls
    report = verify.suite_blocks()
    assert not report["passed"] and math.isnan(report["max_residual"])
    assert not verify.suite_tensor()["passed"]


def test_a_block_off_by_one_part_in_1e9_fails_the_tensor_suite(monkeypatch):
    """The tensor suite's reference is the closed-form Ising blocks, so a
    block scaled wherever it is bound cannot cancel against itself."""
    real = verify.block

    def scaled(*args):
        result = real(*args)
        return dataclasses.replace(result, value=result.value * (1 + 1e-9))

    assert verify.suite_tensor()["max_residual"] <= 1e-15
    monkeypatch.setattr(verify, "block", scaled)
    monkeypatch.setattr(crossing, "block", scaled)
    report = verify.suite_tensor()
    assert not report["passed"] and report["max_residual"] > 1e-9
    assert report["details"]["failures"][0].startswith(
        "tensor block differs from the closed-form product"
    )


def test_the_kac_determinant_negative_control_rejects_a_formula_blind_to_h(monkeypatch):
    """Shifted off the Ising energy weight by 1/1000, the level-2 formula
    is nonzero and reported; a formula that vanishes there anyway fails
    the suite, though it agrees with Bareiss at every checked point."""
    report = verify.suite_kac_determinant()
    assert report["passed"]
    assert report["details"]["negative_control"] == "439377/62500000"
    real = verify.kac_determinant
    shifted = VermaParams(Fraction(1, 2), Fraction(1, 2) + Fraction(1, 1000))

    def blind(params, level):
        return Fraction(0) if (params, level) == (shifted, 2) else real(params, level)

    monkeypatch.setattr(verify, "kac_determinant", blind)
    report = verify.suite_kac_determinant()
    assert not report["passed"]
    assert report["details"]["negative_control"] == "0/1"
    assert report["details"]["failures"] == [
        "formula at h_(2,1) + 1/1000 of (3,4) equals the level-2 Bareiss zero"
    ]


def test_the_fusion_ring_negative_control_rejects_a_check_blind_to_associativity(monkeypatch):
    """With N_(1,2)(1,2)^(1,3) of (4,5) flipped in all slot orders, the
    pairwise reference names the pair the suite reports; a ring check
    that never reports associativity fails the suite, though every
    model's table passes it."""
    good = fusion_table(M45)
    table = good.table.copy()
    triple = [good.index(KacLabel(*mn)) for mn in ((1, 2), (1, 2), (1, 3))]
    for cell in set(permutations(triple)):
        table[cell] = 1 - table[cell]
    want = pairwise_ring_failures(FusionTable(M45, good.labels, table))
    assert want == ("associativity fails for a=KacLabel(1, 2), b=KacLabel(1, 2)",)
    report = verify.suite_fusion_ring()
    assert report["passed"]
    assert report["details"]["negative_control"] == want[0]
    real = verify._ring_failures

    def blind(ft):
        return tuple(f for f in real(ft) if not f.startswith("associativity"))

    monkeypatch.setattr(verify, "_ring_failures", blind)
    report = verify.suite_fusion_ring()
    assert not report["passed"]
    assert report["details"]["negative_control"] == ""
    assert report["details"]["failures"] == [
        "associativity holds on (4,5) with N_(1,2)(1,2)^(1,3) flipped"
    ]


def test_a_nan_residual_of_the_second_correlator_fails_ising_crossing(monkeypatch):
    real = verify.associativity_residual
    specs = []

    def nan_second(spec, z1, z2, order):
        out = np.array(real(spec, z1, z2, order))
        specs.append(spec)
        if len(specs) == 2:
            out[2, 3] = math.nan
        return out

    monkeypatch.setattr(verify, "associativity_residual", nan_second)
    report = verify.suite_ising_crossing()
    assert specs == [verify._ising_spec(1, 2), verify._ising_spec(2, 1)]
    assert not report["passed"] and math.isnan(report["max_residual"])


def test_the_kac_determinant_suite_fails_when_bareiss_disagrees(monkeypatch):
    """The suite checks every product-formula determinant against the
    Bareiss determinant of the Gram matrix at its 32 points: one
    disagreeing elimination fails it, and names the point."""
    real = verify.det
    calls = []

    def off_at_level_3(matrix):
        calls.append(len(matrix))
        value = real(matrix)
        return value + 1 if len(matrix) == 3 else value

    monkeypatch.setattr(verify, "det", off_at_level_3)
    report = verify.suite_kac_determinant()
    details = report["details"]
    assert len(calls) == details["zero_checks"] + details["nonzero_checks"] == 32
    assert not report["passed"]
    assert any("product formula != Bareiss" in f and f.endswith("level 3")
               for f in details["failures"])
    monkeypatch.setattr(verify, "det", real)
    assert verify.suite_kac_determinant()["passed"]
