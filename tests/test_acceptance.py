"""Acceptance gate: one test per certified claim, at its pinned tolerance.

Each test prints a PASS/FAIL line with the measured residual and
runtime so the whole gate reads as a report under `pytest -s`.
Tolerances and runtime budgets live here and in virmin.verify only.
"""

from virmin.verify import (
    suite_blocks,
    suite_bpz_indicial,
    suite_commutativity,
    suite_fusion_ring,
    suite_ising_crossing,
    suite_kac_data,
    suite_kac_determinant,
    suite_monodromy,
    suite_singular_vectors,
    suite_tensor,
)


def _gate(criterion: int, report: dict, budget_s: float, order: int | None = None):
    status = "PASS" if report["passed"] else "FAIL"
    resid = (
        ""
        if report["max_residual"] is None
        else f", max residual {report['max_residual']:.3e} (tol {report['tolerance']})"
    )
    print(f"{status} criterion {criterion}: {report['claim']}{resid}, "
          f"{report['runtime_s']}s (budget {budget_s}s)")
    assert report["passed"], report
    assert report["runtime_s"] < budget_s, f"runtime {report['runtime_s']}s over budget"
    if order is not None:  # the series order the suite pins
        assert report["details"]["order"] == order


def test_criterion_01_kac_data():
    _gate(1, suite_kac_data(), 1.0)


def test_criterion_02_fusion_ring():
    _gate(2, suite_fusion_ring(), 30.0)


def test_criterion_03_kac_determinant():
    _gate(3, suite_kac_determinant(), 60.0)


def test_criterion_04_singular_vectors():
    _gate(4, suite_singular_vectors(), 5.0)


def test_criterion_05_bpz_structure():
    _gate(5, suite_bpz_indicial(), 10.0)


def test_criterion_06_block_correctness():
    _gate(6, suite_blocks(), 5.0, order=50)


def test_criterion_07_associativity():
    _gate(7, suite_ising_crossing(), 30.0, order=60)


def test_criterion_08_commutativity():
    _gate(8, suite_commutativity(), 30.0, order=60)


def test_criterion_09_monodromy_no_log():
    _gate(9, suite_monodromy(), 30.0, order=60)


def test_criterion_10_tensor_factorization():
    _gate(10, suite_tensor(), 10.0, order=50)
