"""The four benchmark workloads: seeded inputs, the timed operations and
the correctness check applied to every operation.

Each workload is a closed loop with one client: the next operation
starts when the previous one returns.  A workload is a fixed pool of
inputs defined by a rule (model bounds and ODE orders, never outcomes);
the seed fixes the order of the operations and the details that do not
change the amount of work (the Kac-label representative of each
insertion, evaluation points, the perturbation of the generic weights).
Keeping the work fixed across seeds is what makes runs with different
seeds comparable.

An operation's outcome is one of
  ok        the output passed its check;
  failed    the program reported the failure itself (a typed
            VirminError, a certificate above its pinned tolerance, a
            suite that did not pass);
  incorrect the benchmark's own oracle contradicts an output, a value
            is not finite, or an untyped exception escaped.
Incorrect operations count as failed too.  Known failing inputs stay in
the pools and are listed by label in the report.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import random
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Callable

from virmin import blocks, bpz, cache, cli, crossing, fusion, verify, verma
from virmin.bpz import CorrelatorSpec
from virmin.errors import VirminError
from virmin.models import (
    KacLabel,
    MinimalModel,
    central_charge,
    conformal_weight,
    kac_table,
    null_level,
    reflect,
)
from virmin.verma import VermaParams, verify_singular

# Program calls go through the module attributes (crossing.fusing_matrix,
# not a local name), so that a traced run sees the wrappers it installs.

# Tolerances pinned by the `ising-crossing` and `commutativity` suites of
# virmin.verify (they are local to those suites, so they are restated).
GRID_TOL = 1e-8
COMMUTATIVITY_TOL = 1e-6
ISING_TOL = 1e-10  # the `blocks` suite's closed-form tolerance
# The `virmin crossing` defaults: series order and the 5x5 (z1, z2/z1) grid.
CROSSING_ORDER = 60
GRID_Z1 = (0.9, 1.0, 1.1, 1.2, 1.3)
GRID_Z = (0.52, 0.54, 0.56, 0.58, 0.60)
KACDET_LEVEL = 11
SINGULAR_LEVEL = 10  # singular vectors are searched through this level

OK, FAILED, INCORRECT = "ok", "failed", "incorrect"


def _lru_caches() -> list:
    """Every lru_cache in the package, collected before any tracing
    wrapper replaces the module attributes that point at them."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "virmin" or name.startswith("virmin."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    found[id(value)] = value
    return list(found.values())


_CACHES = _lru_caches()


def clear_caches() -> None:
    """Empty the package's lru_caches, as in a fresh `virmin` process."""
    for cached in _CACHES:
        cached.cache_clear()


@dataclass
class Op:
    """One timed call into the program and the check of its output.

    run() is timed; check(result) is not, and returns (outcome, note).
    A cold operation starts as in a fresh `virmin` process: the package's
    lru_caches are emptied and the garbage is collected first, untimed.
    """

    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str, str]]
    diagnostic: Callable[[object], dict] = field(default=lambda result: {})
    cold: bool = False


def finite(*values: float) -> bool:
    return all(math.isfinite(abs(v)) for v in values)


def _reps(rng: random.Random, model: MinimalModel, label: KacLabel) -> KacLabel:
    """Either member of the label's reflection orbit: same weight, same work."""
    return label if rng.random() < 0.5 else reflect(model, label)


def _diagonal(rng: random.Random, model: MinimalModel, label: KacLabel) -> CorrelatorSpec:
    return CorrelatorSpec(model, *(_reps(rng, model, label) for _ in range(4)))


def correlator_name(spec: CorrelatorSpec) -> str:
    labels = ",".join(f"({w.m},{w.n})" for w in (spec.w4, spec.w1, spec.w2, spec.w3))
    return f"({spec.model.p},{spec.model.q})<{labels}>"


def coprime_models(q_max: int) -> list[MinimalModel]:
    return [
        MinimalModel(p, q)
        for q in range(3, q_max + 1)
        for p in range(2, q)
        if gcd(p, q) == 1
    ]


class Workload:
    name = ""
    pool_rule = ""

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.workdir = workdir

    def round(self) -> list[Op]:
        raise NotImplementedError

    def close(self) -> None:
        pass


class CertifyCold(Workload):
    name = "certify-cold"
    pool_rule = (
        "diagonal <phi phi phi phi>, phi a canonical Kac label of coprime p < q <= 7 "
        "with null level 2, 3 or 4, plus null level 6 for q <= 6; every member once "
        "per round; CLI-default order 60 and 5x5 grid"
    )

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        pool = []
        for model in coprime_models(7):
            for label, _ in kac_table(model):
                level = null_level(model, label)
                if level in (2, 3, 4) or (level == 6 and model.q <= 6):
                    pool.append((level, _diagonal(self.rng, model, label)))
        self.rng.shuffle(pool)
        self.pool = pool

    def round(self):
        return [
            Op(f"o{level}", correlator_name(spec), _certify(spec), _check_certificate,
               lambda result: {"fusing_heldout_residual": result[0]}, cold=True)
            for level, spec in self.pool
        ]


def _certify(spec: CorrelatorSpec):
    def run():
        ode, _, _ = bpz.reduced_ode(spec)
        fm = crossing.fusing_matrix(ode, CROSSING_ORDER)
        grid = [
            crossing.associativity_residual(spec, z1, z * z1, CROSSING_ORDER)
            for z1 in GRID_Z1
            for z in GRID_Z
        ]
        return fm.residual, grid, crossing.commutativity_residual(spec, CROSSING_ORDER)

    return run


def _check_certificate(result):
    _, grid, comm = result
    if not finite(*grid, comm):
        return INCORRECT, "non-finite residual"
    worst = max(grid)
    if worst >= GRID_TOL or comm >= COMMUTATIVITY_TOL:
        return FAILED, f"grid {worst:.2e}, commutativity {comm:.2e}"
    return OK, ""


def ising_sigma_closed_form(channel: KacLabel, z: float) -> float:
    """Four-sigma Ising blocks in closed form (the `blocks` suite's oracle)."""
    pref = z ** -0.125 * (1 - z) ** -0.125
    root = math.sqrt(1 - z)
    if channel == KacLabel(1, 1):
        return pref * math.sqrt((1 + root) / 2)
    if channel == KacLabel(2, 1):
        return 2 * pref * math.sqrt((1 - root) / 2)
    raise ValueError(f"no closed form for channel {channel}")


def check_ising_block(channel: KacLabel, z: float, value: complex) -> tuple[str, str]:
    if not finite(value):
        return INCORRECT, "non-finite block"
    want = ising_sigma_closed_form(channel, z)
    err = abs(value - want) / abs(want)
    if err > ISING_TOL:
        return INCORRECT, f"closed-form mismatch {err:.2e}"
    return OK, ""


def _check_finite_block(value) -> tuple[str, str]:
    return (OK, "") if finite(value) else (INCORRECT, "non-finite block")


def _check_residual(value) -> tuple[str, str]:
    if not finite(value):
        return INCORRECT, "non-finite residual"
    if value >= GRID_TOL:
        return FAILED, f"residual {value:.2e}"
    return OK, ""


class EvaluateWarm(Workload):
    name = "evaluate-warm"
    pool_rule = (
        "built once: (4,5)<(2,2)^4> (order 4), Ising (3,4)<(1,2)^4>, (5,6)<(2,3)^4> "
        "(order 6); a round is 8 order-4 blocks (each channel at 2 seeded z), 2 Ising "
        "blocks (each channel at 1 seeded z) and 4 residuals at seeded (z1, z2)"
    )
    Z_RANGE = (0.05, 0.55)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.order4 = _diagonal(self.rng, MinimalModel(4, 5), KacLabel(2, 2))
        self.ising = _diagonal(self.rng, MinimalModel(3, 4), KacLabel(1, 2))
        self.order6 = _diagonal(self.rng, MinimalModel(5, 6), KacLabel(2, 3))
        self.channels4 = bpz.allowed_channels(self.order4)
        self.channels_ising = bpz.allowed_channels(self.ising)
        # one untimed call per correlator builds its ODE and crossing data
        blocks.block(self.order4, self.channels4[0], 0.3)
        blocks.block(self.ising, self.channels_ising[0], 0.3)
        crossing.associativity_residual(self.order6, 1.0, 0.55)

    def _z(self) -> float:
        return self.rng.uniform(*self.Z_RANGE)

    def round(self):
        ops = []
        for channel in self.channels4:
            for _ in range(2):
                ops.append(self._block_op("block-o4", self.order4, channel, self._z(),
                                          _check_finite_block))
        for channel in self.channels_ising:
            z = self._z()
            ops.append(self._block_op(
                "block-ising", self.ising, channel, z,
                lambda value, c=channel, z=z: check_ising_block(c, z, value)))
        for _ in range(4):
            z1 = self.rng.uniform(0.9, 1.3)
            z2 = z1 * self.rng.uniform(0.52, 0.60)
            ops.append(Op(
                "residual", f"{correlator_name(self.order6)} z1={z1:.4f} z2={z2:.4f}",
                lambda z1=z1, z2=z2: crossing.associativity_residual(self.order6, z1, z2),
                _check_residual))
        self.rng.shuffle(ops)
        return ops

    @staticmethod
    def _block_op(kind, spec, channel, z, check):
        return Op(kind, f"{correlator_name(spec)} c=({channel.m},{channel.n}) z={z:.4f}",
                  lambda: blocks.block(spec, channel, z).value, check)


def generic_weight(model: MinimalModel, h: Fraction, prime: int, sign: int) -> Fraction:
    """A weight off the Kac table of c(model): 4pq h is not an integer, so
    h differs from every h_{r,s}(c) = ((rq - sp)^2 - (p - q)^2) / 4pq."""
    if (4 * model.p * model.q) % prime == 0:
        raise ValueError("the prime must not divide 4pq")
    return h + Fraction(sign, 4 * model.p * model.q * prime)


def check_kacdet(cold: Fraction, warm: Fraction, expect_zero: bool) -> tuple[str, str]:
    if (cold == 0) != expect_zero:
        return INCORRECT, f"determinant {'nonzero' if expect_zero else 'zero'}"
    if warm != cold:
        return INCORRECT, "warm determinant differs from the cold one"
    return OK, ""


class ExactAlgebra(Workload):
    name = "exact-algebra"
    pool_rule = (
        "level-11 Kac determinants, cold then warm through one GramCache directory, "
        "for h_(2,2) of M(p,p+1), p=4,5,6 (det 0) and a seeded off-table h at the "
        "same c; singular vectors through level 10 of (2,2), (2,3), (3,2) there; "
        "ring axioms for coprime 10<=q<=13 with 33<=(p-1)(q-1)/2<=36"
    )
    PRIMES = (101, 103, 107, 109, 113)  # one bit length, so the cost does not vary with the seed

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        self.pairs, self.labels = [], []
        for p in (4, 5, 6):
            model = MinimalModel(p, p + 1)
            label = _reps(self.rng, model, KacLabel(2, 2))
            c, h = central_charge(model), conformal_weight(model, label)
            self.pairs.append((f"{model} h{label.as_tuple()}", VermaParams(c, h), True))
            prime, sign = self.rng.choice(self.PRIMES), self.rng.choice((1, -1))
            h_off = generic_weight(model, h, prime, sign)
            self.pairs.append((f"{model} h={h_off}", VermaParams(c, h_off), False))
            for m, n in ((2, 2), (2, 3), (3, 2)):
                self.labels.append((model, _reps(self.rng, model, KacLabel(m, n))))
        self.rings = [
            model for model in coprime_models(13)
            if model.q >= 10 and 33 <= (model.p - 1) * (model.q - 1) // 2 <= 36
        ]

    def round(self):
        groups = [self._kacdet_ops(*pair) for pair in self.pairs]
        groups += [[self._singular_op(model, label)] for model, label in self.labels]
        groups += [[self._ring_op(model)] for model in self.rings]
        self.rng.shuffle(groups)
        return [op for group in groups for op in group]

    def _kacdet_ops(self, name, params, expect_zero):
        state = {}

        def cold():
            directory = Path(tempfile.mkdtemp(dir=self.workdir))
            state["cache"] = cache.GramCache(directory)
            state["cold"] = verma.kac_determinant(params, KACDET_LEVEL, state["cache"])
            return state["cold"]

        def check_cold(det):
            stored = len(list(state["cache"].directory.glob("gram-*.json")))
            if stored != 1:
                return INCORRECT, f"cache holds {stored} Gram files, not 1"
            return check_kacdet(det, det, expect_zero)

        def warm():
            return verma.kac_determinant(params, KACDET_LEVEL, state.get("cache"))

        return [
            Op("kacdet-cold", name, cold, check_cold, cold=True),
            Op("kacdet-warm", name, warm,
               lambda det: check_kacdet(state.get("cold"), det, expect_zero), cold=True),
        ]

    @staticmethod
    def _singular_op(model, label):
        level = null_level(model, label)
        params = VermaParams(central_charge(model), conformal_weight(model, label))

        def check(found):
            if not any(lev == level for lev, _ in found):
                return INCORRECT, f"no singular vector at level {level}"
            if not all(verify_singular(params, vec) for _, vec in found):
                return INCORRECT, "a returned vector is not singular"
            return OK, ""

        return Op("singular", f"{model} {label.as_tuple()} null level {level}",
                  lambda: verma.singular_vectors(model, label, SINGULAR_LEVEL), check,
                  cold=True)

    @staticmethod
    def _ring_op(model):
        def check(report):
            return (OK, "") if report.passed else (FAILED, "; ".join(report.failures))

        return Op("fusion-ring", str(model), lambda: fusion.verify_ring_axioms(model), check,
                  cold=True)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


class VerifyAll(Workload):
    """`virmin verify all` as one `virmin verify SUITE` call per suite, in the
    same order and sharing the lru_caches within a round, so that a round
    does the work of `verify all` and each suite is timed on its own (ten
    operation kinds average the host's noise better than one long call)."""

    name = "verify-all"
    pool_rule = ("`virmin verify all --format json`, suite by suite through "
                 "virmin.cli.main, cold at the start of each round; no inputs")

    def round(self):
        return [Op(suite, f"verify {suite}", _verify_suite(suite), _check_verify_suite,
                   cold=i == 0)
                for i, suite in enumerate(sorted(verify.SUITES))]


def _verify_suite(suite: str):
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", suite, "--format", "json"])
        return code, out.getvalue()

    return run


def _check_verify_suite(result):
    code, text = result
    try:
        (report,) = json.loads(text)["reports"]
    except (ValueError, KeyError) as exc:
        return INCORRECT, f"unparseable report: {exc}"
    if not report["passed"] or code != 0:
        return FAILED, f"exit {code}, suite {report['suite']} did not pass"
    return OK, ""


WORKLOADS = {w.name: w for w in (CertifyCold, EvaluateWarm, ExactAlgebra, VerifyAll)}


def run_op(op: Op, clock) -> dict:
    """Time one operation and check its output."""
    if op.cold:
        clear_caches()
        gc.collect()
    start = clock()
    try:
        result = op.run()
    except VirminError as exc:
        elapsed = clock() - start
        return _record(op, elapsed, FAILED, f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # an untyped error is a defect, reported per op
        elapsed = clock() - start
        return _record(op, elapsed, INCORRECT, f"{type(exc).__name__}: {exc}")
    elapsed = clock() - start
    outcome, note = op.check(result)
    return _record(op, elapsed, outcome, note, op.diagnostic(result))


def _record(op, elapsed, outcome, note, diagnostic=None):
    rec = {"kind": op.kind, "label": op.label, "s": elapsed, "outcome": outcome}
    if note:
        rec["note"] = note
    if diagnostic:
        rec["diagnostic"] = diagnostic
    return rec
