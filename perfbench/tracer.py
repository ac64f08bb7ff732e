"""Spans recorded from outside the program, by rebinding its functions.

virmin binds functions across modules with `from .x import f`, so a
wrapper has to replace every module attribute (and every dict value,
such as verify.SUITES) that refers to the original.  Each call opens a
span with its name, start, end, parent span and operation id; spans stay
in memory until the run ends.  A span's self time is its duration minus
the durations of its direct children, which run one after another inside
it.  Untraced runs never import this module, so they patch nothing.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import defaultdict
from math import gcd, lcm
from pathlib import Path
from time import perf_counter


def _const_bits(args, result) -> dict:
    """Bit length of the constant term of the primitive integer form of
    the polynomial handed to rational_roots (it bounds trial division)."""
    coeffs = list(args[0])
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    if not coeffs:
        return {}
    den = lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    return {"poly.const_bits_max": abs(ints[0] // gcd(*ints)).bit_length()}


def _coeff_bits(args, result) -> dict:
    bits = max(max(c.numerator.bit_length(), c.denominator.bit_length())
               for c in result.coefficients)
    return {"blocks.coeff_bits_max": bits}


def _ode_order(args, result) -> dict:
    return {"bpz.ode_order_max": result.order}


def _gram_dim(args, result) -> dict:
    return {"verma.gram_dim_max": len(result.basis)}


def _cache_hit(args, result) -> dict:
    return {"cache.hits": int(result is not None)}


# (module, attribute, span name, fact taken from the arguments and result)
TARGETS = [
    ("virmin.poly", "rational_roots", "poly.rational_roots", _const_bits),
    ("virmin.bpz", "reduced_ode", "bpz.reduced_ode", None),
    ("virmin.bpz", "derive_pde_slot3", "bpz.derive_pde", None),
    ("virmin.bpz", "derive_pde_slot2", "bpz.derive_pde", None),
    ("virmin.bpz", "reduce_to_ode", "bpz.reduce_to_ode", _ode_order),
    ("virmin.bpz", "indicial_exponents", "bpz.indicial_exponents", None),
    ("virmin.verma", "singular_vectors", "verma.singular_vectors", None),
    ("virmin.verma", "gram_matrix", "verma.gram_matrix", _gram_dim),
    ("virmin.linalg", "det", "linalg.det", None),
    ("virmin.linalg", "nullspace", "linalg.nullspace", None),
    ("virmin.cache", "GramCache.load", "cache.load", _cache_hit),
    ("virmin.cache", "GramCache.store", "cache.store", None),
    ("virmin.fusion", "fusion_table", "fusion.fusion_table", None),
    ("virmin.fusion", "verify_ring_axioms", "fusion.verify_ring_axioms", None),
    ("virmin.blocks", "frobenius_expand", "blocks.frobenius_expand", _coeff_bits),
    ("virmin.blocks", "eval_local", "blocks.eval_local", None),
    ("virmin.blocks", "eval_local_derivatives", "blocks.eval_local_derivatives", None),
    ("virmin.blocks", "evaluate_series", "blocks.evaluate_series", None),
    ("virmin.blocks", "block", "blocks.block", None),
    ("virmin.crossing", "channel_basis", "crossing.channel_basis", None),
    ("virmin.crossing", "fusing_matrix", "crossing.fusing_matrix", None),
    ("virmin.crossing", "associativity_residual", "crossing.associativity_residual", None),
    ("virmin.crossing", "commutativity_residual", "crossing.commutativity_residual", None),
    ("virmin.continuation", "continue_along", "continuation.continue_along", None),
    ("virmin.continuation", "taylor_step", "continuation.taylor_step", None),
    ("virmin.cli", "main", "cli.main", None),
]


def suite_targets() -> list:
    verify = importlib.import_module("virmin.verify")
    return [
        ("virmin.verify", fn.__name__, "verify." + name.replace("-", "_"), None)
        for name, fn in verify.SUITES.items()
    ]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.stack: list[int] = []
        self.op_id = 0
        self.facts: dict[str, int] = {}

    def _fact(self, values: dict) -> None:
        for key, value in values.items():
            if key.endswith("_max"):
                self.facts[key] = max(self.facts.get(key, 0), value)
            else:
                self.facts[key] = self.facts.get(key, 0) + value

    def wrap(self, name: str, fn, fact=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, tracer.stack[-1] if tracer.stack else -1,
                    tracer.op_id]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                tracer.stack.pop()
            if fact is not None:
                tracer._fact(fact(args, result))
            return result

        return traced

    def install(self) -> None:
        """Rebind every target in every loaded virmin module namespace."""
        targets = TARGETS + suite_targets()
        for module_name, _, _, _ in targets:
            importlib.import_module(module_name)
        modules = [m for n, m in sys.modules.items() if n == "virmin" or n.startswith("virmin.")]
        for module_name, attr, name, fact in targets:
            owner = sys.modules[module_name]
            if "." in attr:  # a method: rebinding the class attribute suffices
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(name, vars(cls)[meth], fact))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(name, original, fact)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                    elif isinstance(value, dict):
                        for dkey, dvalue in value.items():
                            if dvalue is original:
                                value[dkey] = traced

    def summary(self) -> tuple[dict, dict, dict]:
        """Self time, total time and call count per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
            total_s[name] += end - start
            calls[name] += 1
        return self_s, total_s, calls

    def layer_metrics(self) -> dict:
        """The per-layer metrics, named as in BENCHMARK.json."""
        self_s, total_s, calls = self.summary()
        facts = self.facts

        def s(*names):
            return sum(self_s.get(n, 0.0) for n in names)

        def n(*names):
            return sum(calls.get(n, 0) for n in names)

        out = {
            "poly.roots_s": s("poly.rational_roots"),
            "poly.roots_calls": n("poly.rational_roots"),
            "poly.const_bits_max": facts.get("poly.const_bits_max", 0),
            "blocks.series_s": s("blocks.frobenius_expand"),
            "blocks.series_calls": n("blocks.frobenius_expand"),
            "blocks.coeff_bits_max": facts.get("blocks.coeff_bits_max", 0),
            "blocks.eval_s": s("blocks.eval_local", "blocks.eval_local_derivatives",
                               "blocks.evaluate_series"),
            "blocks.eval_calls": n("blocks.eval_local", "blocks.eval_local_derivatives"),
            "blocks.block_s": s("blocks.block"),
            "crossing.basis_calls": n("crossing.channel_basis"),
            "crossing.fit_s": s("crossing.fusing_matrix"),
            "crossing.residual_s": s("crossing.associativity_residual"),
            "crossing.commutativity_s": s("crossing.commutativity_residual"),
            "continuation.transport_s": s("continuation.continue_along",
                                          "continuation.taylor_step"),
            "continuation.taylor_steps": n("continuation.taylor_step"),
            "bpz.pde_s": s("bpz.derive_pde"),
            "bpz.reduce_s": s("bpz.reduce_to_ode"),
            "bpz.indicial_s": s("bpz.indicial_exponents"),
            "bpz.ode_order_max": facts.get("bpz.ode_order_max", 0),
            "verma.singular_s": s("verma.singular_vectors"),
            "verma.singular_calls": n("verma.singular_vectors"),
            "verma.gram_s": s("verma.gram_matrix"),
            "verma.gram_dim_max": facts.get("verma.gram_dim_max", 0),
            "linalg.det_s": s("linalg.det"),
            "linalg.nullspace_s": s("linalg.nullspace"),
            "cache.load_s": s("cache.load"),
            "cache.store_s": s("cache.store"),
            "cache.hit_ratio": facts.get("cache.hits", 0) / n("cache.load") if n("cache.load") else 0.0,
            "fusion.table_s": s("fusion.fusion_table"),
            "fusion.ring_check_s": s("fusion.verify_ring_axioms"),
            "cli.busy_s": s("cli.main"),
        }
        for _, _, name, _ in suite_targets():  # whole suites, children included
            out[name + "_s"] = total_s.get(name, 0.0)
        return out

    def counts(self) -> dict:
        """Bases of the ratios: cache loads and hits."""
        _, _, calls = self.summary()
        return {"cache.loads": calls.get("cache.load", 0),
                "cache.hits": self.facts.get("cache.hits", 0)}

    def dump(self, path: Path) -> None:
        """Write the spans, with times relative to the first one."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[name, start - t0, end - t0, parent, op]
                for name, start, end, parent, op in self.spans]
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op"],
                                    "spans": rows}))
