"""The in-process memos: bounded, visible as module-level lru_caches,
and safe to share between callers."""

import importlib
import pkgutil

import virmin
from virmin.blocks import frobenius_expand
from virmin.bpz import CorrelatorSpec, indicial_exponents, reduced_ode
from virmin.models import KacLabel, MinimalModel

SIGMA_SPEC = CorrelatorSpec(MinimalModel(3, 4), *[KacLabel(1, 2)] * 4)


def module_lru_caches() -> dict:
    """Every lru_cache bound to a module attribute of a virmin module."""
    found = {}
    for info in pkgutil.iter_modules(virmin.__path__, "virmin."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if callable(getattr(value, "cache_info", None)):
                found[f"{value.__module__}.{value.__qualname__}"] = value
    return found


def test_exact_memos_are_bounded_module_lru_caches():
    caches = module_lru_caches()
    for name in (
        "virmin.bpz._indicial_exponents",
        "virmin.blocks.frobenius_expand",
        "virmin.crossing._pipeline",
        "virmin.verma._raise_monomial",
        "virmin.verma._normal_order",
        "virmin.fusion.fusion_table",
        "virmin.continuation._step_tables",
    ):
        assert name in caches, name
        maxsize = caches[name].cache_info().maxsize
        assert maxsize is not None and maxsize > 0, name


def test_indicial_exponents_returns_a_fresh_list():
    ode = reduced_ode(SIGMA_SPEC)[0]
    first = indicial_exponents(ode, 1)
    want = list(first)
    first.append(first[0])
    first[0] = 99
    assert indicial_exponents(ode, 1) == want


def test_complex_coefficients_match_exact_coefficients():
    ode = reduced_ode(SIGMA_SPEC)[0]
    for point in (0, 1):
        for rho in indicial_exponents(ode, point):
            series = frobenius_expand(ode, point, rho, 40)
            assert len(series.complex_coefficients) == len(series.coefficients)
            for k, c in enumerate(series.coefficients):
                assert series.complex_coefficients[k] == complex(c)


def test_ode_complex_coefficients_match_exact_coefficients():
    ode = reduced_ode(SIGMA_SPEC)[0]
    arr = ode.complex_coefficients
    assert arr is ode.complex_coefficients
    assert not arr.flags.writeable
    assert arr.shape == (ode.order + 1, max(len(c) for c in ode.coefficients))
    for i, c in enumerate(ode.coefficients):
        assert list(arr[i]) == [complex(v) for v in c] + [0j] * (arr.shape[1] - len(c))
