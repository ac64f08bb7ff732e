"""The in-process memos: bounded, visible as module-level lru_caches,
and safe to share between callers."""

import importlib
import pkgutil
from fractions import Fraction

import virmin
from virmin.blocks import frobenius_expand
from virmin.bpz import CorrelatorSpec, indicial_exponents, indicial_polynomial, reduced_ode
from virmin.cache import GramCache
from virmin.models import KacLabel, MinimalModel
from virmin.verma import VermaParams, gram_matrix

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
        "virmin.bpz.reduced_ode",
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


def test_ode_local_data_is_built_once():
    ode = reduced_ode(CorrelatorSpec(MinimalModel(5, 6), *[KacLabel(2, 3)] * 4))[0]
    at_one = ode.shifted_to_one
    assert at_one is ode.shifted_to_one
    assert at_one.shifted_to_one == ode  # u = 1 - z is an involution
    for local in (ode, at_one):
        shifts = local.frobenius_shifts
        assert shifts is local.frobenius_shifts
        assert isinstance(shifts, tuple) and all(isinstance(a, tuple) for a in shifts)
        assert not local.complex_coefficients.flags.writeable
    assert indicial_polynomial(ode, 0) is ode.frobenius_shifts[0]
    assert indicial_polynomial(ode, 1) is at_one.frobenius_shifts[0]


def test_gram_cache_file_format_is_stable(tmp_path):
    # bytes and file name as written by every earlier version of the cache
    gram_matrix(VermaParams(Fraction(-22, 5), Fraction(-1, 5)), 3, cache=GramCache(tmp_path))
    (path,) = tmp_path.glob("gram-*.json")
    assert path.name == "gram-8b03b9a1cde3eb8240c398d7b635dc53.json"
    assert path.read_bytes() == (
        b'{"schema_version": 1, "operation": "gram", "c": "-22/5", "h": "-1/5", '
        b'"level": 3, "basis": [[3], [2, 1], [1, 1, 1]], "entries": '
        b'[["-10/1", "-2/1", "-24/5"], ["-2/1", "-2/5", "-24/25"], '
        b'["-24/5", "-24/25", "-288/125"]]}'
    )
    loaded = GramCache(tmp_path).load(VermaParams(Fraction(-22, 5), Fraction(-1, 5)), 3)
    assert loaded.entries[2][2] == Fraction(-288, 125)
