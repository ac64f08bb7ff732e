"""The in-process memos: bounded, visible as module-level lru_caches,
and safe to share between callers."""

import hashlib
import importlib
import json
import pkgutil
import sys
from fractions import Fraction

import pytest

import virmin
from virmin import blocks, bpz, crossing, linalg, verma
from virmin.blocks import frobenius_expand
from virmin.bpz import CorrelatorSpec, indicial_exponents, indicial_polynomial, reduced_ode
from virmin.cache import GramCache
from virmin.errors import FusionError
from virmin.models import KacLabel, MinimalModel, central_charge, conformal_weight, reflect
from virmin.verma import VermaParams, gram_matrix, kac_determinant

SIGMA_SPEC = CorrelatorSpec(MinimalModel(3, 4), *[KacLabel(1, 2)] * 4)
ORDER4_SPEC = CorrelatorSpec(MinimalModel(5, 6), *[KacLabel(2, 3)] * 4)


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
        "virmin.blocks.frobenius_expand",
        "virmin.blocks._block_series",
        "virmin.crossing.correlator",
        "virmin.crossing.fusing_matrix",
        "virmin.verma._raise_monomial",
        "virmin.verma._normal_order",
        "virmin.fusion.fusion_table",
        "virmin.continuation._step_tables",
        "virmin.cli.build_parser",  # a cold benchmark op clears it, as a new process would
    ):
        assert name in caches, name
    for name, cached in caches.items():
        maxsize = cached.cache_info().maxsize
        assert maxsize is not None and maxsize > 0, name


def test_a_cold_gram_matrix_rebuilds_the_verma_tables():
    """With every module lru_cache emptied, as in a fresh process (and a
    cold benchmark op), a level-11 Gram matrix refills the raising,
    normal-ordering and basis tables: none is set up ahead of use."""
    caches = module_lru_caches()
    for cached in caches.values():
        cached.cache_clear()
    m56 = MinimalModel(5, 6)
    gram_matrix(VermaParams(central_charge(m56), conformal_weight(m56, KacLabel(2, 2))), 11)
    for name in ("_raise_monomial", "_normal_order", "pbw_basis"):
        assert caches[f"virmin.verma.{name}"].cache_info().misses > 0, name


def test_one_certification_builds_the_bases_once(monkeypatch):
    """The benchmark's certification sequence: the fit, the 5x5 CLI
    grid of associativity residuals and the commutativity check share
    one fusing matrix and one pair of bases."""
    crossing.correlator.cache_clear()
    crossing.fusing_matrix.cache_clear()  # also zeroes its hit and miss counts
    channel_basis = crossing.channel_basis
    calls = []

    def counted(*args):
        calls.append(args)
        return channel_basis(*args)

    monkeypatch.setattr(crossing, "channel_basis", counted)
    ode = reduced_ode(ORDER4_SPEC)[0]
    fm = crossing.fusing_matrix(ode, 60)
    for z1 in (0.9, 1.0, 1.1, 1.2, 1.3):
        for z in (0.52, 0.54, 0.56, 0.58, 0.60):
            crossing.associativity_residual(ORDER4_SPEC, z1, z * z1, 60)
    crossing.commutativity_residual(ORDER4_SPEC, 60)
    assert [point for _, point, _ in calls] == [0, 1]
    assert crossing.fusing_matrix.cache_info().misses == 1
    assert crossing.correlator(ORDER4_SPEC, 60).fusing is fm


def test_warm_evaluation_converts_nothing_again(monkeypatch):
    """A warm associativity residual reads its bases' float data and calls
    neither eval_local nor Rational.__float__; a warm block converts no
    exponent again."""
    counts = {"eval_local": 0, "__float__": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    original = blocks.eval_local
    for name, module in list(sys.modules.items()):
        if name.startswith("virmin") and getattr(module, "eval_local", None) is original:
            monkeypatch.setattr(module, "eval_local", counted("eval_local", original))
    block_spec = CorrelatorSpec(MinimalModel(4, 5), *[KacLabel(2, 2)] * 4)
    crossing.associativity_residual(ORDER4_SPEC, 1.0, 0.55)
    blocks.block(block_spec, KacLabel(1, 1), 0.3)
    # numbers.Rational.__float__, unless the Fraction class overrides it
    owner = next(c for c in Fraction.__mro__ if "__float__" in vars(c))
    monkeypatch.setattr(owner, "__float__", counted("__float__", owner.__float__))
    assert float(Fraction(1, 2)) == 0.5 and counts["__float__"] == 1
    counts.update(eval_local=0, __float__=0)
    crossing.associativity_residual(ORDER4_SPEC, 1.1, 0.6)
    assert counts == {"eval_local": 0, "__float__": 0}
    blocks.block(block_spec, KacLabel(1, 1), 0.35)
    assert counts["__float__"] == 0


def test_warm_evaluation_does_no_fraction_arithmetic(monkeypatch):
    """A warm block and a warm associativity residual hash, compare,
    subtract and build no Fraction: their memo keys are the spec (whose
    hash is computed once), the channel label and the order."""
    block_spec = CorrelatorSpec(MinimalModel(4, 5), *[KacLabel(2, 2)] * 4)
    crossing.associativity_residual(ORDER4_SPEC, 1.0, 0.55)
    blocks.block(block_spec, KacLabel(1, 1), 0.3)
    counts = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # __sub__ calls Fraction._sub through a closure, so it is counted here
    for name in ("__hash__", "__eq__", "__sub__", "__new__"):
        monkeypatch.setattr(Fraction, name, counted(name, getattr(Fraction, name)))
    assert Fraction(1, 2) - Fraction(1, 3) == Fraction(1, 6) and hash(Fraction(1, 2))
    assert {"__hash__", "__eq__", "__sub__", "__new__"} <= set(counts)
    counts.clear()
    crossing.associativity_residual(ORDER4_SPEC, 1.1, 0.6)
    blocks.block(block_spec, KacLabel(1, 1), 0.35)
    blocks.block(block_spec, KacLabel(1, 1), 0.4, 50)
    assert counts == {}


def test_one_block_memo_entry_serves_every_spelling_of_the_order():
    """block(s, c, z), block(s, c, z, 50) and block(s, c, z, order=50)
    read one entry; a reflected channel label has its own entry but the
    same FrobeniusSeries."""
    spec = CorrelatorSpec(MinimalModel(4, 5), *[KacLabel(2, 2)] * 4)
    channel = KacLabel(1, 3)
    blocks._block_series.cache_clear()  # also zeroes its hit and miss counts
    first = blocks.block(spec, channel, 0.3)
    assert blocks.block(spec, channel, 0.3, 50) == first
    assert blocks.block(spec, channel, 0.3, order=50) == first
    info = blocks._block_series.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 2, 1)
    reflected = reflect(spec.model, channel)
    assert reflected != channel
    assert blocks.block(spec, reflected, 0.3) == first
    series = blocks._block_series(spec, channel, 50)[0]
    assert blocks._block_series(spec, reflected, 50)[0] is series
    assert blocks._block_series.cache_info().currsize == 2


def test_warm_channel_reads_do_no_fusion_or_weight_arithmetic(monkeypatch):
    """A warm block and a warm channel_exponents read the spec's channel
    table: no fusion_rule and no conformal_weight call.  An equal spec
    built afresh builds its own table and still hits the reduced_ode memo."""
    counts = {"fusion_rule": 0, "conformal_weight": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    labels = [KacLabel(2, 2)] * 4
    spec = CorrelatorSpec(MinimalModel(4, 5), *labels)
    blocks.block(spec, KacLabel(1, 1), 0.3)
    channels = bpz.allowed_channels(spec)
    for name in counts:
        monkeypatch.setattr(bpz, name, counted(name, getattr(bpz, name)))
    blocks.block(spec, KacLabel(1, 1), 0.35)
    for channel in channels:
        bpz.channel_exponents(spec, channel)
    assert len(channels) > 1 and counts == {"fusion_rule": 0, "conformal_weight": 0}
    fresh = CorrelatorSpec(MinimalModel(4, 5), *labels)
    assert fresh == spec and fresh is not spec and hash(fresh) == hash(spec)
    assert bpz.allowed_channels(fresh) == channels
    assert counts["fusion_rule"] > 0 and counts["conformal_weight"] > 0
    hits = reduced_ode.cache_info().hits
    assert reduced_ode(fresh) is reduced_ode(spec)
    assert reduced_ode.cache_info().hits == hits + 2


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
    again = at_one.shifted_to_one  # u = 1 - z is an involution
    assert again is not ode and again == ode and hash(again) == hash(ode)
    for local in (ode, at_one):
        shifts = local.frobenius_shifts
        assert shifts is local.frobenius_shifts
        assert isinstance(shifts, tuple) and all(isinstance(a, tuple) for a in shifts)
        assert not local.complex_coefficients.flags.writeable
    assert indicial_polynomial(ode, 0) is ode.frobenius_shifts[0]
    assert indicial_polynomial(ode, 1) is at_one.frobenius_shifts[0]


def test_gram_cache_file_format_is_stable(tmp_path):
    # bytes and file name as written by every earlier version of the cache
    GramCache(tmp_path).store(gram_matrix(VermaParams(Fraction(-22, 5), Fraction(-1, 5)), 3))
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


M56_C = Fraction(4, 5)
LEVEL_11_RECORDS = [  # name, size and sha256 of the records written before the mirrored build
    (Fraction(1, 40), "gram-2faad3a68ea1ae678c8430fc136ad734.json", 45003,
     "b67f96c24e65ae017c7589fa382dd2605cb7d7b15902cfd0bf9ff5f672a43264"),
    (Fraction(38, 1515), "gram-9db37157e68159af6d7f4fb3756649b4.json", 88472,
     "e7518faa4c391b209417f2d3c75f383f0a9743948d3ac8d2c27c414b2e8af150"),
]


@pytest.mark.parametrize("h, name, size, digest", LEVEL_11_RECORDS, ids=["h_2,2", "off-table"])
def test_level_11_gram_records_are_byte_identical(tmp_path, h, name, size, digest):
    """The level-11 Gram records of a cold kac_determinant at the M(5,6)
    weights of the exact-algebra benchmark, h_(2,2) and h_(2,2) + 1/12120;
    a loaded record, whose mirror entries are distinct objects, is written
    back to the same bytes."""
    params = VermaParams(M56_C, h)
    kac_determinant(params, 11, GramCache(tmp_path / "cold"))
    (path,) = (tmp_path / "cold").glob("gram-*.json")
    data = path.read_bytes()
    assert (path.name, len(data), hashlib.sha256(data).hexdigest()) == (name, size, digest)
    GramCache(tmp_path / "again").store(GramCache(tmp_path / "cold").load(params, 11))
    assert (tmp_path / "again" / name).read_bytes() == data


def test_memos_are_keyed_by_value_not_by_spelling():
    """The README sequence, fusing_matrix(ode) and then a residual at the
    default order, fits the basis change once; every spelling of the
    default reduced_ode call derives the ODE once."""
    crossing.correlator.cache_clear()
    crossing.fusing_matrix.cache_clear()
    ode = reduced_ode(SIGMA_SPEC)[0]
    fm = crossing.fusing_matrix(ode)
    crossing.associativity_residual(SIGMA_SPEC, 1.0, 0.8)
    assert crossing.fusing_matrix.cache_info().misses == 1
    assert crossing.fusing_matrix(ode, order=60) is fm
    assert crossing.correlator(SIGMA_SPEC) is crossing.correlator(SIGMA_SPEC, order=60)
    assert crossing.correlator.cache_info().misses == 1
    reduced_ode.cache_clear()
    first = reduced_ode(SIGMA_SPEC)
    assert reduced_ode(SIGMA_SPEC, None, "slot3") is first
    assert reduced_ode(SIGMA_SPEC, route="slot3") is first
    assert reduced_ode(SIGMA_SPEC, anchor_channel=None) is first
    assert reduced_ode.cache_info().misses == 1


def test_the_default_anchor_and_the_first_channel_share_one_memo_entry():
    """reduced_ode(spec) resolves its anchor to the first allowed channel
    before the memo, so spelling that channel out derives nothing again;
    a correlator with no allowed channel still raises FusionError."""
    for spec in (SIGMA_SPEC, ORDER4_SPEC):
        reduced_ode.cache_clear()
        first = reduced_ode(spec)
        assert reduced_ode(spec, bpz.allowed_channels(spec)[0]) is first
        assert first[2] == bpz.allowed_channels(spec)[0]
        assert reduced_ode.cache_info().misses == 1
    sigma, eps = KacLabel(1, 2), KacLabel(2, 1)
    closed = CorrelatorSpec(MinimalModel(3, 4), eps, sigma, sigma, sigma)
    assert bpz.allowed_channels(closed) == []
    with pytest.raises(FusionError):
        reduced_ode(closed)


def test_kacdet_record_file_format_is_stable(tmp_path):
    params = VermaParams(Fraction(-22, 5), Fraction(1, 3))
    assert kac_determinant(params, 3, cache=GramCache(tmp_path)) == Fraction(22528, 81)
    (path,) = tmp_path.glob("kacdet-*.json")
    assert path.name == "kacdet-ab5ed016c90ccaaf28c0407fda6d33dd.json"
    assert path.read_bytes() == (
        b'{"schema_version": 1, "operation": "kacdet", "c": "-22/5", "h": "1/3", '
        b'"level": 3, "determinant": "22528/81"}'
    )
    assert len(list(tmp_path.glob("gram-*.json"))) == 1
    assert GramCache(tmp_path).load_determinant(params, 3) == Fraction(22528, 81)


def refuse(*args):
    raise AssertionError("recomputed what the cache holds")


def test_warm_kac_determinant_reads_only_its_record(tmp_path, monkeypatch):
    params = VermaParams(Fraction(7, 3), Fraction(-2, 5))
    cold = kac_determinant(params, 6, GramCache(tmp_path))
    assert cold != 0
    monkeypatch.setattr(linalg, "det", refuse)
    monkeypatch.setattr(verma, "_kac_product", refuse)
    monkeypatch.setattr(verma, "_gram_entries", refuse)
    monkeypatch.setattr(GramCache, "load", refuse)
    assert kac_determinant(params, 6, GramCache(tmp_path)) == cold


def test_kac_determinant_over_a_cached_gram_neither_rebuilds_nor_eliminates_it(
    tmp_path, monkeypatch
):
    # a directory that holds only the Gram, as earlier versions of the cache left it
    params = VermaParams(Fraction(1, 2), Fraction(1, 16))
    GramCache(tmp_path).store(gram_matrix(params, 4))
    monkeypatch.setattr(verma, "_gram_entries", refuse)
    monkeypatch.setattr(linalg, "det", refuse)
    assert kac_determinant(params, 4, GramCache(tmp_path)) == 0
    assert len(list(tmp_path.glob("kacdet-*.json"))) == 1


def test_a_record_of_another_schema_version_is_a_miss(tmp_path):
    cache = GramCache(tmp_path)
    params = VermaParams(Fraction(7, 3), Fraction(-2, 5))
    cold = kac_determinant(params, 4, cache)
    (path,) = tmp_path.glob("kacdet-*.json")
    record = json.loads(path.read_text())
    path.write_text(json.dumps({**record, "schema_version": 0, "determinant": "1/1"}))
    assert cache.load_determinant(params, 4) is None
    assert kac_determinant(params, 4, cache) == cold
    assert json.loads(path.read_text()) == record


@pytest.mark.parametrize(
    "pattern, text",
    [
        ("kacdet-*.json", "{not json"),
        ("kacdet-*.json", '{"schema_version": 1, "determinant": "1/0"}'),
        ("gram-*.json", "{not json"),
        ("gram-*.json", '{"schema_version": 1, "basis": [[1]], "entries": [["1/0"]]}'),
    ],
    ids=["det-not-json", "det-zero-denominator", "gram-not-json", "gram-zero-denominator"],
)
def test_a_record_that_does_not_parse_is_a_miss_and_is_rewritten(tmp_path, pattern, text):
    cache = GramCache(tmp_path)
    params = VermaParams(Fraction(7, 3), Fraction(-2, 5))
    cold = kac_determinant(params, 4, cache)
    (path,) = tmp_path.glob(pattern)
    record = path.read_text()
    path.write_text(text)
    load = cache.load_determinant if pattern.startswith("kacdet") else cache.load
    assert load(params, 4) is None
    if pattern.startswith("gram"):  # the Gram record is reread on a determinant miss only
        next(tmp_path.glob("kacdet-*.json")).unlink()
    assert kac_determinant(params, 4, cache) == cold
    assert path.read_text() == record
