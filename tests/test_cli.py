import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from exact_oracles import ode_from_jsonable, pbw_from_jsonable
from virmin import cli, crossing
from virmin.bpz import ODESpec
from virmin.cli import build_parser, main
from virmin.errors import ConditioningError
from virmin.fusion import fuse, fusion_table
from virmin.models import KacLabel, MinimalModel
from virmin.serialize import (
    frac_str,
    label_str,
    ode_to_jsonable,
    parse_frac,
    parse_label,
    pbw_str,
    pbw_to_jsonable,
)
from virmin.verma import PBWVector

F = Fraction


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_kac_table_human(capsys):
    code, out, _ = run_cli(capsys, "kac-table", "3", "4")
    assert code == 0
    assert "c = 1/2" in out
    assert "(1,2)   h = 1/16" in out
    assert "(2,1)   h = 1/2" in out


def test_kac_table_json(capsys):
    code, out, _ = run_cli(capsys, "kac-table", "3", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["schema_version"] == 1
    assert data["central_charge"] == "1/2"
    weights = {e["label"]: e["weight"] for e in data["entries"]}
    assert weights == {"1,1": "0/1", "1,2": "1/16", "2,1": "1/2"}


def test_fuse_output(capsys):
    code, out, _ = run_cli(capsys, "fuse", "3", "4", "2,2", "2,2")
    assert code == 0
    assert out.strip() == "(1,1) (2,1)"


def test_fusion_table_rows_agree_with_fuse_and_multiplicity(capsys):
    """Every product the (9,10) table prints, in JSON and in text, lists
    the channels fuse returns and multiplicity counts, in label order."""
    model = MinimalModel(9, 10)
    ft = fusion_table(model)
    _, out, _ = run_cli(capsys, "fusion-table", "9", "10", "--format", "json")
    products = json.loads(out)["products"]
    _, text, _ = run_cli(capsys, "fusion-table", "9", "10")
    lines = text.splitlines()[1:]
    k = len(ft.labels)
    assert len(products) == len(lines) == k * (k + 1) // 2
    for entry, line in zip(products, lines):
        a, b = parse_label(entry["a"]), parse_label(entry["b"])
        want = [c for c in ft.labels if ft.multiplicity(a, b, c)]
        assert set(want) == fuse(model, a, b)
        assert entry["channels"] == [label_str(c) for c in want]
        assert line == f"  ({a.m},{a.n}) x ({b.m},{b.n}) = " + " + ".join(
            f"({c.m},{c.n})" for c in want
        )


def test_singular_output(capsys):
    code, out, _ = run_cli(capsys, "singular", "3", "4", "2", "1", "--max-level", "4")
    assert code == 0
    assert "level 2: L(-2) - 3/4 L(-1)^2" in out


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_singular_below_the_null_level_reports_no_vectors(fmt, capsys):
    code, out, err = run_cli(
        capsys, "singular", "3", "4", "2", "1", "--max-level", "1", "--format", fmt
    )
    assert code == 0 and err == ""
    if fmt == "json":
        assert json.loads(out)["vectors"] == []
    else:
        assert out == "no singular vectors through level 1\n"


def test_an_ill_conditioned_solve_exits_4(capsys, monkeypatch):
    def ill_conditioned(spec, order):
        raise ConditioningError("condition number 1e13")

    monkeypatch.setattr(cli, "correlator", ill_conditioned)
    code, out, err = run_cli(capsys, "crossing", "3", "4", "--labels", "1,2", "1,2", "1,2", "1,2")
    assert code == 4
    assert out == "" and err == "error: condition number 1e13\n"


def test_a_non_virmin_exception_is_an_internal_error(capsys, monkeypatch):
    def broken(model):
        raise RuntimeError("table lost")

    monkeypatch.setattr(cli, "kac_table", broken)
    code, out, err = run_cli(capsys, "kac-table", "3", "4")
    assert code == 5
    assert out == "" and err == "internal error: table lost\n"


def test_gcd_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "kac-table", "4", "6")
    assert code == 3
    assert "coprime" in err


def test_domain_error_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "block", "3", "4",
        "--labels", "1,2", "1,2", "1,2", "1,2",
        "--channel", "1,2", "--z", "0.3",
    )
    assert code == 3  # sigma not allowed in sigma x sigma


@pytest.mark.parametrize("channel", ["1,1", "2,1"])
@pytest.mark.parametrize("z", ["0", "nan"])
def test_block_at_the_branch_point_or_nan_is_a_domain_error(channel, z, capsys):
    code, out, err = run_cli(
        capsys, "block", "3", "4",
        "--labels", "1,2", "1,2", "1,2", "1,2",
        "--channel", channel, "--z", z,
    )
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "internal error" not in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["kac-table", "3"])  # missing q
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["kac-table", "3", "4", "--unknown-flag"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["fuse", "3", "4", "1,x", "1,2"],
        ["crossing", "3", "4", "--labels", "1,2", "1,2", "1,2", "1,2", "--grid-z", "0.5,abc"],
    ],
    ids=["label", "grid"],
)
def test_malformed_input_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: virmin")
    assert "internal error" not in err


def test_bpz_json_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys, "bpz", "3", "4",
        "--labels", "1,2", "1,2", "1,2", "1,2",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    ode = ode_from_jsonable(data["ode"])
    assert ode.order == 2
    assert data["indicial_exponents"]["0"] == ["0/1", "1/2"]
    assert data["anchor"] == {"t1": "0/1", "t2": "-1/8"}


LABELS = ["--labels", "2,1", "1,2", "1,2", "2,1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["kac-table", "3", "4"],
        ["fuse", "3", "4", "2,2", "2,2"],
        ["fusion-table", "3", "4"],
        ["singular", "3", "4", "2", "1"],
        ["bpz", "3", "4", *LABELS],
        ["block", "3", "4", *LABELS, "--channel", "1,2", "--z", "0.3"],
        ["crossing", "3", "4", *LABELS],
        ["verify", "kac-data"],
    ],
)
def test_json_envelope(argv, capsys):
    # every subcommand names itself, and the model and correlator labels
    # when it takes them, in the labels' command-line order
    _, out, _ = run_cli(capsys, *argv, "--format", "json")
    data = json.loads(out)
    assert data["schema_version"] == 1
    assert data["command"] == argv[0]
    if argv[0] == "verify":
        assert "model" not in data and "labels" not in data
    else:
        assert data["model"] == {"p": 3, "q": 4}
        assert data.get("labels") == (LABELS[1:] if "--labels" in argv else None)


def test_block_value(capsys):
    import math

    code, out, _ = run_cli(
        capsys, "block", "3", "4",
        "--labels", "1,2", "1,2", "1,2", "1,2",
        "--channel", "1,1", "--z", "0.3", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    ref = 0.3 ** -0.125 * 0.7 ** -0.125 * math.sqrt((1 + math.sqrt(0.7)) / 2)
    assert abs(data["value"]["re"] - ref) < 1e-10
    assert abs(data["value"]["im"]) < 1e-12


def test_crossing_report(capsys):
    code, out, _ = run_cli(
        capsys, "crossing", "3", "4",
        "--labels", "1,2", "1,2", "1,2", "1,2",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["max_residual"] < 1e-8
    assert data["fusing_residual"] < 1e-8
    assert data["region"] == "|z1| > |z2| > |z1 - z2| > 0"
    assert len(data["fusing_matrix"]) == 2


@pytest.mark.parametrize(
    "extra, code", [((), 0), (("--order", "3"), 1), (("--order", "3", "--format", "json"), 1)]
)
def test_crossing_exits_1_when_a_residual_misses_the_grid_tolerance(capsys, extra, code):
    """The report is printed either way; at order 3 the grid residual is
    5.3e-3, above crossing.GRID_TOL, so the command exits 1."""
    labels = ("--labels", "1,2", "1,2", "1,2", "1,2")
    got, out, err = run_cli(capsys, "crossing", "3", "4", *labels, *extra)
    assert got == code
    assert err == ""
    if "json" in extra:
        data = json.loads(out)
        assert data["max_residual"] >= crossing.GRID_TOL
        assert set(data) >= {"fusing_matrix", "fusing_residual", "max_residual", "order"}
    else:
        assert "max associativity residual on grid: " in out
        worst = float(out.rsplit(": ", 1)[1])
        assert (worst >= crossing.GRID_TOL) == (code == 1)


def test_verify_suite_exit(capsys):
    code, out, _ = run_cli(capsys, "verify", "kac-data")
    assert code == 0
    assert out.startswith("PASS kac-data")


def test_verify_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nonsense"])
    assert exc.value.code == 2


def test_verify_has_no_cache_dir_flag(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "kac-data", "--cache-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --cache-dir" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_verify_reads_no_cache_directory_from_the_environment(capsys, monkeypatch, tmp_path):
    """VIRMIN_CACHE_DIR is not read: naming a file, it neither fails the
    call nor gets written, and the parser is still built once."""
    afile = tmp_path / "afile"
    afile.write_text("")
    parser = build_parser()
    monkeypatch.setenv("VIRMIN_CACHE_DIR", str(afile))
    for suite in ("kac-data", "kac-determinant"):
        code, out, err = run_cli(capsys, "verify", suite)
        assert (code, err) == (0, "") and out.startswith(f"PASS {suite}")
    assert list(tmp_path.iterdir()) == [afile] and afile.read_text() == ""
    assert build_parser() is parser


def test_serialize_roundtrips():
    for x in (F(3, 7), F(-22, 5), F(0), F(5)):
        assert parse_frac(frac_str(x)) == x
    for text in ("5", "1/2/3"):  # frac_str writes every Fraction as n/d
        with pytest.raises(ValueError):
            parse_frac(text)
    for lab in (KacLabel(1, 2), KacLabel(11, 3)):
        assert parse_label(label_str(lab)) == lab
    vec = PBWVector(3, {(3,): F(1), (2, 1): F(-4), (1, 1, 1): F(4, 3)})
    assert pbw_from_jsonable(pbw_to_jsonable(vec)) == vec
    ode = ODESpec(((F(0), F(-3, 64)), (F(1, 2), F(-7, 4), F(5, 4)), (F(0), F(1), F(-2), F(1))))
    assert ode_from_jsonable(ode_to_jsonable(ode)) == ode


def test_pbw_str_format():
    vec = PBWVector(2, {(2,): F(1), (1, 1): F(-3, 4)})
    assert pbw_str(vec) == "L(-2) - 3/4 L(-1)^2"
    assert pbw_str(PBWVector(1, {(1,): F(1)})) == "L(-1)"


# Runs virmin.cli.main on argv, then prints its exit code and wall time.
TIMED_MAIN = """
import json, sys, time
from virmin.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print(json.dumps({"code": code, "seconds": time.perf_counter() - start}), file=sys.stderr)
"""


@pytest.mark.parametrize("route", ["slot3", "slot2"])
def test_bpz_order_8_returns_within_a_second(route):
    """M(5,8) <(2,4)^4> has an order-8 ODE whose indicial polynomials have
    ~2^51 leading coefficients; a root search on them does not return.
    The command runs in its own process under a timeout, so a hang fails
    the test instead of stalling the suite."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": f"{src}{os.pathsep}{os.environ.get('PYTHONPATH', '')}"}
    argv = ["bpz", "5", "8", "--labels", "2,4", "2,4", "2,4", "2,4", "--route", route,
            "--format", "json"]
    proc = subprocess.run([sys.executable, "-c", TIMED_MAIN, *argv], capture_output=True,
                          text=True, env=env, timeout=30)
    assert proc.returncode == 0, proc.stderr
    timing = json.loads(proc.stderr.strip().splitlines()[-1])
    assert timing["code"] == 0 and timing["seconds"] < 1.0
    data = json.loads(proc.stdout)
    assert data["ode"]["order"] == 8
    assert all(len(exps) == 8 for exps in data["indicial_exponents"].values())
