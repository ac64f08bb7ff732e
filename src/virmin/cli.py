"""Command-line surface for the library.

Every subcommand prints either a human-readable table (default) or a
structured JSON document (--format json) in which exact rationals
appear as "numerator/denominator" strings.  Exit codes: 0 success,
1 verification failure, 2 usage error, 3 domain error (bad labels,
out-of-region points, disallowed channels), 4 ill-conditioned solve,
5 internal error.

The argument parser is built once per process (`build_parser` is a
one-entry lru_cache), so in-process callers such as a test suite or a
harness calling `main` per command pay for it once.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .blocks import BLOCK_ORDER, block
from .bpz import CorrelatorSpec, channel_exponents, indicial_exponents, reduced_ode
from .crossing import (
    GRID_TOL,
    GRID_Z,
    GRID_Z1,
    ORDER as CROSSING_ORDER,
    associativity_residual,
    correlator,
)
from .errors import ConditioningError, VirminError
from .fusion import fuse, fusion_table
from .models import KacLabel, MinimalModel, central_charge, kac_table
from .serialize import (
    SCHEMA_VERSION,
    frac_str,
    label_str,
    ode_to_jsonable,
    parse_label,
    pbw_str,
    pbw_to_jsonable,
)
from .verify import SUITES
from .verma import singular_vectors

USAGE_EXIT = 2
DOMAIN_EXIT = 3
CONDITIONING_EXIT = 4
INTERNAL_EXIT = 5


def _emit(args, payload: dict, human: str) -> None:
    """Print the human text, or the JSON payload inside the envelope every
    subcommand shares: schema version, command, and the model and
    correlator labels when the subcommand takes them."""
    if args.format == "json":
        envelope = {"schema_version": SCHEMA_VERSION, "command": args.command}
        if hasattr(args, "p"):
            envelope["model"] = {"p": args.p, "q": args.q}
        if hasattr(args, "labels"):
            envelope["labels"] = [label_str(l) for l in args.labels]
        print(json.dumps({**envelope, **payload}, indent=2, sort_keys=True))
    else:
        print(human)


def _model(args) -> MinimalModel:
    return MinimalModel(args.p, args.q)


def float_list(s: str) -> list[float]:
    """A comma-separated list of floats, as in --grid-z 0.52,0.54."""
    return [float(x) for x in s.split(",")]


def cmd_kac_table(args) -> int:
    model = _model(args)
    rows = kac_table(model)
    payload = {
        "central_charge": frac_str(central_charge(model)),
        "entries": [
            {"label": label_str(lab), "weight": frac_str(h)} for lab, h in rows
        ],
    }
    lines = [f"minimal model ({model.p},{model.q}), c = {central_charge(model)}"]
    lines += [f"  ({lab.m},{lab.n})   h = {h}" for lab, h in rows]
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_fuse(args) -> int:
    model = _model(args)
    a, b = args.a, args.b
    out = sorted(fuse(model, a, b), key=lambda l: l.as_tuple())
    payload = {
        "a": label_str(a),
        "b": label_str(b),
        "channels": [label_str(c) for c in out],
    }
    _emit(args, payload, " ".join(f"({c.m},{c.n})" for c in out))
    return 0


def cmd_fusion_table(args) -> int:
    model = _model(args)
    ft = fusion_table(model)
    entries = []
    lines = [f"fusion table of ({model.p},{model.q})"]
    for i, a in enumerate(ft.labels):
        for j in range(i, len(ft.labels)):
            b = ft.labels[j]
            chans = [c for c, n in zip(ft.labels, ft.table[i, j]) if n]
            entries.append(
                {
                    "a": label_str(a),
                    "b": label_str(b),
                    "channels": [label_str(c) for c in chans],
                }
            )
            lines.append(
                f"  ({a.m},{a.n}) x ({b.m},{b.n}) = "
                + " + ".join(f"({c.m},{c.n})" for c in chans)
            )
    payload = {"products": entries}
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_singular(args) -> int:
    model = _model(args)
    label = KacLabel(args.m, args.n)
    found = singular_vectors(model, label, args.max_level)
    payload = {
        "label": label_str(label),
        "max_level": args.max_level,
        "vectors": [
            {"level": lev, "vector": pbw_to_jsonable(vec)} for lev, vec in found
        ],
    }
    if found:
        lines = [f"level {lev}: {pbw_str(vec)}" for lev, vec in found]
    else:
        lines = [f"no singular vectors through level {args.max_level}"]
    _emit(args, payload, "\n".join(lines))
    return 0


def _correlator_spec(args) -> CorrelatorSpec:
    return CorrelatorSpec(_model(args), *args.labels)


def cmd_bpz(args) -> int:
    spec = _correlator_spec(args)
    ode, anchor, channel = reduced_ode(spec, args.anchor, args.route)
    exps = {
        str(point): [frac_str(r) for r in indicial_exponents(ode, point)]
        for point in (0, 1, "inf")
    }
    payload = {
        "route": args.route,
        "anchor_channel": label_str(channel),
        "anchor": {"t1": frac_str(anchor.t1), "t2": frac_str(anchor.t2)},
        "ode": ode_to_jsonable(ode),
        "indicial_exponents": exps,
    }
    lines = [
        f"reduced ODE (route {args.route}, anchor channel ({channel.m},{channel.n}), "
        f"t1 = {anchor.t1}, t2 = {anchor.t2})",
        f"order {ode.order}; coefficients (low to high derivative):",
    ]
    for i, c in enumerate(ode.coefficients):
        terms = " + ".join(f"({x}) z^{k}" for k, x in enumerate(c) if x != 0) or "0"
        lines.append(f"  c{i}(z) = {terms}")
    for point in (0, 1, "inf"):
        lines.append(f"indicial exponents at {point}: {exps[str(point)]}")
    _emit(args, payload, "\n".join(lines))
    return 0


def cmd_block(args) -> int:
    spec = _correlator_spec(args)
    channel = args.channel
    result = block(spec, channel, args.z, args.order)
    exps = channel_exponents(spec, channel)
    payload = {
        "channel": label_str(channel),
        "z": args.z,
        "order": args.order,
        "t1": frac_str(exps.t1),
        "t2": frac_str(exps.t2),
        "value": {"re": result.value.real, "im": result.value.imag},
        "tail_bound": result.tail_bound,
    }
    human = (
        f"block[channel ({channel.m},{channel.n})]({args.z}) = {result.value:.15g}  "
        f"(tail <= {result.tail_bound:.2e}, order {result.order_used}, "
        f"t1 = {exps.t1}, t2 = {exps.t2})"
    )
    _emit(args, payload, human)
    return 0


def cmd_crossing(args) -> int:
    spec = _correlator_spec(args)
    fm = correlator(spec, args.order).fusing
    grid_z1, grid_z = args.grid_z1, args.grid_z
    z1s = [[z1] * len(grid_z) for z1 in grid_z1]
    z2s = [[z * z1 for z in grid_z] for z1 in grid_z1]
    worst = float(associativity_residual(spec, z1s, z2s, args.order).max())
    payload = {
        "claim": "product equals fused iterate on the sampled grid",
        "region": "|z1| > |z2| > |z1 - z2| > 0",
        "grid": {"z1": grid_z1, "z2_over_z1": grid_z},
        "order": args.order,
        "samples": list(fm.fit_points),
        "fusing_matrix": [[{"re": v.real, "im": v.imag} for v in row] for row in fm.entries],
        "fusing_residual": fm.residual,
        "max_residual": worst,
    }
    lines = [
        f"fusing matrix (held-out residual {fm.residual:.3e}):",
    ]
    for row in fm.entries:
        lines.append("  " + "  ".join(f"{v.real:+.9f}{v.imag:+.2e}j" for v in row))
    lines.append(f"max associativity residual on grid: {worst:.3e}")
    _emit(args, payload, "\n".join(lines))
    return 0 if worst < GRID_TOL and fm.residual < GRID_TOL else 1


def cmd_verify(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    reports = [SUITES[name]() for name in names]
    payload = {"reports": reports}
    lines = []
    for r in reports:
        status = "PASS" if r["passed"] else "FAIL"
        resid = "" if r["max_residual"] is None else f"  max_residual={r['max_residual']:.3e}"
        lines.append(f"{status} {r['suite']}{resid}  ({r['runtime_s']}s)")
    _emit(args, payload, "\n".join(lines))
    return 0 if all(r["passed"] for r in reports) else 1


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process."""
    parser = argparse.ArgumentParser(
        prog="virmin",
        description="exact and numeric toolkit for minimal Virasoro models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("table", "json"), default="table")
        p.add_argument("p", type=int)
        p.add_argument("q", type=int)

    def correlator_labels(p):
        p.add_argument(
            "--labels", nargs=4, type=parse_label, required=True, metavar=("W4", "W1", "W2", "W3")
        )

    p = sub.add_parser("kac-table", help="canonical labels and exact weights")
    common(p)
    p.set_defaults(fn=cmd_kac_table)

    p = sub.add_parser("fuse", help="fusion product of two labels")
    common(p)
    p.add_argument("a", type=parse_label, help="label m,n")
    p.add_argument("b", type=parse_label, help="label m,n")
    p.set_defaults(fn=cmd_fuse)

    p = sub.add_parser("fusion-table", help="all fusion products of a model")
    common(p)
    p.set_defaults(fn=cmd_fusion_table)

    p = sub.add_parser("singular", help="singular vectors of a Verma module")
    common(p)
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--max-level", type=int, default=4)
    p.set_defaults(fn=cmd_singular)

    p = sub.add_parser("bpz", help="reduced correlator ODE from a null vector")
    common(p)
    correlator_labels(p)
    p.add_argument("--route", choices=("slot3", "slot2"), default="slot3")
    p.add_argument("--anchor", type=parse_label, default=None, help="anchor channel m,n")
    p.set_defaults(fn=cmd_bpz)

    p = sub.add_parser("block", help="evaluate a single-channel block")
    common(p)
    correlator_labels(p)
    p.add_argument("--channel", type=parse_label, required=True, help="intermediate label m,n")
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--order", type=int, default=BLOCK_ORDER)
    p.set_defaults(fn=cmd_block)

    p = sub.add_parser("crossing", help="fusing matrix and associativity residuals")
    common(p)
    correlator_labels(p)
    p.add_argument("--order", type=int, default=CROSSING_ORDER)
    p.add_argument("--grid-z1", type=float_list, default=GRID_Z1)
    p.add_argument("--grid-z", type=float_list, default=GRID_Z)
    p.set_defaults(fn=cmd_crossing)

    p = sub.add_parser("verify", help="run a named acceptance suite")
    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p.add_argument("--format", choices=("table", "json"), default="table")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConditioningError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONDITIONING_EXIT
    except VirminError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_EXIT
    except Exception as exc:  # internal
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_EXIT


if __name__ == "__main__":
    sys.exit(main())
