"""Command line interface.

Exit codes: 0 success, 2 invalid input (`ValidationError`, malformed
JSON included), 3 arithmetic precondition failure (`PreconditionError`:
singular matrix, wrong cell, vanishing minor), 4 I/O error (`OSError`).
A check that runs to completion exits 0 even when the verdict is
negative; the verdict lives in the JSON report.

Only the modules that argument and JSON handling need load with this
one; each command imports its own modules when it runs, so a process
loads nothing that its command does not use.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import PreconditionError, ValidationError
from .linalg import (matrix_from_json_text, matrix_to_json, parse_json,
                     scalar_from_str, scalar_to_str)
from .permutations import Permutation


def _read_text(path):
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        name = "standard input" if path == "-" else path
        raise ValidationError(f"{name} is not UTF-8 text: {exc}") from exc


def _write_text(path, text):
    if not text.endswith("\n"):
        text += "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_matrix(path):
    return matrix_from_json_text(_read_text(path))


def _load_params(path):
    data = parse_json(_read_text(path), "parameter JSON")
    if not isinstance(data, dict) or not isinstance(data.get("t"), list):
        raise ValidationError('parameter file must be an object with a "t" list')
    return [scalar_from_str(item) for item in data["t"]]


def _int(text):
    """An integer option: ASCII digits without underscores, as int()
    takes any Unicode digit and reads the digit group "1_0" as 10."""
    try:
        if text.isascii() and "_" not in text:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _cell(args, x):
    """The double cell named by --u and --v, else the one x lies in."""
    if args.u is None and args.v is None:
        from .bruhat import double_cell_of
        return double_cell_of(x)
    if args.u is None or args.v is None:
        raise ValidationError("provide both --u and --v or neither")
    return Permutation.from_string(args.u), Permutation.from_string(args.v)


def _emit(payload):
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _sets_json(pair):
    rows, cols = pair
    return {"rows": list(rows), "cols": list(cols)}


def _cmd_factor(args):
    from .schemes import parse_scheme
    from .solver import solve
    scheme = parse_scheme(args.scheme)
    x = _load_matrix(args.matrix)
    values = solve(scheme, x)
    _emit({
        "scheme": str(scheme),
        "u": str(scheme.u),
        "v": str(scheme.v),
        "t": [scalar_to_str(t) for t in values],
    })
    return 0


def _cmd_product(args):
    from .product_map import product
    from .schemes import parse_scheme
    scheme = parse_scheme(args.scheme)
    values = _load_params(args.params)
    _emit(matrix_to_json(product(scheme, values)))
    return 0


def _cmd_twist(args):
    from .twist import _twist_in_cell, twist
    x = _load_matrix(args.matrix)
    # a cell read off x needs no second classification to check it
    apply = _twist_in_cell if args.u is None and args.v is None else twist
    _emit(matrix_to_json(apply(x, *_cell(args, x))))
    return 0


def _cmd_cell(args):
    from .bruhat import double_cell_of
    x = _load_matrix(args.matrix)
    u, v = double_cell_of(x)
    _emit({"u": str(u), "v": str(v)})
    return 0


def _cmd_check(args):
    from .positivity import (chamber_criterion, chamber_set_criterion,
                             fekete_criterion, tnn_report)
    x = _load_matrix(args.matrix)
    if args.mode == "all":
        report = tnn_report(x)
    elif args.mode == "chamber":
        if args.scheme is None:
            raise ValidationError("--mode chamber needs --scheme")
        from .schemes import parse_scheme
        report = chamber_criterion(parse_scheme(args.scheme), x)
    elif args.mode == "chamberset":
        report = chamber_set_criterion(*_cell(args, x), x)
    elif args.mode == "fekete1":
        report = fekete_criterion(x, 1)
    else:
        report = fekete_criterion(x, 2)
    payload = {"mode": args.mode}
    payload.update(report.to_json())
    _emit(payload)
    return 0


def _cmd_enumerate(args):
    from .render import isotopy_dot
    from .schemes import enumerate_isotopy_types
    u, v = Permutation.from_string(args.u), Permutation.from_string(args.v)
    graph = enumerate_isotopy_types(u, v)
    if args.dot is not None:
        _write_text(args.dot, isotopy_dot(graph))
    nodes = []
    for node in graph.nodes:
        nodes.append({
            "scheme": str(node.scheme),
            "family": [_sets_json(pair) for pair in node.family],
        })
    _emit({
        "u": str(u),
        "v": str(v),
        "count": len(graph.nodes),
        "connected": graph.is_connected(),
        "nodes": nodes,
        "edges": [list(edge) for edge in sorted(graph.edges)],
    })
    return 0


def _cmd_render(args):
    from .render import render_ascii, render_svg
    from .schemes import parse_scheme
    scheme = parse_scheme(args.scheme)
    if args.format == "ascii":
        _write_text(args.out, render_ascii(scheme))
    else:
        _write_text(args.out, render_svg(scheme))
    return 0


def _cmd_fuzz(args):
    from .identities import fuzz
    report = fuzz(args.n, args.trials, args.seed)
    _emit(report)
    return 0 if not report["failures"] else 3


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tpfact",
        description="Factor invertible matrices into elementary products "
                    "and test total nonnegativity with minor criteria.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor",
                       help="recover parameters of a matrix inside the "
                            "cell of a scheme")
    p.add_argument("--matrix", required=True, help="matrix JSON file or -")
    p.add_argument("--scheme", required=True, help="scheme word, e.g. 'h1 f1 h2 e1'")
    p.set_defaults(func=_cmd_factor)

    p = sub.add_parser("product", help="multiply out a scheme at given parameters")
    p.add_argument("--scheme", required=True)
    p.add_argument("--params", required=True, help='JSON file {"t": [...]} or -')
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("twist", help="apply the twist map")
    p.add_argument("--matrix", required=True)
    p.add_argument("--u", help="row permutation of the cell (default: classify)")
    p.add_argument("--v", help="column permutation of the cell")
    p.set_defaults(func=_cmd_twist)

    p = sub.add_parser("cell", help="classify the double Bruhat cell of a matrix")
    p.add_argument("--matrix", required=True)
    p.set_defaults(func=_cmd_cell)

    p = sub.add_parser("check", help="run a total-nonnegativity criterion")
    p.add_argument("--matrix", required=True)
    p.add_argument("--mode", default="all",
                   choices=["all", "chamber", "chamberset", "fekete1", "fekete2"])
    p.add_argument("--scheme", help="scheme for --mode chamber")
    p.add_argument("--u", help="cell for --mode chamberset (default: classify)")
    p.add_argument("--v")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("enumerate", help="enumerate isotopy types of schemes on a cell")
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--dot", help="also write the isotopy graph in DOT format")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("render", help="draw the arrangement of a scheme")
    p.add_argument("--scheme", required=True)
    p.add_argument("--format", default="ascii", choices=["ascii", "svg"])
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("fuzz", help="random cross-checks of the minor identities")
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--trials", type=_int, default=1000)
    p.add_argument("--seed", type=_int, default=0)
    p.set_defaults(func=_cmd_fuzz)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
