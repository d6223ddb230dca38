"""The benchmark's four workloads: their inputs, one op, and its check.

A workload hands out inputs in blocks of fixed composition (see
inputs.py).  `run(tp, op)` performs one op against the package `tp`,
which is `tpfact` itself or, in tests, a stand-in with a broken
function; `check(op, answer)` returns None when the answer is exactly
right and a short reason otherwise.  An exception raised by `run` is
passed to `check` as the answer.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction

import inputs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def reference_product(op):
    """Multiply out a scheme with the benchmark's own code.

    Right multiplication by e_i(t) adds t times column i to column i+1,
    by f_i(t) adds t times column i+1 to column i, and by h_j(t) scales
    column j by t.
    """
    n = op.n
    m = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for token, t in zip(op.word, op.params):
        kind, i = token[0], int(token[1:])
        if kind == "h":
            for row in m:
                row[i - 1] *= t
            continue
        src, dst = (i - 1, i) if kind == "e" else (i, i - 1)
        for row in m:
            row[dst] += t * row[src]
    return tuple(tuple(row) for row in m)


def fraction_text(value):
    return (str(value.numerator) if value.denominator == 1
            else f"{value.numerator}/{value.denominator}")


def scheme_text(op):
    return " ".join(op.word)


def _failure(answer):
    if isinstance(answer, BaseException):
        return f"raised {type(answer).__name__}: {answer}"
    return None


class FactorRoundtrip:
    """product, the network sweep and solve on one scheme."""

    name = "factor-roundtrip"
    trace_blocks = 2
    block_sizes = (3, 4, 5)
    signs = (False, False, False, True)   # one op in four has a negated e/f

    def block(self, rng):
        return inputs.scheme_block(self.block_sizes, self.signs, rng)

    def warmup(self, rng):
        return [inputs.scheme_op(3, "open", 4, False, rng)]

    def run(self, tp, op):
        scheme = tp.parse_scheme(scheme_text(op))
        x = tp.product(scheme, op.params)
        swept = tp.evaluate_network(tp.build_network(scheme), op.params)
        return x, swept, tp.solve(scheme, x)

    def counts(self, op, answer):
        """Denominators of per-layer ratios: chambers of the solved scheme."""
        return {"chambers": len(op.word) + 1}

    def check(self, op, answer):
        failure = _failure(answer)
        if failure:
            return failure
        x, swept, solved = answer
        if x.rows != reference_product(op):
            return "product differs from the reference product"
        if swept != x:
            return "evaluate_network differs from product"
        if list(solved) != list(op.params):
            return "solve did not recover the parameters"
        return None


@dataclass(frozen=True)
class TnnOp:
    spec: inputs.SchemeOp
    matrix: tuple

    def describe(self):
        return self.spec.describe()


class TnnCheck:
    """The five `check` modes on one matrix of a known cell."""

    name = "tnn-check"
    trace_blocks = 4
    block_sizes = (4, 5, 6)
    signs = (False, True)                 # half TNN, half one negated e/f

    def _ops(self, specs):
        return [TnnOp(s, reference_product(s)) for s in specs]

    def block(self, rng):
        return self._ops(inputs.scheme_block(self.block_sizes, self.signs, rng))

    def warmup(self, rng):
        return self._ops([inputs.scheme_op(4, "open", 4, False, rng)])

    def run(self, tp, op):
        spec = op.spec
        x = tp.Matrix(op.matrix)
        u, v = tp.Permutation(spec.u), tp.Permutation(spec.v)
        return {
            "all": (tp.is_tnn(x), tp.first_negative_minor(x)),
            "chamber": tp.chamber_criterion(
                tp.parse_scheme(scheme_text(spec)), x).verdict,
            "chamberset": tp.chamber_set_criterion(u, v, x).verdict,
            "fekete1": tp.fekete_criterion(x, 1).verdict,
            "fekete2": tp.fekete_criterion(x, 2).verdict,
        }

    def check(self, op, answer):
        failure = _failure(answer)
        if failure:
            return failure
        spec = op.spec
        tnn = spec.positive
        tp_expected = tnn and spec.is_open
        verdict, witness = answer["all"]
        if verdict is not tnn:
            return f"is_tnn said {verdict}"
        if (witness is None) is not tnn or (witness and not witness[2] < 0):
            return f"first_negative_minor gave {witness!r}"
        for mode, expected in (("chamber", tnn), ("chamberset", tnn),
                               ("fekete1", tp_expected),
                               ("fekete2", tp_expected)):
            if answer[mode] is not expected:
                return f"{mode} said {answer[mode]}"
        return None

    def counts(self, op, answer):
        return {}


OPEN_GL3 = ((3, 2, 1), (3, 2, 1))


@dataclass(frozen=True)
class IsotopyOp:
    u: tuple
    v: tuple
    matrix: tuple      # random rational matrix the certificates must hold on

    def describe(self):
        return {"n": 3, "u": inputs.one_line(self.u),
                "v": inputs.one_line(self.v)}


class IsotopyGl3:
    """Isotopy enumeration of one GL_3 cell plus its exchange certificates."""

    name = "isotopy-gl3"
    trace_blocks = 2

    def _op(self, cell, rng):
        return IsotopyOp(cell[0], cell[1], inputs.random_rational_matrix(3, rng))

    def block(self, rng):
        """One pass over the 36 cells."""
        return [self._op(cell, rng) for cell in inputs.gl3_cells(rng)]

    def warmup(self, rng):
        return [self._op(((2, 1, 3), (1, 3, 2)), rng)]

    def run(self, tp, op):
        graph = tp.enumerate_isotopy_types(tp.Permutation(op.u),
                                           tp.Permutation(op.v))
        x = tp.Matrix(op.matrix)
        holds = []
        for node in graph.nodes:
            for move in tp.available_moves(node.scheme):
                if move.kind == "trivial2":
                    continue
                moved = tp.apply_move(node.scheme, move)
                if tuple(sorted(tp.chamber_minor_family(moved))) != node.family:
                    cert = tp.exchange_certificate(node.scheme, move)
                    holds.append(cert.holds_on(x))
        return len(graph.nodes), len(graph.edges), graph.is_connected(), holds

    def counts(self, op, answer):
        """Denominators of per-layer ratios: isotopy classes found."""
        return {"classes": answer[0]} if isinstance(answer, tuple) else {}

    def check(self, op, answer):
        failure = _failure(answer)
        if failure:
            return failure
        count, edges, connected, holds = answer
        if not connected:
            return "isotopy graph is not connected"
        if (op.u, op.v) == OPEN_GL3 and (count, edges) != (34, 60):
            return f"open cell gave {count} classes and {edges} edges"
        if not all(holds):
            return f"{holds.count(False)} certificates fail"
        return None


# ---------------------------------------------------------------------------
# cli-mix


@dataclass(frozen=True)
class CliOp:
    kind: str
    argv: tuple
    stdin: str
    codes: tuple                  # exit codes that count as success
    spec: inputs.SchemeOp = None
    cell: tuple = None            # (u, v) for enumerate
    checks_as: str = None         # the command whose output a success must match

    def describe(self):
        out = {"cmd": self.kind}
        if self.spec is not None:
            out.update(self.spec.describe())
        if self.cell is not None:
            out.update(u=inputs.one_line(self.cell[0]),
                       v=inputs.one_line(self.cell[1]))
        return out


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


def matrix_json(rows):
    return json.dumps({"n": len(rows),
                       "entries": [[fraction_text(e) for e in row]
                                   for row in rows]})


def params_json(values):
    return json.dumps({"t": [fraction_text(t) for t in values]})


WELL_FORMED = ("factor", "product", "cell", "twist", "check-all",
               "check-chamber", "check-chamberset", "check-fekete1",
               "check-fekete2", "enumerate", "render")

# Precondition failures exit 3, everything else malformed exits 2.
MALFORMED = ("bad-token", "not-reduced", "arity", "singular", "wrong-cell",
             "bad-json", "zero-h", "non-square", "fuzz-small-n")

# Inputs the CLI mishandles at the time of writing (a traceback with
# exit 1, or exit 0 on a negative trial count).  The contract for the
# timed workloads is that no op fails, so these are run after the timed
# loop, outside `failed`, and reported on their own output line.
KNOWN_DEFECTS = ("numeric-entries", "entries-scalar", "numeric-params",
                 "fuzz-negative-trials")


def _small_gl3_cells():
    return [(u, v) for u in inputs.all_permutations(3)
            for v in inputs.all_permutations(3)
            if inputs.length(u) + inputs.length(v) <= 3]


def well_formed_op(kind, spec, rng):
    """One valid command; `enumerate` draws its own small GL_3 cell."""
    if kind == "enumerate":
        cell = rng.choice(_small_gl3_cells())
        argv = ("enumerate", "--u", inputs.one_line(cell[0]),
                "--v", inputs.one_line(cell[1]))
        return CliOp(kind, argv, "", (0,), cell=cell)
    word = scheme_text(spec)
    x = matrix_json(reference_product(spec))
    u, v = inputs.one_line(spec.u), inputs.one_line(spec.v)
    argv, stdin = {
        "factor": (("factor", "--matrix", "-", "--scheme", word), x),
        "product": (("product", "--scheme", word, "--params", "-"),
                    params_json(spec.params)),
        "cell": (("cell", "--matrix", "-"), x),
        "twist": (("twist", "--matrix", "-", "--u", u, "--v", v), x),
        "check-all": (("check", "--matrix", "-", "--mode", "all"), x),
        "check-chamber": (("check", "--matrix", "-", "--mode", "chamber",
                           "--scheme", word), x),
        "check-chamberset": (("check", "--matrix", "-", "--mode", "chamberset",
                              "--u", u, "--v", v), x),
        "check-fekete1": (("check", "--matrix", "-", "--mode", "fekete1"), x),
        "check-fekete2": (("check", "--matrix", "-", "--mode", "fekete2"), x),
        "render": (("render", "--scheme", word, "--format", "ascii"), ""),
    }[kind]
    return CliOp(kind, argv, stdin, (0,), spec=spec)


def malformed_op(kind, rng):
    spec = inputs.scheme_op(3, "random", 4, False, rng)
    word = scheme_text(spec)
    rows = [list(r) for r in reference_product(spec)]
    if kind == "bad-token":
        return CliOp(kind, ("product", "--scheme", word + " q1", "--params", "-"),
                     params_json(spec.params), (2,))
    if kind == "not-reduced":
        return CliOp(kind, ("factor", "--matrix", "-",
                            "--scheme", "e1 e1 h1 h2"),
                     matrix_json(reference_product(spec)), (2,))
    if kind == "arity":
        return CliOp(kind, ("product", "--scheme", word, "--params", "-"),
                     params_json(spec.params[:-1]), (2,))
    if kind == "singular":
        rows[-1] = rows[0]
        return CliOp(kind, ("cell", "--matrix", "-"), matrix_json(rows), (3,))
    if kind == "wrong-cell":
        # the identity cell differs from the cell of any op with a crossing
        spec = inputs.scheme_op(3, "open", 4, False, rng)
        return CliOp(kind, ("twist", "--matrix", "-", "--u", "123",
                            "--v", "123"),
                     matrix_json(reference_product(spec)), (3,))
    if kind == "bad-json":
        return CliOp(kind, ("cell", "--matrix", "-"),
                     matrix_json(rows)[:-2], (2,))
    if kind == "zero-h":
        params = list(spec.params)
        params[spec.word.index("h1")] = Fraction(0)
        return CliOp(kind, ("product", "--scheme", word, "--params", "-"),
                     params_json(params), (3,))
    if kind == "non-square":
        return CliOp(kind, ("cell", "--matrix", "-"),
                     json.dumps({"entries": [["1", "2", "3"], ["4", "5", "6"]]}),
                     (2,))
    if kind == "fuzz-small-n":
        return CliOp(kind, ("fuzz", "--n", "2", "--trials", "3"), "", (2,))
    raise ValueError(kind)


def known_defect_ops():
    """The known-defect inputs.  JSON numbers in place of rational strings
    may be accepted, with the exact output, or rejected with exit 2."""
    gl2 = ("h1", "f1", "h2", "e1")
    x = inputs.SchemeOp(2, "open", (2, 1), (2, 1), gl2,
                        (Fraction(5), Fraction(2), Fraction(1, 5),
                         Fraction(2, 5)), 4, 0)          # [[5, 2], [2, 1]]
    t = inputs.SchemeOp(2, "open", (2, 1), (2, 1), gl2,
                        tuple(map(Fraction, (1, 2, 3, 4))), 4, 0)
    return [
        CliOp("numeric-entries", ("cell", "--matrix", "-"),
              json.dumps({"entries": [[5, 2], [2, 1]]}), (0, 2),
              spec=x, checks_as="cell"),
        CliOp("entries-scalar", ("cell", "--matrix", "-"),
              json.dumps({"entries": 5}), (2,)),
        CliOp("numeric-params", ("product", "--scheme", " ".join(gl2),
                                 "--params", "-"),
              json.dumps({"t": [1, 2, 3, 4]}), (0, 2),
              spec=t, checks_as="product"),
        CliOp("fuzz-negative-trials", ("fuzz", "--n", "4", "--trials", "-5"),
              "", (2,)),
    ]


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv, stdin, prefix=()):
    """One `python -m tpfact.cli` process; the checkout root is its cwd."""
    proc = subprocess.run(
        [sys.executable, *prefix, "-m", "tpfact.cli", *argv], input=stdin,
        capture_output=True, text=True, cwd=ROOT, env=cli_env(), timeout=120)
    return CliResult(proc.returncode, proc.stdout, proc.stderr)


def without_importtime(stderr):
    return "\n".join(line for line in stderr.splitlines()
                     if not line.startswith("import time:"))


class CliMix:
    """One `python -m tpfact.cli` subprocess per op, n <= 4."""

    name = "cli-mix"
    trace_blocks = 3
    malformed_per_block = 3

    def __init__(self, reference=None):
        # `reference` is the tpfact package, used only to check twist
        # (by the involution) and enumerate (against the library).
        self.reference = reference

    def block(self, rng):
        ops = []
        for kind in WELL_FORMED:
            ops.append(well_formed_op(
                kind, inputs.scheme_op(3, "random", 32, False, rng), rng))
            ops.append(well_formed_op(
                kind, inputs.scheme_op(4, "open", 4, True, rng), rng))
        ops += [malformed_op(kind, rng)
                for kind in rng.sample(MALFORMED, self.malformed_per_block)]
        rng.shuffle(ops)
        return ops

    def warmup(self, rng):
        spec = inputs.scheme_op(2, "open", 4, False, rng)
        return [well_formed_op("cell", spec, rng)]

    def run(self, tp, op, prefix=()):
        return run_cli(op.argv, op.stdin, prefix)

    def counts(self, op, answer):
        return {}

    def check(self, op, answer):
        failure = _failure(answer)
        if failure:
            return failure
        stderr = without_importtime(answer.stderr)
        if "Traceback" in stderr:
            return f"exit {answer.code} with a traceback"
        if answer.code not in op.codes:
            return f"exit {answer.code}, expected {op.codes}"
        if answer.code != 0:
            return None if stderr.startswith("error:") else "no error message"
        try:
            out = json.loads(answer.stdout) if op.kind != "render" else None
        except json.JSONDecodeError:
            return "stdout is not JSON"
        return self._check_output(op, out, answer.stdout)

    def _check_output(self, op, out, text):
        spec = op.spec
        kind = op.checks_as or op.kind
        if kind == "render":
            lines = text.rstrip("\n").split("\n")
            if len(lines) != 2 * spec.n or lines[-1].split() != list(spec.word):
                return "render output has the wrong shape"
            return None
        if kind == "enumerate":
            return self._check_enumerate(op, out)
        matrix = [[fraction_text(e) for e in row]
                  for row in reference_product(spec)]
        u, v = inputs.one_line(spec.u), inputs.one_line(spec.v)
        if kind == "factor":
            expected = {"scheme": scheme_text(spec), "u": u, "v": v,
                        "t": [fraction_text(t) for t in spec.params]}
            return None if out == expected else "factor gave other parameters"
        if kind == "product":
            return (None if out == {"n": spec.n, "entries": matrix}
                    else "product differs from the reference product")
        if kind == "cell":
            return None if out == {"u": u, "v": v} else f"cell gave {out}"
        if kind == "twist":
            return self._check_twist(spec, out)
        mode = kind.split("-", 1)[1]
        expected = spec.positive
        if mode.startswith("fekete"):
            expected = spec.positive and spec.is_open
        if out.get("mode") != mode or out.get("verdict") is not expected:
            return f"check {mode} gave {out}"
        if (out.get("witness") is None) is not expected:
            return f"check {mode} witness {out.get('witness')}"
        return None

    def _check_twist(self, spec, out):
        """The twist of the image cell must bring the matrix back."""
        tp = self.reference
        twisted = tp.matrix_from_json(out)
        u, v = tp.Permutation(spec.u), tp.Permutation(spec.v)
        back = tp.twist(twisted, u.inverse(), v.inverse())
        return (None if back.rows == reference_product(spec)
                else "twist is not inverted by the twist of the image cell")

    def _check_enumerate(self, op, out):
        tp = self.reference
        graph = tp.enumerate_isotopy_types(tp.Permutation(op.cell[0]),
                                           tp.Permutation(op.cell[1]))
        expected = [list(e) for e in sorted(graph.edges)]
        if (out.get("connected") is not True
                or out.get("count") != len(graph.nodes)
                or len(out.get("nodes", ())) != len(graph.nodes)
                or out.get("edges") != expected):
            return "enumerate differs from the library's isotopy graph"
        return None


WORKLOADS = {w.name: w for w in (FactorRoundtrip, TnnCheck, IsotopyGl3, CliMix)}
