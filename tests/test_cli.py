import ast
import io
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from math import comb

import pytest

import tpfact
from tpfact import bruhat, positivity
from tpfact.cli import main
from tpfact.linalg import Matrix, det, matrix_to_json, minor
from tpfact.positivity import CriterionReport, first_negative_minor, is_tnn

RUNNING = "f2 e1 h3 f3 e3 e2 f1 h1 f2 e1 h4 h2 f1"


def write_matrix(tmp_path, name, n, entries):
    path = tmp_path / name
    path.write_text(json.dumps({"n": n, "entries": entries}))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def feed_stdin(monkeypatch, stdin):
    """Serve stdin: None, raw text, or an object dumped as JSON."""
    text = stdin if stdin is None or isinstance(stdin, str) else json.dumps(stdin)
    monkeypatch.setattr("sys.stdin", io.StringIO(text or ""))


def test_product_and_factor_round_trip(tmp_path, capsys):
    params = tmp_path / "t.json"
    params.write_text(json.dumps({"t": ["3", "2", "1/3", "2"]}))
    code, out = run(capsys, "product", "--scheme", "h1 f1 h2 e1",
                    "--params", str(params))
    assert code == 0
    blob = json.loads(out)
    assert blob == {"n": 2, "entries": [["3", "6"], ["2", "13/3"]]}

    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(blob))
    code, out = run(capsys, "factor", "--matrix", str(mpath),
                    "--scheme", "h1 f1 h2 e1")
    assert code == 0
    report = json.loads(out)
    assert report["t"] == ["3", "2", "1/3", "2"]
    assert report["u"] == "21" and report["v"] == "21"


def test_cell_command(tmp_path, capsys):
    mpath = write_matrix(tmp_path, "m.json", 2, [["1", "5"], ["0", "1"]])
    code, out = run(capsys, "cell", "--matrix", mpath)
    assert code == 0
    assert json.loads(out) == {"u": "12", "v": "21"}


def test_twist_command(tmp_path, capsys):
    mpath = write_matrix(tmp_path, "m.json", 2, [["3", "6"], ["2", "5"]])
    code, out = run(capsys, "twist", "--matrix", mpath)
    assert code == 0
    assert json.loads(out) == {
        "n": 2, "entries": [["1/4", "1/2"], ["1/6", "5/3"]]}
    code, out = run(capsys, "twist", "--matrix", mpath, "--u", "21", "--v", "21")
    assert code == 0


def test_twist_command_classifies_the_matrix_once(tmp_path, capsys,
                                                  monkeypatch):
    calls = []
    classify = bruhat.bruhat_cell_of
    monkeypatch.setattr(bruhat, "bruhat_cell_of",
                        lambda x: calls.append(x) or classify(x))
    # the Pascal matrix is totally positive, so it lies in the open cell
    pascal = [[str(comb(i + j, i)) for j in range(4)] for i in range(4)]
    mpath = write_matrix(tmp_path, "m.json", 4, pascal)
    code, out = run(capsys, "twist", "--matrix", mpath)
    assert code == 0
    assert len(calls) == 2
    calls.clear()
    code, given = run(capsys, "twist", "--matrix", mpath,
                      "--u", "4321", "--v", "4321")
    assert code == 0
    assert len(calls) == 2
    assert given == out


def test_check_modes(tmp_path, capsys):
    good = write_matrix(tmp_path, "good.json", 2, [["2", "1"], ["1", "2"]])
    bad = write_matrix(tmp_path, "bad.json", 2, [["1", "2"], ["3", "4"]])
    for mode in ("all", "fekete1", "fekete2"):
        code, out = run(capsys, "check", "--matrix", good, "--mode", mode)
        assert code == 0
        assert json.loads(out)["verdict"] is True
    code, out = run(capsys, "check", "--matrix", bad, "--mode", "all")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] is False
    rows, cols, value = first_negative_minor(Matrix([[1, 2], [3, 4]]))
    assert report["witness"] == {"rows": list(rows), "cols": list(cols),
                                 "value": str(value)}
    assert report["witness"]["value"].startswith("-")

    code, out = run(capsys, "check", "--matrix", good,
                    "--mode", "chamber", "--scheme", "h1 f1 h2 e1")
    assert code == 0
    assert json.loads(out)["verdict"] is True

    code, out = run(capsys, "check", "--matrix", good, "--mode", "chamberset")
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_check_chamber_needs_scheme(tmp_path, capsys):
    good = write_matrix(tmp_path, "good.json", 2, [["2", "1"], ["1", "2"]])
    code = main(["check", "--matrix", good, "--mode", "chamber"])
    assert code == 2


def test_enumerate_command(tmp_path, capsys):
    dot = tmp_path / "graph.dot"
    code, out = run(capsys, "enumerate", "--u", "21", "--v", "21",
                    "--dot", str(dot))
    assert code == 0
    blob = json.loads(out)
    assert blob["count"] == 2
    assert blob["connected"] is True
    assert len(blob["nodes"]) == 2
    assert dot.read_text().startswith("graph isotopy {")


def test_enumerate_unwritable_dot_prints_nothing(tmp_path, capsys):
    # the DOT file is written before the JSON, so a failed write leaves
    # stdout empty
    dot = tmp_path / "missing" / "g.dot"
    assert main(["enumerate", "--u", "21", "--v", "21", "--dot", str(dot)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_render_command(tmp_path, capsys):
    code, out = run(capsys, "render", "--scheme", "h1 f1 h2 e1",
                    "--format", "ascii")
    assert code == 0
    assert out.splitlines()[-1].split() == ["h1", "f1", "h2", "e1"]
    svg_path = tmp_path / "out.svg"
    code, _ = run(capsys, "render", "--scheme", "h1 f1 h2 e1",
                  "--format", "svg", "--out", str(svg_path))
    assert code == 0
    assert svg_path.read_text().startswith("<svg ")


def test_fuzz_command(capsys):
    code, out = run(capsys, "fuzz", "--n", "3", "--trials", "20", "--seed", "5")
    assert code == 0
    blob = json.loads(out)
    assert blob["failures"] == []
    assert blob["trials"] == 20


def test_exit_codes(tmp_path, capsys):
    assert main(["cell", "--matrix", str(tmp_path / "missing.json")]) == 4
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["cell", "--matrix", str(bad)]) == 2
    identity = write_matrix(tmp_path, "id.json", 2, [["1", "0"], ["0", "1"]])
    assert main(["factor", "--matrix", identity,
                 "--scheme", "h1 f1 h2 e1"]) == 3
    singular = write_matrix(tmp_path, "sing.json", 2, [["1", "1"], ["1", "1"]])
    assert main(["cell", "--matrix", singular]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("argv, stdin", [
    (["cell", "--matrix", "-"], {"entries": [[5, 2], [2, 1]]}),
    (["cell", "--matrix", "-"], {"entries": 5}),
    (["product", "--scheme", "h1 f1 h2 e1", "--params", "-"],
     {"t": [1, 2, 3, 4]}),
    (["product", "--scheme", "h1 f1 h2 e1", "--params", "-"], {"t": "1234"}),
    (["fuzz", "--n", "4", "--trials", "-5"], None),
    (["cell", "--matrix", "-"], {"n": "2", "entries": [["5", "2"], ["2", "1"]]}),
    (["cell", "--matrix", "-"], {"n": True, "entries": [["1"]]}),
    (["twist", "--matrix", "-", "--u", "21", "--v", "321"],
     {"n": 2, "entries": [["5", "2"], ["2", "1"]]}),
    (["enumerate", "--u", "2,1,", "--v", "21"], None),
    (["enumerate", "--u", "21", "--v", "\u00b21"], None),
    (["enumerate", "--u", "321", "--v", "21"], None),
    (["twist", "--matrix", "-", "--u", "2,x", "--v", "21"],
     {"n": 2, "entries": [["5", "2"], ["2", "1"]]}),
    (["check", "--matrix", "-", "--mode", "chamberset", "--u", "1,,2",
      "--v", "21"], {"n": 2, "entries": [["5", "2"], ["2", "1"]]}),
    (["cell", "--matrix", "-"], {"entries": [["1e100000000"]]}),
    (["cell", "--matrix", "-"], {"entries": [["9" * 5000]]}),
    (["product", "--scheme", "h1 f1 h2 e1", "--params", "-"],
     {"t": ["1/" + "3" * 5000, "1", "1", "1"]}),
    # JSON text, as json.dumps cannot print a 5,000-digit int either
    (["cell", "--matrix", "-"], '{"n": %s, "entries": [["1"]]}' % ("1" * 5000)),
    (["product", "--scheme", "h1 f1 h2 e1", "--params", "-"],
     '{"t": [%s]}' % ("-" + "7" * 5000)),
    (["render", "--scheme", "h" + "1" * 5000], None),
    (["render", "--scheme", "h\u0661"], None),
    (["enumerate", "--u", "\u0662\u0661", "--v", "\u0662\u0661"], None),
    (["enumerate", "--u", "\uff12\uff11", "--v", "\uff12\uff11"], None),
    (["enumerate", "--u", "1,\u0662", "--v", "1,\u0662"], None),
    (["cell", "--matrix", "-"],
     {"entries": [["\u0661", "0"], ["0", "\uff11"]]}),
    (["product", "--scheme", "h1 f1 h2 e1", "--params", "-"],
     {"t": ["1", "\u0662", "1", "1"]}),
    (["cell", "--matrix", "-"], {"entries": [["1_0", "0"], ["0", "1"]]}),
    (["check", "--matrix", "-", "--mode", "chamberset", "--u", "0_2,1",
      "--v", "2,1"], {"n": 2, "entries": [["5", "2"], ["2", "1"]]}),
    (["fuzz", "--n", "3", "--trials", "1_0", "--seed", "5"], None),
    # nesting past the JSON parser's recursion limit
    (["cell", "--matrix", "-"], "[" * 100_000 + "]" * 100_000),
    (["product", "--scheme", "h1 f1 h2 e1", "--params", "-"],
     '{"t": %s}' % ("[" * 100_000 + "]" * 100_000)),
], ids=["numeric-entries", "entries-scalar", "numeric-params",
        "params-not-a-list", "fuzz-negative-trials", "size-string",
        "size-bool", "twist-wrong-size", "enumerate-empty-part",
        "enumerate-superscript-digit", "enumerate-size-mismatch",
        "twist-non-numeric-part",
        "chamberset-empty-part", "exponent-literal", "long-entry",
        "long-param-denominator", "long-json-size", "long-json-param",
        "long-scheme-index", "scheme-non-ascii-digit",
        "permutation-arabic-indic-digits", "permutation-fullwidth-digits",
        "permutation-comma-non-ascii-digit", "matrix-non-ascii-digits",
        "param-non-ascii-digit", "matrix-digit-group",
        "permutation-comma-digit-group", "fuzz-digit-group",
        "matrix-deep-nesting", "params-deep-nesting"])
def test_malformed_input_exits_2(argv, stdin, capsys, monkeypatch):
    feed_stdin(monkeypatch, stdin)
    try:
        code, prefix = main(argv), "error:"
    except SystemExit as exc:  # argparse rejected an option
        code, prefix = exc.code, "usage: tpfact "
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(prefix)


GL2 = {"entries": [["5", "2"], ["2", "1"]]}


@pytest.mark.parametrize("argv, stdin, message", [
    (["cell", "--matrix", "-"], "[1,2", "bad matrix JSON: "),
    (["product", "--scheme", "h1 f1 h2 e1", "--params", "-"], '{"t": [1',
     "bad parameter JSON: "),
    (["factor", "--matrix", "-", "--scheme", "h1 f1 h2 e1 h3"], GL2,
     "matrix size 2 != scheme size 3\n"),
    (["check", "--matrix", "-", "--mode", "chamber", "--scheme", "h1 h2 h3"],
     GL2, "matrix size 2 != scheme size 3\n"),
    (["check", "--matrix", "-", "--mode", "chamberset", "--u", "321",
      "--v", "321"], GL2, "matrix and permutations must share one size\n"),
    (["twist", "--matrix", "-", "--u", "21"], GL2,
     "provide both --u and --v or neither\n"),
    (["check", "--matrix", "-", "--mode", "chamberset", "--v", "21"], GL2,
     "provide both --u and --v or neither\n"),
    (["render", "--scheme", ""], None, "empty scheme\n"),
    (["factor", "--matrix", "-", "--scheme", " "], GL2, "empty scheme\n"),
], ids=["matrix-json", "params-json", "factor-size", "chamber-size",
        "chamberset-size", "twist-u-only", "chamberset-v-only",
        "render-empty-scheme", "factor-blank-scheme"])
def test_refusal_exits_2_with_its_message(argv, stdin, message, capsys,
                                          monkeypatch):
    feed_stdin(monkeypatch, stdin)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


@pytest.mark.parametrize("argv", [
    ["cell", "--matrix"],
    ["product", "--scheme", "h1 f1 h2 e1", "--params"],
], ids=["matrix", "params"])
def test_non_utf8_file_exits_2(argv, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff")
    assert main(argv + [str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {bad} is not UTF-8 text")


def test_stdin_matrix(tmp_path, capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin",
                        io.StringIO('{"n": 2, "entries": [["1", "0"], ["0", "2"]]}'))
    code, out = run(capsys, "cell", "--matrix", "-")
    assert code == 0
    assert json.loads(out) == {"u": "12", "v": "12"}


def test_product_prints_results_of_any_size(capsys, monkeypatch):
    import io
    limit = sys.get_int_max_str_digits()
    big = "9" * 3000
    monkeypatch.setattr("sys.stdin",
                        io.StringIO(json.dumps({"t": [big, "1", "1", big]})))
    code, out = run(capsys, "product", "--scheme", "h1 f1 h2 e1", "--params", "-")
    assert code == 0
    # (10^3000 - 1)^2 = 10^6000 - 2 * 10^3000 + 1
    assert json.loads(out)["entries"][0][1] == "9" * 2999 + "8" + "0" * 2999 + "1"
    # printing lifts no interpreter-wide limit
    assert sys.get_int_max_str_digits() == limit


SRC = os.path.dirname(os.path.dirname(os.path.abspath(tpfact.__file__)))

# every name the package exports; the test-only helpers moved to
# tests/reference.py
EXPORTS = [
    "Chamber", "CriterionReport", "ExchangeCertificate",
    "FactorizationScheme", "IsotopyGraph", "Matrix", "Move", "Permutation",
    "PreconditionError", "SchemeSymbol", "ValidationError", "apply_move",
    "available_moves", "bruhat_cell_of", "build_arrangement", "build_network",
    "chamber_criterion", "chamber_minor_family", "chamber_set_criterion",
    "check_dodgson", "check_plucker", "commute_h", "det", "double_cell_of",
    "enumerate_isotopy_types", "evaluate_network", "exchange_certificate",
    "fekete_criterion", "fekete_families", "fekete_scheme",
    "first_negative_minor", "fuzz", "gl3_criteria_catalog", "in_bruhat_cell",
    "is_reduced", "is_tnn", "is_tp", "isotopy_dot", "isotopy_key",
    "matrix_from_json", "matrix_from_json_text", "matrix_to_json", "minor",
    "parse_scheme", "product", "render_ascii", "render_svg", "scalar_from_str",
    "scalar_to_str", "seed_scheme", "signed_representative", "solve", "twist",
    "w_chamber_sets",
]

LIBRARY = {f"tpfact.{name}" for name in (
    "bruhat", "errors", "identities", "linalg", "networks", "permutations",
    "positivity", "product_map", "render", "schemes", "solver", "twist")}


def fresh_python(*argv, stdin="", timeout=60, preexec_fn=None):
    """A fresh interpreter, so that modules loaded by pytest do not count."""
    return subprocess.run([sys.executable, *argv], input=stdin,
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=timeout,
                          preexec_fn=preexec_fn)


MEMORY_CAP = 1 << 30


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def capped_python(*argv, stdin="", timeout=10):
    """fresh_python with its address space capped at 1 GiB, so that a
    runaway allocation ends the child in a MemoryError, and a runaway
    loop in the timeout, instead of starving the machine."""
    return fresh_python(*argv, stdin=stdin, timeout=timeout,
                        preexec_fn=_cap_address_space)


def loaded(statement):
    probe = f"import sys; {statement}; print(*sorted(sys.modules))"
    out = fresh_python("-c", probe)
    assert out.returncode == 0, out.stderr
    return set(out.stdout.split())


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    added = loaded("import tpfact.cli") - loaded("pass")
    assert "tpfact.cli" in added
    assert not added & {"dataclasses", "inspect"}


def test_package_import_loads_no_submodule():
    assert {m for m in loaded("import tpfact") if m.startswith("tpfact")} \
        == {"tpfact"}


def test_cell_command_loads_only_its_own_modules():
    # -X importtime lists every module the process imports on stderr
    out = fresh_python("-X", "importtime", "-m", "tpfact.cli", "cell",
                       "--matrix", "-",
                       stdin='{"entries": [["5", "2"], ["2", "1"]]}')
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {"u": "21", "v": "21"}
    imported = {line.rsplit("|", 1)[1].strip()
                for line in out.stderr.splitlines()
                if line.startswith("import time:")}
    assert {"tpfact.bruhat", "tpfact.linalg"} <= imported
    assert not imported & {f"tpfact.{name}" for name in (
        "schemes", "solver", "twist", "positivity", "identities", "networks",
        "render", "product_map")}


# the tpfact modules each first access loads, itself and by its imports
FIRST_ACCESS_LOADS = {
    "tpfact.ValidationError": "errors",
    "tpfact.Matrix": "errors linalg",
    "from tpfact import Matrix": "errors linalg",
    "tpfact.linalg": "errors linalg",
    "tpfact.solve": "bruhat errors linalg permutations schemes solver twist",
    "tpfact.is_tnn": "errors linalg permutations positivity schemes",
    "tpfact.product": "errors linalg permutations product_map schemes",
    "tpfact.evaluate_network":
        "errors linalg networks permutations product_map schemes",
    "hasattr(tpfact, 'no_such_name')": "",
    "from tpfact import *": " ".join(sorted(tpfact._EXPORTS)),
}


@pytest.mark.parametrize("statement", list(FIRST_ACCESS_LOADS))
def test_first_package_attribute_loads_only_its_module(statement):
    probe = (f"import sys, tpfact; {statement}; "
             "print(*sorted(m for m in sys.modules if m.startswith('tpfact.')));"
             "print(*sorted(set(vars(tpfact)) & set(tpfact.__all__)))")
    out = fresh_python("-c", probe)
    assert out.returncode == 0, out.stderr
    modules, names = out.stdout.split("\n")[:2]
    expected = FIRST_ACCESS_LOADS[statement].split()
    assert modules.split() == [f"tpfact.{m}" for m in expected]
    # every public name of every module loaded so far is bound
    assert names.split() == sorted(name for m in expected
                                   for name in tpfact._EXPORTS[m])


@pytest.mark.parametrize("statement", [
    "import tpfact.solver, tpfact",
    "import tpfact.twist, tpfact",
    "import tpfact; tpfact.Matrix; from tpfact.solver import solve",
    "import tpfact; tpfact.solve",
    "from tpfact import *; import tpfact",
])
def test_package_twist_is_the_function_in_every_import_order(statement):
    probe = (f"{statement}; from tpfact.twist import twist; "
             "print(tpfact.twist is twist, callable(twist))")
    out = fresh_python("-c", probe)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["True", "True"]


def test_package_exports_are_unchanged():
    assert sorted(tpfact.__all__) == EXPORTS
    assert set(tpfact._EXPORTS) == {m.split(".")[1] for m in LIBRARY}


def test_star_import_and_dir_cover_all():
    assert set(tpfact.__all__) <= set(dir(tpfact))
    namespace = {}
    exec("from tpfact import *", namespace)
    for name in tpfact.__all__:
        assert namespace[name] is getattr(tpfact, name)


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for name in sorted(os.listdir(os.path.join(SRC, "tpfact"))):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, "tpfact", name)) as f:
            tree = ast.parse(f.read())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    imported[bound] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{name}:{line} {bound}"
                   for bound, line in imported.items() if bound not in read]
    assert unused == []


def test_every_public_definition_is_exported_or_used():
    # a public module-level function or class must be in tpfact.__all__
    # or be read somewhere in the package outside its own definition
    defined, read = {}, set()
    for name in sorted(os.listdir(os.path.join(SRC, "tpfact"))):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, "tpfact", name)) as f:
            tree = ast.parse(f.read())
        for stmt in tree.body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                owner = stmt.name
                if not owner.startswith("_"):
                    defined[owner] = f"{name}:{stmt.lineno}"
            for node in ast.walk(stmt):
                found = (node.id if isinstance(node, ast.Name)
                         else node.attr if isinstance(node, ast.Attribute)
                         else node.name if isinstance(node, ast.alias)
                         else None)
                if found is not None and found != owner:
                    read.add(found)
    assert len(defined) > 50
    dead = [f"{where} {name}" for name, where in sorted(defined.items())
            if name not in tpfact.__all__ and name not in read]
    assert dead == []


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        tpfact.no_such_name
    with pytest.raises(ImportError):
        exec("from tpfact import no_such_name", {})


@pytest.mark.parametrize("argv", [
    ["--n", "80"],
    ["--n", "3", "--trials", "100000000"],
    ["--n", "1000000000", "--trials", "1"],
], ids=["n-80", "many-trials", "huge-n"])
def test_fuzz_refuses_too_much_work_at_once(argv):
    out = fresh_python("-m", "tpfact.cli", "fuzz", *argv, timeout=1)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error: fuzz work estimate trials * n**4 = ")


@pytest.mark.parametrize("u, v, count", [
    ("4321", "4321", "10,332,241,920"),
    (",".join(map(str, range(300, 0, -1))), ",".join(map(str, range(1, 301))),
     "3,628,800"),
], ids=["open-gl4", "n-300"])
def test_enumerate_refuses_too_many_words_at_once(u, v, count):
    # the open GL_4 walk used to grow past 460 MB with no output
    out = fresh_python("-m", "tpfact.cli", "enumerate", "--u", u, "--v", v,
                       timeout=1)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error: the isotopy walk on (")
    assert f"would key at least {count} scheme words" in out.stderr


@pytest.mark.parametrize("n, message", [
    (14, "has 40,116,599 minors, more than MAX_CHAMBER_SET_MINORS = 20,000"),
    (40, "has more than 20,000 chamber sets"),
], ids=["open-14", "open-40"])
def test_check_chamberset_refuses_a_large_family_at_once(tmp_path, n, message):
    # every subset is a chamber set of the open cell: C(2n, n) - 1 minors
    pascal = [[str(comb(i + j, i)) for j in range(n)] for i in range(n)]
    path = write_matrix(tmp_path, "pascal.json", n, pascal)
    w0 = ",".join(map(str, range(n, 0, -1)))
    out = fresh_python("-m", "tpfact.cli", "check", "--matrix", path,
                       "--mode", "chamberset", "--u", w0, "--v", w0, timeout=1)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error: ") and message in out.stderr


def test_check_all_on_a_tnn_16x16_matrix_finishes_in_seconds(tmp_path):
    # the all-minors scan would evaluate C(32, 16) - 1 = 601,080,389 minors
    pascal = [[str(comb(i + j, i)) for j in range(16)] for i in range(16)]
    path = write_matrix(tmp_path, "pascal16.json", 16, pascal)
    out = fresh_python("-m", "tpfact.cli", "check", "--matrix", path,
                       "--mode", "all", timeout=5)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == {"mode": "all", "verdict": True,
                                      "witness": None}


def late_witness_matrix(n):
    """The Pascal matrix with a_nn lowered until det < 0."""
    pascal = [[comb(i + j, i) for j in range(n)] for i in range(n)]
    while det(Matrix(pascal)) >= 0:
        pascal[-1][-1] -= 1
    return Matrix(pascal)


@pytest.mark.parametrize("n", [10, 16])
def test_check_all_finds_a_late_witness_in_seconds(tmp_path, n):
    # its first negative minor by order is 8x8 at n = 10, which the
    # ordered scan reaches after more than 10^5 minors
    x = late_witness_matrix(n)
    path = write_matrix(tmp_path, "late.json", n, matrix_to_json(x)["entries"])
    out = fresh_python("-m", "tpfact.cli", "check", "--matrix", path,
                       "--mode", "all", timeout=10)
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout)
    assert report["verdict"] is False
    rows, cols = report["witness"]["rows"], report["witness"]["cols"]
    assert len(rows) == len(cols)
    value = Fraction(report["witness"]["value"])
    assert value < 0 and value == minor(x, rows, cols)


def test_check_all_past_the_scan_bound_tests_x_once(tmp_path, capsys,
                                                     monkeypatch):
    # the greedy search's first test of x is the verdict: one Cauchon pass
    # for x, then one per row and per column it tries to drop
    n = 10
    x = late_witness_matrix(n)
    path = write_matrix(tmp_path, "late.json", n, matrix_to_json(x)["entries"])
    passes = []
    original = positivity._cauchon_matrix

    def counted(y, fails=None):
        passes.append(y.n)
        return original(y, fails)

    monkeypatch.setattr(positivity, "_cauchon_matrix", counted)
    code, out = run(capsys, "check", "--matrix", path, "--mode", "all")
    assert code == 0
    assert len(passes) == 2 * n + 1
    passes.clear()
    witness = first_negative_minor(x)
    assert json.loads(out) == {"mode": "all", **CriterionReport(
        False, witness).to_json()}
    assert is_tnn(x) is False and len(passes) == 2 * n + 2


N16 = 16
IDENTITY16 = [[str(int(i == j)) for j in range(N16)] for i in range(N16)]
E16 = ",".join(map(str, range(1, N16 + 1)))


@pytest.mark.parametrize("argv, report", [
    (["cell"], {"u": E16, "v": E16}),
    (["twist"], {"n": N16, "entries": IDENTITY16}),
    (["check", "--mode", "chamberset"],
     {"mode": "chamberset", "verdict": True, "witness": None}),
], ids=["cell", "twist", "chamberset"])
def test_classifying_a_16x16_identity_stays_small(tmp_path, argv, report):
    # the identity is the first of 16! candidates; listing S_16 first
    # would need terabytes
    path = write_matrix(tmp_path, "id16.json", N16, IDENTITY16)
    out = capped_python("-m", "tpfact.cli", *argv, "--matrix", path)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == report
