import json
import os
import subprocess
import sys

import pytest

import tpfact
from tpfact.cli import main
from tpfact.linalg import Matrix
from tpfact.positivity import first_negative_minor

RUNNING = "f2 e1 h3 f3 e3 e2 f1 h1 f2 e1 h4 h2 f1"


def write_matrix(tmp_path, name, n, entries):
    path = tmp_path / name
    path.write_text(json.dumps({"n": n, "entries": entries}))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


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
    (["twist", "--matrix", "-", "--u", "2,x", "--v", "21"],
     {"n": 2, "entries": [["5", "2"], ["2", "1"]]}),
    (["check", "--matrix", "-", "--mode", "chamberset", "--u", "1,,2",
      "--v", "21"], {"n": 2, "entries": [["5", "2"], ["2", "1"]]}),
], ids=["numeric-entries", "entries-scalar", "numeric-params",
        "params-not-a-list", "fuzz-negative-trials", "size-string",
        "size-bool", "twist-wrong-size", "enumerate-empty-part",
        "enumerate-superscript-digit", "twist-non-numeric-part",
        "chamberset-empty-part"])
def test_malformed_input_exits_2(argv, stdin, capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin",
                        io.StringIO("" if stdin is None else json.dumps(stdin)))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


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


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter, so that modules loaded by pytest do not count
    src = os.path.dirname(os.path.dirname(os.path.abspath(tpfact.__file__)))
    env = dict(os.environ, PYTHONPATH=src)

    def loaded(statement):
        probe = f"import sys; {statement}; print(*sorted(sys.modules))"
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True)
        return set(out.stdout.split())

    added = loaded("import tpfact.cli") - loaded("pass")
    assert "tpfact.cli" in added
    assert not added & {"dataclasses", "inspect"}
