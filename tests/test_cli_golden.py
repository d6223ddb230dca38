"""`tpfact` outputs compared byte for byte with recorded ones.

`cli_golden.json` holds the exit code, stdout and stderr of every case
below.  After an intended output change, re-record it with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import sys

import pytest

from tpfact.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "cli_golden.json")

GL2 = {"n": 2, "entries": [["5", "2"], ["2", "1"]]}
# products of "e1 e2 e1 f1 f2 f1 h1 h2 h3"; the second has one negative
# parameter, so it lies in the open cell but is not totally nonnegative
GOOD = {"n": 3, "entries": [["70/3", "5", "2"], ["18", "9/2", "2"],
                            ["4", "3/2", "1"]]}
BAD = {"n": 3, "entries": [["22/3", "-1", "-2"], ["2", "-3/2", "-2"],
                           ["4", "3/2", "1"]]}
OPEN3 = "e1 e2 e1 f1 f2 f1 h1 h2 h3"
RUNNING = "f2 e1 h3 f3 e3 e2 f1 h1 f2 e1 h4 h2 f1"


def _check(mode, matrix, *extra):
    return ["check", "--matrix", "-", "--mode", mode, *extra], matrix


CASES = {
    "factor-gl2": (["factor", "--matrix", "-", "--scheme", "h1 f1 h2 e1"],
                   GL2),
    "factor-gl3": (["factor", "--matrix", "-", "--scheme", OPEN3], GOOD),
    "product-gl2": (["product", "--scheme", "h1 f1 h2 e1", "--params", "-"],
                    {"t": ["5", "2", "1/5", "2/5"]}),
    "product-gl3": (["product", "--scheme", OPEN3, "--params", "-"],
                    {"t": ["1", "-2", "1/3", "3", "1", "2", "2", "3/2", "1"]}),
    "cell-gl3": (["cell", "--matrix", "-"], GOOD),
    "twist-gl3": (["twist", "--matrix", "-"], GOOD),
    "twist-gl3-named-cell": (["twist", "--matrix", "-", "--u", "321",
                              "--v", "321"], BAD),
}
for _mode, _extra in (("all", ()), ("chamber", ("--scheme", OPEN3)),
                      ("chamberset", ()), ("fekete1", ()), ("fekete2", ())):
    CASES[f"check-{_mode}-true"] = _check(_mode, GOOD, *_extra)
    CASES[f"check-{_mode}-false"] = _check(_mode, BAD, *_extra)
CASES.update({
    "render-ascii": (["render", "--scheme", RUNNING, "--format", "ascii"],
                     None),
    "render-svg": (["render", "--scheme", RUNNING, "--format", "svg"], None),
    "enumerate-gl2": (["enumerate", "--u", "21", "--v", "21"], None),
    "fuzz-n4": (["fuzz", "--n", "4", "--trials", "20"], None),
})


def run_case(argv, stdin):
    """Run `tpfact argv` in process; returns [exit code, stdout, stderr]."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO("" if stdin is None else json.dumps(stdin))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return [code, out.getvalue(), err.getvalue()]


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_recording(name):
    with open(GOLDEN, encoding="utf-8") as fh:
        recorded = json.load(fh)[name]
    assert run_case(*CASES[name]) == recorded


def test_recording_covers_every_case():
    with open(GOLDEN, encoding="utf-8") as fh:
        assert sorted(json.load(fh)) == sorted(CASES)


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({name: run_case(*case) for name, case in CASES.items()},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
